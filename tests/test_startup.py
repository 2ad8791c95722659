"""Start-up: the lazy package namespace and the modules each subcommand loads."""

import importlib
import json

import pytest
import yaml

import biphoton as bp
from biphoton import jsa
from biphoton.config import config_to_dict

from test_config_cli import _python

#: the names ``biphoton`` exported when its ``__init__`` imported every submodule
EXPORTS = [
    "CountSummary", "CrystalAxes", "CrystalSpec", "DcfSpec", "DispersionRegistry",
    "FilterSpec", "FrequencyGrid", "HomCurve", "JointAmplitude", "LossBudget",
    "MarginalSpectrum", "PumpSpec", "RunConfig", "SchmidtSpectrum", "SellmeierSet",
    "SpectralState", "ThermalModel", "TofHistogram", "TomographyRecord", "TwoQubitState",
    "apply_filter", "arrival_to_wavelength", "builtin_registry", "chi2_independence",
    "compute_jsa", "concurrence", "config_digest", "constant_index_set", "default_config",
    "fidelity_singlet", "full_settings", "gram_purity", "group_velocity", "gvm_angle",
    "gvm_degenerate_wavelength", "heralded_spectral_state", "hom_curve", "hom_visibility",
    "idler_arm_preset", "inverse_group_velocity", "klyshko", "ktp_axes", "load_config",
    "load_registry", "marginal_spectrum", "model_state", "multipair_visibility_bound",
    "optimize_pump_bandwidth", "phase_mismatch", "phasematching_function",
    "predict_heralding", "predict_visibility", "pump_envelope", "reconstruct_mle",
    "refractive_index", "resolution_estimate", "save_config", "schmidt_decompose",
    "signal_arm_preset", "simulate_jsi_histogram", "simulate_tomography",
    "solve_poling_period", "state_purity", "support_span", "tangle", "time_bin_correlation",
    "trace_distance", "usable_bandwidth", "wavelength_to_arrival", "wavenumber",
]
#: submodules that only some subcommands run
OPTIONAL = ("biphoton.efficiency", "biphoton.interference", "biphoton.polarization")


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_its_modules_own_object(name):
    obj = getattr(bp, name)
    assert obj.__module__.startswith("biphoton.")
    assert vars(importlib.import_module(obj.__module__))[name] is obj


def test_all_and_star_import_list_the_exports():
    assert sorted(bp.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(bp))
    namespace = {}
    exec("from biphoton import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bp.no_such_name
    assert not hasattr(bp, "compute_jsa_")


def test_patched_module_attribute_is_seen_and_undone(monkeypatch):
    original = jsa.compute_jsa

    def fake(*args):
        raise AssertionError("not to be called")

    monkeypatch.setattr(jsa, "compute_jsa", fake)
    assert bp.compute_jsa is fake
    monkeypatch.undo()
    assert bp.compute_jsa is original
    assert "compute_jsa" not in vars(bp)


def test_import_loads_no_submodule_and_modules_resolve():
    code = (
        "import json, sys\n"
        "import biphoton\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('biphoton.'))))\n"
        "print(biphoton.units.__name__)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded, units = proc.stdout.splitlines()
    assert json.loads(loaded) == []
    assert units == "biphoton.units"


#: runs biphoton.cli.main on each argv list of the JSON in argv[1], then prints
#: the biphoton submodules that are loaded
LOADED_AFTER = (
    "import json, sys\n"
    "import biphoton.cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    assert biphoton.cli.main(argv) == 0, argv\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('biphoton.'))))\n"
)


@pytest.mark.parametrize(
    "commands, loaded",
    [
        ([["design"]], []),
        ([["--config", "{config}", "jsa", "compute"]], []),
        ([["--config", "{config}", "spectro", "simulate", "--pairs", "1000"]], []),
        ([["--config", "{config}", "hom", "--filter-nm", "8"]], ["biphoton.interference"]),
        ([["tomo", "simulate"], ["tomo", "reconstruct", "--in", "{out}/tomography.csv"]],
         ["biphoton.polarization"]),
        ([["efficiency", "--counts", "{counts}", "--budget", "{budget}"]],
         ["biphoton.efficiency"]),
    ],
    ids=["design", "jsa-compute", "spectro", "hom", "tomo", "efficiency"],
)
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, default_config, commands, loaded):
    small = config_to_dict(default_config)
    small["grid"]["points_per_axis"] = 64
    places = {"config": tmp_path / "small.yaml", "out": tmp_path / "out",
              "counts": tmp_path / "counts.csv", "budget": tmp_path / "budget.yaml"}
    places["config"].write_text(yaml.safe_dump(small))
    places["counts"].write_text(
        "singles_signal,singles_idler,coincidences\n38000.0,41000.0,24300.0\n")
    places["budget"].write_text("detector_efficiency: 0.85\n")
    argvs = [["--out", str(places["out"]), *(arg.format(**places) for arg in argv)]
             for argv in commands]
    proc = _python("-c", LOADED_AFTER, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert [m for m in modules if m in OPTIONAL] == loaded
