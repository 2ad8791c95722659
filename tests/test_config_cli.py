import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton as bp
from biphoton.cli import main, read_tomography_records
from biphoton.config import config_to_dict
from biphoton.errors import ConfigError, InputError

#: a two-set registry with constant indices, enough to bind the KTP axis names
CONSTANT_REGISTRY = {
    "schema_version": 1,
    "sets": [
        {"name": name, "formula": "constant", "coefficients": [index],
         "valid_range_nm": [400.0, 2000.0]}
        for name, index in (("ktp_y", 1.7), ("ktp_z", 1.8))
    ],
}
#: the required pump and crystal fields, every other field at its default
MINIMAL = (
    "pump: {center_wavelength_nm: 785.0, intensity_fwhm_bandwidth_nm: 5.35}\n"
    "crystal: {length_mm: 2.0, poling_period_um: 46.15}\n"
)


class TestConfig:
    def test_default_profile_is_paper_parameter_set(self, default_config):
        cfg = default_config
        assert cfg.pump.center_wavelength_nm == 785.0
        assert cfg.pump.intensity_fwhm_bandwidth_nm == 5.35
        assert cfg.pump.repetition_rate_mhz == 81.0
        assert cfg.crystal.length_mm == 2.0
        assert cfg.crystal.poling_period_um == 46.15
        assert cfg.crystal.temperature_c == 20.0
        assert cfg.grid.points_per_axis == 512

    def test_missing_crystal_length_names_field(self, tmp_path, default_config):
        raw = config_to_dict(default_config)
        del raw["crystal"]["length_mm"]
        path = tmp_path / "broken.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="length_mm"):
            bp.load_config(path)

    def test_round_trip(self, tmp_path, default_config):
        path = tmp_path / "roundtrip.yaml"
        bp.save_config(default_config, path)
        loaded = bp.load_config(path)
        # output_dir is part of the file; everything round-trips
        assert loaded == default_config

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pump: [unclosed")
        with pytest.raises(ConfigError, match="parse"):
            bp.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            bp.load_config(tmp_path / "nope.yaml")

    def test_digest_stable_and_sensitive(self, default_config):
        digest_a = bp.config_digest(default_config)
        digest_b = bp.config_digest(default_config)
        assert digest_a == digest_b
        from dataclasses import replace

        changed = replace(default_config, seed=default_config.seed + 1)
        assert bp.config_digest(changed) != digest_a

    def test_dispersion_file_reference(self, tmp_path, default_config):
        registry_path = tmp_path / "registry.yaml"
        registry_path.write_text(yaml.safe_dump(CONSTANT_REGISTRY))
        cfg_path = tmp_path / "run.yaml"
        raw = config_to_dict(default_config)
        raw["dispersion_file"] = "registry.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        loaded = bp.load_config(cfg_path)
        assert loaded.crystal.axes.pump.formula == "constant"
        # the flag also applies when running on the shipped default profile
        flagged = bp.default_config(dispersion_file=registry_path)
        assert flagged.crystal.axes.pump.formula == "constant"

    @pytest.mark.parametrize("given_by", ["flag", "key"])
    def test_relative_dispersion_file_base(self, tmp_path, monkeypatch, given_by):
        # the flag is a path from the working directory, the key one from the config's
        # directory; the registry in the other place is malformed
        (tmp_path / "sub").mkdir()
        good, bad = ("reg.yaml", "sub/reg.yaml") if given_by == "flag" else (
            "sub/reg.yaml", "reg.yaml")
        (tmp_path / good).write_text(yaml.safe_dump(CONSTANT_REGISTRY))
        (tmp_path / bad).write_text("sets: 5\n")
        key = "dispersion_file: reg.yaml\n" if given_by == "key" else ""
        (tmp_path / "sub" / "run.yaml").write_text(MINIMAL + key)
        monkeypatch.chdir(tmp_path)
        flag = "reg.yaml" if given_by == "flag" else None
        loaded = bp.load_config("sub/run.yaml", dispersion_file=flag)
        assert loaded.crystal.axes.pump.formula == "constant"

    def test_default_profile_dcf_blocks_match_presets(self, default_config):
        # the profile spells the arms out as schema documentation; a config
        # without them gets the presets, so the two must not drift apart
        assert default_config.signal_dcf == bp.signal_arm_preset()
        assert default_config.idler_dcf == bp.idler_arm_preset()

    def test_exponent_without_dot_is_a_float(self, tmp_path):
        # PyYAML reads 6e1 as the string '6e1'; float fields coerce it
        path = tmp_path / "exponent.yaml"
        path.write_text(MINIMAL + "grid: {half_span_nm: 6e1}\n")
        assert bp.load_config(path).grid.half_span_nm == 60.0

    @pytest.mark.parametrize(
        "text, match",
        [
            ("pump: {center_wavelength_nm: 785.0, intensity_fwhm_bandwidth_nm: 5.35}\n"
             "crystal: {length_mm: 2.0, poling_period_um: 46.15, temperature: 60}\n",
             r"unknown field crystal\.temperature$"),
            (MINIMAL + "filters: {signal: {center_nm: 1570.0, fwhm_nm: 8.0}, sigal: {}}\n",
             r"unknown field filters\.sigal$"),
            (MINIMAL + "grid: {points_per_axis: 64.9}\n", r"grid\.points_per_axis: 64\.9"),
            (MINIMAL + "seed: 1.5\n", r"seed: 1\.5"),
            ("pump: {center_wavelength_nm: 785.0, intensity_fwhm_bandwidth_nm: 5.35}\n"
             "crystal: {poling_period_um: 46.15}\n",
             r"^missing required field crystal\.length_mm$"),
        ],
        ids=["unknown-crystal-key", "unknown-filter-arm", "fractional-points", "fractional-seed",
             "missing-length"],
    )
    def test_rejection_names_the_field(self, tmp_path, text, match):
        path = tmp_path / "run.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            bp.load_config(path)


PINNED_DIGESTS = {
    "default": "baec72e855d7",
    "filters": "09f96d81e798",
    "grid": "761d51bc5dde",
    "minimal": "254824252518",
    "registry": "728ac8d7a184",
}


@pytest.mark.parametrize("variant", PINNED_DIGESTS)
def test_config_digest_pinned_and_round_trips(tmp_path, default_config, variant):
    raw = config_to_dict(default_config)
    if variant == "filters":
        raw["filters"] = {
            "signal": {"center_nm": 1570.0, "fwhm_nm": 8.0},
            "idler": {"center_nm": 1570.0, "fwhm_nm": 8.0, "shape": "rectangular",
                      "peak_transmission": 0.9},
        }
    elif variant == "grid":
        raw["grid"].update(points_per_axis=64, half_span_nm=40.0)
    elif variant == "minimal":
        raw = yaml.safe_load(MINIMAL)
    elif variant == "registry":
        (tmp_path / "registry.yaml").write_text(yaml.safe_dump(CONSTANT_REGISTRY))
        raw["dispersion_file"] = "registry.yaml"
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    loaded = bp.load_config(path)
    assert bp.config_digest(loaded) == PINNED_DIGESTS[variant]
    saved = tmp_path / "saved.yaml"
    bp.save_config(loaded, saved)
    assert bp.load_config(saved) == loaded


class TestCliContracts:
    def test_design_defaults_contains_poling(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--json", "design"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["poling_period_um"] == pytest.approx(46.15, abs=0.4)
        assert report["gvm_wavelength_nm"] == pytest.approx(1582.0, abs=3.0)

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_computation_error_exits_one(self, tmp_path, capsys, default_config):
        raw = config_to_dict(default_config)
        raw["grid"]["half_span_nm"] = 500.0  # escapes the dispersion validity range
        raw["grid"]["points_per_axis"] = 16
        path = tmp_path / "bad_grid.yaml"
        path.write_text(yaml.safe_dump(raw))
        code = main(["--config", str(path), "--out", str(tmp_path), "jsa", "compute"])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "WavelengthRangeError"

    def test_design_rerun_byte_identical(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--out", str(out_a), "design"]) == 0
        assert main(["--out", str(out_b), "design"]) == 0
        capsys.readouterr()
        assert (out_a / "design.json").read_bytes() == (out_b / "design.json").read_bytes()

    def test_spectro_rerun_byte_identical_and_seed_sensitive(self, tmp_path, capsys):
        small = {
            "pump": {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": 5.35},
            "crystal": {"length_mm": 2.0, "poling_period_um": 46.15},
            "grid": {"points_per_axis": 64},
            "seed": 7,
        }
        cfg = tmp_path / "small.yaml"
        cfg.write_text(yaml.safe_dump(small))
        args = ["--config", str(cfg), "--out", str(tmp_path), "spectro", "simulate",
                "--pairs", "20000"]
        assert main(args + ["--out", str(tmp_path / "h1.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "h2.csv")]) == 0
        assert main(args + ["--seed", "8", "--out", str(tmp_path / "h3.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()
        assert (tmp_path / "h1.csv").read_bytes() != (tmp_path / "h3.csv").read_bytes()

    def test_outputs_embed_config_digest(self, tmp_path, capsys, default_config):
        small = config_to_dict(default_config)
        small["grid"]["points_per_axis"] = 64
        cfg_path = tmp_path / "small.yaml"
        cfg_path.write_text(yaml.safe_dump(small))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path), "jsa", "compute"]) == 0
        capsys.readouterr()
        cfg = bp.load_config(cfg_path)
        digest = bp.config_digest(cfg)
        for name in ("jsa_amplitudes.csv", "jsa_intensity.csv", "schmidt_report.json"):
            assert digest in (tmp_path / name).read_text()

    def test_hom_emits_visibility_and_curve(self, tmp_path, capsys, default_config):
        small = config_to_dict(default_config)
        small["grid"]["points_per_axis"] = 128
        cfg_path = tmp_path / "small.yaml"
        cfg_path.write_text(yaml.safe_dump(small))
        code = main(
            [
                "--config", str(cfg_path), "--out", str(tmp_path), "--json",
                "hom", "--delays=-300:300:150", "--pair-probability", "0.0015",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["multipair_bound"] == 0.997
        lines = (tmp_path / "hom_curve.csv").read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "delay_fs,coincidence_probability"
        assert len(lines) - header_idx - 1 == 5

    def test_tomo_simulate_reconstruct_round_trip(self, tmp_path, capsys):
        records_path = tmp_path / "records.csv"
        assert main(
            [
                "--out", str(tmp_path), "--seed", "11",
                "tomo", "simulate",
                "--depolarization", "0.028", "--mean-counts", "20000",
                "--out", str(records_path),
            ]
        ) == 0
        records = read_tomography_records(records_path)
        assert len(records) == 36
        assert main(
            ["--out", str(tmp_path), "--json",
             "tomo", "reconstruct", "--in", str(records_path)]
        ) == 0
        captured = capsys.readouterr().out
        report = json.loads(captured[captured.index("{"):])
        assert report["fidelity_singlet"] == pytest.approx(0.979, abs=0.01)

    def test_efficiency_counts_and_budget(self, tmp_path, capsys):
        counts_path = tmp_path / "counts.csv"
        counts_path.write_text(
            "singles_signal,singles_idler,coincidences,integration_s\n"
            "38000.0,38000.0,24300.0,1.0\n"
        )
        budget_path = tmp_path / "budget.yaml"
        budget_path.write_text("detector_efficiency: 0.85\noptics_transmission: 0.75\n")
        code = main(
            ["--out", str(tmp_path), "--json", "efficiency",
             "--counts", str(counts_path), "--budget", str(budget_path)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["klyshko_signal"] == pytest.approx(24300.0 / 38000.0)
        assert report["predicted_heralding"] == pytest.approx(0.6375)

    def test_efficiency_requires_input(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "efficiency"]) == 1
        capsys.readouterr()

    def test_spectro_csv_layout(self, tmp_path, capsys):
        small = {
            "pump": {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": 5.35},
            "crystal": {"length_mm": 2.0, "poling_period_um": 46.15},
            "grid": {"points_per_axis": 64},
            "seed": 3,
        }
        cfg = tmp_path / "small.yaml"
        cfg.write_text(yaml.safe_dump(small))
        out_csv = tmp_path / "hist.csv"
        assert main(["--config", str(cfg), "--out", str(tmp_path), "spectro", "simulate",
                     "--pairs", "5000", "--out", str(out_csv)]) == 0
        capsys.readouterr()
        lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        header_cells = lines[0].split(",")
        assert header_cells[0] == ""  # corner, then idler bin centers
        first_row = lines[1].split(",")
        assert float(first_row[0]) == pytest.approx(0.064, abs=1e-9)
        assert len(header_cells) == len(first_row)


def _python(*args):
    """Run a fresh interpreter that imports this checkout's biphoton."""
    src = str(Path(bp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=120)


IN = object()  # stands for the input file written from the case's content
BUDGET = ["efficiency", "--budget", IN]
COUNTS = ["efficiency", "--counts", IN]
RECORDS = ["tomo", "reconstruct", "--in", IN]
HOM_PAST_REVIVAL = ["hom", "--delays=0:40000:5000"]  # 2*pi/d_omega is 34961 fs
CONFIG = ["--config", IN]
REGISTRY = ["--dispersion-file", IN, "design"]
CONSTANT_SET = "{name: ktp_y, formula: constant, coefficients: [1.7], valid_range_nm: [400, 2000]"
NAN_PUMP_BANDWIDTH = (
    "pump:\n  center_wavelength_nm: 785.0\n  intensity_fwhm_bandwidth_nm: .nan\n"
    "crystal:\n  length_mm: 2.0\n  poling_period_um: 46.15\n"
)


def _with_input(command, path):
    return [path if arg is IN else arg for arg in command]


@pytest.mark.parametrize(
    "command, content, error",
    [
        (BUDGET, "detector_efficiency: 0.85\nlaser_magic: 0.5\n", "InputError"),
        (BUDGET, "detector_efficiency: [0.85\n", "InputError"),
        (COUNTS, "38000.0,n/a,24300.0\n", "InputError"),
        (COUNTS, "singles_signal,singles_idler,coincidences\n0.0,0.0,0.0\n",
         "DegenerateInputError"),
        (COUNTS, "38000.0,nan,24300.0\n", "InputError"),
        (["tomo", "simulate", "--mean-counts", "100000000000000000000"], None, "InputError"),
        (["spectro", "simulate", "--pairs", "100000000000000000000"], None, "InputError"),
        (["--seed", "-5", "tomo", "simulate"], None, "InputError"),
        (["spectro", "simulate", "--pairs", "1000", "--seed", "-1"], None, "InputError"),
        ([*CONFIG, "tomo", "simulate"], MINIMAL + "seed: -3\n", "InputError"),
        (["tomo", "simulate", "--phase-error", "nan"], None, "InputError"),
        (RECORDS, "setting_a,setting_b,counts,integration_s\nH,H,12.5,1.0\n", "InputError"),
        (RECORDS, None, "InputError"),  # the file does not exist
        (HOM_PAST_REVIVAL, None, "InputError"),
        (["hom", "--delays=nan:0:1"], None, "InputError"),
        (["hom", "--delays=0:inf:1"], None, "InputError"),
        (["hom", "--filter-nm", "nan"], None, "InputError"),
        ([*CONFIG, "hom"], NAN_PUMP_BANDWIDTH, "InputError"),
        ([*CONFIG, "spectro", "simulate", "--pairs", "1000"], NAN_PUMP_BANDWIDTH,
         "InputError"),
        (["hom", "--delays=0:1e300:1"], None, "InputError"),
        (["hom", "--delays=0:1e300:1e290"], None, "InputError"),
        ([*CONFIG, "design"], "- 1\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "grid: [1, 2]\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "spectrometer: [1]\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "filters: [1]\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "seed: abc\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "spectrometer: {bin_size_ns: abc}\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "dispersion_file: 5\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "dispersion_file: .\n", "ConfigError"),
        (["--config", ".", "design"], None, "ConfigError"),
        ([*CONFIG, "design"], MINIMAL.replace("46.15}", "46.15, temperature: 60}"),
         "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "grid: {points_per_axis: 64.9}\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "seed: 1.5\n", "ConfigError"),
        (REGISTRY, "sets: 5\n", "ConfigError"),
        (REGISTRY, "sets: [1]\n", "ConfigError"),
        (REGISTRY, f"sets: [{CONSTANT_SET}, thermal: [1]}}]\n", "ConfigError"),
    ],
    ids=[
        "budget-unknown-key", "budget-not-yaml", "counts-not-numeric",
        "counts-zero-singles", "counts-nan-singles", "tomo-mean-counts-past-poisson-limit",
        "spectro-pairs-past-int64", "negative-global-seed", "negative-spectro-seed",
        "negative-config-seed", "tomo-phase-error-nan", "tomo-fractional-count", "tomo-missing-in",
        "hom-delay-past-revival", "hom-delay-nan", "hom-delay-inf", "hom-filter-nan",
        "config-nan-bandwidth-hom", "config-nan-bandwidth-spectro",
        "hom-delay-count-past-int64", "hom-delay-count-past-memory",
        "config-top-level-list", "config-grid-list", "config-spectrometer-list",
        "config-filters-list", "config-seed-not-a-number", "config-bin-size-not-a-number",
        "config-dispersion-file-not-a-string", "config-dispersion-file-is-a-directory",
        "config-is-a-directory", "config-unknown-key", "config-fractional-points",
        "config-fractional-seed", "registry-sets-not-a-list", "registry-set-not-a-mapping",
        "registry-thermal-not-a-mapping",
    ],
)
def test_bad_input_exits_one_with_json_record(tmp_path, command, content, error):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    proc = _python("-m", "biphoton.cli", "--out", tmp_path / "out", *_with_input(command, path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == error
    assert record["message"]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "spec, fields",
    [
        (bp.PumpSpec, {"center_wavelength_nm": NAN, "intensity_fwhm_bandwidth_nm": 5.35}),
        (bp.PumpSpec, {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": NAN}),
        (bp.PumpSpec, {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": 5.35,
                       "repetition_rate_mhz": INF}),
        (bp.PumpSpec, {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": 5.35,
                       "pulse_duration_fs": NAN}),
        (bp.CrystalSpec, {"length_mm": NAN, "poling_period_um": 46.15}),
        (bp.CrystalSpec, {"length_mm": 2.0, "poling_period_um": INF}),
        (bp.CrystalSpec, {"length_mm": 2.0, "poling_period_um": 46.15, "temperature_c": NAN}),
        (bp.FilterSpec, {"center_nm": 1570.0, "fwhm_nm": NAN}),
        (bp.FilterSpec, {"center_nm": NAN, "fwhm_nm": 8.0}),
        (bp.FrequencyGrid, {"half_span_nm": NAN}),
        (bp.FrequencyGrid, {"center_signal_nm": NAN}),
        (bp.DcfSpec, {"total_dispersion_ps_per_nm": NAN}),
        (bp.DcfSpec, {"total_dispersion_ps_per_nm": -413.0, "insertion_delay_ns": INF}),
    ],
)
def test_non_finite_spec_fields_rejected(ktp, spec, fields):
    if spec is bp.CrystalSpec:
        fields = {"axes": ktp, **fields}
    with pytest.raises(InputError):
        spec(**fields)


def test_cli_starts_without_scipy(tmp_path):
    code = (
        "import json, sys\n"
        "import biphoton.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps(loaded()))\n"
        "assert biphoton.cli.main(['--out', sys.argv[1], 'design']) == 0\n"
        "print(json.dumps(loaded()))\n"
    )
    proc = _python("-c", code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    after_import, after_design = json.loads(lines[0]), json.loads(lines[-1])
    assert after_import == []
    assert after_design == []


def test_jsa_csv_tokens_are_float_reprs(tmp_path, capsys, default_config):
    small = config_to_dict(default_config)
    small["grid"]["points_per_axis"] = 64
    cfg_path = tmp_path / "small.yaml"
    cfg_path.write_text(yaml.safe_dump(small))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "jsa", "compute"]) == 0
    capsys.readouterr()
    cfg = bp.load_config(cfg_path)
    f = bp.compute_jsa(cfg.pump, cfg.crystal, cfg.grid).amplitudes
    n = f.shape[0]
    expected = {
        "jsa_amplitudes.csv": [
            [repr(float(part)) for k in range(n) for part in (f[j, k].real, f[j, k].imag)]
            for j in range(n)
        ],
        "jsa_intensity.csv": [[repr(float(v)) for v in row] for row in np.abs(f) ** 2],
    }
    for name, rows in expected.items():
        lines = [l for l in (tmp_path / name).read_text().splitlines() if not l.startswith("#")]
        assert {len(l.split(",")) for l in lines} == {len(rows[0])}
        assert len(rows[0]) in (n, 2 * n)
        assert [l.split(",") for l in lines[1:]] == rows


#: characters of well-formed counts, budget and tomography files, so that
#: generated text also reaches the parsers behind the first row
INPUT_ALPHABET = "0123456789.,:-+e \n#HVDARLnaifty_[]{}'\"detcor_efficiency"


@settings(deadline=None, max_examples=60)
@given(
    command=st.sampled_from([COUNTS, BUDGET, RECORDS]),
    content=st.text(max_size=200) | st.text(alphabet=INPUT_ALPHABET, max_size=200),
)
def test_malformed_input_files_exit_cleanly(tmp_path_factory, command, content):
    # any text in an input file ends in exit 0 or 1, or argparse's SystemExit(2)
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "input"
    path.write_text(content, encoding="utf-8")
    try:
        code = main(["--out", str(work / "out"), *_with_input(command, str(path))])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert code in (0, 1)
