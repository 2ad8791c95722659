"""Each independent check accepts the program's real output and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from checks import CheckError  # noqa: E402

DATA = HERE.parent / "src" / "biphoton" / "data"
PAIRS, SPECTRO_SEED, DEPOLARIZATION = 100_000, 7, 0.05
COUNTS = {"singles_signal": 100_000, "singles_idler": 90_000, "coincidences": 40_000,
          "integration_s": 1.0}
BUDGET = {"detector_efficiency": 0.9, "fiber_coupling": 0.8, "mode_overlap": 0.95}


@pytest.fixture(scope="module")
def source():
    return checks.Source(DATA)


@pytest.fixture(scope="module")
def cli_out(tmp_path_factory):
    """Real CLI outputs, one directory per subcommand."""
    from biphoton import cli

    root = tmp_path_factory.mktemp("cli")
    (root / "counts.csv").write_text(
        "singles_signal,singles_idler,coincidences,integration_s\n"
        + ",".join(str(COUNTS[k]) for k in COUNTS) + "\n")
    (root / "budget.yaml").write_text("".join(f"{k}: {v}\n" for k, v in BUDGET.items()))
    argvs = {
        "design": ["design"],
        "jsa": ["jsa", "compute"],
        "jsa8": ["jsa", "compute", "--filter-nm", "8"],
        "hom8": ["hom", "--filter-nm", "8"],
        "spectro": ["spectro", "simulate", "--pairs", str(PAIRS), "--seed", str(SPECTRO_SEED)],
        "tomo": ["--seed", "3", "tomo", "simulate", "--depolarization", str(DEPOLARIZATION),
                 "--out", str(root / "tomo" / "records.csv")],
        "state": ["tomo", "reconstruct", "--in", str(root / "tomo" / "records.csv"),
                  "--out", str(root / "state" / "state.json")],
        "eff": ["efficiency", "--counts", str(root / "counts.csv"),
                "--budget", str(root / "budget.yaml")],
    }
    for name, argv in argvs.items():
        assert cli.main(["--out", str(root / name), *argv]) == 0
    return root


def _edit_json(path: Path, **changes) -> None:
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir(parents=True, exist_ok=True)
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


# ---------------------------------------------------------------- design


def test_design_accepts_program_output(cli_out, source):
    report = json.loads((cli_out / "design" / "design.json").read_text())
    checks.check_design(report, source, source.temperature_c)


@pytest.mark.parametrize("key,delta", [("poling_period_um", 1e-6), ("gvm_wavelength_nm", 0.05),
                                       ("gvm_angle_deg", 0.01)])
def test_design_rejects_shifted_figure(cli_out, source, key, delta):
    report = json.loads((cli_out / "design" / "design.json").read_text())
    report[key] += delta * (report[key] if key == "poling_period_um" else 1.0)
    with pytest.raises(CheckError, match=key):
        checks.check_design(report, source, source.temperature_c)


def test_design_check_follows_the_thermal_polynomials(source):
    """The period moves with temperature, so a 20 °C figure fails at 30 °C."""
    at_20 = source.poling_period(785.0, 1570.0, 20.0)
    with pytest.raises(CheckError):
        checks.close("poling_period_um", at_20, source.poling_period(785.0, 1570.0, 30.0))


# ---------------------------------------------------------------- jsa compute


def test_jsa_files_accept_program_output(cli_out):
    unfiltered = checks.check_jsa_files(cli_out / "jsa", filtered=False)
    filtered = checks.check_jsa_files(cli_out / "jsa8", filtered=True)
    assert filtered > unfiltered


def test_jsa_rejects_scaled_amplitudes(cli_out, tmp_path):
    out = _copy(cli_out / "jsa", tmp_path / "jsa")
    csv = out / "jsa_amplitudes.csv"
    lines = csv.read_text().splitlines()
    body_start = next(i for i, line in enumerate(lines) if line.startswith("re_idler0"))
    scaled = [",".join(repr(float(v) * 1.001) for v in line.split(","))
              for line in lines[body_start + 1:]]
    csv.write_text("\n".join(lines[: body_start + 1] + scaled) + "\n")
    with pytest.raises(CheckError, match="normalization"):
        checks.check_jsa_files(out, filtered=False)


@pytest.mark.parametrize("change,match", [
    (lambda r: {"purity": r["purity"] * (1 + 1e-6)}, "purity"),
    (lambda r: {"schmidt_number": r["schmidt_number"] * 1.01}, "schmidt_number"),
    (lambda r: {"leading_coefficients": r["leading_coefficients"][::-1]}, "descending"),
])
def test_jsa_rejects_misstated_report(cli_out, tmp_path, change, match):
    out = _copy(cli_out / "jsa", tmp_path / "jsa")
    report = json.loads((out / "schmidt_report.json").read_text())
    _edit_json(out / "schmidt_report.json", **change(report))
    with pytest.raises(CheckError, match=match):
        checks.check_jsa_files(out, filtered=False)


def test_jsa_rejects_survival_above_one(cli_out, tmp_path):
    out = _copy(cli_out / "jsa8", tmp_path / "jsa8")
    report = json.loads((out / "schmidt_report.json").read_text())
    report["filter_survival"]["signal"] = 1.2
    _edit_json(out / "schmidt_report.json", filter_survival=report["filter_survival"])
    with pytest.raises(CheckError, match="survival"):
        checks.check_jsa_files(out, filtered=True)


# ---------------------------------------------------------------- hom


def _hom_inputs(cli_out):
    purity = json.loads((cli_out / "jsa8" / "schmidt_report.json").read_text())["purity"]
    return cli_out / "hom8", purity


def test_hom_accepts_program_output(cli_out):
    checks.check_hom_files(*_hom_inputs(cli_out))


def test_hom_rejects_visibility_other_than_purity(cli_out):
    out, purity = _hom_inputs(cli_out)
    with pytest.raises(CheckError, match="visibility"):
        checks.check_hom_files(out, purity * (1 - 1e-6))


@pytest.mark.parametrize("delay,value,match", [("0.0", 0.1, "P\\(0\\)"),
                                               ("2000.0", 0.45, "P\\(2000\\)")])
def test_hom_rejects_bad_curve_point(cli_out, tmp_path, delay, value, match):
    out = _copy(cli_out / "hom8", tmp_path / "hom")
    curve = out / "hom_curve.csv"
    lines = [f"{delay},{value!r}" if line.startswith(delay + ",") else line
             for line in curve.read_text().splitlines()]
    curve.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match=match):
        checks.check_hom_files(out, _hom_inputs(cli_out)[1])


# ---------------------------------------------------------------- spectro


def test_spectro_accepts_program_output(cli_out):
    checks.check_spectro_file(cli_out / "spectro" / "hist.csv", PAIRS, SPECTRO_SEED)


def test_spectro_rejects_lost_pairs(cli_out, tmp_path):
    hist = tmp_path / "hist.csv"
    text = (cli_out / "spectro" / "hist.csv").read_text()
    wrapped = int(text.split("# wrapped_pairs: ")[1].split("\n")[0])
    hist.write_text(text.replace(f"# wrapped_pairs: {wrapped}", f"# wrapped_pairs: {wrapped + 1}"))
    with pytest.raises(CheckError, match="wrapped"):
        checks.check_spectro_file(hist, PAIRS, SPECTRO_SEED)


# ---------------------------------------------------------------- tomography


def _state(cli_out):
    return json.loads((cli_out / "state" / "state.json").read_text())


def test_tomography_accepts_program_output(cli_out):
    checks.check_tomography(_state(cli_out), DEPOLARIZATION)


def test_tomography_rejects_other_depolarization(cli_out):
    with pytest.raises(CheckError, match="1 - 3p/4"):
        checks.check_tomography(_state(cli_out), 0.3)


@pytest.mark.parametrize("key", ["fidelity_singlet", "purity"])
def test_tomography_rejects_misstated_figure(cli_out, key):
    state = _state(cli_out)
    state[key] *= 1.001
    with pytest.raises(CheckError, match=key):
        checks.check_tomography(state, DEPOLARIZATION)


def test_tomography_rejects_non_hermitian_rho(cli_out):
    state = _state(cli_out)
    state["rho_imag"][0][1] += 1e-3
    with pytest.raises(CheckError, match="Hermitian"):
        checks.check_tomography(state, DEPOLARIZATION)


# ---------------------------------------------------------------- efficiency


def test_efficiency_accepts_program_output(cli_out):
    report = json.loads((cli_out / "eff" / "efficiency.json").read_text())
    checks.check_efficiency(report, COUNTS, BUDGET)


@pytest.mark.parametrize("key", ["klyshko_signal", "predicted_heralding"])
def test_efficiency_rejects_misstated_figure(cli_out, key):
    report = json.loads((cli_out / "eff" / "efficiency.json").read_text())
    report[key] *= 1.001
    with pytest.raises(CheckError, match=key):
        checks.check_efficiency(report, COUNTS, BUDGET)


def test_efficiency_rejects_swapped_arms(cli_out):
    report = json.loads((cli_out / "eff" / "efficiency.json").read_text())
    report["klyshko_signal"], report["klyshko_idler"] = (report["klyshko_idler"],
                                                          report["klyshko_signal"])
    with pytest.raises(CheckError, match="klyshko"):
        checks.check_efficiency(report, COUNTS, BUDGET)


# ---------------------------------------------------------------- scans


@pytest.fixture(scope="module")
def program():
    import biphoton

    cfg = biphoton.default_config()
    return cfg, biphoton.compute_jsa(cfg.pump, cfg.crystal, cfg.grid)


def test_own_jsa_matches_program(program, source):
    _, amplitude = program
    own = source.jsa(source.pump_fwhm_nm, source.temperature_c)
    assert np.max(np.abs(own - amplitude.amplitudes)) < 1e-9 * np.max(np.abs(own))


def test_optimum_checks():
    coarse = [0.80, 0.84, 0.83, 0.79, 0.75]
    checks.check_optimum(5.3, 0.8444, (2.0, 12.0), coarse)
    with pytest.raises(CheckError, match="below coarse"):
        checks.check_optimum(5.3, 0.83, (2.0, 12.0), coarse)
    with pytest.raises(CheckError, match="outside the window"):
        checks.check_optimum(12.5, 0.8444, (2.0, 12.0), coarse)


def test_filter_point_checks(program, source):
    import biphoton

    _, amplitude = program
    spec = biphoton.FilterSpec(center_nm=1570.0, fwhm_nm=8.0)
    filtered = biphoton.apply_filter(amplitude, spec, spec)
    purity = biphoton.schmidt_decompose(filtered).purity
    args = (filtered.amplitudes, amplitude.amplitudes, source, 1570.0, 8.0)
    checks.check_filter_point(filtered.survival.total, purity, *args)
    with pytest.raises(CheckError, match="survival"):
        checks.check_filter_point(filtered.survival.total * 1.001, purity, *args)
    with pytest.raises(CheckError, match="purity"):
        checks.check_filter_point(filtered.survival.total, purity * (1 - 1e-6), *args)
    with pytest.raises(CheckError, match="normalization"):
        checks.check_filter_point(filtered.survival.total, purity, filtered.amplitudes * 1.001,
                                  *args[1:])


def test_survival_must_fall():
    checks.check_falling([0.9, 0.7, 0.2])
    with pytest.raises(CheckError, match="does not fall"):
        checks.check_falling([0.9, 0.9, 0.2])


def test_crystal_point_checks(program, source):
    import biphoton

    cfg, _ = program
    grid = replace(cfg.grid, points_per_axis=64)
    t = 26.0
    amplitude = biphoton.compute_jsa(cfg.pump, replace(cfg.crystal, temperature_c=t), grid)
    reference = biphoton.compute_jsa(cfg.pump, cfg.crystal, grid)
    state = biphoton.heralded_spectral_state(amplitude)
    ref_state = biphoton.heralded_spectral_state(reference)
    point = {
        "temperature_c": t,
        "purity": biphoton.schmidt_decompose(amplitude).purity,
        "herald_purity": state.purity,
        "visibility": biphoton.hom_visibility(state, ref_state),
        "poling_period_um": biphoton.solve_poling_period(785.0, 1570.0, 1570.0, t,
                                                         cfg.crystal.axes),
        "gvm_angle_deg": biphoton.gvm_angle(785.0, 1570.0, 1570.0, cfg.crystal.axes, t),
        "norm": float(np.sum(np.abs(amplitude.amplitudes) ** 2)),
    }
    own = checks.gram_purity(source.jsa(source.pump_fwhm_nm, t, 64))
    ref_purity = ref_state.purity
    cell = source.cell_area(64)
    checks.check_crystal_point(point, ref_purity, source, cell, own)
    for key, factor, match in [("visibility", None, "sqrt"), ("purity", 1 + 1e-6, "purity"),
                               ("poling_period_um", 1 + 1e-6, "poling"),
                               ("norm", 1.001, "normalization")]:
        bad = dict(point)
        bad[key] = (np.sqrt(point["purity"] * ref_purity) * 1.001 if factor is None
                    else point[key] * factor)
        with pytest.raises(CheckError, match=match):
            checks.check_crystal_point(bad, ref_purity, source, cell, own)


# ---------------------------------------------------------------- tracing


def test_importtime_parse_counts_nested_scipy_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        400 |     scipy.stats",
        "import time:        10 |        710 |   biphoton.spectrometer",
        "import time:        20 |        730 | biphoton.cli",
    ])
    assert layers.parse_importtime(stderr) == pytest.approx((730e-6, 700e-6))


def test_tracer_self_times_and_restore():
    import biphoton
    from biphoton import jsa, phasematch

    original = jsa.phase_mismatch
    cfg = biphoton.default_config()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert jsa.phase_mismatch is not original
        jsa.compute_jsa(cfg.pump, cfg.crystal, replace(cfg.grid, points_per_axis=32))
    finally:
        tracer.uninstall()
    assert jsa.phase_mismatch is original is phasematch.phase_mismatch
    snap = tracer.snapshot()
    assert snap["calls"] == {"jsa.assemble": 1, "phasematch": 1, "dispersion": 3}
    assert snap["counts"]["dispersion.points"] == 3 * 32 * 32
    assert all(v >= 0.0 for v in snap["self_s"].values())
