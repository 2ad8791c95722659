"""Command-line entry point and pipeline plumbing.

Subcommands: design, jsa compute, hom, tomo simulate|reconstruct,
spectro simulate, efficiency. Global flags: --config, --out, --seed,
--json, --dispersion-file. Exit codes: 0 success, 1 computation error,
2 usage error. Every output file embeds the config digest. Reruns with
identical (config, seed) write byte-identical CSVs. The JSON reports are
byte-identical at a fixed BLAS thread count; with another thread count the
Schmidt coefficients in schmidt_report.json and the visibility in
hom_report.json can move in their last digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import interference, jsa as jsa_mod, polarization, spectrometer
from .config import RunConfig, check_seed, config_digest, default_config, load_config
from .efficiency import CountSummary, LossBudget, klyshko, predict_heralding
from .errors import BiphotonError, DegenerateInputError, InputError
from .jsa import FilterSpec
from .phasematch import gvm_angle, gvm_degenerate_wavelength, solve_poling_period


def _write_csv(path: Path, rows, header: str, comments: list[str], fmt=repr) -> None:
    """Write ``rows`` of Python numbers (``ndarray.tolist()``), each cell as ``fmt(cell)``.

    ``repr`` of a Python float is its shortest round-trip form; a numpy
    scalar would print as ``np.float64(...)``, so callers pass lists.
    """
    # Streamed line by line, so no whole-file string or row list is held.
    with path.open("w") as out:
        for c in comments:
            out.write(f"# {c}\n")
        out.write(header + "\n")
        for row in rows:
            out.write(",".join(map(fmt, row)) + "\n")


def _read_input(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _grid_comments(config: RunConfig) -> list[str]:
    g = config.grid
    return [
        f"config_digest: {config_digest(config)}",
        f"grid_center_signal_nm: {g.center_signal_nm}",
        f"grid_center_idler_nm: {g.center_idler_nm}",
        f"grid_half_span_nm: {g.half_span_nm}",
        f"grid_points_per_axis: {g.points_per_axis}",
    ]


def _resolve_config(args) -> RunConfig:
    if args.config is not None:
        config = load_config(args.config, dispersion_file=args.dispersion_file)
    else:
        config = default_config(dispersion_file=args.dispersion_file)
    if args.seed is not None:
        config = replace(config, seed=int(args.seed))
    if args.out is not None:
        config = replace(config, output_dir=str(args.out))
    return config


def _out_dir(config: RunConfig) -> Path:
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _jsa(args, config: RunConfig) -> jsa_mod.JointAmplitude:
    """The profile's amplitude, filtered by ``--filter-nm`` or else by the config's filters."""
    signal_filter, idler_filter = config.signal_filter, config.idler_filter
    if args.filter_nm is not None:
        signal_filter = idler_filter = FilterSpec(
            center_nm=config.grid.center_signal_nm, fwhm_nm=args.filter_nm
        )
    amplitude = jsa_mod.compute_jsa(config.pump, config.crystal, config.grid)
    if signal_filter is None and idler_filter is None:
        return amplitude
    return jsa_mod.apply_filter(amplitude, signal_filter, idler_filter)


def cmd_design(args, config: RunConfig) -> int:
    axes = config.crystal.axes
    temperature = config.crystal.temperature_c
    lambda_p = config.pump.center_wavelength_nm
    lambda_dc = 2.0 * lambda_p
    poling = solve_poling_period(lambda_p, lambda_dc, lambda_dc, temperature, axes)
    gvm_nm = gvm_degenerate_wavelength(axes, temperature)
    angle = gvm_angle(lambda_p, lambda_dc, lambda_dc, axes, temperature)
    report = {
        "poling_period_um": poling,
        "gvm_wavelength_nm": gvm_nm,
        "gvm_angle_deg": angle,
        "config_digest": config_digest(config),
    }
    out = _out_dir(config)
    _write_json(out / "design.json", report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("design report")
        print(f"  poling_period_um   {poling:.4f}")
        print(f"  gvm_wavelength_nm  {gvm_nm:.2f}")
        print(f"  gvm_angle_deg      {angle:.3f}")
    return 0


def cmd_jsa(args, config: RunConfig) -> int:
    amplitude = _jsa(args, config)
    survival = amplitude.survival
    spectrum = jsa_mod.schmidt_decompose(amplitude)
    marg_s = jsa_mod.marginal_spectrum(amplitude, "signal")
    marg_i = jsa_mod.marginal_spectrum(amplitude, "idler")

    out = _out_dir(config)
    comments = _grid_comments(config)

    f = amplitude.amplitudes
    n = config.grid.points_per_axis
    header = ",".join(
        part for k in range(n) for part in (f"re_idler{k}", f"im_idler{k}")
    )
    # the float64 view of a complex row interleaves re/im per idler index
    view = np.ascontiguousarray(f, dtype=np.complex128).view(np.float64)
    _write_csv(out / "jsa_amplitudes.csv", (row.tolist() for row in view), header, comments)

    header_i = ",".join(f"idler{k}" for k in range(n))
    _write_csv(out / "jsa_intensity.csv", (row.tolist() for row in amplitude.intensity),
               header_i, comments)

    report = {
        "config_digest": config_digest(config),
        "purity": spectrum.purity,
        "schmidt_number": spectrum.schmidt_number,
        "leading_coefficients": [float(c) for c in spectrum.coefficients[:8]],
        "marginal_fwhm_nm": {"signal": marg_s.fwhm_nm, "idler": marg_i.fwhm_nm},
        "filter_survival": None
        if survival is None
        else {"signal": survival.signal, "idler": survival.idler, "total": survival.total},
    }
    _write_json(out / "schmidt_report.json", report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("joint spectral amplitude report")
        print(f"  purity           {spectrum.purity:.4f}")
        print(f"  schmidt_number   {spectrum.schmidt_number:.4f}")
        print(f"  fwhm_signal_nm   {marg_s.fwhm_nm:.2f}")
        print(f"  fwhm_idler_nm    {marg_i.fwhm_nm:.2f}")
        if survival is not None:
            print(f"  filter_survival  {survival.total:.4f}")
    return 0


#: most points a ``--delays`` range may ask for, checked before the delays are built;
#: 1e5 points still sample the default grid's ±17,480 fs window every 0.35 fs
MAX_DELAYS = 100_000


def _parse_delays(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise InputError(f"bad delay range {spec!r}; expected start:stop:step in fs")
    if not (np.isfinite([start, stop, step]).all() and step > 0 and stop >= start):
        raise InputError(f"bad delay range {spec!r}")
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_DELAYS:
        raise InputError(f"delay range {spec!r} asks for more than {MAX_DELAYS} points")
    return start + step * np.arange(int(np.floor(steps)) + 1)


def cmd_hom(args, config: RunConfig) -> int:
    delays = _parse_delays(args.delays)
    # the amplitude and its cached Gram are dropped once the herald is formed
    state = interference.heralded_spectral_state(_jsa(args, config), "signal")
    visibility = interference.hom_visibility(state, state)
    curve = interference.hom_curve(state, state, delays)

    out = _out_dir(config)
    _write_csv(
        out / "hom_curve.csv",
        zip(curve.delays_fs.tolist(), curve.coincidence_probability.tolist()),
        "delay_fs,coincidence_probability",
        _grid_comments(config),
    )
    report = {
        "config_digest": config_digest(config),
        "visibility_spectral": visibility,
    }
    if args.pair_probability is not None:
        prediction = interference.predict_visibility(visibility, args.pair_probability)
        report["multipair_bound"] = prediction.multipair_bound
        report["visibility_total"] = prediction.total
    _write_json(out / "hom_report.json", report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"hom visibility {visibility:.4f}")
        if "visibility_total" in report:
            print(f"  multipair bound {report['multipair_bound']:.4f}")
            print(f"  total           {report['visibility_total']:.4f}")
    return 0


def cmd_tomo_simulate(args, config: RunConfig) -> int:
    state = polarization.model_state(
        depolarization=args.depolarization,
        amplitude_imbalance=args.imbalance,
        phase_error_rad=args.phase_error,
    )
    records = polarization.simulate_tomography(
        state,
        polarization.full_settings(),
        mean_counts_per_setting=args.mean_counts,
        seed=config.seed,
    )
    out_path = Path(args.out_file) if args.out_file else _out_dir(config) / "tomography.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_path,
        ((r.setting_a, r.setting_b, r.counts, r.integration_time_s) for r in records),
        "setting_a,setting_b,counts,integration_s",
        [f"config_digest: {config_digest(config)}", f"seed: {config.seed}"],
        fmt=str,
    )
    print(f"wrote {out_path}")
    return 0


def read_tomography_records(path: str | Path) -> list[polarization.TomographyRecord]:
    records = []
    for line in _read_input(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("setting_a"):
            continue
        try:
            setting_a, setting_b, counts, integration = line.split(",")
            counts, integration = int(counts), float(integration)
        except ValueError as exc:
            raise InputError(
                f"bad tomography row {line!r}: expected setting_a,setting_b,"
                "integer counts,integration_s"
            ) from exc
        records.append(
            polarization.TomographyRecord(
                setting_a=setting_a.strip(),
                setting_b=setting_b.strip(),
                counts=counts,
                integration_time_s=integration,
            )
        )
    return records


def cmd_tomo_reconstruct(args, config: RunConfig) -> int:
    records = read_tomography_records(args.in_file)
    state = polarization.reconstruct_mle(records)
    report = {
        "config_digest": config_digest(config),
        "fidelity_singlet": polarization.fidelity_singlet(state),
        "purity": polarization.state_purity(state),
        "tangle": polarization.tangle(state),
        "rho_real": state.rho.real.tolist(),
        "rho_imag": state.rho.imag.tolist(),
    }
    out_path = Path(args.out_file) if args.out_file else _out_dir(config) / "tomography_state.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out_path, report)
    if args.json:
        print(json.dumps({k: report[k] for k in ("fidelity_singlet", "purity", "tangle")},
                         indent=2, sort_keys=True))
    else:
        print("reconstructed state")
        print(f"  fidelity_singlet {report['fidelity_singlet']:.4f}")
        print(f"  purity           {report['purity']:.4f}")
        print(f"  tangle           {report['tangle']:.4f}")
    return 0


def cmd_spectro(args, config: RunConfig) -> int:
    amplitude = jsa_mod.compute_jsa(config.pump, config.crystal, config.grid)
    seed = args.spectro_seed if args.spectro_seed is not None else config.seed
    check_seed(seed)  # the subcommand's --seed enters here, not through the config
    histogram = spectrometer.simulate_jsi_histogram(
        amplitude,
        config.signal_dcf,
        config.idler_dcf,
        config.pump,
        bin_size_ns=config.bin_size_ns,
        total_pairs=args.pairs,
        seed=seed,
    )
    out_path = Path(args.out_file) if args.out_file else _out_dir(config) / "hist.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # first row and first column carry bin centers in ns, body is counts
    header = ",".join(["", *map(repr, histogram.bin_centers_idler_ns.tolist())])
    rows = (
        [center] + row.tolist()
        for center, row in zip(histogram.bin_centers_signal_ns.tolist(), histogram.counts)
    )
    _write_csv(
        out_path,
        rows,
        header,
        [
            f"config_digest: {config_digest(config)}",
            f"seed: {seed}",
            f"window_ns: {histogram.window_ns!r}",
            f"bin_size_ns: {histogram.bin_size_ns!r}",
            f"total_pairs: {histogram.total_pairs}",
            f"wrapped_pairs: {histogram.wrapped_pairs}",
            f"wrap_warning: {histogram.wrap_warning}",
            "layout: first row and first column are bin centers (ns); body is counts",
        ],
    )
    print(f"wrote {out_path} ({histogram.wrapped_pairs} wrapped of {histogram.total_pairs})")
    return 0


def _read_counts_csv(path: str | Path) -> CountSummary:
    for line in _read_input(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("singles_signal"):
            continue
        try:
            parts = [float(x) for x in line.split(",")]
        except ValueError as exc:
            raise InputError(f"counts CSV row is not numeric: {line!r}") from exc
        if len(parts) < 3:
            raise InputError(f"counts CSV row needs at least 3 columns, got {line!r}")
        integration = parts[3] if len(parts) > 3 else 1.0
        return CountSummary(
            singles_signal=parts[0],
            singles_idler=parts[1],
            coincidences=parts[2],
            integration_time_s=integration,
        )
    raise InputError(f"no data row found in {path}")


def cmd_efficiency(args, config: RunConfig) -> int:
    report: dict = {"config_digest": config_digest(config)}
    if args.counts is not None:
        counts = _read_counts_csv(args.counts)
        try:
            eta_signal, eta_idler = klyshko(counts)
        except ZeroDivisionError as exc:
            raise DegenerateInputError(str(exc)) from exc
        report["klyshko_signal"] = eta_signal
        report["klyshko_idler"] = eta_idler
    if args.budget is not None:
        try:
            budget = LossBudget(**(yaml.safe_load(_read_input(args.budget)) or {}))
        except (TypeError, yaml.YAMLError) as exc:
            raise InputError(f"bad loss budget {args.budget}: {exc}") from exc
        report["predicted_heralding"] = predict_heralding(budget)
    if args.counts is None and args.budget is None:
        raise InputError("efficiency requires --counts and/or --budget")
    _write_json(_out_dir(config) / "efficiency.json", report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in sorted(report.items()):
            if key != "config_digest":
                print(f"  {key} {value:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Design and simulation toolkit for spectrally engineered photon-pair sources",
    )
    parser.add_argument("--config", help="YAML run configuration (default: shipped profile)")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")
    parser.add_argument("--dispersion-file", help="dispersion registry YAML override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="poling period, GVM wavelength and ridge angle")
    p_design.set_defaults(run=cmd_design)

    p_jsa = sub.add_parser("jsa", help="joint spectral amplitude pipeline")
    jsa_sub = p_jsa.add_subparsers(dest="jsa_command", required=True)
    p_jsa_compute = jsa_sub.add_parser("compute", help="compute, filter and decompose the JSA")
    p_jsa_compute.add_argument("--filter-nm", type=float, help="Gaussian filter FWHM both arms")
    p_jsa_compute.set_defaults(run=cmd_jsa)

    p_hom = sub.add_parser("hom", help="two-source interference prediction")
    p_hom.add_argument("--filter-nm", type=float, help="Gaussian filter FWHM both arms")
    p_hom.add_argument("--delays", default="-2000:2000:50", help="start:stop:step in fs")
    p_hom.add_argument("--pair-probability", type=float, help="pair/pulse probability")
    p_hom.set_defaults(run=cmd_hom)

    p_tomo = sub.add_parser("tomo", help="polarization tomography")
    tomo_sub = p_tomo.add_subparsers(dest="tomo_command", required=True)
    p_sim = tomo_sub.add_parser("simulate", help="simulate 36-setting records")
    p_sim.add_argument("--depolarization", type=float, default=0.028)
    p_sim.add_argument("--imbalance", type=float, default=0.0)
    p_sim.add_argument("--phase-error", type=float, default=0.0)
    p_sim.add_argument("--mean-counts", type=int, default=10_000)
    p_sim.add_argument("--out", dest="out_file", help="records CSV path")
    p_sim.set_defaults(run=cmd_tomo_simulate)
    p_rec = tomo_sub.add_parser("reconstruct", help="MLE reconstruction from records")
    p_rec.add_argument("--in", dest="in_file", required=True, help="records CSV path")
    p_rec.add_argument("--out", dest="out_file", help="state JSON path")
    p_rec.set_defaults(run=cmd_tomo_reconstruct)

    p_spec = sub.add_parser("spectro", help="time-of-flight spectrometer")
    spec_sub = p_spec.add_subparsers(dest="spectro_command", required=True)
    p_spec_sim = spec_sub.add_parser("simulate", help="sample a JSI histogram")
    p_spec_sim.add_argument("--pairs", type=int, default=10**6)
    p_spec_sim.add_argument("--seed", dest="spectro_seed", type=int, default=None)
    p_spec_sim.add_argument("--out", dest="out_file", help="histogram CSV path")
    p_spec_sim.set_defaults(run=cmd_spectro)

    p_eff = sub.add_parser("efficiency", help="Klyshko efficiency and loss budget")
    p_eff.add_argument("--counts", help="CSV with singles_signal,singles_idler,coincidences")
    p_eff.add_argument("--budget", help="YAML loss budget file")
    p_eff.set_defaults(run=cmd_efficiency)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, _resolve_config(args))
    except BiphotonError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
