"""Command-line entry point and pipeline plumbing.

Subcommands: design, jsa compute, hom, tomo simulate|reconstruct,
spectro simulate, efficiency. Global flags: --config, --out, --seed,
--json, --dispersion-file. Exit codes: 0 success, 1 computation error,
2 usage error; an output path that cannot be created or written exits 1
with an InputError naming it. Every output file embeds the config digest.
Reruns with identical (config, seed) write byte-identical CSVs. The JSON
reports are byte-identical at a fixed BLAS thread count; with another
thread count only the Schmidt coefficients in schmidt_report.json can move
in their last digits.

The two JSA CSVs are written in blocks of rows, each block formatted at
once by a numpy kernel (``_floatrepr``) whose text is byte-identical to
``repr`` of each float. It runs in this process: the amplitudes CSV
beside the eigen-solve of the Schmidt coefficients, which runs on a worker
thread (``phasematch._in_two``) after the Gram and purity are formed here,
and the intensity CSV after the worker is joined.

Each format has one home here: ``_report`` writes every report JSON and
prints it under ``--json`` or else the command's text lines, ``_wrote``
prints what the two simulate commands wrote, as a record under ``--json``,
``_write_lines`` writes every CSV under the comments that ``_comments``
builds, and ``_data_lines`` yields the data lines of every CSV input.

Start-up is part of every run's cost, so each subcommand loads only what
it runs: ``interference`` is imported by ``hom``, ``polarization`` by
``tomo`` and ``efficiency`` by ``efficiency``, inside the command; the
others load none of the three. Every YAML input (config, dispersion
registry, loss budget) is parsed by ``dispersion.read_yaml``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import jsa as jsa_mod, spectrometer
from .config import RunConfig, check_seed, config_digest, default_config, load_config
from .dispersion import _read_yaml_file, _spec
from .errors import BiphotonError, ConfigError, DegenerateInputError, InputError
from .jsa import FilterSpec
from .phasematch import _in_two, gvm_angle, gvm_degenerate_wavelength, solve_poling_period

if TYPE_CHECKING:
    from . import polarization
    from .efficiency import CountSummary


@contextmanager
def _os_error_as_input(what: str):
    """An ``OSError`` or ``UnicodeDecodeError`` in the body raises ``InputError`` on ``what``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{what}: {getattr(exc, 'strerror', None) or exc}") from exc


def _write_lines(path: Path, header: str, comments: list[str], lines) -> None:
    """Write the comments, the header and then each text chunk of ``lines``.

    Streamed chunk by chunk, so no whole-file string is held. Callers format
    their own rows: ``repr`` of a Python number (from ``ndarray.tolist()``) is
    its shortest round-trip text, where a numpy scalar's is ``np.float64(...)``.
    """
    with _os_error_as_input(f"cannot write {path}"), path.open("w") as out:
        out.write("".join(f"# {c}\n" for c in comments) + header + "\n")
        out.writelines(lines)


def _comments(digest: str, **fields) -> list[str]:
    """CSV header comments: the config digest, then ``key: value`` per field in order."""
    return [f"config_digest: {digest}", *(f"{key}: {value}" for key, value in fields.items())]


def _grid_comments(config: RunConfig, digest: str) -> list[str]:
    g = config.grid
    return _comments(digest, grid_center_signal_nm=g.center_signal_nm,
                     grid_center_idler_nm=g.center_idler_nm, grid_half_span_nm=g.half_span_nm,
                     grid_points_per_axis=g.points_per_axis)


def _data_lines(path, header: str):
    """Each stripped line of the CSV at ``path`` but blanks, comments and the ``header`` line."""
    with _os_error_as_input(f"cannot read {path}"):
        text = Path(path).read_text()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith(("#", header)):
            yield line


def _report(args, path: Path, report: dict, text: list[str], shown=None) -> int:
    """Write ``report`` to ``path`` as JSON, then print it or else the ``text`` lines.

    Under ``--json`` the report is printed, only its ``shown`` keys if given.
    """
    with _os_error_as_input(f"cannot write {path}"):
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.json:
        printed = report if shown is None else {key: report[key] for key in shown}
        print(json.dumps(printed, indent=2, sort_keys=True))
    else:
        print("\n".join(text))
    return 0


def _wrote(args, path: Path, text: str, **fields) -> None:
    """Print that ``path`` was written: one JSON record under ``--json``, else ``text``."""
    print(json.dumps({"path": str(path), **fields}, sort_keys=True) if args.json else text)


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


def _make_dir(path: Path) -> Path:
    with _os_error_as_input(f"cannot create output directory {path}"):
        path.mkdir(parents=True, exist_ok=True)
    return path


def _out_dir(config: RunConfig) -> Path:
    return _make_dir(Path(config.output_dir))


def _out_path(out_file: str | None, config: RunConfig, name: str) -> Path:
    """``out_file`` if given, else ``name`` in the output directory; its directory is made."""
    path = Path(out_file) if out_file else Path(config.output_dir) / name
    _make_dir(path.parent)
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
    return _report(args, _out_dir(config) / "design.json", report, [
        "design report",
        f"  poling_period_um   {poling:.4f}",
        f"  gvm_wavelength_nm  {gvm_nm:.2f}",
        f"  gvm_angle_deg      {angle:.3f}",
    ])


def cmd_jsa(args, config: RunConfig) -> int:
    # imported here: building its tables would cost every other subcommand 3 ms
    from ._floatrepr import csv_chunks

    out = _out_dir(config)
    amplitude = _jsa(args, config)
    digest = config_digest(config)
    comments = _grid_comments(config, digest)
    n = config.grid.points_per_axis
    survival = amplitude.survival
    spectrum = jsa_mod.schmidt_decompose(amplitude)

    # the float64 view of a complex row interleaves re/im per idler index
    parts = np.ascontiguousarray(amplitude.amplitudes, dtype=np.complex128).view(np.float64)
    header = ",".join(part for k in range(n) for part in (f"re_idler{k}", f"im_idler{k}"))
    # The eigen-solve behind the coefficients releases the GIL: it runs on the
    # worker while this thread formats the amplitudes, which holds the GIL.
    _in_two(
        lambda job: job(),
        lambda: spectrum.coefficients,
        lambda: _write_lines(out / "jsa_amplitudes.csv", header, comments, csv_chunks(parts)),
    )
    marg_s = jsa_mod.marginal_spectrum(amplitude, "signal")
    marg_i = jsa_mod.marginal_spectrum(amplitude, "idler")
    report = {
        "config_digest": digest,
        "purity": spectrum.purity,
        "schmidt_number": spectrum.schmidt_number,
        "leading_coefficients": [float(c) for c in spectrum.coefficients[:8]],
        "marginal_fwhm_nm": {"signal": marg_s.fwhm_nm, "idler": marg_i.fwhm_nm},
        "filter_survival": None
        if survival is None
        else {"signal": survival.signal, "idler": survival.idler, "total": survival.total},
    }
    header_i = ",".join(f"idler{k}" for k in range(n))
    _write_lines(out / "jsa_intensity.csv", header_i, comments, csv_chunks(amplitude.intensity))
    text = [
        "joint spectral amplitude report",
        f"  purity           {spectrum.purity:.4f}",
        f"  schmidt_number   {spectrum.schmidt_number:.4f}",
        f"  fwhm_signal_nm   {marg_s.fwhm_nm:.2f}",
        f"  fwhm_idler_nm    {marg_i.fwhm_nm:.2f}",
    ]
    if survival is not None:
        text.append(f"  filter_survival  {survival.total:.4f}")
    return _report(args, out / "schmidt_report.json", report, text)


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
    from . import interference

    delays = _parse_delays(args.delays)
    if args.pair_probability is not None:
        # checked before any physics, so a bad value leaves no curve behind
        interference.multipair_visibility_bound(args.pair_probability)
    out = _out_dir(config)
    # the amplitude and its cached Gram are dropped once the herald is formed
    state = interference.heralded_spectral_state(_jsa(args, config), "signal")
    visibility = interference.hom_visibility(state, state)
    curve = interference.hom_curve(state, state, delays)

    digest = config_digest(config)
    points = zip(curve.delays_fs.tolist(), curve.coincidence_probability.tolist())
    _write_lines(out / "hom_curve.csv", "delay_fs,coincidence_probability",
                 _grid_comments(config, digest), (f"{d!r},{p!r}\n" for d, p in points))
    report = {"config_digest": digest, "visibility_spectral": visibility}
    text = [f"hom visibility {visibility:.4f}"]
    if args.pair_probability is not None:
        prediction = interference.predict_visibility(visibility, args.pair_probability)
        report["multipair_bound"] = prediction.multipair_bound
        report["visibility_total"] = prediction.total
        text += [f"  multipair bound {prediction.multipair_bound:.4f}",
                 f"  total           {prediction.total:.4f}"]
    return _report(args, out / "hom_report.json", report, text)


def cmd_tomo_simulate(args, config: RunConfig) -> int:
    from . import polarization

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
    out_path = _out_path(args.out_file, config, "tomography.csv")
    _write_lines(
        out_path,
        "setting_a,setting_b,counts,integration_s",
        _comments(config_digest(config), seed=config.seed),
        (f"{r.setting_a},{r.setting_b},{r.counts},{r.integration_time_s}\n" for r in records),
    )
    _wrote(args, out_path, f"wrote {out_path}")
    return 0


def read_tomography_records(path: str | Path) -> list[polarization.TomographyRecord]:
    from . import polarization

    records = []
    for line in _data_lines(path, "setting_a"):
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
    from . import polarization

    records = read_tomography_records(args.in_file)
    out_path = _out_path(args.out_file, config, "tomography_state.json")
    state = polarization.reconstruct_mle(records)
    report = {
        "config_digest": config_digest(config),
        "fidelity_singlet": polarization.fidelity_singlet(state),
        "purity": polarization.state_purity(state),
        "tangle": polarization.tangle(state),
        "rho_real": state.rho.real.tolist(),
        "rho_imag": state.rho.imag.tolist(),
    }
    figures = ("fidelity_singlet", "purity", "tangle")
    text = ["reconstructed state", *(f"  {key:<16} {report[key]:.4f}" for key in figures)]
    return _report(args, out_path, report, text, shown=figures)


def cmd_spectro(args, config: RunConfig) -> int:
    seed = args.spectro_seed if args.spectro_seed is not None else config.seed
    check_seed(seed)  # the subcommand's --seed enters here, not through the config
    out_path = _out_path(args.out_file, config, "hist.csv")
    amplitude = jsa_mod.compute_jsa(config.pump, config.crystal, config.grid)
    histogram = spectrometer.simulate_jsi_histogram(
        amplitude,
        config.signal_dcf,
        config.idler_dcf,
        config.pump,
        bin_size_ns=config.bin_size_ns,
        total_pairs=args.pairs,
        seed=seed,
    )
    # first row and first column carry bin centers in ns, body is counts
    header = ",".join(["", *map(repr, histogram.bin_centers_idler_ns.tolist())])
    rows = (
        ",".join(map(repr, [center, *row.tolist()])) + "\n"
        for center, row in zip(histogram.bin_centers_signal_ns.tolist(), histogram.counts)
    )
    comments = _comments(
        config_digest(config),
        seed=seed,
        window_ns=histogram.window_ns,
        bin_size_ns=histogram.bin_size_ns,
        total_pairs=histogram.total_pairs,
        wrapped_pairs=histogram.wrapped_pairs,
        wrap_warning=histogram.wrap_warning,
        layout="first row and first column are bin centers (ns); body is counts",
    )
    _write_lines(out_path, header, comments, rows)
    _wrote(args, out_path,
           f"wrote {out_path} ({histogram.wrapped_pairs} wrapped of {histogram.total_pairs})",
           wrapped_pairs=histogram.wrapped_pairs, total_pairs=histogram.total_pairs)
    return 0


def _read_counts_csv(path: str | Path) -> CountSummary:
    from .efficiency import CountSummary

    rows = list(_data_lines(path, "singles_signal"))
    if not rows:
        raise InputError(f"no data row found in {path}")
    if len(rows) > 1:
        raise InputError(f"counts CSV {path} has {len(rows)} data rows; expected one")
    try:
        parts = [float(x) for x in rows[0].split(",")]
    except ValueError as exc:
        raise InputError(f"counts CSV row is not numeric: {rows[0]!r}") from exc
    if not 3 <= len(parts) <= 4:
        # singles_signal, singles_idler, coincidences and, if given, integration_time_s
        raise InputError(f"counts CSV row needs 3 or 4 columns, got {rows[0]!r}")
    return CountSummary(*parts)


def cmd_efficiency(args, config: RunConfig) -> int:
    from .efficiency import LossBudget, klyshko, predict_heralding

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
            budget = _spec(LossBudget, _read_yaml_file(Path(args.budget)), "budget")
        except ConfigError as exc:
            raise InputError(f"bad loss budget {args.budget}: {exc}") from exc
        report["predicted_heralding"] = predict_heralding(budget)
    if args.counts is None and args.budget is None:
        raise InputError("efficiency requires --counts and/or --budget")
    text = [f"  {key} {value:.4f}" for key, value in sorted(report.items())
            if key != "config_digest"]
    return _report(args, _out_dir(config) / "efficiency.json", report, text)


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
