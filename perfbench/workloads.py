"""Workload process: set up one workload, then run and check whole rounds.

Started by ``run.py`` in a fresh interpreter, with the BLAS thread count
pinned and ``src`` on ``PYTHONPATH``::

    python3 perfbench/workloads.py --workload W --inputs F --seconds S [--trace] [--setup-only]

It prints ``READY {...}`` once set-up is done (the parent times the
interval from spawn to that line) and, unless ``--setup-only``, one
``RESULT {...}`` line after the rounds. Every operation of a round is timed
on its own and checked right after, outside the timed span, so a round's
time is the sum of its operations.

``--cli-trace SPANS -- ARGV...`` runs ``biphoton.cli.main(ARGV)`` with the
layer wrappers installed and writes the spans to SPANS (traced
``cli_session`` rounds).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "src" / "biphoton" / "data"

WORKLOADS = ("cli_session", "pump_scan", "crystal_scan")

#: Filter sweep of pump_scan: 9 Gaussian widths from 30 nm down to 2 nm.
SWEEP_FROM_NM, SWEEP_TO_NM, SWEEP_POINTS = 30.0, 2.0, 9
CRYSTAL_POINTS, CRYSTAL_GRID, REFERENCE_C = 4, 1024, 20.0
SPECTRO_PAIRS = 10**6
CLI_FILTER_NM = "8"
BUDGET_KEYS = ("detector_efficiency", "optics_transmission", "fiber_coupling",
               "filter_survival", "mode_overlap")


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload varies, drawn from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_session":
        singles = [rng.randint(80_000, 120_000), rng.randint(80_000, 120_000)]
        return {
            "depolarization": round(rng.uniform(0.01, 0.08), 4),
            "tomo_seed": rng.randrange(1, 2**31),
            "spectro_seed": rng.randrange(1, 2**31),
            "counts": {
                "singles_signal": singles[0],
                "singles_idler": singles[1],
                "coincidences": int(min(singles) * rng.uniform(0.3, 0.5)),
                "integration_s": 1.0,
            },
            "budget": {key: round(rng.uniform(0.5, 1.0), 4) for key in BUDGET_KEYS},
        }
    if workload == "pump_scan":
        # jitter small enough to keep the golden search at 19 evaluations
        # and the widths strictly falling
        ratio = (SWEEP_TO_NM / SWEEP_FROM_NM) ** (1.0 / (SWEEP_POINTS - 1))
        return {
            "window_nm": [2.0 + rng.uniform(-0.1, 0.1), 12.0 + rng.uniform(-0.1, 0.1)],
            "widths_nm": [SWEEP_FROM_NM * ratio**k * (1.0 + rng.uniform(-0.02, 0.02))
                          for k in range(SWEEP_POINTS)],
            "filter_center_nm": 1570.0,
        }
    if workload == "crystal_scan":
        return {
            "temperatures_c": sorted(REFERENCE_C + rng.uniform(-8.0, 8.0)
                                     for _ in range(CRYSTAL_POINTS)),
            "reference_c": REFERENCE_C,
            "grid_points": CRYSTAL_GRID,
        }
    raise ValueError(f"unknown workload {workload!r}")


def make_references(workload: str, inputs: dict) -> dict:
    """Expensive independent figures, computed once per run outside the workload."""
    import numpy as np

    import checks

    source = checks.Source(DATA)
    if workload == "pump_scan":
        lo, hi = inputs["window_nm"]
        base = source.jsa(source.pump_fwhm_nm, source.temperature_c)
        return {"coarse_purities": [checks.gram_purity(source.jsa(w, source.temperature_c))
                                    for w in np.linspace(lo, hi, 5)],
                "base_purity": checks.gram_purity(base)}
    if workload == "crystal_scan":
        n = inputs["grid_points"]
        temps = [inputs["reference_c"], *inputs["temperatures_c"]]
        return {"purities": [checks.gram_purity(source.jsa(source.pump_fwhm_nm, t, n))
                             for t in temps]}
    return {}


class Clock:
    """Wall and CPU time summed over the timed operations of one round."""

    def __init__(self, children: bool):
        self.children = children
        self.wall = self.cpu = 0.0

    def _cpu(self) -> float:
        t = os.times()
        return t.children_user + t.children_system if self.children else t.user + t.system

    def time(self, op, *args, **kwargs):
        c0, t0 = self._cpu(), time.perf_counter()
        try:
            return op(*args, **kwargs)
        finally:
            self.wall += time.perf_counter() - t0
            self.cpu += self._cpu() - c0


class Workload:
    """One workload: ``setup`` before READY, then ``run_round`` returning
    (failed operations, extra figures for the round record). ``spawns``
    marks a workload whose operations run in child processes, so its CPU
    time is theirs."""

    ops_per_round = 0
    spawns = False

    def __init__(self, inputs: dict, references: dict, work: Path):
        self.inputs, self.references, self.work = inputs, references, work
        self.cold_svd_s = None
        self.failures: list[str] = []
        self.check_errors: list[str] = []
        self._source = None

    @property
    def source(self):
        """This benchmark's own model of the default source (built after set-up)."""
        if self._source is None:
            import checks

            self._source = checks.Source(DATA)
        return self._source

    def _check(self, check, *args):
        import checks

        try:
            return check(*args)
        except checks.CheckError as exc:
            self.check_errors.append(str(exc))
            return None

    def _cold_svd(self, jsa_mod, amplitude):
        t0 = time.perf_counter()
        spectrum = jsa_mod.schmidt_decompose(amplitude)
        self.cold_svd_s = time.perf_counter() - t0
        return spectrum


class PumpScan(Workload):
    """Pump-bandwidth optimum and a filter sweep; only the pump or filter changes."""

    ops_per_round = 1 + SWEEP_POINTS

    def setup(self):
        import biphoton
        from biphoton import jsa

        self.jsa = jsa
        self.config = biphoton.default_config()
        cfg = self.config
        self.base = jsa.compute_jsa(cfg.pump, cfg.crystal, cfg.grid)
        self.base_purity = self._cold_svd(jsa, self.base).purity
        self.filters = [jsa.FilterSpec(center_nm=self.inputs["filter_center_nm"], fwhm_nm=w)
                        for w in self.inputs["widths_nm"]]

    def run_round(self, clock: Clock, traced: bool) -> tuple[int, dict]:
        import checks

        jsa, cfg, inp = self.jsa, self.config, self.inputs
        window = tuple(inp["window_nm"])
        failed = 0
        try:
            best = clock.time(jsa.optimize_pump_bandwidth, cfg.crystal,
                              cfg.pump.center_wavelength_nm, window, cfg.grid,
                              cfg.pump.repetition_rate_mhz)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"optimize_pump_bandwidth: {exc!r}")
            failed += 1
        else:
            self._check(checks.check_optimum, *best, window, self.references["coarse_purities"])
        survivals = []
        for spec in self.filters:
            def evaluate(spec=spec):
                filtered = jsa.apply_filter(self.base, spec, spec)
                return filtered, jsa.schmidt_decompose(filtered).purity
            try:
                filtered, purity = clock.time(evaluate)
            except Exception as exc:
                self.failures.append(f"filter {spec.fwhm_nm:.3f} nm: {exc!r}")
                failed += 1
                continue
            survivals.append(filtered.survival.total)
            self._check(checks.check_filter_point, survivals[-1], purity, filtered.amplitudes,
                        self.base.amplitudes, self.source, spec.center_nm, spec.fwhm_nm)
        self._check(checks.check_falling, survivals)
        self._check(checks.close, "default purity", self.base_purity,
                    self.references["base_purity"])
        return failed, {}


class CrystalScan(Workload):
    """Temperature sweep on a 1024² grid; nothing carries over between points."""

    ops_per_round = CRYSTAL_POINTS

    def setup(self):
        from dataclasses import replace

        import biphoton
        from biphoton import interference, jsa, phasematch

        self.jsa, self.interference, self.phasematch = jsa, interference, phasematch
        self.config = biphoton.default_config()
        cfg = self.config
        self.grid = replace(cfg.grid, points_per_axis=self.inputs["grid_points"])
        self.crystals = [replace(cfg.crystal, temperature_c=t)
                         for t in self.inputs["temperatures_c"]]
        reference = jsa.compute_jsa(
            cfg.pump, replace(cfg.crystal, temperature_c=self.inputs["reference_c"]), self.grid)
        self.reference_purity = self._cold_svd(jsa, reference).purity
        self.reference_state = interference.heralded_spectral_state(reference, "signal")

    def _point(self, crystal):
        jsa, interference, pm, cfg = self.jsa, self.interference, self.phasematch, self.config
        amplitude = jsa.compute_jsa(cfg.pump, crystal, self.grid)
        purity = jsa.schmidt_decompose(amplitude).purity
        state = interference.heralded_spectral_state(amplitude, "signal")
        visibility = interference.hom_visibility(state, self.reference_state)
        lam_p = cfg.pump.center_wavelength_nm
        t = crystal.temperature_c
        period = pm.solve_poling_period(lam_p, 2 * lam_p, 2 * lam_p, t, crystal.axes)
        angle = pm.gvm_angle(lam_p, 2 * lam_p, 2 * lam_p, crystal.axes, t)
        return amplitude, {"temperature_c": t, "purity": purity, "herald_purity": state.purity,
                           "visibility": visibility, "poling_period_um": period,
                           "gvm_angle_deg": angle}

    def run_round(self, clock: Clock, traced: bool) -> tuple[int, dict]:
        import numpy as np

        import checks

        source = self.source
        cell = source.cell_area(self.inputs["grid_points"])
        own = self.references["purities"]
        self._check(checks.close, "reference purity", self.reference_purity, own[0])
        failed = 0
        for crystal, own_purity in zip(self.crystals, own[1:]):
            try:
                amplitude, point = clock.time(self._point, crystal)
            except Exception as exc:
                self.failures.append(f"{crystal.temperature_c:.2f} C: {exc!r}")
                failed += 1
                continue
            point["norm"] = float(np.sum(np.abs(amplitude.amplitudes) ** 2))
            del amplitude  # so two 16 MB JSAs never coexist on the benchmark's account
            self._check(checks.check_crystal_point, point, self.reference_purity, source, cell,
                        own_purity)
        return failed, {}


class CliSession(Workload):
    """Every subcommand once per round, each a fresh ``biphoton`` process."""

    spawns = True
    #: per-subcommand metric -> op indices
    GROUPS = {"design": (0,), "jsa_compute": (1, 2), "hom": (3,), "spectro": (4,),
              "tomo": (5, 6), "efficiency": (7,)}

    def setup(self):
        import biphoton
        from biphoton import cli, jsa  # noqa: F401  (the CLI's imports are part of set-up)

        cfg = biphoton.default_config()
        self._cold_svd(jsa, jsa.compute_jsa(cfg.pump, cfg.crystal, cfg.grid))
        inp = self.inputs
        self.counts_csv = self.work / "counts.csv"
        c = inp["counts"]
        self.counts_csv.write_text(
            "singles_signal,singles_idler,coincidences,integration_s\n"
            f"{c['singles_signal']},{c['singles_idler']},{c['coincidences']},"
            f"{c['integration_s']}\n")
        self.budget_yaml = self.work / "budget.yaml"
        self.budget_yaml.write_text("".join(f"{k}: {v}\n" for k, v in inp["budget"].items()))
        d = [self.work / f"op{k}" for k in range(8)]
        self.dirs = d
        self.argvs = [
            ["--out", d[0], "design"],
            ["--out", d[1], "jsa", "compute"],
            ["--out", d[2], "jsa", "compute", "--filter-nm", CLI_FILTER_NM],
            ["--out", d[3], "hom", "--filter-nm", CLI_FILTER_NM],
            ["--out", d[4], "spectro", "simulate", "--pairs", SPECTRO_PAIRS,
             "--seed", inp["spectro_seed"], "--out", d[4] / "hist.csv"],
            ["--out", d[5], "--seed", inp["tomo_seed"], "tomo", "simulate",
             "--depolarization", inp["depolarization"], "--out", d[5] / "records.csv"],
            ["--out", d[6], "tomo", "reconstruct", "--in", d[5] / "records.csv",
             "--out", d[6] / "state.json"],
            ["--out", d[7], "efficiency", "--counts", self.counts_csv,
             "--budget", self.budget_yaml],
        ]
        self.argvs = [[str(a) for a in argv] for argv in self.argvs]
        self.ops_per_round = len(self.argvs)

    def _check_op(self, k: int, purity: dict):
        import checks

        out = self.dirs[k]
        if k == 0:
            report = json.loads((out / "design.json").read_text())
            checks.check_design(report, self.source, self.source.temperature_c)
        elif k in (1, 2):
            purity[k] = checks.check_jsa_files(out, filtered=k == 2)
            if k == 2 and 1 in purity:
                checks.require(purity[2] > purity[1], "8 nm filter does not raise purity")
        elif k == 3:
            checks.check_hom_files(out, purity[2])
        elif k == 4:
            checks.check_spectro_file(out / "hist.csv", SPECTRO_PAIRS, self.inputs["spectro_seed"])
        elif k == 5:
            rows = [line for line in (out / "records.csv").read_text().splitlines()
                    if line and not line.startswith(("#", "setting_a"))]
            checks.require(len(rows) == 36, f"{len(rows)} tomography records, expected 36")
        elif k == 6:
            state = json.loads((out / "state.json").read_text())
            checks.check_tomography(state, self.inputs["depolarization"])
        elif k == 7:
            report = json.loads((out / "efficiency.json").read_text())
            checks.check_efficiency(report, self.inputs["counts"], self.inputs["budget"])

    def run_round(self, clock: Clock, traced: bool) -> tuple[int, dict]:
        failed, walls, purity, spans = 0, [], {}, []
        for k, argv in enumerate(self.argvs):
            if traced:
                span_file = self.work / f"spans{k}.json"
                cmd = [sys.executable, str(HERE / "workloads.py"), "--cli-trace",
                       str(span_file), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "biphoton.cli", *argv]
            before = clock.wall
            proc = clock.time(subprocess.run, cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
            walls.append(clock.wall - before)
            if proc.returncode != 0:
                self.failures.append(f"{' '.join(argv)}: exit {proc.returncode}: "
                                     f"{proc.stderr.strip()[-300:]}")
                failed += 1
                continue
            if traced:
                spans.append(json.loads(span_file.read_text()))
            self._check(self._check_op, k, purity)
        if traced:
            import layers

            return failed, {"spans": layers.merge(spans)}
        return failed, {"op_walls_s": walls,
                        "output_bytes": sum(f.stat().st_size for d in self.dirs
                                            for f in d.iterdir())}


CLASSES = {"cli_session": CliSession, "pump_scan": PumpScan, "crystal_scan": CrystalScan}


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Whole rounds until the timed total reaches ``seconds``.

    With ``trace`` the rounds alternate untraced and traced, at least one
    of each; the untraced ones give the overhead base.
    """
    tracer = None
    if trace and not workload.spawns:
        import layers

        tracer = layers.Tracer()
    rounds, timed, k = [], 0.0, 0
    while True:
        traced = trace and k % 2 == 1
        clock = Clock(children=workload.spawns)
        if tracer is not None and traced:
            tracer.reset()
            tracer.install()
        try:
            failed, extra = workload.run_round(clock, traced)
        finally:
            if tracer is not None and traced:
                tracer.uninstall()
        record = {"wall_s": clock.wall, "cpu_s": clock.cpu, "traced": traced,
                  "attempted": workload.ops_per_round, "failed": failed, **extra}
        if tracer is not None and traced:
            record["spans"] = tracer.snapshot()
        rounds.append(record)
        timed += clock.wall
        k += 1
        if timed >= seconds and (not trace or k >= 2):
            break
    return {"rounds": rounds, "failures": workload.failures,
            "check_errors": workload.check_errors}


def cli_trace(span_file: str, argv: list[str]) -> int:
    import biphoton.cli

    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        code = biphoton.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(span_file).write_text(json.dumps(tracer.snapshot()))
    return code


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--cli-trace":
        return cli_trace(argv[1], argv[3:])
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--inputs", required=True, help="JSON with inputs and references")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.inputs).read_text())
    workload = CLASSES[args.workload](spec["inputs"], spec["references"],
                                      Path(args.inputs).parent)
    workload.setup()
    print("READY " + json.dumps({"cold_svd_s": workload.cold_svd_s}), flush=True)
    if args.setup_only:
        return 0
    print("RESULT " + json.dumps(measure(workload, args.seconds, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
