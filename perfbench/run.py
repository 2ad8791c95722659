"""Benchmark of the biphoton toolkit: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {cli_session,pump_scan,crystal_scan}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout (it needs ``src/biphoton``). Every process
it starts gets ``src`` on ``PYTHONPATH`` and the BLAS thread count pinned to
``BLAS_THREADS``. A run makes one untimed warm-up import (file cache),
computes the independent reference figures in this process, times
``SETUP_SAMPLES`` fresh workload processes from spawn to ready, and lets the
last of them measure whole rounds for ``--seconds`` seconds of timed work.
The last line of stdout is the result; run metadata (library versions,
thread and CPU counts, git SHA or source digest) is the line before it.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from rounds that alternate traced and untraced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

#: One BLAS thread on every workload: within ``nproc`` on any machine, and
#: the setting whose timings spread least on a shared 2-core host.
BLAS_THREADS = 1
#: Fresh interpreters timed per run for ``setup_s`` (the measuring one included).
SETUP_SAMPLES = 3
#: Ceiling on any one child process, well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
WORK_DIR = ".perfbench_work"

LAYER_TIMES = {
    "config.load_s": "config.load", "dispersion.busy_s": "dispersion",
    "phasematch.busy_s": "phasematch", "jsa.assemble_s": "jsa.assemble",
    "jsa.schmidt_s": "jsa.schmidt", "jsa.filter_s": "jsa.filter",
    "jsa.marginal_s": "jsa.marginal", "interference.herald_s": "interference.herald",
    "interference.hom_s": "interference.hom", "polarization.simulate_s": "polarization.simulate",
    "polarization.mle_s": "polarization.mle", "spectrometer.sample_s": "spectrometer.sample",
    "cli.self_s": "cli",
}
LAYER_CALLS = {
    "phasematch.calls": "phasematch", "jsa.assemble_calls": "jsa.assemble",
    "jsa.schmidt_calls": "jsa.schmidt", "interference.herald_calls": "interference.herald",
}


class BenchError(RuntimeError):
    pass


def pin_environment(root: Path) -> dict:
    """Pin BLAS threads here (numpy is imported later) and return the children's env."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(args: list[str], env: dict, log: Path):
    """Start a workload process; return (seconds to READY, READY payload, RESULT payload)."""
    cmd = [sys.executable, str(workloads.HERE / "workloads.py"), *args]
    ready_s = ready = result = None
    with log.open("a") as err:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=err,
                              text=True) as proc:
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                for line in proc.stdout:
                    if line.startswith("READY ") and ready_s is None:
                        ready_s = time.perf_counter() - t0
                        ready = json.loads(line[6:])
                    elif line.startswith("RESULT "):
                        result = json.loads(line[7:])
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    if code != 0 or ready_s is None or ("--setup-only" not in args and result is None):
        tail = log.read_text()[-2000:]
        raise BenchError(f"workload process failed (exit {code}): {tail.strip()}")
    return ready_s, ready, result


def run_checked(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-2000:]}")
    return proc


def metadata(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:  # only a repository rooted at this checkout names its commit
        top, _, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30).stdout.strip().partition("\n")
        sha = sha if top and Path(top).resolve() == root.resolve() else None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": BLAS_THREADS,
            "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(rounds, setup_samples, peak_rss_mb) -> dict:
    return {
        "setup_s": {"value": median(setup_samples), "unit": "s"},
        "round_s": {"value": median([r["wall_s"] for r in rounds]), "unit": "s"},
        "cpu_s": {"value": median([r["cpu_s"] for r in rounds]), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(result, cold_svd, import_s, import_scipy_s) -> dict:
    rounds = result["rounds"]
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = {"cli.import_s": (import_s, "s"), "cli.import_scipy_s": (import_scipy_s, "s")}

    def over_traced(part, key):
        return median([r["spans"][part].get(key, 0) for r in traced])

    for name, layer in LAYER_TIMES.items():
        metrics[name] = (over_traced("self_s", layer), "s")
    for name, layer in LAYER_CALLS.items():
        metrics[name] = (over_traced("calls", layer), "count")
    metrics["dispersion.points"] = (over_traced("counts", "dispersion.points"), "count")
    metrics["jsa.schmidt_cold_s"] = (median(cold_svd), "s")
    metrics["cli.output_bytes"] = (median([r.get("output_bytes", 0) for r in plain]), "bytes")
    for group, ops in workloads.CliSession.GROUPS.items():
        per_round = [median([r["op_walls_s"][k] for k in ops]) for r in plain if "op_walls_s" in r]
        metrics[f"cli.{group}_s"] = (median(per_round), "s")
    metrics["trace.overhead_s"] = (
        median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain]), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "biphoton" / "__init__.py").is_file():
        raise BenchError(f"no src/biphoton under {root}: run from the root of a checkout")
    env = pin_environment(root)
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # untimed: warm the file cache and the bytecode of every module the CLI imports
    run_checked([sys.executable, "-c", "import biphoton.cli"], env)
    inputs = workloads.make_inputs(args.workload, args.seed)
    spec = work / "inputs.json"
    spec.write_text(json.dumps({"inputs": inputs,
                                "references": workloads.make_references(args.workload, inputs)}))
    meta = metadata(root)

    log = work / "workload.log"
    base = ["--workload", args.workload, "--inputs", str(spec)]
    setup_samples, cold_svd = [], []
    for _ in range(SETUP_SAMPLES - 1):
        ready_s, ready, _ = spawn_worker([*base, "--setup-only"], env, log)
        setup_samples.append(ready_s)
        cold_svd.append(ready["cold_svd_s"])
    measure = [*base, "--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    ready_s, ready, result = spawn_worker(measure, env, log)
    setup_samples.append(ready_s)
    cold_svd.append(ready["cold_svd_s"])

    rounds = result["rounds"]
    if args.trace:
        probe = run_checked([sys.executable, "-X", "importtime", "-c", "import biphoton.cli"], env)
        import layers

        metrics = per_layer(result, cold_svd, *layers.parse_importtime(probe.stderr))
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics = end_to_end(rounds, setup_samples, peak_rss_mb)
    for message in result["failures"] + result["check_errors"]:
        print(f"perfbench: {message}", file=sys.stderr)
    meta.update(workload=args.workload, seed=args.seed, rounds=len(rounds),
                setup_samples_s=setup_samples)
    (work / "meta.json").write_text(json.dumps(meta, indent=2))
    print("perfbench-meta " + json.dumps(meta))
    return {
        "correct": not result["check_errors"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="biphoton benchmark (one workload, one run)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        summary = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
