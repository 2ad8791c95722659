"""Smoke tests: each study script runs end to end on a small grid."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import biphoton as bp

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, cwd):
    src = str(Path(bp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(SCRIPTS / name), "--points", "64"], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "script, csv, printed",
    [
        ("gvm_design_study.py", None, "20.0 C: ridge angle  43.767 deg"),
        ("filter_tradeoff.py", "filter_tradeoff.csv", "wrote filter_tradeoff.csv"),
        ("pump_bandwidth_scan.py", "pump_bandwidth_scan.csv", "wrote pump_bandwidth_scan.csv"),
    ],
)
def test_script_runs(tmp_path, script, csv, printed):
    proc = _run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert printed in proc.stdout
    if csv is not None:
        header, *body = (tmp_path / csv).read_text().splitlines()
        assert body and all(row.count(",") == header.count(",") for row in body)
