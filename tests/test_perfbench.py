"""The benchmark calls hyperlab's public functions by name; its self-check
runs every workload at tiny size, so a rename that breaks one of those calls
fails here rather than only when the benchmark is next run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selfcheck"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selfcheck ok" in proc.stdout
