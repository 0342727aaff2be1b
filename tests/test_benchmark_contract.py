"""The benchmark's contract with the library, at the tiny input size.

perfbench/run.py calls the library through cli.main and the oracle
functions, checks every output against the digests recorded in
perfbench/digests.json, and with --trace 1 wraps each public function that
a per-layer metric of BENCHMARK.json names.  One traced tiny run of every
workload therefore fails on a changed output or a renamed or removed
function.  It reads perfbench/ and writes only its span files under
.perfbench/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_traced_benchmark_run_is_correct():
    pytest.importorskip("numpy")  # the traced pass writes .npz span files
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--size", "tiny",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
