"""Self-tests for the benchmark, at the tiny input size.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("sections", "sweeps", "oracle")
COUNT_METRICS = [name for name, unit in run.PER_LAYER if unit in ("count", "1/cone")]


def bench(*argv, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--size", "tiny", "--seconds", "0.2", *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    code, result = bench("--workload", workload, "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_counts_repeat_exactly():
    runs = [bench("--workload", "sweeps", "--trace", "1")[1]["metrics"] for _ in range(2)]
    assert [runs[0][m] for m in COUNT_METRICS] == [runs[1][m] for m in COUNT_METRICS]
    assert runs[0]["sections.classify.calls"]["value"] > 0


def test_wrong_digest_is_reported_as_a_failure(tmp_path):
    table = json.loads(run.DIGESTS.read_text())
    ops = table["sections/tiny"]
    ops[1] = "0" * len(ops[1])
    bad = tmp_path / "digests.json"
    bad.write_text(json.dumps(table))
    code, result = bench("--workload", "sections", "--digests", str(bad))
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result = bench("--workload", "sections", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert result is None
