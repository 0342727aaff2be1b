"""taxiconics benchmark: one workload per fresh process, one closed-loop caller.

    python3 perfbench/run.py --workload sections|sweeps|oracle|all \
        --seed 20240811 --seconds 36 --trace 0|1

Run it from the root of a checkout; it imports the library from ``src/`` and
writes scratch files only under ``.perfbench/``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones (see README.md).  The
exit code is 0 when every output check passed and 1 otherwise; 2 means the
library could not be loaded and no result was printed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = {"full": 7, "tiny": 1}

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("rat.fraction_ops", "count"),
    ("rat.parse_calls", "count"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cones.make_cone.calls", "count"),
    ("cones.normalize.calls", "count"),
    ("cones.self_s", "s"),
    ("cones.trace_line_PS.per_cone", "1/cone"),
    ("sections.build_section.calls", "count"),
    ("sections.build_section.self_s", "s"),
    ("sections.vertex_slot.per_cone", "1/cone"),
    ("sections.auxiliary_points.per_cone", "1/cone"),
    ("sections.classify.calls", "count"),
    ("sections.classify.self_s", "s"),
    ("sections.section_to_json.self_s", "s"),
    ("sections.section_from_json.self_s", "s"),
    ("metric.dist_to_line.calls", "count"),
    ("metric.dist_to_line.self_s", "s"),
    ("metric.dist_to_plane.calls", "count"),
    ("metric.dist_to_plane.self_s", "s"),
    ("metric.dominance_class.calls", "count"),
    ("geometry.piece_contains.calls", "count"),
    ("geometry.piece_contains.self_s", "s"),
    ("geometry.intersect_lines.calls", "count"),
    ("special.u_kappa_position.calls", "count"),
    ("special.u_kappa_position.self_s", "s"),
    ("oracle.exact_residual.calls", "count"),
    ("oracle.exact_residual.self_s", "s"),
    ("oracle.grid_residual_scan.self_s", "s"),
    ("oracle.zero_hit_ratio", "ratio"),
    ("atlas.atlas_sweep.self_s", "s"),
    ("atlas.ukappa_sweep.self_s", "s"),
    ("atlas.cells", "count"),
    ("atlas.degenerate_ratio", "ratio"),
    ("render.render_section.calls", "count"),
    ("render.render_section.self_s", "s"),
    ("render.render_raster.self_s", "s"),
    ("render.svg_bytes", "B"),
    ("trace.items_per_s.untraced", "1/s"),
    ("trace.items_per_s.traced", "1/s"),
    ("trace.overhead", "ratio"),
]


def _load_library():
    """Put ``src/`` and this directory on the path and import the workloads."""
    if not (SRC / "taxiconics" / "__init__.py").is_file():
        print(f"error: no taxiconics sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # imports taxiconics

    return workloads


# ---------------------------------------------------------------------------
# environment record


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git installed
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    from taxiconics._rat import Rat

    return {
        "python": platform.python_version(),
        "backend": f"{Rat.__module__}.{Rat.__name__}",
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# set-up time in fresh processes


def _probe_setup(args) -> int:
    """Child process: time importing the library and normalizing the inputs."""
    t0 = time.perf_counter()
    workloads = _load_library()
    workloads.WORKLOADS[args.workload](args.seed, args.size)
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(args) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# passes


class Runner:
    """Runs passes over one workload's operations and checks every output."""

    def __init__(self, workloads, ops, expected: list[str] | None):
        self.lib = workloads
        self.ops = ops
        self.expected = expected
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, *instruments):
        """Run every operation once; return the outcomes.

        The ``instruments`` (context managers) wrap only the operations,
        never the checks.
        """
        with contextlib.ExitStack() as stack:
            for instrument in instruments:
                stack.enter_context(instrument)
            raw = [self.lib.run_op(op) for op in self.ops]
        outcomes = [self.lib.evaluate(op, *r) for op, r in zip(self.ops, raw)]
        digests = [o.digest for o in outcomes]
        reference = self.expected if self.expected is not None else self.first
        if reference is not None and len(reference) != len(digests):
            reference = None
            self.problems.append("recorded digest list does not match the operation count")
            self.failed += 1
        for k, o in enumerate(outcomes):
            if reference is not None and not o.failed and o.digest != reference[k]:
                o.failed = True
                o.problems.append("output digest differs from the recorded one"
                                  if self.expected is not None else "output differs from the first pass")
            if o.failed:
                self.failed += 1
                self.problems.extend(f"{self.ops[k].label} #{k}: {p}" for p in o.problems)
        if self.first is None:
            self.first = digests
        self.attempted += len(outcomes)
        return outcomes

    def items(self) -> int:
        return sum(op.items for op in self.ops)

    def timed(self, seconds: float):
        """Whole passes while another one fits in ``seconds`` (at least one)."""
        passes = []
        t0 = time.perf_counter()
        last = 0.0
        while not passes or time.perf_counter() - t0 + last <= seconds:
            t1 = time.perf_counter()
            passes.append(self.run_pass())
            last = time.perf_counter() - t1
        return passes

    def rate(self, passes) -> float:
        """Items per second of a typical pass: each operation's time is its
        median over the passes, which discards spikes in single passes."""
        per_op = zip(*([o.seconds for o in p] for p in passes))
        return self.items() / sum(statistics.median(t) for t in per_op)


def end_to_end(runner: Runner, passes, setup: list[float]) -> tuple[dict, list[str]]:
    times_ms = [o.seconds * 1000 for p in passes for o in p]
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": runner.rate(passes),
        "op_ms.p50": statistics.median(times_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"setup_s      {metrics['setup_s']:.4f} s    median of {len(setup)} fresh processes",
        f"items_per_s  {metrics['items_per_s']:.2f} 1/s  {len(passes)} passes, per-operation medians",
        f"op_ms.p50    {metrics['op_ms.p50']:.3f} ms   {len(times_ms)} operations",
    ]
    if len(times_ms) >= 1000:
        p99 = statistics.quantiles(times_ms, n=100)[98]
        notes.append(f"op_ms.p99    {p99:.3f} ms   {len(times_ms)} operations")
    notes += [
        f"fail_ratio   {runner.failed / runner.attempted:.4f}      "
        f"{runner.failed} of {runner.attempted} operations",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
    ]
    return metrics, notes


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(calls: dict, self_s: dict, outcomes, fraction_ops: int,
              untraced: float, traced: float) -> dict:
    """The PER_LAYER metrics from one pass's call counts, self times and stats.

    ``<function>.calls``/``.self_s`` read one function; ``<module>.calls``/
    ``.self_s`` sum the module's public functions; ``.per_cone`` divides a
    function's calls by the ``build_section`` calls.
    """
    stats = collections.Counter()
    for o in outcomes:
        stats.update(o.stats)
    derived = {
        "rat.fraction_ops": fraction_ops,
        "rat.parse_calls": calls["_rat.rat"] + calls["_rat.parse_rat"] + calls["_rat.rat_str"],
        "cones.normalize.calls": calls["cones.normalize_plane"] + calls["cones.normalize_line"],
        "oracle.zero_hit_ratio": _ratio(stats["zero_points"], stats["points"]),
        "atlas.cells": stats["cells"],
        "atlas.degenerate_ratio": _ratio(stats["degenerate_cells"], stats["cells"]),
        "render.svg_bytes": stats["svg_bytes"],
        "trace.items_per_s.untraced": untraced,
        "trace.items_per_s.traced": traced,
        "trace.overhead": untraced / traced,
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
            continue
        subject, _, kind = name.rpartition(".")
        if kind == "per_cone":
            out[name] = _ratio(calls[subject], calls["sections.build_section"])
            continue
        table = {"calls": calls, "self_s": self_s}[kind]
        if subject in table:
            out[name] = table[subject]
        else:
            members = [v for k, v in table.items() if k.startswith(subject + ".")]
            if not members:
                raise KeyError(f"{name}: no public function or module {subject!r}")
            out[name] = sum(members)
    return out


def traced_run(args, runner: Runner) -> tuple[dict, list[str]]:
    """Untraced passes, one span-traced pass, then one counting pass."""
    import tracing

    untraced = runner.rate(runner.timed(args.seconds / 2))
    spans = tracing.Instrument(spans=True)
    traced_outcomes = runner.run_pass(spans.installed())
    traced = runner.rate([traced_outcomes])
    counter = tracing.Instrument(spans=False)
    fraction_ops = [0]
    runner.run_pass(counter.installed(), tracing.count_fraction_ops(fraction_ops))
    calls = counter.calls()
    notes = []
    if calls != spans.calls():
        runner.failed += 1
        runner.problems.append("call counts differ between the traced and the counting pass")
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{args.workload}-{args.seed}.npz"
    spans.write(trace_file)
    notes.append(f"spans        {len(spans.name_id)} written to {trace_file.relative_to(ROOT)}")
    metrics = per_layer(calls, spans.self_seconds(), traced_outcomes, fraction_ops[0], untraced, traced)
    return metrics, notes


def _expected_digests(args) -> list[str] | None:
    if not args.digests.is_file():
        return None
    table = json.loads(args.digests.read_text())
    if table.get("seed") != args.seed:
        return None
    return table.get(f"{args.workload}/{args.size}")


def run_workload(args) -> int:
    workloads = _load_library()
    setup = [] if args.trace else measure_setup(args)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
        runner = Runner(workloads, wl.ops(workdir), _expected_digests(args))
        if args.trace:
            metrics, notes = traced_run(args, runner)
            units = dict(PER_LAYER)
        else:
            metrics, notes = end_to_end(runner, runner.timed(args.seconds), setup)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  one closed-loop caller")
    for line in notes:
        print("  " + line)
    for problem in runner.problems[:20]:
        print("  FAIL " + problem)
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own fresh process; one table at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in ("sections", "sweeps", "oracle"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size, "--digests", str(args.digests)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr)
            combined["correct"] = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(f"{'workload.metric':45s} {'value':>14s}  unit")
    for metric, value in combined["metrics"].items():
        print(f"{metric:45s} {value['value']:14.6g}  {value['unit']}")
    print(json.dumps(combined))
    return code


def record_digests(args) -> int:
    """Write the output digests of one pass of every workload at this seed."""
    workloads = _load_library()
    table = {"seed": args.seed}
    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for size in ("full", "tiny"):
            for name, cls in workloads.WORKLOADS.items():
                runner = Runner(workloads, cls(args.seed, size).ops(workdir), None)
                runner.run_pass()
                if runner.failed:
                    print("\n".join(runner.problems[:20]), file=sys.stderr)
                    return 1
                table[f"{name}/{size}"] = runner.first
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.digests.write_text(json.dumps(table, indent=1) + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sections", "sweeps", "oracle", "all"), default="all")
    parser.add_argument("--seed", type=int, default=20240811)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-tests")
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="recorded output digests checked at their seed")
    parser.add_argument("--record-digests", action="store_true",
                        help="write the digests of this seed's outputs and exit")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        return _probe_setup(args)
    if args.record_digests:
        return record_digests(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
