"""The three benchmark workloads: seeded inputs, timed operations, checks.

Every workload drives the library the way a user or a script does, one
closed-loop caller at a time: each operation waits for its result before the
next one starts.  ``sections`` and ``sweeps`` call the CLI in-process through
``taxiconics.cli.main(argv)``; ``oracle`` calls the public functions of
``taxiconics.oracle``.  No operation passes ``--workers``.

Why each workload was chosen, and which layers it exercises and bypasses, is
recorded in README.md next to this file.

An item is a cone for ``sections``, a raster cell for ``sweeps`` and a grid
point for ``oracle``.  An operation is one CLI command for ``sections`` and
``sweeps`` and one cone's verification for ``oracle``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import taxiconics
from taxiconics import cli, oracle, sections
from taxiconics.cones import cone_from_raw, make_cone, normalize_line, normalize_plane
from taxiconics.errors import DegenerateCone, ZeroVector

# Workload sizes.  "full" is what the benchmark measures; "tiny" is for the
# self-tests.  One cone's grid scan costs 15% more or less than another's,
# depending on its rational sizes, so the oracle pass averages over many cones
# to stay steady from seed to seed, at a grid small enough that one run
# still holds several passes.
SIZES = {
    "full": {"sections_cones": 300, "sweep_grid": 101, "oracle_cones": 24, "oracle_grid": 51},
    "tiny": {"sections_cones": 6, "sweep_grid": 11, "oracle_cones": 2, "oracle_grid": 11},
}

SAMPLED_CELLS = 40  # atlas/ukappa cells re-classified one by one per sweep
PIECE_SAMPLES = 12  # random points per piece in the oracle workload
SWEEP_BBOX = (-2, -2, 2, 2)  # the CLI's default --bbox


# ---------------------------------------------------------------------------
# the fixed-seed cone family (same draws as tests/conftest.py)


def _rnd_rat(rng: random.Random, lo=-4, hi=4, den_max=8):
    den = rng.randrange(1, den_max + 1)
    return taxiconics.rat(rng.randrange(lo * den, hi * den + 1), den)


def _plane_triple(rng: random.Random):
    r = rng.random()
    if r < 0.12:
        return (_rnd_rat(rng), _rnd_rat(rng), 0)
    if r < 0.2:
        return (0, 0, 1)
    return (_rnd_rat(rng), _rnd_rat(rng), 1)


def _line_triple(rng: random.Random):
    if rng.random() < 0.12:
        return (_rnd_rat(rng), _rnd_rat(rng), 0)
    return (_rnd_rat(rng), _rnd_rat(rng), 1)


def cone_family(n: int, seed: int) -> list[tuple]:
    """The first n cones of the family: (raw plane, raw line, kappa, cone)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        A, a = _plane_triple(rng), _line_triple(rng)
        kappa = taxiconics.rat(rng.randrange(1, 25), rng.randrange(1, 7))
        try:
            out.append((A, a, kappa, cone_from_raw(A, a, kappa)))
        except (DegenerateCone, ZeroVector):
            continue
    return out


def _rstr(v) -> str:
    return taxiconics.rat_str(taxiconics.rat(v))


# ---------------------------------------------------------------------------
# operations and their outcomes


@dataclass
class Op:
    """One timed operation: what to run and what to check afterwards."""

    label: str
    items: int
    run: object  # callable() -> raw result, the only code inside the timer
    check: object  # callable(result) -> (list of problems, digest bytes, stats)


@dataclass
class OpOutcome:
    seconds: float
    failed: bool
    digest: str
    problems: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def _cli(argv: list[str]):
    """Run the CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_problems(result) -> list[str]:
    code, _, err = result
    if code != 0:
        return [f"exit {code}: {err.strip()[:200]}"]
    return []


def _svg_problems(text: str) -> list[str]:
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return ["output is not an SVG document"]
    return []


# ---------------------------------------------------------------------------
# sections


class SectionsWorkload:
    name = "sections"

    def __init__(self, seed: int, size: str):
        self.cones = cone_family(SIZES[size]["sections_cones"], seed)

    def ops(self, workdir: Path) -> list[Op]:
        """Write the raw cone specs the CLI loads; return the operations on them."""
        out = []
        for k, (A, a, kappa, cone) in enumerate(self.cones):
            spec = workdir / f"cone{k:04d}.json"
            sec, svg = workdir / f"section{k:04d}.json", workdir / f"section{k:04d}.svg"
            spec.write_text(json.dumps(
                {"A": [_rstr(c) for c in A], "a": [_rstr(c) for c in a], "kappa": _rstr(kappa)}))
            shared = {}
            out.append(Op("classify", 0, lambda s=spec: _cli(["classify", str(s)]),
                          lambda r, sh=shared: self._check_classify(r, sh)))
            out.append(Op("section", 0, lambda s=spec, o=sec: _cli(["section", str(s), "-o", str(o)]),
                          lambda r, c=cone, o=sec, sh=shared: self._check_section(r, c, o, sh)))
            out.append(Op("render", 1, lambda s=sec, o=svg: _cli(["render", str(s), "-o", str(o)]),
                          lambda r, o=svg: self._check_render(r, o)))
        return out

    @staticmethod
    def _check_classify(result, shared):
        problems = _cli_problems(result)
        shared["class"] = result[1].strip()
        return problems, result[1].encode(), {}

    @staticmethod
    def _check_section(result, cone, path: Path, shared):
        problems = _cli_problems(result)
        if problems:
            return problems, b"", {}
        raw = path.read_bytes()
        data = json.loads(raw)
        if data["class"] != shared.get("class"):
            problems.append(f"classify says {shared.get('class')!r}, section says {data['class']!r}")
        section = sections.section_from_json(data)
        if sections.section_to_json(section) != data:
            problems.append("section JSON does not round-trip through section_from_json")
        for v in section.vertices:
            if v.location.is_finite and oracle.exact_residual(cone, v.location.point) != 0:
                problems.append(f"vertex {v.label} has a nonzero exact residual")
        return problems, raw, {}

    @staticmethod
    def _check_render(result, path: Path):
        problems = _cli_problems(result)
        if problems:
            return problems, b"", {}
        raw = path.read_bytes()
        return problems + _svg_problems(raw.decode()), raw, {"svg_bytes": len(raw)}


# ---------------------------------------------------------------------------
# sweeps


def _grid(n: int):
    x0, y0, x1, y1 = (taxiconics.rat(c) for c in SWEEP_BBOX)
    return ([x0 + k * (x1 - x0) / (n - 1) for k in range(n)],
            [y0 + k * (y1 - y0) / (n - 1) for k in range(n)])


_LETTER = {sections.ELLIPSE: "E", sections.PARABOLA: "P", sections.HYPERBOLA: "H"}


class SweepsWorkload:
    name = "sweeps"

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        self.n = SIZES[size]["sweep_grid"]
        # A1*a1 + A2*a2 + 1 = 0 has grid solutions on the full grid (step 1/25)
        # when gcd(p, q) = 1, so this plane has degenerate cells.
        p, q = rng.choice([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)])
        plane = (p * rng.choice((1, -1)), q * rng.choice((1, -1)), 1)
        kappa_lo = taxiconics.rat(rng.randrange(1, 5), 5)  # 1/5 .. 4/5
        kappa_hi = taxiconics.rat(rng.randrange(6, 16), 5)  # 6/5 .. 3
        self.sweeps = [
            ("atlas", normalize_plane(plane), taxiconics.rat(1)),
            ("ukappa", None, kappa_lo),
            ("ukappa", None, kappa_hi),
        ]
        self.rng_seed = seed

    def ops(self, workdir: Path) -> list[Op]:
        out = []
        for k, (command, plane, kappa) in enumerate(self.sweeps):
            js, svg = workdir / f"sweep{k}.json", workdir / f"sweep{k}.svg"
            argv = [command]
            if plane is not None:
                argv.append("--plane=" + ",".join(plane.to_json()))  # may start with "-"
            argv += ["--kappa", taxiconics.rat_str(kappa), "--grid", str(self.n),
                     "-o", str(js), "--svg", str(svg)]
            out.append(Op(command, self.n * self.n, lambda a=argv: _cli(a),
                          lambda r, c=command, p=plane, kp=kappa, j=js, s=svg, i=k:
                          self._check(r, c, p, kp, j, s, i)))
        return out

    def _check(self, result, command, plane, kappa, js: Path, svg: Path, index: int):
        problems = _cli_problems(result)
        if problems:
            return problems, b"", {}
        raw_json, raw_svg = js.read_bytes(), svg.read_bytes()
        data = json.loads(raw_json)
        rows = data["rows"]
        n = self.n
        if len(rows) != n or any(len(r) != n or set(r) - set("EPHD") for r in rows):
            problems.append("raster has the wrong shape or letters")
            return problems, raw_json + raw_svg, {}
        if command == "ukappa" and data["inconsistencies"]:
            problems.append(f"{len(data['inconsistencies'])} U_kappa inconsistencies")
        xs, ys = _grid(n)
        rng = random.Random(self.rng_seed * 7919 + index)
        for _ in range(SAMPLED_CELLS):
            ix, iy = rng.randrange(n), rng.randrange(n)
            x, y = xs[ix], ys[iy]
            line = normalize_line((x, y, 1))
            cell_plane = plane if plane is not None else normalize_plane((x, y, 1))
            try:
                expected = _LETTER[sections.classify(make_cone(cell_plane, line, kappa))]
            except DegenerateCone:
                expected = "D"
            if rows[iy][ix] != expected:
                problems.append(f"cell ({ix}, {iy}) is {rows[iy][ix]}, classify says {expected}")
        problems += _svg_problems(raw_svg.decode())
        stats = {"cells": n * n, "degenerate_cells": sum(r.count("D") for r in rows),
                 "svg_bytes": len(raw_svg)}
        return problems, raw_json + raw_svg, stats


# ---------------------------------------------------------------------------
# oracle


class OracleWorkload:
    name = "oracle"

    def __init__(self, seed: int, size: str):
        self.cones = [c for *_, c in cone_family(SIZES[size]["oracle_cones"], seed)]
        self.cfg = oracle.OracleConfig(grid_n=SIZES[size]["oracle_grid"])
        self.seed = seed

    def ops(self, workdir: Path) -> list[Op]:
        n = self.cfg.grid_n
        return [Op("verify", n * n, lambda c=cone, k=k: self._verify(c, k),
                   lambda r, c=cone: self._check(r, c))
                for k, cone in enumerate(self.cones)]

    def _verify(self, cone, k: int):
        rng = random.Random(self.seed * 7919 + k)
        section = sections.build_section(cone)
        points = [p for piece in section.pieces
                  for p in oracle.sample_piece_points(piece, PIECE_SAMPLES, rng)]
        residuals = [oracle.exact_residual(cone, p) for p in points]
        scan = oracle.grid_residual_scan(cone, section, cfg=self.cfg)
        return section, residuals, scan

    def _check(self, result, cone):
        section, residuals, scan = result
        problems = []
        if any(r != 0 for r in residuals):
            problems.append("a sampled piece point has a nonzero exact residual")
        for v in section.vertices:
            if v.location.is_finite and oracle.exact_residual(cone, v.location.point) != 0:
                problems.append(f"vertex {v.label} has a nonzero exact residual")
        problems += scan.violations
        n = self.cfg.grid_n
        if scan.points_checked != n * n:
            problems.append(f"scan checked {scan.points_checked} points, expected {n * n}")
        digest = json.dumps([sections.section_to_json(section), scan.to_json()]).encode()
        stats = {"zero_points": scan.zero_residual_points, "points": scan.points_checked}
        return problems, digest, stats


WORKLOADS = {w.name: w for w in (SectionsWorkload, SweepsWorkload, OracleWorkload)}


# ---------------------------------------------------------------------------
# running passes


def run_op(op: Op):
    """Time one operation; an escaping exception makes it a failed one."""
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # recorded and reported as a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, error


def evaluate(op: Op, seconds: float, result, error) -> OpOutcome:
    """Check one operation's output, outside the timed region."""
    if error is not None:
        return OpOutcome(seconds, True, "", [error])
    try:
        problems, raw, stats = op.check(result)
    except Exception as exc:  # a check that cannot read the output fails the op
        return OpOutcome(seconds, True, "", [f"check raised {type(exc).__name__}: {exc}"])
    digest = hashlib.sha256(raw).hexdigest()[:16]
    return OpOutcome(seconds, bool(problems), digest, problems, stats)
