"""Brute-force numeric and exact-grid verification of the closed forms.

The oracles deliberately avoid the closed-form machinery: line distance is
minimized by a dense scan plus ternary refinement of the convex map
t -> sum |x_i - a_i t|; the section pieces are checked against an exact
residual scan on a rational grid, against a rebuild region by region, and
their topology against the class.  Every residual d(x, ell) - kappa d(x, P)
is read from the cone's one integer form, cone.residual_form (built from the
distances, never from sections): exact_residual, the grid scan, the piece
rebuild and the bisection that re-finds each vertex on its reference line
q + t r_i (r_i from cones.reference_directions, q on rho^i) by the exact
sign of the residual at the float t.  The rebuild clips each zero line to
its region with geometry.clip_interval, the SVG writer's clipper.  The float
scans use plain Python floats; _linspace reproduces numpy.linspace bit for
bit, so the package needs no numeric library.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Callable, Optional

from ._rat import Rat, as_integers, rat, rat_str, sign
from .atlas import MAX_GRID, grid_axes
from .cones import ConeSpec, LineParams, cone_to_json, reference_directions, reference_lines
from .errors import NoSignChange
from .geometry import (
    Line2,
    Piece,
    Point2,
    Ray,
    Segment,
    clip_interval,
    padded_box,
    piece_contains,
    piece_point_at,
    piece_sort_key,
    point_on_line,
)
from .sections import ConicSection, build_section, finite_points, section_topology

# the float oracles: dense scan of t over [-T_RANGE, T_RANGE], then at most
# REFINE_ITERS ternary or bisection steps down to an interval of TOL / 16
T_RANGE = 100.0
T_STEPS = 10001
REFINE_ITERS = 200
TOL = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    grid_n: int = 201

    def __post_init__(self):
        if self.grid_n % 2 == 0 or not 3 <= self.grid_n <= MAX_GRID:
            raise ValueError(
                f"verify --grid must be odd and between 3 and {MAX_GRID}, got {self.grid_n}"
            )


DEFAULT_CONFIG = OracleConfig()


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy.linspace(lo, hi, n) exactly: lo + k step, with hi itself last."""
    lo, hi = float(lo), float(hi)
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n - 1)] + [hi]


def numeric_dist_to_line(x, a_triple) -> float:
    """min_t sum |x_i - a_i t| by dense scan plus ternary refinement."""
    x1, x2, x3 = (float(c) for c in x)
    a1, a2, a3 = (float(c) for c in a_triple)

    def f(t):
        return abs(x1 - a1 * t) + abs(x2 - a2 * t) + abs(x3 - a3 * t)

    ts = _linspace(-T_RANGE, T_RANGE, T_STEPS)
    # f inlined, as the scan is most of the oracle's time
    values = [abs(x1 - a1 * t) + abs(x2 - a2 * t) + abs(x3 - a3 * t) for t in ts]
    k = values.index(min(values))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    for _ in range(REFINE_ITERS):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
        if hi - lo < TOL / 16:
            break
    return f((lo + hi) / 2.0)


def numeric_dist_to_plane(x, a_triple) -> float:
    """min over plane points of the taxicab distance, by iterative grid zoom.

    The plane A . y = 0 is parametrized by the two coordinates with the
    largest remaining |A| component solving for the third.
    """
    A = [float(c) for c in a_triple]
    xs = [float(c) for c in x]
    k = max(range(3), key=lambda i: abs(A[i]))
    i, j = [m for m in range(3) if m != k]

    def dist(u, v):
        w = -(A[i] * u + A[j] * v) / A[k]
        y = [0.0, 0.0, 0.0]
        y[i], y[j], y[k] = u, v, w
        return sum(abs(p - q) for p, q in zip(xs, y))

    cu, cv = xs[i], xs[j]
    half = max(1.0, 2.0 * sum(abs(c) for c in xs))
    best = dist(cu, cv)
    for _ in range(60):
        us = _linspace(cu - half, cu + half, 41)
        vs = _linspace(cv - half, cv + half, 41)
        grid = [(dist(u, v), u, v) for u in us for v in vs]
        best, cu, cv = min(grid)
        half *= 0.1
        if half < TOL / 16:
            break
    return best


def _ref_param(line: LineParams, ref_index: int) -> tuple[Point2, tuple]:
    """Origin q and direction r_i of the parametrization q + t r_i of rho^i.

    r_i comes from reference_directions; q is point_on_line of rho^i, so t
    is x1 on rho^1, x2 on rho^2 and the multiplier of (a1, a2) on rho^3.
    """
    g = {i: g for i, g, _ in reference_lines(line)}[ref_index]
    return point_on_line(g.c1, g.c2, g.c0), reference_directions(line)[ref_index]


def _g_along_ref(cone: ConeSpec, ref_index: int) -> Callable[[float], int]:
    """g(t) = the exact sign of d(x, ell) - kappa d(x, P) at x = q + t r_i on rho^i.

    The float t is the exact rational tn/td, so x = (Q + tn R)/(e td) over
    integers Q, R and e, and the sign is that of the form's numerator there.
    """
    q, r = _ref_param(cone.line, ref_index)
    (q1, q2, r1, r2), e = as_integers((q.x1, q.x2, *r))
    num = cone.residual_form.num

    def g(t: float) -> int:
        tn, td = t.as_integer_ratio()
        return sign(num(q1 * td + tn * r1, q2 * td + tn * r2, e * td))

    return g


def vertex_bisection(
    cone: ConeSpec,
    ref_index: int,
    interval: tuple[float, float],
) -> float:
    """Root t in interval of d(x, ell) - kappa d(x, P) at x = q + t r_i, by bisection.

    Each step reads the exact sign of the residual at the float t, so an
    endpoint or midpoint that is an exact root is returned as it is.
    """
    g = _g_along_ref(cone, ref_index)
    lo, hi = float(interval[0]), float(interval[1])
    glo, ghi = g(lo), g(hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if glo == ghi:
        raise NoSignChange(f"g({lo}) and g({hi}) have the same sign {glo:+d}")
    for _ in range(REFINE_ITERS):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0:
            return mid
        if gm == glo:
            lo = mid
        else:
            hi = mid
        if hi - lo < TOL / 16:
            break
    return 0.5 * (lo + hi)


def scan_reference_roots(
    cone: ConeSpec,
    ref_index: int,
    window: tuple[float, float] = (-50.0, 50.0),
    steps: int = 4001,
) -> list[float]:
    """All bracketed roots t of g along rho^i with t inside a window."""
    g = _g_along_ref(cone, ref_index)
    ts = _linspace(window[0], window[1], steps)
    signs = [g(t) for t in ts]
    roots = []
    for k in range(len(ts) - 1):
        s0, s1 = signs[k], signs[k + 1]
        if s0 == 0:
            roots.append(ts[k])
        elif (s0 > 0) != (s1 > 0):
            roots.append(vertex_bisection(cone, ref_index, (ts[k], ts[k + 1])))
    if signs[-1] == 0:
        roots.append(ts[-1])
    # merge near-duplicates from exact hits adjacent to sign changes
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) > 16 * TOL:
            merged.append(r)
    return merged


def exact_residual(cone: ConeSpec, p: Point2) -> Rat:
    """d(x, ell) - kappa d(x, P) at the slicing-plane point p, exact.

    p is written as (X/D, Y/D) in integers and read by cone.residual_form;
    metric.dist_to_line and metric.dist_to_plane are the reference the tests
    compare it with.
    """
    (x, y), d = as_integers((p.x1, p.x2))
    form = cone.residual_form
    return Rat(form.num(x, y, d), form.den * d)


def section_bbox(section: ConicSection) -> tuple[Rat, Rat, Rat, Rat]:
    """Bounding box of the finite features of a section, padded by 1."""
    points = list(finite_points(section))
    if not points:
        raise ValueError("the section has no finite pieces or vertices to bound")
    return padded_box(points, 1)


# ---------------------------------------------------------------------------
# independent rebuild: the zero set of the residual form, region by region


def _clip_line(line, forms) -> Optional[Piece]:
    """The part of {c1 x + c2 y + c0 = 0} where every form h has h >= 0.

    All forms are integer triples (c1, c2, c0) at (x, y, 1), and
    geometry.clip_interval clips the line ((qx, qy) + s d)/q with
    d = (-c2, c1), q > 0.  Returns a Segment, a Ray, or None when the part
    is empty or a single point.
    """
    c1, c2, c0 = line
    qx, qy, q = (0, -c0, c2) if c2 else (-c0, 0, c1)
    if q < 0:
        qx, qy, q = -qx, -qy, -q
    ends = clip_interval((qx, qy, q), (-c2, c1), forms)
    if ends is None:
        return None
    low, high = ends
    if low is not None and high is not None:
        return Segment.of(low, high)
    if low is not None:
        return Ray.of(low, -c2, c1)
    if high is not None:
        return Ray.of(high, c2, -c1)
    raise AssertionError("section piece cannot be a full line inside a region")


def _rebuild_pieces(cone: ConeSpec) -> list[Piece]:
    """Pieces of the section, read off cone.residual_form region by region.

    On x3 = 1 the residual is min_k S_k - |G| with S_k = |T_k1| + |T_k2|, all
    T and G linear.  The distinct zero lines of the T (the active reference
    lines through a; a horizontal line has one, plus a constant T) cut the
    plane into sign regions, inside which each S_k is linear.  Where S_k is
    least (S_j - S_k >= 0) the zero set is S_k = |G|: the lines
    S_k - sigma G = 0 clipped to those half-planes, with no constraint for
    the side sigma G >= 0 of P^S, as sigma G = S_k >= 0 on the line.
    """
    residual = cone.residual_form
    lines = list(dict.fromkeys(Line2.of(*t) for pair in residual.terms for t in pair if t[0] or t[1]))
    # each T as (index of its zero line, sign of T against that line's
    # form), or (None, sign of T) for a constant T
    wheres = [
        [(lines.index(Line2.of(*t)), sign(t[0] or t[1])) if t[0] or t[1] else (None, sign(t[2])) for t in pair]
        for pair in residual.terms
    ]

    def combine(coefs, forms):
        return tuple(sum(c * f[m] for c, f in zip(coefs, forms)) for m in range(3))

    pieces: set[Piece] = set()
    for signs in product((1, -1), repeat=len(lines)):
        region = [(s * int(g.c1), s * int(g.c2), s * int(g.c0)) for s, g in zip(signs, lines)]
        # |T| = eps T throughout the region, so each S_k is linear there
        sums = [
            combine([s if i is None else s * signs[i] for i, s in ws], pair)
            for ws, pair in zip(wheres, residual.terms)
        ]
        for k, s_k in enumerate(sums):
            least = [combine((1, -1), (s_j, s_k)) for j, s_j in enumerate(sums) if j != k]
            for sigma in (1, -1):
                zero = combine((1, -sigma), (s_k, residual.plane))
                if zero[0] or zero[1]:
                    # else no zero here: an identically zero form would
                    # force A1 a1 + A2 a2 + delta = 0, which make_cone rejects
                    piece = _clip_line(zero, region + least)
                    if piece is not None:
                        pieces.add(piece)
    return sorted(pieces, key=piece_sort_key)


@dataclass
class ScanReport:
    points_checked: int
    zero_residual_points: int
    max_residual_off_section: float
    violations: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


def grid_residual_scan(
    cone: ConeSpec,
    section: Optional[ConicSection] = None,
    bbox: Optional[tuple] = None,
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> ScanReport:
    """Exact residual on a rational grid; zero set must lie on the pieces.

    Grid point (X, Y) stands for x = (X/D, Y/D, 1) over one denominator D,
    and its residual is num(X, Y, D)/(den D) from cone.residual_form (see
    metric.build_residual_form).  Each linear term of num is laid out as an
    X column plus row terms, so a row costs integer adds and compares; a
    point is a zero iff num == 0, and only zeros get a rational point.
    """
    if section is None:
        section = build_section(cone)
    if bbox is None:
        bbox = section_bbox(section)
    n = cfg.grid_n
    xs, ys, big_d = grid_axes(bbox, n)

    def columns(coefs):
        # cx X + cy Y + cd D as an X column plus the row terms
        cx, cy, cd = coefs
        return [cx * x for x in xs], cy, cd * big_d

    residual = cone.residual_form
    terms = [[columns(c) for c in pair] for pair in residual.terms]
    g_col, gy, gd = columns(residual.plane)

    zeros = 0
    max_num = 0
    violations: list[str] = []
    for y in ys:
        dists = []
        for (c1, a1, b1), (c2, a2, b2) in terms:
            r1, r2 = a1 * y + b1, a2 * y + b2
            dists.append([abs(u + r1) + abs(v + r2) for u, v in zip(c1, c2)])
        dist = dists[0] if len(dists) == 1 else map(min, *dists)
        rg = gy * y + gd
        nums = [s - abs(w + rg) for s, w in zip(dist, g_col)]
        max_num = max(max_num, max(nums), -min(nums))
        if 0 not in nums:
            continue
        for x, num in zip(xs, nums):
            if num == 0:
                zeros += 1
                p = Point2(rat(x, big_d), rat(y, big_d))
                if not any(piece_contains(piece, p) for piece in section.pieces):
                    violations.append(
                        f"zero residual off pieces at ({rat_str(p.x1)}, {rat_str(p.x2)})"
                    )
    max_off = rat(max_num, residual.den * big_d)
    return ScanReport(n * n, zeros, float(max_off), violations)


def sample_piece_points(piece, count: int, rng) -> list[Point2]:
    """Random rational points on a piece (interior parameters)."""
    out = []
    for _ in range(count):
        num = rng.randrange(1, 1000)
        if isinstance(piece, Segment):
            t = rat(num, 1000)
        else:
            t = rat(rng.randrange(1, 10000), 997)
        out.append(piece_point_at(piece, t))
    return out


def verify_cone(cone: ConeSpec, cfg: OracleConfig = DEFAULT_CONFIG) -> dict:
    """Full verification report for one cone.

    Checks vertex exactness, residuals of sampled piece points, vertex
    reproduction by bisection, the exact-zero coverage of a padded grid
    scan, the pieces against their rebuild from the residual form (every
    cone) and the piece topology against the class.  The report's
    "violations" list must be empty for a pass.
    """
    rng = random.Random(0)
    section = build_section(cone)
    violations: list[str] = []

    finite_vertices = [v for v in section.vertices if v.location.is_finite]
    for v in finite_vertices:
        if exact_residual(cone, v.location.point) != 0:
            violations.append(f"vertex {v.label} violates the cone equation")

    sampled = 0
    for piece in section.pieces:
        for p in sample_piece_points(piece, 12, rng):
            sampled += 1
            if exact_residual(cone, p) != 0:
                violations.append(
                    f"piece point ({rat_str(p.x1)}, {rat_str(p.x2)}) has nonzero residual"
                )

    bisected = 0
    params = {v: float(_vertex_parameter(cone, v)) for v in finite_vertices}
    for v, t in params.items():
        # the bracket must not reach the other vertex on the same reference
        # line, or both roots fall inside it and g has no sign change
        half = min(
            [0.75]
            + [abs(t - t2) / 2 for w, t2 in params.items()
               if w is not v and w.ref_index == v.ref_index]
        )
        try:
            root = vertex_bisection(cone, v.ref_index, (t - half, t + half))
        except NoSignChange:
            violations.append(f"no sign change around vertex {v.label}")
            continue
        bisected += 1
        if abs(root - t) > 1e-6:
            violations.append(f"bisection missed vertex {v.label}")

    scan = grid_residual_scan(cone, section, cfg=cfg)
    violations.extend(scan.violations)

    if _rebuild_pieces(cone) != section.pieces:
        violations.append("pieces differ from the sector-by-sector rebuild")
    try:
        topology = section_topology(section.pieces)
    except ValueError:
        topology = "no conic"
    if topology != section.klass:
        violations.append(f"piece topology {topology} disagrees with class {section.klass}")

    return {
        "cone": cone_to_json(cone),
        "class": section.klass,
        "vertices_checked": len(finite_vertices),
        "piece_points_checked": sampled,
        "vertices_bisected": bisected,
        "grid": scan.to_json(),
        "violations": violations,
        "passed": not violations,
    }


def _vertex_parameter(cone: ConeSpec, v) -> Rat:
    """Parameter t of a finite vertex at q + t r_i on its reference line."""
    q, r = _ref_param(cone.line, v.ref_index)
    p = v.location.point
    return ((p.x1 - q.x1) * r[0] + (p.x2 - q.x2) * r[1]) / (r[0] * r[0] + r[1] * r[1])
