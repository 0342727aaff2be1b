"""Exact verification of the constructed sections.

The checks deliberately avoid the construction's closed forms.  Every
residual d(x, ell) - kappa d(x, P) is read from the cone's one integer form,
cone.residual_form (built from the distances, never from sections).
line_restriction restricts it to a line and owns the one argument the
checks rest on: along a line the residual is linear between its
breakpoints, the zeros of the term forms and of the plane form.  line_zeros
reads its roots and zero intervals off them.  So the points b + t r_i at the
exact roots t on each active reference line must be its finite vertices,
which puts every vertex on its line and on the cone in one check; each
piece lies on the cone by the residual at its ends and its breakpoints
(check_piece); and the pieces are rebuilt as the zero intervals on the
lines where a distance term equals |G|.  The grid scan reads each row of a
rational grid at its ends and around the same zeros, and its exact zeros
must lie on the pieces.  The topology of the pieces must match the class.
No check uses floating point or random numbers; only the grid report
prints its largest residual off the section as a float.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import groupby, product
from typing import Callable, Optional

from ._rat import Rat, as_integers, rat, rat_str
from .atlas import MAX_GRID, grid_axes
from .cones import ConeSpec, active_indices, cone_to_json, reference_directions
from .geometry import (
    Piece,
    Point2,
    Ray,
    Segment,
    padded_box,
    piece_contains,
    piece_point_at,
    piece_sort_key,
)
from .sections import ConicSection, build_section, finite_points, section_topology


@dataclass(frozen=True)
class OracleConfig:
    grid_n: int = 201

    def __post_init__(self):
        if self.grid_n % 2 == 0 or not 3 <= self.grid_n <= MAX_GRID:
            raise ValueError(
                f"verify --grid must be odd and between 3 and {MAX_GRID}, got {self.grid_n}"
            )


DEFAULT_CONFIG = OracleConfig()


def line_restriction(form, q: Point2, r) -> tuple[list[Rat], Callable[[Rat], int]]:
    """The residual form restricted to the line q + t r: its sorted
    breakpoints, and its exact num at t.

    At x = (Q + t R)/e in integers, each term form T and the plane form G is
    an integer line c + s t in t, and num = min_k S_k - |G|, S_k = |T_k1| +
    |T_k2| (metric.build_residual_form), is linear between consecutive zeros
    of the T and of G, its breakpoints.  With one pair that is plain.  With
    three, S_k is, up to one factor, the convex map t -> sum_j |n_j| |X_j/n_j
    - t| at t_k = X_k/n_k; as no |n_j| outweighs the other two, the least is
    at the median t_k, whose index changes where two t_j, t_k cross: where
    T_jk = 0.  T_jk and T_kj share their zero line, so a line has at most
    four breakpoints.
    """
    (q1, q2, r1, r2), e = as_integers((q.x1, q.x2, *r))

    def along(c1, c2, c3):
        return c1 * q1 + c2 * q2 + c3 * e, c1 * r1 + c2 * r2

    lines = [along(*t) for pair in form.terms for t in pair] + [along(*form.plane)]

    def num(t: Rat) -> int:
        return form.num(q1 * t.denominator + t.numerator * r1, q2 * t.denominator + t.numerator * r2,
                        e * t.denominator)

    return [t for t, _ in groupby(sorted(Rat(-c, s) for c, s in lines if s))], num


def line_zeros(breaks: list[Rat], num: Callable[[Rat], int]) -> tuple[list[Rat], list[tuple]]:
    """The sorted isolated roots and the zero intervals (lo, hi) of a
    restriction (line_restriction), None standing for an infinite end.

    f(t) = num(t)/t.denominator is linear on each stretch between consecutive
    breakpoints and on the two end stretches beyond them, so it is read at
    each breakpoint and one step past each end (at 0 and 1 with none).  A
    stretch zero at both its probes is a zero interval.  Else f has a root
    inside a stretch where it changes sign, and inside an end stretch,
    extended to infinity, also where it heads for 0 outward; the two probes
    of an end stretch share a denominator, so num decides that in integers.
    """
    probes = [breaks[0] - 1, *breaks, breaks[-1] + 1] if breaks else [Rat(0), Rat(1)]
    nums = [num(t) for t in probes]
    roots = [t for t, m in zip(probes[1:-1], nums[1:-1]) if m == 0]
    intervals = []
    last = len(probes) - 2
    for i, (a, b, m, n) in enumerate(zip(probes, probes[1:], nums, nums[1:])):
        lo, hi = None if i == 0 else a, None if i == last else b
        if m == n == 0:
            intervals.append((lo, hi))
        elif m * n < 0 or (lo is None and (n - m) * n > 0) or (hi is None and (n - m) * m < 0):
            u, v = Rat(m, a.denominator), Rat(n, b.denominator)
            roots.append(a + u * (b - a) / (u - v))
    return sorted(roots), intervals


def reference_roots(cone: ConeSpec, ref_index: int) -> tuple[list[Rat], bool]:
    """Exact roots t of d(x, ell) - kappa d(x, P) at x = b + t r_i on rho^i
    (b = cone.line.base), and whether it is zero all along some interval
    (line_zeros).  A root is the t = e/den of the vertex at it
    (sections.vertex_slot)."""
    line = cone.line
    roots, intervals = line_zeros(*line_restriction(cone.residual_form, line.base,
                                                    reference_directions(line)[ref_index]))
    return roots, bool(intervals)


def check_piece(form, piece: Piece) -> tuple[int, list[Point2]]:
    """The number of probes on piece and the probes off the cone (num != 0).

    num is linear between the breakpoints of line_restriction, so the span
    q + t d, 0 <= t <= hi, of a piece (Piece.span) lies on the cone iff num
    is zero at t = 0, at each breakpoint between and at hi; for a ray, with
    no hi, at one point past the last breakpoint instead."""
    q, d, hi = piece.span
    breaks, num = line_restriction(form, q, d)
    inner = [t for t in breaks if 0 < t and (hi is None or t < hi)]
    probes = [Rat(0), *inner, (inner or [Rat(0)])[-1] + 1 if hi is None else hi]
    return len(probes), [piece_point_at(piece, t) for t in probes if num(t)]


def exact_residual(cone: ConeSpec, p: Point2) -> Rat:
    """d(x, ell) - kappa d(x, P) at the slicing-plane point p, exact.

    p is written as (X/D, Y/D) in integers and read by cone.residual_form;
    metric.dist_to_line and metric.dist_to_plane are the reference the tests
    compare it with.  No src/ code calls it; the perfbench oracle workload
    and the tests do.
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
# independent rebuild: the zero set of the residual form, line by line


def _rebuild_pieces(cone: ConeSpec) -> list[Piece]:
    """Pieces of the section, read off cone.residual_form line by line.

    On x3 = 1 the residual is min_k S_k - |G| with S_k = |T_k1| + |T_k2|, all
    T and G linear.  Where it is zero, S_k = |G| for the least k, so x lies
    on a line e1 T_k1 + e2 T_k2 - G = 0 with e1, e2 = +/-1.  The residual
    restricted to each such line (line_restriction) is zero on whole
    stretches between its breakpoints (line_zeros), and each is a segment or
    a ray: the pieces split where they cross a zero line of a T, as the
    construction splits them at its vertices.  No section holds a whole
    line, so a line that is zero end to end raises ValueError.
    """
    residual = cone.residual_form
    pieces: set[Piece] = set()  # a line met twice adds its pieces again
    for pair in residual.terms:
        for e1, e2 in product((1, -1), repeat=2):
            c1, c2, c0 = (e1 * u + e2 * v - g for u, v, g in zip(*pair, residual.plane))
            if not (c1 or c2):
                # no zero here: an identically zero form would force
                # A1 a1 + A2 a2 + delta = 0, which make_cone rejects
                continue
            q = Point2(Rat(0), Rat(-c0, c2)) if c2 else Point2(Rat(-c0, c1), Rat(0))

            def at(t: Rat) -> Point2:
                return Point2(q.x1 - t * c2, q.x2 + t * c1)

            for lo, hi in line_zeros(*line_restriction(residual, q, (-c2, c1)))[1]:
                if lo is not None and hi is not None:
                    pieces.add(Segment.of(at(lo), at(hi)))
                elif lo is not None:
                    pieces.add(Ray.of(at(lo), -c2, c1))
                elif hi is not None:
                    pieces.add(Ray.of(at(hi), c2, -c1))
                else:
                    raise ValueError(f"the residual is zero on the whole line {c1, c2, c0}")
    return sorted(pieces, key=piece_sort_key)


@dataclass
class ScanReport:
    points_checked: int
    zero_residual_points: int
    max_residual_off_section: float
    violations: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


def _row_columns(forms, n: int) -> list[int]:
    """The sorted columns a row is read at: 0, n - 1, and the floor of the zero
    -c/s of each form s k + c and the column after it, inside the row.  The
    residual is linear between those zeros, its breakpoints along the row
    (line_restriction gives the argument)."""
    cols = [0, n - 1]
    for s, c in forms:
        k = -c // s if s else -1
        if 0 <= k < n - 1:
            cols += (k, k + 1)
    return sorted(set(cols))


def grid_residual_scan(
    cone: ConeSpec,
    section: Optional[ConicSection] = None,
    bbox: Optional[tuple] = None,
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> ScanReport:
    """Exact residual on a rational grid; zero set must lie on the pieces.

    Grid point (X, Y) stands for x = (X/D, Y/D, 1) over one denominator D,
    with residual num(X, Y, D)/(den D) from cone.residual_form: num =
    min_k S_k - |G|, S_k = |T_k1| + |T_k2| (metric.build_residual_form).
    Along a row each T and G is an integer line s k + c in the column k, and
    num is linear between consecutive zeros of the T and of G, as along any
    line (line_restriction gives the argument).  So a row is read at its
    ends and around those zeros (_row_columns): its largest |num| is at one
    of them, an interior zero between two is one exact divmod, and between
    two zeros all columns are zeros.  Only zeros become points, checked in
    row order.
    """
    if section is None:
        section = build_section(cone)
    if bbox is None:
        bbox = section_bbox(section)
    n = cfg.grid_n
    xs, ys, big_d = grid_axes(bbox, n)

    def along(c1, c2, c3):  # c1 X + c2 Y + c3 D at X = xs[0] + k (xs[1] - xs[0])
        return c1 * (xs[1] - xs[0]), c2, c1 * xs[0] + c3 * big_d

    residual = cone.residual_form
    terms = [[along(*c) for c in pair] for pair in residual.terms]
    gs, gy, gd = along(*residual.plane)

    zeros = max_num = 0
    violations: list[str] = []
    for y in ys:
        pairs = [[(s, cy * y + c) for s, cy, c in pair] for pair in terms]
        gc = gy * y + gd
        cols = _row_columns([t for pair in pairs for t in pair] + [(gs, gc)], n)
        dists = [[abs(s1 * k + c1) + abs(s2 * k + c2) for k in cols] for (s1, c1), (s2, c2) in pairs]
        dist = dists[0] if len(dists) == 1 else map(min, *dists)
        nums = [d - abs(gs * k + gc) for d, k in zip(dist, cols)]
        max_num = max(max_num, max(nums), -min(nums))
        hits = []
        for a, b, u, v in zip(cols, cols[1:], nums, nums[1:]):
            if u == 0:  # a, and every column up to b if b is a zero too
                hits += range(a, b if v == 0 else a + 1)
            elif v and (u < 0) != (v < 0):
                k, r = divmod(u * (b - a), u - v)
                if not r:
                    hits.append(a + k)
        if nums[-1] == 0:
            hits.append(cols[-1])
        for k in hits:
            zeros += 1
            p = Point2(rat(xs[k], big_d), rat(y, big_d))
            if not any(piece_contains(piece, p) for piece in section.pieces):
                violations.append(f"zero residual off pieces at ({rat_str(p.x1)}, {rat_str(p.x2)})")
    return ScanReport(n * n, zeros, float(rat(max_num, residual.den * big_d)), violations)


def sample_piece_points(piece, count: int, rng) -> list[Point2]:
    """Random rational points on a piece (interior parameters).  No src/
    code calls it; it stays for the perfbench oracle workload and the tests."""
    hi = piece.span[2]
    out = []
    for _ in range(count):
        num = rng.randrange(1, 1000)
        t = rat(rng.randrange(1, 10000), 997) if hi is None else rat(num * hi, 1000)
        out.append(piece_point_at(piece, t))
    return out


def verify_cone(cone: ConeSpec, cfg: OracleConfig = DEFAULT_CONFIG) -> dict:
    """Full verification report for one cone.

    Checks each piece by check_piece (its probes, its ends and the
    breakpoints between, are "piece_points_checked"), the points b + t r_i
    at the exact roots t on each active reference line against its finite
    vertices as points (none missed, none extra, none off the line, no zero
    interval; so every vertex is on the cone, and "vertices_confirmed"
    counts the vertices so confirmed), the exact-zero coverage of a padded
    grid scan, the pieces against their rebuild line by line from the
    residual form and the piece topology against the class.  The report's
    "violations" list must be empty for a pass.
    """
    section = build_section(cone)
    violations: list[str] = []

    probes = 0
    for piece in section.pieces:
        count, off = check_piece(cone.residual_form, piece)
        probes += count
        violations += [f"piece point ({rat_str(p.x1)}, {rat_str(p.x2)}) has nonzero residual" for p in off]

    finite_vertices = [v for v in section.vertices if v.location.is_finite]
    active, confirmed = active_indices(cone.line), 0
    (b1, b2), directions = cone.line.base, reference_directions(cone.line)
    for i in active:
        roots, interval = reference_roots(cone, i)
        r1, r2 = directions[i]
        on_line = sorted(tuple(v.location.point) for v in finite_vertices if v.ref_index == i)
        if interval:
            violations.append(f"the residual is zero on an interval of rho^{i}")
        elif sorted((b1 + t * r1, b2 + t * r2) for t in roots) != on_line:
            violations.append(
                f"roots t = [{', '.join(map(rat_str, roots))}] on rho^{i} are not its finite vertices "
                f"at [{', '.join(f'({rat_str(x1)}, {rat_str(x2)})' for x1, x2 in on_line)}]"
            )
        else:
            confirmed += len(on_line)
    violations += [f"vertex {v.label} is on no active reference line" for v in finite_vertices
                   if v.ref_index not in active]

    scan = grid_residual_scan(cone, section, cfg=cfg)
    violations.extend(scan.violations)

    try:
        if _rebuild_pieces(cone) != section.pieces:
            violations.append("pieces differ from their rebuild from the residual form")
    except ValueError as err:
        violations.append(str(err))
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
        "piece_points_checked": probes,
        "vertices_confirmed": confirmed,
        "grid": scan.to_json(),
        "violations": violations,
        "passed": not violations,
    }
