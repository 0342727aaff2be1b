"""Parameter-space sweeps: classification rasters over line parameters and
over the perpendicular-case parameters.

Both sweeps are exact integer kernels that build each raster row from its
runs of equal letters.  Each grid axis is written once as integers over one
common denominator.  After clearing denominators, the characterizing-strip
tests of `sections.classify` (the four unit-diamond corners and a against
|A1 x1 + A2 x2| < M/kappa) and `u_kappa_side`, the one U_kappa rule (which
`special.u_kappa_position` also reads), are compares of Python ints, which
cannot overflow.  Along one row a class changes only where the row crosses
a line or circle bounding a region, so a row costs a handful of compares,
not one per cell: `atlas_sweep` finds its few run ends by floor division and
`ukappa_sweep` by bisection on half-rows, along which every compare is
monotone.  The per-cell integer kernels and per-cell `classify` stay in the
tests as the references the row kernels are compared with, and the literal
square-disk-petal membership in tests/ukappa_reference.py is the reference
for `u_kappa_side`.
"""

from __future__ import annotations

from bisect import bisect_left

from ._rat import as_integers, rat, rat_str
from .cones import PlaneParams, positive_kappa
from .sections import ELLIPSE, HYPERBOLA, PARABOLA

DEFAULT_BBOX = ("-2", "-2", "2", "2")
# Upper bound on the grid size of atlas, ukappa and verify, enforced by
# grid_axes.  The sweeps cost a few compares per row, but their JSON and SVG
# still grow with the square of the grid, as does the verify scan: at 1001
# one raster is a million cells and about 104 MB of SVG.
MAX_GRID = 1001

# Indexed by 1 + side, where side is -1, 0 or 1 for inside, on or outside.
_LETTER = "EPH"
_CLASS = (ELLIPSE, PARABOLA, HYPERBOLA)


def _side(lhs: int, rhs: int) -> int:
    """-1, 0 or 1 as lhs is below, equal to or above rhs."""
    return (lhs > rhs) - (lhs < rhs)


def grid_axes(bbox, n: int) -> tuple[list[int], list[int], int]:
    """The n x n grid over bbox = (x0, y0, x1, y1) as integers over one
    common denominator d: column k is at x = xs[k]/d and row k at y = ys[k]/d."""
    if not 2 <= n <= MAX_GRID:
        raise ValueError(f"a grid needs at least 2 points per axis and at most {MAX_GRID}, got {n}")
    x0, y0, x1, y1 = box = [rat(c) for c in bbox]
    if x0 >= x1 or y0 >= y1:
        raise ValueError(f"bbox {','.join(map(rat_str, box))} must have x0 < x1 and y0 < y1")
    (sx, dx, sy, dy), d = as_integers([x0, (x1 - x0) / (n - 1), y0, (y1 - y0) / (n - 1)])
    return [sx + k * dx for k in range(n)], [sy + k * dy for k in range(n)], d


def _kappa_terms(kappa) -> tuple[int, int]:
    """Numerator and denominator of kappa, which must be positive."""
    kappa = positive_kappa(kappa)
    return int(kappa.numerator), int(kappa.denominator)


def _below(s0: int, step: int, n: int, t: int) -> int:
    """How many of the n values s0 + k step (k = 0, 1, ..., step >= 0) lie
    below t; they are the first ones."""
    if step == 0:
        return n if s0 < t else 0
    return min(max(-((s0 - t) // step), 0), n)


def atlas_sweep(plane: PlaneParams, kappa, n: int, bbox=DEFAULT_BBOX) -> list[str]:
    """n x n raster of section classes over line parameters (a1, a2, 1).

    Rows run bottom-up (row 0 at the smallest a2), cells left to right.
    A cell is "D" where the line lies in the plane.

    Along a row the strip value s is linear in the column, so a row is five
    runs, by where s lies against the strip edges (below -edge, at -edge,
    inside, at edge, above edge), with "D" where s hits the degenerate
    value: at most one column unless s is constant.  `_below` gives each run
    end by one floor division.
    """
    kp, kq = _kappa_terms(kappa)
    xs, ys, d = grid_axes(bbox, n)
    p1, q1 = int(plane.A1.numerator), int(plane.A1.denominator)
    p2, q2 = int(plane.A2.numerator), int(plane.A2.denominator)
    # M/kappa = hn/hd.  Per cell s = hd L (A1 x + A2 y) with L = q1 q2 d,
    # so a is inside the strip iff |s| < hn L, and the line lies in the plane
    # iff s = -delta hd L.
    hn, hd = int(plane.M.numerator) * kq, int(plane.M.denominator) * kp
    big_l = q1 * q2 * d
    # The corner probes do not depend on the cell.
    corners = max(_side(abs(p1) * hd, hn * q1), _side(abs(p2) * hd, hn * q2))
    edge = hn * big_l  # at least 1, so the run ends below come in order
    degenerate = -plane.delta * hd * big_l
    zones = [_LETTER[1 + max(corners, side)] for side in (1, 0, -1, 0, 1)]
    cx, cy = p1 * q2 * hd, p2 * q1 * hd
    step = cx * (xs[1] - xs[0])
    rows = []
    for y in ys:
        s0 = cx * xs[0] + cy * y
        if step < 0:  # build the row in the order of growing s, then mirror it
            s0 += (n - 1) * step
        ends = [0, *(_below(s0, abs(step), n, t) for t in (-edge, 1 - edge, edge, 1 + edge)), n]
        row = "".join([letter * (hi - lo) for letter, lo, hi in zip(zones, ends, ends[1:])])
        lo, hi = _below(s0, abs(step), n, degenerate), _below(s0, abs(step), n, degenerate + 1)
        row = row[:lo] + "D" * (hi - lo) + row[hi:]
        rows.append(row[::-1] if step < 0 else row)
    return rows


def u_kappa_side(r: int, m: int, d: int, kp: int, kq: int) -> int:
    """Side of U_kappa (-1 inside, 0 on the boundary, 1 outside) of the point
    (X, Y)/d with r = X^2 + Y^2 and m = max(|X|, |Y|), for kappa = kp/kq:
    the one U_kappa rule, for ukappa_sweep and special.u_kappa_position.

    kappa >= 1: the open square max(|x|, |y|) < 1/kappa cut by the disk
    x^2 + y^2 < 1/kappa.  kappa < 1: the union of that disk and the four
    petal disks of radius 1/(2 kappa) centred at distance 1/(2 kappa) on the
    axes; the petals together are x^2 + y^2 < max(|x|, |y|)/kappa.
    """
    disk = _side(r * kp, d * d * kq)
    if kp >= kq:
        return max(_side(m * kp, d * kq), disk)
    return min(disk, _side(r * kp, m * kq * d))


def _bisect_runs(cell, lo: int, v_lo, hi: int, v_hi, starts: list):
    """Append (k, cell(k)) to starts for each column k in (lo, hi] where cell
    changes, given v_lo = cell(lo) and v_hi = cell(hi).  Each component of
    cell is monotone on [lo, hi], so equal values at the ends mean cell is
    constant in between."""
    if v_lo == v_hi:
        return
    if hi - lo == 1:
        starts.append((hi, v_hi))
        return
    mid = (lo + hi) // 2
    v_mid = cell(mid)
    _bisect_runs(cell, lo, v_lo, mid, v_mid, starts)
    _bisect_runs(cell, mid, v_mid, hi, v_hi, starts)


def ukappa_sweep(kappa, n: int, bbox=DEFAULT_BBOX):
    """Raster of perpendicular-cone classes over A = a = (x, y, 1), plus any
    disagreements with the U_kappa membership prediction (must be none).

    With x = X/d and y = Y/d the plane is (X, Y, d)/d with M = max(m, d)/d,
    m = max(|X|, |Y|); the corners are at strip value m/d and a at r/d^2,
    r = X^2 + Y^2.  The cell's class is
    actual = max(side(m kp, M kq), side(r kp, M kq d)).

    The prediction is the U_kappa rule `u_kappa_side`.  A row is built from
    runs.  On each side of X = 0 the class and the prediction are both
    nondecreasing in t = |X|, so a stretch of a half-row whose two ends give
    the same pair is one run, and `_bisect_runs` finds where the runs end.
    With a = |Y| fixed, each compare is the sign of a function continuous in
    t, and none falls:
    - t <= a: m = a and M = max(a, d) are fixed, and r grows;
    - a < t <= d: m = t and M = d, and every compare grows with t;
    - t > max(a, d): m = M = t, so side(m kp, M kq) = side(kp, kq) is fixed,
      and the r compare is the sign of q(t) = kp t^2 - kq d t + kp a^2.  If q
      has real roots, the smaller is v - sqrt(v^2 - a^2) <= a, where
      v = kq d / (2 kp), so for t > a the sign of q only rises.
    The prediction is a max of such compares for kappa >= 1.  For kappa < 1
    it is min(disk, petal): the disk grows with r, and the petal compare is
    side(r kp, a kq d) for t <= a and the sign of q for t > a.  The petal
    falls only after t = 0 on the row Y = 0, where at t = 0 the disk, and so
    the min, is -1.
    A cell reads y only through |y| and y^2, so the rows at y and -y have the
    same runs, which are found once.  Every cell of a run where the two
    disagree is one inconsistency record, in row-major order.
    """
    kp, kq = _kappa_terms(kappa)
    xs, ys, d = grid_axes(bbox, n)
    zero = bisect_left(xs, 0)
    halves = [(lo, hi) for lo, hi in ((0, zero), (zero, n)) if lo < hi]
    rows = []
    inconsistencies = []
    runs_at = {}  # |y| -> the run starts of the rows at y and -y
    for y in ys:
        ay, yy = abs(y), y * y

        def cell(k):
            x = xs[k]
            ax = abs(x)
            m = ax if ax > ay else ay
            r = x * x + yy
            edge = (m if m > d else d) * kq
            actual = max(_side(m * kp, edge), _side(r * kp, edge * d))
            return actual, u_kappa_side(r, m, d, kp, kq)

        starts = runs_at.setdefault(ay, [])
        if not starts:
            for lo, hi in halves:
                v_lo = cell(lo)
                starts.append((lo, v_lo))
                _bisect_runs(cell, lo, v_lo, hi - 1, cell(hi - 1), starts)
        row = []
        for (lo, (actual, position)), (hi, _) in zip(starts, starts[1:] + [(n, None)]):
            row.append(_LETTER[1 + actual] * (hi - lo))
            if position != actual:
                inconsistencies += [{
                    "A": [rat_str(rat(xs[k], d)), rat_str(rat(y, d))],
                    "expected": _CLASS[1 + position],
                    "actual": _CLASS[1 + actual],
                } for k in range(lo, hi)]
        rows.append("".join(row))
    return rows, inconsistencies
