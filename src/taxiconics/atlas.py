"""Parameter-space sweeps: classification rasters over line parameters and
over the perpendicular-case parameters.

Both sweeps are exact integer kernels.  Each grid axis is written once as
integers over one common denominator.  After clearing denominators, the
characterizing-strip tests of `sections.classify` (the four unit-diamond
corners and a against |A1 x1 + A2 x2| < M/kappa) and the U_kappa tests of
`special.u_kappa_position` are compares of Python ints, which cannot
overflow.  Per-cell `classify` stays the reference the tests compare with.
"""

from __future__ import annotations

from ._rat import as_integers, rat, rat_str
from .cones import PlaneParams
from .errors import NonPositiveKappa
from .sections import ELLIPSE, HYPERBOLA, PARABOLA

DEFAULT_BBOX = ("-2", "-2", "2", "2")
# Upper bound on the grid size of atlas, ukappa and verify, enforced by
# grid_axes: the cost grows with its square, and at 1001 one run already
# evaluates a million grid points.
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
    kappa = rat(kappa)
    if kappa <= 0:
        raise NonPositiveKappa(f"kappa must be positive, got {rat_str(kappa)}")
    return int(kappa.numerator), int(kappa.denominator)


def atlas_sweep(plane: PlaneParams, kappa, n: int, bbox=DEFAULT_BBOX) -> list[str]:
    """n x n raster of section classes over line parameters (a1, a2, 1).

    Rows run bottom-up (row 0 at the smallest a2), cells left to right.
    A cell is "D" where the line lies in the plane.
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
    edge = hn * big_l
    degenerate = -plane.delta * hd * big_l
    sxs = [p1 * q2 * hd * x for x in xs]
    cy = p2 * q1 * hd
    rows = []
    for y in ys:
        sy = cy * y
        rows.append("".join([
            "D" if s == degenerate else _LETTER[1 + max(corners, _side(abs(s), edge))]
            for s in [sx + sy for sx in sxs]
        ]))
    return rows


def _u_kappa_side(r: int, m: int, d: int, kp: int, kq: int) -> int:
    """Side of U_kappa (-1 inside, 0 on the boundary, 1 outside) of the point
    (X, Y)/d with r = X^2 + Y^2 and m = max(|X|, |Y|), for kappa = kp/kq.

    kappa >= 1: the open square max(|x|, |y|) < 1/kappa cut by the disk
    x^2 + y^2 < 1/kappa.  kappa < 1: the union of that disk and the four
    petal disks of radius 1/(2 kappa) centred at distance 1/(2 kappa) on the
    axes; the petals together are x^2 + y^2 < max(|x|, |y|)/kappa.
    """
    disk = _side(r * kp, d * d * kq)
    if kp >= kq:
        return max(_side(m * kp, d * kq), disk)
    return min(disk, _side(r * kp, m * kq * d))


def ukappa_sweep(kappa, n: int, bbox=DEFAULT_BBOX):
    """Raster of perpendicular-cone classes over A = a = (x, y, 1), plus any
    disagreements with the U_kappa membership prediction (must be none).

    With x = X/d and y = Y/d the plane is (X, Y, d)/d with M = max(m, d)/d,
    m = max(|X|, |Y|); the corners are at strip value m/d and a at r/d^2,
    r = X^2 + Y^2.
    """
    kp, kq = _kappa_terms(kappa)
    xs, ys, d = grid_axes(bbox, n)
    cols = [(x, abs(x), x * x) for x in xs]
    rows = []
    inconsistencies = []
    for y in ys:
        ay, yy = abs(y), y * y
        row = []
        for x, ax, xx in cols:
            m = ax if ax > ay else ay
            r = xx + yy
            edge = (m if m > d else d) * kq
            actual = max(_side(m * kp, edge), _side(r * kp, edge * d))
            row.append(_LETTER[1 + actual])
            position = _u_kappa_side(r, m, d, kp, kq)
            if position != actual:
                inconsistencies.append({
                    "A": [rat_str(rat(x, d)), rat_str(rat(y, d))],
                    "expected": _CLASS[1 + position],
                    "actual": _CLASS[1 + actual],
                })
        rows.append("".join(row))
    return rows, inconsistencies
