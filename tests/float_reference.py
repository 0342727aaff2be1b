"""Float and partial-distance references for the exact distances in metric.

numeric_dist_to_line minimizes the convex map t -> sum |x_i - a_i t| by a
dense scan plus ternary refinement, and numeric_dist_to_plane by an
iterative grid zoom over the plane; both use plain Python floats, and
linspace reproduces numpy.linspace bit for bit.  partial_plane_dist and
partial_line_dist are the paper's partial distances: the least distance
when only the named coordinates may move.
"""

from __future__ import annotations

import math

from taxiconics import Rat, rat
from taxiconics.errors import ZeroVector
from taxiconics.metric import Point3, _line_f

# dense scan of t over [-T_RANGE, T_RANGE], then at most REFINE_ITERS
# ternary steps down to an interval of TOL / 16
T_RANGE = 100.0
T_STEPS = 10001
REFINE_ITERS = 200
TOL = 1e-9


def linspace(lo: float, hi: float, n: int) -> list[float]:
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

    ts = linspace(-T_RANGE, T_RANGE, T_STEPS)
    # f inlined, as the scan is most of the reference's time
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
        us = linspace(cu - half, cu + half, 41)
        vs = linspace(cv - half, cv + half, 41)
        grid = [(dist(u, v), u, v) for u in us for v in vs]
        best, cu, cv = min(grid)
        half *= 0.1
        if half < TOL / 16:
            break
    return best


def partial_plane_dist(x: Point3, a_triple, i: int):
    """d_i(x, P): move only coordinate i; +inf when the move cannot reach P."""
    a = tuple(rat(c) for c in a_triple)
    value = a[0] * x.x1 + a[1] * x.x2 + a[2] * x.x3
    if a[i - 1] == 0:
        return Rat(0) if value == 0 else math.inf
    return abs(value) / abs(a[i - 1])


def partial_line_dist(x: Point3, a_triple, pair):
    """d_{j,k}(x, ell): move only coordinates j and k.

    Returns +inf when the third coordinate pins the line parameter to an
    unreachable value (a_i = 0 with x_i != 0).
    """
    a = tuple(rat(c) for c in a_triple)
    xs = tuple(x)
    j, k = pair
    (i,) = set((1, 2, 3)) - {j, k}
    if a[i - 1] != 0:
        return _line_f(x, a, xs[i - 1] / a[i - 1])
    if xs[i - 1] != 0:
        return math.inf
    # line parameter free: two-term convex minimum at the heavier slope
    cands = [m for m in (j, k) if a[m - 1] != 0]
    if not cands:
        raise ZeroVector("line parameter must be nonzero")
    m = max(cands, key=lambda idx: abs(a[idx - 1]))
    return _line_f(x, a, xs[m - 1] / a[m - 1])
