"""The literal U_kappa membership: a square, a disk and four petal disks.

This is the paper's description of the region, decided on Fractions point
by point.  The library decides it with one integer rule,
atlas.u_kappa_side, which special.u_kappa_position and ukappa_sweep both
read; the tests compare that rule with this reference.  All disk tests
compare squared radii, so rational points are decided exactly; the radius
1/sqrt(kappa) only enters as the squared value 1/kappa.
"""

from __future__ import annotations

from taxiconics import rat
from taxiconics.cones import BOUNDARY, INSIDE, OUTSIDE, positive_kappa
from taxiconics.geometry import Point2

# The paper's prediction for the perpendicular cone with A = a = (p, 1).
PREDICTED_CLASS = {INSIDE: "ellipse", BOUNDARY: "parabola", OUTSIDE: "hyperbola"}


def reference_position(kappa, p: Point2) -> str:
    """INSIDE, BOUNDARY or OUTSIDE of U_kappa for the point p."""
    kappa = positive_kappa(kappa)
    x, y = p.x1, p.x2
    rr = x * x + y * y
    if kappa >= 1:
        # open square of half-width 1/kappa cut by the disk of radius 1/sqrt(kappa)
        k1 = 1 / kappa
        in_sq = max(abs(x), abs(y)) < k1
        on_sq = max(abs(x), abs(y)) == k1
        in_disk = rr < k1
        on_disk = rr == k1
        if in_sq and in_disk:
            return INSIDE
        if (in_sq or on_sq) and (in_disk or on_disk):
            return BOUNDARY
        return OUTSIDE
    # kappa < 1: union of four petal disks and the central disk
    r = 1 / (2 * kappa)
    rr_petal = r * r
    rr_center = 1 / kappa
    centers = ((r, rat(0)), (-r, rat(0)), (rat(0), r), (rat(0), -r))
    inside = rr < rr_center
    closure = rr <= rr_center
    for cx, cy in centers:
        dd = (x - cx) ** 2 + (y - cy) ** 2
        inside = inside or dd < rr_petal
        closure = closure or dd <= rr_petal
    if inside:
        return INSIDE
    if closure:
        return BOUNDARY
    return OUTSIDE
