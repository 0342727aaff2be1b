"""Taxicab distances in R^3: point-point, point-plane, point-line.

Distance to a plane is |A.x| / max_i |A_i|.  Distance to a line ell_a is the
minimum of the convex map t -> sum_i |x_i - a_i t|, attained at t = x_i/a_i
for an index i selected by dominance of the parameter components, or by
wedge membership (middle value of the x_i/a_i) when no component dominates.
Over one common denominator a cone's residual d(x, ell) - kappa d(x, P) is
then a closed form in integers, its ResidualForm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from ._rat import Rat, as_integers, rat
from .errors import ZeroComponent, ZeroVector

if TYPE_CHECKING:  # only for annotations; cones.py imports this module
    from .cones import LineParams, PlaneParams

DOMINANT = "dominant"
TRANSITIONAL = "transitionally_dominant"
NONE = "none"

# Tie-break for the rare parameter vectors where two components transitionally
# dominate at once (possible only when the third component is zero, e.g.
# (1,0,1) or (1,1,0)).  Preferring index 3 keeps transitionally-steep lines on
# the d_{1,2} partial distance, consistent with steep-line similarity;
# preferring 1 over 2 matches the |a1| >= |a2| convention for horizontal lines.
_TIE_ORDER = (3, 1, 2)


@dataclass(frozen=True)
class Point3:
    x1: Rat
    x2: Rat
    x3: Rat

    def __iter__(self) -> Iterator[Rat]:
        yield self.x1
        yield self.x2
        yield self.x3


def point3(x1, x2, x3) -> Point3:
    return Point3(rat(x1), rat(x2), rat(x3))


@dataclass(frozen=True)
class DominanceClass:
    kind: str  # DOMINANT, TRANSITIONAL or NONE
    index: Optional[int]  # 1-based; None iff kind == NONE

    @property
    def is_dominant(self) -> bool:
        return self.kind == DOMINANT

    @property
    def is_transitional(self) -> bool:
        return self.kind == TRANSITIONAL


def dominance_class(v) -> DominanceClass:
    """Classify which component of a nonzero triple (transitionally) dominates."""
    v = tuple(rat(c) for c in v)
    if all(c == 0 for c in v):
        raise ZeroVector("dominance is undefined for the zero vector")
    mags = [abs(c) for c in v]
    total = sum(mags)
    transitional = []
    for i in _TIE_ORDER:
        rest = total - mags[i - 1]
        if mags[i - 1] > rest:
            return DominanceClass(DOMINANT, i)
        if mags[i - 1] == rest:
            transitional.append(i)
    if transitional:
        return DominanceClass(TRANSITIONAL, transitional[0])
    return DominanceClass(NONE, None)


def taxicab_dist(x: Point3, y: Point3) -> Rat:
    return abs(x.x1 - y.x1) + abs(x.x2 - y.x2) + abs(x.x3 - y.x3)


def dist_to_plane(x: Point3, plane: "PlaneParams") -> Rat:
    """Taxicab distance from x to the plane P_A, exact."""
    return abs(plane.A1 * x.x1 + plane.A2 * x.x2 + plane.delta * x.x3) / plane.M


def _line_f(x: Point3, a, t: Rat) -> Rat:
    return abs(x.x1 - a[0] * t) + abs(x.x2 - a[1] * t) + abs(x.x3 - a[2] * t)


def dist_to_line(x: Point3, line: "LineParams") -> Rat:
    """Taxicab distance from x to the line ell_a, exact."""
    a = (line.a1, line.a2, rat(line.a3))
    dom = line.dominance
    xs = tuple(x)
    if dom.index is not None:
        i = dom.index
        return _line_f(x, a, xs[i - 1] / a[i - 1])
    # no dominance: all components nonzero, minimize at the middle value
    values = sorted(xs[i] / a[i] for i in range(3))
    return _line_f(x, a, values[1])


@dataclass(frozen=True)
class ResidualForm:
    """d(x, ell) - kappa d(x, P) over one common denominator, in integers.

    A point x = (X/D, Y/D, 1) of the slicing plane has the residual
    num(X, Y, D) / (den D) with D > 0; see build_residual_form.
    """

    terms: tuple  # per breakpoint k, the two integer forms of Pm kq (L/|n_k|) S_k
    plane: tuple  # the integer form kp L P
    den: int  # L Pm kq

    def num(self, x: int, y: int, d: int) -> int:
        dist = min(
            abs(c1 * x + c2 * y + c3 * d) + abs(e1 * x + e2 * y + e3 * d)
            for (c1, c2, c3), (e1, e2, e3) in self.terms
        )
        g1, g2, g3 = self.plane
        return dist - abs(g1 * x + g2 * y + g3 * d)


def build_residual_form(plane: "PlaneParams", line: "LineParams", kappa: Rat) -> ResidualForm:
    """The cone's residual d(x, ell) - kappa d(x, P) as a ResidualForm.

    With the line a = n/q and the plane A = P/Q in integers, Pm = max |P_i|
    and kappa = kp/kq, at x = (X/D, Y/D, 1):

    * d(x, ell) is the least of S_k/(|n_k| D) over the breakpoints k of the
      convex map t -> sum |x_j - a_j t|, S_k = sum_{j != k} |n_k X_j - n_j X_k|.
      That is k = i alone when component i (transitionally) dominates.
    * d(x, P) = |P . (X, Y, D)|/(Pm D).

    Over L = lcm |n_k| the residual is num/(L D Pm kq) with
    num = min_k Pm kq (L/|n_k|) S_k - kp L |P . (X, Y, D)|.
    """
    n, _ = as_integers(line.triple())
    p, _ = as_integers(plane.triple())
    kp, kq = kappa.numerator, kappa.denominator
    pm = max(map(abs, p))
    dom = line.dominance.index
    breaks = [dom - 1] if dom else [0, 1, 2]
    big_l = math.lcm(*(abs(n[k]) for k in breaks))
    terms = []
    for k in breaks:
        # the two terms n_k X_j - n_j X_k of S_k, scaled by Pm kq L/|n_k|
        scale = pm * kq * (big_l // abs(n[k]))
        pair = []
        for j in range(3):
            if j != k:
                coefs = [0, 0, 0]
                coefs[j], coefs[k] = scale * n[k], -scale * n[j]
                pair.append(tuple(coefs))
        terms.append(tuple(pair))
    return ResidualForm(tuple(terms), tuple(kp * big_l * c for c in p), big_l * pm * kq)


def wedge_index(x: Point3, line: "LineParams") -> set[int]:
    """Indices i with x in the double-wedge W^i.

    Defined only when all three line components are nonzero; two indices on a
    boundary plane P^i, all three on the line itself.
    """
    a = (line.a1, line.a2, rat(line.a3))
    if any(c == 0 for c in a):
        raise ZeroComponent("wedges are undefined for coordinate lines")
    xs = tuple(x)
    values = [xs[i] / a[i] for i in range(3)]
    # a duplicated value is always the middle of the sorted triple
    middle = sorted(values)[1]
    return {i + 1 for i, v in enumerate(values) if v == middle}
