"""Exact 2-D affine/projective primitives on the slicing plane.

Points, lines, segments and rays with rational coordinates.  Lines and
directions are canonicalized so that value equality is plain structural
equality, and points at infinity are explicit values rather than sentinel
coordinates.  Each piece is read through one parametrization, its span
q + t d for 0 <= t <= hi.  clip_interval is the one line clipper, in
integers; clip_line feeds it a line given by its equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator, Optional, Union

from ._rat import Rat, as_integers, rat, rat_str, sign
from .errors import CoincidentPoints, IdenticalLines


@dataclass(frozen=True)
class Point2:
    x1: Rat
    x2: Rat

    def __iter__(self) -> Iterator[Rat]:
        yield self.x1
        yield self.x2

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x1 - other.x1, self.x2 - other.x2)

    def scaled(self, s: Rat) -> "Point2":
        return Point2(self.x1 * s, self.x2 * s)

    def to_json(self) -> list[str]:
        return [rat_str(self.x1), rat_str(self.x2)]


def point2(x1, x2) -> Point2:
    return Point2(rat(x1), rat(x2))


def cross(u: Point2, v: Point2) -> Rat:
    return u.x1 * v.x2 - u.x2 * v.x1


def primitive_direction(dx, dy) -> Point2:
    """Scale a nonzero rational vector to coprime integers, keeping orientation."""
    (ax, ay), _ = as_integers((rat(dx), rat(dy)))
    if ax == 0 and ay == 0:
        raise ValueError("zero direction")
    g = gcd(ax, ay)
    return Point2(Rat(ax // g), Rat(ay // g))


def projective_direction(dx, dy) -> Point2:
    """Primitive direction with the first nonzero coordinate positive.

    Collapses d and -d, which name the same point at infinity.
    """
    d = primitive_direction(dx, dy)
    lead = d.x1 if d.x1 != 0 else d.x2
    if lead < 0:
        return Point2(-d.x1, -d.x2)
    return d


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of the slicing plane, finite or at infinity along a direction."""

    point: Optional[Point2]
    direction: Optional[Point2]

    @staticmethod
    def finite(p: Point2) -> "ExtendedPoint":
        return ExtendedPoint(p, None)

    @staticmethod
    def at_infinity(dx, dy) -> "ExtendedPoint":
        return ExtendedPoint(None, projective_direction(dx, dy))

    @property
    def is_finite(self) -> bool:
        return self.point is not None

    def to_json(self):
        if self.is_finite:
            return {"xy": self.point.to_json()}
        return {"at_infinity": True, "dir": self.direction.to_json()}


@dataclass(frozen=True)
class Line2:
    """Locus c1*x1 + c2*x2 + c0 = 0, canonicalized.

    Coefficients are coprime integers with the leading nonzero one of
    (c1, c2) positive, so equal lines compare equal.
    """

    c1: Rat
    c2: Rat
    c0: Rat

    @staticmethod
    def of(c1, c2, c0) -> "Line2":
        c1, c2, c0 = rat(c1), rat(c2), rat(c0)
        if c1 == 0 and c2 == 0:
            raise ValueError("degenerate line: (c1, c2) must be nonzero")
        ints, _ = as_integers((c1, c2, c0))
        g = gcd(*ints)
        ints = [v // g for v in ints]
        lead = ints[0] if ints[0] != 0 else ints[1]
        if lead < 0:
            ints = [-v for v in ints]
        return Line2(Rat(ints[0]), Rat(ints[1]), Rat(ints[2]))

    def value_at(self, p: Point2) -> Rat:
        return self.c1 * p.x1 + self.c2 * p.x2 + self.c0

    def direction(self) -> Point2:
        return primitive_direction(-self.c2, self.c1)

    def is_parallel_to(self, other: "Line2") -> bool:
        return self.c1 * other.c2 == self.c2 * other.c1

    def to_json(self) -> list[str]:
        return [rat_str(self.c1), rat_str(self.c2), rat_str(self.c0)]


def line_through(p: Point2, q: Point2) -> Line2:
    if p == q:
        raise CoincidentPoints(f"cannot span a line: {p} = {q}")
    c1 = q.x2 - p.x2
    c2 = p.x1 - q.x1
    c0 = -(c1 * p.x1 + c2 * p.x2)
    return Line2.of(c1, c2, c0)


def clip_interval(origin, direction, forms, lo=None, hi=None) -> Optional[tuple]:
    """Ends of the part of the line ((qx, qy) + s d)/q, origin = (qx, qy, q)
    with q > 0, where every form (h1, h2, h0) has h1 x + h2 y + h0 >= 0 and
    lo <= s <= hi (None: unbounded).  Every input is an integer.

    Each form gives the integer condition v0 + s v1 >= 0, and the bounds on s
    are kept as pairs (num, den > 0).  Returns the two ends in order of
    growing s, each a Point2, or None for an unbounded side; None when the
    part is empty or a single point.
    """
    qx, qy, q = origin
    d1, d2 = direction
    lo = None if lo is None else (lo, 1)
    hi = None if hi is None else (hi, 1)
    for h1, h2, h0 in forms:
        v0, v1 = h1 * qx + h2 * qy + h0 * q, h1 * d1 + h2 * d2
        if v1 > 0:
            if lo is None or -v0 * lo[1] > lo[0] * v1:
                lo = (-v0, v1)
        elif v1 < 0:
            if hi is None or v0 * hi[1] < hi[0] * -v1:
                hi = (v0, -v1)
        elif v0 < 0:
            return None
    if lo is not None and hi is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
        return None

    def at(bound) -> Optional[Point2]:
        if bound is None:
            return None
        n, m = bound
        return Point2(Rat(qx * m + n * d1, q * m), Rat(qy * m + n * d2, q * m))

    return at(lo), at(hi)


def clip_line(line, forms) -> Optional[tuple]:
    """clip_interval on the line c1 x + c2 y + c0 = 0, line = (c1, c2, c0)
    in integers: its ends along d = (-c2, c1) from the point (0, -c0/c2),
    or (-c0/c1, 0) on a vertical line."""
    c1, c2, c0 = line
    qx, qy, q = (0, -c0, c2) if c2 else (-c0, 0, c1)
    if q < 0:
        qx, qy, q = -qx, -qy, -q
    return clip_interval((qx, qy, q), (-c2, c1), forms)


def padded_box(points, pad) -> tuple[Rat, Rat, Rat, Rat]:
    """(xmin, ymin, xmax, ymax) of a nonempty point list, widened by pad."""
    pad = rat(pad)
    xs, ys = [p.x1 for p in points], [p.x2 for p in points]
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


def intersect_lines(g: Line2, h: Line2) -> ExtendedPoint:
    if g == h:
        raise IdenticalLines(f"lines coincide: {g}")
    det = g.c1 * h.c2 - g.c2 * h.c1
    if det == 0:
        return ExtendedPoint.at_infinity(-g.c2, g.c1)
    x1 = (g.c2 * h.c0 - g.c0 * h.c2) / det
    x2 = (g.c0 * h.c1 - g.c1 * h.c0) / det
    return ExtendedPoint.finite(Point2(x1, x2))


def side_of_line(g: Line2, p: Point2) -> int:
    """Exact sign of the line form at p: -1, 0 or +1."""
    return sign(g.value_at(p))


@dataclass(frozen=True)
class Segment:
    """Closed segment with distinct endpoints, stored lexicographically."""

    a: Point2
    b: Point2

    @staticmethod
    def of(p: Point2, q: Point2) -> "Segment":
        if p == q:
            raise ValueError("degenerate segment")
        if (q.x1, q.x2) < (p.x1, p.x2):
            p, q = q, p
        return Segment(p, q)

    @cached_property
    def span(self) -> tuple:
        """(q, d, hi): the segment is q + t d for 0 <= t <= hi; built once
        per segment and, not being a field, ignored by ==, hash and repr."""
        return self.a, self.b - self.a, 1

    @property
    def ends(self) -> tuple:  # the finite ends, in the span's order
        return self.a, self.b

    def to_json(self):
        return {"kind": "segment", "a": self.a.to_json(), "b": self.b.to_json()}


@dataclass(frozen=True)
class Ray:
    """Closed ray from base along a primitive direction (orientation kept)."""

    base: Point2
    direction: Point2

    @staticmethod
    def of(base: Point2, dx, dy) -> "Ray":
        return Ray(base, primitive_direction(dx, dy))

    @property
    def span(self) -> tuple:
        """(q, d, hi): the ray is q + t d for t >= 0; hi = None."""
        return self.base, self.direction, None

    @property
    def ends(self) -> tuple:  # the one finite end
        return (self.base,)

    def to_json(self):
        return {"kind": "ray", "base": self.base.to_json(), "dir": self.direction.to_json()}


Piece = Union[Segment, Ray]


def piece_sort_key(piece: Piece):
    if isinstance(piece, Segment):
        return (0, piece.a.x1, piece.a.x2, piece.b.x1, piece.b.x2)
    return (1, piece.base.x1, piece.base.x2, piece.direction.x1, piece.direction.x2)


def piece_contains(piece: Piece, p: Point2) -> bool:
    """Exact membership of p in a segment or ray (Piece.span)."""
    q, d, hi = piece.span
    r = p - q
    if cross(d, r) != 0:
        return False
    t = r.x1 * d.x1 + r.x2 * d.x2  # the parameter of p times |d|^2 > 0
    return t >= 0 and (hi is None or t <= hi * (d.x1 * d.x1 + d.x2 * d.x2))


def piece_point_at(piece: Piece, t: Rat) -> Point2:
    """Point q + t d of a piece's span: segments over [0, 1], rays over [0, inf)."""
    q, d, _ = piece.span
    return Point2(q.x1 + t * d.x1, q.x2 + t * d.x2)

