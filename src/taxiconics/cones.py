"""Cone parameters: normalized plane/line coordinates, traces and strips.

Planes live in the parameter space {A3 = 1} union {A3 = 0}; lines in
{a3 = 1} union {a3 = 0}.  Normalization divides by the third component when
it is nonzero and otherwise canonicalizes the remaining pair up to positive
scale and sign, collapsing the double cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from ._rat import Rat, as_integers, rat, rat_str, rats
from .errors import DegenerateCone, NonPositiveKappa, ZeroVector
from .geometry import Line2, Point2, projective_direction
from .metric import DominanceClass, ResidualForm, build_residual_form, dominance_class

# plane steepness
SHALLOW = "shallow"
TRANSITIONAL = "transitional"
STEEP = "steep"
VERTICAL = "vertical"
HORIZONTAL = "horizontal"

# line classes
INTERMEDIATE = "intermediate"

# strip trichotomy
INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


@dataclass(frozen=True)
class PlaneParams:
    """Defining plane A1*y1 + A2*y2 + delta*y3 = 0 with delta in {0, 1}."""

    A1: Rat
    A2: Rat
    delta: int
    M: Rat  # max(|A1|, |A2|, delta)
    steepness: str

    def triple(self):
        return (self.A1, self.A2, rat(self.delta))

    @property
    def is_horizontal(self) -> bool:
        return self.steepness == HORIZONTAL

    def to_json(self):
        return [rat_str(self.A1), rat_str(self.A2), str(self.delta)]


@dataclass(frozen=True)
class LineParams:
    """Defining line {t * (a1, a2, a3)} with a3 in {0, 1}."""

    a1: Rat
    a2: Rat
    a3: int
    dominance: DominanceClass
    klass: str

    def triple(self):
        return (self.a1, self.a2, rat(self.a3))

    @property
    def is_horizontal(self) -> bool:
        return self.a3 == 0

    @property
    def point(self) -> Point2:
        """ell intersects the slicing plane at (a1, a2); only if non-horizontal."""
        if self.is_horizontal:
            raise ValueError("a horizontal line does not meet the slicing plane")
        return Point2(self.a1, self.a2)

    @property
    def base(self) -> Point2:
        """Base point b of the reference lines rho^i = b + t r_i: a, or the
        origin for a horizontal line (see reference_directions)."""
        return Point2(rat(0), rat(0)) if self.is_horizontal else Point2(self.a1, self.a2)

    def to_json(self):
        return [rat_str(self.a1), rat_str(self.a2), str(self.a3)]


class IntegerFrame(NamedTuple):
    """A cone's construction data over common denominators, all integers:
    a = (n1, n2)/q (for a horizontal line its direction, q = 1),
    (A1, A2, delta) = (P1, P2, P0)/Q with Q > 0, M/kappa = hn/hd with hd > 0,
    and the scaled incidence E = P1 n1 + P2 n2 + P0 q a3 = Q q e."""

    n1: int
    n2: int
    q: int
    P1: int
    P2: int
    P0: int
    Q: int
    hn: int
    hd: int
    E: int


@dataclass(frozen=True)
class ConeSpec:
    """A valid cone.  residual_form (the verifier's) and frame (the
    construction's) are integer forms built once per cone on first use; they
    are not fields, so ==, hash, repr and cone_to_json ignore them."""

    plane: PlaneParams
    line: LineParams
    kappa: Rat

    @property
    def incidence(self) -> Rat:
        """A1*a1 + A2*a2 + delta*a3; zero exactly for degenerate cones."""
        p, l = self.plane, self.line
        return p.A1 * l.a1 + p.A2 * l.a2 + p.delta * l.a3

    @cached_property
    def residual_form(self) -> ResidualForm:
        """The integer residual form of the verifier."""
        return build_residual_form(self.plane, self.line, self.kappa)

    @cached_property
    def frame(self) -> IntegerFrame:
        """The integer frame of the construction (sections.vertex_slot)."""
        plane, line, kappa = self.plane, self.line, self.kappa
        (n1, n2), q = as_integers((line.a1, line.a2))
        (P1, P2, P0), Q = as_integers((plane.A1, plane.A2, plane.delta))
        hn, hd = max(abs(P1), abs(P2), P0) * kappa.denominator, Q * kappa.numerator
        return IntegerFrame(n1, n2, q, P1, P2, P0, Q, hn, hd, P1 * n1 + P2 * n2 + P0 * q * line.a3)


@dataclass(frozen=True)
class CharStrip:
    """Characterizing strip {x : |A1*x1 + A2*x2| < half_width}."""

    A1: Rat
    A2: Rat
    half_width: Rat

    def value_at(self, p: Point2) -> Rat:
        return abs(self.A1 * p.x1 + self.A2 * p.x2)


def _normalized(raw, what: str) -> tuple:
    """A nonzero triple divided by its third component, or, when that is 0,
    the projective direction of the first two and 0."""
    r1, r2, r3 = (rat(c) for c in raw)
    if r1 == 0 and r2 == 0 and r3 == 0:
        raise ZeroVector(f"{what} parameter must be nonzero")
    if r3 != 0:
        return r1 / r3, r2 / r3, 1
    return (*projective_direction(r1, r2), 0)


def normalize_plane(raw) -> PlaneParams:
    A1, A2, delta = _normalized(raw, "plane")
    m12 = max(abs(A1), abs(A2))
    M = max(m12, rat(delta))
    if delta == 0:
        steep = VERTICAL
    elif m12 == 0:
        steep = HORIZONTAL
    elif m12 < 1:
        steep = SHALLOW
    elif m12 == 1:
        steep = TRANSITIONAL
    else:
        steep = STEEP
    return PlaneParams(A1, A2, delta, M, steep)


def normalize_line(raw) -> LineParams:
    a1, a2, a3 = _normalized(raw, "line")
    dom = dominance_class((a1, a2, a3))
    if a3 == 0:
        klass = HORIZONTAL
    elif dom.is_dominant:
        klass = STEEP if dom.index == 3 else SHALLOW
    elif dom.is_transitional:
        klass = TRANSITIONAL
    else:
        klass = INTERMEDIATE
    return LineParams(a1, a2, a3, dom, klass)


def positive_kappa(kappa) -> Rat:
    """kappa as a Rat; NonPositiveKappa unless it is positive."""
    kappa = rat(kappa)
    if kappa <= 0:
        raise NonPositiveKappa(f"kappa must be positive, got {rat_str(kappa)}")
    return kappa


def make_cone(plane: PlaneParams, line: LineParams, kappa) -> ConeSpec:
    cone = ConeSpec(plane, line, positive_kappa(kappa))
    if cone.incidence == 0:
        raise DegenerateCone(
            f"line {line.to_json()} lies in plane {plane.to_json()}"
        )
    return cone


def cone_from_raw(A, a, kappa) -> ConeSpec:
    return make_cone(normalize_plane(A), normalize_line(a), kappa)


def trace_line_PS(plane: PlaneParams) -> Optional[Line2]:
    """P^S = {A1*x1 + A2*x2 + delta = 0}; None for a horizontal plane."""
    if plane.is_horizontal:
        return None
    return Line2.of_integers(*as_integers((plane.A1, plane.A2, plane.delta))[0])


def active_partial_pair(line: LineParams) -> Optional[tuple[int, int]]:
    """The single partial-distance index pair in use, or None (intermediate).

    Horizontal lines use d_{2,3} when |a1| >= |a2| and d_{1,3} otherwise.
    """
    if line.is_horizontal:
        return (2, 3) if abs(line.a1) >= abs(line.a2) else (1, 3)
    dom = line.dominance
    if dom.index is None:
        return None
    j, k = sorted(set((1, 2, 3)) - {dom.index})
    return (j, k)


def reference_directions(line: LineParams) -> dict:
    """Directions r_i of the defined reference lines rho^i = b + t r_i.

    r_1 = (1, 0), r_2 = (0, 1) and r_3 = (a1, a2) through b = line.base = a;
    rho^3 is undefined when ell is the x3-axis.  A horizontal line defines
    only rho^3, through b = 0.
    """
    if line.is_horizontal:
        return {3: (line.a1, line.a2)}
    refs = {1: (1, 0), 2: (0, 1)}
    if line.a1 != 0 or line.a2 != 0:
        refs[3] = (line.a1, line.a2)
    return refs


def active_indices(line: LineParams) -> list[int]:
    """Indices of the active reference lines: the active partial pair, all
    three for an intermediate line, rho^3 alone for a horizontal one."""
    if line.is_horizontal:
        return [3]
    pair = active_partial_pair(line)
    return [1, 2, 3] if pair is None else list(pair)


def reference_lines(line: LineParams) -> list[tuple[int, Line2, bool]]:
    """Defined reference lines as (index, line, active); see reference_directions.

    With (a1, a2) = (n1, n2)/q in integers, rho^1 is q x2 = n2, rho^2 is
    q x1 = n1 and rho^3 is n2 x1 = n1 x2: it passes through the origin and a,
    so also through the base point of a horizontal line.
    """
    (n1, n2), q = as_integers((line.a1, line.a2))
    forms = {1: (0, q, -n2), 2: (q, 0, -n1), 3: (n2, -n1, 0)}
    active = active_indices(line)
    return [(i, Line2.of_integers(*forms[i]), i in active) for i in reference_directions(line)]


def characterizing_strip(cone: ConeSpec) -> CharStrip:
    return CharStrip(cone.plane.A1, cone.plane.A2, cone.plane.M / cone.kappa)


def strip_position(strip: CharStrip, p: Point2) -> str:
    value = strip.value_at(p)
    if value < strip.half_width:
        return INSIDE
    if value == strip.half_width:
        return BOUNDARY
    return OUTSIDE


def cone_to_json(cone: ConeSpec) -> dict:
    return {"A": cone.plane.to_json(), "a": cone.line.to_json(), "kappa": rat_str(cone.kappa)}


def cone_from_json(data) -> ConeSpec:
    try:
        A, a = rats(data["A"], 3), rats(data["a"], 3)
        kappa = rat(data["kappa"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed cone spec: {exc}") from exc
    return cone_from_raw(A, a, kappa)
