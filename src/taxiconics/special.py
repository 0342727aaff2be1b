"""Special families: horizontal defining plane, perpendicular cones,
similarity redundancies, and the focus-directrix comparison.

The perpendicular case reads its region U_kappa from one rule,
atlas.u_kappa_side, shared with ukappa_sweep; the literal square, disk and
petal-disk tests are kept in tests/ukappa_reference.py as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._rat import Rat, as_integers, rat, rat_str
from .atlas import u_kappa_side
from .cones import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    STEEP,
    TRANSITIONAL,
    LineParams,
    PlaneParams,
    make_cone,
    normalize_line,
    normalize_plane,
    positive_kappa,
)
from .errors import (
    HorizontalLineWithHorizontalPlane,
    HorizontalPlane,
    InconsistentClassification,
    NotParallel,
    NotSteep,
)
from .geometry import Line2, Point2, Ray, Segment
from .sections import (
    ELLIPSE,
    HYPERBOLA,
    PARABOLA,
    ConicSection,
    build_section,
    classify,
)

CIRCLE = "circle"
RHOMBUS = "rhombus"
PARALLELOGRAM = "parallelogram"
HEXAGON = "hexagon"


def horizontal_plane_section(line: LineParams, kappa) -> tuple[ConicSection, str]:
    """Section of a cone over the horizontal plane: always an ellipse.

    Vertices sit at a +/- kappa*(1,0), a +/- kappa*(0,1) and
    a +/- kappa*(a1, a2) on the active reference lines; the shape is a
    taxicab circle for steep lines, a parallelogram (rhombus when a lies on
    a coordinate axis) for shallow and transitional ones, and a hexagon with
    parallel opposite sides for intermediate ones.
    """
    if line.is_horizontal:
        raise HorizontalLineWithHorizontalPlane(
            "a horizontal line never meets a horizontal plane in one point"
        )
    cone = make_cone(normalize_plane((0, 0, 1)), line, kappa)
    section = build_section(cone)
    if line.klass == STEEP:
        tag = CIRCLE
    elif line.klass == "intermediate":
        tag = HEXAGON
    elif line.a1 == 0 or line.a2 == 0:
        tag = RHOMBUS
    else:
        tag = PARALLELOGRAM
    return section, tag


# ---------------------------------------------------------------------------
# perpendicular line and plane: the region U_kappa


def u_kappa_position(kappa, p: Point2) -> str:
    """Exact membership of p in U_kappa / its boundary / its complement.

    p is written as (X, Y)/d in integers and decided by atlas.u_kappa_side,
    the U_kappa rule that ukappa_sweep runs on every raster cell.
    """
    kappa = positive_kappa(kappa)
    (x, y), d = as_integers((p.x1, p.x2))
    side = u_kappa_side(x * x + y * y, max(abs(x), abs(y)), d, kappa.numerator, kappa.denominator)
    return (INSIDE, BOUNDARY, OUTSIDE)[1 + side]


_EXPECTED = {INSIDE: ELLIPSE, BOUNDARY: PARABOLA, OUTSIDE: HYPERBOLA}


@dataclass(frozen=True)
class UKappaCheck:
    position: str
    expected: str
    actual: str

    @property
    def consistent(self) -> bool:
        return self.expected == self.actual


def u_kappa_check(kappa, p: Point2) -> UKappaCheck:
    """Classify the perpendicular cone with A = a = (p, 1) and compare with
    the U_kappa membership prediction."""
    kappa = rat(kappa)
    plane = normalize_plane((p.x1, p.x2, 1))
    cone = make_cone(plane, normalize_line((p.x1, p.x2, 1)), kappa)
    position = u_kappa_position(kappa, p)
    return UKappaCheck(position, _EXPECTED[position], classify(cone))


def u_kappa_classify_check(kappa, p: Point2) -> UKappaCheck:
    """u_kappa_check that raises InconsistentClassification on disagreement."""
    kappa = rat(kappa)
    report = u_kappa_check(kappa, p)
    if not report.consistent:
        raise InconsistentClassification(
            f"A=a=({rat_str(p.x1)},{rat_str(p.x2)}), kappa={rat_str(kappa)}: "
            f"{report.position} predicts {report.expected} but got {report.actual}"
        )
    return report


# ---------------------------------------------------------------------------
# similarity redundancies


@dataclass(frozen=True)
class SimilarityReport:
    ratio: Rat  # signed ratio of corresponding vertex deviations
    rotated_half_turn: bool


def _is_steepish(line: LineParams) -> bool:
    # steep, or transitionally steep (|a1| + |a2| = 1 with a3 = 1)
    if line.klass == STEEP:
        return True
    return line.klass == TRANSITIONAL and line.dominance.index == 3


def steep_line_similarity(plane: PlaneParams, kappa, a: LineParams, b: LineParams) -> SimilarityReport:
    """Sections over one plane and two steep lines are similar.

    Their vertices lie on rho^1 and rho^2, each a deviation e/den from the
    line's point (see vertex_slot) with den independent of the line, so the
    signed ratio of corresponding deviations is the incidence ratio
    (A.a + delta) / (A.b + delta); a negative value means one section is the
    other rotated by a half turn.
    """
    for line in (a, b):
        if not _is_steepish(line):
            raise NotSteep(f"line {line.to_json()} is not (transitionally) steep")
    cone_a = make_cone(plane, a, kappa)
    cone_b = make_cone(plane, b, kappa)
    ratio = cone_a.incidence / cone_b.incidence
    return SimilarityReport(ratio, ratio < 0)


def parallel_plane_kappa(plane_a: PlaneParams, plane_b: PlaneParams, kappa_a) -> Rat:
    """kappa_B making sections over P_B similar to those over P_A.

    Requires parallel traces (A1*B2 = A2*B1) and neither plane horizontal.
    Steep/transitional pairs keep kappa; shallow/transitional pairs scale by
    |A1/B1|; mixed pairs compose the two cases through the transitional
    plane of the pencil, which collapses to kappa_B = kappa_A*|c|*M_B/M_A
    where (A1, A2) = c*(B1, B2).
    """
    kappa_a = positive_kappa(kappa_a)
    for plane in (plane_a, plane_b):
        if plane.is_horizontal:
            raise HorizontalPlane("similarity pencil needs non-horizontal planes")
    if plane_a.A1 * plane_b.A2 != plane_a.A2 * plane_b.A1:
        raise NotParallel("traces on the slicing plane are not parallel")
    if plane_b.A1 != 0:
        c = plane_a.A1 / plane_b.A1
    else:
        c = plane_a.A2 / plane_b.A2
    if c == 0:
        raise NotParallel("plane parameter pairs are not proportional")
    return kappa_a * abs(c) * plane_b.M / plane_a.M


# ---------------------------------------------------------------------------
# focus-directrix comparison


def taxicab_dist_2d(p: Point2, q: Point2) -> Rat:
    return abs(p.x1 - q.x1) + abs(p.x2 - q.x2)


def taxicab_dist_to_line_2d(p: Point2, g: Line2) -> Rat:
    """2-D analogue of the plane-distance formula: |g(p)| / max(|c1|, |c2|)."""
    return abs(g.value_at(p)) / max(abs(g.c1), abs(g.c2))


def focus_directrix_residual(focus: Point2, directrix: Line2, kappa, p: Point2) -> Rat:
    """d(p, focus) - kappa * d(p, directrix) with 2-D taxicab distances."""
    kappa = positive_kappa(kappa)
    return taxicab_dist_2d(p, focus) - kappa * taxicab_dist_to_line_2d(p, directrix)


def parabola_slope_gap(section: ConicSection) -> Optional[Rat]:
    """Gap between the slopes of the two bounded edges of an axis-aligned
    parabola.

    Applies when the two unbounded edges are parallel to a coordinate axis:
    slopes are measured transverse to that axis (dx2/dx1 for x2-direction
    edges, dx1/dx2 for x1-direction edges).  Focus-directrix parabolas have
    gap exactly 1.  Returns None when not applicable.
    """
    if section.klass != PARABOLA:
        return None
    rays = [p for p in section.pieces if isinstance(p, Ray)]
    others = [p for p in section.pieces if isinstance(p, Segment)]
    if len(rays) != 2 or len(others) != 2:
        return None
    dirs = [r.direction for r in rays]
    if all(d.x1 == 0 for d in dirs):
        axis = "x2"
    elif all(d.x2 == 0 for d in dirs):
        axis = "x1"
    else:
        return None
    slopes = []
    for seg in others:
        run = seg.b.x1 - seg.a.x1
        rise = seg.b.x2 - seg.a.x2
        if axis == "x2":
            if run == 0:
                return None
            slopes.append(rise / run)
        else:
            if rise == 0:
                return None
            slopes.append(run / rise)
    return abs(slopes[0] - slopes[1])
