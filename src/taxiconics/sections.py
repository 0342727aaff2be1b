"""Conic-section construction: vertices, auxiliary points, pieces, class.

The section of a cone by the plane x3 = 1 is a piecewise-linear curve.  Its
corners (vertices) sit on the active reference lines through a = ell cap S
and have closed forms; between consecutive active reference rays the curve is
a straight piece obtained by resolving the absolute values of the partial
line distance and of the plane distance.  build_section solves that linear
equation sector by sector and clips it exactly, which reproduces the
connect-the-dots rules (segments for adjacent vertices, complementary rays
for anti-adjacent ones, parallel rays toward vertices at infinity) without
case analysis on vertex configurations.

For a horizontal defining line only rho^3 exists and the section is four
rays constructed from the auxiliary points on P^S.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Optional

from ._rat import Rat, rat, sign
from .cones import (
    INSIDE,
    OUTSIDE,
    ConeSpec,
    LineParams,
    PlaneParams,
    active_partial_pair,
    characterizing_strip,
    reference_lines,
    strip_position,
    trace_line_PS,
)
from .errors import HorizontalPlane
from .geometry import (
    ExtendedPoint,
    Line2,
    Piece,
    Point2,
    Ray,
    Segment,
    cross,
    line_through,
    piece_sort_key,
    primitive_direction,
    projective_direction,
    side_of_line,
)

ELLIPSE = "ellipse"
PARABOLA = "parabola"
HYPERBOLA = "hyperbola"

ADJACENT = "adjacent"
ANTI_ADJACENT = "anti_adjacent"

_SIGNS = (1, -1)
_SIGN_CHAR = {1: "+", -1: "-"}


@dataclass(frozen=True)
class Vertex:
    ref_index: int
    sign: int  # +1 or -1
    location: ExtendedPoint

    @property
    def label(self) -> str:
        return f"v{self.ref_index}{_SIGN_CHAR[self.sign]}"

    def to_json(self):
        out = {"ref": self.ref_index, "sign": _SIGN_CHAR[self.sign]}
        out.update(self.location.to_json())
        return out


@dataclass(frozen=True)
class AuxPoint:
    pair: str  # "1,2+", "2,3-", ... or horizontal family "I+", "II-"
    location: ExtendedPoint
    active: bool

    def to_json(self):
        out = {"pair": self.pair, "active": self.active}
        out.update(self.location.to_json())
        return out


@dataclass
class ConicSection:
    klass: str
    pieces: list[Piece]
    vertices: list[Vertex]
    aux_points: list[AuxPoint]
    trace: Optional[Line2]
    ref_lines: list[tuple[int, Line2, bool]]
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# vertices


def _defined_indices(line: LineParams) -> list[int]:
    if line.is_horizontal:
        return [3]
    idx = [1, 2]
    if line.a1 != 0 or line.a2 != 0:
        idx.append(3)
    return idx


def active_indices(line: LineParams) -> list[int]:
    if line.is_horizontal:
        return [3]
    pair = active_partial_pair(line)
    return [1, 2, 3] if pair is None else list(pair)


def vertex_slot(cone: ConeSpec, index: int, sgn: int) -> ExtendedPoint:
    """Vertex formula value for one (reference line, sign) slot.

    Defined whether or not the reference line is active; a zero denominator
    puts the vertex at infinity along the reference line's direction.
    """
    plane, line = cone.plane, cone.line
    mk = plane.M / cone.kappa
    if line.is_horizontal:
        if index != 3:
            raise ValueError("horizontal lines only carry vertices on rho^3")
        r = (plane.delta + sgn * mk) / (-cone.incidence)
        return ExtendedPoint.finite(Point2(line.a1 * r, line.a2 * r))
    e = cone.incidence
    if index == 1:
        den = sgn * mk - plane.A1
        if den == 0:
            return ExtendedPoint.at_infinity(1, 0)
        return ExtendedPoint.finite(Point2(line.a1 + e / den, line.a2))
    if index == 2:
        den = sgn * mk - plane.A2
        if den == 0:
            return ExtendedPoint.at_infinity(0, 1)
        return ExtendedPoint.finite(Point2(line.a1, line.a2 + e / den))
    if index == 3:
        if line.a1 == 0 and line.a2 == 0:
            raise ValueError("rho^3 is undefined for a coordinate-axis line")
        den = sgn * mk - (plane.A1 * line.a1 + plane.A2 * line.a2)
        if den == 0:
            return ExtendedPoint.at_infinity(line.a1, line.a2)
        r = 1 + e / den
        return ExtendedPoint.finite(Point2(line.a1 * r, line.a2 * r))
    raise ValueError(f"bad reference index {index}")


def vertices(cone: ConeSpec, include_inactive: bool = False) -> list[Vertex]:
    """Section vertices on active reference lines, plus-sign slots first.

    include_inactive also reports the formula values on inactive reference
    lines (which are not on the section); intended for verification.
    """
    line = cone.line
    indices = _defined_indices(line) if include_inactive else [
        i for i in _defined_indices(line) if i in active_indices(line)
    ]
    out = []
    for i in indices:
        for s in _SIGNS:
            out.append(Vertex(i, s, vertex_slot(cone, i, s)))
    return out


def _slot_map(verts: list[Vertex]) -> dict[tuple[int, int], ExtendedPoint]:
    return {(v.ref_index, v.sign): v.location for v in verts}


# ---------------------------------------------------------------------------
# auxiliary points


def _ps_infinity(plane: PlaneParams) -> ExtendedPoint:
    return ExtendedPoint.at_infinity(-plane.A2, plane.A1)


def aux_formula(plane: PlaneParams, line: LineParams, pair: tuple[int, int], sgn: int) -> ExtendedPoint:
    """Auxiliary-point formula for a non-horizontal defining line."""
    A1, A2, d = plane.A1, plane.A2, rat(plane.delta)
    a1, a2 = line.a1, line.a2
    if pair == (1, 2):
        den = -A1 + sgn * A2
        if den == 0:
            return _ps_infinity(plane)
        x1 = (sgn * A2 * a1 + A2 * a2 + d) / den
        x2 = (A1 * a1 + sgn * A1 * a2 + d) / (sgn * A1 - A2)
        return ExtendedPoint.finite(Point2(x1, x2))
    if pair == (1, 3):
        den = A1 * a1 + A2 * a2 + sgn * A1
        if den == 0:
            return _ps_infinity(plane)
        x1 = -(d * a1 + sgn * A2 * a2 + sgn * d) / den
        x2 = (sgn * A1 * a2 - d * a2) / den
        return ExtendedPoint.finite(Point2(x1, x2))
    if pair == (2, 3):
        den = A1 * a1 + A2 * a2 + sgn * A2
        if den == 0:
            return _ps_infinity(plane)
        x1 = (sgn * A2 * a1 - d * a1) / den
        x2 = -(sgn * A1 * a1 + d * a2 + sgn * d) / den
        return ExtendedPoint.finite(Point2(x1, x2))
    raise ValueError(f"bad reference pair {pair}")


def aux_formula_horizontal(plane: PlaneParams, line: LineParams, family: str, sgn: int) -> ExtendedPoint:
    A1, A2, d = plane.A1, plane.A2, rat(plane.delta)
    a1, a2 = line.a1, line.a2
    den = A1 * a1 + A2 * a2  # nonzero: equals the cone incidence for a3 = 0
    if family == "I":
        x1 = (sgn * A2 * a1 - d * a1) / den
        x2 = -(sgn * A1 * a1 + d * a2) / den
    elif family == "II":
        x1 = -(sgn * A2 * a2 + d * a1) / den
        x2 = (sgn * A1 * a2 - d * a2) / den
    else:
        raise ValueError(f"bad horizontal family {family}")
    return ExtendedPoint.finite(Point2(x1, x2))


def _combo_line(slots, i: int, si: int, j: int, sj: int) -> Optional[Line2]:
    """Line through vertices v^{i si} and v^{j sj}; None if both at infinity."""
    vi, vj = slots[(i, si)], slots[(j, sj)]
    if vi.is_finite and vj.is_finite:
        return line_through(vi.point, vj.point)
    if vi.is_finite or vj.is_finite:
        fin = vi.point if vi.is_finite else vj.point
        d = (vj if vi.is_finite else vi).direction
        return Line2.of(d.x2, -d.x1, -(d.x2 * fin.x1 - d.x1 * fin.x2))
    return None


_FAMILIES = ((( 1,  1), (-1, -1)), ((1, -1), (-1, 1)))


def _aux_family(slots, pair, location: ExtendedPoint):
    """Which pair of sign combos generates this auxiliary point."""
    i, j = pair
    for combos in _FAMILIES:
        for si, sj in combos:
            gamma = _combo_line(slots, i, si, j, sj)
            if gamma is None:
                continue
            if location.is_finite:
                if side_of_line(gamma, location.point) == 0:
                    return combos
            else:
                d = gamma.direction()
                if projective_direction(d.x1, d.x2) == location.direction:
                    return combos
            break  # one constructible combo decides the family
    raise AssertionError("auxiliary point matches neither vertex-pair family")


def auxiliary_points(cone: ConeSpec, verts: Optional[list[Vertex]] = None) -> list[AuxPoint]:
    """All auxiliary points on P^S with their activity flags.

    verts are the section vertices, vertices(cone), computed here when not
    given.  Raises HorizontalPlane when the defining plane is horizontal:
    there is no trace line and every auxiliary point escapes to infinity.
    """
    plane, line = cone.plane, cone.line
    if plane.is_horizontal:
        raise HorizontalPlane("a horizontal defining plane has no trace line P^S")
    if line.is_horizontal:
        active_i = abs(line.a1) >= abs(line.a2)
        active_ii = abs(line.a2) >= abs(line.a1)
        out = []
        for family, active in (("I", active_i), ("II", active_ii)):
            for s in _SIGNS:
                loc = aux_formula_horizontal(plane, line, family, s)
                out.append(AuxPoint(f"{family}{_SIGN_CHAR[s]}", loc, active))
        return out

    indices = _defined_indices(line)
    pairs = [(i, j) for k, i in enumerate(indices) for j in indices[k + 1:]]
    single = active_partial_pair(line)
    if single is None:
        # no dominance: all three reference lines are active
        slots = _slot_map(vertices(cone) if verts is None else verts)
        related = {frozenset(key) for key, _ in _finite_relations(cone, slots)}
    out = []
    for pair in pairs:
        for s in _SIGNS:
            loc = aux_formula(plane, line, pair, s)
            if single is not None:
                active = pair == single
            else:
                combos = _aux_family(slots, pair, loc)
                active = any(
                    frozenset(((pair[0], si), (pair[1], sj))) in related
                    for si, sj in combos
                )
            out.append(AuxPoint(f"{pair[0]},{pair[1]}{_SIGN_CHAR[s]}", loc, active))
    return out


# ---------------------------------------------------------------------------
# sector machinery (non-horizontal defining line)


def _dir_half(d: Point2) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2 pi)
    if d.x2 > 0 or (d.x2 == 0 and d.x1 > 0):
        return 0
    return 1


def _dir_cmp(u: Point2, v: Point2) -> int:
    hu, hv = _dir_half(u), _dir_half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = cross(u, v)
    if c == 0:
        return 0
    return -1 if c > 0 else 1


def _sorted_active_rays(line: LineParams) -> list[tuple[int, Point2]]:
    """Active reference rays around a, sorted by exact angle."""
    base_dirs = {
        1: Point2(rat(1), rat(0)),
        2: Point2(rat(0), rat(1)),
    }
    if line.a1 != 0 or line.a2 != 0:
        base_dirs[3] = primitive_direction(line.a1, line.a2)
    rays = []
    for i in active_indices(line):
        d = base_dirs[i]
        rays.append((i, d))
        rays.append((i, Point2(-d.x1, -d.x2)))
    rays.sort(key=functools.cmp_to_key(lambda a, b: _dir_cmp(a[1], b[1])))
    return rays


def _partial_forms(line: LineParams, pair: tuple[int, int]):
    """Linear forms (c1, c2, c0) of the two terms of d_pair on x3 = 1.

    The first form vanishes exactly on one bounding reference line of the
    sector, the second on the other.
    """
    a1, a2 = line.a1, line.a2
    if pair == (1, 2):
        return ((rat(1), rat(0), -a1), (rat(0), rat(1), -a2))
    if pair == (1, 3):
        return ((rat(1), -a1 / a2, rat(0)), (rat(0), -1 / a2, rat(1)))
    if pair == (2, 3):
        return ((-a2 / a1, rat(1), rat(0)), (-1 / a1, rat(0), rat(1)))
    raise ValueError(f"bad partial pair {pair}")


def _form_at(form, p: Point2) -> Rat:
    return form[0] * p.x1 + form[1] * p.x2 + form[2]


def _clip_line_to_region(lform, constraints) -> Optional[Piece]:
    """Clip the line {lform = 0} to an intersection of halfplanes {c >= 0}.

    Returns a Segment, a Ray, or None when the intersection is empty or a
    single point.
    """
    l1, l2, l0 = lform
    if l2 != 0:
        q = Point2(rat(0), -l0 / l2)
    else:
        q = Point2(-l0 / l1, rat(0))
    d = Point2(-l2, l1)
    lo = hi = None
    for c in constraints:
        v0 = _form_at(c, q)
        v1 = c[0] * d.x1 + c[1] * d.x2
        if v1 == 0:
            if v0 < 0:
                return None
            continue
        bound = -v0 / v1
        if v1 > 0:
            if lo is None or bound > lo:
                lo = bound
        else:
            if hi is None or bound < hi:
                hi = bound
    if lo is not None and hi is not None:
        if lo >= hi:
            return None
        return Segment.of(
            Point2(q.x1 + lo * d.x1, q.x2 + lo * d.x2),
            Point2(q.x1 + hi * d.x1, q.x2 + hi * d.x2),
        )
    if lo is not None:
        return Ray.of(Point2(q.x1 + lo * d.x1, q.x2 + lo * d.x2), d.x1, d.x2)
    if hi is not None:
        return Ray.of(Point2(q.x1 + hi * d.x1, q.x2 + hi * d.x2), -d.x1, -d.x2)
    raise AssertionError("section piece cannot be a full line inside a sector")


def _construct_nonhorizontal(cone: ConeSpec) -> list[Piece]:
    """Pieces of the section, solved sector by sector."""
    plane, line = cone.plane, cone.line
    a_pt = line.point
    rays = _sorted_active_rays(line)
    n = len(rays)
    kM = cone.kappa / plane.M
    pform = (plane.A1, plane.A2, rat(plane.delta))
    pieces: set[Piece] = set()

    for idx in range(n):
        i_ref, u_dir = rays[idx]
        j_ref, v_dir = rays[(idx + 1) % n]
        pair = (min(i_ref, j_ref), max(i_ref, j_ref))
        form_u, form_w = _partial_forms(line, pair)
        interior = Point2(a_pt.x1 + u_dir.x1 + v_dir.x1, a_pt.x2 + u_dir.x2 + v_dir.x2)
        s_u = sign(_form_at(form_u, interior))
        s_w = sign(_form_at(form_w, interior))
        if s_u == 0 or s_w == 0:
            raise AssertionError("partial-distance form vanishes inside a sector")
        # closed sector {a + alpha u + beta v : alpha, beta >= 0} as halfplanes
        su_v = sign(cross(u_dir, v_dir))
        sector_constraints = []
        for edge, other_sign in ((u_dir, su_v), (v_dir, -su_v)):
            c1 = -edge.x2 * other_sign
            c2 = edge.x1 * other_sign
            sector_constraints.append((c1, c2, -(c1 * a_pt.x1 + c2 * a_pt.x2)))
        for sigma in _SIGNS:
            lform = tuple(
                s_u * fu + s_w * fw - sigma * kM * fp
                for fu, fw, fp in zip(form_u, form_w, pform)
            )
            if lform[0] == 0 and lform[1] == 0:
                # no solution in this sector: an identically zero form would
                # force A1 a1 + A2 a2 + delta = 0, which make_cone rejects
                continue
            constraints = list(sector_constraints)
            side = (sigma * pform[0], sigma * pform[1], sigma * pform[2])
            constraints.append(side)
            piece = _clip_line_to_region(lform, constraints)
            if piece is not None:
                pieces.add(piece)
    return sorted(pieces, key=piece_sort_key)


def _construct_horizontal(verts: list[Vertex], aux: list[AuxPoint]) -> list[Piece]:
    """Horizontal defining line: rays through the active auxiliary points.

    Each edge line of the section meets P^S at an auxiliary point w and
    carries one vertex v; the edge is the ray from v pointing away from w.
    """
    points = [v.location.point for v in verts]
    pieces: set[Piece] = set()
    for w in (p.location.point for p in aux if p.active):
        for v in points:
            pieces.add(Ray.of(v, v.x1 - w.x1, v.x2 - w.x2))
    return sorted(pieces, key=piece_sort_key)


# ---------------------------------------------------------------------------
# adjacency


def _finite_relations(cone: ConeSpec, slots):
    """Relations between finite vertices on distinct active reference lines.

    slots maps each active (index, sign) slot to its vertex location.
    Returns a list of ((slot, slot), relation) with slots (index, sign).
    """
    line = cone.line
    if line.is_horizontal:
        return []
    a_pt = line.point
    trace = trace_line_PS(cone.plane)
    rays = _sorted_active_rays(line)
    n = len(rays)
    ray_pos = {(ref, d): k for k, (ref, d) in enumerate(rays)}
    two_lines = len({ref for ref, _ in rays}) == 2
    finite = {key: ep.point for key, ep in slots.items() if ep.is_finite}

    def ray_key(key):
        p = finite[key]
        return (key[0], primitive_direction(p.x1 - a_pt.x1, p.x2 - a_pt.x2))

    def consecutive(p1, p2):
        return (p1 - p2) % n in (1, n - 1)

    out = []
    keys = sorted(finite)
    for ai, k1 in enumerate(keys):
        for k2 in keys[ai + 1:]:
            if k1[0] == k2[0]:
                continue
            if trace is None:
                same = True
            else:
                same = side_of_line(trace, finite[k1]) == side_of_line(trace, finite[k2])
            r1, r2 = ray_key(k1), ray_key(k2)
            p1, p2 = ray_pos[r1], ray_pos[r2]
            opp2 = ray_pos[(r2[0], Point2(-r2[1].x1, -r2[1].x2))]
            ray_adj = two_lines or consecutive(p1, p2)
            ray_anti = two_lines or consecutive(p1, opp2)
            if ray_adj and same:
                out.append(((k1, k2), ADJACENT))
            elif ray_anti and not same:
                out.append(((k1, k2), ANTI_ADJACENT))
    return out


def adjacency(cone: ConeSpec):
    """Adjacency relation between section vertices.

    Finite pairs follow the ray-adjacency and trace-side rules directly;
    pairs with one vertex at infinity are read off the constructed section
    (a ray from a finite vertex parallel to a reference line realizes
    adjacency with the vertex at infinity on that line).
    """
    verts = vertices(cone)
    by_slot = {(v.ref_index, v.sign): v for v in verts}
    slots = _slot_map(verts)
    out = [
        (by_slot[k1], by_slot[k2], rel)
        for (k1, k2), rel in _finite_relations(cone, slots)
    ]
    if not cone.line.is_horizontal:
        finite_at = {ep.point: key for key, ep in slots.items() if ep.is_finite}
        infinite = [(key, ep.direction) for key, ep in slots.items() if not ep.is_finite]
        links = set()
        for piece in _construct_nonhorizontal(cone):
            if isinstance(piece, Ray) and piece.base in finite_at:
                for inf_key, d in infinite:
                    if cross(piece.direction, d) == 0:
                        links.add((finite_at[piece.base], inf_key))
        for fin_key, inf_key in sorted(links):
            out.append((by_slot[fin_key], by_slot[inf_key], ADJACENT))
    return out


# ---------------------------------------------------------------------------
# classification and assembly


def _unit_circle_vertices() -> list[Point2]:
    one, zero = rat(1), rat(0)
    return [Point2(one, zero), Point2(-one, zero), Point2(zero, one), Point2(zero, -one)]


def classify(cone: ConeSpec) -> str:
    """Exact ellipse/parabola/hyperbola classification.

    Horizontal defining lines always cut hyperbolas.  Otherwise the strip
    positions of the unit-circle vertices and of a decide the class.
    """
    if cone.line.is_horizontal:
        return HYPERBOLA
    strip = characterizing_strip(cone)
    probes = _unit_circle_vertices() + [cone.line.point]
    positions = [strip_position(strip, p) for p in probes]
    if any(pos == OUTSIDE for pos in positions):
        return HYPERBOLA
    if all(pos == INSIDE for pos in positions):
        return ELLIPSE
    return PARABOLA


def build_section(cone: ConeSpec) -> ConicSection:
    """Construct the full conic section of a valid cone."""
    line = cone.line
    verts = vertices(cone)
    try:
        aux = auxiliary_points(cone, verts)
    except HorizontalPlane:
        aux = []
    if line.is_horizontal:
        pieces = _construct_horizontal(verts, aux)
    else:
        pieces = _construct_nonhorizontal(cone)
    return ConicSection(
        klass=classify(cone),
        pieces=pieces,
        vertices=verts,
        aux_points=aux,
        trace=trace_line_PS(cone.plane),
        ref_lines=reference_lines(line),
    )


def build_pieces_via_aux(cone: ConeSpec) -> list[Piece]:
    """Alternative construction through the active auxiliary points.

    Mirrors the auxiliary-ray characterization: on every line through an active
    auxiliary point w, the section is the part between the two vertices on
    it, or beyond the single vertex, away from w.  An active auxiliary point
    at infinity contributes the segment between its finite generating
    vertices.  For horizontal defining lines this is the authoritative
    construction already used by build_section.
    """
    verts = vertices(cone)
    aux_points = auxiliary_points(cone, verts)
    if cone.line.is_horizontal:
        return _construct_horizontal(verts, aux_points)
    slots = _slot_map(verts)
    trace = trace_line_PS(cone.plane)
    pieces: set[Piece] = set()
    for aux in aux_points:
        if not aux.active:
            continue
        i, j = (int(c) for c in aux.pair[:-1].split(","))
        combos = _aux_family(slots, (i, j), aux.location)
        for si, sj in combos:
            vi, vj = slots[(i, si)], slots[(j, sj)]
            if not aux.location.is_finite:
                # generating lines parallel to P^S: the piece is a segment
                if vi.is_finite and vj.is_finite and trace is not None:
                    if side_of_line(trace, vi.point) == side_of_line(trace, vj.point):
                        pieces.add(Segment.of(vi.point, vj.point))
                continue
            w = aux.location.point
            if vi.is_finite and vj.is_finite:
                di = vi.point - w
                dj = vj.point - w
                if di.x1 * dj.x1 + di.x2 * dj.x2 > 0:
                    pieces.add(Segment.of(vi.point, vj.point))
                else:
                    pieces.add(Ray.of(vi.point, di.x1, di.x2))
                    pieces.add(Ray.of(vj.point, dj.x1, dj.x2))
            elif vi.is_finite or vj.is_finite:
                v = vi.point if vi.is_finite else vj.point
                d = v - w
                pieces.add(Ray.of(v, d.x1, d.x2))
    return sorted(pieces, key=piece_sort_key)


def section_topology(pieces: list[Piece]) -> str:
    """Topological class of a piece set: closed polygon, one unbounded
    component, or two components."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    endpoint_degree: dict = {}
    for k, piece in enumerate(pieces):
        node = ("piece", k)
        parent.setdefault(node, node)
        ends = (piece.a, piece.b) if isinstance(piece, Segment) else (piece.base,)
        for p in ends:
            union(node, ("pt", p))
            endpoint_degree[p] = endpoint_degree.get(p, 0) + 1
    roots = {find(("piece", k)) for k in range(len(pieces))}
    n_components = len(roots)
    has_ray = {root: False for root in roots}
    for k, piece in enumerate(pieces):
        if isinstance(piece, Ray):
            has_ray[find(("piece", k))] = True
    if n_components == 2:
        return HYPERBOLA
    if n_components == 1:
        if any(has_ray.values()):
            return PARABOLA
        if all(deg == 2 for deg in endpoint_degree.values()):
            return ELLIPSE
    raise ValueError(f"piece set is not a conic section topology ({n_components} components)")


# ---------------------------------------------------------------------------
# serialization


def section_to_json(section: ConicSection) -> dict:
    return {
        "class": section.klass,
        "pieces": [p.to_json() for p in section.pieces],
        "vertices": [v.to_json() for v in sorted(section.vertices, key=lambda v: (v.ref_index, -v.sign))],
        "aux": [a.to_json() for a in sorted(section.aux_points, key=lambda a: a.pair)],
        "trace": section.trace.to_json() if section.trace is not None else None,
        "ref_lines": [
            {"index": i, "line": g.to_json(), "active": act}
            for i, g, act in section.ref_lines
        ],
        "warnings": list(section.warnings),
    }


def _point_from_json(xy) -> Point2:
    return Point2(rat(xy[0]), rat(xy[1]))


def _extended_from_json(data) -> ExtendedPoint:
    if data.get("at_infinity"):
        d = _point_from_json(data["dir"])
        return ExtendedPoint.at_infinity(d.x1, d.x2)
    return ExtendedPoint.finite(_point_from_json(data["xy"]))


def section_from_json(data) -> ConicSection:
    if isinstance(data, str):
        data = json.loads(data)
    pieces: list[Piece] = []
    for p in data["pieces"]:
        if p["kind"] == "segment":
            pieces.append(Segment.of(_point_from_json(p["a"]), _point_from_json(p["b"])))
        else:
            d = _point_from_json(p["dir"])
            pieces.append(Ray.of(_point_from_json(p["base"]), d.x1, d.x2))
    verts = [
        Vertex(v["ref"], 1 if v["sign"] == "+" else -1, _extended_from_json(v))
        for v in data.get("vertices", [])
    ]
    aux = [
        AuxPoint(a["pair"], _extended_from_json(a), a["active"])
        for a in data.get("aux", [])
    ]
    trace = None
    if data.get("trace") is not None:
        c = data["trace"]
        trace = Line2.of(rat(c[0]), rat(c[1]), rat(c[2]))
    ref_lines = [
        (r["index"], Line2.of(*(rat(c) for c in r["line"])), r["active"])
        for r in data.get("ref_lines", [])
    ]
    return ConicSection(
        klass=data["class"],
        pieces=pieces,
        vertices=verts,
        aux_points=aux,
        trace=trace,
        ref_lines=ref_lines,
        warnings=list(data.get("warnings", [])),
    )
