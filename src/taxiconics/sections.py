"""Conic-section construction: vertices, auxiliary points, pieces, class.

The section of a cone by the plane x3 = 1 is a piecewise-linear curve.  Its
corners (vertices) sit on the active reference lines rho^i = a + t r_i
through a = ell cap S, with r_1 = (1, 0), r_2 = (0, 1), r_3 = (a1, a2)
(cones.reference_directions).  Each has one closed form, a + (e/den) r_i
(see vertex_slot), and build_section joins them by the connect-the-dots
rules: a segment for each adjacent pair of finite vertices, two
complementary rays for each anti-adjacent pair, and a ray parallel to the
reference line of each vertex at infinity, from each finite vertex adjacent
to it.  The relations come from the angular order of the active reference
rays around a and the sides of the trace line P^S, and both are signs: the
vertex a + t r_i of slot (i, s) lies on the ray sign(t) r_i, and since
A.v + delta = t s M/kappa its side of P^S is s sign(t) (see _relations).

The auxiliary points are where P^S meets fixed lines: through a along
r_i -/+ r_j for each pair of reference directions, or, for a horizontal
defining line, parallel to ell through (0, -/+1) and (-/+1, 0).  They do not
depend on kappa (see auxiliary_points).

For a horizontal defining line only rho^3 exists, through the origin, and
the section is four rays constructed from the auxiliary points on P^S.
oracle.verify_cone rebuilds the pieces from the cone's residual form alone
as an independent check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ._rat import rat, rats, sign
from .cones import (
    INSIDE,
    OUTSIDE,
    ConeSpec,
    LineParams,
    PlaneParams,
    active_indices,
    active_partial_pair,
    characterizing_strip,
    reference_directions,
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
    piece_sort_key,
)

ELLIPSE = "ellipse"
PARABOLA = "parabola"
HYPERBOLA = "hyperbola"

ADJACENT = "adjacent"
ANTI_ADJACENT = "anti_adjacent"

_SIGNS = (1, -1)
_SIGN_CHAR = {1: "+", -1: "-"}
_SIGN_OF = {"+": 1, "-": -1}


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


def finite_points(section: ConicSection) -> Iterator[Point2]:
    """Piece endpoints and finite vertices of a section."""
    for piece in section.pieces:
        yield from piece.ends
    for v in section.vertices:
        if v.location.is_finite:
            yield v.location.point


# ---------------------------------------------------------------------------
# vertices


def vertex_slot(cone: ConeSpec, index: int, sgn: int) -> ExtendedPoint:
    """Vertex formula value for one (reference line, sign) slot.

    Defined whether or not the reference line is active.  On
    rho^i = b + t r_i (b = line.base) the vertex is b + (e/den) r_i with e
    the incidence and den = sgn M/kappa - (A1 r_i1 + A2 r_i2); den = 0 puts
    it at infinity along r_i.  For a horizontal line b = 0, r_3 = (a1, a2)
    and t = -(delta + sgn M/kappa)/e.
    """
    plane, line = cone.plane, cone.line
    refs = reference_directions(line)
    if index not in refs:
        raise ValueError(f"rho^{index} is undefined for line {line.to_json()}")
    mk = plane.M / cone.kappa
    e = cone.incidence
    r1, r2 = refs[index]
    if line.is_horizontal:
        t = (plane.delta + sgn * mk) / (-e)
    else:
        den = sgn * mk - (plane.A1 * r1 + plane.A2 * r2)
        if den == 0:
            return ExtendedPoint.at_infinity(r1, r2)
        t = e / den
    b1, b2 = line.base
    return ExtendedPoint.finite(Point2(b1 + t * r1, b2 + t * r2))


def vertices(cone: ConeSpec) -> list[Vertex]:
    """Section vertices on the active reference lines, plus-sign slots first."""
    return [Vertex(i, s, vertex_slot(cone, i, s)) for i in active_indices(cone.line) for s in _SIGNS]


def _slot_map(verts: list[Vertex]) -> dict[tuple[int, int], ExtendedPoint]:
    return {(v.ref_index, v.sign): v.location for v in verts}


# ---------------------------------------------------------------------------
# auxiliary points


def _ps_meet(plane: PlaneParams, p, w) -> ExtendedPoint:
    """Where P^S meets the line p + t w; at infinity when they are parallel."""
    den = plane.A1 * w[0] + plane.A2 * w[1]
    if den == 0:
        return ExtendedPoint.at_infinity(-plane.A2, plane.A1)
    t = -(plane.A1 * p[0] + plane.A2 * p[1] + plane.delta) / den
    return ExtendedPoint.finite(Point2(p[0] + t * w[0], p[1] + t * w[1]))


def auxiliary_points(cone: ConeSpec, relations=None) -> list[AuxPoint]:
    """All auxiliary points on P^S with their activity flags.

    Each point is where P^S meets a line p + t w, so none depends on kappa.
    For a non-horizontal line, pair (i, j) and label sign s, p = a and
    w = r_i - sigma r_j, with r_1 = (1, 0), r_2 = (0, 1), r_3 = (a1, a2)
    and sigma = s for (1, 2), -s for (1, 3) and (2, 3).  The lines through
    the vertex pairs v^{i s_i}, v^{j s_j} with s_i s_j = sigma meet P^S at
    the same point.  Under dominance only the points of active_partial_pair
    are active; otherwise a point is active iff one of those vertex pairs is
    in relations, the finite relations from _relations (computed here when
    not given).

    For a horizontal line, family I (II) with sign s has p = (0, -s)
    ((-s, 0)) and w = (a1, a2); I is active iff |a1| >= |a2|, II iff
    |a2| >= |a1|.  Raises HorizontalPlane when the defining plane is
    horizontal: there is no trace line and every auxiliary point escapes
    to infinity.
    """
    plane, line = cone.plane, cone.line
    if plane.is_horizontal:
        raise HorizontalPlane("a horizontal defining plane has no trace line P^S")
    a = (line.a1, line.a2)
    if line.is_horizontal:
        out = []
        for family, active in (("I", abs(a[0]) >= abs(a[1])), ("II", abs(a[1]) >= abs(a[0]))):
            for s in _SIGNS:
                p = (0, -s) if family == "I" else (-s, 0)
                out.append(AuxPoint(f"{family}{_SIGN_CHAR[s]}", _ps_meet(plane, p, a), active))
        return out

    single = active_partial_pair(line)
    if single is None:
        # no dominance: all three reference lines are active
        if relations is None:
            relations, _ = _relations(line, _slot_map(vertices(cone)))
        related = {frozenset(key) for key, _ in relations}
    refs = reference_directions(line)
    indices = list(refs)
    out = []
    for k, i in enumerate(indices):
        for j in indices[k + 1:]:
            for s in _SIGNS:
                sigma = s if (i, j) == (1, 2) else -s
                w = (refs[i][0] - sigma * refs[j][0], refs[i][1] - sigma * refs[j][1])
                if single is not None:
                    active = (i, j) == single
                else:
                    active = any(frozenset(((i, si), (j, sigma * si))) in related for si in _SIGNS)
                out.append(AuxPoint(f"{i},{j}{_SIGN_CHAR[s]}", _ps_meet(plane, a, w), active))
    return out


# ---------------------------------------------------------------------------
# connect-the-dots pieces and adjacency


def _angle_key(x1, x2):
    """Exact angle order of the direction (x1, x2) in [0, 2 pi): x1/(|x1| + |x2|)
    falls from 1 to -1 over the upper half-turn and rises back over the lower
    one."""
    x = rat(x1) / (abs(x1) + abs(x2))
    return (0, -x) if x2 > 0 or (x2 == 0 and x1 > 0) else (1, x)


def _sorted_active_rays(line: LineParams) -> list[tuple[int, int]]:
    """Active reference rays (i, u), the ray u r_i from a with u = +-1, sorted
    by exact angle.  The opposite of (i, u) is (i, -u)."""
    refs = reference_directions(line)
    rays = [(i, u) for i in active_indices(line) for u in _SIGNS]
    rays.sort(key=lambda ray: _angle_key(ray[1] * refs[ray[0]][0], ray[1] * refs[ray[0]][1]))
    return rays


def _relations(line: LineParams, slots):
    """Connect-the-dots relations between the vertices of a non-horizontal
    line, decided by signs alone.

    slots maps each active (index, sign) slot to its vertex location.  The
    vertex of slot (i, s) is a + t r_i with t = e/den and
    den = s M/kappa - A.r_i (vertex_slot), so:

    * it lies on the reference ray (i, tau) with tau = sign(t), read off as
      the sign of (v - a).r_i;
    * A.v + delta = e + t A.r_i = t s M/kappa, so its side of P^S is s tau.
      A horizontal plane has A = 0 and t = s kappa/M: every vertex is on the
      side of e, and no trace is needed;
    * it is at infinity when den = 0, that is when A.r_i = s M/kappa.

    Returns (relations, links):

    * relations: ((slot, slot), ADJACENT or ANTI_ADJACENT) for finite
      vertices on distinct reference lines.  They are adjacent on one side of
      P^S with consecutive reference rays around a, and anti-adjacent on
      opposite sides with one ray consecutive to the other's opposite.
    * links: ((finite slot, infinite slot (i, s)), w) when the ray v + t w
      from a finite vertex v toward the vertex at infinity on rho^i is a
      piece.  w = u r_i with u = side(v) s, so that A.w = u s M/kappa has the
      sign of v's side and the ray runs away from P^S; v's reference ray and
      (i, u) must be consecutive.
    """
    refs = reference_directions(line)
    rays = _sorted_active_rays(line)
    n = len(rays)
    ray_pos = {ray: k for k, ray in enumerate(rays)}

    def consecutive(ray1, ray2):
        return (ray_pos[ray1] - ray_pos[ray2]) % n in (1, n - 1)

    tau = {}
    for (i, s), ep in slots.items():
        if ep.is_finite:
            p, (r1, r2) = ep.point, refs[i]
            tau[(i, s)] = sign((p.x1 - line.a1) * r1 + (p.x2 - line.a2) * r2)
    relations = []
    keys = sorted(tau)
    for ai, k1 in enumerate(keys):
        for k2 in keys[ai + 1:]:
            if k1[0] == k2[0]:
                continue
            same = k1[1] * tau[k1] == k2[1] * tau[k2]
            if consecutive((k1[0], tau[k1]), (k2[0], tau[k2] if same else -tau[k2])):
                relations.append(((k1, k2), ADJACENT if same else ANTI_ADJACENT))
    links = []
    for (i, s), ep in slots.items():
        if ep.is_finite:
            continue
        for key, t in tau.items():
            u = key[1] * t * s
            if consecutive((key[0], t), (i, u)):
                links.append(((key, (i, s)), (u * refs[i][0], u * refs[i][1])))
    return relations, links


def _connect_the_dots(slots, relations, links) -> list[Piece]:
    """Pieces from the vertex relations: a segment for each adjacent pair, two
    complementary rays for each anti-adjacent pair, and a ray toward each
    linked vertex at infinity."""
    pieces: set[Piece] = set()
    for (k1, k2), rel in relations:
        p, q = slots[k1].point, slots[k2].point
        if rel == ADJACENT:
            pieces.add(Segment.of(p, q))
        else:
            pieces.add(Ray.of(p, p.x1 - q.x1, p.x2 - q.x2))
            pieces.add(Ray.of(q, q.x1 - p.x1, q.x2 - p.x2))
    for (key, _), (w1, w2) in links:
        pieces.add(Ray.of(slots[key].point, w1, w2))
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


def adjacency(cone: ConeSpec):
    """Adjacency relation between section vertices.

    The relations build_section joins into pieces (see _relations); a pair
    with a vertex at infinity is adjacent.  A horizontal defining line
    relates no vertices.
    """
    line = cone.line
    if line.is_horizontal:
        return []
    verts = vertices(cone)
    by_slot = {(v.ref_index, v.sign): v for v in verts}
    relations, links = _relations(line, _slot_map(verts))
    out = [(by_slot[k1], by_slot[k2], rel) for (k1, k2), rel in relations]
    for k1, k2 in sorted(key for key, _ in links):
        out.append((by_slot[k1], by_slot[k2], ADJACENT))
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
    """Construct the full conic section of a valid cone by connect-the-dots.

    The vertices, the trace P^S and the vertex relations are computed once;
    the relations give both the activity of the auxiliary points and the
    pieces.  A horizontal defining line instead takes its four rays from the
    auxiliary points.
    """
    line = cone.line
    verts = vertices(cone)
    trace = trace_line_PS(cone.plane)
    if line.is_horizontal:
        aux = auxiliary_points(cone)
        pieces = _construct_horizontal(verts, aux)
    else:
        slots = _slot_map(verts)
        relations, links = _relations(line, slots)
        aux = [] if trace is None else auxiliary_points(cone, relations)
        pieces = _connect_the_dots(slots, relations, links)
    return ConicSection(
        klass=classify(cone),
        pieces=pieces,
        vertices=verts,
        aux_points=aux,
        trace=trace,
        ref_lines=reference_lines(line),
    )


def section_topology(pieces: list[Piece]) -> str:
    """Topological class of a piece set: closed polygon, one unbounded
    component, or two components.  The components are those of the piece
    ends, joined by each piece."""
    parent: dict = {}

    def find(p):
        parent.setdefault(p, p)
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for first, *rest in (piece.ends for piece in pieces):
        for p in rest:
            parent[find(p)] = find(first)
    degree = Counter(p for piece in pieces for p in piece.ends)
    n_components = len({find(p) for p in degree})
    if n_components == 2:
        return HYPERBOLA
    if n_components == 1:
        if any(piece.span[2] is None for piece in pieces):
            return PARABOLA
        if all(deg == 2 for deg in degree.values()):
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


def _field(data: dict, key: str, kind: type, default=None):
    """data[key] of type kind; default (when given) stands for a missing key."""
    value = data[key] if default is None else data.get(key, default)
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _point_from_json(xy) -> Point2:
    return Point2(*rats(xy, 2))


def _extended_from_json(data: dict) -> ExtendedPoint:
    if _field(data, "at_infinity", bool, False):
        d = _point_from_json(data["dir"])
        return ExtendedPoint.at_infinity(d.x1, d.x2)
    return ExtendedPoint.finite(_point_from_json(data["xy"]))


def _piece_from_json(p: dict) -> Piece:
    kind = _field(p, "kind", str)
    if kind == "segment":
        return Segment.of(_point_from_json(p["a"]), _point_from_json(p["b"]))
    if kind == "ray":
        d = _point_from_json(p["dir"])
        return Ray.of(_point_from_json(p["base"]), d.x1, d.x2)
    raise ValueError(f"unknown piece kind {kind!r}")


def section_from_json(data) -> ConicSection:
    """Decode section_to_json output; any malformed input raises ValueError."""
    try:
        trace = data.get("trace")
        warnings = _field(data, "warnings", list, [])
        if any(type(w) is not str for w in warnings):
            raise ValueError(f"'warnings' must be a list of strings, got {warnings!r}")
        return ConicSection(
            klass=_field(data, "class", str),
            pieces=[_piece_from_json(p) for p in _field(data, "pieces", list)],
            vertices=[
                Vertex(_field(v, "ref", int), _SIGN_OF[v["sign"]], _extended_from_json(v))
                for v in _field(data, "vertices", list, [])
            ],
            aux_points=[
                AuxPoint(_field(a, "pair", str), _extended_from_json(a), _field(a, "active", bool))
                for a in _field(data, "aux", list, [])
            ],
            trace=None if trace is None else Line2.of(*rats(trace, 3)),
            ref_lines=[
                (_field(r, "index", int), Line2.of(*rats(r["line"], 3)), _field(r, "active", bool))
                for r in _field(data, "ref_lines", list, [])
            ],
            warnings=warnings,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed section: {exc}") from exc
