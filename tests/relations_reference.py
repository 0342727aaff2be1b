"""Geometric reference for the connect-the-dots relations of sections._relations.

geometric_relations decides each relation and link from Fraction geometry:
the primitive direction of v - a picks a vertex's reference ray, the sign of
the trace form at v its side of P^S, and the trace normal orients the link
toward a vertex at infinity.  A horizontal plane has no trace, so all its
vertices count as on one side.  sections._relations decides the same facts
from the sign of each vertex's reference parameter alone.
"""

from __future__ import annotations

from taxiconics.cones import active_indices, reference_directions, trace_line_PS
from taxiconics.geometry import Point2, primitive_direction, side_of_line
from taxiconics.sections import ADJACENT, ANTI_ADJACENT, _angle_key, _relations


def geometric_rays(line):
    """Active reference rays (i, d), d = +-primitive r_i, sorted by exact angle."""
    refs = reference_directions(line)
    rays = []
    for i in active_indices(line):
        d = primitive_direction(*refs[i])
        rays += [(i, d), (i, Point2(-d.x1, -d.x2))]
    rays.sort(key=lambda ray: _angle_key(ray[1].x1, ray[1].x2))
    return rays


def geometric_relations(line, slots, trace):
    """(relations, links) as sections._relations returns them, except that
    each link direction is the primitive Point2 along the ray."""
    a = line.point
    rays = geometric_rays(line)
    n = len(rays)
    ray_pos = {ray: k for k, ray in enumerate(rays)}

    def consecutive(p1, p2):
        return (p1 - p2) % n in (1, n - 1)

    finite = {key: ep.point for key, ep in slots.items() if ep.is_finite}
    pos = {
        key: ray_pos[(key[0], primitive_direction(p.x1 - a.x1, p.x2 - a.x2))]
        for key, p in finite.items()
    }
    relations = []
    keys = sorted(finite)
    for ai, k1 in enumerate(keys):
        for k2 in keys[ai + 1:]:
            if k1[0] == k2[0]:
                continue
            same = trace is None or side_of_line(trace, finite[k1]) == side_of_line(trace, finite[k2])
            if same and consecutive(pos[k1], pos[k2]):
                relations.append(((k1, k2), ADJACENT))
            elif not same and consecutive(pos[k1], (pos[k2] + n // 2) % n):
                relations.append(((k1, k2), ANTI_ADJACENT))
    links = []
    for inf_key, ep in slots.items():
        if ep.is_finite:
            continue
        d = ep.direction
        outward = trace.c1 * d.x1 + trace.c2 * d.x2 > 0
        for key, p in finite.items():
            e = d if (trace.value_at(p) > 0) == outward else Point2(-d.x1, -d.x2)
            if consecutive(pos[key], ray_pos[(inf_key[0], e)]):
                links.append(((key, inf_key), e))
    return relations, links


def relations_agree(cone, verts) -> bool:
    """sections._relations equals the geometric reference on the vertices
    verts of a cone with a non-horizontal line."""
    slots = {(v.ref_index, v.sign): v.location for v in verts}
    relations, links = _relations(cone.line, slots)
    expected = geometric_relations(cone.line, slots, trace_line_PS(cone.plane))
    return (relations, [(key, primitive_direction(*w)) for key, w in links]) == expected
