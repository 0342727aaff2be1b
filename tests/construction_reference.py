"""Fraction reference for the integer closed forms of the construction.

sections.vertex_slot and sections.auxiliary_points compute in the cone's
integer frame (cones.IntegerFrame).  The functions here compute the same
points from the cone's Fraction parameters, one rational operation at a time:
reference_vertex_slot is the vertex a + (e/den) r_i, and reference_ps_meet is
the point where P^S meets the line p + t w.
"""

from __future__ import annotations

from taxiconics.cones import reference_directions
from taxiconics.geometry import ExtendedPoint, Point2

_SIGN_CHAR = {1: "+", -1: "-"}


def reference_vertex_slot(cone, index: int, sgn: int) -> ExtendedPoint:
    """On rho^i = b + t r_i the vertex b + (e/den) r_i, with e the incidence
    and den = sgn M/kappa - A.r_i, at infinity along r_i when den = 0; for a
    horizontal line b = 0 and t = -(delta + sgn M/kappa)/e."""
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


def reference_ps_meet(plane, p, w) -> ExtendedPoint:
    """Where P^S meets the line p + t w; at infinity when they are parallel."""
    den = plane.A1 * w[0] + plane.A2 * w[1]
    if den == 0:
        return ExtendedPoint.at_infinity(-plane.A2, plane.A1)
    t = -(plane.A1 * p[0] + plane.A2 * p[1] + plane.delta) / den
    return ExtendedPoint.finite(Point2(p[0] + t * w[0], p[1] + t * w[1]))


def reference_aux_locations(cone) -> dict:
    """Label -> location of every auxiliary point, from reference_ps_meet on
    the lines that sections.auxiliary_points names: p = a, w = r_i - sigma r_j
    for a non-horizontal line; p = (0, -s) (family I) or (-s, 0) (family II),
    w = (a1, a2) for a horizontal one."""
    plane, line = cone.plane, cone.line
    a = (line.a1, line.a2)
    if line.is_horizontal:
        return {
            f"{family}{_SIGN_CHAR[s]}": reference_ps_meet(plane, (0, -s) if family == "I" else (-s, 0), a)
            for family in ("I", "II")
            for s in (1, -1)
        }
    refs = reference_directions(line)
    indices = list(refs)
    out = {}
    for k, i in enumerate(indices):
        for j in indices[k + 1:]:
            for s in (1, -1):
                sigma = s if (i, j) == (1, 2) else -s
                w = (refs[i][0] - sigma * refs[j][0], refs[i][1] - sigma * refs[j][1])
                out[f"{i},{j}{_SIGN_CHAR[s]}"] = reference_ps_meet(plane, a, w)
    return out
