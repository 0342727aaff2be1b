import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taxiconics import (
    Ray,
    Segment,
    adjacency,
    auxiliary_points,
    build_section,
    classify,
    cone_from_raw,
    make_cone,
    normalize_line,
    normalize_plane,
    point2,
    rat,
    section_from_json,
    section_to_json,
    section_topology,
    side_of_line,
    trace_line_PS,
    vertices,
)
from taxiconics._rat import sign
from taxiconics.errors import DegenerateCone, HorizontalPlane, ZeroVector
from taxiconics.cones import active_partial_pair, reference_directions
from taxiconics.geometry import (
    Line2,
    Point2,
    cross,
    line_through,
    piece_contains,
    piece_point_at,
    projective_direction,
)
from taxiconics.oracle import _rebuild_pieces, exact_residual, sample_piece_points
from taxiconics.sections import ADJACENT, ANTI_ADJACENT, _relations, vertex_slot

from conftest import random_cone, random_cones, random_vertex_at_infinity_cones
from relations_reference import relations_agree

FIG8 = ((rat(1, 2), rat(1, 5), 1), (rat(3, 2), 1, 1), 2)
FIG11 = ((rat(1, 2), rat(1, 3), 1), (3, 1, 0), 1)


def fig8_cone():
    return cone_from_raw(*FIG8)


def slot_map(verts):
    return {(v.ref_index, v.sign): v.location for v in verts}


def test_fig8_vertices():
    verts = slot_map(vertices(fig8_cone()))
    assert not verts[(1, 1)].is_finite
    assert verts[(1, 1)].direction == point2(1, 0)
    assert verts[(1, -1)].point == point2(rat(-9, 20), 1)
    assert verts[(2, 1)].point == point2(rat(3, 2), rat(15, 2))
    assert verts[(2, -1)].point == point2(rat(3, 2), rat(-25, 14))
    assert verts[(3, 1)].point == point2(-5, rat(-10, 3))
    assert verts[(3, -1)].point == point2(rat(-15, 29), rat(-10, 29))


def test_fig11_vertices():
    cone = cone_from_raw(*FIG11)
    verts = slot_map(vertices(cone))
    assert verts[(3, 1)].point == point2(rat(-36, 11), rat(-12, 11))
    assert verts[(3, -1)].point == point2(0, 0)
    # direct check: d((0,0,1), ell) = 1 = kappa d((0,0,1), P)
    assert exact_residual(cone, point2(0, 0)) == 0


def test_finite_vertices_satisfy_cone_equation():
    rng = random.Random(21)
    for _ in range(200):
        cone = random_cone(rng)
        for v in vertices(cone):
            if v.location.is_finite:
                assert exact_residual(cone, v.location.point) == 0


def test_aux_point_example_fig9():
    cone = cone_from_raw((rat(1, 2), rat(1, 4), 1), (2, rat(-1, 2), 1), rat(1, 2))
    aux = {a.pair: a for a in auxiliary_points(cone)}
    w = aux["2,3+"].location.point
    assert w == point2(rat(-4, 3), rat(-4, 3))
    assert rat(1, 2) * w.x1 + rat(1, 4) * w.x2 + 1 == 0
    # independence of kappa
    cone7 = cone_from_raw((rat(1, 2), rat(1, 4), 1), (2, rat(-1, 2), 1), 7)
    aux7 = {a.pair: a for a in auxiliary_points(cone7)}
    assert aux7["2,3+"].location == aux["2,3+"].location


def test_aux_points_on_trace_and_active_counts():
    rng = random.Random(22)
    intermediates = others = 0
    while intermediates < 60 or others < 60:
        cone = random_cone(rng, allow_horizontal_line=False, allow_horizontal_plane=False)
        trace = trace_line_PS(cone.plane)
        aux = auxiliary_points(cone)
        for a in aux:
            if a.location.is_finite:
                assert side_of_line(trace, a.location.point) == 0
        n_active = sum(1 for a in aux if a.active)
        if cone.line.klass == "intermediate":
            assert n_active == 3
            intermediates += 1
        else:
            assert n_active == 2
            others += 1


def test_aux_raises_for_horizontal_plane():
    cone = cone_from_raw((0, 0, 1), (1, 2, 1), 1)
    with pytest.raises(HorizontalPlane):
        auxiliary_points(cone)


def test_fig11_horizontal_aux_family():
    cone = cone_from_raw(*FIG11)
    aux = {a.pair: a for a in auxiliary_points(cone)}
    assert aux["I+"].active and aux["I-"].active
    assert not aux["II+"].active and not aux["II-"].active
    assert aux["I+"].location.point == point2(rat(-12, 11), rat(-15, 11))
    assert aux["I-"].location.point == point2(rat(-24, 11), rat(3, 11))
    trace = trace_line_PS(cone.plane)
    for label in ("I+", "I-", "II+", "II-"):
        assert side_of_line(trace, aux[label].location.point) == 0


def test_fig11_parallelogram():
    cone = cone_from_raw(*FIG11)
    verts = slot_map(vertices(cone))
    aux = {a.pair: a.location.point for a in auxiliary_points(cone) if a.active}
    v_plus, v_minus = verts[(3, 1)].point, verts[(3, -1)].point
    w_plus, w_minus = aux["I+"], aux["I-"]
    # opposite side vectors of the quadrilateral v+ w+ v- w- are equal
    assert w_plus - v_plus == v_minus - w_minus
    assert v_minus - w_plus == w_minus - v_plus


def test_fig8_aux_point_values():
    # frozen from the displayed closed forms, checked against the edge lines
    aux = {a.pair: a for a in auxiliary_points(fig8_cone())}
    assert aux["1,2+"].location.point == point2(-5, rat(15, 2))
    assert aux["1,2-"].location.point == point2(rat(-9, 7), rat(-25, 14))
    assert aux["1,3+"].location.point == point2(rat(-54, 29), rat(-10, 29))
    assert aux["1,3-"].location.point == point2(rat(-2, 3), rat(-10, 3))
    assert aux["2,3+"].location.point == point2(rat(-24, 23), rat(-55, 23))
    assert aux["2,3-"].location.point == point2(rat(-12, 5), 1)
    assert {p for p, a in aux.items() if a.active} == {"1,2-", "1,3-", "2,3-"}


# ---------------------------------------------------------------------------
# auxiliary points against the vertex-pair line search they replaced


def _combo_line(slots, i, si, j, sj):
    """Line through vertices v^{i si} and v^{j sj}; None if it is not
    constructible (both at infinity, or the two slots coincide)."""
    vi, vj = slots[(i, si)], slots[(j, sj)]
    if vi.is_finite and vj.is_finite:
        return None if vi.point == vj.point else line_through(vi.point, vj.point)
    if vi.is_finite or vj.is_finite:
        fin = vi.point if vi.is_finite else vj.point
        d = (vj if vi.is_finite else vi).direction
        return Line2.of(d.x2, -d.x1, -(d.x2 * fin.x1 - d.x1 * fin.x2))
    return None


def _on_line(g, location):
    if location.is_finite:
        return side_of_line(g, location.point) == 0
    d = g.direction()
    return projective_direction(d.x1, d.x2) == location.direction


def reference_family(slots, pair, location):
    """Sign product s_i s_j of the vertex pairs whose lines pass through an
    auxiliary point, by search: the first constructible line of each sign
    product decides."""
    i, j = pair
    for product in (1, -1):
        for si in (1, -1):
            gamma = _combo_line(slots, i, si, j, product * si)
            if gamma is None:
                continue
            if _on_line(gamma, location):
                return product
            break
    raise AssertionError("auxiliary point matches neither vertex-pair family")


def check_aux_on_vertex_pair_lines(cone):
    """Every auxiliary point lies on each constructible line through a
    vertex pair with s_i s_j = sigma, and its active flag is the one the
    family search gives.  Returns the points and the number of those lines."""
    line = cone.line
    aux = {a.pair: a for a in auxiliary_points(cone)}
    if line.is_horizontal:
        a = point2(line.a1, line.a2)
        for label, base in (("I+", (0, -1)), ("I-", (0, 1)), ("II+", (-1, 0)), ("II-", (1, 0))):
            assert cross(aux[label].location.point - point2(*base), a) == 0
        return aux.values(), 4
    slots = {(i, s): vertex_slot(cone, i, s) for i in reference_directions(line) for s in (1, -1)}
    single = active_partial_pair(line)
    active_slots = slot_map(vertices(cone))
    relations, _ = _relations(line, active_slots)
    related = {frozenset(key) for key, _ in relations}
    n_lines = 0
    for point in aux.values():
        i, j = (int(c) for c in point.pair[:-1].split(","))
        s = 1 if point.pair[-1] == "+" else -1
        sigma = s if (i, j) == (1, 2) else -s
        lines = [g for si in (1, -1) if (g := _combo_line(slots, i, si, j, sigma * si)) is not None]
        assert all(_on_line(g, point.location) for g in lines)
        n_lines += len(lines)
        if single is not None:
            assert point.active == ((i, j) == single)
        else:
            family = reference_family(active_slots, (i, j), point.location)
            assert point.active == any(
                frozenset(((i, si), (j, family * si))) in related for si in (1, -1)
            )
    return aux.values(), n_lines


def test_aux_points_on_vertex_pair_lines(cone_family):
    checked = lines = at_infinity = horizontal = 0
    cones = random_vertex_at_infinity_cones(1000, seed=20240811)
    for cone in cone_family + cones:
        if cone.plane.is_horizontal:
            continue
        aux, n_lines = check_aux_on_vertex_pair_lines(cone)
        checked += 1
        lines += n_lines
        horizontal += cone.line.is_horizontal
        at_infinity += any(not a.location.is_finite for a in aux)
    assert checked > 1900 and lines > 10 * checked and horizontal > 50 and at_infinity > 20


def test_vertex_sign_identities():
    # v^{i s} = a + t r_i with t = e/den and den = s M/kappa - A.r_i, so
    # A.v + delta = t s M/kappa: the side of P^S is s sign(t).  A vertex at
    # infinity has den = 0, that is A.r_i = s M/kappa
    finite = at_infinity = horizontal_planes = 0
    for cone in random_cones(2000, seed=20240811) + random_vertex_at_infinity_cones(1000, seed=20240811):
        plane, line = cone.plane, cone.line
        if line.is_horizontal:
            continue
        mk = plane.M / cone.kappa
        trace = trace_line_PS(plane)
        refs = reference_directions(line)
        for v in vertices(cone):
            (r1, r2), s = refs[v.ref_index], v.sign
            a_r = plane.A1 * r1 + plane.A2 * r2
            if not v.location.is_finite:
                assert a_r == s * mk
                at_infinity += 1
                continue
            t = cone.incidence / (s * mk - a_r)
            p = v.location.point
            assert p == point2(line.a1 + t * r1, line.a2 + t * r2)
            assert plane.A1 * p.x1 + plane.A2 * p.x2 + plane.delta == t * s * mk
            if trace is None:
                assert s * sign(t) == 1
                horizontal_planes += 1
            else:
                # trace_line_PS fixes the sign of its form: orient is +1 when
                # it keeps A1 x1 + A2 x2 + delta, -1 when it negates it
                orient = sign(trace.c1 * plane.A1 + trace.c2 * plane.A2)
                assert side_of_line(trace, p) == orient * s * sign(t)
            finite += 1
    assert finite > 10000 and at_infinity > 1000 and horizontal_planes > 500


def test_relations_equal_geometric_reference():
    checked = horizontal_planes = at_infinity = 0
    for cones in (random_cones(2000, seed=20240811), random_vertex_at_infinity_cones(1000, seed=20240811),
                  random_cones(2000, seed=1)):
        for cone in cones:
            if cone.line.is_horizontal:
                continue
            verts = vertices(cone)
            assert relations_agree(cone, verts)
            checked += 1
            horizontal_planes += cone.plane.is_horizontal
            at_infinity += any(not v.location.is_finite for v in verts)
    assert checked == 4527 and horizontal_planes > 300 and at_infinity > 1000


def test_adjacency_unit_circle():
    cone = cone_from_raw((0, 0, 1), (0, 0, 1), 1)
    rels = adjacency(cone)
    assert len(rels) == 4
    assert all(rel == ADJACENT for _, _, rel in rels)


def test_adjacency_fig8():
    cone = fig8_cone()
    rels = {
        frozenset((v.label, w.label)): rel for v, w, rel in adjacency(cone)
    }
    assert rels[frozenset(("v1-", "v2+"))] == ADJACENT
    assert rels[frozenset(("v1-", "v3-"))] == ADJACENT
    assert rels[frozenset(("v2-", "v3-"))] == ADJACENT
    assert rels[frozenset(("v2+", "v3+"))] == ANTI_ADJACENT
    # rays parallel to rho^1 link v2- and v3+ to the vertex at infinity
    assert rels[frozenset(("v2-", "v1+"))] == ADJACENT
    assert rels[frozenset(("v3+", "v1+"))] == ADJACENT
    # rho^3's ray lies between those of v1- and v2-: not adjacent
    assert frozenset(("v1-", "v2-")) not in rels


def test_adjacency_hyperbola_has_straddling_anti_pair():
    cone = cone_from_raw((rat(2, 3), rat(1, 5), 1), (rat(3, 2), rat(3, 4), 1), rat(3, 2))
    assert classify(cone) == "hyperbola"
    trace = trace_line_PS(cone.plane)
    antis = [
        (v, w)
        for v, w, rel in adjacency(cone)
        if rel == ANTI_ADJACENT and v.location.is_finite and w.location.is_finite
    ]
    assert antis
    for v, w in antis:
        assert side_of_line(trace, v.location.point) != side_of_line(trace, w.location.point)


def test_unit_circle_section():
    cone = cone_from_raw((0, 0, 1), (0, 0, 1), 1)
    section = build_section(cone)
    assert section.klass == "ellipse"
    expected = {
        Segment.of(point2(1, 0), point2(0, 1)),
        Segment.of(point2(0, 1), point2(-1, 0)),
        Segment.of(point2(-1, 0), point2(0, -1)),
        Segment.of(point2(0, -1), point2(1, 0)),
    }
    assert set(section.pieces) == expected


def test_fig8_section_shape():
    section = build_section(fig8_cone())
    assert section.klass == "hyperbola"
    rays = [p for p in section.pieces if isinstance(p, Ray)]
    segments = [p for p in section.pieces if isinstance(p, Segment)]
    assert len(rays) == 4 and len(segments) == 3
    # a ray parallel to rho^1 based at a finite vertex (vertex-at-infinity rule)
    horizontal = [r for r in rays if r.direction.x2 == 0]
    assert horizontal
    finite_vertices = {v.location.point for v in section.vertices if v.location.is_finite}
    assert all(r.base in finite_vertices for r in rays)


def test_fig11_section_is_four_rays():
    section = build_section(cone_from_raw(*FIG11))
    assert section.klass == "hyperbola"
    assert len(section.pieces) == 4
    assert all(isinstance(p, Ray) for p in section.pieces)
    dirs = sorted((r.direction.x1, r.direction.x2) for r in section.pieces)
    # two anti-parallel pairs: the aux-parallelogram edge directions
    assert dirs == sorted(
        [(rat(4), rat(5)), (rat(-4), rat(-5)), (rat(8), rat(-1)), (rat(-8), rat(1))]
    )
    assert section_topology(section.pieces) == "hyperbola"


def test_section_topology_refuses_an_open_chain_and_three_components():
    # two segments meeting at one end: one bounded component whose two free
    # ends have degree 1, neither closed nor unbounded
    chain = [Segment.of(point2(0, 0), point2(1, 0)), Segment.of(point2(1, 0), point2(1, 1))]
    with pytest.raises(ValueError, match=r"\(1 components\)"):
        section_topology(chain)
    apart = [Segment.of(point2(k, 0), point2(k, 1)) for k in range(3)]
    with pytest.raises(ValueError, match=r"\(3 components\)"):
        section_topology(apart)


def test_classify_fig10_panels():
    plane = (rat(2, 3), rat(1, 5), 1)
    assert classify(cone_from_raw(plane, (rat(9, 10), rat(9, 10), 1), 1)) == "ellipse"
    assert classify(cone_from_raw(plane, (rat(31, 40), rat(3, 4), 1), rat(3, 2))) == "parabola"
    assert classify(cone_from_raw(plane, (rat(3, 2), rat(3, 4), 1), rat(3, 2))) == "hyperbola"
    assert classify(cone_from_raw(plane, (1, 1, 1), rat(9, 4))) == "hyperbola"
    assert classify(cone_from_raw(*FIG11)) == "hyperbola"


def test_membership_soundness():
    rng = random.Random(23)
    for _ in range(40):
        cone = random_cone(rng)
        section = build_section(cone)
        for piece in section.pieces:
            for p in sample_piece_points(piece, 4, rng):
                assert exact_residual(cone, p) == 0
            p = piece_point_at(piece, rat(1, 3))
            eps = rat(1, 9931)
            d = piece.direction if isinstance(piece, Ray) else piece.b - piece.a
            off = Point2(p.x1 - d.x2 * eps, p.x2 + d.x1 * eps)
            if any(piece_contains(q, off) for q in section.pieces):
                continue
            assert exact_residual(cone, off) != 0


def test_membership_soundness_dense():
    # 50 on-piece samples per piece and 50 perpendicular perturbations
    rng = random.Random(30)
    specs = [
        ((rat(2, 3), rat(1, 5), 1), (rat(9, 10), rat(9, 10), 1), 1),
        FIG8,
        FIG11,
        ((1, 4, 1), (2, 0, 1), 1),
        ((3, 0, 0), (rat(1, 3), rat(1, 2), 1), rat(5, 2)),
        ((0, 0, 1), (1, rat(7, 4), 1), 1),
    ]
    for spec in specs:
        cone = cone_from_raw(*spec)
        section = build_section(cone)
        for piece in section.pieces:
            on_points = sample_piece_points(piece, 50, rng)
            for p in on_points:
                assert exact_residual(cone, p) == 0
            d = piece.direction if isinstance(piece, Ray) else piece.b - piece.a
            for p in on_points:
                eps = rat(rng.randrange(1, 50), 99991)
                off = Point2(p.x1 - d.x2 * eps, p.x2 + d.x1 * eps)
                if any(piece_contains(q, off) for q in section.pieces):
                    continue
                assert exact_residual(cone, off) != 0


def test_construction_agrees_with_aux_point_at_infinity():
    # generating lines parallel to the trace: the piece is a plain segment
    cone = cone_from_raw((1, 1, 1), (0, 0, 1), 1)
    aux = {a.pair: a for a in auxiliary_points(cone)}
    assert aux["1,2+"].active and not aux["1,2+"].location.is_finite
    assert _rebuild_pieces(cone) == build_section(cone).pieces


def test_construction_methods_agree():
    rng = random.Random(24)
    for _ in range(150):
        cone = random_cone(rng)
        assert _rebuild_pieces(cone) == build_section(cone).pieces


def test_rays_toward_vertices_at_infinity_of_an_inactive_aux_family():
    # cone 408 of random_cones(2000, seed=1): v1+ and v2+ are at infinity and
    # "1,2-" is an inactive auxiliary point, yet the finite vertices v2- and
    # v1- each carry a ray toward one of them
    cone = random_cones(2000, seed=1)[408]
    assert (cone.plane.A1, cone.plane.A2, cone.line.a1, cone.line.a2, cone.kappa) == (
        1, 1, rat(-13, 8), rat(-13, 8), 1
    )
    aux = {a.pair: a for a in auxiliary_points(cone)}
    assert not aux["1,2-"].active
    pieces = build_section(cone).pieces
    assert Ray.of(point2(rat(-13, 8), rat(-1, 2)), -1, 0) in pieces
    assert Ray.of(point2(rat(-1, 2), rat(-13, 8)), 0, -1) in pieces
    assert pieces == _rebuild_pieces(cone)


def test_construction_agrees_with_sector_solver_at_infinity():
    cones = random_vertex_at_infinity_cones(1000, seed=20240811)
    for cone in cones:
        assert _rebuild_pieces(cone) == build_section(cone).pieces
    # every reference line carries a vertex at infinity somewhere in the draw
    refs = {v.ref_index for c in cones for v in vertices(c) if not v.location.is_finite}
    assert refs == {1, 2, 3}


rationals = st.builds(rat, st.integers(-24, 24), st.integers(1, 8))


@settings(deadline=None, max_examples=150)
@given(rationals, rationals, st.sampled_from([0, 1]), rationals, rationals, st.sampled_from([0, 1]),
       st.sampled_from([0, 1, 2, 3]), st.builds(rat, st.integers(1, 24), st.integers(1, 6)))
def test_construction_agrees_with_sector_solver_hypothesis(A1, A2, delta, a1, a2, a3, pick, kappa):
    try:
        plane, line = normalize_plane((A1, A2, delta)), normalize_line((a1, a2, a3))
    except ZeroVector:
        assume(False)
    # pick 1..3 puts the vertex on rho^pick at infinity when that is possible
    targets = [abs(plane.A1), abs(plane.A2), abs(plane.A1 * line.a1 + plane.A2 * line.a2)]
    if pick and targets[pick - 1] != 0:
        kappa = plane.M / targets[pick - 1]
    try:
        cone = make_cone(plane, line, kappa)
    except DegenerateCone:
        assume(False)
    assert _rebuild_pieces(cone) == build_section(cone).pieces
    if not line.is_horizontal:
        assert relations_agree(cone, vertices(cone))


@settings(deadline=None, max_examples=150)
@given(rationals, rationals, st.sampled_from([0, 1]), rationals, rationals, st.sampled_from([0, 1]),
       st.sampled_from([0, 1, 2, 3]), st.builds(rat, st.integers(1, 24), st.integers(1, 6)))
def test_aux_points_on_vertex_pair_lines_hypothesis(A1, A2, delta, a1, a2, a3, pick, kappa):
    try:
        plane, line = normalize_plane((A1, A2, delta)), normalize_line((a1, a2, a3))
    except ZeroVector:
        assume(False)
    assume(not plane.is_horizontal)
    # pick 1..3 puts the vertex on rho^pick at infinity when that is possible
    targets = [abs(plane.A1), abs(plane.A2), abs(plane.A1 * line.a1 + plane.A2 * line.a2)]
    if pick and not line.is_horizontal and targets[pick - 1] != 0:
        kappa = plane.M / targets[pick - 1]
    try:
        cone = make_cone(plane, line, kappa)
    except DegenerateCone:
        assume(False)
    check_aux_on_vertex_pair_lines(cone)


def test_classification_matches_topology():
    rng = random.Random(25)
    for _ in range(200):
        cone = random_cone(rng)
        section = build_section(cone)
        assert section_topology(section.pieces) == section.klass


def test_every_finite_vertex_is_a_piece_endpoint():
    rng = random.Random(26)
    for _ in range(150):
        cone = random_cone(rng)
        section = build_section(cone)
        ends = set()
        for piece in section.pieces:
            if isinstance(piece, Segment):
                ends.update((piece.a, piece.b))
            else:
                ends.add(piece.base)
        for v in section.vertices:
            if v.location.is_finite:
                assert v.location.point in ends


def test_horizontal_vertex_sign_identity():
    # A1 v1 + A2 v2 + delta = -sign * M / kappa for horizontal lines
    rng = random.Random(27)
    checked = 0
    while checked < 100:
        cone = random_cone(rng)
        if not cone.line.is_horizontal:
            continue
        plane = cone.plane
        for s in (1, -1):
            v = vertex_slot(cone, 3, s).point
            value = plane.A1 * v.x1 + plane.A2 * v.x2 + plane.delta
            assert value == -s * plane.M / cone.kappa
        checked += 1


def test_inactive_slots_are_reported_only_on_request():
    cone = cone_from_raw((rat(1, 2), rat(1, 5), 1), (rat(1, 4), rat(1, 4), 1), 2)
    assert cone.line.klass == "steep"
    assert {v.ref_index for v in vertices(cone)} == {1, 2}
    # rho^3 is defined but inactive: vertex_slot gives its formula values,
    # which are not on the section
    for s in (1, -1):
        location = vertex_slot(cone, 3, s)
        assert location.is_finite
        assert exact_residual(cone, location.point) != 0


def test_no_transitional_warnings_for_valid_cones():
    rng = random.Random(28)
    checked = 0
    while checked < 120:
        cone = random_cone(rng)
        if cone.line.klass != "transitional":
            continue
        assert build_section(cone).warnings == []
        checked += 1


def test_pieces_never_cross_trace():
    rng = random.Random(29)
    for _ in range(100):
        cone = random_cone(rng, allow_horizontal_plane=False)
        trace = trace_line_PS(cone.plane)
        section = build_section(cone)
        for piece in section.pieces:
            for p in sample_piece_points(piece, 3, rng):
                assert side_of_line(trace, p) != 0


def test_section_json_round_trip():
    section = build_section(fig8_cone())
    data = section_to_json(section)
    again = section_from_json(data)
    assert again.pieces == section.pieces
    assert again.klass == section.klass
    assert [v.to_json() for v in again.vertices] == [v.to_json() for v in sorted(section.vertices, key=lambda v: (v.ref_index, -v.sign))]
    assert again.trace == section.trace
    assert section_to_json(again) == data


def test_build_section_computes_each_vertex_slot_once(monkeypatch):
    # and the sorted reference rays and the trace line at most once per cone
    import taxiconics.sections as sections

    calls = []

    def counting(name):
        real = getattr(sections, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    rng = random.Random(32)
    for _ in range(60):
        cone = random_cone(rng)
        active_slots = len(vertices(cone))
        calls.clear()
        with monkeypatch.context() as m:
            for name in ("vertex_slot", "_sorted_active_rays", "trace_line_PS"):
                m.setattr(sections, name, counting(name))
            build_section(cone)
        assert calls.count("vertex_slot") <= active_slots
        assert calls.count("_sorted_active_rays") <= 1
        assert calls.count("trace_line_PS") <= 1
