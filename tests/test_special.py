import random
from collections import Counter
from itertools import product

import pytest

from taxiconics import (
    Line2,
    build_section,
    cone_from_raw,
    focus_directrix_residual,
    horizontal_plane_section,
    make_cone,
    normalize_line,
    normalize_plane,
    parabola_slope_gap,
    parallel_plane_kappa,
    point2,
    rat,
    steep_line_similarity,
    trace_line_PS,
    u_kappa_classify_check,
    u_kappa_position,
)
from taxiconics.cones import BOUNDARY, INSIDE, OUTSIDE
from taxiconics.errors import (
    DegenerateCone,
    HorizontalLineWithHorizontalPlane,
    NonPositiveKappa,
    NotParallel,
    NotSteep,
    ZeroVector,
)
from taxiconics.geometry import Point2, Ray, Segment, piece_sort_key
from taxiconics.oracle import sample_piece_points
from taxiconics.sections import vertex_slot
from taxiconics.special import CIRCLE, HEXAGON, PARALLELOGRAM, RHOMBUS, _is_steepish

from conftest import rnd_rat
from test_census import VALUES, census_specs, section_shape


def test_horizontal_plane_shapes_fig12():
    cases = [
        ((1, rat(7, 4)), "hexagon"),
        ((rat(7, 4), rat(7, 4)), "hexagon"),
        ((rat(7, 4), rat(1, 2)), "parallelogram"),
        ((rat(3, 5), rat(3, 10)), "circle"),
        ((rat(7, 4), 0), "rhombus"),
    ]
    for (a1, a2), expected in cases:
        section, tag = horizontal_plane_section(normalize_line((a1, a2, 1)), 1)
        assert tag == expected
        assert section.klass == "ellipse"


def test_horizontal_plane_vertex_formulas():
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        a1, a2 = rnd_rat(rng), rnd_rat(rng)
        kappa = rat(rng.randrange(1, 15), rng.randrange(1, 5))
        line = normalize_line((a1, a2, 1))
        section, _ = horizontal_plane_section(line, kappa)
        locs = {(v.ref_index, v.sign): v.location.point for v in section.vertices}
        a = point2(a1, a2)
        offsets = {1: point2(1, 0), 2: point2(0, 1)}
        if (a1, a2) != (rat(0), rat(0)):
            offsets[3] = a
        for (idx, s), p in locs.items():
            off = offsets[idx]
            assert p == Point2(a.x1 + s * kappa * off.x1, a.x2 + s * kappa * off.x2)
        checked += 1


def test_horizontal_plane_kappa_rescales_around_a():
    line = normalize_line((rat(3, 5), rat(3, 10), 1))
    a = point2(rat(3, 5), rat(3, 10))
    lam = rat(7, 2)
    s1, _ = horizontal_plane_section(line, 1)
    s2, _ = horizontal_plane_section(line, lam)
    v1 = {(v.ref_index, v.sign): v.location.point for v in s1.vertices}
    v2 = {(v.ref_index, v.sign): v.location.point for v in s2.vertices}
    for key in v1:
        assert v2[key] - a == (v1[key] - a).scaled(lam)


def test_horizontal_plane_rejects_horizontal_line():
    with pytest.raises(HorizontalLineWithHorizontalPlane):
        horizontal_plane_section(normalize_line((1, 1, 0)), 1)


def test_u_kappa_position_examples():
    assert u_kappa_position(1, point2(0, 0)) == INSIDE
    assert u_kappa_position(1, point2(1, 0)) == BOUNDARY
    assert u_kappa_position(1, point2(rat(3, 2), 0)) == OUTSIDE
    # kappa < 1: petal disks reach beyond the central disk
    assert u_kappa_position(rat(1, 2), point2(rat(3, 2), 0)) == INSIDE
    assert u_kappa_position(rat(1, 2), point2(2, 0)) == BOUNDARY
    # boundary point on the central circle for kappa = 1
    assert u_kappa_position(1, point2(rat(3, 5), rat(4, 5))) == BOUNDARY


def test_u_kappa_classify_check_examples():
    assert u_kappa_classify_check(1, point2(0, 0)).actual == "ellipse"
    assert u_kappa_classify_check(1, point2(1, 0)).actual == "parabola"
    assert u_kappa_classify_check(1, point2(rat(3, 2), 0)).actual == "hyperbola"
    assert u_kappa_classify_check(1, point2(rat(3, 5), rat(4, 5))).actual == "parabola"


def test_steep_line_similarity_example():
    plane = normalize_plane((rat(1, 2), rat(1, 5), 1))
    a = normalize_line((rat(1, 4), rat(1, 4), 1))
    b = normalize_line((0, rat(1, 2), 1))
    report = steep_line_similarity(plane, 2, a, b)
    assert report.ratio == rat(47, 44)
    assert not report.rotated_half_turn
    # deviations of the active vertices share the ratio (infinite slots pair up)
    ca, cb = make_cone(plane, a, 2), make_cone(plane, b, 2)
    for idx in (1, 2):
        for s in (1, -1):
            va = vertex_slot(ca, idx, s)
            vb = vertex_slot(cb, idx, s)
            assert va.is_finite == vb.is_finite
            if not va.is_finite:
                continue
            da = Point2(va.point.x1 - a.a1, va.point.x2 - a.a2)
            db = Point2(vb.point.x1 - b.a1, vb.point.x2 - b.a2)
            assert da.x1 == report.ratio * db.x1
            assert da.x2 == report.ratio * db.x2


def test_steep_line_similarity_identity_and_rotation():
    plane = normalize_plane((rat(1, 2), rat(1, 5), 1))
    a = normalize_line((rat(1, 4), rat(1, 4), 1))
    assert steep_line_similarity(plane, 1, a, a).ratio == 1
    report = steep_line_similarity(plane, 1, a, normalize_line((rat(-1, 4), rat(-1, 4), 1)))
    assert report.ratio == rat(47, 33) and not report.rotated_half_turn
    # a steep plane makes incidences of opposite signs reachable
    steep_plane = normalize_plane((3, 0, 1))
    report = steep_line_similarity(
        steep_plane, 1, normalize_line((rat(1, 2), 0, 1)), normalize_line((rat(-1, 2), 0, 1))
    )
    assert report.ratio == -5 and report.rotated_half_turn


def test_steep_line_similarity_accepts_transitionally_steep():
    plane = normalize_plane((rat(1, 5), rat(1, 3), 1))
    a = normalize_line((rat(1, 2), rat(1, 2), 1))  # |a1| + |a2| = 1
    assert a.klass == "transitional"
    steep_line_similarity(plane, 1, a, normalize_line((0, 0, 1)))  # raises no NotSteep


def test_steep_line_similarity_rejects_others():
    plane = normalize_plane((rat(1, 2), rat(1, 5), 1))
    with pytest.raises(NotSteep):
        steep_line_similarity(plane, 1, normalize_line((2, 0, 1)), normalize_line((0, 0, 1)))


def test_parallel_plane_kappa_cases():
    trans = normalize_plane((1, rat(1, 2), 1))
    steep = normalize_plane((2, 1, 1))
    shallow = normalize_plane((rat(1, 2), rat(1, 4), 1))
    assert parallel_plane_kappa(trans, steep, 1) == 1
    assert parallel_plane_kappa(shallow, trans, 1) == rat(1, 2)
    assert parallel_plane_kappa(shallow, steep, 1) == rat(1, 2)
    with pytest.raises(NotParallel):
        parallel_plane_kappa(trans, normalize_plane((1, 1, 1)), 1)


def _deviation(cone, idx, s, a_pt):
    v = vertex_slot(cone, idx, s)
    if not v.is_finite:
        return None
    return Point2(v.point.x1 - a_pt.x1, v.point.x2 - a_pt.x2)


def test_parallel_plane_similarity_on_sample_line():
    plane_a = normalize_plane((rat(1, 2), rat(1, 4), 1))
    plane_b = normalize_plane((2, 1, 1))
    kappa_a = rat(1)
    kappa_b = parallel_plane_kappa(plane_a, plane_b, kappa_a)
    line = normalize_line((rat(1, 4), 0, 1))
    ca = make_cone(plane_a, line, kappa_a)
    cb = make_cone(plane_b, line, kappa_b)
    c = plane_a.A1 / plane_b.A1
    expected = (ca.incidence / cb.incidence) / c
    a_pt = line.point
    flip = 1 if c > 0 else -1
    for idx in (1, 2, 3):
        for s in (1, -1):
            da = _deviation(ca, idx, s, a_pt)
            db = _deviation(cb, idx, flip * s, a_pt)
            assert (da is None) == (db is None)
            if da is None:
                continue
            if db.x1 != 0:
                assert da.x1 == expected * db.x1
            if db.x2 != 0:
                assert da.x2 == expected * db.x2


@pytest.mark.parametrize("kappa", ["-1", "0", -2, rat(-1, 3)])
def test_special_functions_reject_non_positive_kappa(kappa):
    # one rule, cones.positive_kappa, with make_cone's error and message
    message = "kappa must be positive, got "
    with pytest.raises(NonPositiveKappa, match=message):
        u_kappa_position(kappa, point2(0, 0))
    with pytest.raises(NonPositiveKappa, match=message):
        parallel_plane_kappa(normalize_plane((1, rat(1, 2), 1)), normalize_plane((2, 1, 1)), kappa)
    with pytest.raises(NonPositiveKappa, match=message):
        focus_directrix_residual(point2(0, 0), Line2.of(0, 1, 1), kappa, point2(0, 0))


def test_focus_directrix_residual_examples():
    directrix = Line2.of(0, 1, 1)
    assert focus_directrix_residual(point2(0, 0), directrix, 1, point2(0, rat(-1, 2))) == 0
    assert focus_directrix_residual(point2(0, 0), directrix, 1, point2(0, 0)) == -1


def test_focus_directrix_matches_both_steep_sections():
    cone = cone_from_raw((2, 0, 1), (rat(1, 4), rat(1, 4), 1), 1)
    section = build_section(cone)
    trace = trace_line_PS(cone.plane)
    focus = cone.line.point
    rng = random.Random(33)
    for piece in section.pieces:
        for p in sample_piece_points(piece, 8, rng):
            assert focus_directrix_residual(focus, trace, cone.kappa, p) == 0


def test_parabola_slope_gap_focus_directrix():
    # x1-direction edges: transverse slopes differ by one
    section = build_section(cone_from_raw((2, 0, 1), (0, 0, 1), 1))
    assert section.klass == "parabola"
    assert parabola_slope_gap(section) == 1
    # x2-direction edges
    section = build_section(cone_from_raw((0, 2, 1), (0, 0, 1), 1))
    assert parabola_slope_gap(section) == 1
    # skewed focus-directrix parabola
    section = build_section(cone_from_raw((rat(1, 2), 2, 1), (rat(1, 5), rat(1, 10), 1), 1))
    assert section.klass == "parabola"
    assert parabola_slope_gap(section) == 1


def test_parabola_slope_gap_near_miss_fig14():
    section = build_section(cone_from_raw((1, 4, 1), (2, 0, 1), 1))
    assert section.klass == "parabola"
    gap = parabola_slope_gap(section)
    assert gap is not None and gap != 1
    # edge slopes 1/8 and -3/8 through v2- = (2, -3/8), v3+- = (5, 0), (1, 0)
    assert gap == rat(1, 2)


def test_parabola_slope_gap_not_applicable():
    ellipse = build_section(cone_from_raw((0, 0, 1), (0, 0, 1), 1))
    assert parabola_slope_gap(ellipse) is None
    # parabola without axis-parallel unbounded edges
    slanted = build_section(
        cone_from_raw((rat(2, 3), rat(1, 5), 1), (rat(31, 40), rat(3, 4), 1), rat(3, 2))
    )
    assert slanted.klass == "parabola"
    assert parabola_slope_gap(slanted) is None


# ---------------------------------------------------------------------------
# special cases as exact piece maps over census cones


def test_horizontal_plane_tags_match_the_census_shapes():
    # Every census cone over the horizontal plane A = (0, 0, 1): a taxicab
    # circle, rhombus or parallelogram has four segments, a hexagon six.
    tags = Counter()
    for plane, line, kappa in census_specs():
        if plane != (0, 0, 1):
            continue
        try:
            cone = cone_from_raw(plane, line, kappa)
        except (DegenerateCone, ZeroVector):  # a horizontal line never meets the plane
            continue
        section, tag = horizontal_plane_section(cone.line, kappa)
        assert section == build_section(cone)
        assert section_shape(section) == ("ellipse", 6 if tag == HEXAGON else 4, 0, 0), (line, kappa, tag)
        tags[tag] += 1
    assert tags == {CIRCLE: 15, RHOMBUS: 24, PARALLELOGRAM: 60, HEXAGON: 48}  # 99 + 48


def similar_image(piece, a: Point2, b: Point2, lam):
    """The piece under x -> b + lam (x - a); a ray's direction scales by the
    sign of lam."""
    def image(p):
        return Point2(b.x1 + lam * (p.x1 - a.x1), b.x2 + lam * (p.x2 - a.x2))
    if isinstance(piece, Segment):
        return Segment.of(image(piece.a), image(piece.b))
    s = 1 if lam > 0 else -1
    return Ray.of(image(piece.base), s * piece.direction.x1, s * piece.direction.x2)


def test_steep_line_similarity_is_an_exact_piece_map():
    # Census (plane, kappa) groups drawn with a fixed seed; in each, every
    # steep or transitionally steep line b against the group's first such
    # line a, in census order.
    groups = {}
    for plane, line, kappa in census_specs():
        if line[2] == 1:
            groups.setdefault((plane, kappa), []).append(line)
    rng = random.Random(20240817)
    pairs = half_turns = with_rays = 0
    for key in rng.sample(sorted(groups), 60):
        plane, kappa = key
        cones = []
        for line in groups[key]:
            try:
                cone = cone_from_raw(plane, line, kappa)
            except (DegenerateCone, ZeroVector):
                continue
            if _is_steepish(cone.line):
                cones.append(cone)
        if not cones:  # the zero plane (0, 0, 0)
            continue
        first, *rest = cones
        pieces_a = build_section(first).pieces
        for cone in rest:
            lam = 1 / steep_line_similarity(cone.plane, kappa, first.line, cone.line).ratio
            image = sorted((similar_image(p, first.line.base, cone.line.base, lam) for p in pieces_a),
                           key=piece_sort_key)
            assert image == list(build_section(cone).pieces), (plane, kappa, first.line, cone.line)
            pairs += 1
            half_turns += lam < 0
            with_rays += any(isinstance(p, Ray) for p in pieces_a)
    assert (pairs, half_turns, with_rays) == (601, 179, 357)


def test_parallel_plane_similarity_is_an_exact_piece_map():
    # Every ordered pair of distinct census planes A = (A1, A2, 1) with
    # parallel traces, (A1, A2) = c (B1, B2), times every non-horizontal
    # census line a at kappa_A = 1: with kappa_B = parallel_plane_kappa, the
    # pieces over B are those over A under x -> a + lam (x - a), with
    # lam = c inc_B / inc_A.
    planes = [normalize_plane((A1, A2, 1)) for A1, A2 in product(VALUES, repeat=2) if (A1, A2) != (0, 0)]
    lines = [(a1, a2, 1) for a1, a2 in product(VALUES, repeat=2)]
    built = {}

    def section_cone(plane, line, kappa):
        key = (plane, line, kappa)
        if key not in built:
            cone = cone_from_raw(plane.triple(), line, kappa)
            built[key] = cone, build_section(cone).pieces
        return built[key]

    pairs = half_turns = with_rays = 0
    for plane_a, plane_b in product(planes, repeat=2):
        if plane_a == plane_b or plane_a.A1 * plane_b.A2 != plane_a.A2 * plane_b.A1:
            continue
        kappa_b = parallel_plane_kappa(plane_a, plane_b, 1)
        c = plane_a.A1 / plane_b.A1 if plane_b.A1 != 0 else plane_a.A2 / plane_b.A2
        for line in lines:
            try:
                cone_a, pieces_a = section_cone(plane_a, line, rat(1))
                cone_b, pieces_b = section_cone(plane_b, line, kappa_b)
            except DegenerateCone:
                continue
            lam = c * cone_b.incidence / cone_a.incidence
            a = cone_a.line.base
            image = sorted((similar_image(p, a, a, lam) for p in pieces_a), key=piece_sort_key)
            assert image == pieces_b, (plane_a.to_json(), plane_b.to_json(), line)
            pairs += 1
            half_turns += lam < 0
            with_rays += any(isinstance(p, Ray) for p in pieces_a)
    assert (pairs, half_turns, with_rays) == (6872, 2176, 5696)
