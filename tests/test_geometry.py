import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxiconics import (
    Line2,
    Ray,
    Segment,
    intersect_lines,
    line_through,
    point2,
    rat,
    side_of_line,
)
from taxiconics.errors import CoincidentPoints, IdenticalLines
from taxiconics.geometry import (
    clip_interval,
    piece_contains,
    piece_point_at,
    primitive_direction,
    projective_direction,
)

coords = st.builds(
    lambda n, d: rat(n, d),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)
points = st.builds(point2, coords, coords)


def test_line_through_examples():
    assert line_through(point2(0, 0), point2(1, 1)) == Line2.of(1, -1, 0)
    assert line_through(point2(1, 0), point2(1, 5)) == Line2.of(1, 0, -1)
    g = line_through(point2(rat(3, 2), 1), point2(rat(3, 2), rat(15, 2)))
    assert g == Line2.of(2, 0, -3)  # x1 = 3/2
    assert g.value_at(point2(rat(3, 2), 1)) == 0
    assert g.value_at(point2(rat(3, 2), rat(15, 2))) == 0


def test_line_through_coincident_points():
    with pytest.raises(CoincidentPoints):
        line_through(point2(2, 3), point2(2, 3))


def test_intersect_lines_examples():
    p = intersect_lines(Line2.of(1, 0, -1), Line2.of(0, 1, -2))
    assert p.is_finite and p.point == point2(1, 2)
    q = intersect_lines(Line2.of(1, 0, 0), Line2.of(1, 0, -1))
    assert not q.is_finite and q.direction == point2(0, 1)
    r = intersect_lines(Line2.of(1, -1, 0), Line2.of(1, 1, -2))
    assert r.point == point2(1, 1)


def test_intersect_identical_lines():
    with pytest.raises(IdenticalLines):
        intersect_lines(Line2.of(2, 4, 6), Line2.of(1, 2, 3))


def test_side_of_line_examples():
    assert side_of_line(Line2.of(1, 0, 0), point2(0, 7)) == 0
    g = Line2.of(rat(1, 2), rat(1, 5), 1)
    p = point2(rat(3, 2), 1)
    assert side_of_line(g, p) == 1
    assert rat(1, 2) * p.x1 + rat(1, 5) * p.x2 + 1 == rat(39, 20)
    assert side_of_line(g, point2(-5, rat(-10, 3))) == -1


def test_canonicalization_is_idempotent():
    g = Line2.of(rat(1, 2), rat(1, 5), 1)
    assert Line2.of(g.c1, g.c2, g.c0) == g
    d = projective_direction(rat(-3, 4), rat(-1, 2))
    assert projective_direction(d.x1, d.x2) == d


def test_directions():
    assert primitive_direction(rat(-3, 2), -1) == point2(-3, -2)
    assert projective_direction(rat(-3, 2), -1) == point2(3, 2)
    assert projective_direction(0, -5) == point2(0, 1)


@settings(deadline=None, max_examples=200)
@given(points, points)
def test_incidence_property(p, q):
    if p == q:
        return
    g = line_through(p, q)
    assert side_of_line(g, p) == 0
    assert side_of_line(g, q) == 0


@settings(deadline=None, max_examples=200)
@given(points, points, points, points)
def test_intersection_symmetric_and_incident(p, q, r, s):
    if p == q or r == s:
        return
    g, h = line_through(p, q), line_through(r, s)
    if g == h:
        return
    x = intersect_lines(g, h)
    assert x == intersect_lines(h, g)
    if x.is_finite:
        assert side_of_line(g, x.point) == 0
        assert side_of_line(h, x.point) == 0


def test_piece_membership():
    seg = Segment.of(point2(0, 0), point2(2, 2))
    assert piece_contains(seg, point2(1, 1))
    assert piece_contains(seg, point2(0, 0))
    assert not piece_contains(seg, point2(3, 3))
    assert not piece_contains(seg, point2(1, 0))
    ray = Ray.of(point2(1, 0), 1, 0)
    assert piece_contains(ray, point2(10, 0))
    assert not piece_contains(ray, point2(0, 0))
    assert piece_point_at(ray, rat(5)) == point2(6, 0)


def test_segment_canonical_order():
    assert Segment.of(point2(2, 0), point2(0, 0)) == Segment.of(point2(0, 0), point2(2, 0))


def test_segment_span_is_stored_once_and_invisible_in_its_value():
    seg, twin = Segment.of(point2(2, 0), point2(0, 1)), Segment.of(point2(2, 0), point2(0, 1))
    before = (repr(seg), hash(seg), seg.to_json())
    assert seg.span is seg.span == (point2(0, 1), point2(2, -1), 1)
    assert "span" in vars(seg) and "span" not in vars(twin)
    assert (repr(seg), hash(seg), seg.to_json()) == before
    assert seg == twin and hash(seg) == hash(twin) and repr(seg) == repr(twin)


def reference_clip(origin, direction, forms, lo, hi):
    """clip_interval with the parameter bounds as Fractions, each end solved
    from its form on its own."""
    (qx, qy, q), (d1, d2) = origin, direction
    lo, hi = (None if b is None else rat(b) for b in (lo, hi))
    for h1, h2, h0 in forms:
        v0, v1 = h1 * qx + h2 * qy + h0 * q, h1 * d1 + h2 * d2
        if v1 == 0:
            if v0 < 0:
                return None
        elif v1 > 0:
            lo = rat(-v0, v1) if lo is None else max(lo, rat(-v0, v1))
        else:
            hi = rat(-v0, v1) if hi is None else min(hi, rat(-v0, v1))
    if lo is not None and hi is not None and lo >= hi:
        return None
    return tuple(None if t is None else point2((qx + t * d1) / q, (qy + t * d2) / q) for t in (lo, hi))


small = st.integers(-6, 6)


@settings(max_examples=400, deadline=None)
@given(
    st.tuples(small, small, st.integers(1, 5)),
    st.tuples(small, small).filter(any),
    st.lists(st.tuples(small, small, small), max_size=5),
    st.one_of(st.none(), small),
    st.one_of(st.none(), small),
)
def test_clip_interval_matches_fraction_reference(origin, direction, forms, lo, hi):
    assert clip_interval(origin, direction, forms, lo, hi) == reference_clip(origin, direction, forms, lo, hi)


def test_clip_interval_examples():
    box = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]  # |x| <= 1, |y| <= 1
    # the diagonal through the origin, corner to corner
    assert clip_interval((0, 0, 1), (1, 1), box) == (point2(-1, -1), point2(1, 1))
    # a ray from the origin, and a segment that stops inside the box
    assert clip_interval((0, 0, 2), (1, 0), box, 0) == (point2(0, 0), point2(1, 0))
    assert clip_interval((0, 0, 2), (1, 0), box, 0, 1) == (point2(0, 0), point2(rat(1, 2), 0))
    # unbounded on one side, a single point, and a miss
    assert clip_interval((0, 0, 1), (0, 1), [(0, 1, 0)]) == (point2(0, 0), None)
    assert clip_interval((0, 2, 1), (1, -1), box) is None
    assert clip_interval((0, 3, 1), (1, 0), box) is None


@settings(max_examples=200)
@given(points, points, st.integers(-6, 6), st.integers(-6, 6))
def test_piece_ends_are_the_span_ends(p, q, dx, dy):
    # the stored ends equal q and q + hi d of the span, for segments and rays
    pieces = [] if p == q else [Segment.of(p, q)]
    pieces += [] if dx == dy == 0 else [Ray.of(p, dx, dy)]
    for piece in pieces:
        base, _, hi = piece.span
        assert piece.ends == ((base,) if hi is None else (base, piece_point_at(piece, hi)))
