"""cone.residual_form against the Fraction reference d(x, ell) - kappa d(x, P).

exact_residual, the grid scan and reference_roots all read the form; reference_residual (conftest) computes the two distances with
metric.dist_to_line and metric.dist_to_plane instead.  The reference is also
linear between the breakpoints oracle.line_restriction gives on a line.
"""

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import taxiconics.cones as cones_module
from taxiconics import build_section, cone_from_raw, cone_to_json, point2, point3, rat
from taxiconics._rat import Rat
from taxiconics.cones import reference_directions
from taxiconics.errors import DegenerateCone, ZeroVector
from taxiconics.geometry import Point2, Segment
from taxiconics.metric import wedge_index
from taxiconics.oracle import (
    OracleConfig,
    check_piece,
    exact_residual,
    line_restriction,
    reference_roots,
    sample_piece_points,
    verify_cone,
)

from conftest import (
    horizontal_line_cones,
    random_cone,
    random_vertex_at_infinity_cones,
    reference_residual,
    rnd_rat,
    vertical_plane_cones,
)
from test_oracle import ACCEPTANCE_CONES, FIG8, _on_reference_line


def _tie_points(cone, rng, count=2):
    """Points on the reference lines rho^i: the traces of the wedge planes
    P^i, where two of the x_i/a_i tie (on a horizontal line's rho^3 it is
    x1/a1 = x2/a2)."""
    out = []
    for i in reference_directions(cone.line):
        for _ in range(count):
            p = _on_reference_line(cone, i, rnd_rat(rng, -6, 6, 12))
            a = cone.line.triple()
            if all(c != 0 for c in a):
                assert len(wedge_index(point3(p.x1, p.x2, 1), cone.line)) >= 2
            out.append(p)
    return out


def _points(cone, rng):
    """Sampled piece points, finite vertices, points off the section and on
    the wedge planes."""
    section = build_section(cone)
    pts = [v.location.point for v in section.vertices if v.location.is_finite]
    for piece in section.pieces:
        pts += sample_piece_points(piece, 1, rng)
    pts += [Point2(rnd_rat(rng, -8, 8, 16), rnd_rat(rng, -8, 8, 16)) for _ in range(3)]
    return pts + _tie_points(cone, rng)


def _assert_form_matches_reference(cones, seed):
    rng = random.Random(seed)
    zeros = checked = 0
    for cone in cones:
        for p in _points(cone, rng):
            got = exact_residual(cone, p)
            assert type(got) is Rat and got == reference_residual(cone, p), (cone_to_json(cone), p)
            zeros += got == 0
            checked += 1
    # the piece points and vertices are zeros, the other points mostly not
    assert 0 < zeros < checked


def test_form_matches_reference_on_acceptance_cones():
    _assert_form_matches_reference([cone_from_raw(*s) for s in ACCEPTANCE_CONES], 1)


def test_form_matches_reference_on_the_cone_family(cone_family):
    assert {c.line.dominance.kind for c in cone_family} == {
        "dominant", "transitionally_dominant", "none"}
    _assert_form_matches_reference(cone_family, 2)


def test_form_matches_reference_on_vertex_at_infinity_cones():
    _assert_form_matches_reference(random_vertex_at_infinity_cones(1000, 20240811), 3)


def test_form_matches_reference_on_horizontal_lines_and_vertical_planes():
    horizontal = horizontal_line_cones(200, 4)
    vertical = vertical_plane_cones(200, 5)
    assert all(c.line.is_horizontal for c in horizontal)
    assert all(c.plane.delta == 0 for c in vertical)
    _assert_form_matches_reference(horizontal + vertical, 6)


def test_reference_roots_match_the_reference_residual(cone_family):
    # on every defined rho^i, active or not: the reference residual is zero
    # at each root, and nonzero between roots and beyond the last ones
    nonzero = 0
    for cone in cone_family[:300] + [cone_from_raw(*s) for s in ACCEPTANCE_CONES]:
        for i in reference_directions(cone.line):
            roots, interval = reference_roots(cone, i)
            assert not interval, (cone_to_json(cone), i)
            for t in roots:
                assert reference_residual(cone, _on_reference_line(cone, i, t)) == 0
            ends = [roots[0] - 1, *roots, roots[-1] + 1] if roots else [Rat(0)]
            for t in [(u + v) / 2 for u, v in zip(ends, ends[1:])] + ends[:1] + ends[-1:]:
                if t not in roots:
                    assert reference_residual(cone, _on_reference_line(cone, i, t)) != 0
                    nonzero += 1
    assert nonzero > 1000


rationals = st.builds(rat, st.integers(-12, 12), st.integers(1, 6))


@settings(deadline=None, max_examples=200)
@given(
    st.tuples(rationals, rationals, st.sampled_from([0, 1])),
    st.tuples(rationals, rationals, st.sampled_from([0, 1])),
    st.builds(rat, st.integers(1, 12), st.integers(1, 6)),
    st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5),
    st.floats(-20, 20),
)
def test_form_matches_reference_hypothesis(plane, line, kappa, points, t):
    try:
        cone = cone_from_raw(plane, line, kappa)
    except (DegenerateCone, ZeroVector):
        assume(False)
    for x, y in points:
        p = Point2(x, y)
        assert exact_residual(cone, p) == reference_residual(cone, p)
    for i in reference_directions(cone.line):
        p = _on_reference_line(cone, i, Rat(t))
        assert exact_residual(cone, p) == reference_residual(cone, p)


# ---------------------------------------------------------------------------
# the restriction to a line: linear between its breakpoints


def _lines(cone, rng):
    """Lines (q, r) of the slicing plane, q + t r: two random rational ones,
    the reference lines rho^i and the spans of the section's pieces."""
    out = [(Point2(rnd_rat(rng), rnd_rat(rng)), (rnd_rat(rng), rnd_rat(rng))) for _ in range(2)]
    out = [(q, r) for q, r in out if any(r)]
    out += [(cone.line.base, r) for r in reference_directions(cone.line).values()]
    return out + [piece.span[:2] for piece in build_section(cone).pieces]


def _stretches(breaks):
    """The stretches (a, b) between consecutive breakpoints, and the two end
    stretches, cut off w = 3 (1 + last - first breakpoint) beyond the outer
    breakpoints; with no breakpoint, one long stretch."""
    if not breaks:
        return [(Rat(-7), Rat(11))]
    w = 3 * (1 + breaks[-1] - breaks[0])
    ends = [breaks[0] - w, *breaks, breaks[-1] + w]
    return list(zip(ends, ends[1:]))


def _chords(section):
    """The chord v-z of each two segments v-w, w-z of the section."""
    segments = [piece for piece in section.pieces if isinstance(piece, Segment)]
    for one, two in combinations(segments, 2):
        shared = set(one.ends) & set(two.ends)
        if shared:
            (v,), (z,) = set(one.ends) - shared, set(two.ends) - shared
            yield Segment.of(v, z)


def _assert_linear_between_breakpoints(cone, rng) -> tuple[int, int]:
    """On each of _lines, the reference residual at 1/2 and 1/3 of the way
    along each stretch is the linear interpolation of its ends; and
    check_piece rejects each of _chords.  Returns the two counts."""
    form = cone.residual_form
    stretches = chords = 0
    for q, (r1, r2) in _lines(cone, rng):
        breaks, _ = line_restriction(form, q, (r1, r2))
        assert len(breaks) <= 4

        def f(t):
            return reference_residual(cone, Point2(q.x1 + t * r1, q.x2 + t * r2))

        for a, b in _stretches(breaks):
            fa, fb = f(a), f(b)
            for s in (Rat(1, 2), Rat(1, 3)):
                assert f(a + s * (b - a)) == fa + s * (fb - fa), (cone_to_json(cone), q, (r1, r2), a, b)
            stretches += 1
    for chord in _chords(build_section(cone)):
        assert check_piece(form, chord)[1], (cone_to_json(cone), chord)
        chords += 1
    return stretches, chords


def test_reference_is_linear_between_breakpoints(cone_family):
    # family cones (horizontal defining lines among them), cones with a
    # vertex at infinity, and horizontal defining lines alone
    cones = (cone_family[:150] + random_vertex_at_infinity_cones(100, 20240811)
             + horizontal_line_cones(60, 7))
    rng = random.Random(11)
    stretches = chords = 0
    for cone in cones:
        s, c = _assert_linear_between_breakpoints(cone, rng)
        stretches += s
        chords += c
    assert (stretches, chords) == (11665, 301)


@settings(deadline=None, max_examples=100)
@given(
    st.tuples(rationals, rationals, st.sampled_from([0, 1])),
    st.tuples(rationals, rationals, st.sampled_from([0, 1])),
    st.builds(rat, st.integers(1, 12), st.integers(1, 6)),
    st.integers(0, 2**32),
)
def test_reference_is_linear_between_breakpoints_hypothesis(plane, line, kappa, seed):
    try:
        cone = cone_from_raw(plane, line, kappa)
    except (DegenerateCone, ZeroVector):
        assume(False)
    _assert_linear_between_breakpoints(cone, random.Random(seed))


# ---------------------------------------------------------------------------
# the memo: one form per cone, invisible in the cone's value


@pytest.fixture
def form_builds(monkeypatch):
    calls = []
    build = cones_module.build_residual_form

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cones_module, "build_residual_form", counted)
    return calls


def test_verify_cone_builds_the_form_once(form_builds):
    cone = cone_from_raw(*FIG8)
    assert verify_cone(cone, OracleConfig(grid_n=21))["passed"]
    assert len(form_builds) == 1


def test_exact_residual_builds_the_form_once_per_cone(form_builds):
    rng = random.Random(8)
    cones = [random_cone(rng) for _ in range(3)]
    for cone in cones:
        for _ in range(70):
            exact_residual(cone, point2(rnd_rat(rng), rnd_rat(rng)))
    assert len(form_builds) == 3


def test_the_memo_leaves_the_cone_value_unchanged():
    cone, twin = cone_from_raw(*FIG8), cone_from_raw(*FIG8)
    before = (repr(cone), hash(cone), cone_to_json(cone))
    exact_residual(cone, point2(1, 1))
    assert "residual_form" in vars(cone) and "residual_form" not in vars(twin)
    assert (repr(cone), hash(cone), cone_to_json(cone)) == before
    assert cone == twin and hash(cone) == hash(twin) and repr(cone) == repr(twin)


def test_reference_roots_separate_vertices_half_apart():
    # v1+ and v1- lie on rho^1 at x1 = -13/8 and -9/8, 1/2 apart: a bracket
    # of +-1/2 around one ends on the other, and no bracket is needed here.
    # On rho^1 = a + t (1, 0), t = x1 - a1 = x1 + 4/3
    cone = cone_from_raw((1, rat(3, 4), 1), (rat(-4, 3), rat(-3, 2), 1), rat(1, 6))
    params = {v.label: v.location.point.x1 for v in build_section(cone).vertices if v.ref_index == 1}
    assert params == {"v1+": rat(-13, 8), "v1-": rat(-9, 8)}
    assert reference_roots(cone, 1) == ([rat(-7, 24), rat(5, 24)], False)
