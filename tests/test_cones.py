import random

import pytest

from taxiconics import (
    Line2,
    characterizing_strip,
    cone_from_json,
    cone_from_raw,
    cone_to_json,
    make_cone,
    normalize_line,
    normalize_plane,
    point2,
    rat,
    rat_str,
    reference_lines,
    side_of_line,
    strip_position,
    trace_line_PS,
)
from taxiconics.cones import BOUNDARY, INSIDE, OUTSIDE, positive_kappa
from taxiconics.errors import DegenerateCone, NonPositiveKappa, ZeroVector

from conftest import random_cone, rnd_rat


def test_normalize_plane_examples():
    p = normalize_plane((1, 2, 4))
    assert (p.A1, p.A2, p.delta) == (rat(1, 4), rat(1, 2), 1)
    assert p.M == 1 and p.steepness == "shallow"
    p = normalize_plane((2, 0, 1))
    assert (p.A1, p.A2, p.M, p.steepness) == (rat(2), rat(0), rat(2), "steep")
    p = normalize_plane((3, 0, 0))
    assert (p.A1, p.A2, p.delta, p.steepness) == (rat(1), rat(0), 0, "vertical")
    # delta = 0 collapses the double cover: the leading nonzero entry is positive
    assert normalize_plane((rat(-3, 2), 0, 0)) == p
    assert (normalize_plane((-2, 4, 0)).A1, normalize_plane((0, -4, 0)).A2) == (1, 1)
    assert normalize_plane((0, 0, 7)).steepness == "horizontal"
    assert normalize_plane((1, 1, 1)).steepness == "transitional"
    with pytest.raises(ZeroVector):
        normalize_plane((0, 0, 0))


def test_normalize_line_examples():
    l = normalize_line((3, 2, 2))
    assert (l.a1, l.a2, l.a3, l.klass) == (rat(3, 2), rat(1), 1, "intermediate")
    l = normalize_line((0, 0, 5))
    assert (l.a1, l.a2, l.a3, l.klass) == (rat(0), rat(0), 1, "steep")
    l = normalize_line((6, 2, 0))
    assert (l.a1, l.a2, l.a3, l.klass) == (rat(3), rat(1), 0, "horizontal")
    assert normalize_line((-6, -2, 0)) == l
    assert normalize_line((1, 0, 2)).klass == "steep"
    assert normalize_line((4, 0, 2)).klass == "shallow"
    assert normalize_line((2, 1, 1)).klass == "transitional"


def test_normalization_scale_invariant_and_idempotent():
    rng = random.Random(3)
    for _ in range(200):
        raw = (rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        if all(c == 0 for c in raw):
            continue
        s = rnd_rat(rng, 1, 5)
        if s == 0:
            continue
        scaled = tuple(s * c for c in raw)
        for norm in (normalize_plane, normalize_line):
            n1 = norm(raw)
            assert norm(scaled) == n1
            assert norm(n1.triple()) == n1


def test_make_cone_examples():
    with pytest.raises(DegenerateCone):
        cone_from_raw((1, 0, 1), (-1, 0, 1), 1)
    cone = cone_from_raw((rat(1, 2), rat(1, 5), 1), (rat(3, 2), 1, 1), 2)
    assert cone.incidence == rat(39, 20)
    cone_from_raw((rat(1, 2), rat(1, 3), 1), (3, 1, 0), 1)
    with pytest.raises(NonPositiveKappa):
        cone_from_raw((1, 0, 1), (0, 0, 1), 0)


@pytest.mark.parametrize("kappa", ["-1", "0", -2, rat(-1, 3)])
def test_positive_kappa_is_the_one_kappa_rule(kappa):
    assert positive_kappa("3/2") == rat(3, 2)
    with pytest.raises(NonPositiveKappa, match=f"kappa must be positive, got {rat_str(rat(kappa))}$"):
        positive_kappa(kappa)
    with pytest.raises(NonPositiveKappa, match="kappa must be positive"):
        cone_from_raw((1, 0, 1), (0, 0, 1), kappa)


def test_degeneracy_matches_trace_incidence():
    rng = random.Random(4)
    for _ in range(500):
        A = (rnd_rat(rng), rnd_rat(rng), 1) if rng.random() > 0.2 else (rnd_rat(rng), rnd_rat(rng), 0)
        if all(c == 0 for c in A):
            continue
        a = (rnd_rat(rng), rnd_rat(rng), 1)
        plane, line = normalize_plane(A), normalize_line(a)
        trace = trace_line_PS(plane)
        if trace is None:
            continue
        on_trace = side_of_line(trace, line.point) == 0
        try:
            make_cone(plane, line, 1)
            degenerate = False
        except DegenerateCone:
            degenerate = True
        assert degenerate == on_trace


def test_trace_line_examples():
    assert trace_line_PS(normalize_plane((1, 0, 1))) == Line2.of(1, 0, 1)
    assert trace_line_PS(normalize_plane((0, 0, 1))) is None
    assert trace_line_PS(normalize_plane((rat(1, 2), rat(1, 5), 1))) == Line2.of(5, 2, 10)


def test_reference_lines_examples():
    refs = reference_lines(normalize_line((rat(3, 2), 1, 1)))
    assert [(i, act) for i, _, act in refs] == [(1, True), (2, True), (3, True)]
    by_index = {i: g for i, g, _ in refs}
    assert by_index[1] == Line2.of(0, 1, -1)
    assert by_index[2] == Line2.of(2, 0, -3)
    assert by_index[3] == Line2.of(2, -3, 0)  # x2 = (2/3) x1

    refs = reference_lines(normalize_line((0, 0, 1)))
    assert [(i, act) for i, _, act in refs] == [(1, True), (2, True)]

    refs = reference_lines(normalize_line((3, 1, 0)))
    assert [(i, act) for i, _, act in refs] == [(3, True)]
    assert refs[0][1] == Line2.of(1, -3, 0)


def test_active_reference_count_invariant():
    rng = random.Random(5)
    for _ in range(300):
        cone = random_cone(rng)
        line = cone.line
        n_active = sum(1 for _, _, act in reference_lines(line) if act)
        if line.is_horizontal:
            assert n_active == 1
        elif line.klass == "intermediate":
            assert n_active == 3
        else:
            assert n_active == 2


def test_characterizing_strip_examples():
    plane = normalize_plane((rat(2, 3), rat(1, 5), 1))
    line = normalize_line((rat(9, 10), rat(9, 10), 1))
    strip = characterizing_strip(make_cone(plane, line, 1))
    assert strip.half_width == 1
    assert strip_position(strip, point2(rat(9, 10), rat(9, 10))) == INSIDE
    assert strip.value_at(point2(rat(9, 10), rat(9, 10))) == rat(117, 150)

    strip = characterizing_strip(make_cone(plane, line, rat(3, 2)))
    assert strip.half_width == rat(2, 3)
    assert strip_position(strip, point2(rat(31, 40), rat(3, 4))) == BOUNDARY
    assert strip_position(strip, point2(rat(3, 2), rat(3, 4))) == OUTSIDE
    assert strip.value_at(point2(rat(3, 2), rat(3, 4))) == rat(23, 20)

    horizontal = make_cone(normalize_plane((0, 0, 1)), line, 5)
    strip = characterizing_strip(horizontal)
    rng = random.Random(6)
    for _ in range(20):
        p = point2(rnd_rat(rng, -100, 100), rnd_rat(rng, -100, 100))
        assert strip_position(strip, p) == INSIDE


def _diamond_relation(trace):
    """Exact relation of a line to the unit taxicab circle via corner signs."""
    corners = [point2(1, 0), point2(0, 1), point2(-1, 0), point2(0, -1)]
    signs = [side_of_line(trace, c) for c in corners]
    if any(s > 0 for s in signs) and any(s < 0 for s in signs):
        return "crosses_open_disk"
    if any(s == 0 for s in signs):
        return "touches_circle"
    return "misses_disk"


def test_steepness_matches_diamond_relation():
    rng = random.Random(8)
    checked = 0
    while checked < 500:
        A = (rnd_rat(rng), rnd_rat(rng), 1) if rng.random() > 0.25 else (rnd_rat(rng), rnd_rat(rng), 0)
        if (A[0] == 0 and A[1] == 0):
            continue
        plane = normalize_plane(A)
        trace = trace_line_PS(plane)
        rel = _diamond_relation(trace)
        if plane.steepness in ("steep", "vertical"):
            assert rel == "crosses_open_disk"
        elif plane.steepness == "transitional":
            assert rel == "touches_circle"
        else:
            assert plane.steepness == "shallow" and rel == "misses_disk"
        checked += 1


def test_cone_json_round_trip():
    cone = cone_from_raw((rat(1, 2), rat(1, 5), 1), (rat(3, 2), 1, 1), 2)
    data = cone_to_json(cone)
    assert data == {"A": ["1/2", "1/5", "1"], "a": ["3/2", "1", "1"], "kappa": "2"}
    again = cone_from_json(data)
    assert again == cone


def test_cone_json_rejects_malformed():
    with pytest.raises(ValueError):
        cone_from_json({"A": ["1", "0"], "a": ["0", "0", "1"], "kappa": "1"})
    with pytest.raises(ValueError):
        cone_from_json({"A": ["1", "0", "1"], "a": ["0", "0", "1"], "kappa": "1/0"})
