import math
import random

import pytest

from taxiconics import (
    dist_to_line,
    dist_to_plane,
    dominance_class,
    normalize_line,
    normalize_plane,
    point3,
    rat,
    taxicab_dist,
    wedge_index,
)
from taxiconics.errors import ZeroComponent, ZeroVector

from conftest import rnd_rat
from float_reference import numeric_dist_to_line, numeric_dist_to_plane, partial_line_dist, partial_plane_dist


def test_taxicab_dist_examples():
    assert taxicab_dist(point3(0, 0, 0), point3(1, 2, 3)) == 6
    assert taxicab_dist(point3(1, 1, 1), point3(1, 1, 1)) == 0
    assert taxicab_dist(point3(rat(3, 2), 1, 1), point3(rat(-9, 20), 1, 1)) == rat(39, 20)


def test_dist_to_plane_examples():
    assert dist_to_plane(point3(1, 2, 3), normalize_plane((1, 0, 0))) == 1
    plane = normalize_plane((rat(2, 3), rat(1, 5), 1))
    on_plane = point3(rat(-3, 2), 0, 1)  # 2/3 * -3/2 + 1 = 0
    assert dist_to_plane(on_plane, plane) == 0
    assert dist_to_plane(point3(rat(9, 10), rat(9, 10), 1), plane) == rat(89, 50)


def test_dist_to_plane_matches_numeric_minimization():
    plane = (rat(2, 3), rat(1, 5), rat(1))
    x = point3(rat(9, 10), rat(9, 10), 1)
    exact = float(dist_to_plane(x, normalize_plane(plane)))
    approx = numeric_dist_to_plane(x, plane)
    assert abs(exact - approx) < 1e-7


def test_dist_to_line_examples():
    line = normalize_line((3, 1, 2))
    assert dist_to_line(point3(3, 1, 2), line) == 0  # x = 2 * (3/2, 1/2, 1)
    assert dist_to_line(point3(1, 2, 3), normalize_line((0, 0, 1))) == 3
    assert dist_to_line(point3(0, 0, 1), normalize_line((3, 1, 0))) == 1


def test_dominance_class_examples():
    assert dominance_class((0, 0, 1)).kind == "dominant"
    assert dominance_class((0, 0, 1)).index == 3
    d = dominance_class((2, 1, 1))
    assert d.is_transitional and d.index == 1
    assert dominance_class((rat(3, 2), 1, 1)).index is None
    with pytest.raises(ZeroVector):
        dominance_class((0, 0, 0))


def test_dominance_tie_break():
    # two components transitionally dominate; index 3 then 1 preferred
    assert dominance_class((1, 0, 1)).index == 3
    assert dominance_class((0, 1, 1)).index == 3
    assert dominance_class((1, 1, 0)).index == 1


def test_wedge_index_examples():
    line = normalize_line((1, 1, 1))
    assert wedge_index(point3(rat(1, 4), 0, rat(3, 4)), line) == {1}
    assert wedge_index(point3(1, 1, 1), line) == {1, 2, 3}
    assert wedge_index(point3(0, 0, 1), line) == {1, 2}
    with pytest.raises(ZeroComponent):
        wedge_index(point3(1, 1, 1), normalize_line((0, 0, 1)))


def test_plane_distance_is_min_of_partials():
    rng = random.Random(11)
    for _ in range(1000):
        A = (rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        if all(c == 0 for c in A):
            continue
        x = point3(rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        parts = [partial_plane_dist(x, A, i) for i in (1, 2, 3)]
        assert dist_to_plane(x, normalize_plane(A)) == min(parts)


def test_line_distance_agrees_with_numeric_oracle():
    rng = random.Random(12)
    for _ in range(1000):
        a = (rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        if all(c == 0 for c in a):
            continue
        x = point3(rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        exact = float(dist_to_line(x, normalize_line(a)))
        assert abs(exact - numeric_dist_to_line(x, a)) < 1e-9


def test_line_distance_scale_invariant():
    rng = random.Random(13)
    for _ in range(200):
        a = (rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        if all(c == 0 for c in a):
            continue
        s = rnd_rat(rng)
        if s == 0:
            continue
        x = point3(rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        assert dist_to_line(x, normalize_line(a)) == dist_to_line(x, normalize_line(tuple(s * c for c in a)))


def test_line_distance_translation_along_line():
    rng = random.Random(14)
    for _ in range(200):
        a = (rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        if all(c == 0 for c in a):
            continue
        t = rnd_rat(rng)
        x = point3(rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        shifted = point3(x.x1 + a[0] * t, x.x2 + a[1] * t, x.x3 + a[2] * t)
        line = normalize_line(a)
        assert dist_to_line(x, line) == dist_to_line(shifted, line)


def test_dominant_partial_holds_for_all_points():
    rng = random.Random(15)
    checked = 0
    while checked < 150:
        a = (rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        if all(c == 0 for c in a):
            continue
        dom = dominance_class(a)
        if dom.index is None:
            continue
        j, k = sorted({1, 2, 3} - {dom.index})
        x = point3(rnd_rat(rng), rnd_rat(rng), rnd_rat(rng))
        assert dist_to_line(x, normalize_line(a)) == partial_line_dist(x, a, (j, k))
        checked += 1


def test_partial_line_dist_infinite_when_unreachable():
    # moving only x1, x2 cannot reach the x3 axis from x3 != 0 offsets
    assert partial_line_dist(point3(1, 1, 1), (1, 1, 0), (1, 2)) == math.inf
