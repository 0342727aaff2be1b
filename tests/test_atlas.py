"""The integer sweep kernels against the scalar rational reference: per-cell
classify for atlas_sweep and special.u_kappa_check for ukappa_sweep."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxiconics import classify, make_cone, normalize_line, normalize_plane, rat, rat_str
from taxiconics.atlas import MAX_GRID, atlas_sweep, ukappa_sweep
from taxiconics.errors import DegenerateCone, NonPositiveKappa, ZeroVector
from taxiconics.geometry import Point2
from taxiconics.special import u_kappa_check

from conftest import random_kappa, random_plane_triple, rnd_rat

LETTER = {"ellipse": "E", "parabola": "P", "hyperbola": "H"}


def grid(lo, hi, n):
    lo, hi = rat(lo), rat(hi)
    return [lo + k * (hi - lo) / (n - 1) for k in range(n)]


def reference_atlas(plane, kappa, n, bbox):
    x0, y0, x1, y1 = bbox
    rows = []
    for y in grid(y0, y1, n):
        row = ""
        for x in grid(x0, x1, n):
            try:
                row += LETTER[classify(make_cone(plane, normalize_line((x, y, 1)), kappa))]
            except DegenerateCone:
                row += "D"
        rows.append(row)
    return rows


def reference_ukappa(kappa, n, bbox):
    x0, y0, x1, y1 = bbox
    rows, bad = [], []
    for y in grid(y0, y1, n):
        row = ""
        for x in grid(x0, x1, n):
            check = u_kappa_check(kappa, Point2(x, y))
            row += LETTER[check.actual]
            if not check.consistent:
                bad.append({"A": [rat_str(x), rat_str(y)],
                            "expected": check.expected, "actual": check.actual})
        rows.append(row)
    return rows, bad


GRIDS = [
    (2, ("-2", "-2", "2", "2")),
    (3, ("-2", "-2", "2", "2")),
    (10, ("-2", "-2", "2", "2")),
    (7, ("-3", "-3", "3", "3")),
    (9, ("-3/2", "-7/5", "5/3", "2/7")),
    (8, ("1/3", "-5/4", "9/2", "1/6")),
]

# name -> (plane triple, kappas); the kappas put |A1| or |A2| exactly on
# M/kappa, or the corners strictly inside or outside the strip.
PLANES = {
    "vertical": ((2, 3, 0), ["3/2", "1", "1/2", "3"]),
    "horizontal": ((0, 0, 1), ["1", "1/3", "4"]),
    "transitional": ((1, "1/2", 1), ["1", "2", "1/2"]),
    "shallow": (("2/3", "1/5", 1), ["3/2", "5", "1", "7/4"]),
    "steep": ((-2, "3/2", 1), ["1", "4/3", "1/2"]),
    "degenerate_column": ((1, 0, 1), ["1", "2/3"]),
    "degenerate_diagonal": ((1, 1, 1), ["1", "1/2", "3/2"]),
    "degenerate_vertical": ((1, -2, 0), ["1", "1/2"]),
}


@pytest.mark.parametrize("name", sorted(PLANES))
def test_atlas_matches_per_cell_classify(name):
    triple, kappas = PLANES[name]
    plane = normalize_plane(triple)
    for kappa in map(rat, kappas):
        for n, bbox in GRIDS:
            assert atlas_sweep(plane, kappa, n, bbox) == reference_atlas(plane, kappa, n, bbox)


def test_atlas_hits_degenerate_cells_and_boundary_corners():
    # The table above must reach both special cases the kernel handles.
    plane = normalize_plane((1, 1, 1))
    assert any("D" in row for row in atlas_sweep(plane, 1, 7, ("-3", "-3", "3", "3")))
    plane = normalize_plane(("2/3", "1/5", 1))  # |A1| = M/kappa at kappa 3/2
    assert "E" not in "".join(atlas_sweep(plane, rat(3, 2), 10))


def random_bbox(rng):
    while True:
        x0, x1, y0, y1 = (rnd_rat(rng, -3, 3, 6) for _ in range(4))
        if x0 < x1 and y0 < y1:
            return tuple(rat_str(c) for c in (x0, y0, x1, y1))


def test_atlas_matches_per_cell_classify_fixed_seeds():
    rng = random.Random(20240812)
    for _ in range(40):
        try:
            plane = normalize_plane(random_plane_triple(rng))
        except ZeroVector:
            continue
        kappa, bbox, n = random_kappa(rng), random_bbox(rng), rng.randrange(2, 9)
        assert atlas_sweep(plane, kappa, n, bbox) == reference_atlas(plane, kappa, n, bbox)


rationals = st.builds(rat, st.integers(-12, 12), st.integers(1, 6))
kappas = st.builds(rat, st.integers(1, 12), st.integers(1, 6))


@st.composite
def bboxes(draw):
    x0, x1 = sorted(draw(st.lists(rationals, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(rationals, min_size=2, max_size=2, unique=True)))
    return tuple(rat_str(c) for c in (x0, y0, x1, y1))


@settings(deadline=None, max_examples=60)
@given(rationals, rationals, st.sampled_from([0, 1]), kappas, bboxes(), st.integers(2, 7))
def test_atlas_matches_per_cell_classify_hypothesis(A1, A2, delta, kappa, bbox, n):
    if A1 == 0 and A2 == 0 and delta == 0:
        return
    plane = normalize_plane((A1, A2, delta))
    assert atlas_sweep(plane, kappa, n, bbox) == reference_atlas(plane, kappa, n, bbox)


UKAPPAS = ["2/5", "1/2", "4/5", "1", "5/4", "2", "5/2"]


@pytest.mark.parametrize("kappa", UKAPPAS)
def test_ukappa_matches_u_kappa_check(kappa):
    for n, bbox in GRIDS + [(11, ("-1", "-1", "1", "1")), (9, ("-2", "-2", "2", "2"))]:
        assert ukappa_sweep(kappa, n, bbox) == reference_ukappa(rat(kappa), n, bbox)


@pytest.mark.parametrize("kappa, n, bbox, point", [
    ("1", 11, ("-1", "-1", "1", "1"), ("3/5", "4/5")),  # on the circle
    ("1/2", 5, ("-2", "-2", "2", "2"), ("2", "0")),  # on a petal and the centre disk
    ("2", 9, ("-1", "-1", "1", "1"), ("1/2", "0")),  # on the square, inside the disk
    ("2", 9, ("-1", "-1", "1", "1"), ("1/2", "1/2")),  # square corner on the circle
])
def test_ukappa_boundary_points_are_parabolas(kappa, n, bbox, point):
    rows, bad = ukappa_sweep(kappa, n, bbox)
    x, y = (rat(c) for c in point)
    ix, iy = grid(bbox[0], bbox[2], n).index(x), grid(bbox[1], bbox[3], n).index(y)
    assert rows[iy][ix] == "P" and bad == []
    assert (rows, bad) == reference_ukappa(rat(kappa), n, bbox)


def test_ukappa_matches_u_kappa_check_fixed_seeds():
    rng = random.Random(20240813)
    for _ in range(30):
        kappa, bbox, n = random_kappa(rng), random_bbox(rng), rng.randrange(2, 9)
        assert ukappa_sweep(kappa, n, bbox) == reference_ukappa(kappa, n, bbox)


@settings(deadline=None, max_examples=60)
@given(kappas, bboxes(), st.integers(2, 7))
def test_ukappa_matches_u_kappa_check_hypothesis(kappa, bbox, n):
    assert ukappa_sweep(kappa, n, bbox) == reference_ukappa(kappa, n, bbox)


@pytest.mark.parametrize("kappa", ["0", "-1/2"])
def test_sweeps_reject_non_positive_kappa(kappa):
    with pytest.raises(NonPositiveKappa):
        atlas_sweep(normalize_plane((1, 1, 1)), kappa, 3)
    with pytest.raises(NonPositiveKappa):
        ukappa_sweep(kappa, 3)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_sweeps_reject_grids_below_two(n):
    plane = normalize_plane((2, -3, 1))
    with pytest.raises(ValueError, match="at least 2 points"):
        atlas_sweep(plane, 1, n)
    with pytest.raises(ValueError, match="at least 2 points"):
        ukappa_sweep(1, n)


def test_sweeps_reject_grids_above_max_grid():
    plane = normalize_plane((2, -3, 1))
    with pytest.raises(ValueError, match=f"at most {MAX_GRID}"):
        atlas_sweep(plane, 1, MAX_GRID + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_GRID}"):
        ukappa_sweep(1, MAX_GRID + 1)


@pytest.mark.parametrize("bbox", [("1", "1", "0", "0"), ("1", "1", "1", "1"), (0, 0, 1, 0)])
def test_sweeps_reject_empty_or_mirrored_bbox(bbox):
    with pytest.raises(ValueError, match="x0 < x1 and y0 < y1"):
        atlas_sweep(normalize_plane((1, 1, 0)), 1, 3, bbox)
    with pytest.raises(ValueError, match="x0 < x1 and y0 < y1"):
        ukappa_sweep(1, 3, bbox)
