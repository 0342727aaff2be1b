"""The row-run sweep kernels against two references: the scalar rational
one (per-cell classify for atlas_sweep; for ukappa_sweep the per-cell class
of special.u_kappa_check against the literal square-disk-petal membership
of ukappa_reference.py) and the per-cell integer kernels kept here, which
decide every cell on its own with the same integer compares.  The U_kappa
rule itself, atlas.u_kappa_side behind special.u_kappa_position, is
compared with the literal membership on every raster cell of this file."""

import random
from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxiconics import classify, make_cone, normalize_line, normalize_plane, rat, rat_str
from taxiconics import atlas
from taxiconics.atlas import DEFAULT_BBOX, MAX_GRID, atlas_sweep, ukappa_sweep
from taxiconics.errors import DegenerateCone, NonPositiveKappa, ZeroVector
from taxiconics.geometry import Point2
from taxiconics.special import u_kappa_check, u_kappa_position

from conftest import random_kappa, random_plane_triple, rnd_rat
from ukappa_reference import PREDICTED_CLASS, reference_position

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
            p = Point2(x, y)
            actual, expected = u_kappa_check(kappa, p).actual, PREDICTED_CLASS[reference_position(kappa, p)]
            row += LETTER[actual]
            if expected != actual:
                bad.append({"A": [rat_str(x), rat_str(y)], "expected": expected, "actual": actual})
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
UKAPPA_GRIDS = GRIDS + [(11, ("-1", "-1", "1", "1")), (9, ("-2", "-2", "2", "2"))]


@pytest.mark.parametrize("kappa", UKAPPAS)
def test_ukappa_matches_u_kappa_check(kappa):
    for n, bbox in UKAPPA_GRIDS:
        assert ukappa_sweep(kappa, n, bbox) == reference_ukappa(rat(kappa), n, bbox)


UKAPPA_BOUNDARY_CASES = [
    ("1", 11, ("-1", "-1", "1", "1"), ("3/5", "4/5")),  # on the circle
    ("1/2", 5, ("-2", "-2", "2", "2"), ("2", "0")),  # on a petal and the centre disk
    ("2", 9, ("-1", "-1", "1", "1"), ("1/2", "0")),  # on the square, inside the disk
    ("2", 9, ("-1", "-1", "1", "1"), ("1/2", "1/2")),  # square corner on the circle
]


@pytest.mark.parametrize("kappa, n, bbox, point", UKAPPA_BOUNDARY_CASES)
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


# ---------------------------------------------------------------------------
# The per-cell integer kernels: every cell decided on its own.


def per_cell_atlas(plane, kappa, n, bbox=DEFAULT_BBOX):
    kp, kq = atlas._kappa_terms(kappa)
    xs, ys, d = atlas.grid_axes(bbox, n)
    p1, q1 = int(plane.A1.numerator), int(plane.A1.denominator)
    p2, q2 = int(plane.A2.numerator), int(plane.A2.denominator)
    hn, hd = int(plane.M.numerator) * kq, int(plane.M.denominator) * kp
    big_l = q1 * q2 * d
    corners = max(atlas._side(abs(p1) * hd, hn * q1), atlas._side(abs(p2) * hd, hn * q2))
    edge = hn * big_l
    degenerate = -plane.delta * hd * big_l
    sxs = [p1 * q2 * hd * x for x in xs]
    cy = p2 * q1 * hd
    rows = []
    for y in ys:
        sy = cy * y
        rows.append("".join([
            "D" if s == degenerate else atlas._LETTER[1 + max(corners, atlas._side(abs(s), edge))]
            for s in [sx + sy for sx in sxs]
        ]))
    return rows


def ukappa_cell(x, y, d, kp, kq):
    """(actual class side, U_kappa prediction) of the cell (x, y)/d."""
    ax, ay = abs(x), abs(y)
    m = ax if ax > ay else ay
    r = x * x + y * y
    edge = (m if m > d else d) * kq
    actual = max(atlas._side(m * kp, edge), atlas._side(r * kp, edge * d))
    return actual, atlas.u_kappa_side(r, m, d, kp, kq)


def per_cell_ukappa(kappa, n, bbox=DEFAULT_BBOX):
    kp, kq = atlas._kappa_terms(kappa)
    xs, ys, d = atlas.grid_axes(bbox, n)
    rows, inconsistencies = [], []
    for y in ys:
        row = []
        for x in xs:
            actual, position = ukappa_cell(x, y, d, kp, kq)
            row.append(atlas._LETTER[1 + actual])
            if position != actual:
                inconsistencies.append({
                    "A": [rat_str(rat(x, d)), rat_str(rat(y, d))],
                    "expected": atlas._CLASS[1 + position],
                    "actual": atlas._CLASS[1 + actual],
                })
        rows.append("".join(row))
    return rows, inconsistencies


def random_sweep_cases(seed, count):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        try:
            plane = normalize_plane(random_plane_triple(rng))
        except ZeroVector:
            continue
        bbox = random_bbox(rng) if rng.random() < 0.7 else DEFAULT_BBOX
        cases.append((plane, random_kappa(rng), bbox))
    return cases


@pytest.mark.parametrize("n, count", [(101, 12), (201, 4)])
def test_row_runs_match_per_cell_kernels_fixed_seeds(n, count):
    for plane, kappa, bbox in random_sweep_cases(20240814 + n, count):
        assert atlas_sweep(plane, kappa, n, bbox) == per_cell_atlas(plane, kappa, n, bbox)
        assert ukappa_sweep(kappa, n, bbox) == per_cell_ukappa(kappa, n, bbox)


def test_row_runs_match_per_cell_kernels_at_max_grid():
    plane = normalize_plane((1, -3, 1))
    assert atlas_sweep(plane, 1, MAX_GRID) == per_cell_atlas(plane, 1, MAX_GRID)
    assert ukappa_sweep("1/2", MAX_GRID) == per_cell_ukappa("1/2", MAX_GRID)


@settings(deadline=None, max_examples=80)
@given(rationals, rationals, st.sampled_from([0, 1]), kappas, bboxes(), st.integers(2, 80))
def test_row_runs_match_per_cell_kernels_hypothesis(A1, A2, delta, kappa, bbox, n):
    assert ukappa_sweep(kappa, n, bbox) == per_cell_ukappa(kappa, n, bbox)
    if A1 == 0 and A2 == 0 and delta == 0:
        return
    plane = normalize_plane((A1, A2, delta))
    assert atlas_sweep(plane, kappa, n, bbox) == per_cell_atlas(plane, kappa, n, bbox)


def grid_points(bbox, n):
    xs, ys, d = atlas.grid_axes(bbox, n)
    return {rat(x, d) for x in xs}, {rat(y, d) for y in ys}


# (kappa, n, bbox, grid columns X and rows Y the case must contain): rows
# through Y = 0, |Y| = d (y = +-1) and |Y| = 1/kappa; petal vertices
# 1/(2 kappa) on a column; bboxes left or right of X = 0.
BREAKPOINT_CASES = [
    ("1/2", 9, DEFAULT_BBOX, {1, -1}, {0, 1, -1, 2}),  # petal vertex x = 1
    ("1/2", 101, DEFAULT_BBOX, {1, -1}, {0, 1, -1, 2}),
    ("1/5", 101, DEFAULT_BBOX, set(), {0, 1, -1}),  # petal vertex 5/2 is outside
    ("1/5", 13, ("-3", "-3", "3", "3"), {rat(5, 2), rat(-5, 2)}, {0, 1, -1}),
    ("2", 17, DEFAULT_BBOX, {rat(1, 4)}, {0, 1, rat(1, 2), rat(-1, 2)}),
    ("4/5", 33, DEFAULT_BBOX, {rat(5, 8)}, {0, 1, rat(5, 4), rat(-5, 4)}),
    ("1", 41, DEFAULT_BBOX, {rat(1, 2)}, {0, 1, -1}),
    ("2/5", 52, ("1/3", "-5/4", "9/2", "1/6"), set(), {0, -1}),  # X > 0 only
    ("1/2", 45, ("-3", "-11/4", "-1/4", "11/4"), {-1}, {0, 1, -1, 2, -2}),  # X < 0 only
    ("5/2", 71, ("-3/5", "-1", "1", "2/5"), {rat(1, 5)}, {0, -1, rat(-2, 5), rat(2, 5)}),
]


@pytest.mark.parametrize("kappa, n, bbox, columns, rows", BREAKPOINT_CASES)
def test_row_runs_match_per_cell_kernels_on_breakpoints(kappa, n, bbox, columns, rows):
    xs, ys = grid_points(bbox, n)
    assert columns <= xs and rows <= ys
    assert ukappa_sweep(kappa, n, bbox) == per_cell_ukappa(kappa, n, bbox)
    for triple in [(2, -3, 1), (1, 1, 1), (0, 1, 1), (1, -2, 0), (0, 0, 1)]:
        plane = normalize_plane(triple)
        assert atlas_sweep(plane, kappa, n, bbox) == per_cell_atlas(plane, kappa, n, bbox)


def test_ukappa_predicates_never_fall_along_a_half_row():
    # The lemma ukappa_sweep's bisection rests on: on each side of X = 0 the
    # class and the prediction are nondecreasing in |X|.
    rng = random.Random(20240815)
    rows = 0
    for case in range(80):
        kappa = random_kappa(rng) if case % 3 else rat(rng.randrange(1, 10), 10)
        bbox = random_bbox(rng) if case % 2 else DEFAULT_BBOX
        kp, kq = atlas._kappa_terms(kappa)
        xs, ys, d = atlas.grid_axes(bbox, rng.randrange(2, 120))
        for y in [0, d, -d, *rng.sample(ys, min(len(ys), 8))]:
            for half in ([x for x in xs if x < 0], [x for x in xs if x >= 0]):
                cells = [ukappa_cell(x, y, d, kp, kq) for x in sorted(half, key=abs)]
                assert [actual for actual, _ in cells] == sorted(actual for actual, _ in cells)
                assert [position for _, position in cells] == sorted(position for _, position in cells)
            rows += 1
    assert rows > 800


MIRROR_BBOXES = [("-1", "-2", "3", "2"), ("-1", "-2", "3", "1")]


@pytest.mark.parametrize("kappa, bbox", [("1", DEFAULT_BBOX), ("1/2", DEFAULT_BBOX),
                                         ("3", ("-3/2", "-7/5", "5/3", "2/7"))])
def test_ukappa_reports_a_run_splitting_prediction_cell_by_cell(monkeypatch, kappa, bbox):
    # side(2m, d) is monotone in |X| but changes where no cut is made.
    monkeypatch.setattr(atlas, "u_kappa_side", lambda r, m, d, kp, kq: atlas._side(2 * m, d))
    for n in (9, 40, 101):
        rows, bad = ukappa_sweep(kappa, n, bbox)
        assert bad
        assert (rows, bad) == per_cell_ukappa(kappa, n, bbox)


@pytest.mark.parametrize("bbox", MIRROR_BBOXES)
def test_ukappa_mirrored_rows_match_per_cell_kernels(monkeypatch, bbox):
    # Rows at y and -y share their runs but not their inconsistency records.
    for kappa in ("1/2", "1", "5/2"):
        for n in (13, 25, 40):
            rows, bad = ukappa_sweep(kappa, n, bbox)
            assert (rows, bad) == per_cell_ukappa(kappa, n, bbox)
            ys = atlas.grid_axes(bbox, n)[1]
            mirrored = [(ys.index(-y), k) for k, y in enumerate(ys) if y > 0 and -y in ys]
            assert mirrored and all(rows[i] == rows[k] for i, k in mirrored)
    monkeypatch.setattr(atlas, "u_kappa_side", lambda r, m, d, kp, kq: atlas._side(2 * m, d))
    rows, bad = ukappa_sweep("1", 25, bbox)
    assert {entry["A"][1][0] == "-" for entry in bad} == {True, False}
    assert (rows, bad) == per_cell_ukappa("1", 25, bbox)


# ---------------------------------------------------------------------------
# The one U_kappa rule (atlas.u_kappa_side, read by special.u_kappa_position)
# against the literal square-disk-petal membership of ukappa_reference.py.

# Every (kappa, n, bbox) raster that ukappa_sweep is compared on above.
UKAPPA_RASTERS = (
    [(kappa, n, bbox) for kappa in UKAPPAS for n, bbox in UKAPPA_GRIDS]
    + [(kappa, n, bbox) for kappa, n, bbox, _ in UKAPPA_BOUNDARY_CASES]
    + [(kappa, n, bbox) for kappa, n, bbox, _, _ in BREAKPOINT_CASES]
    + [(kappa, n, bbox) for bbox in MIRROR_BBOXES for kappa in ("1/2", "1", "5/2") for n in (13, 25, 40)]
)


def positions_agree(kappa, points) -> Counter:
    """Assert u_kappa_position equals the literal reference at every point;
    return how often each position came up."""
    seen = Counter()
    for p in points:
        position = u_kappa_position(kappa, p)
        assert position == reference_position(kappa, p), (kappa, p)
        seen[position] += 1
    return seen


def test_u_kappa_position_matches_the_literal_reference_on_every_raster_cell():
    seen = Counter()
    for kappa, n, bbox in UKAPPA_RASTERS:
        xs, ys = grid(bbox[0], bbox[2], n), grid(bbox[1], bbox[3], n)
        seen += positions_agree(rat(kappa), [Point2(x, y) for y in ys for x in xs])
    assert seen == {"inside": 25547, "boundary": 385, "outside": 25784}


def exact_sqrt(q):
    """The rational square root of q, or None when q is not a square."""
    p, d = isqrt(q.numerator), isqrt(q.denominator)
    return rat(p, d) if p * p == q.numerator and d * d == q.denominator else None


def boundary_points(kappa, s) -> list[Point2]:
    """Points of the lines and circles that bound U_kappa's pieces, from the
    rational parameter s, in all eight images under the symmetries of the
    square: on the square's edge x = 1/kappa, on the petal circle through
    the origin centred at (1/(2 kappa), 0), and on the circle
    x^2 + y^2 = 1/kappa when kappa is a square."""
    c, t = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)  # c^2 + t^2 = 1
    r = 1 / (2 * kappa)
    points = [(1 / kappa, s), (r * (1 + c), r * t)]
    root = exact_sqrt(kappa)
    if root is not None:
        points.append((c / root, t / root))
    return [Point2(sx * u, sy * v)
            for x, y in points for u, v in ((x, y), (y, x)) for sx in (1, -1) for sy in (1, -1)]


SQUARE_KAPPAS = [rat(1, 4), rat(4, 9), rat(1), rat(9, 4), rat(4)]


def test_u_kappa_position_matches_the_literal_reference_fixed_seeds():
    rng = random.Random(20240816)
    seen = Counter()
    for case in range(300):
        kappa = SQUARE_KAPPAS[case % 5] if case % 3 == 0 else random_kappa(rng)
        points = [Point2(rnd_rat(rng, -3, 3), rnd_rat(rng, -3, 3)) for _ in range(10)]
        seen += positions_agree(kappa, points + boundary_points(kappa, rnd_rat(rng, -3, 3)))
    assert seen == {"inside": 2768, "boundary": 734, "outside": 5338}


@settings(deadline=None, max_examples=200)
@given(kappas | st.sampled_from(SQUARE_KAPPAS), rationals, rationals)
def test_u_kappa_position_matches_the_literal_reference_hypothesis(kappa, x, y):
    positions_agree(kappa, [Point2(x, y), *boundary_points(kappa, x)])
