import dataclasses
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taxiconics import build_section, cone_from_raw, point2, point3, rat, rat_str, section_topology
from taxiconics.atlas import MAX_GRID, grid_axes
from taxiconics.cones import active_indices, reference_directions
from taxiconics.errors import DegenerateCone, ZeroVector
from taxiconics.geometry import ExtendedPoint, Point2, Ray, Segment, piece_contains, piece_point_at
from taxiconics.oracle import (
    OracleConfig,
    ScanReport,
    check_piece,
    exact_residual,
    grid_residual_scan,
    reference_roots,
    sample_piece_points,
    section_bbox,
    verify_cone,
)
from taxiconics.sections import Vertex, finite_points

from conftest import random_vertex_at_infinity_cones, reference_residual
from float_reference import linspace, numeric_dist_to_line
from test_census import SLICE_STRIDE, census_cones

FIG8 = ((rat(1, 2), rat(1, 5), 1), (rat(3, 2), 1, 1), 2)
FIG11 = ((rat(1, 2), rat(1, 3), 1), (3, 1, 0), 1)

rationals = st.builds(rat, st.integers(-12, 12), st.integers(1, 6))


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_n=10)
    with pytest.raises(ValueError):
        OracleConfig(grid_n=1)
    # the CLI's MAX_GRID bounds library callers too
    assert OracleConfig(grid_n=1001).grid_n == 1001
    with pytest.raises(ValueError, match="between 3 and 1001"):
        OracleConfig(grid_n=1003)


def test_numeric_dist_to_line_examples():
    assert abs(numeric_dist_to_line(point3(0, 0, 1), (3, 1, 0)) - 1.0) < 1e-9
    assert abs(numeric_dist_to_line(point3(6, 2, 0), (3, 1, 0))) < 1e-9
    assert abs(numeric_dist_to_line(point3(1, 2, 3), (0, 0, 1)) - 3.0) < 1e-9


def test_linspace_matches_numpy():
    np = pytest.importorskip("numpy")
    # the line reference's scan
    cases = [(-100.0, 100.0, 10001)]
    # the plane reference's zoom windows, centre -/+ half with 41 points
    rng = random.Random(7)
    for _ in range(300):
        centre, half = rng.uniform(-20, 20), 10.0 ** rng.randint(-11, 2)
        cases.append((centre - half, centre + half, 41))
    for lo, hi, n in cases:
        assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()


def test_library_imports_without_numpy():
    # the CLI module loads no numpy, and the verifier runs with it unimportable
    code = """
import sys
import taxiconics.cli
assert "numpy" not in sys.modules
sys.modules["numpy"] = None
from taxiconics import cone_from_raw, rat
from taxiconics.oracle import OracleConfig, verify_cone
cone = cone_from_raw((rat(2, 3), rat(1, 5), 1), (rat(9, 10), rat(9, 10), 1), 1)
assert verify_cone(cone, OracleConfig(grid_n=11))["passed"]
"""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _on_reference_line(cone, i, t) -> Point2:
    """The point b + t r_i of rho^i, b = cone.line.base."""
    b, (r1, r2) = cone.line.base, reference_directions(cone.line)[i]
    return Point2(b.x1 + t * r1, b.x2 + t * r2)


def active_roots(cone) -> dict:
    """reference_roots on each active rho^i."""
    return {i: reference_roots(cone, i) for i in active_indices(cone.line)}


def vertex_roots(cone) -> dict:
    """What active_roots must be: on each active rho^i the sorted parameters
    t of the section's finite vertices there, projected onto b + t r_i, and
    no zero interval."""
    b, finite = cone.line.base, [v for v in build_section(cone).vertices if v.location.is_finite]

    def parameter(v):
        (r1, r2), p = reference_directions(cone.line)[v.ref_index], v.location.point
        return ((p.x1 - b.x1) * r1 + (p.x2 - b.x2) * r2) / (r1 * r1 + r2 * r2)

    return {i: (sorted(parameter(v) for v in finite if v.ref_index == i), False)
            for i in active_indices(cone.line)}


def test_reference_roots_fig8():
    cone = cone_from_raw(*FIG8)
    # v1- is at infinity: rho^1 has one root.  t is measured from a = (3/2, 1)
    assert active_roots(cone) == vertex_roots(cone) == {
        1: ([rat(-39, 20)], False),
        2: ([rat(-39, 14), rat(13, 2)], False),
        3: ([rat(-13, 3), rat(-39, 29)], False),
    }


def test_reference_roots_fig11():
    # a horizontal defining line has only rho^3, through the origin
    cone = cone_from_raw(*FIG11)
    assert active_roots(cone) == vertex_roots(cone) == {3: ([rat(-12, 11), rat(0)], False)}


def test_no_extra_roots_on_active_lines(cone_family):
    # the exact roots on every active rho^i are its finite vertices, with no
    # zero interval, on the family's horizontal lines and vertices at
    # infinity too
    cones = [cone_from_raw(*s) for s in ACCEPTANCE_CONES] + cone_family
    assert any(c.line.is_horizontal for c in cones)
    for cone in cones:
        assert active_roots(cone) == vertex_roots(cone), cone


def slot_parameters(cone) -> tuple[dict, int]:
    """On each active rho^i the sorted closed-form t = e/den of its finite
    slots (sections.vertex_slot: den = s M/kappa - A.r_i, and
    t = -(delta + s M/kappa)/e on a horizontal line's rho^3), with no zero
    interval; and the number of slots at infinity (den = 0)."""
    plane, line, e, mk = cone.plane, cone.line, cone.incidence, cone.plane.M / cone.kappa
    refs = reference_directions(line)
    out, at_infinity = {}, 0
    for i in active_indices(line):
        if line.is_horizontal:
            ts = [-(plane.delta + s * mk) / e for s in (1, -1)]
        else:
            dens = [s * mk - (plane.A1 * refs[i][0] + plane.A2 * refs[i][1]) for s in (1, -1)]
            ts = [e / den for den in dens if den]
            at_infinity += 2 - len(ts)
        out[i] = (sorted(ts), False)
    return out, at_infinity


def test_reference_roots_are_the_construction_parameters(cone_family):
    # the verifier and the construction parametrize rho^i alike, b + t r_i:
    # the roots are the vertex formula's own t = e/den
    cones = cone_family + random_vertex_at_infinity_cones(1000, 20240811)
    horizontal = at_infinity = 0
    for cone in cones:
        expected, slots_at_infinity = slot_parameters(cone)
        assert active_roots(cone) == expected, cone
        horizontal += cone.line.is_horizontal
        at_infinity += slots_at_infinity
    assert horizontal > 50 and at_infinity > 1000


@settings(deadline=None, max_examples=150)
@given(
    st.tuples(rationals, rationals, st.sampled_from([0, 1])),
    st.tuples(rationals, rationals, st.sampled_from([0, 1])),
    st.builds(rat, st.integers(1, 12), st.integers(1, 6)),
)
def test_reference_roots_are_the_finite_vertices_hypothesis(plane, line, kappa):
    try:
        cone = cone_from_raw(plane, line, kappa)
    except (DegenerateCone, ZeroVector):
        assume(False)
    roots = active_roots(cone)
    assert roots == vertex_roots(cone)
    for i, (ts, _) in roots.items():
        for t in ts:
            assert reference_residual(cone, _on_reference_line(cone, i, t)) == 0


def test_reference_roots_on_a_constant_residual():
    # no form varies along rho^1: the residual is constant there, and zero
    # either nowhere or all along it
    cone = cone_from_raw(*FIG8)
    for plane, expected in [((0, 0, 2), ([], False)), ((0, 0, 1), ([], True))]:
        vars(cone)["residual_form"] = dataclasses.replace(
            cone.residual_form, terms=(((0, 0, 1), (0, 0, 0)),), plane=plane)
        assert reference_roots(cone, 1) == expected


def test_verify_cone_reports_a_dropped_vertex(monkeypatch):
    import taxiconics.oracle as oracle

    dropped = 0
    for raw in (FIG8, FIG11):
        cone = cone_from_raw(*raw)
        section = build_section(cone)
        for v in section.vertices:
            if not v.location.is_finite:
                continue
            broken = dataclasses.replace(section, vertices=[w for w in section.vertices if w is not v])
            monkeypatch.setattr(oracle, "build_section", lambda c: broken)
            report = verify_cone(cone, OracleConfig(grid_n=3))
            assert len(report["violations"]) == 1
            assert report["violations"][0].startswith("roots t = [")
            assert f"on rho^{v.ref_index} are not its finite vertices" in report["violations"][0]
            dropped += 1
    assert dropped == 7


def test_verify_cone_reports_a_vertex_slid_off_its_line(monkeypatch):
    # FIG8's v2- slid from (3/2, -25/14) along its link ray, the piece based
    # there, to (5/2, -25/14): still on the cone, but no longer on rho^2, so
    # no longer the point at its root
    import taxiconics.oracle as oracle

    cone = cone_from_raw(*FIG8)
    section = build_section(cone)
    v = next(v for v in section.vertices if v.label == "v2-")
    assert v.location.point == point2("3/2", "-25/14")
    slid = point2("5/2", "-25/14")
    assert Ray(v.location.point, point2(1, 0)) in section.pieces and reference_residual(cone, slid) == 0
    broken = dataclasses.replace(section, vertices=[
        dataclasses.replace(w, location=ExtendedPoint.finite(slid)) if w is v else w for w in section.vertices])
    monkeypatch.setattr(oracle, "build_section", lambda c: broken)
    report = verify_cone(cone, OracleConfig(grid_n=41))
    assert report["violations"] == [
        "roots t = [-39/14, 13/2] on rho^2 are not its finite vertices at [(3/2, 15/2), (5/2, -25/14)]"
    ]
    assert report["vertices_checked"] == 5 and report["vertices_confirmed"] == 3


def test_verify_cone_reports_a_vertex_on_an_inactive_line(monkeypatch):
    # a finite vertex on rho^3 of a cone whose active pair is (1, 2) is
    # checked by no root of an active line: it is reported on its own
    import taxiconics.oracle as oracle

    cone = next(c for c in (cone_from_raw(*spec) for spec in ACCEPTANCE_CONES) if active_indices(c.line) == [1, 2])
    section = build_section(cone)
    stray = Vertex(3, 1, ExtendedPoint.finite(point2(0, 0)))
    broken = dataclasses.replace(section, vertices=[*section.vertices, stray])
    monkeypatch.setattr(oracle, "build_section", lambda c: broken)
    report = verify_cone(cone, OracleConfig(grid_n=3))
    assert report["violations"] == ["vertex v3+ is on no active reference line"]


def flipped_forms(form):
    """form with one coefficient of one term form negated, for each term
    form with two or more nonzero coefficients (with one, |T| is unchanged)."""
    for k, pair in enumerate(form.terms):
        for m, t in enumerate(pair):
            if sum(c != 0 for c in t) < 2:
                continue
            for j in (j for j in range(3) if t[j]):
                terms = [list(p) for p in form.terms]
                terms[k][m] = tuple(-c if n == j else c for n, c in enumerate(t))
                yield dataclasses.replace(form, terms=tuple(map(tuple, terms)))


def test_reference_roots_see_a_flipped_term():
    # a flipped coefficient moves that term's zero line, and the roots then
    # miss the vertices: the verifier reports the mismatch
    flips = 0
    for spec in ACCEPTANCE_CONES:
        cone = cone_from_raw(*spec)
        expected = vertex_roots(cone)
        for form in flipped_forms(cone.residual_form):
            vars(cone)["residual_form"] = form
            assert active_roots(cone) != expected, (spec, form)
            report = verify_cone(cone, OracleConfig(grid_n=3))
            assert any(v.startswith("roots t = [") for v in report["violations"])
            flips += 1
    assert flips > 90


def extended(piece):
    """piece made longer by 1/1000: a segment past b by 1/1000 of its
    length, a ray's base moved back by 1/1000 of its direction."""
    if isinstance(piece, Segment):
        d = (piece.b - piece.a).scaled(rat(1, 1000))
        return Segment(piece.a, Point2(piece.b.x1 + d.x1, piece.b.x2 + d.x2))
    return Ray(piece.base - piece.direction.scaled(rat(1, 1000)), piece.direction)


def test_sample_piece_points_draws(cone_family):
    # a segment's span ends at hi = 1, so its points are at t = k/1000; a
    # ray's at t = m/997, drawn after k; the same draws in the same order
    pieces = [piece for cone in cone_family[:40] for piece in build_section(cone).pieces]
    assert {piece.span[2] for piece in pieces} == {1, None}
    for j, piece in enumerate(pieces):
        rng, twin = random.Random(j), random.Random(j)
        expected = []
        for _ in range(5):
            k = twin.randrange(1, 1000)
            t = rat(k, 1000) if isinstance(piece, Segment) else rat(twin.randrange(1, 10000), 997)
            expected.append(piece_point_at(piece, t))
        assert sample_piece_points(piece, 5, rng) == expected
        assert rng.random() == twin.random()


def test_piece_check_catches_extended_pieces_that_sampling_misses(cone_family):
    # the samples sit at t = k/1000, k < 1000, on a segment and t >= 1/997 on
    # a ray, so they never reach the added part; the exact check probes its
    # ends
    rng = random.Random(0)
    cones = cone_family[:200] + random_vertex_at_infinity_cones(100, 20240811)
    pieces = probes = caught = missed = 0
    for cone in cones:
        form = cone.residual_form
        for piece in build_section(cone).pieces:
            count, off = check_piece(form, piece)
            assert off == [], (cone, piece)
            pieces += 1
            probes += count
            bad = extended(piece)
            caught += check_piece(form, bad)[1] != []
            missed += all(exact_residual(cone, p) == 0 for p in sample_piece_points(bad, 12, rng))
    assert (pieces, caught, missed) == (1797, 1797, 1797)
    # no piece holds a breakpoint: it meets the zero lines of the T only at
    # its vertices and never touches P^S, so each piece is probed twice, at
    # t = 0 and at hi, or one step along a ray
    assert probes == 2 * pieces


def test_verify_cone_reports_an_extended_piece(monkeypatch):
    import taxiconics.oracle as oracle

    for raw in (FIG8, FIG11):
        cone = cone_from_raw(*raw)
        section = build_section(cone)
        broken = dataclasses.replace(section, pieces=[extended(p) for p in section.pieces])
        monkeypatch.setattr(oracle, "build_section", lambda c: broken)
        report = verify_cone(cone, OracleConfig(grid_n=3))
        off = [v for v in report["violations"] if v.startswith("piece point (")]
        assert len(off) == len(section.pieces), report["violations"]
        assert report["piece_points_checked"] >= 2 * len(section.pieces)


def test_grid_scan_unit_circle():
    cone = cone_from_raw((0, 0, 1), (0, 0, 1), 1)
    section = build_section(cone)
    assert exact_residual(cone, point2(1, 0)) == 0
    assert exact_residual(cone, point2(2, 2)) != 0
    report = grid_residual_scan(cone, section, bbox=(-2, -2, 2, 2), cfg=OracleConfig(grid_n=41))
    assert report.violations == []
    assert report.zero_residual_points > 0
    # every zero-residual grid point lies on a piece by construction of the report;
    # additionally the circle's four corners are exact grid points here
    for corner in (point2(1, 0), point2(0, 1), point2(-1, 0), point2(0, -1)):
        assert any(piece_contains(p, corner) for p in section.pieces)


def test_grid_scan_padded_bbox_covers_section():
    cone = cone_from_raw(*FIG8)
    section = build_section(cone)
    x0, y0, x1, y1 = section_bbox(section)
    assert x0 <= rat(-6) and y1 >= rat(17, 2)
    report = grid_residual_scan(cone, section, cfg=OracleConfig(grid_n=41))
    assert report.violations == []


def test_verify_cone_passes():
    cone = cone_from_raw(*FIG8)
    report = verify_cone(cone, OracleConfig(grid_n=41))
    assert report["passed"] and report["violations"] == []
    assert report["vertices_checked"] == 5
    assert report["vertices_confirmed"] == report["vertices_checked"]
    assert report["class"] == "hyperbola"


def test_verify_cone_horizontal():
    report = verify_cone(cone_from_raw(*FIG11), OracleConfig(grid_n=41))
    assert report["passed"]
    assert report["vertices_checked"] == 2
    assert report["vertices_confirmed"] == report["vertices_checked"]


def test_verify_cone_reports_a_rebuild_mismatch(monkeypatch):
    import taxiconics.oracle as oracle

    real = oracle._rebuild_pieces
    monkeypatch.setattr(oracle, "_rebuild_pieces", lambda c: real(c)[1:])
    # FIG11 has a horizontal defining line, which the rebuild covers too
    for raw in (FIG8, FIG11):
        report = verify_cone(cone_from_raw(*raw), OracleConfig(grid_n=41))
        assert report["violations"] == ["pieces differ from their rebuild from the residual form"]
        assert not report["passed"]


def test_verify_reports_a_whole_zero_line_of_the_rebuild(monkeypatch, tmp_path, capsys):
    # No section holds a whole line, so make every restriction report one:
    # the rebuild's is a violation, and verify fails with exit 2, not a traceback.
    import taxiconics.oracle as oracle
    from taxiconics.cli import main

    real = oracle.line_zeros

    def with_a_whole_line(breaks, num):
        roots, intervals = real(breaks, num)
        return roots, intervals + [(None, None)]

    monkeypatch.setattr(oracle, "line_zeros", with_a_whole_line)
    violations = [f"the residual is zero on an interval of rho^{i}" for i in (1, 2, 3)]
    violations.append("the residual is zero on the whole line (-140, 36, -60)")
    assert verify_cone(cone_from_raw(*FIG8), OracleConfig(grid_n=41))["violations"] == violations
    spec, out = tmp_path / "fig8.json", tmp_path / "r.json"
    spec.write_text(json.dumps({"A": ["1/2", "1/5", "1"], "a": ["3/2", "1", "1"], "kappa": "2"}))
    assert main(["verify", str(spec), "--grid", "41", "-o", str(out)]) == 2
    assert json.loads(out.read_text())["violations"] == violations
    assert capsys.readouterr().err == "FAIL: 4 violation(s)\n"


def test_verifier_does_not_call_the_construction(monkeypatch):
    # the rebuild, the roots and the piece check read only the residual form:
    # with the construction's vertex slots, relations and sections raising
    # wherever they are bound, they return what they did before
    import taxiconics.oracle as oracle
    import taxiconics.sections as sections

    cones = [cone_from_raw(*spec) for spec in ACCEPTANCE_CONES]
    expected = []
    for cone in cones:
        section = build_section(cone)
        checks = [check_piece(cone.residual_form, piece) for piece in section.pieces]
        assert all(off == [] for _, off in checks)
        expected.append((section.pieces, vertex_roots(cone), checks))

    def construction(*args):
        raise AssertionError("the verifier called the construction")

    originals = [getattr(sections, name) for name in ("vertex_slot", "_relations", "build_section")]
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "taxiconics"]:
        for name, value in list(vars(module).items()):
            if any(value is f for f in originals):
                monkeypatch.setattr(module, name, construction)
    assert oracle.build_section is construction
    with pytest.raises(AssertionError, match="called the construction"):
        sections.build_section(cones[0])
    for cone, (pieces, roots, checks) in zip(cones, expected):
        assert oracle._rebuild_pieces(cone) == pieces
        assert active_roots(cone) == roots
        assert [check_piece(cone.residual_form, piece) for piece in pieces] == checks


def test_verify_cone_reports_pieces_that_form_no_conic(monkeypatch):
    import taxiconics.oracle as oracle

    monkeypatch.setattr(oracle, "section_topology", lambda pieces: section_topology([]))
    report = verify_cone(cone_from_raw(*FIG8), OracleConfig(grid_n=41))
    assert report["violations"] == ["piece topology no conic disagrees with class hyperbola"]


ACCEPTANCE_CONES = [
    ((rat(2, 3), rat(1, 5), 1), (rat(9, 10), rat(9, 10), 1), 1),
    ((rat(2, 3), rat(1, 5), 1), (rat(31, 40), rat(3, 4), 1), rat(3, 2)),
    ((rat(2, 3), rat(1, 5), 1), (rat(3, 2), rat(3, 4), 1), rat(3, 2)),
    ((rat(2, 3), rat(1, 5), 1), (1, 1, 1), rat(9, 4)),
    FIG8,
    FIG11,
    ((0, 0, 1), (1, rat(7, 4), 1), 1),
    ((0, 0, 1), (rat(7, 4), rat(7, 4), 1), 1),
    ((0, 0, 1), (rat(7, 4), rat(1, 2), 1), 1),
    ((0, 0, 1), (rat(3, 5), rat(3, 10), 1), 1),
    ((0, 0, 1), (rat(7, 4), 0, 1), 1),
    ((1, 4, 1), (2, 0, 1), 1),
]


@pytest.mark.parametrize("spec", ACCEPTANCE_CONES, ids=lambda s: str(s[1]))
def test_grid_scan_zero_coverage_acceptance_cones(spec):
    cone = cone_from_raw(*spec)
    report = grid_residual_scan(cone, cfg=OracleConfig(grid_n=201))
    assert report.points_checked == 201 * 201
    assert report.violations == []


def test_verify_bisects_every_finite_vertex(cone_family):
    # grid_n=3 keeps the grid scan negligible; the root check does not use it
    cfg = OracleConfig(grid_n=3)
    for cone in cone_family[:200]:
        report = verify_cone(cone, cfg)
        assert report["violations"] == []
        assert report["vertices_confirmed"] == report["vertices_checked"]


# ---------------------------------------------------------------------------
# grid_residual_scan's integer kernel against the scalar rational reference


def reference_scan(cone, section, bbox=None, cfg=OracleConfig()):
    """reference_residual and piece_contains at every grid point."""
    if bbox is None:
        bbox = section_bbox(section)
    x0, y0, x1, y1 = (rat(c) for c in bbox)
    n = cfg.grid_n
    dx, dy = (x1 - x0) / (n - 1), (y1 - y0) / (n - 1)
    zeros, max_off, violations = 0, rat(0), []
    for iy in range(n):
        for ix in range(n):
            p = Point2(x0 + ix * dx, y0 + iy * dy)
            r = reference_residual(cone, p)
            if r != 0:
                max_off = max(max_off, abs(r))
                continue
            zeros += 1
            if not any(piece_contains(piece, p) for piece in section.pieces):
                violations.append(
                    f"zero residual off pieces at ({rat_str(p.x1)}, {rat_str(p.x2)})"
                )
    return ScanReport(n * n, zeros, float(max_off), violations)


def assert_scan_matches_reference(cone, bbox=None, n=9, section=None) -> dict:
    if section is None:
        section = build_section(cone)
    cfg = OracleConfig(grid_n=n)
    got = grid_residual_scan(cone, section, bbox, cfg).to_json()
    assert got == reference_scan(cone, section, bbox, cfg).to_json()
    return got


# (plane, line, dominance kind of the line, its index)
SCAN_CONES = {
    "dominant-3": (((rat(2, 3), rat(1, 5), 1), (rat(1, 4), rat(-1, 3), 1)), ("dominant", 3)),
    "dominant-1": (((2, -3, 1), (3, 1, 1)), ("dominant", 1)),
    "dominant-2": (((rat(1, 2), rat(1, 3), 1), (rat(1, 2), rat(-5, 2), 1)), ("dominant", 2)),
    "transitional-3": (((rat(2, 3), rat(1, 5), 1), (rat(1, 2), rat(1, 2), 1)),
                       ("transitionally_dominant", 3)),
    "transitional-1": (((2, -3, 1), (3, 2, 1)), ("transitionally_dominant", 1)),
    "none": (((2, -3, 1), (rat(3, 4), rat(-1, 2), 1)), ("none", None)),
    "none-shallow": (((rat(2, 3), rat(1, 5), 1), (rat(9, 10), rat(9, 10), 1)), ("none", None)),
    "horizontal-line": (((rat(1, 2), rat(1, 3), 1), (3, 1, 0)), ("dominant", 1)),
    "horizontal-line-transitional": (((1, 4, 1), (1, -1, 0)), ("transitionally_dominant", 1)),
    "horizontal-line-2": (((rat(1, 2), 2, 1), (1, -3, 0)), ("dominant", 2)),
    "horizontal-plane": (((0, 0, 1), (rat(7, 4), rat(1, 2), 1)), ("dominant", 1)),
    "horizontal-plane-none": (((0, 0, 1), (rat(3, 5), rat(-4, 5), 1)), ("none", None)),
    "vertical-plane": (((2, -3, 0), (rat(1, 2), rat(1, 4), 1)), ("dominant", 3)),
    "vertical-plane-horizontal-line": (((1, 2, 0), (3, 1, 0)), ("dominant", 1)),
}
KAPPAS = [rat(1, 2), rat(1), rat(3)]


@pytest.mark.parametrize("kappa", KAPPAS, ids=rat_str)
@pytest.mark.parametrize("name", sorted(SCAN_CONES))
def test_grid_scan_kernel_matches_reference(name, kappa):
    (plane, line), (kind, index) = SCAN_CONES[name]
    cone = cone_from_raw(plane, line, kappa)
    assert (cone.line.dominance.kind, cone.line.dominance.index) == (kind, index)
    # step 1/4: the pieces of most of these cones pass through grid points
    assert_scan_matches_reference(cone, (-3, -3, 3, 3), n=25)
    assert_scan_matches_reference(cone, n=9)


def test_grid_scan_kernel_cases_hit_zeros():
    zeros = {
        name: sum(
            grid_residual_scan(cone_from_raw(*spec, kappa), bbox=(-3, -3, 3, 3),
                               cfg=OracleConfig(grid_n=25)).zero_residual_points
            for kappa in KAPPAS
        )
        for name, (spec, _) in SCAN_CONES.items()
    }
    assert sum(1 for z in zeros.values() if z > 0) >= 12, zeros


@pytest.mark.parametrize("bbox", [
    (-3, -2, 4, 5),
    ("-5/2", "-7/3", "9/4", "11/5"),
    (Fraction(-13, 6), Fraction(-3, 4), Fraction(17, 5), Fraction(8, 3)),
    (-2, "-1/3", Fraction(5, 2), 3),
], ids=["ints", "strings", "fractions", "mixed"])
@pytest.mark.parametrize("n", [3, 9])
def test_grid_scan_kernel_explicit_bboxes(bbox, n):
    for name in ("dominant-1", "transitional-1", "none", "horizontal-line", "vertical-plane"):
        (plane, line), _ = SCAN_CONES[name]
        for kappa in KAPPAS:
            assert_scan_matches_reference(cone_from_raw(plane, line, kappa), bbox, n)


def test_grid_scan_kernel_grid_201():
    cone = cone_from_raw((2, -3, 1), (3, 2, 1), 1)
    report = assert_scan_matches_reference(cone, n=201)
    assert report["zero_residual_points"] > 0 and report["violations"] == []


def test_grid_scan_kernel_fixed_seeds(cone_family):
    rng = random.Random(20240813)
    kinds = set()
    for k, cone in enumerate(cone_family[:60]):
        kinds.add(cone.line.dominance.kind)
        bbox = None
        if k % 2:
            x0, y0 = rng.randrange(-24, 0), rng.randrange(-24, 0)
            den = rng.randrange(1, 7)
            bbox = tuple(rat(c, den) for c in
                         (x0, y0, x0 + rng.randrange(1, 40), y0 + rng.randrange(1, 40)))
        assert_scan_matches_reference(cone, bbox, n=rng.choice([3, 5, 9, 11]))
    assert kinds == {"dominant", "transitionally_dominant", "none"}



@st.composite
def bboxes(draw):
    x0, x1 = sorted(draw(st.lists(rationals, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(rationals, min_size=2, max_size=2, unique=True)))
    return (x0, y0, x1, y1)


@settings(deadline=None, max_examples=60)
@given(
    st.tuples(rationals, rationals, st.sampled_from([0, 1])),
    st.tuples(rationals, rationals, st.sampled_from([0, 1])),
    st.builds(rat, st.integers(1, 12), st.integers(1, 6)),
    st.one_of(st.none(), bboxes()),
    st.sampled_from([3, 5, 7]),
)
def test_grid_scan_kernel_matches_reference_hypothesis(plane, line, kappa, bbox, n):
    try:
        cone = cone_from_raw(plane, line, kappa)
    except (DegenerateCone, ZeroVector):
        assume(False)
    assert_scan_matches_reference(cone, bbox, n)


@pytest.mark.parametrize("spec, bbox, n", [
    (((0, 0, 1), (0, 0, 1), 1), (-2, -2, 2, 2), 41),
    (((2, -3, 1), (3, 2, 1), 1), (-3, -3, 3, 3), 25),
    (((2, -3, 1), (rat(3, 4), rat(-1, 2), 1), 3), (-3, -3, 3, 3), 25),
], ids=["circle", "transitional", "none"])
def test_grid_scan_reports_zeros_off_the_pieces(spec, bbox, n):
    cone = cone_from_raw(*spec)
    section = build_section(cone)
    assert grid_residual_scan(cone, section, bbox, OracleConfig(grid_n=n)).violations == []
    reported = 0
    for k in range(len(section.pieces)):
        broken = dataclasses.replace(section, pieces=section.pieces[:k] + section.pieces[k + 1:])
        report = assert_scan_matches_reference(cone, bbox, n, section=broken)
        assert all(v.startswith("zero residual off pieces at (") for v in report["violations"])
        reported += len(report["violations"])
    assert reported > 0


def test_section_bbox_rejects_a_section_without_finite_features():
    section = build_section(cone_from_raw(*FIG8))
    empty = dataclasses.replace(section, pieces=[], vertices=[])
    with pytest.raises(ValueError, match="no finite pieces or vertices"):
        section_bbox(empty)


@pytest.mark.parametrize("bbox", [(1, 1, 0, 0), (1, 1, 1, 1)])
def test_grid_residual_scan_rejects_empty_or_mirrored_bbox(bbox):
    with pytest.raises(ValueError, match="x0 < x1 and y0 < y1"):
        grid_residual_scan(cone_from_raw(*FIG8), bbox=bbox, cfg=OracleConfig(grid_n=3))


# ---------------------------------------------------------------------------
# grid_residual_scan's row kernel against the per-cell integer loop


def per_cell_scan(cone, section, bbox=None, cfg=OracleConfig()):
    """The grid scan cell by cell: cone.residual_form at every grid point,
    each linear term laid out as an X column plus row terms."""
    if bbox is None:
        bbox = section_bbox(section)
    n = cfg.grid_n
    xs, ys, big_d = grid_axes(bbox, n)

    def columns(coefs):
        # cx X + cy Y + cd D as an X column plus the row terms
        cx, cy, cd = coefs
        return [cx * x for x in xs], cy, cd * big_d

    residual = cone.residual_form
    terms = [[columns(c) for c in pair] for pair in residual.terms]
    g_col, gy, gd = columns(residual.plane)

    zeros = 0
    max_num = 0
    violations = []
    for y in ys:
        dists = []
        for (c1, a1, b1), (c2, a2, b2) in terms:
            r1, r2 = a1 * y + b1, a2 * y + b2
            dists.append([abs(u + r1) + abs(v + r2) for u, v in zip(c1, c2)])
        dist = dists[0] if len(dists) == 1 else map(min, *dists)
        rg = gy * y + gd
        nums = [s - abs(w + rg) for s, w in zip(dist, g_col)]
        max_num = max(max_num, max(nums), -min(nums))
        if 0 not in nums:
            continue
        for x, num in zip(xs, nums):
            if num == 0:
                zeros += 1
                p = Point2(rat(x, big_d), rat(y, big_d))
                if not any(piece_contains(piece, p) for piece in section.pieces):
                    violations.append(
                        f"zero residual off pieces at ({rat_str(p.x1)}, {rat_str(p.x2)})"
                    )
    max_off = rat(max_num, residual.den * big_d)
    return ScanReport(n * n, zeros, float(max_off), violations)


def row_kernel_zeros(cone, bbox=None, n=9, section=None) -> int:
    """The row kernel's report equals per_cell_scan's; its number of zeros."""
    if section is None:
        section = build_section(cone)
    cfg = OracleConfig(grid_n=n)
    got = grid_residual_scan(cone, section, bbox, cfg).to_json()
    assert got == per_cell_scan(cone, section, bbox, cfg).to_json(), (cone, bbox, n)
    return got["zero_residual_points"]


def test_row_kernel_matches_per_cell_scan_cones():
    zeros = Counter()
    for name, ((plane, line), _) in SCAN_CONES.items():
        for kappa in KAPPAS:
            cone = cone_from_raw(plane, line, kappa)
            zeros[25] += row_kernel_zeros(cone, (-3, -3, 3, 3), n=25)
            zeros[201] += row_kernel_zeros(cone, n=201)
    assert zeros == {25: 218, 201: 1065}


def test_row_kernel_matches_per_cell_scan_fixed_seeds(cone_family):
    # the default bbox, and the same box moved by (1/2, -1/2)
    zeros = Counter()
    for cone in cone_family[:120]:
        section = build_section(cone)
        x0, y0, x1, y1 = section_bbox(section)
        for bbox in (None, (x0 + rat(1, 2), y0 - rat(1, 2), x1 + rat(1, 2), y1 - rat(1, 2))):
            for n in (3, 11, 51):
                zeros[n, "default" if bbox is None else "offset"] += row_kernel_zeros(cone, bbox, n, section)
    assert zeros == {(3, "default"): 18, (11, "default"): 55, (51, "default"): 158,
                     (3, "offset"): 1, (11, "offset"): 12, (51, "offset"): 63}


def test_row_kernel_matches_per_cell_scan_hypothesis():
    # a drawn bbox, or a square of drawn half-width centred on a piece end
    # or a finite vertex: the middle point of an odd grid is then a zero
    zeros = []

    @settings(deadline=None, max_examples=80, database=None)
    @given(
        st.tuples(rationals, rationals, st.sampled_from([0, 1])),
        st.tuples(rationals, rationals, st.sampled_from([0, 1])),
        st.builds(rat, st.integers(1, 12), st.integers(1, 6)),
        st.one_of(bboxes(), st.tuples(st.integers(0, 5), st.builds(rat, st.integers(1, 12), st.integers(1, 4)))),
        st.integers(1, 20).map(lambda k: 2 * k + 1),
    )
    def check(plane, line, kappa, box, n):
        try:
            cone = cone_from_raw(plane, line, kappa)
        except (DegenerateCone, ZeroVector):
            assume(False)
        section = build_section(cone)
        if len(box) == 2:
            k, w = box
            points = list(finite_points(section))
            p = points[k % len(points)]
            box = (p.x1 - w, p.x2 - w, p.x1 + w, p.x2 + w)
        zeros.append(row_kernel_zeros(cone, box, n, section))

    check()
    assert sum(z > 0 for z in zeros) >= 10, zeros


def test_row_kernel_matches_per_cell_scan_on_zero_lines(cone_family):
    # grids with a row, a column or an edge on a zero line of a T (the
    # reference lines through b) or of G (the trace), and rows along a piece
    zeros = Counter()
    for name, ((plane, line), _) in SCAN_CONES.items():
        for kappa in KAPPAS:
            cone = cone_from_raw(plane, line, kappa)
            section = build_section(cone)
            b = cone.line.base
            # the middle row and column of an odd grid run through b
            for n in (9, 21):
                zeros["b"] += row_kernel_zeros(cone, (b.x1 - 2, b.x2 - 2, b.x1 + 2, b.x2 + 2), n, section)
            # the lower left corner at a finite vertex, on a T zero line
            for v in section.vertices:
                if v.location.is_finite:
                    p = v.location.point
                    zeros["vertex"] += row_kernel_zeros(cone, (p.x1, p.x2, p.x1 + 3, p.x2 + 4), 17, section)
            # a point of the trace G = 0 at the lower left corner and at the
            # middle of the grid; a horizontal trace is then a row
            g1, g2, g3 = cone.residual_form.plane
            if g1 or g2:
                p = Point2(rat(-g3, g1), rat(0)) if g1 else Point2(rat(0), rat(-g3, g2))
                for bbox in ((p.x1, p.x2, p.x1 + 3, p.x2 + 3), (p.x1 - 2, p.x2 - 2, p.x1 + 2, p.x2 + 2)):
                    zeros["trace"] += row_kernel_zeros(cone, bbox, 13, section)
    # the middle row runs along each horizontal piece, a segment over 5
    # columns or a ray over half the row
    for cone in cone_family:
        section = build_section(cone)
        for piece in section.pieces:
            q, d, hi = piece.span
            if d.x2 == 0:
                ends = [p.x1 for p in piece.ends]
                lo, up = min(ends), max(ends)
                w = 1 if hi is None else up - lo
                zeros["horizontal"] += row_kernel_zeros(cone, (lo - w, q.x2 - w, up + w, q.x2 + w), 13, section)
    assert zeros == {"b": 250, "vertex": 366, "trace": 109, "horizontal": 372}


def test_row_kernel_matches_per_cell_scan_at_max_grid():
    cone = cone_from_raw((2, -3, 1), (3, 2, 1), 1)
    assert row_kernel_zeros(cone, n=MAX_GRID) == 1301


def test_row_kernel_matches_per_cell_scan_census_slice():
    zeros = sum(row_kernel_zeros(cone, n=5) for cone in census_cones(SLICE_STRIDE))
    assert zeros == 2228


def test_row_kernel_evaluates_few_columns_at_max_grid(monkeypatch):
    # the per-cell loop would evaluate all n^2 = 1 002 001 cells
    import taxiconics.oracle as oracle

    real, counts = oracle._row_columns, []

    def counting(forms, n):
        cols = real(forms, n)
        counts.append(len(cols))
        return cols

    monkeypatch.setattr(oracle, "_row_columns", counting)
    n = MAX_GRID
    report = verify_cone(cone_from_raw((2, -3, 1), (rat(3, 4), rat(-1, 2), 1), 1), OracleConfig(grid_n=n))
    assert report["passed"] and report["grid"]["points_checked"] == n * n
    assert len(counts) == n and sum(counts) < 12 * n, sum(counts)
