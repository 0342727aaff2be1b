import pytest

from taxiconics import build_section, cone_from_raw, point2, point3, rat
from taxiconics.errors import NoSignChange
from taxiconics.geometry import piece_contains
from taxiconics.oracle import (
    OracleConfig,
    exact_residual,
    grid_residual_scan,
    numeric_dist_to_line,
    scan_reference_roots,
    section_bbox,
    vertex_bisection,
    verify_cone,
)

FIG8 = ((rat(1, 2), rat(1, 5), 1), (rat(3, 2), 1, 1), 2)
FIG11 = ((rat(1, 2), rat(1, 3), 1), (3, 1, 0), 1)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_n=10)
    with pytest.raises(ValueError):
        OracleConfig(grid_n=1)
    with pytest.raises(ValueError):
        OracleConfig(tol=0)


def test_numeric_dist_to_line_examples():
    assert abs(numeric_dist_to_line(point3(0, 0, 1), (3, 1, 0)) - 1.0) < 1e-9
    assert abs(numeric_dist_to_line(point3(6, 2, 0), (3, 1, 0))) < 1e-9
    assert abs(numeric_dist_to_line(point3(1, 2, 3), (0, 0, 1)) - 3.0) < 1e-9


def test_vertex_bisection_fig8():
    cone = cone_from_raw(*FIG8)
    root = vertex_bisection(cone, 1, (-5, rat(3, 2)))
    assert abs(root - (-0.45)) < 1e-9


def test_vertex_bisection_fig11_roots():
    cone = cone_from_raw(*FIG11)
    roots = scan_reference_roots(cone, 3, window=(-4, 4), steps=801)
    expected = sorted([-12 / 11, 0.0])
    assert len(roots) == 2
    for got, want in zip(sorted(roots), expected):
        assert abs(got - want) < 1e-9


def test_bisection_requires_sign_change():
    cone = cone_from_raw(*FIG8)
    with pytest.raises(NoSignChange):
        vertex_bisection(cone, 1, (10, 11))


def test_no_extra_roots_on_active_lines():
    from taxiconics.sections import active_indices, vertex_slot
    from taxiconics.oracle import _vertex_parameter
    from taxiconics.sections import Vertex

    cone = cone_from_raw(*FIG8)
    for idx in active_indices(cone.line):
        finite_params = []
        for s in (1, -1):
            loc = vertex_slot(cone, idx, s)
            if loc.is_finite:
                finite_params.append(float(_vertex_parameter(cone, Vertex(idx, s, loc))))
        roots = scan_reference_roots(cone, idx, window=(-30, 30), steps=3001)
        assert len(roots) == len(finite_params)
        for got, want in zip(sorted(roots), sorted(finite_params)):
            assert abs(got - want) < 1e-8


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
    assert report["vertices_bisected"] == report["vertices_checked"]
    assert report["class"] == "hyperbola"


def test_verify_cone_horizontal():
    report = verify_cone(cone_from_raw(*FIG11), OracleConfig(grid_n=41))
    assert report["passed"]
    assert report["vertices_checked"] == 2
    assert report["vertices_bisected"] == report["vertices_checked"]


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
    # grid_n=3 keeps the grid scan negligible; the bisection does not use it
    cfg = OracleConfig(grid_n=3)
    for cone in cone_family[:200]:
        report = verify_cone(cone, cfg)
        assert report["violations"] == []
        assert report["vertices_bisected"] == report["vertices_checked"]
