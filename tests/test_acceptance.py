"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import random

from taxiconics import (
    build_section,
    classify,
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
    section_to_json,
    section_topology,
    side_of_line,
    steep_line_similarity,
    trace_line_PS,
    vertices,
)
from taxiconics.atlas import atlas_sweep, ukappa_sweep
from taxiconics.cones import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    characterizing_strip,
    reference_lines,
    strip_position,
)
from taxiconics.errors import DegenerateCone
from taxiconics.geometry import Point2, Ray, intersect_lines, piece_contains
from taxiconics.oracle import (
    OracleConfig,
    _rebuild_pieces,
    exact_residual,
    grid_residual_scan,
    reference_roots,
    sample_piece_points,
)
from taxiconics.render import render_section
from taxiconics.sections import active_indices, auxiliary_points, vertex_slot

from conftest import (
    random_kappa,
    random_steep_line_triple,
    random_steep_plane_triple,
    rnd_rat,
)


def _report(num: int, title: str):
    print(f"ACCEPTANCE {num} ({title}): PASS")


def test_acceptance_1_fig10_panels():
    plane = (rat(2, 3), rat(1, 5), 1)
    cases = [
        ((rat(9, 10), rat(9, 10), 1), 1, "ellipse"),
        ((rat(31, 40), rat(3, 4), 1), rat(3, 2), "parabola"),
        ((rat(3, 2), rat(3, 4), 1), rat(3, 2), "hyperbola"),
        ((1, 1, 1), rat(9, 4), "hyperbola"),
    ]
    for a, kappa, expected in cases:
        assert classify(cone_from_raw(plane, a, kappa)) == expected
    _report(1, "figure-10 panel classification")


def test_acceptance_2_fig8_pipeline():
    cone = cone_from_raw((rat(1, 2), rat(1, 5), 1), (rat(3, 2), 1, 1), 2)
    verts = vertices(cone)
    assert len(verts) == 6  # six slots on the three active reference lines
    by_slot = {(v.ref_index, v.sign): v.location for v in verts}
    assert not by_slot[(1, 1)].is_finite  # v1+ at infinity
    for loc in by_slot.values():
        if loc.is_finite:
            assert exact_residual(cone, loc.point) == 0
    section = build_section(cone)
    report = grid_residual_scan(cone, section, cfg=OracleConfig(grid_n=201))
    assert report.points_checked == 201 * 201
    assert report.violations == []
    rng = random.Random(1)
    for piece in section.pieces:
        for p in sample_piece_points(piece, 10, rng):
            assert exact_residual(cone, p) == 0
    _report(2, "figure-8 construction vs oracle grid")


def test_acceptance_3_fig11_horizontal_case():
    cone = cone_from_raw((rat(1, 2), rat(1, 3), 1), (3, 1, 0), 1)
    assert classify(cone) == "hyperbola"
    by_slot = {(v.ref_index, v.sign): v.location.point for v in vertices(cone)}
    assert by_slot[(3, -1)] == point2(0, 0)
    aux = {a.pair: a.location.point for a in auxiliary_points(cone) if a.active}
    v_p, v_m = by_slot[(3, 1)], by_slot[(3, -1)]
    w_p, w_m = aux["I+"], aux["I-"]
    assert w_p - v_p == v_m - w_m
    assert v_m - w_p == w_m - v_p
    section = build_section(cone)
    assert len(section.pieces) == 4
    assert all(isinstance(p, Ray) for p in section.pieces)
    report = grid_residual_scan(cone, section, cfg=OracleConfig(grid_n=201))
    assert report.violations == []
    assert reference_roots(cone, 3) == ([rat(-12, 11), rat(0)], False)
    _report(3, "figure-11 horizontal line pipeline")


def test_acceptance_4_fig12_shapes():
    cases = [
        ((1, rat(7, 4)), "hexagon"),
        ((rat(7, 4), rat(7, 4)), "hexagon"),
        ((rat(7, 4), rat(1, 2)), "parallelogram"),
        ((rat(3, 5), rat(3, 10)), "circle"),
        ((rat(7, 4), 0), "rhombus"),
    ]
    for (a1, a2), expected in cases:
        line = normalize_line((a1, a2, 1))
        section, tag = horizontal_plane_section(line, 1)
        assert tag == expected
        assert section.klass == "ellipse"
        offsets = {1: point2(1, 0), 2: point2(0, 1), 3: point2(a1, a2)}
        for v in section.vertices:
            off = offsets[v.ref_index]
            expected_pt = Point2(a1 + v.sign * off.x1, a2 + v.sign * off.x2)
            assert v.location.point == expected_pt
    _report(4, "figure-12 horizontal-plane shapes")


def test_acceptance_5_ukappa_maps():
    for kappa in (rat(2, 5), rat(1, 2), rat(4, 5), rat(1), rat(5, 4), rat(2), rat(5, 2)):
        rows, inconsistencies = ukappa_sweep(kappa, 101)
        assert len(rows) == 101 and all(len(r) == 101 for r in rows)
        assert inconsistencies == []
    _report(5, "figure-13 U_kappa maps, 7 kappa values, 101x101, exact")


def _strip_trichotomy_holds(cone) -> bool:
    strip = characterizing_strip(cone)
    trace = trace_line_PS(cone.plane)
    line = cone.line
    drivers = [(1, point2(1, 0)), (2, point2(0, 1))]
    if (line.a1, line.a2) != (rat(0), rat(0)):
        drivers.append((3, line.point))
    for idx, probe in drivers:
        pos = strip_position(strip, probe)
        vp, vm = vertex_slot(cone, idx, 1), vertex_slot(cone, idx, -1)
        if pos == BOUNDARY:
            if vp.is_finite == vm.is_finite:
                return False
            continue
        if not (vp.is_finite and vm.is_finite):
            return False
        if trace is None:
            continue
        s1, s2 = side_of_line(trace, vp.point), side_of_line(trace, vm.point)
        if pos == INSIDE and s1 != s2:
            return False
        if pos == OUTSIDE and s1 == s2:
            return False
    return True


def _vertex_position_holds(cone) -> bool:
    trace = trace_line_PS(cone.plane)
    if trace is None:
        return True
    line = cone.line
    a_pt = line.point
    by_index = {i: g for i, g, act in reference_lines(line) if act}
    for idx in active_indices(line):
        rho = by_index[idx]
        if rho.is_parallel_to(trace):
            continue
        crossing = intersect_lines(rho, trace).point
        d = rho.direction()

        def param(p):
            return (p.x1 - a_pt.x1) * d.x1 + (p.x2 - a_pt.x2) * d.x2

        t_ps = param(crossing)
        slots = [vertex_slot(cone, idx, s) for s in (1, -1)]
        between = sum(
            1
            for v in slots
            if v.is_finite and (0 < param(v.point) < t_ps or t_ps < param(v.point) < 0)
        )
        if between != 1:
            return False
        if all(v.is_finite for v in slots):
            tp, tm = param(slots[0].point), param(slots[1].point)
            opposite_of_a = (tp > 0) != (tm > 0)
            same_side_of_trace = side_of_line(trace, slots[0].point) == side_of_line(
                trace, slots[1].point
            )
            if opposite_of_a != same_side_of_trace:
                return False
    return True


def test_acceptance_6_invariant_suites(cone_family):
    n_equiv = 0
    for cone in cone_family:
        section = build_section(cone)
        # vertex cone-equation exactness
        for v in section.vertices:
            if v.location.is_finite:
                assert exact_residual(cone, v.location.point) == 0
        if not cone.line.is_horizontal:
            assert _vertex_position_holds(cone)
            assert _strip_trichotomy_holds(cone)
        # aux incidence and kappa-invariance
        if not cone.plane.is_horizontal:
            trace = trace_line_PS(cone.plane)
            aux = auxiliary_points(cone)
            for a in aux:
                if a.location.is_finite:
                    assert side_of_line(trace, a.location.point) == 0
            rescaled = make_cone(cone.plane, cone.line, cone.kappa * rat(7, 3))
            assert [
                (a.pair, a.location) for a in auxiliary_points(rescaled)
            ] == [(a.pair, a.location) for a in aux]
        # connect-the-dots pieces equal the region-by-region rebuild
        assert _rebuild_pieces(cone) == section.pieces
        n_equiv += 1
        # classification vs topology
        assert section_topology(section.pieces) == section.klass
    assert n_equiv == len(cone_family)  # horizontal defining lines included
    _report(6, f"invariant suites on {len(cone_family)} random cones")


def _random_line_raw_nondegenerate(rng, plane_a, plane_b):
    raw = (rnd_rat(rng), rnd_rat(rng), 1)
    for plane in (plane_a, plane_b):
        if plane.A1 * raw[0] + plane.A2 * raw[1] + plane.delta == 0:
            return None
    return raw


def test_acceptance_7_similarity():
    rng = random.Random(77)
    # steep-line pairs over one plane
    checked = 0
    while checked < 100:
        plane = normalize_plane((rnd_rat(rng), rnd_rat(rng), 1))
        if plane.is_horizontal:
            continue
        a = normalize_line(random_steep_line_triple(rng))
        b = normalize_line(random_steep_line_triple(rng))
        kappa = random_kappa(rng)
        try:
            ca, cb = make_cone(plane, a, kappa), make_cone(plane, b, kappa)
        except DegenerateCone:
            continue
        report = steep_line_similarity(plane, kappa, a, b)
        assert report.ratio == ca.incidence / cb.incidence
        ratios = set()
        for idx in (1, 2):
            for s in (1, -1):
                va, vb = vertex_slot(ca, idx, s), vertex_slot(cb, idx, s)
                assert va.is_finite == vb.is_finite
                if not va.is_finite:
                    continue
                da = va.point.x1 - a.a1 if idx == 1 else va.point.x2 - a.a2
                db = vb.point.x1 - b.a1 if idx == 1 else vb.point.x2 - b.a2
                ratios.add(da / db)
        assert ratios == {report.ratio}
        assert classify(ca) == classify(cb)
        checked += 1

    # parallel-plane pairs
    checked = 0
    while checked < 100:
        A1, A2 = rnd_rat(rng), rnd_rat(rng)
        if A1 == 0 and A2 == 0:
            continue
        c = rnd_rat(rng, -3, 3)
        if c == 0:
            continue
        plane_a = normalize_plane((A1, A2, 1))
        plane_b = normalize_plane((A1 / c, A2 / c, 1))
        kappa_a = random_kappa(rng)
        kappa_b = parallel_plane_kappa(plane_a, plane_b, kappa_a)
        raw_line = _random_line_raw_nondegenerate(rng, plane_a, plane_b)
        if raw_line is None:
            continue
        line = normalize_line(raw_line)
        ca = make_cone(plane_a, line, kappa_a)
        cb = make_cone(plane_b, line, kappa_b)
        expected = (ca.incidence / cb.incidence) / c
        flip = 1 if c > 0 else -1
        ratios = set()
        for idx in active_indices(line):
            for s in (1, -1):
                va = vertex_slot(ca, idx, s)
                vb = vertex_slot(cb, idx, flip * s)
                assert va.is_finite == vb.is_finite
                if not va.is_finite:
                    continue
                da = va.point - line.point
                db = vb.point - line.point
                for comp_a, comp_b in ((da.x1, db.x1), (da.x2, db.x2)):
                    if comp_b != 0:
                        ratios.add(comp_a / comp_b)
        assert ratios == {expected}
        assert classify(ca) == classify(cb)
        checked += 1
    _report(7, "similarity: 100 steep-line pairs + 100 parallel-plane pairs")


def test_acceptance_8_focus_directrix():
    rng = random.Random(88)
    checked = 0
    while checked < 100:
        plane = normalize_plane(random_steep_plane_triple(rng))
        line = normalize_line(random_steep_line_triple(rng))
        kappa = random_kappa(rng)
        try:
            cone = make_cone(plane, line, kappa)
        except DegenerateCone:
            continue
        section = build_section(cone)
        trace = trace_line_PS(plane)
        focus = line.point
        for piece in section.pieces:
            for p in sample_piece_points(piece, 4, rng):
                assert focus_directrix_residual(focus, trace, kappa, p) == 0
            p = sample_piece_points(piece, 1, rng)[0]
            d = piece.direction if isinstance(piece, Ray) else piece.b - piece.a
            eps = rat(1, 7919)
            off = Point2(p.x1 - d.x2 * eps, p.x2 + d.x1 * eps)
            if not any(piece_contains(q, off) for q in section.pieces):
                assert focus_directrix_residual(focus, trace, kappa, off) != 0
        checked += 1

    # generated focus-directrix parabolas with x2-parallel unbounded edges
    built = 0
    while built < 25:
        A2 = rnd_rat(rng, -4, 4)
        A1 = rnd_rat(rng, -1, 1)
        if abs(A2) <= max(abs(A1), rat(1)):
            continue
        plane = normalize_plane((A1, A2, 1))
        line = normalize_line(random_steep_line_triple(rng))
        try:
            cone = make_cone(plane, line, 1)
        except DegenerateCone:
            continue
        section = build_section(cone)
        assert section.klass == "parabola"
        assert parabola_slope_gap(section) == 1
        built += 1

    near_miss = build_section(cone_from_raw((1, 4, 1), (2, 0, 1), 1))
    gap = parabola_slope_gap(near_miss)
    assert gap is not None and gap != 1
    _report(8, "focus-directrix equivalence and slope gaps")


def test_acceptance_9_determinism():
    cone = cone_from_raw((rat(1, 2), rat(1, 5), 1), (rat(3, 2), 1, 1), 2)
    payloads = {
        json.dumps(section_to_json(build_section(cone)), indent=2) for _ in range(2)
    }
    assert len(payloads) == 1
    section = build_section(cone)
    svgs = {render_section(section) for _ in range(2)}
    assert len(svgs) == 1
    plane = normalize_plane((rat(2, 3), rat(1, 5), 1))
    assert atlas_sweep(plane, 1, 41) == atlas_sweep(plane, 1, 41)
    _report(9, "byte-identical section/render, repeatable atlas")
