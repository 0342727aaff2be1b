import json
import tracemalloc

import pytest

from taxiconics import atlas, normalize_plane, rat, rat_str
from taxiconics.cli import MAX_GRID, main
from taxiconics.render import render_raster

FIG10A = {"A": ["2/3", "1/5", "1"], "a": ["9/10", "9/10", "1"], "kappa": "1"}
FIG8 = {"A": ["1/2", "1/5", "1"], "a": ["3/2", "1", "1"], "kappa": "2"}
DEGENERATE = {"A": ["1", "0", "1"], "a": ["-1", "0", "1"], "kappa": "1"}


def write_spec(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_classify_command(tmp_path, capsys):
    spec = write_spec(tmp_path, "fig10a.json", FIG10A)
    assert main(["classify", spec]) == 0
    assert capsys.readouterr().out.strip() == "ellipse"


def test_classify_rejects_degenerate(tmp_path, capsys):
    spec = write_spec(tmp_path, "degenerate.json", DEGENERATE)
    assert main(["classify", spec]) == 1
    assert "error" in capsys.readouterr().err


def test_classify_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 1


def test_section_deterministic(tmp_path):
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["section", spec, "-o", str(out1)]) == 0
    assert main(["section", spec, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["class"] == "hyperbola"
    assert len(data["pieces"]) == 7


def test_render_deterministic(tmp_path):
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    section = tmp_path / "section.json"
    assert main(["section", spec, "-o", str(section)]) == 0
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", str(section), "-o", str(svg1)]) == 0
    assert main(["render", str(section), "-o", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    text = svg1.read_text()
    assert text.startswith("<svg ") and text.count("<path") >= 7


def test_render_unit_circle_diamond(tmp_path):
    spec = write_spec(tmp_path, "circle.json", {"A": ["0", "0", "1"], "a": ["0", "0", "1"], "kappa": "1"})
    section = tmp_path / "section.json"
    main(["section", spec, "-o", str(section)])
    svg = tmp_path / "c.svg"
    assert main(["render", str(section), "-o", str(svg)]) == 0
    body = svg.read_text()
    # 4 section edges + 2 reference lines
    assert body.count("<path") == 6


def test_render_disjoint_viewport_markers_only(tmp_path):
    spec = write_spec(tmp_path, "circle.json", {"A": ["0", "0", "1"], "a": ["0", "0", "1"], "kappa": "1"})
    section = tmp_path / "section.json"
    main(["section", spec, "-o", str(section)])
    svg = tmp_path / "far.svg"
    assert main(["render", str(section), "-o", str(svg), "--viewport", "50,50,60,60"]) == 0
    body = svg.read_text()
    assert "<path" not in body
    assert body.count("<circle") == 4


def test_verify_command(tmp_path, capsys):
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--grid", "41", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and report["violations"] == []
    # the success summary: one line, counts taken from the report; 41 x 41 grid
    assert capsys.readouterr().err == (
        f"ok: 5 vertices, {report['piece_points_checked']} piece points, "
        "1681 grid points\n"
    )


def test_verify_passes_when_vertices_are_close(tmp_path, capsys):
    # v3+ and v3- lie 3/4 apart along rho^3: a t +/- 0.75 bracket holds both
    spec = write_spec(tmp_path, "close.json",
                      {"A": ["7", "-9", "0"], "a": ["3", "-2/3", "1"], "kappa": "1"})
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--grid", "41", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["vertices_confirmed"] == report["vertices_checked"]
    assert capsys.readouterr().err.startswith("ok: ")


def test_verify_failure_exit_code(tmp_path, monkeypatch, capsys):
    import taxiconics.cli as cli

    def broken_verify(cone, cfg):
        return {"violations": ["forced"], "passed": False}

    monkeypatch.setattr(cli, "verify_cone", broken_verify)
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    assert main(["verify", spec, "-o", str(tmp_path / "r.json")]) == 2
    assert "FAIL" in capsys.readouterr().err


def test_verify_fails_when_topology_disagrees_with_class(tmp_path, monkeypatch, capsys):
    import taxiconics.oracle as oracle

    monkeypatch.setattr(oracle, "section_topology", lambda pieces: "ellipse")
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    out = tmp_path / "r.json"
    assert main(["verify", spec, "--grid", "41", "-o", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["violations"] == ["piece topology ellipse disagrees with class hyperbola"]
    assert "FAIL" in capsys.readouterr().err


def test_atlas_values_and_worker_invariance(tmp_path):
    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    args = ["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--grid", "81"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = json.loads(out1.read_text())["rows"]
    # grid step 1/20 on [-2, 2]: a = (9/10, 9/10) sits at column 58, row 58
    assert rows[58][58] == "E"

    out3 = tmp_path / "a3.json"
    assert main(["atlas", "--plane", "2/3,1/5,1", "--kappa", "3/2", "--grid", "81", "-o", str(out3)]) == 0
    rows = json.loads(out3.read_text())["rows"]
    # a = (3/2, 3/4) sits at column 70, row 55
    assert rows[55][70] == "H"


def test_atlas_marks_degenerate_cells(tmp_path):
    out = tmp_path / "deg.json"
    assert main(["atlas", "--plane", "1,0,1", "--kappa", "1", "--grid", "5", "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    # (-1, y, 1) is on the trace of (1, 0, 1): column 1 of bbox [-2, 2] with step 1
    assert all(row[1] == "D" for row in rows)


def test_ukappa_command(tmp_path):
    out = tmp_path / "uk.json"
    svg = tmp_path / "uk.svg"
    assert main(["ukappa", "--kappa", "1", "--grid", "21", "-o", str(out), "--svg", str(svg)]) == 0
    payload = json.loads(out.read_text())
    assert payload["inconsistencies"] == []
    assert len(payload["rows"]) == 21
    assert svg.read_text().startswith("<svg ")


def test_ukappa_reports_inconsistencies(tmp_path, capsys, monkeypatch):
    # Predict "outside" everywhere, so every E and P cell disagrees.
    monkeypatch.setattr(atlas, "u_kappa_side", lambda *terms: 1)
    out = tmp_path / "uk.json"
    assert main(["ukappa", "--kappa", "1", "--grid", "9", "-o", str(out)]) == 2
    payload = json.loads(out.read_text())
    bad = payload["inconsistencies"]
    cells = sum(len(row) - row.count("H") for row in payload["rows"])
    assert len(bad) == cells > 0
    assert capsys.readouterr().err == f"FAIL: {cells} classification inconsistencies\n"
    assert {rec["expected"] for rec in bad} == {"hyperbola"}
    assert {rec["actual"] for rec in bad} == {"ellipse", "parabola"}
    # grid step 1/2 over [-2, 2]: entries are in lowest terms, e.g. "1/2" and "-1"
    entries = [c for rec in bad for c in rec["A"]]
    assert all(c == rat_str(rat(c)) for c in entries)
    assert {"1/2", "-1"} <= set(entries)


def test_atlas_svg_output(tmp_path):
    svg = tmp_path / "atlas.svg"
    assert main(["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--grid", "11",
                 "-o", str(tmp_path / "x.json"), "--svg", str(svg)]) == 0
    assert "<rect" in svg.read_text()


@pytest.mark.parametrize("argv", [
    ["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--grid", "1"],
    ["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--grid", "0"],
    ["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--grid", "-3"],
    ["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--grid", str(MAX_GRID + 1)],
    ["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--bbox", "1,1,1,1"],
    ["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--bbox", "1,1,0,0"],
    ["ukappa", "--kappa", "1", "--grid", "1"],
    ["ukappa", "--kappa", "1", "--grid", "0"],
    ["ukappa", "--kappa", "1", "--grid", "-3"],
    ["ukappa", "--kappa", "1", "--grid", str(MAX_GRID + 1)],
    ["ukappa", "--kappa", "1", "--bbox", "1,1,1,1"],
    ["ukappa", "--kappa", "1", "--bbox", "0,1,2,0"],
    ["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--width", "-5"],
    ["atlas", "--plane", "2/3,1/5,1", "--kappa", "1", "--width", "0"],
    ["ukappa", "--kappa", "1", "--width", "-5"],
    ["ukappa", "--kappa", "1", "--width", "0"],
])
def test_sweeps_reject_bad_grid_and_bbox(tmp_path, capsys, argv):
    out, svg = tmp_path / "out.json", tmp_path / "out.svg"
    assert main(argv + ["-o", str(out), "--svg", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("width", ["0", "-3"])
def test_render_rejects_bad_width(tmp_path, capsys, width):
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    section, svg = tmp_path / "section.json", tmp_path / "s.svg"
    assert main(["section", spec, "-o", str(section)]) == 0
    assert main(["render", str(section), "-o", str(svg), "--width", width]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not svg.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "SPEC", "--grid", "x"],
    ["atlas", "--plane", "1,1,1", "--kappa", "1", "--grid", "abc"],
    ["atlas", "--plane", "-2,3,1", "--kappa", "1"],
    ["atlas", "--kappa", "1"],
    ["frobnicate", "SPEC"],
    ["classify", "SPEC", "--frobnicate"],
    [],
])
def test_usage_errors_exit_1_with_one_line(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    assert main([spec if a == "SPEC" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["-h"], ["atlas", "-h"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: taxiconics" in capsys.readouterr().out


def test_negative_plane_written_with_equals_sign(tmp_path):
    out = tmp_path / "out.json"
    assert main(["atlas", "--plane=-2,3,1", "--kappa", "1", "--grid", "3", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["plane"] == normalize_plane(("-2", "3", "1")).to_json()


def test_verify_rejects_grid_above_cap(tmp_path, capsys):
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    assert main(["verify", spec, "--grid", str(MAX_GRID + 2)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("grid", ["2", "200", str(MAX_GRID + 2), "1", "-3"])
def test_verify_states_one_grid_rule(tmp_path, capsys, grid):
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--grid", grid, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: verify --grid must be odd and between 3 and {MAX_GRID}, got {grid}\n"
    assert not out.exists()


def test_sweeps_echo_normalized_kappa(tmp_path):
    out = tmp_path / "out.json"
    assert main(["atlas", "--plane", "2/3,1/5,1", "--kappa", "2/4", "--grid", "3", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["kappa"] == "1/2"
    assert main(["ukappa", "--kappa", "6/3", "--grid", "3", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["kappa"] == "2"


def _section_json(tmp_path):
    spec = write_spec(tmp_path, "fig8.json", FIG8)
    section = tmp_path / "section.json"
    assert main(["section", spec, "-o", str(section)]) == 0
    return json.loads(section.read_text())


def _finite_vertex(data):
    return next(v for v in data["vertices"] if "xy" in v)


def _point_as_five(data):
    _finite_vertex(data)["xy"] = 5
    return data


def _float_coordinate(data):
    _finite_vertex(data)["xy"] = [1.5, 0]
    return data


def _empty_list(data):
    return []


@pytest.mark.parametrize("corrupt", [_point_as_five, _float_coordinate, _empty_list])
def test_render_rejects_malformed_section(tmp_path, capsys, corrupt):
    path, svg = tmp_path / "bad.json", tmp_path / "bad.svg"
    path.write_text(json.dumps(corrupt(_section_json(tmp_path))))
    capsys.readouterr()
    assert main(["render", str(path), "-o", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed section") and err.count("\n") == 1
    assert not svg.exists()


@pytest.mark.parametrize("payload", [
    [],
    json.dumps(FIG8),
    dict(FIG8, A="121"),
    dict(FIG8, A=["1", "2"]),
    dict(FIG8, a=[1.5, "1", "1"]),
    dict(FIG8, kappa=None),
    {"A": FIG8["A"], "a": FIG8["a"]},
], ids=["list", "spec-as-string", "A-as-string", "A-too-short", "float", "null-kappa", "no-kappa"])
def test_classify_rejects_malformed_spec(tmp_path, capsys, payload):
    spec = write_spec(tmp_path, "bad.json", payload)
    assert main(["classify", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    {"A": [True, "1/5", "1"], "a": ["3/2", False, "1"], "kappa": True},
    dict(FIG8, kappa=True),
    dict(FIG8, A=[True, "1/5", "1"]),
    dict(FIG8, a=["3/2", False, "1"]),
], ids=["all-bools", "kappa", "A", "a"])
def test_classify_rejects_json_booleans(tmp_path, capsys, payload):
    spec = write_spec(tmp_path, "bool.json", payload)
    assert main(["classify", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed cone spec") and captured.err.count("\n") == 1


def _vertex_at_infinity(data):
    return next(v for v in data["vertices"] if "dir" in v)


def _bool_coordinate(data):
    _finite_vertex(data)["xy"] = [True, "0"]
    return data


def _at_infinity_as_one(data):
    _vertex_at_infinity(data)["at_infinity"] = 1
    return data


def _at_infinity_as_string(data):
    _vertex_at_infinity(data)["at_infinity"] = "false"
    return data


@pytest.mark.parametrize("corrupt", [_bool_coordinate, _at_infinity_as_one, _at_infinity_as_string])
def test_render_rejects_non_boolean_json_types(tmp_path, capsys, corrupt):
    path, svg = tmp_path / "bad.json", tmp_path / "bad.svg"
    path.write_text(json.dumps(corrupt(_section_json(tmp_path))))
    capsys.readouterr()
    assert main(["render", str(path), "-o", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed section") and err.count("\n") == 1
    assert not svg.exists()


def test_render_rejects_coordinate_too_large_for_a_float(tmp_path, capsys):
    data = _section_json(tmp_path)
    _finite_vertex(data)["xy"] = ["1" + "0" * 400, "0"]
    path, svg = tmp_path / "huge.json", tmp_path / "huge.svg"
    path.write_text(json.dumps(data))
    assert main(["render", str(path), "-o", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not svg.exists()


def test_verify_rejects_plane_too_large_for_a_float(tmp_path, capsys):
    spec = write_spec(tmp_path, "huge.json", {"A": ["1" + "0" * 400, "1", "1"], "a": ["1", "1", "1"], "kappa": "1"})
    assert main(["verify", spec, "--grid", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["classify", "section", "verify", "render"])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, command):
    # the json decoder recurses once per level and gives up with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: JSON nested too deeply\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [["atlas", "--plane=1,-3,1"], ["ukappa"]])
@pytest.mark.parametrize("grid", [10, 11])
@pytest.mark.parametrize("bbox", [None, "-1,-3,2,1"])
@pytest.mark.parametrize("width", [None, 300])
def test_sweep_svg_file_is_render_raster(tmp_path, command, grid, bbox, width):
    out, svg = tmp_path / "out.json", tmp_path / "out.svg"
    argv = command + ["--kappa", "3/4", "--grid", str(grid), "-o", str(out), "--svg", str(svg)]
    argv += ["--bbox=" + bbox] if bbox else []  # may start with "-"
    argv += ["--width", str(width)] if width else []
    assert main(argv) == 0
    rows = json.loads(out.read_text())["rows"]
    kappa = rat("3/4") if command[0] == "ukappa" else None
    expected = render_raster(rows, (bbox or "-2,-2,2,2").split(","), kappa, width or 480)
    assert svg.read_bytes() == expected.encode()


def test_atlas_svg_is_written_without_a_whole_document_string(tmp_path):
    # The grid-101 SVG is about 1 MB; written a row at a time, no string
    # near that size is ever held.
    argv = ["atlas", "--plane=1,-3,1", "--kappa", "1", "--grid", "101",
            "-o", str(tmp_path / "atlas.json"), "--svg", str(tmp_path / "atlas.svg")]
    assert main(argv) == 0  # imports and first-call caches are not measured
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "atlas.svg").stat().st_size > 900_000
    assert peak < 512 * 1024
