"""Library-level input checks of the SVG writers, and the raster writer
against a per-cell reference on rectangular rasters."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxiconics import build_section, cone_from_raw, rat
from taxiconics.errors import NonPositiveKappa
from taxiconics.render import _CELL_FILL, _fmt, render_raster, render_section, write_raster


@pytest.mark.parametrize("width", [0, -5])
def test_render_raster_rejects_width_below_one(width):
    with pytest.raises(ValueError, match="width must be at least 1"):
        render_raster(["EP", "HD"], ("-2", "-2", "2", "2"), width=width)


@pytest.mark.parametrize("width", [0, -5])
def test_render_section_rejects_width_below_one(width):
    section = build_section(cone_from_raw((0, 0, 1), (0, 0, 1), 1))
    with pytest.raises(ValueError, match="width must be at least 1"):
        render_section(section, width=width)
    assert render_section(section, width=1).startswith("<svg")


@pytest.mark.parametrize("rows", [[], [""], ["", ""], ["EP", "E"], ["E", "EP"], ["EPH", "", "EPH"]])
def test_render_raster_rejects_empty_or_ragged_rows(rows):
    with pytest.raises(ValueError, match="rows of one nonzero length"):
        render_raster(rows, ("-2", "-2", "2", "2"))


@pytest.mark.parametrize("rows, unknown", [(["EX"], "X"), (["EP", "He"], "e"), (["E?", "Z!"], "!, ?, Z")])
def test_render_raster_rejects_unknown_letters(rows, unknown):
    with pytest.raises(ValueError, match=f"must be E, P, H or D, got {re.escape(unknown)}$"):
        render_raster(rows, ("-2", "-2", "2", "2"))


@pytest.mark.parametrize("kappa", ["-1", "0", -2, rat(-1, 3)])
def test_render_raster_rejects_non_positive_kappa(kappa):
    with pytest.raises(NonPositiveKappa):
        render_raster(["EP", "HD"], ("-2", "-2", "2", "2"), kappa=kappa)


def test_render_raster_sizes_cells_from_row_length_and_row_count():
    svg = render_raster(["EEE"], ("-2", "-2", "2", "2"), width=300)
    fill = _CELL_FILL["E"]
    assert svg.split("\n")[1:4] == [
        f'<rect x="{x}" y="0" width="100" height="300" fill="{fill}"/>' for x in (0, 100, 200)
    ]
    assert render_raster(["EP", "HD", "DD"], ("0", "0", "2", "3"), width=200).split("\n")[1:7] == [
        f'<rect x="{x}" y="{y}" width="100" height="100" fill="{_CELL_FILL[c]}"/>'
        for y, row in ((200, "EP"), (100, "HD"), (0, "DD")) for x, c in zip((0, 100), row)
    ]


def per_cell_rects(rows, bbox, width):
    """The raster's <rect> lines, each cell formatted on its own."""
    xmin, ymin, xmax, ymax = (rat(c) for c in bbox)
    scale = width / float(xmax - xmin)
    n = len(rows)
    cell_w = float(xmax - xmin) * scale / len(rows[0])
    cell_h = float(ymax - ymin) * scale / n
    return [
        f'<rect x="{_fmt(ix * cell_w)}" y="{_fmt((n - 1 - iy) * cell_h)}" '
        f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="{_CELL_FILL[letter]}"/>'
        for iy, row in enumerate(rows) for ix, letter in enumerate(row)
    ]


def assert_raster_matches_per_cell(rows, bbox, width):
    lines = render_raster(rows, bbox, width=width).split("\n")
    assert lines[0].startswith("<svg") and lines[-2:] == ["</svg>", ""]
    assert lines[1:-2] == per_cell_rects(rows, bbox, width)


def test_render_raster_matches_per_cell_rectangular_rows():
    rng = random.Random(20240816)
    for _ in range(200):
        cols = rng.randrange(1, 40)
        rows = []
        for _ in range(rng.randrange(1, 12)):
            row = ""
            while len(row) < cols:
                row += rng.choice("EPHD") * rng.randrange(1, 6)
            rows.append(row[:cols])
        assert_raster_matches_per_cell(rows, ("-3/2", "-7/5", "5/3", "2/7"), rng.randrange(1, 700))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 30).flatmap(
        lambda cols: st.lists(st.text("EPHD", min_size=cols, max_size=cols), min_size=1, max_size=20)
    ),
    st.integers(1, 900),
)
def test_render_raster_matches_per_cell_hypothesis(rows, width):
    assert_raster_matches_per_cell(rows, ("-2", "-2", "2", "2"), width)



@pytest.mark.parametrize("rows, bbox, kappa, width", [
    (["EP", "E"], ("-2", "-2", "2", "2"), None, 480),
    (["EX"], ("-2", "-2", "2", "2"), None, 480),
    (["EP", "HD"], ("-2", "-2", "2", "2"), None, 0),
    (["EP", "HD"], ("-2", "-2", "2", "2"), "0", 480),
    (["EP", "HD"], ("1", "-2", "1", "2"), None, 480),
])
def test_write_raster_raises_before_the_file_exists(tmp_path, rows, bbox, kappa, width):
    path = tmp_path / "raster.svg"
    with pytest.raises((ValueError, NonPositiveKappa)):
        write_raster(path, rows, bbox, kappa, width)
    assert not path.exists()
