"""Library-level input checks of the SVG writers, and the raster writer
against a per-cell reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxiconics import build_section, cone_from_raw, rat
from taxiconics.render import _CELL_FILL, RenderSpec, _fmt, render_raster, render_section


@pytest.mark.parametrize("width", [0, -5])
def test_render_raster_rejects_width_below_one(width):
    with pytest.raises(ValueError, match="width must be at least 1"):
        render_raster(["EP", "HD"], ("-2", "-2", "2", "2"), width=width)


@pytest.mark.parametrize("width", [0, -5])
def test_render_spec_rejects_width_below_one(width):
    with pytest.raises(ValueError, match="width must be at least 1"):
        RenderSpec(width=width)
    section = build_section(cone_from_raw((0, 0, 1), (0, 0, 1), 1))
    assert render_section(section, RenderSpec(width=1)).startswith("<svg")


def per_cell_rects(rows, bbox, width):
    """The raster's <rect> lines, each cell formatted on its own."""
    xmin, ymin, xmax, ymax = (rat(c) for c in bbox)
    scale = width / float(xmax - xmin)
    n = len(rows)
    cell_w = float(xmax - xmin) * scale / n
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


def test_render_raster_matches_per_cell_ragged_rows():
    rng = random.Random(20240816)
    for _ in range(200):
        rows = ["".join(rng.choice("EPHD") * rng.randrange(1, 6) for _ in range(rng.randrange(0, 9)))
                for _ in range(rng.randrange(1, 12))]
        assert_raster_matches_per_cell(rows, ("-3/2", "-7/5", "5/3", "2/7"), rng.randrange(1, 700))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.text("EPHD", max_size=30), min_size=1, max_size=20), st.integers(1, 900))
def test_render_raster_matches_per_cell_hypothesis(rows, width):
    assert_raster_matches_per_cell(rows, ("-2", "-2", "2", "2"), width)

