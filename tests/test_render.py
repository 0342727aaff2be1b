"""Library-level input checks of the SVG writers."""

import pytest

from taxiconics import build_section, cone_from_raw
from taxiconics.render import RenderSpec, render_raster, render_section


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
