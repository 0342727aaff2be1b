#!/usr/bin/env python3
"""Rebuild the showcase sections and parameter maps into out/.

Produces SVGs of the hyperbola with a vertex at infinity, the horizontal-line
hyperbola whose vertices and auxiliary points form a parallelogram, the four
strip-classification panels over one plane, the five horizontal-plane shapes,
and the seven perpendicular-case classification maps.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from taxiconics import (
    build_section,
    cone_from_raw,
    horizontal_plane_section,
    normalize_line,
    normalize_plane,
    rat,
    section_to_json,
)
from taxiconics.atlas import atlas_sweep, ukappa_sweep
from taxiconics.render import render_section, write_raster

SECTIONS = {
    "hyperbola_vertex_at_infinity": (("1/2", "1/5", "1"), ("3/2", "1", "1"), "2"),
    "horizontal_line_hyperbola": (("1/2", "1/3", "1"), ("3", "1", "0"), "1"),
    "unit_taxicab_circle": (("0", "0", "1"), ("0", "0", "1"), "1"),
    "near_miss_parabola": (("1", "4", "1"), ("2", "0", "1"), "1"),
}

STRIP_PANELS = {
    "strip_ellipse": (("9/10", "9/10", "1"), "1"),
    "strip_parabola": (("31/40", "3/4", "1"), "3/2"),
    "strip_hyperbola_a_outside": (("3/2", "3/4", "1"), "3/2"),
    "strip_hyperbola_far": (("1", "1", "1"), "9/4"),
}

HORIZONTAL_SHAPES = {
    "hexagon": ("1", "7/4"),
    "hexagon_diag": ("7/4", "7/4"),
    "parallelogram": ("7/4", "1/2"),
    "circle": ("3/5", "3/10"),
    "rhombus": ("7/4", "0"),
}

UKAPPA_VALUES = ["2/5", "1/2", "4/5", "1", "5/4", "2", "5/2"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--grid", type=int, default=101, help="map resolution")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for name, (A, a, kappa) in SECTIONS.items():
        section = build_section(cone_from_raw(A, a, kappa))
        (out / f"{name}.json").write_text(json.dumps(section_to_json(section), indent=2) + "\n")
        (out / f"{name}.svg").write_text(render_section(section))
        print(f"{name}: {section.klass}, {len(section.pieces)} pieces")

    plane = ("2/3", "1/5", "1")
    for name, (a, kappa) in STRIP_PANELS.items():
        section = build_section(cone_from_raw(plane, a, kappa))
        (out / f"{name}.svg").write_text(render_section(section))
        print(f"{name}: {section.klass}")
    rows = atlas_sweep(normalize_plane([rat(c) for c in plane]), rat("3/2"), args.grid)
    write_raster(out / "atlas_plane_2-3_1-5.svg", rows, ("-2", "-2", "2", "2"))

    for name, (a1, a2) in HORIZONTAL_SHAPES.items():
        section, tag = horizontal_plane_section(normalize_line((rat(a1), rat(a2), 1)), 1)
        (out / f"horizontal_{name}.svg").write_text(render_section(section))
        print(f"horizontal {name}: tag {tag}")

    for kappa in UKAPPA_VALUES:
        rows, bad = ukappa_sweep(rat(kappa), args.grid)
        slug = kappa.replace("/", "-")
        write_raster(out / f"ukappa_{slug}.svg", rows, ("-2", "-2", "2", "2"), kappa=rat(kappa))
        print(f"ukappa {kappa}: {len(bad)} inconsistencies")
        assert not bad

    print(f"wrote {len(list(out.iterdir()))} files to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
