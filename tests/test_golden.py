"""Golden output: one SHA-256 over the section JSON, SVG and adjacency of a
fixed cone set; a second over the verify reports of the acceptance cones; a
third over the atlas and U_kappa rasters, their inconsistency lists and
raster SVGs; a fourth over section SVGs at explicit viewports; a fifth over
the section JSON, SVG and adjacency of the census slice (tests/test_census.py).

The digests pin byte-identical output across refactors.  A change that
alters output on purpose updates GOLDEN_SHA256, VERIFY_SHA256, RASTER_SHA256,
VIEWPORT_SHA256 or CENSUS_SHA256 and says why; a change to the verify report
alone moves only VERIFY_SHA256.
"""

import hashlib
import json
import random

from taxiconics import adjacency, build_section, cone_from_raw, normalize_plane, point2, rat, section_to_json
from taxiconics.atlas import DEFAULT_BBOX, atlas_sweep, ukappa_sweep
from taxiconics.oracle import OracleConfig, verify_cone
from taxiconics.render import default_viewport, render_raster, render_section

from conftest import random_cones, random_vertex_at_infinity_cones
from test_census import SLICE_STRIDE, census_cones
from test_oracle import ACCEPTANCE_CONES

GOLDEN_SHA256 = "5caafa2509ef9cd98ac84df3ca803f864bb765ec27388d8975785b551ae5facd"
VERIFY_SHA256 = "8bb0ab7c345b0cc367d96a58f119a365168d599f2bb60dc386fee7641bb08dd7"
RASTER_SHA256 = "19a6d017e8f2c370ce2df7394b63f317c5fc3cb6b5b8d8e042f05bb376612f38"
VIEWPORT_SHA256 = "b44382c70a7dd086a815f30a865df2a83f4f423705aabf42ab4ff7e31520cb29"
CENSUS_SHA256 = "d71cdf68c6886cc3d0f16b3986dd9ea0550c33e90b449ac95aef4e7a5b7ac388"

RASTER_KAPPAS = ["1/5", "2/5", "1/2", "4/5", "1", "5/4", "3"]
RASTER_BBOXES = [DEFAULT_BBOX, ("-3/2", "-7/5", "5/3", "2/7"), ("1/3", "-5/4", "9/2", "1/6")]
RASTER_GRIDS = [2, 11, 201]
RASTER_PLANES = [(2, -3, 1), (1, 1, 1), (1, 0, 1), (1, -2, 0), ("2/3", "1/5", 1)]
# The three rasters of the perfbench sweeps workload at its default seed.
WORKLOAD_ATLAS = ((1, -3, 1), "1")
WORKLOAD_UKAPPAS = ["4/5", "3"]


def _adjacency_json(cone):
    return [[v.to_json(), w.to_json(), rel] for v, w, rel in adjacency(cone)]


def sections_digest(cones) -> str:
    """SHA-256 over the section JSON, SVG and adjacency of each cone."""
    h = hashlib.sha256()
    for cone in cones:
        section = build_section(cone)
        h.update(json.dumps(section_to_json(section), sort_keys=True).encode())
        h.update(render_section(section).encode())
        h.update(json.dumps(_adjacency_json(cone)).encode())
    return h.hexdigest()


def golden_digest() -> str:
    acceptance = [cone_from_raw(*spec) for spec in ACCEPTANCE_CONES]
    return sections_digest(acceptance + random_cones(300, 20240811) + random_vertex_at_infinity_cones(200, 20240811))


def verify_digest() -> str:
    h = hashlib.sha256()
    cfg = OracleConfig(grid_n=21)
    for spec in ACCEPTANCE_CONES:
        h.update(json.dumps(verify_cone(cone_from_raw(*spec), cfg)).encode())
    return h.hexdigest()


def raster_digest() -> str:
    h = hashlib.sha256()

    def atlas(plane, kappa, n, bbox):
        rows = atlas_sweep(normalize_plane(plane), kappa, n, bbox)
        h.update(json.dumps(rows).encode())
        h.update(render_raster(rows, bbox).encode())

    def ukappa(kappa, n, bbox):
        rows, bad = ukappa_sweep(kappa, n, bbox)
        h.update(json.dumps([rows, bad]).encode())
        h.update(render_raster(rows, bbox, kappa=kappa).encode())

    atlas(*WORKLOAD_ATLAS, 101, DEFAULT_BBOX)
    for kappa in WORKLOAD_UKAPPAS:
        ukappa(kappa, 101, DEFAULT_BBOX)
    for kappa in RASTER_KAPPAS:
        for bbox in RASTER_BBOXES:
            for n in RASTER_GRIDS:
                ukappa(kappa, n, bbox)
                for plane in RASTER_PLANES:
                    atlas(plane, kappa, n, bbox)
    return h.hexdigest()


def seeded_viewports(section, rng):
    """Three viewports of a section: a box inside its default viewport, which
    cuts the pieces that cross it; a box beside it, which most pieces miss;
    and a box with one corner on a finite vertex (or the origin), which
    pieces leaving that vertex away from the box touch only at the corner."""
    xmin, ymin, xmax, ymax = default_viewport(section)
    w, h = xmax - xmin, ymax - ymin

    def part(top):
        return rat(rng.randrange(top), 9)

    inside = (xmin + w * part(4), ymin + h * part(4), xmax - w * part(4), ymax - h * part(4))
    sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
    beside = (xmin + sx * 2 * w, ymin + sy * 2 * h, xmax + sx * 2 * w, ymax + sy * 2 * h)
    finite = [v.location.point for v in section.vertices if v.location.is_finite]
    c = rng.choice(finite) if finite else point2(0, 0)
    dx, dy = sx * w * (1 + part(9)), sy * h * (1 + part(9))
    corner = (min(c.x1, c.x1 + dx), min(c.x2, c.x2 + dy), max(c.x1, c.x1 + dx), max(c.x2, c.x2 + dy))
    return [inside, beside, corner]


def viewport_digest() -> str:
    rng = random.Random(20240811)
    cones = [cone_from_raw(*spec) for spec in ACCEPTANCE_CONES] + random_cones(300, 20240811)
    h = hashlib.sha256()
    for cone in cones:
        section = build_section(cone)
        for box in seeded_viewports(section, rng):
            h.update(render_section(section, viewport=box, width=rng.randrange(1, 700)).encode())
    return h.hexdigest()


def test_golden_outputs_unchanged():
    assert golden_digest() == GOLDEN_SHA256


def test_census_slice_outputs_unchanged():
    assert sections_digest(census_cones(SLICE_STRIDE)) == CENSUS_SHA256


def test_verify_reports_unchanged():
    assert verify_digest() == VERIFY_SHA256


def test_raster_outputs_unchanged():
    assert raster_digest() == RASTER_SHA256


def test_viewport_outputs_unchanged():
    assert viewport_digest() == VIEWPORT_SHA256
