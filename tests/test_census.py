"""The boundary census: every cone with A1, A2, a1, a2 in {0, +-1/2, +-1, +-2},
delta, a3 in {0, 1} and kappa in {1/2, 1, 2}.

Small parameters make the exact equalities that the classification turns
on common: parabolas, vertices at infinity and transitional lines are each
a tenth or more of the census, against a few percent of the random
families.  On every census cone the pieces equal their rebuild from the
residual form, their topology is the class, the points at the exact roots
on each active reference line are its finite vertices, every piece passes the
exact piece check (oracle.check_piece), and the vertex relations equal
their geometric reference.  The shapes of the sections (class, numbers of
segments and rays, vertices at infinity) are pinned: CENSUS_SHAPES for the
whole census, SLICE_SHAPES for the slice.

Tier-1 checks a fixed-stride slice.  Run the whole census, which prints its
counts and exits 1 on a failed check or a drift of the shape table, before
any change to the construction or the verifier:

    PYTHONPATH=src python tests/test_census.py
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from itertools import product

from taxiconics import build_section, cone_from_raw, cone_to_json, rat, section_topology
from taxiconics.cones import active_indices, reference_directions
from taxiconics.errors import DegenerateCone, ZeroVector
from taxiconics.geometry import Segment
from taxiconics.oracle import _rebuild_pieces, check_piece, reference_roots

from relations_reference import relations_agree

VALUES = [rat(0)] + [s * rat(v) for v in ("1/2", "1", "2") for s in (1, -1)]
KAPPAS = [rat(1, 2), rat(1), rat(2)]
# every SLICE_STRIDE-th parameter choice: 2297 cones.  The stride is prime
# to the 12 choices of (delta, a3, kappa) and the 7 values, so the slice
# keeps the census's shares of each case
SLICE_STRIDE = 11

# (class, segments, rays, vertices at infinity): number of sections.  The
# sections with no segment are exactly the horizontal defining lines.
CENSUS_SHAPES = {
    ("ellipse", 4, 0, 0): 2307,
    ("ellipse", 6, 0, 0): 1268,
    ("hyperbola", 0, 4, 0): 12480,
    ("hyperbola", 1, 4, 1): 1408,
    ("hyperbola", 2, 4, 0): 2800,
    ("hyperbola", 2, 4, 2): 244,
    ("hyperbola", 3, 4, 1): 952,
    ("hyperbola", 4, 4, 0): 816,
    ("parabola", 1, 2, 2): 520,
    ("parabola", 2, 2, 1): 1536,
    ("parabola", 3, 2, 2): 424,
    ("parabola", 4, 2, 1): 508,
}
SLICE_SHAPES = {
    ("ellipse", 4, 0, 0): 218,
    ("ellipse", 6, 0, 0): 113,
    ("hyperbola", 0, 4, 0): 1133,
    ("hyperbola", 1, 4, 1): 136,
    ("hyperbola", 2, 4, 0): 247,
    ("hyperbola", 2, 4, 2): 21,
    ("hyperbola", 3, 4, 1): 88,
    ("hyperbola", 4, 4, 0): 73,
    ("parabola", 1, 2, 2): 42,
    ("parabola", 2, 2, 1): 137,
    ("parabola", 3, 2, 2): 42,
    ("parabola", 4, 2, 1): 47,
}


def census_specs():
    """The census parameter choices (A, a, kappa), valid or not, in a fixed order."""
    for A1, A2, a1, a2 in product(VALUES, repeat=4):
        for delta, a3 in product((0, 1), repeat=2):
            for kappa in KAPPAS:
                yield (A1, A2, delta), (a1, a2, a3), kappa


def census_cones(stride: int = 1, rejected: Counter | None = None) -> list:
    """The valid cones among every stride-th census choice; the rest are
    counted in rejected by the name of their error."""
    cones = []
    for k, spec in enumerate(census_specs()):
        if k % stride:
            continue
        try:
            cones.append(cone_from_raw(*spec))
        except (DegenerateCone, ZeroVector) as err:
            if rejected is not None:
                rejected[type(err).__name__] += 1
    return cones


def census_failures(cone, section) -> tuple:
    """The checks the section of cone fails: rebuild, topology, roots on
    rho^i, pieces, relations."""
    failed = []
    if section.pieces != _rebuild_pieces(cone):
        failed.append("rebuild")
    try:
        topology = section_topology(section.pieces)
    except ValueError:
        topology = "no conic"
    if topology != section.klass:
        failed.append("topology")
    b, directions = cone.line.base, reference_directions(cone.line)
    for i in active_indices(cone.line):
        r1, r2 = directions[i]
        points = sorted(tuple(v.location.point) for v in section.vertices
                        if v.location.is_finite and v.ref_index == i)
        roots, interval = reference_roots(cone, i)
        if interval or sorted((b.x1 + t * r1, b.x2 + t * r2) for t in roots) != points:
            failed.append(f"roots on rho^{i}")
    if any(check_piece(cone.residual_form, piece)[1] for piece in section.pieces):
        failed.append("pieces")
    if not cone.line.is_horizontal and not relations_agree(cone, section.vertices):
        failed.append("relations")
    return tuple(failed)


def section_shape(section) -> tuple:
    """(class, segments, rays, vertices at infinity) of a section."""
    segments = sum(isinstance(p, Segment) for p in section.pieces)
    at_infinity = sum(not v.location.is_finite for v in section.vertices)
    return section.klass, segments, len(section.pieces) - segments, at_infinity


def census_counts(cones, failed: list, shapes: Counter) -> Counter:
    """Class and boundary-case counts over cones; each section's shape is
    counted in shapes, and each cone that fails a check goes into failed with
    the checks it fails."""
    counts = Counter(cones=len(cones))
    for cone in cones:
        section = build_section(cone)
        counts[section.klass] += 1
        shapes[section_shape(section)] += 1
        counts["vertex at infinity"] += any(not v.location.is_finite for v in section.vertices)
        counts["transitional line"] += cone.line.dominance.is_transitional
        counts["horizontal line"] += cone.line.is_horizontal
        if checks := census_failures(cone, section):
            failed.append((cone_to_json(cone), checks))
    counts["failed"] = len(failed)
    return counts


def test_census_slice():
    failed, shapes = [], Counter()
    counts = census_counts(census_cones(SLICE_STRIDE), failed, shapes)
    assert failed == []
    assert shapes == SLICE_SHAPES
    # the slice keeps every boundary case of the census
    for case in ("ellipse", "parabola", "hyperbola", "vertex at infinity",
                 "transitional line", "horizontal line"):
        assert counts[case] > 100, (case, counts)


def main() -> int:
    start = time.perf_counter()
    rejected, failed, shapes = Counter(), [], Counter()
    counts = census_counts(census_cones(rejected=rejected), failed, shapes)
    for name, count in sorted({**counts, **rejected}.items()):
        print(f"{name}: {count}")
    for shape, count in sorted(shapes.items()):
        print(f"shape {' '.join(map(str, shape))}: {count}")
    drift = [s for s in sorted(set(shapes) | set(CENSUS_SHAPES)) if shapes[s] != CENSUS_SHAPES.get(s, 0)]
    for shape in drift:
        print(f"SHAPE DRIFT {' '.join(map(str, shape))}: {shapes[shape]}, pinned {CENSUS_SHAPES.get(shape, 0)}")
    for cone, checks in failed:
        print(f"FAILED {', '.join(checks)}: {cone}")
    print(f"seconds: {time.perf_counter() - start:.1f}")
    return 1 if failed or drift else 0


if __name__ == "__main__":
    sys.exit(main())
