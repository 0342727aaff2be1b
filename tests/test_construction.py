"""The construction's integer closed forms against their Fraction reference.

vertex_slot and auxiliary_points read the cone's integer frame
(ConeSpec.frame); tests/construction_reference.py computes the same points
with Fraction arithmetic.  The two agree point by point on fixed cone sets and
on hypothesis-drawn cones, and build_section keeps to a budget of Fraction
operations per cone.
"""

import contextlib
import functools
import inspect
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taxiconics import build_section, cone_from_raw, cone_to_json, make_cone, rat
from taxiconics.cones import ConeSpec, normalize_line, normalize_plane, reference_directions
from taxiconics.errors import DegenerateCone, ZeroVector
from taxiconics.sections import auxiliary_points, vertex_slot

from conftest import horizontal_line_cones, random_vertex_at_infinity_cones
from construction_reference import reference_aux_locations, reference_vertex_slot
from test_oracle import ACCEPTANCE_CONES, FIG8


def assert_slots_match_reference(cone):
    """Every defined slot, active or not."""
    for i in reference_directions(cone.line):
        for s in (1, -1):
            assert vertex_slot(cone, i, s) == reference_vertex_slot(cone, i, s), (cone_to_json(cone), i, s)


def assert_aux_points_match_reference(cone):
    if cone.plane.is_horizontal:
        return
    got = {p.pair: p.location for p in auxiliary_points(cone)}
    assert got == reference_aux_locations(cone), cone_to_json(cone)


def _fixed_cones(cone_family):
    return ([cone_from_raw(*spec) for spec in ACCEPTANCE_CONES] + cone_family
            + random_vertex_at_infinity_cones(1000, 20240811) + horizontal_line_cones(300, 12))


def test_vertex_slots_equal_the_fraction_reference(cone_family):
    cones = _fixed_cones(cone_family)
    for cone in cones:
        assert_slots_match_reference(cone)
    at_infinity = sum(not vertex_slot(c, i, s).is_finite
                      for c in cones for i in reference_directions(c.line) for s in (1, -1))
    assert at_infinity >= 1000


def test_auxiliary_points_equal_the_fraction_reference(cone_family):
    cones = _fixed_cones(cone_family)
    for cone in cones:
        assert_aux_points_match_reference(cone)
    assert any(c.line.is_horizontal and not c.plane.is_horizontal for c in cones)


rationals = st.builds(rat, st.integers(-12, 12), st.integers(1, 6))


@settings(deadline=None, max_examples=300)
@given(rationals, rationals, st.sampled_from([0, 1]), rationals, rationals, st.sampled_from([0, 1]),
       st.sampled_from([0, 1, 2, 3]), st.builds(rat, st.integers(1, 24), st.integers(1, 6)))
def test_construction_equals_the_fraction_reference_hypothesis(A1, A2, delta, a1, a2, a3, pick, kappa):
    try:
        plane, line = normalize_plane((A1, A2, delta)), normalize_line((a1, a2, a3))
    except ZeroVector:
        assume(False)
    # pick 1..3 puts the vertex on rho^pick at infinity when that is possible
    targets = [abs(plane.A1), abs(plane.A2), abs(plane.A1 * line.a1 + plane.A2 * line.a2)]
    if pick and targets[pick - 1] != 0:
        kappa = plane.M / targets[pick - 1]
    try:
        cone = make_cone(plane, line, kappa)
    except DegenerateCone:
        assume(False)
    assert_slots_match_reference(cone)
    assert_aux_points_match_reference(cone)


def test_the_frame_leaves_the_cone_value_unchanged():
    cone, twin = cone_from_raw(*FIG8), cone_from_raw(*FIG8)
    before = (repr(cone), hash(cone), cone_to_json(cone))
    build_section(cone)
    assert "frame" in vars(cone) and "frame" not in vars(twin)
    assert (repr(cone), hash(cone), cone_to_json(cone)) == before
    assert cone == twin and hash(cone) == hash(twin) and repr(cone) == repr(twin)


def test_the_frame_is_the_cone_over_common_denominators(cone_family):
    for cone in cone_family[:300] + horizontal_line_cones(50, 13):
        f, plane, line = cone.frame, cone.plane, cone.line
        assert f.q > 0 and f.Q > 0 and f.hd > 0
        assert (Fraction(f.n1, f.q), Fraction(f.n2, f.q)) == (line.a1, line.a2)
        assert (Fraction(f.P1, f.Q), Fraction(f.P2, f.Q), Fraction(f.P0, f.Q)) == plane.triple()
        assert Fraction(f.hn, f.hd) == plane.M / cone.kappa
        assert Fraction(f.E, f.Q * f.q) == cone.incidence


# The counting method of perfbench/tracing.py's count_fraction_ops, without
# its numpy import: every call of a public Fraction method or operator.
def _fraction_methods():
    for name, attr in vars(Fraction).items():
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(attr, (staticmethod, classmethod)) and inspect.isfunction(attr.__func__):
            yield name, attr
        elif inspect.isfunction(attr):
            yield name, attr


@contextlib.contextmanager
def count_fraction_ops(box: list):
    saved = dict(_fraction_methods())

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, attr in saved.items():
        if isinstance(attr, (staticmethod, classmethod)):
            setattr(Fraction, name, type(attr)(counted(attr.__func__)))
        else:
            setattr(Fraction, name, counted(attr))
    try:
        yield
    finally:
        for name, attr in saved.items():
            setattr(Fraction, name, attr)


# Fraction operations per cone of build_section on the first 300 family
# cones, frames included: 584 when every vertex and auxiliary point was
# computed in Fractions, and about 150 from the integer frame.
FRACTION_OPS_PER_CONE = 200


def test_build_section_keeps_its_fraction_operation_budget(cone_family):
    cones = [ConeSpec(c.plane, c.line, c.kappa) for c in cone_family[:300]]  # no cached frame
    box = [0]
    with count_fraction_ops(box):
        for cone in cones:
            build_section(cone)
    assert box[0] > 0, "the counter saw no Fraction operation"
    assert box[0] / len(cones) < FRACTION_OPS_PER_CONE, box[0] / len(cones)
