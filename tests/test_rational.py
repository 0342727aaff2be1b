import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxiconics import parse_rat, rat, rat_str

rationals = st.builds(
    lambda n, d: rat(n, d),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)


def test_parse_and_format():
    assert parse_rat("3/2") == rat(3, 2)
    assert parse_rat("-7") == rat(-7)
    assert parse_rat(" 4/6 ") == rat(2, 3)
    assert rat_str(rat(3, 2)) == "3/2"
    assert rat_str(rat(14, 7)) == "2"
    assert rat_str(rat(-1, 3)) == "-1/3"


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_rat("3/0")


@pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/2/3", "2 / 3", "\u0663/4", "\uff13", "1/\uff12"])
def test_parse_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_reduced_with_positive_denominator():
    r = rat(4, -6)
    assert (r.numerator, r.denominator) == (-2, 3)


@settings(deadline=None, max_examples=200)
@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a != 0:
        assert a * (1 / a) == 1
    assert a + (-a) == 0


@settings(deadline=None, max_examples=100)
@given(rationals)
def test_string_round_trip(a):
    assert parse_rat(rat_str(a)) == a
