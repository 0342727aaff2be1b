"""Exact rational scalar type.

Every quantity in the core pipeline (coordinates, plane/line parameters,
kappa, strip half-widths, ...) is an exact rational, a fractions.Fraction.
It keeps values reduced with a positive denominator, which is exactly the
invariant we need.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Union

Rat = Fraction

RatLike = Union[int, str, Fraction]

_RAT_RE = re.compile(r"^(-?[0-9]+)(?:/(-?[0-9]+))?$")


def rat(value: RatLike, den: int | None = None) -> Rat:
    """Coerce ints, strings and Fractions to Rat; floats and bools are refused."""
    if den is not None:
        return Rat(value, den)
    if isinstance(value, str):
        return parse_rat(value)
    if isinstance(value, (float, bool)):
        raise TypeError(f"{value!r} is not an exact rational; pass an int, string or rational")
    return Rat(value)


def parse_rat(text: str) -> Rat:
    """Parse "p/q" (or plain "p"); rejects zero denominators."""
    m = _RAT_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Rat(num, den)


def rats(values, n: int) -> list[Rat]:
    """A JSON list of exactly n rationals, coerced with rat."""
    if not isinstance(values, list) or len(values) != n:
        raise ValueError(f"expected a list of {n} rationals, got {values!r}")
    return [rat(v) for v in values]


def as_integers(values) -> tuple[list[int], int]:
    """Rationals scaled by the lcm d of their denominators, as integers, and d."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def rat_str(value) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def sign(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0
