"""Shared random-cone generators with fixed seeds."""

from __future__ import annotations

import random

import pytest

from taxiconics import cone_from_raw, make_cone, normalize_line, normalize_plane, point3, rat, vertices
from taxiconics.errors import DegenerateCone, ZeroVector
from taxiconics.metric import dist_to_line, dist_to_plane


def reference_residual(cone, p):
    """d(x, ell) - kappa d(x, P) at the slicing-plane point p, from metric's
    Fraction distances: the scalar reference for cone.residual_form."""
    x = point3(p.x1, p.x2, 1)
    return dist_to_line(x, cone.line) - cone.kappa * dist_to_plane(x, cone.plane)


def rnd_rat(rng: random.Random, lo=-4, hi=4, den_max=8):
    den = rng.randrange(1, den_max + 1)
    return rat(rng.randrange(lo * den, hi * den + 1), den)


def random_plane_triple(rng: random.Random, allow_vertical=True, allow_horizontal=True):
    r = rng.random()
    if allow_vertical and r < 0.12:
        return (rnd_rat(rng), rnd_rat(rng), 0)
    if allow_horizontal and r < 0.2:
        return (0, 0, 1)
    return (rnd_rat(rng), rnd_rat(rng), 1)


def random_line_triple(rng: random.Random, allow_horizontal=True):
    if allow_horizontal and rng.random() < 0.12:
        return (rnd_rat(rng), rnd_rat(rng), 0)
    return (rnd_rat(rng), rnd_rat(rng), 1)


def random_kappa(rng: random.Random):
    return rat(rng.randrange(1, 25), rng.randrange(1, 7))


def random_cone(
    rng: random.Random,
    allow_horizontal_line=True,
    allow_vertical_plane=True,
    allow_horizontal_plane=True,
):
    while True:
        try:
            return cone_from_raw(
                random_plane_triple(rng, allow_vertical_plane, allow_horizontal_plane),
                random_line_triple(rng, allow_horizontal_line),
                random_kappa(rng),
            )
        except (DegenerateCone, ZeroVector):
            continue


def random_cones(n: int, seed: int, **kwargs) -> list:
    rng = random.Random(seed)
    return [random_cone(rng, **kwargs) for _ in range(n)]


def horizontal_line_cones(n: int, seed: int) -> list:
    """Cones whose defining line is horizontal (a3 = 0)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        try:
            out.append(cone_from_raw(random_plane_triple(rng), (rnd_rat(rng), rnd_rat(rng), 0),
                                     random_kappa(rng)))
        except (DegenerateCone, ZeroVector):
            continue
    return out


def vertical_plane_cones(n: int, seed: int) -> list:
    """Cones whose defining plane is vertical (delta = 0)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        try:
            out.append(cone_from_raw((rnd_rat(rng), rnd_rat(rng), 0), (rnd_rat(rng), rnd_rat(rng), 1),
                                     random_kappa(rng)))
        except (DegenerateCone, ZeroVector):
            continue
    return out


def random_vertex_at_infinity_cones(n: int, seed: int) -> list:
    """Cones with at least one section vertex at infinity.

    kappa is chosen so that M/kappa equals |A1|, |A2| or |A1 a1 + A2 a2|,
    which puts the vertex on rho^1, rho^2 or rho^3 at infinity.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        try:
            plane = normalize_plane(random_plane_triple(rng, allow_horizontal=False))
            line = normalize_line(random_line_triple(rng, allow_horizontal=False))
        except ZeroVector:
            continue
        if plane.is_horizontal:  # (0, 0, 1): no vertex ever escapes to infinity
            continue
        targets = [abs(plane.A1), abs(plane.A2), abs(plane.A1 * line.a1 + plane.A2 * line.a2)]
        target = rng.choice([t for t in targets if t != 0])
        try:
            cone = make_cone(plane, line, plane.M / target)
        except DegenerateCone:
            continue
        if any(not v.location.is_finite for v in vertices(cone)):
            out.append(cone)
    return out


def random_steep_line_triple(rng: random.Random):
    while True:
        a1, a2 = rnd_rat(rng, -1, 1), rnd_rat(rng, -1, 1)
        if abs(a1) + abs(a2) < 1:
            return (a1, a2, 1)


def random_steep_plane_triple(rng: random.Random):
    while True:
        A1, A2 = rnd_rat(rng, -4, 4), rnd_rat(rng, -4, 4)
        if max(abs(A1), abs(A2)) > 1:
            return (A1, A2, 1)


@pytest.fixture(scope="session")
def cone_family():
    """1000 fixed-seed random cones shared by the invariant suites."""
    return random_cones(1000, seed=20240811)
