"""Parameter-space sweeps: classification rasters over line parameters and
over the perpendicular-case parameters."""

from __future__ import annotations

from ._rat import rat, rat_str
from .cones import PlaneParams, make_cone, normalize_line
from .errors import DegenerateCone
from .geometry import Point2
from .sections import ELLIPSE, HYPERBOLA, PARABOLA, classify
from .special import u_kappa_check

_LETTER = {ELLIPSE: "E", PARABOLA: "P", HYPERBOLA: "H"}

DEFAULT_BBOX = ("-2", "-2", "2", "2")


def _grid_coords(lo, hi, n):
    lo, hi = rat(lo), rat(hi)
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def atlas_sweep(plane: PlaneParams, kappa, n: int, bbox=DEFAULT_BBOX) -> list[str]:
    """n x n raster of section classes over line parameters (a1, a2, 1).

    Rows run bottom-up (row 0 at the smallest a2), cells left to right.
    """
    x0, y0, x1, y1 = bbox
    kappa = rat(kappa)
    xs = _grid_coords(x0, x1, n)
    rows = []
    for y in _grid_coords(y0, y1, n):
        row = []
        for x in xs:
            try:
                cone = make_cone(plane, normalize_line((x, y, 1)), kappa)
            except DegenerateCone:
                row.append("D")
                continue
            row.append(_LETTER[classify(cone)])
        rows.append("".join(row))
    return rows


def ukappa_sweep(kappa, n: int, bbox=DEFAULT_BBOX):
    """Raster of perpendicular-cone classes over A = a = (x, y, 1), plus any
    disagreements with the U_kappa membership prediction (must be none)."""
    x0, y0, x1, y1 = bbox
    kappa = rat(kappa)
    xs = _grid_coords(x0, x1, n)
    rows = []
    inconsistencies = []
    for y in _grid_coords(y0, y1, n):
        row = []
        for x in xs:
            check = u_kappa_check(kappa, Point2(x, y))
            row.append(_LETTER[check.actual])
            if not check.consistent:
                inconsistencies.append(
                    {"A": [rat_str(x), rat_str(y)], "expected": check.expected, "actual": check.actual}
                )
        rows.append("".join(row))
    return rows, inconsistencies
