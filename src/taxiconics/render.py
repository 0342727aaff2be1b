"""Deterministic SVG rendering of sections and parameter-space rasters.

Exact rational geometry is clipped to the viewport in integers before any
float appears: pieces along their spans by geometry.clip_interval, lines by
geometry.clip_line.  Rational-to-decimal conversion happens only here, at 12
significant digits, so identical inputs produce byte-identical SVG.  A
raster document is streamed a row at a time.
"""

from __future__ import annotations

from itertools import chain, groupby
from typing import Iterator, Optional

from ._rat import as_integers, rat
from .cones import positive_kappa
from .geometry import Line2, Point2, clip_interval, clip_line, padded_box
from .sections import ConicSection, finite_points


def check_width(width: int):
    if width < 1:
        raise ValueError(f"width must be at least 1 pixel, got {width}")


_DEFAULT_STYLES = {
    "section": 'stroke="#1f3a93" stroke-width="2.5" fill="none"',
    "trace": 'stroke="#444444" stroke-width="1.2" stroke-dasharray="7 4" fill="none"',
    "ref_line": 'stroke="#c8c8c8" stroke-width="0.8" fill="none"',
    "vertex": 'fill="#c0392b" stroke="none"',
    "aux": 'fill="none" stroke="#2e8b57" stroke-width="1.2"',
    "ukappa_boundary": 'stroke="#888888" stroke-width="1" fill="none"',
}


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


class _Canvas:
    def __init__(self, box, width):
        self.box = tuple(rat(c) for c in box)
        xmin, ymin, xmax, ymax = self.box
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("viewport must have positive extent")
        self.scale = width / float(xmax - xmin)
        w, h = _fmt(width), _fmt(float(ymax - ymin) * self.scale)
        self.head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                     f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">')
        # the box as four integer forms h1 x + h2 y + h0 >= 0
        (x0, y0, x1, y1), d = as_integers(self.box)
        self.forms = ((d, 0, -x0), (-d, 0, x1), (0, d, -y0), (0, -d, y1))

    def to_px(self, p: Point2):
        xmin, _, _, ymax = self.box
        return (
            float(p.x1 - xmin) * self.scale,
            float(ymax - p.x2) * self.scale,
        )

    def path(self, a: Point2, b: Point2, style: str) -> str:
        ax, ay = self.to_px(a)
        bx, by = self.to_px(b)
        return (
            f'<path d="M {_fmt(ax)} {_fmt(ay)} L {_fmt(bx)} {_fmt(by)}" {style}/>'
        )

    def clipped(self, ends, style: str) -> Optional[str]:
        """Path between the ends of a part clipped to the box; None when the
        part is empty or a single point."""
        return None if ends is None else self.path(*ends, style)

    def clipped_piece(self, piece, style: str) -> Optional[str]:
        """The span q + t d, 0 <= t <= hi, of a piece clipped to the box."""
        q, d, hi = piece.span
        (qx, qy, d1, d2), m = as_integers((q.x1, q.x2, d.x1, d.x2))
        return self.clipped(clip_interval((qx, qy, m), (d1, d2), self.forms, 0, hi), style)

    def clipped_line(self, g: Line2, style: str) -> Optional[str]:
        return self.clipped(clip_line((int(g.c1), int(g.c2), int(g.c0)), self.forms), style)

    def marker(self, p: Point2, radius: float, style: str) -> str:
        x, y = self.to_px(p)
        return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" {style}/>'


def default_viewport(section: ConicSection):
    """Bounding box of the finite features and active auxiliary points, padded by 1."""
    points = list(finite_points(section))
    points += [a.location.point for a in section.aux_points if a.active and a.location.is_finite]
    return padded_box(points or [Point2(rat(0), rat(0))], 1)


def render_section(section: ConicSection, viewport=None, width: int = 480) -> str:
    """SVG for a section: pieces, dashed trace, light reference lines, and
    markers for vertices and active auxiliary points.

    viewport is (xmin, ymin, xmax, ymax), rationals; None takes
    default_viewport.  Pieces and lines are clipped to it; markers are always
    emitted (outside the viewBox they are simply not visible), so a
    non-overlapping viewport still yields a valid document with markers only.
    """
    check_width(width)
    canvas = _Canvas(default_viewport(section) if viewport is None else viewport, width)
    body: list[str] = []
    for _, g, _active in section.ref_lines:
        el = canvas.clipped_line(g, _DEFAULT_STYLES["ref_line"])
        if el:
            body.append(el)
    if section.trace is not None:
        el = canvas.clipped_line(section.trace, _DEFAULT_STYLES["trace"])
        if el:
            body.append(el)
    for piece in section.pieces:
        el = canvas.clipped_piece(piece, _DEFAULT_STYLES["section"])
        if el:
            body.append(el)
    for v in section.vertices:
        if v.location.is_finite:
            body.append(canvas.marker(v.location.point, 3.2, _DEFAULT_STYLES["vertex"]))
    for a in section.aux_points:
        if a.active and a.location.is_finite:
            body.append(canvas.marker(a.location.point, 2.6, _DEFAULT_STYLES["aux"]))
    return "\n".join([canvas.head, *body, "</svg>", ""])


_CELL_FILL = {
    "E": "#7fc97f",
    "P": "#fdc086",
    "H": "#beaed4",
    "D": "#e0e0e0",
}
_DROP_CELL_LETTERS = str.maketrans("", "", "".join(_CELL_FILL))


def raster_chunks(rows: list[str], bbox, kappa=None, width: int = 480) -> Iterator[str]:
    """SVG heat-map of a classification raster (row 0 at the bottom) as the
    chunks of one document: the head, each row, the overlay and the end tag.

    The rows must all have one nonzero length, there must be at least one,
    and every letter must be E, P, H or D.  Given kappa, overlays the disks
    and square whose arrangement bounds the ellipse region U_kappa of the
    perpendicular case.  Every check runs before the first chunk is yielded.
    """
    check_width(width)
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    if n_cols == 0 or any(len(row) != n_cols for row in rows):
        raise ValueError(
            f"a raster needs at least one row and rows of one nonzero length, "
            f"got lengths {sorted({len(row) for row in rows})}"
        )
    unknown = "".join(rows).translate(_DROP_CELL_LETTERS)
    if unknown:
        raise ValueError(f"raster letters must be E, P, H or D, got {', '.join(sorted(set(unknown)))}")
    canvas = _Canvas(bbox, width)
    k = None if kappa is None else float(positive_kappa(kappa))
    yield canvas.head + "\n"
    xmin, ymin, xmax, ymax = canvas.box
    cell_w = float(xmax - xmin) * canvas.scale / n_cols
    cell_h = float(ymax - ymin) * canvas.scale / n_rows
    # Each column's x, each row's y and the cell size are formatted once.
    # A row's text is its y and the size joined between cols[0] and then
    # tails[letter][i] for each cell i: the end of cell i, a newline and the
    # start of cell i + 1, or the end and the row's newline for the last
    # cell.  A run of equal letters is one list slice.
    cols = [f'<rect x="{_fmt(ix * cell_w)}" y="' for ix in range(n_cols)]
    size = f'" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="'
    ends = {letter: f'{fill}"/>' for letter, fill in _CELL_FILL.items()}
    tails = {letter: [f"{end}\n{col}" for col in cols[1:]] + [end + "\n"] for letter, end in ends.items()}
    for iy, row in enumerate(rows):
        parts, start = [cols[0]], 0
        for letter, run in groupby(row):
            stop = start + len(list(run))
            parts += tails[letter][start:stop]
            start = stop
        yield (_fmt((n_rows - 1 - iy) * cell_h) + size).join(parts)
    if k is not None:
        style = _DEFAULT_STYLES["ukappa_boundary"]
        px, py = canvas.to_px(Point2(rat(0), rat(0)))

        def circle(cx, cy, r):
            x = px + cx * canvas.scale
            y = py - cy * canvas.scale
            return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r * canvas.scale)}" {style}/>\n'

        yield circle(0.0, 0.0, k ** -0.5)
        if k < 1:
            r = 1.0 / (2 * k)
            for cx, cy in ((r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)):
                yield circle(cx, cy, r)
        else:
            s = 1.0 / k * canvas.scale
            yield (
                f'<rect x="{_fmt(px - s)}" y="{_fmt(py - s)}" '
                f'width="{_fmt(2 * s)}" height="{_fmt(2 * s)}" {style}/>\n'
            )
    yield "</svg>\n"


def render_raster(rows: list[str], bbox, kappa=None, width: int = 480) -> str:
    """The raster_chunks document as one string."""
    return "".join(raster_chunks(rows, bbox, kappa, width))


def write_raster(path, rows: list[str], bbox, kappa=None, width: int = 480):
    """Write the raster_chunks document to path, opened once every check passed."""
    chunks = raster_chunks(rows, bbox, kappa, width)
    head = next(chunks)
    with open(path, "w") as out:
        out.writelines(chain([head], chunks))
