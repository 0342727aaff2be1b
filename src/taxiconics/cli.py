"""Command-line interface.

Subcommands: classify, section, verify, atlas, ukappa, render.  Exit codes:
0 success, 1 invalid input (usage errors included), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._rat import rat, rat_str
from .atlas import DEFAULT_BBOX, MAX_GRID, atlas_sweep, ukappa_sweep
from .cones import cone_from_json, normalize_plane
from .errors import TaxiconicsError
from .oracle import OracleConfig, verify_cone
from .render import check_width, render_section, write_raster
from .sections import build_section, classify, section_from_json, section_to_json


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    """The JSON value in a file; nesting too deep to decode is a ValueError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_cone(path: str):
    return cone_from_json(_read_json(path))


def _split(text: str, form: str) -> list[str]:
    """The comma-separated fields of text, as many as form names."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(form.split(",")):
        raise ValueError(f"expected {form}, got {text!r}")
    return parts


def _cmd_classify(args) -> int:
    cone = _load_cone(args.spec)
    print(classify(cone))
    return 0


def _cmd_section(args) -> int:
    cone = _load_cone(args.spec)
    section = build_section(cone)
    _write(_dump_json(section_to_json(section)), args.output)
    return 0


def _cmd_verify(args) -> int:
    cone = _load_cone(args.spec)
    report = verify_cone(cone, OracleConfig(grid_n=args.grid))
    _write(_dump_json(report), args.output)
    if report["violations"]:
        print(f"FAIL: {len(report['violations'])} violation(s)", file=sys.stderr)
        return 2
    print(
        f"ok: {report['vertices_checked']} vertices, "
        f"{report['piece_points_checked']} piece points, "
        f"{report['grid']['points_checked']} grid points",
        file=sys.stderr,
    )
    return 0


def _cmd_atlas(args) -> int:
    plane = normalize_plane(_split(args.plane, "A1,A2,A3"))
    bbox = _split(args.bbox, "x0,y0,x1,y1")
    kappa = rat(args.kappa)
    check_width(args.width)
    rows = atlas_sweep(plane, kappa, args.grid, bbox)
    payload = {
        "plane": plane.to_json(),
        "kappa": rat_str(kappa),
        "bbox": bbox,
        "rows": rows,
    }
    _write(_dump_json(payload), args.output)
    if args.svg:
        write_raster(args.svg, rows, bbox, width=args.width)
    return 0


def _cmd_ukappa(args) -> int:
    bbox = _split(args.bbox, "x0,y0,x1,y1")
    kappa = rat(args.kappa)
    check_width(args.width)
    rows, bad = ukappa_sweep(kappa, args.grid, bbox)
    payload = {
        "kappa": rat_str(kappa),
        "bbox": bbox,
        "rows": rows,
        "inconsistencies": bad,
    }
    _write(_dump_json(payload), args.output)
    if args.svg:
        write_raster(args.svg, rows, bbox, kappa=kappa, width=args.width)
    if bad:
        print(f"FAIL: {len(bad)} classification inconsistencies", file=sys.stderr)
        return 2
    return 0


def _cmd_render(args) -> int:
    section = section_from_json(_read_json(args.section))
    viewport = None
    if args.viewport:
        viewport = tuple(map(rat, _split(args.viewport, "x0,y0,x1,y1")))
    _write(render_section(section, viewport, args.width), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so main reports them as invalid input (exit 1)."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taxiconics",
        description="Taxicab conic sections: classify, construct, verify, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the section class of a cone spec")
    p.add_argument("spec", help="cone spec JSON file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("section", help="construct the section as JSON")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_section)

    p = sub.add_parser("verify", help="run the exact verification suite")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--grid", type=int, default=201, help=f"odd grid resolution, 3 to {MAX_GRID}")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("atlas", help="classification raster over line parameters")
    p.add_argument("--plane", required=True, help='plane triple, e.g. "2/3,1/5,1"')
    p.add_argument("--kappa", required=True)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--bbox", default=",".join(DEFAULT_BBOX), help="x0,y0,x1,y1 (default %(default)s)")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--svg", default=None, help="also write an SVG heat-map")
    p.add_argument("--width", type=int, default=480)
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("ukappa", help="perpendicular-case classification map")
    p.add_argument("--kappa", required=True)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--bbox", default=",".join(DEFAULT_BBOX))
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--width", type=int, default=480)
    p.set_defaults(func=_cmd_ukappa)

    p = sub.add_parser("render", help="render a section JSON file to SVG")
    p.add_argument("section")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--viewport", default=None, help="x0,y0,x1,y1 in world units")
    p.add_argument("--width", type=int, default=480)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (TaxiconicsError, ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
