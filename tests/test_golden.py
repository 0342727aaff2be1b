"""Golden output: one SHA-256 over the section JSON, SVG and adjacency of a
fixed cone set, and the verify reports of the acceptance cones.

The digest pins byte-identical output across refactors.  A change that
alters output on purpose updates GOLDEN_SHA256 and says why.
"""

import hashlib
import json

from taxiconics import adjacency, build_section, cone_from_raw, section_to_json
from taxiconics.oracle import OracleConfig, verify_cone
from taxiconics.render import render_section

from conftest import random_cones, random_vertex_at_infinity_cones
from test_oracle import ACCEPTANCE_CONES

GOLDEN_SHA256 = "429e566eff3ae6017d52c79ee6c404345392277d3b4da47b40b783b969496eed"


def _adjacency_json(cone):
    return [[v.to_json(), w.to_json(), rel] for v, w, rel in adjacency(cone)]


def golden_digest() -> str:
    acceptance = [cone_from_raw(*spec) for spec in ACCEPTANCE_CONES]
    cones = acceptance + random_cones(300, 20240811) + random_vertex_at_infinity_cones(200, 20240811)
    h = hashlib.sha256()
    for cone in cones:
        section = build_section(cone)
        h.update(json.dumps(section_to_json(section), sort_keys=True).encode())
        h.update(render_section(section).encode())
        h.update(json.dumps(_adjacency_json(cone)).encode())
    cfg = OracleConfig(grid_n=21)
    for cone in acceptance:
        h.update(json.dumps(verify_cone(cone, cfg)).encode())
    return h.hexdigest()


def test_golden_outputs_unchanged():
    assert golden_digest() == GOLDEN_SHA256
