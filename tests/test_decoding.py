"""Strict JSON decoding: any JSON value either decodes or raises ValueError
(or a library error for a well-formed but invalid cone); nothing else."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxiconics import (
    build_section,
    cone_from_json,
    cone_from_raw,
    cone_to_json,
    rat,
    section_from_json,
    section_to_json,
)
from taxiconics.cli import main
from taxiconics.errors import TaxiconicsError
from taxiconics.render import render_section

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | st.sampled_from(
    ["1", "-3/4", "0", "segment", "ray", "+", "-", "A", "a", "kappa", "xy", "dir"]
)
KEYS = st.sampled_from([
    "A", "a", "kappa", "class", "pieces", "vertices", "aux", "trace", "ref_lines", "warnings",
    "kind", "b", "base", "dir", "xy", "at_infinity", "ref", "sign", "pair", "active",
    "index", "line",
]) | st.text(max_size=4)
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=6),
    max_leaves=30,
)


def _decodes_or_raises_value_error(decode, data):
    try:
        decode(data)
    except (ValueError, TaxiconicsError):
        pass


@settings(max_examples=200, deadline=None)
@given(JSON)
def test_section_from_json_raises_only_value_errors(data):
    _decodes_or_raises_value_error(section_from_json, data)


@settings(max_examples=200, deadline=None)
@given(JSON)
def test_cone_from_json_raises_only_value_errors(data):
    _decodes_or_raises_value_error(cone_from_json, data)


FIG8 = cone_from_raw((rat(1, 2), rat(1, 5), 1), (rat(3, 2), 1, 1), 2)
HORIZONTAL = cone_from_raw((rat(1, 2), rat(1, 3), 1), (3, 1, 0), 1)
DOCUMENTS = [section_to_json(build_section(c)) for c in (FIG8, HORIZONTAL)] + [cone_to_json(FIG8)]


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


@settings(max_examples=200, deadline=None)
@given(st.data(), JSON)
def test_one_corrupted_field_raises_only_value_errors(data, value):
    doc = data.draw(st.sampled_from(DOCUMENTS))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    corrupted = _replaced(doc, path, value)
    if "kappa" in doc:
        _decodes_or_raises_value_error(cone_from_json, corrupted)
        return
    try:
        render_section(section_from_json(corrupted))
    except (ValueError, TaxiconicsError, OverflowError):
        pass


@pytest.mark.parametrize("warnings", [[1, {"x": [None]}], [None], ["ok", 2], [["nested"]]])
def test_section_warnings_must_be_strings(tmp_path, capsys, warnings):
    doc = dict(DOCUMENTS[0], warnings=warnings)
    with pytest.raises(ValueError, match="'warnings' must be a list of strings"):
        section_from_json(doc)
    path = tmp_path / "section.json"
    path.write_text(json.dumps(doc))
    assert main(["render", str(path), "-o", str(tmp_path / "out.svg")]) == 1
    assert capsys.readouterr().err.startswith("error: malformed section")
    assert not (tmp_path / "out.svg").exists()


def test_section_string_warnings_round_trip():
    doc = dict(DOCUMENTS[0], warnings=["first", ""])
    assert section_to_json(section_from_json(doc)) == doc
