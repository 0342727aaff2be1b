"""One owner per rule: no module of the library imports another module's
private name.  A rule that two modules share gets a public name in the
module that owns it, so a second copy cannot hide behind an underscore."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "taxiconics"


def private_imports(path: Path) -> list[str]:
    """`from .<module> import _<name>` (or from taxiconics.<module>) in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("taxiconics"):
            continue
        found += [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 12
    assert [line for path in files for line in private_imports(path)] == []


def test_the_check_sees_a_private_import(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("from .render import check_width, _canvas\nfrom ._rat import rat\n"
                    "from taxiconics.atlas import _side\nfrom os import _exit\n")
    assert private_imports(path) == ["cli.py:1: from .render import _canvas",
                                     "cli.py:3: from taxiconics.atlas import _side"]
