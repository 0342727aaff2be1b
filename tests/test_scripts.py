"""Smoke test of scripts/reproduce_figures.py: the files it writes at a small
grid, pinned by one SHA-256 over their sorted names and bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIGURES_SHA256 = "70489a9f1d8f5816ae4c6712cde4cf94cc711c77b36a1a35997c101756ee85b1"


def test_reproduce_figures_writes_pinned_files(tmp_path):
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"), "--out", str(out), "--grid", "11"],
        check=True, capture_output=True, env=env,
    )
    files = sorted(out.iterdir())
    assert len(files) == 25
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    assert h.hexdigest() == FIGURES_SHA256
