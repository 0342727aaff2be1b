"""Per-layer instrumentation, installed from outside the library.

``Instrument`` wraps every public function of every ``taxiconics`` module
(functions defined in that module's own file, names without a leading
underscore) and rebinds the wrapper in every module namespace that binds the
function, so ``classify`` is also counted when ``atlas`` or ``cli`` calls it.
In span mode each call records (name, start, end, parent) in memory; the
spans are written out when the run ends.  A span's self time is its duration
minus the part covered by its children.  In count mode a call only bumps a
counter, and ``count_fraction_ops`` additionally counts every call of a
public ``fractions.Fraction`` method or operator (construction, arithmetic,
comparison, hashing, conversion).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from fractions import Fraction

import numpy as np

import taxiconics


def _library_modules():
    for info in pkgutil.iter_modules(taxiconics.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            importlib.import_module(f"taxiconics.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "taxiconics" or name.startswith("taxiconics.")]


def public_functions() -> dict[str, object]:
    """``module.function`` -> function, for each module's own public functions."""
    out = {}
    for mod in _library_modules():
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out[f"{short}.{name}"] = obj
    return out


class Instrument:
    """Spans or call counts for the library's public functions."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.names: list[str] = []
        self.counts: list[int] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self._bound: list[tuple[object, str, object]] = []

    def _wrap(self, fn, nid: int):
        counts = self.counts
        if not self.spans:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[nid] += 1
                return fn(*args, **kwargs)
            return counted

        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
        return spanned

    @contextlib.contextmanager
    def installed(self):
        functions = public_functions()
        wrappers = {}
        for name, fn in sorted(functions.items()):
            nid = len(self.names)
            self.names.append(name)
            self.counts.append(0)
            wrappers[id(fn)] = self._wrap(fn, nid)
        for mod in _library_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._bound.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        try:
            yield self
        finally:
            for mod, attr, obj in self._bound:
                setattr(mod, attr, obj)
            self._bound.clear()

    def calls(self) -> dict[str, int]:
        """Calls per function name."""
        if not self.spans:
            return dict(zip(self.names, self.counts))
        per = np.bincount(np.frombuffer(self.name_id, dtype=np.int32), minlength=len(self.names))
        return dict(zip(self.names, (int(c) for c in per)))

    def self_seconds(self) -> dict[str, float]:
        """Self time per function name: duration minus the children's durations."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        per = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return dict(zip(self.names, (float(s) for s in per)))

    def write(self, path) -> None:
        """Write the spans as a compressed NumPy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _fraction_methods():
    for name, attr in vars(Fraction).items():
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(attr, (staticmethod, classmethod)) and inspect.isfunction(attr.__func__):
            yield name, attr
        elif inspect.isfunction(attr):
            yield name, attr


@contextlib.contextmanager
def count_fraction_ops(box: list):
    """Add to ``box[0]`` every call of Fraction's public methods and operators.

    Only the ``fractions.Fraction`` backend can be counted; with gmpy2's
    ``mpq`` the count stays 0.
    """
    saved = dict(_fraction_methods())

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, attr in saved.items():
        if isinstance(attr, (staticmethod, classmethod)):
            setattr(Fraction, name, type(attr)(counted(attr.__func__)))
        else:
            setattr(Fraction, name, counted(attr))
    try:
        yield
    finally:
        for name, attr in saved.items():
            setattr(Fraction, name, attr)
