"""Spans around the public functions of obfusgame's modules.

Tracer.install() replaces every attribute of every loaded obfusgame module
that is bound to a public function of a layer module (solver also binds
game's utilities by name, validate binds solver's and dp's, the package
root re-exports most of them) with a wrapper that records one span per
call: its name, start, end, parent span and op id.  Spans are kept in
flat arrays in memory and written out once, after the run.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "obfusgame"
LAYERS = ("cli", "config_io", "solver", "game", "erm", "dp", "validate")


def _synthetic_counts(result):
    return {"rows": result.n, "bytes": result.features.nbytes + result.labels.nbytes}


# Counts taken from a call's result, added up per span name.
RESULT_COUNTS = {
    "solver.stackelberg_solve": lambda result: {"users": len(result.sigma_S_star)},
    "erm.generate_synthetic": _synthetic_counts,
}


def public_functions() -> dict[str, object]:
    """`layer.name` -> function, for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        functions = public_functions()
        wrappers = {id(fn): self._wrap(qualname, fn) for qualname, fn in functions.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        stack, start, end = self._stack, self.start, self.end
        name, parent, op = self.name, self.parent, self.op
        on_result = RESULT_COUNTS.get(qualname)
        counts = self.counts[qualname]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                for key, value in on_result(result).items():
                    counts[key] += value
            return result

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds `s`, `self_s`, and the
        number of direct child spans by child name."""
        name, parent = _copy(self.name), _copy(self.parent)
        duration = _copy(self.end) - _copy(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
        self_time = duration - child_time
        k = len(self.names)
        stats = {}
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name, weights=duration, minlength=k)
        exclusive = np.bincount(name, weights=self_time, minlength=k)
        child_pairs = np.bincount(name[parent[has_parent]] * k + name[has_parent], minlength=k * k).reshape(k, k)
        for i, qualname in enumerate(self.names):
            stats[qualname] = {
                "calls": int(calls[i]),
                "s": float(inclusive[i]),
                "self_s": float(exclusive[i]),
                "children": {self.names[j]: int(child_pairs[i, j]) for j in np.flatnonzero(child_pairs[i])},
                **self.counts[qualname],
            }
        return stats

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=_copy(self.name),
            parent=_copy(self.parent),
            op=_copy(self.op),
            start=_copy(self.start),
            end=_copy(self.end),
        )


def _copy(column: array.array) -> np.ndarray:
    return np.frombuffer(column, dtype=column.typecode).copy()
