"""Spans around the public functions of every xstates layer, recorded from
outside the package.

Each public function defined in a layer module is replaced by a wrapper in
every ``xstates`` namespace that binds it, so calls between modules (for
example ``oracle`` calling ``measures.approx_discord``) are seen as well. A
span records its name, start, end and parent span. A function's self time is
its spans' durations less the time their child spans cover. ``_kernels`` is
private, so its time counts as ``oracle`` self time.

Functions the program holds by reference rather than by name, such as the
measure table inside ``dynamics``, are not seen.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("core", "spectral", "measures", "oracle", "dynamics", "fileio", "cli")

# counts read from a call's result: span name -> (counter suffix, getter)
RESULT_COUNTS = {
    "oracle.discord_oracle": ("refine_iters", lambda result: result.refinement_iterations),
}


class Tracer:
    def __init__(self):
        self.names = []  # span name of each wrapped function, by id
        self.name_id = array("i")
        self.parent = array("i")  # index of the parent span, -1 at the top
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._wrappers = {}  # original function -> wrapper
        self._bindings = []  # (namespace, attribute, original) while installed

    def install(self) -> None:
        """Rebind every public layer function in every xstates namespace."""
        namespaces = [importlib.import_module("xstates")]
        namespaces += [importlib.import_module(f"xstates.{layer}") for layer in LAYERS]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.removeprefix("xstates.")
                if layer not in LAYERS:
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._bindings.append((namespace, attr, obj))
                setattr(namespace, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for namespace, attr, obj in self._bindings:
            setattr(namespace, attr, obj)
        self._bindings.clear()

    def reset(self) -> None:
        """Forget recorded spans and counts; wrappers stay valid."""
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        self.counts.clear()

    def _wrap(self, name: str, fn):
        ident = len(self.names)
        self.names.append(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter
        counter = RESULT_COUNTS.get(name)
        counts = self.counts
        count_key = f"{name}.{counter[0]}" if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name_id)
            name_id.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counter:
                counts[count_key] = counts.get(count_key, 0) + counter[1](result)
            return result

        return traced

    def stats(self) -> dict:
        """Per function: ``calls``, ``self_s``, and ``p50_us``/``p99_us`` of
        the call durations; plus the result counts."""
        names, parents, start, end = self._columns()
        duration = end - start
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - covered
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self_time, minlength=len(self.names))
        out = dict(self.counts)
        for ident, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[ident])
            out[f"{name}.self_s"] = float(self_s[ident])
            if calls[ident]:
                p50, p99 = np.percentile(duration[names == ident], [50, 99]) * 1e6
                out[f"{name}.p50_us"] = float(p50)
                out[f"{name}.p99_us"] = float(p99)
        return out

    def save(self, path) -> None:
        """Write every span: name table, name id, parent, start and end."""
        name_id, parent, start, end = self._columns()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end)

    def _columns(self):
        # copies, so the arrays can keep growing afterwards
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))
