"""Span tracing of qcorr from outside the package.

Tracer.installed() replaces every public function of every loaded qcorr
module, in every qcorr namespace that holds it, with a wrapper that records
a span (name, start, end, parent, unit). scipy's minimize, as bound in
qcorr.correlations, becomes the span "correlations.refine", and its objective
is timed and counted inside that span. Spans stay in memory; summarize()
turns them into per-layer numbers and write_spans() saves them at the end.
Single-threaded use only: the span stack is shared.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

REFINE = "correlations.refine"


class Refine(NamedTuple):
    nfev: int
    nit: int
    converged: bool
    improved: bool  # result below the first objective value (x0 for Nelder-Mead)
    objective_s: float


class Tracer:
    def __init__(self):
        # one entry per span, in typed arrays so the garbage collector never
        # scans them: name id, parent span (-1 for a root), unit, start, end,
        # and the optimizer_evals of the returned value (0 if it has none)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("q")
        self.unit_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.evals = array("q")
        self.stack: list[int] = []
        self.unit = -1
        self.refines: list[Refine] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.unit_of.append(self.unit)
        self.end.append(0.0)
        self.evals.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def unit_span(self, unit: int):
        """Root span of one benchmark unit; every layer span nests inside."""
        self.unit = unit
        idx = self._open(self._id("unit"))
        try:
            yield
        finally:
            self._close(idx)
            self.unit = -1

    def _wrap(self, name: str, fn):
        tracer = self
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.unit < 0:  # outside a unit, e.g. in a check: not recorded
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
                tracer.evals[idx] = getattr(result, "optimizer_evals", 0)
                return result
            finally:
                tracer._close(idx)

        return traced

    def _wrap_minimize(self, minimize):
        tracer = self
        name_id = self._id(REFINE)

        @functools.wraps(minimize)
        def traced(fun, x0, *args, **kwargs):
            if tracer.unit < 0:
                return minimize(fun, x0, *args, **kwargs)
            seen = {"first": None, "seconds": 0.0}

            def objective(x, *a):
                t0 = perf_counter()
                value = fun(x, *a)
                seen["seconds"] += perf_counter() - t0
                if seen["first"] is None:  # Nelder-Mead evaluates x0 first
                    seen["first"] = value
                return value

            idx = tracer._open(name_id)
            try:
                res = minimize(objective, x0, *args, **kwargs)
            finally:
                tracer._close(idx)
            improved = seen["first"] is not None and res.fun < seen["first"]
            tracer.refines.append(Refine(int(res.nfev), int(getattr(res, "nit", 0)),
                                         bool(res.success), bool(improved), seen["seconds"]))
            return res

        return traced

    @contextmanager
    def installed(self):
        """Wrap qcorr's public functions for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "qcorr" or n.startswith("qcorr.")) and m is not None]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        saved = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        corr = sys.modules.get("qcorr.correlations")
        if corr is not None and hasattr(corr, "minimize"):
            saved.append((corr, "minimize", corr.minimize))
            corr.minimize = self._wrap_minimize(corr.minimize)
        try:
            yield
        finally:
            for mod, attr, obj in reversed(saved):
                setattr(mod, attr, obj)

    # -- reporting ---------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name calls, total and self seconds, and per-unit self-time sums."""
        n = len(self)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        by_name = {k: {"calls": 0, "s": 0.0, "self_s": 0.0, "evals": 0} for k in self.names}
        unit_self: dict[int, float] = {}
        min_self = 0.0
        for i in range(n):
            own = dur[i] - child[i]
            min_self = min(min_self, own)
            agg = by_name[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["s"] += dur[i]
            agg["self_s"] += own
            agg["evals"] += self.evals[i]
            unit_self[self.unit_of[i]] = unit_self.get(self.unit_of[i], 0.0) + own
        return {"by_name": by_name, "unit_self_s": unit_self, "min_self_s": min_self}

    def write_spans(self, path):
        """Gzipped JSON lines: a header naming the fields, then one array per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(["span", "parent", "unit", "name", "start_s", "end_s"]) + "\n")
            for i in range(len(self)):
                fh.write(json.dumps([i, self.parent[i], self.unit_of[i], self.names[self.name[i]],
                                     self.start[i], self.end[i]]) + "\n")
