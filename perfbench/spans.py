"""Spans around the package's public functions, installed from outside.

Tracer.install() replaces every binding of every public function of the
`chspectral` modules (the defining module's name, the names other modules
import, the package namespace) with one wrapper per function, plus the two
hot methods and scipy's root finders as `floquet` and `variations` bind them.
Spans live in memory with parent ids; self time and work counts are computed
from them after the run.  uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "chspectral"
METHODS = (("coefficient", "PeriodicCoefficient", "smooth_value", "coefficient.smooth_value"),
           ("brackets", "ProductField", "from_trajectories",
            "brackets.ProductField.from_trajectories"))
FOREIGN = (("floquet", "brentq"), ("floquet", "minimize_scalar"), ("variations", "brentq"))
COUNTED = {"shooting.propagate", "shooting.endpoint_column",
           "shooting.endpoint_column_variants", "shooting.solve_fundamental",
           "floquet.discriminant_sweep", "floquet.auxiliary_spectrum",
           "floquet.periodic_spectrum", "floquet.refine_point"}
SPECTRAL_SEARCHES = {"floquet.auxiliary_spectrum", "floquet.periodic_spectrum",
                     "floquet.refine_point"}


def _lane_steps(m, lanes, steps, length):
    """RK4 lane-steps: lanes x steps per unit length x interval; 0 when exact."""
    return 0 if m is not None and m.smooth_is_zero else lanes * round(steps * length)


def _work(name, b, result):
    """(lanes, lane_steps, points) computed from a call's arguments and result."""
    if name == "shooting.propagate":
        return 1, _lane_steps(b["m"], 1, b["steps"], b["x1"] - b["state"].x), 0
    if name == "shooting.endpoint_column":
        lanes = int(np.size(b["lams"]))
        return lanes, _lane_steps(b["m"], lanes, b["steps"], b["x1"]), 0
    if name == "shooting.endpoint_column_variants":
        lanes = int(np.size(b["lams"]))
        return lanes, _lane_steps(None, lanes, b["steps"], b["x1"] - b["x0"]), 0
    if name == "shooting.solve_fundamental":
        return 2, _lane_steps(b["m"], 2, b["steps"], b["periods"]), 0
    if name == "floquet.discriminant_sweep":
        return int(np.size(b["lams"])), 0, 0
    if name in ("floquet.auxiliary_spectrum", "floquet.periodic_spectrum"):
        return 0, 0, len(result)
    if name == "floquet.refine_point":
        return 0, 0, 1


class Tracer:
    def __init__(self):
        self.spans = []         # [name, parent, t0, t1, lanes, lane_steps, points]
        self.stack = []
        self.op_marks = []      # (first span index, op wall seconds) per op
        self.uncounted = Counter()
        self._saved = []

    # -- installation -------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        sig = inspect.signature(fn) if name in COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            span = [name, tracer.stack[-1] if tracer.stack else -1, perf_counter(),
                    0.0, 0, 0, 0]
            spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                span[3] = perf_counter()
            if sig is not None:
                tracer._count(name, sig, span, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, sig, span, args, kwargs, result):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span[4], span[5], span[6] = _work(name, bound.arguments, result)
        except (TypeError, KeyError, AttributeError):
            self.uncounted[name] += 1

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {name[len(PACKAGE) + 1:] or PACKAGE: mod
                   for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        wrappers = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = self._wrap(f"{short}.{value.__qualname__}", value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(mod, attr, wrappers[id(value)])
        for short, attr in FOREIGN:
            mod = modules.get(short)
            if mod is not None and callable(mod.__dict__.get(attr)):
                self._set(mod, attr, self._wrap(f"{short}.{attr}", mod.__dict__[attr]))
        for short, cls_name, attr, name in METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            if cls is None or attr not in cls.__dict__:
                continue
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def mark_op(self, first_span, wall):
        self.op_marks.append((first_span, wall))

    def summary(self):
        """Totals over all traced ops: per-name calls and self time, work counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = Counter(), defaultdict(float)
        for i, (name, parent, t0, t1, *_) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]

        def ancestors(i):
            i = spans[i][1]
            while i >= 0:
                yield spans[i][0]
                i = spans[i][1]

        work = Counter()
        for i, (name, parent, _, _, lanes, lane_steps, points) in enumerate(spans):
            work["shooting.ode_steps"] += lane_steps
            work["floquet.points"] += points
            pname = spans[parent][0] if parent >= 0 else None
            if name == "shooting.endpoint_column":
                work["shooting.endpoint_column.lambdas"] += lanes
                if pname == "floquet.auxiliary_spectrum":
                    work["floquet.scan_nodes"] += lanes
                    work["floquet.aux_scans"] += 1
            elif name == "shooting.endpoint_column_variants":
                work["shooting.endpoint_column_variants.lanes"] += lanes
            elif name == "floquet.discriminant_sweep" and pname == "floquet.periodic_spectrum":
                work["floquet.scan_nodes"] += lanes
            elif ((name == "floquet.discriminant"
                   or (name == "shooting.propagate" and pname != "shooting.fundamental_matrix"))
                  and any(a in SPECTRAL_SEARCHES for a in ancestors(i))):
                work["floquet.root_evals"] += 1

        unattributed = 0.0
        bounds = [m[0] for m in self.op_marks] + [len(spans)]
        for (start, wall), stop in zip(self.op_marks, bounds[1:]):
            covered = sum(spans[i][3] - spans[i][2] for i in range(start, stop)
                          if spans[i][1] == -1)
            unattributed += wall - covered
        return {"calls": dict(calls), "self_s": dict(self_s), "work": dict(work),
                "unattributed_s": unattributed, "uncounted": dict(self.uncounted)}

    def dump(self, path):
        """Write every span as one JSON line: id, name, parent, start, end."""
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, lanes, lane_steps, points) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, t0, t1, lanes, lane_steps, points]) + "\n")

