"""Span tracing of hypmet's layers, installed from outside the package.

Every public function of the traced modules is replaced, at each module
namespace that binds it, by a wrapper that records one span per call: the
layer name, start, end and the index of the enclosing span.  Replacing the
name where the caller looks it up is what makes internal calls visible; for
example `hypmet.solver.cov_complex` is wrapped as well as
`hypmet.metrics.cov_complex`.  `hypmet.solver.linprog` is wrapped too, to time
the LP solve apart from the matrix assembly and to count the bytes of the
constraint matrices handed to it.

Spans stay in memory in flat arrays and are written out once, at the end.
A layer's self time is the summed duration of its spans minus the part
covered by their child spans.
"""

import array
import importlib
import types
from time import perf_counter

import numpy as np

MODULES = ("lobachevsky", "ideal", "hyperideal", "triangulation", "metrics", "solver", "cli")

# layer names that differ from "<module>.<function>"
RENAMES = {
    "lobachevsky.lobachevsky": "lobachevsky",
    "hyperideal.hyper_angles_from_lengths": "hyperideal.angles",
    "triangulation.gauge_matrix": "triangulation.gauge",
    "triangulation.gauge_apply": "triangulation.gauge",
    "triangulation.gauge_project": "triangulation.gauge",
    "solver.solve_metric": "solver.descent",
}


class Tracer:
    """Records spans for wrapped calls; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.layers = []
        self.layer_ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.iterations = 0
        self.solve_calls = 0
        self.lp_bytes = 0
        self._patched = []

    def _layer(self, name):
        if name not in self.layer_ids:
            self.layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_ids[name]

    def _wrap(self, fn, layer, on_result=None):
        lid = self._layer(layer)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_solve(self, args, kwargs, result):
        self.solve_calls += 1
        self.iterations += result.iterations

    def _count_rigidity(self, args, kwargs, result):
        self.iterations += sum(result.iterations)

    def _count_lp(self, args, kwargs, result):
        self.lp_bytes += sum(kwargs[m].nbytes for m in ("A_ub", "A_eq") if kwargs.get(m) is not None)

    def install(self):
        """Wrap every public function of MODULES wherever the modules bind it."""
        mods = [importlib.import_module(f"hypmet.{m}") for m in MODULES]
        namespaces = mods + [importlib.import_module("hypmet")]
        hooks = {
            "solver.solve_metric": self._count_solve,
            "solver.rigidity_check": self._count_rigidity,
        }
        targets = {}
        for mod in mods:
            short = mod.__name__.split(".")[-1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType):
                    key = f"{short}.{attr}"
                    targets[id(fn)] = self._wrap(fn, RENAMES.get(key, key), hooks.get(key))
        solver = mods[MODULES.index("solver")]
        targets[id(solver.linprog)] = self._wrap(solver.linprog, "solver.linprog", self._count_lp)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def arrays(self):
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def layer_totals(self):
        """Per layer: (calls, inclusive seconds, self seconds)."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        own = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        n = len(self.layers)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=own, minlength=n)
        return {layer: (int(calls[i]), float(incl[i]), float(self_s[i])) for i, layer in enumerate(self.layers)}

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, layers=np.array(self.layers), name=name, parent=parent, start=start, end=end)
