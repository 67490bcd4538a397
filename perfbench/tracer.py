"""Span tracer installed over holocap's public functions from outside the package.

``Tracer.install()`` replaces each traced function in every ``holocap.*``
namespace that binds it (``holocap``, ``holocap.capacity``, ``holocap.gamma``,
...), and the traced methods on their classes; ``uninstall()`` puts the
originals back.  Modules are reached through ``sys.modules`` because the
attribute ``holocap.capacity`` is the re-exported function, not the module.

A span is (name, start, end, parent, op id), kept in flat arrays while the run
lasts and written out when it ends.  Counts are taken in the same wrappers.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (layer.function, module, attribute); "Class.method" patches a method
TARGETS = [
    ("cli.main", "holocap.cli", "main"),
    ("sets.discretize", "holocap.sets", "discretize"),
    ("sets.contains", "holocap.sets", "contains"),
    ("capacity.capacity", "holocap.capacity", "capacity"),
    ("capacity.capacity_of_cloud", "holocap.capacity", "capacity_of_cloud"),
    ("capacity.fekete_points", "holocap.capacity", "fekete_points"),
    ("capacity.green_function", "holocap.capacity", "green_function"),
    ("capacity.robin_constant", "holocap.capacity", "robin_constant"),
    ("capacity.green_eval", "holocap.capacity", "GreenEvaluator.__call__"),
    ("bernstein.poly_eval", "holocap.bernstein", "Polynomial1D.__call__"),
    ("bernstein.sup_norm", "holocap.bernstein", "sup_norm"),
    ("bernstein.verify_bernstein", "holocap.bernstein", "verify_bernstein"),
    ("bernstein.bernstein_bound", "holocap.bernstein", "bernstein_bound"),
    ("gamma.gamma_cap", "holocap.gamma", "gamma_cap"),
    ("gamma.gamma_project", "holocap.gamma", "gamma_project"),
    ("gamma.haar_unitary", "holocap.gamma", "haar_unitary"),
    ("gamma.linear_image", "holocap.gamma", "linear_image"),
    ("extension.certify_extension", "holocap.extension", "certify_extension"),
    ("extension.certify_uniform", "holocap.extension", "certify_uniform"),
    ("extension.fit_degree_growth", "holocap.extension", "fit_degree_growth"),
    ("extension.radius_profile", "holocap.extension", "radius_profile"),
    ("extension.stratify_and_find_nonpolar", "holocap.extension", "stratify_and_find_nonpolar"),
    ("extension.uniform_bound_compact", "holocap.extension", "uniform_bound_compact"),
    ("extension.evaluate", "holocap.extension", "evaluate"),
    ("extension.poly", "holocap.extension", "PolynomialSequence.poly"),
]
# wraps the membership of each predicate gamma_project returns from its scan
FIBER_SCAN = "gamma.fiber_scan"
SPAN_NAMES = [name for name, _, _ in TARGETS] + [FIBER_SCAN]


def self_times(start, end, parent) -> list:
    """Per span: its duration minus the part of it that its children cover."""
    kids = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, reach = 0.0, lo
        for c in sorted(kids.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []        # (owner, attribute, original)
        self._poly_seen = set()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self._ids[name]
        now = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = now()
                stack.pop()
            return after(args, kwargs, result) if after else result

        traced.__perfbench_original__ = fn
        return traced

    # -- counts taken at the layer boundaries --------------------------------

    def _after(self, name: str, fn):
        c = self.counts
        if name == "sets.discretize":
            def after(args, kwargs, result):
                c["sets.discretize.points"] += len(result)
                return result
        elif name == "sets.contains":
            def after(args, kwargs, result):
                c["sets.contains.points"] += np.size(args[1] if len(args) > 1 else kwargs["z"])
                return result
        elif name == "capacity.fekete_points":
            sig = inspect.signature(fn)

            def after(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                c["capacity.fekete_points.cand_x_n"] += (bound.arguments["candidates"]
                                                         * bound.arguments["n"])
                return result
        elif name in ("capacity.green_eval", "bernstein.poly_eval"):
            key = name + ".points"

            def after(args, kwargs, result):
                c[key] += np.size(args[1] if len(args) > 1 else kwargs["z"])
                return result
        elif name == "extension.evaluate":
            def after(args, kwargs, result):
                c["extension.evaluate.terms_used"] += result.terms_used
                return result
        elif name == "extension.poly":
            seen = self._poly_seen

            def after(args, kwargs, result):
                index = args[1] if len(args) > 1 else kwargs["index"]
                key = (self.op_id, id(args[0]), index.entries)
                c["extension.poly.repeats"] += key in seen
                seen.add(key)
                return result
        elif name == "gamma.gamma_project":
            def after(args, kwargs, result):
                member = result.membership
                if member.__qualname__ != "gamma_project.<locals>.member":
                    return result   # product path: no scan
                return dataclasses.replace(result, membership=self._wrap(
                    FIBER_SCAN, member, after=self._count_fibers))
        else:
            after = None
        return after

    def _count_fibers(self, args, kwargs, result):
        self.counts["gamma.fibers_scanned"] += len(result)
        self.counts["gamma.fibers_nonpolar"] += int(np.count_nonzero(result))
        return result

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, module, attr in TARGETS:
            home = sys.modules[module]
            owners = [ns for key, ns in list(sys.modules.items())
                      if key == "holocap" or key.startswith("holocap.")]
            if "." in attr:   # a method: patch its class only
                cls_name, attr = attr.split(".")
                home = getattr(home, cls_name)
                owners = [home]
            original = vars(home)[attr]
            wrapped = self._wrap(name, original, self._after(name, original))
            for owner in owners:
                if vars(owner).get(attr) is original:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def per_layer(self, eval_ops: set) -> dict:
        """Calls and self seconds per traced function, plus the derived counts."""
        selfs = self_times(self.start, self.end, self.parent)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for nid, s in zip(self.name, selfs):
            calls[nid] += 1
            self_s[nid] += s
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]

        ids = self._ids
        cloud = ids["capacity.capacity_of_cloud"]
        strat = ids["extension.stratify_and_find_nonpolar"]
        unif = ids["extension.uniform_bound_compact"]
        green = ids["capacity.green_function"]
        under = defaultdict(int)
        green_in_eval = 0
        for nid, p, op in zip(self.name, self.parent, self.op):
            if nid == cloud and p >= 0:
                under[self.name[p]] += 1
            if nid == green and op in eval_ops:
                green_in_eval += 1
        c = self.counts
        out["sets.discretize.points"] = c["sets.discretize.points"]
        out["sets.contains.points"] = c["sets.contains.points"]
        out["capacity.fekete_points.cand_x_n"] = c["capacity.fekete_points.cand_x_n"]
        out["capacity.green_eval.points"] = c["capacity.green_eval.points"]
        out["capacity.green_function.per_eval"] = green_in_eval / len(eval_ops) if eval_ops else 0.0
        out["bernstein.poly_eval.points"] = c["bernstein.poly_eval.points"]
        out["gamma.fibers_scanned"] = c["gamma.fibers_scanned"]
        out["gamma.fibers_nonpolar_ratio"] = (c["gamma.fibers_nonpolar"] / c["gamma.fibers_scanned"]
                                              if c["gamma.fibers_scanned"] else 0.0)
        out["extension.stratify_and_find_nonpolar.capacity_calls"] = under[strat]
        out["extension.uniform_bound_compact.capacity_calls"] = under[unif]
        out["extension.evaluate.terms_used"] = c["extension.evaluate.terms_used"]
        polys = calls[ids["extension.poly"]]
        out["extension.poly.hit_ratio"] = c["extension.poly.repeats"] / polys if polys else 0.0
        return out

    def save(self, path) -> None:
        """Write the spans as arrays (names indexed by ``name``)."""
        np.savez_compressed(path, names=np.asarray(self.names), name=np.asarray(self.name),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent), op=np.asarray(self.op))
