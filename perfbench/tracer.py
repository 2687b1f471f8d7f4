"""Span tracer that wraps epsarb's public functions from outside the package.

Each call to a wrapped function records one span (name, start, end, parent,
self time) in memory; ``write`` dumps them as JSON lines when the run ends.
Self time is the span's duration minus the durations of its direct children,
so summing self times over spans never counts an interval twice.

Functions are wrapped where they are *bound*, not only where they are
defined: ``programs``, ``arbitrage`` and ``pricing`` import ``solve_lp``,
``maximize_concave`` and ``tree_ops`` by name, and ``transport`` imports
``linprog`` by name, so every module global that refers to a wrapped
function is rebound.  ``epsarb.testing`` is not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("solvers", "programs", "arbitrage", "pricing", "transport", "market", "io", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []     # [name, start, end, parent index, self seconds]
        self._stack: list = []    # [span index, seconds covered by children, name]
        self.counters = defaultdict(int)
        self.enabled = True

    def call(self, name, fn, args, kwargs, on_result=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent, caller = (self._stack[-1][0], self._stack[-1][2]) if self._stack else (-1, "")
        self.spans.append(None)
        frame = [idx, 0.0, name]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[idx] = [name, start, end, parent, end - start - frame[1]]
        if on_result is not None:
            on_result(self.counters, result, caller)
        return result

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_solve_lp(counters, result, caller):
    if result.status == "infeasible":
        counters["solvers.solve_lp.infeasible"] += 1


def _count_maximize_concave(counters, result, caller):
    counters["solvers.maximize_concave.iterations"] += int(result.iterations)
    if result.status == "iteration_cap":
        counters["solvers.maximize_concave.capped"] += 1
        if caller == "programs.node_min_simplex_deviation":
            counters["programs.node_min_simplex_deviation.capped"] += 1


RESULT_HOOKS = {"solvers.solve_lp": _count_solve_lp,
                "solvers.maximize_concave": _count_maximize_concave}


def _wrap(tracer: Tracer, name: str, fn):
    hook = RESULT_HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer and rebind all references."""
    import scipy.optimize._linprog_highs as linprog_highs

    modules = {layer: importlib.import_module(f"epsarb.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
    package = importlib.import_module("epsarb")
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    model_cls = modules["market"].MarketModel
    from_nodes = vars(model_cls)["from_nodes"].__func__
    setattr(model_cls, "from_nodes",
            staticmethod(_wrap(tracer, "market.from_nodes", from_nodes)))
    linprog_highs._highs_wrapper = _wrap(tracer, "solvers.highs", linprog_highs._highs_wrapper)


def _has_ancestor(spans, idx, names) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans, counters) -> dict:
    """Per-function calls and self time, per-layer self time, nested counts."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for name, _, _, _, own in spans:
        calls[name] += 1
        self_s[name] += own
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update({f"{name}.s": s for name, s in self_s.items()})
    out.update(counters)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(s for name, s in self_s.items()
                                           if name.split(".", 1)[0] == layer)
    btl = {"solvers.bottleneck_transport"}
    dp = {"transport.aw_inf", "transport.aw_inf_delta"}
    stab = {"transport.stability_report"}
    out["solvers.bottleneck_transport.lp_calls"] = sum(
        1 for i, sp in enumerate(spans)
        if sp[0] == "solvers.linprog" and _has_ancestor(spans, i, btl))
    out["transport.stage_pairs"] = sum(
        1 for i, sp in enumerate(spans)
        if sp[0] == "solvers.bottleneck_transport" and _has_ancestor(spans, i, dp))
    out["solvers.maximize_concave.calls_outside_stability"] = sum(
        1 for i, sp in enumerate(spans)
        if sp[0] == "solvers.maximize_concave" and not _has_ancestor(spans, i, stab))
    return out


def read(path):
    """Spans and counters written by ``Tracer.write``."""
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return head, spans
