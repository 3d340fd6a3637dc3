"""Spans around the calls into each oridom layer, recorded from outside src/.

Tracer.recording() replaces each layer function with a wrapper in every oridom
module that holds it, so a nested public call (formulas.corona_dom calling
domsearch.dom) records a child span under its caller. Each span holds its
name, start, end, parent and the pass (run id) it belongs to, plus the
counts the call returned. Spans stay in memory and are written out when the
benchmark ends; the per-layer metrics are derived from them afterwards.

The exact gamma evaluations inside dom run ~10^5 times per pass, so they are
recorded as one aggregate span per parent span (calls, summed busy time,
summed counts), not one span per call.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from oridom import cache, cli, corpus, domsearch, exprs, formulas, graphs, invariants, io
from oridom import orientations, products, solvers, verify


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    busy: float = 0.0  # end - start, or the summed time of an aggregate span
    calls: int = 1
    counts: dict = field(default_factory=dict)


def _public(module) -> list[str]:
    return [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _dom_name(args, kwargs):
    workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    return "domsearch.dom_w2" if workers > 1 else "domsearch.dom"


def _dom_counts(result):
    pruned = result.pruned_by
    return {
        "explored": result.nodes_explored,
        "vector_filtered": pruned.get("vector_filtered", 0),
        "exact_evals": pruned.get("exact_evals", 0),
        "ceiling_stops": pruned.get("ceiling_stop", 0),
    }


def _gamma_counts(result):
    return {"nodes": result.nodes_explored, "bound_prunes": result.pruned_by.get("bound", 0),
            "cutoff_prunes": result.pruned_by.get("cutoff", 0)}


def _engine_counts(result):
    _, _, nodes, pruned = result
    return {"nodes": nodes, "bound_prunes": pruned["bound"], "cutoff_prunes": pruned["cutoff"]}


def _lookup_counts(result):
    return {"hits": int(result is not None), "misses": int(result is None)}


def _targets():
    """(owner, attribute, span name or namer, counts) for every traced function."""
    out = [
        (domsearch, "dom", _dom_name, _dom_counts),
        (solvers, "gamma", "solvers.gamma", _gamma_counts),
        (solvers, "rho", "solvers.rho", None),
        (solvers, "dom_oracle", "solvers.dom_oracle", None),
        (exprs, "parse_graph_expr", "exprs", None),
        (verify, "run_verify", "verify", None),
        (verify, "run_props", "verify", None),
        (cli, "main", "cli", None),
        (cache.DomCache, "lookup", "cache.lookup", _lookup_counts),
        (cache.DomCache, "store", "cache.store", None),
    ]
    for module, layer in ((invariants, "invariants"), (formulas, "formulas"), (corpus, "corpus"),
                          (io, "io"), (graphs, "construct"), (products, "construct"),
                          (orientations, "construct")):
        out += [(module, name, layer, None) for name in _public(module)]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.runs: dict[str, list[Span]] = {}
        self._stack: list[int] = []
        self._leaves: dict = {}
        self._patches: list = []

    @contextmanager
    def recording(self, run_id: str):
        """Trace the calls made inside the block as one run."""
        self.spans = self.runs[run_id] = []
        self._stack = []
        self._leaves = {}
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span = Span(len(spans), stack[-1] if stack else -1,
                        name(args, kwargs) if callable(name) else name, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                stack.pop()
            if counts is not None:
                span.counts = counts(result)
            return result

        return traced

    def _wrap_aggregate(self, fn, name, counts):
        def traced(*args):
            start = time.perf_counter()
            result = fn(*args)
            end = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            index = self._leaves.get(parent)
            if index is None:
                index = self._leaves[parent] = len(self.spans)
                self.spans.append(Span(index, parent, name, start, calls=0,
                                       counts=dict.fromkeys(counts(result), 0)))
            span = self.spans[index]
            span.end = end
            span.busy += end - start
            span.calls += 1
            for key, value in counts(result).items():
                span.counts[key] += value
            return result

        return traced

    def _install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "oridom" or n.startswith("oridom.")]
        for owner, attr, name, counts in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counts)
            holders = [owner] if inspect.isclass(owner) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, wrapper)
        # exact gamma on scan survivors: only dom's own reference, so public
        # gamma() does not record itself twice
        original = domsearch._gamma_engine
        self._patches.append((domsearch, "_gamma_engine", original))
        domsearch._gamma_engine = self._wrap_aggregate(original, "solvers.gamma", _engine_counts)

    def _uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches = []

    def write(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for run_id, spans in self.runs.items():
                for s in spans:
                    handle.write(json.dumps({
                        "run": run_id, "id": s.id, "parent": s.parent, "name": s.name,
                        "start": round(s.start - t0, 9), "end": round(s.end - t0, 9),
                        "busy": round(s.busy, 9), "calls": s.calls, "counts": s.counts,
                    }) + "\n")


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls and busy time entering the name from outside it,
    self time (busy minus child spans), and summed counts."""
    child_busy = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_busy[s.parent] += s.busy
    out = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": defaultdict(int)})
    for s in spans:
        entry = out[s.name]
        entry["self_s"] += s.busy - child_busy[s.id]
        for key, value in s.counts.items():
            entry["counts"][key] += value
        parent = s.parent
        while parent >= 0 and spans[parent].name != s.name:
            parent = spans[parent].parent
        if parent < 0:  # outermost span of its name: a call into the layer
            entry["calls"] += s.calls
            entry["busy_s"] += s.busy
    return out

