"""Orientation-space maximization of the digraph domination number.

dom(G) scans every orientation bitmask in increasing order, keeping the
maximum gamma seen. Orientations that provably cannot beat the incumbent
are discarded in bulk:

  * when the number of vertex subsets of size <= incumbent is small, a
    vectorized pass marks every orientation dominated by one of them
    (exact test: survivors have gamma > incumbent);
  * otherwise a vectorized greedy cover runs for `incumbent` rounds, which
    certifies gamma <= incumbent for everything it covers.

Survivors get an exact branch-and-bound gamma with the incumbent as
cutoff. The scan stops once the incumbent reaches the ceiling
n(G) - matching_number(G); for bipartite graphs that ceiling equals the
independence number, so the bipartite early exit is the same test.

Isolated vertices are forced into every dominating set of every
orientation; they are stripped before the scan and added back to the
value. The witness is always the smallest bitmask attaining the value,
independent of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, repeat

import numpy as np

from .graphs import CapExceeded, Orientation, UndirectedGraph, induced_subgraph
from .invariants import independence_number, is_bipartite, matching_number
from .orientations import DEFAULT_EDGE_CAP, bitmask_shards
from .solvers import DomResult, _gamma_engine

SOLVER_VERSION = "1"
_WARMUP = 256
_CHUNK = 1 << 16
_SUBSET_BUDGET = 800


def _exact_gamma(n, edges, mask, cutoff):
    """gamma of one orientation; may return any certified value <= cutoff."""
    nout = [1 << v for v in range(n)]
    nin = [1 << v for v in range(n)]
    for e, (u, v) in enumerate(edges):
        if mask >> e & 1:
            u, v = v, u
        nout[u] |= 1 << v
        nin[v] |= 1 << u
    value, _, _, _ = _gamma_engine(nout, nin, n, cutoff)
    return value


def _subset_passes(n, cap):
    return sum(math.comb(n, k) for k in range(1, cap + 1))


def _scan_range(G: UndirectedGraph, start: int, stop: int, ceiling: int):
    """Scan orientation bitmasks in [start, stop).

    Returns (best_value, best_mask, explored, tallies, hit_ceiling); the
    best mask is the smallest one attaining the best value in the range.
    """
    n, edges = G.n, G.edges
    best_val = 0
    best_mask = -1
    explored = 0
    tallies = {"vector_filtered": 0, "exact_evals": 0}

    def improve(mask, value):
        nonlocal best_val, best_mask
        if value > best_val:
            best_val = value
            best_mask = mask
        return best_val >= ceiling

    pos = start
    warm_stop = min(stop, start + _WARMUP)
    while pos < warm_stop:
        value = _exact_gamma(n, edges, pos, best_val)
        tallies["exact_evals"] += 1
        explored += 1
        if improve(pos, value):
            return best_val, best_mask, explored, tallies, True
        pos += 1

    one = np.uint64(1)
    full = np.uint64((1 << n) - 1)
    while pos < stop:
        width = min(_CHUNK, stop - pos)
        masks = np.arange(pos, pos + width, dtype=np.uint64)
        rows = np.empty((n, width), dtype=np.uint64)
        for v in range(n):
            rows[v] = one << np.uint64(v)
        for e, (u, v) in enumerate(edges):
            bit = (masks >> np.uint64(e)) & one
            rows[u] |= (bit ^ one) << np.uint64(v)
            rows[v] |= bit << np.uint64(u)

        cap = best_val
        alive = np.arange(width)
        if cap >= 1 and _subset_passes(n, cap) <= _SUBSET_BUDGET:
            # exact filter: survivors are precisely gamma > cap
            for size in range(1, cap + 1):
                for subset in combinations(range(n), size):
                    cover = rows[subset[0]]
                    for v in subset[1:]:
                        cover = cover | rows[v]
                    keep = cover != full
                    if not keep.all():
                        alive = alive[keep]
                        rows = rows[:, keep]
                    if alive.size == 0:
                        break
                if alive.size == 0:
                    break
        elif cap >= 1:
            # greedy cover for `cap` rounds; covered implies gamma <= cap
            cover = np.zeros(alive.size, dtype=np.uint64)
            for _ in range(cap):
                if alive.size == 0:
                    break
                gains = np.bitwise_count(rows & ~cover)
                pick = np.argmax(gains, axis=0)
                cover = cover | rows[pick, np.arange(alive.size)]
                keep = cover != full
                if not keep.all():
                    alive = alive[keep]
                    rows = rows[:, keep]
                    cover = cover[keep]

        for evaluated, offset in enumerate(map(int, alive), 1):
            mask = pos + offset
            value = _exact_gamma(n, edges, mask, best_val)
            tallies["exact_evals"] += 1
            if improve(mask, value):
                # masks after the stopping one are neither filtered nor evaluated
                tallies["vector_filtered"] += offset + 1 - evaluated
                explored += offset + 1
                return best_val, best_mask, explored, tallies, True
        tallies["vector_filtered"] += width - alive.size
        explored += width
        pos += width

    return best_val, best_mask, explored, tallies, False


def dom(G: UndirectedGraph, max_edges: int = DEFAULT_EDGE_CAP, workers: int = 1) -> DomResult:
    """Exact orientable domination number with a witness orientation."""
    m = G.m
    if m > max_edges:
        raise CapExceeded(
            f"orientation scan capped at {max_edges} edges, got {m}"
            " (raise max_edges to override)"
        )
    if m == 0:  # the one orientation, evaluated in closed form
        tallies = {"vector_filtered": 0, "exact_evals": 1, "ceiling_stop": 0}
        return DomResult(G.n, Orientation(G, 0), 1, tallies)

    live = [v for v in range(G.n) if G.adj[v]]
    iso = G.n - len(live)
    scan_graph = G if iso == 0 else induced_subgraph(G, live)
    if scan_graph.n > 64:
        raise CapExceeded(
            f"orientation scan supports at most 64 non-isolated vertices, got {scan_graph.n}"
        )

    ceiling = G.n - matching_number(G)
    bipartite, _ = is_bipartite(G)
    if bipartite:
        ceiling = min(ceiling, independence_number(G))
    scan_ceiling = ceiling - iso

    shards = bitmask_shards(scan_graph, workers)
    if len(shards) == 1:
        results = [_scan_range(scan_graph, *shards[0], scan_ceiling)]
    else:
        starts, stops = zip(*shards)
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            results = list(
                pool.map(_scan_range, repeat(scan_graph), starts, stops, repeat(scan_ceiling))
            )

    best_val = -1
    best_mask = -1
    explored = 0
    pruned = {"vector_filtered": 0, "exact_evals": 0, "ceiling_stop": 0}
    for value, mask, seen, tallies, hit in results:
        explored += seen
        pruned["vector_filtered"] += tallies["vector_filtered"]
        pruned["exact_evals"] += tallies["exact_evals"]
        pruned["ceiling_stop"] += int(hit)
        if value > best_val or (value == best_val and 0 <= mask < best_mask):
            best_val = value
            best_mask = mask
    return DomResult(best_val + iso, Orientation(G, best_mask), explored, pruned)


@dataclass
class Solver:
    """Scan settings for one run, plus a memo of dom per labelled graph.

    Results do not depend on ``max_edges`` or ``workers``, so the memo stays
    valid if either changes; a refused scan (CapExceeded) is never stored.
    Relabelled isomorphic graphs are separate keys.
    """

    max_edges: int = DEFAULT_EDGE_CAP
    workers: int = 1
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def dom(self, G: UndirectedGraph) -> DomResult:
        key = (G.n, G.edges)
        if key not in self._memo:
            self._memo[key] = dom(G, self.max_edges, self.workers)
        return self._memo[key]
