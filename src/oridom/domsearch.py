"""Orientation-space maximization of the digraph domination number.

dom(G) scans every orientation bitmask in increasing order, keeping the
largest gamma seen (the incumbent). The scan lives inside the sandwich

    alpha(G) <= DOM(G) <= n(G) - matching_number(G).

The alpha floor: orienting every edge out of a maximum independent set
makes its vertices sources, which every dominating set contains, so
DOM >= alpha. The incumbent starts at alpha - 1 instead of 0, so masks
with gamma < alpha are discarded without an exact evaluation. The witness
is unchanged: a mask with gamma < alpha has gamma < DOM, so it is never
the smallest mask attaining DOM.

The n - nu ceiling: the scan stops at the first mask whose gamma reaches
n - matching_number. On a bipartite graph this equals alpha (Konig), so
there one matching gives both ends, and the scan ends at the first mask
attaining the floor.

Masks are built in numpy chunks. Below _CHUNK, a chunk starting at pos
ends at 2 pos (1, 1, 2, 4, ...), or at 8 pos (_LAST_RISE_GROWTH) once the
incumbent is ceiling - 1 and the exact filter runs at it, capped at
_CHUNK; from _CHUNK on chunks are _CHUNK wide. Every chunk start below
_CHUNK is a power of two, and a scan that stops early builds few masks.
A scan whose floor meets its ceiling starts with _CLOSED_FIRST = 64 masks
instead (64, 64, 128, ... or, under the exact filter, 64, 448, 3584, ...).
The first masks, [0, 8) (the chunks narrower than a group) or mask 0 alone
when floor meets ceiling, get an exact gamma in Python before any row is
built: on so few masks numpy's fixed cost outweighs the exact work. One
counts as an exact evaluation iff it beats the incumbent (what the exact
filter passes), else as vector-filtered; the closed first chunk skips mask 0.
One row buffer serves every chunk. Flipping edge (u, v) toggles bit v of
row u and bit u of row v, since in a simple graph no other edge sets
those bits. Below _CHUNK, column j holds the closed out-rows of mask j:
the buffer doubles by one XOR of columns [0, f) with the bits of edge
log2(f) into columns [f, 2f), so chunk [pos, 2 pos) is the half the last
doubling wrote. From _CHUNK on, column j holds mask base ^ j, and the
buffer is rebased to each chunk start by flipping the edges set in
base ^ start on their two rows.
Its dtype is the narrowest unsigned type holding n bits (uint8 up to
n = 8, then uint16, uint32, uint64). Masks that provably cannot beat the
incumbent are discarded in bulk:

  * dominating sets are upward closed, so gamma <= incumbent iff some
    vertex subset of size exactly `incumbent` dominates; when C(n, incumbent)
    <= _SUBSET_BUDGET, the subsets are tested in blocks of about _BLOCK
    (subset, orientation) pairs, OR-ing one out-row per subset position into
    the block's covers, and the orientations a block dominates are dropped
    before the next block (exact test: survivors have gamma > incumbent).
    When 2 incumbent > n, the blocks walk the smaller complements T
    instead: V - T dominates iff every t in T has an in-neighbour outside
    T. Each edge the call is given is exactly one arc, so t's open in-row
    is its neighbours along those edges minus its out-row, and a subset
    costs n - incumbent row ANDs. A chunk of _GROUP_MIN or more columns is
    first cut into aligned groups of 8, which differ only in its lowest 3
    edges; the group's first column with those arcs cleared is a
    subdigraph of all 8, and adding arcs never raises gamma, so a subset
    dominating it drops the group. The group rows recurse with the other
    edges, and only the columns of uncertified groups, gathered as whole
    blocks of 8, are tested one by one;
  * otherwise a vectorized greedy cover runs for `incumbent` rounds, which
    certifies gamma <= incumbent for everything it covers.

Survivors get an exact branch-and-bound gamma with the incumbent as
cutoff, on the closed out-rows of their own chunk column; the closed
in-row of v is adj[v] & ~out[v] | v, since each edge is exactly one arc.
Only _chunk_rows and the prefix turn masks into arcs. The first survivor
that raises the incumbent ends its chunk.
Reversing one arc changes gamma by at most 1: if S dominates D, then S
plus the reversed arc's new tail dominates the result. A 2-fold or
_CHUNK-wide chunk [pos, pos + w) with pos > 0 has pos a multiple of its
width w, so clearing the lowest set bit of pos maps each of its masks to
a mask below pos that differs in one edge. Every gamma in the chunk is
thus at most the incumbent + 1, the incumbent rises at most once per
chunk, and the masks after the rise cannot beat it (the width-1 chunk at
0 has one mask anyway). At incumbent ceiling - 1, which a closed scan
(floor = ceiling) starts at, any rise reaches the ceiling and stops the
scan, so its chunks need no such bound: the wide first chunk and the
8-fold ones. The exact filter's first survivor is then the stopping
mask, and no mask after it is counted, so the longer chunks change no
counter.

Isolated vertices are forced into every dominating set of every
orientation; they are stripped before the scan, whose floor and ceiling
are the sandwich of the stripped graph, and added back to the value.
The witness is always the smallest bitmask attaining the value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .graphs import CapExceeded, Orientation, UndirectedGraph, _iter_bits, induced_subgraph
from .invariants import sandwich
from .solvers import DomResult, _gamma_engine

SOLVER_VERSION = "1"
DEFAULT_EDGE_CAP = 22  # dom refuses larger graphs
_CHUNK = 1 << 16
_SUBSET_BUDGET = 800
_BLOCK = 1 << 15  # subset-column pairs per exact-filter block
_GROUP_BITS = 3  # the exact filter certifies aligned groups of 1 << _GROUP_BITS columns
_GROUP_MIN = 1 << 10  # narrowest chunk that is grouped first
_CLOSED_FIRST = 64  # first chunk width of a scan whose floor meets its ceiling
_LAST_RISE_GROWTH = 8  # chunk growth below _CHUNK once the next rise must stop the scan


def _chunk_rows(n, edges, stop, first=1, growth=lambda: 2):
    """Yield (pos, rows) over [0, stop): rows[v][j] is v's closed out-row under mask pos + j.

    The first chunk is [0, first) (first a power of two). Below _CHUNK, a
    later chunk starting at pos ends at growth() * pos, capped at _CHUNK;
    growth() is read as each chunk starts and returns 2 or
    _LAST_RISE_GROWTH, so every chunk start below _CHUNK is a power of two.
    From _CHUNK on, chunks are _CHUNK wide. rows is a view of one buffer,
    overwritten by the next step: below _CHUNK its column j holds mask j
    and it doubles, from _CHUNK on it is rebased to each chunk start.
    """
    word = np.min_scalar_type((1 << n) - 1).type  # narrowest unsigned type holding n bits
    rows = np.empty((n, min(_CHUNK, 1 << (stop - 1).bit_length())), dtype=word)
    delta = np.zeros((len(edges), n, 1), dtype=word)  # the bits flipping edge e changes
    out = [1 << v for v in range(n)]
    for e, (u, v) in enumerate(edges):
        out[u] |= 1 << v
        delta[e, u], delta[e, v] = 1 << v, 1 << u
    rows[:, 0] = np.array(out, dtype=word)
    base, pos, filled = 0, 0, 1
    while pos < stop:
        if pos < _CHUNK:  # column j holds mask j
            end = min(stop, _CHUNK, growth() * pos if pos else first)
            while filled < end:
                np.bitwise_xor(
                    rows[:, :filled], delta[filled.bit_length() - 1], out=rows[:, filled : 2 * filled]
                )
                filled *= 2
            yield pos, rows[:, pos:end]
        else:
            end = min(stop, pos + _CHUNK)
            for e in _iter_bits(base ^ pos):
                u, v = edges[e]
                rows[u] ^= word(1 << v)
                rows[v] ^= word(1 << u)
            base = pos
            yield pos, rows[:, : end - pos]
        pos = end


@functools.cache
def _subsets(n, k):
    """Read-only (C(n, k), k) array of the k-subsets of range(n), in combinations order."""
    subsets = np.array(list(combinations(range(n), k)), dtype=np.intp)
    subsets.flags.writeable = False
    return subsets


@functools.cache
def _outside(n, k, dtype):
    """Read-only (C(n, k), 1) dtype array: each row of _subsets(n, k) as a bitmask, complemented."""
    masks = np.bitwise_or.reduce(dtype.type(1) << _subsets(n, k).astype(dtype), axis=1)
    outside = ~masks[:, None]
    outside.flags.writeable = False
    return outside


def _drop_covered(rows, n, cap, edges):
    """Offsets of the orientations (columns of rows) not certified to have gamma <= cap.

    Needs cap >= 1: _scan evaluates mask 0 exactly, and gamma >= 1 beats an incumbent
    of 0. Columns j and j ^ i of rows differ only in the edges whose bits are set in i,
    for each i below the lowest set bit of the width: _scan's chunks start at a
    multiple of it (a chunk [pos, 8 pos) is 7 pos wide), and the group rows keep this.
    """
    full = rows.dtype.type((1 << n) - 1)
    # cap stays below the scan's ceiling n - nu <= n - 1, so cap-subsets are proper
    if math.comb(n, cap) <= _SUBSET_BUDGET:
        # exact filter (upward closure): survivors are precisely gamma > cap
        group = 1 << _GROUP_BITS
        if rows.shape[1] >= _GROUP_MIN and rows.shape[1] % group == 0:
            # a group's first column, with the arcs of the group's edges cleared, is
            # a subgraph of each of its columns, and adding arcs never raises gamma
            shared = [(1 << n) - 1] * n
            for u, v in edges[:_GROUP_BITS]:
                shared[u] &= ~(1 << v)
                shared[v] &= ~(1 << u)
            blocks = rows.reshape(n, -1, group)  # blocks[:, g] is group g's columns
            shared = blocks[:, :, 0] & np.array(shared, dtype=rows.dtype)[:, None]
            groups = _drop_covered(shared, n, cap, edges[_GROUP_BITS:])
            alive = (groups[:, None] * group + np.arange(group)).ravel()
            rows = blocks[:, groups].reshape(n, -1)
        else:
            alive = np.arange(rows.shape[1])
        # a cap-subset S dominates iff each t outside S has an in-neighbour in S;
        # for 2 cap > n, walk the smaller complements T = V - S instead
        dual = 2 * cap > n
        size = n - cap if dual else cap
        if dual:
            # each edge given is exactly one arc (group rows pass on only the edges whose
            # arcs they keep), so t's open in-row is its neighbours minus its out-row
            adj = [0] * n
            for u, v in edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            rows = np.array(adj, dtype=rows.dtype)[:, None] & ~rows
            outside = _outside(n, size, rows.dtype)
        subsets = _subsets(n, size)
        start = 0
        while start < len(subsets) and alive.size:
            block = subsets[start : start + max(1, _BLOCK // alive.size)]
            if dual:
                # the minimum over T is nonzero iff every t in T has an in-neighbour outside T
                free = outside[start : start + len(block)]
                reach = rows[block[:, 0]] & free
                for i in range(1, size):
                    np.minimum(reach, rows[block[:, i]] & free, out=reach)
                keep = reach.max(axis=0) == 0
            else:
                cover = rows[block[:, 0]]
                for i in range(1, size):
                    cover |= rows[block[:, i]]
                keep = cover.max(axis=0) != full  # no cover in the block is full
            start += len(block)
            if not keep.all():
                alive = alive[keep]
                rows = rows.compress(keep, axis=1)  # faster than rows[:, keep]
    else:
        # greedy cover for `cap` rounds; covered implies gamma <= cap
        alive = np.arange(rows.shape[1])
        cover = np.zeros(alive.size, dtype=rows.dtype)
        for _ in range(cap):
            if alive.size == 0:
                break
            gains = np.bitwise_count(rows & ~cover)
            pick = np.argmax(gains, axis=0)
            cover = cover | rows[pick, np.arange(alive.size)]
            keep = cover != full
            if not keep.all():
                alive = alive[keep]
                rows = rows.compress(keep, axis=1)
                cover = cover[keep]
    return alive


def _scan(G: UndirectedGraph, floor: int, ceiling: int):
    """Scan every orientation bitmask of G for gamma >= floor.

    Returns (best_value, best_mask, explored, tallies); the best mask is
    the smallest one attaining the best value, or -1 with best_value
    floor - 1 if no mask reaches floor. tallies["ceiling_stop"] is 1 if
    the scan stopped at the ceiling, else 0.
    """
    n, edges, adj = G.n, G.edges, G.adj
    stop = 1 << G.m
    best_val = floor - 1
    best_mask = -1
    exact_evals = 0

    def exact(out):  # gamma of closed out-rows if it beats the incumbent, else a value <= it
        into = [a & ~row | 1 << v for v, (a, row) in enumerate(zip(adj, out))]  # one arc per edge
        return _gamma_engine(out, into, n, best_val)[0]

    # the exact prefix, in Python; mask 0 points each edge away from its smaller end
    closed = floor == ceiling
    prefix = min(stop, 1 if closed else 1 << _GROUP_BITS)
    first = [a >> v << v | 1 << v for v, a in enumerate(adj)]
    mask = 0
    while mask < prefix and best_val < ceiling:
        out = first.copy()
        for e in _iter_bits(mask):
            u, v = edges[e]
            out[u] ^= 1 << v
            out[v] ^= 1 << u
        value = exact(out)
        if value > best_val:  # what the exact filter passes (gamma >= 1 beats an incumbent of 0)
            best_val, best_mask, exact_evals = value, mask, exact_evals + 1
            mask = 1 << mask.bit_length()  # the one rise ends its chunk, [0, 1) or [2^k, 2^(k + 1))
        else:
            mask += 1

    def growth():  # at ceiling - 1 any rise stops the scan, at its first exact survivor
        last = best_val == ceiling - 1 and math.comb(n, best_val) <= _SUBSET_BUDGET
        return _LAST_RISE_GROWTH if last else 2

    if best_val < ceiling and prefix < stop:
        # a closed sandwich has one possible rise, to the ceiling, and it stops the
        # scan; with no one-rise break to protect, the first chunk can be wide
        for pos, rows in _chunk_rows(n, edges, stop, _CLOSED_FIRST if closed else 1, growth):
            if pos + rows.shape[1] <= prefix:
                continue
            for offset in map(int, _drop_covered(rows, n, best_val, edges)):
                if pos + offset < prefix:  # mask 0 of a closed scan, if the greedy cover kept it
                    continue
                value = exact(rows[:, offset].tolist())
                exact_evals += 1
                if value > best_val:
                    # the chunk's one rise: no later mask in it can beat the new incumbent
                    best_val, best_mask = value, pos + offset
                    break
            if best_val >= ceiling:
                break

    # masks after the stopping one do not count as explored
    ceiling_stop = int(best_val >= ceiling)
    explored = best_mask + 1 if ceiling_stop else stop
    tallies = {
        "vector_filtered": explored - exact_evals,
        "exact_evals": exact_evals,
        "ceiling_stop": ceiling_stop,
    }
    return best_val, best_mask, explored, tallies


def dom(G: UndirectedGraph, max_edges: int = DEFAULT_EDGE_CAP) -> DomResult:
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

    floor, ceiling, _ = sandwich(scan_graph)
    best_val, best_mask, explored, pruned = _scan(scan_graph, floor, ceiling)
    if best_mask < 0:
        raise RuntimeError(f"no orientation reached the alpha floor {floor}, but DOM >= alpha")
    return DomResult(best_val + iso, Orientation(G, best_mask), explored, pruned)


@dataclass
class Solver:
    """The scan's edge cap for one run, plus a memo of dom per labelled graph.

    Results do not depend on ``max_edges``, so the memo stays valid if it
    changes; a refused scan (CapExceeded) is never stored. Relabelled
    isomorphic graphs are separate keys.
    """

    max_edges: int = DEFAULT_EDGE_CAP
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def dom(self, G: UndirectedGraph) -> DomResult:
        key = (G.n, G.edges)
        if key not in self._memo:
            self._memo[key] = dom(G, self.max_edges)
        return self._memo[key]
