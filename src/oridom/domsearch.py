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

_scan walks the masks in one loop of chunks, on a schedule it sets chunk
by chunk. Its first chunks, [0, 1), [1, 2), [2, 4) and [4, 8), or [0, 1)
alone when floor meets ceiling, are the exact prefix: on so few masks
numpy's fixed cost outweighs the exact work, so each of their masks gets
an exact gamma in Python, and counts as an exact evaluation iff it beats
the incumbent (what the exact filter passes), else as vector-filtered.
Every later chunk is built in numpy; _chunk_rows only builds it. A
numpy chunk starting at pos ends at 2 pos, or at 8 pos (_LAST_RISE_GROWTH)
once the incumbent is ceiling - 1 and the exact filter runs at it,
capped at the next multiple of _CHUNK, so from _CHUNK on chunks are
_CHUNK wide. An open scan's numpy chunks start at 8 (8, 16, 32, ...); a
scan whose floor meets its ceiling has a first numpy chunk
[1, _CLOSED_FIRST) = [1, 64) instead (then 64, 128, ... or, under the
exact filter, 64, 512, 4096, ...). Every later chunk start below _CHUNK
is a power of two, and a scan that stops early builds few masks.

Flipping edge (u, v) toggles bit v of row u and bit u of row v, since in
a simple graph no other edge sets those bits, so flips compose by XOR: a
chunk in the aligned block [h, h + _CHUNK) is the same chunk of block 0
with the edges set in h flipped. A chunk of _GROUP_MIN or more columns
is built at its group depth d: cut into aligned groups of 8 masks, which
differ only in their lowest 3 edges, and again into groups of groups
while each level stays at least _GROUP_MIN wide and a whole number of
groups. Its rows hold one column per group of 8^d masks, the group's
first mask with the arcs of edges[:3d] cleared: a subdigraph of every
mask of the group. Each depth has its own row buffer of block 0, filled
from mask 0 and never rewritten (see _chunk_rows). The dtype is the
narrowest unsigned type holding n bits (uint8 up to n = 8, then uint16,
uint32, uint64). Masks that provably cannot beat the incumbent are
discarded in bulk, by one of two tests:

  * dominating sets are upward closed, so gamma <= incumbent iff some
    vertex subset of size exactly `incumbent` dominates; when C(n, incumbent)
    <= _SUBSET_BUDGET, the subsets are tested in blocks of about _BLOCK
    (subset, orientation) pairs, OR-ing one out-row per subset position into
    the block's covers, and the orientations a block dominates are dropped
    before the next block (exact test: survivors have gamma > incumbent).
    When 2 incumbent > n, the blocks walk the smaller complements T
    instead: V - T dominates iff every t in T has an in-neighbour outside
    T. Each edge the rows hold is exactly one arc, so t's open in-row is
    its neighbours along those edges minus its out-row, and a subset costs
    n - incumbent row ANDs;
  * otherwise a vectorized greedy cover runs for `incumbent` rounds, which
    certifies gamma <= incumbent for everything it covers.

Adding arcs never raises gamma, so a cover of a group's column, by
either test, drops the whole group. Both tests run top down: the
coarsest level first, then each surviving group expanded 8-fold by
OR-ing in a per-level table of the arcs of its next 3 edges under their
8 orientations (the reverse table for in-rows), tested in turn, and so
on down to single masks. Certified groups are never built below their
level.

Survivors get an exact branch-and-bound gamma with the incumbent as
cutoff, on closed out-rows built from their mask in Python, as the
prefix masks' are; the closed in-row of v is adj[v] & ~out[v] | v, since
each edge is exactly one arc. The first survivor that raises the
incumbent ends its chunk, so under the exact filter a chunk has at most
one survivor that gets an exact gamma.
Reversing one arc changes gamma by at most 1: if S dominates D, then S
plus the reversed arc's new tail dominates the result. A 2-fold or
_CHUNK-wide chunk [pos, pos + w) with pos > 0 has pos a multiple of its
width w, so clearing the lowest set bit of pos maps each of its masks to
a mask below pos that differs in one edge. Every gamma in the chunk is
thus at most the incumbent + 1, the incumbent rises at most once per
chunk, and the masks after the rise cannot beat it. The prefix chunks
after [0, 1), which has one mask, are 2-fold too. At incumbent
ceiling - 1, which a closed scan (floor = ceiling) starts at, any rise
reaches the ceiling and stops the scan, so its chunks need no such
bound: the wide first chunk and the 8-fold ones. The exact filter's
first survivor is then the stopping mask, and no mask after it is
counted, so the longer chunks change no counter.

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
_GROUP_BITS = 3  # the cover tests certify aligned groups of 1 << _GROUP_BITS columns
_GROUP_MIN = 1 << 10  # narrowest chunk that is grouped first
_CLOSED_FIRST = 64  # where the first numpy chunk of a scan whose floor meets its ceiling ends
_LAST_RISE_GROWTH = 8  # chunk growth below _CHUNK once the next rise must stop the scan


def _group_depth(width):
    """Levels of groups a chunk is cut into, each _GROUP_MIN or more columns and whole groups."""
    depth = 0
    while width >= _GROUP_MIN and width % (1 << _GROUP_BITS) == 0:
        width >>= _GROUP_BITS
        depth += 1
    return depth


def _chunk_rows(n, edges, stop):
    """Return build(pos, end, depth) -> (rows, tables) for the chunks of [0, stop).

    rows[v][j] is v's closed out-row under mask pos + j. At depth d > 0,
    with b = _GROUP_BITS, column g of rows instead holds mask pos + (g << b d)
    with only the arcs of edges[b d:], a subdigraph of all 2^(b d) masks of
    its group, and tables[k] (k < d) is the (n, 1, 2^b) array of the arcs of
    edges[b k : b (k + 1)] under each of their 2^b orientations. At depth 0
    there are no tables.

    Chunks are asked for in increasing order, pos and end are multiples of
    2^(b d), and no chunk crosses a multiple of _CHUNK.

    Each depth has one buffer, allocated when a chunk first needs it,
    _GROUP_MIN columns or more (at most the widest chunk's width >> b d),
    and grown by copying. Its column j holds mask j << b d. It starts from
    mask 0, or from every 2^b-th column the depth below has filled, and
    doubles by one XOR of columns [0, f) with the bits of edge b d + log2(f)
    into columns [f, 2f); a filled column is never written again. A chunk
    below _CHUNK is a view of the buffer, so callers do not write into
    rows. Mask h + j is h ^ j for h a multiple of _CHUNK and j < _CHUNK, so
    a chunk of the block starting at h > 0 is the same columns XOR-ed with
    the bits of the edges set in h. The tables are built once, at the first
    grouped chunk.
    """
    word = np.min_scalar_type((1 << n) - 1).type  # narrowest unsigned type holding n bits
    width = min(_CHUNK, 1 << (stop - 1).bit_length())  # the widest chunk
    delta = np.zeros((len(edges), n, 1), dtype=word)  # the bits flipping edge e changes
    out = [1 << v for v in range(n)]
    for e, (u, v) in enumerate(edges):
        out[u] |= 1 << v
        delta[e, u], delta[e, v] = 1 << v, 1 << u
    out = np.array(out, dtype=word)[:, None]
    buffers, tables = {}, None  # depth -> (rows, filled columns)

    def build(pos, end, depth):
        nonlocal tables
        if depth and tables is None:  # every level the widest chunk is built at, once
            levels = _group_depth(width)
            arcs = delta[: _GROUP_BITS * levels].reshape(levels, _GROUP_BITS, n, 1)
            tables = np.bitwise_or.reduce(arcs & out, axis=1)  # each level's arcs under mask 0
            for i in range(_GROUP_BITS):
                tables = np.concatenate((tables, tables ^ arcs[:, i]), axis=2)
            tables = tables[:, :, None]
        shift = _GROUP_BITS * depth
        high = pos & -_CHUNK  # mask high + j is high ^ j for j < _CHUNK
        left, right = (pos - high) >> shift, (end - high) >> shift
        need = 1 << (right - 1).bit_length()  # the buffer doubles, so it fills a power of two of columns
        rows, filled = buffers.get(depth, (None, 0))
        if rows is None or rows.shape[1] < need:
            grown = np.empty((n, min(width >> shift, max(need, _GROUP_MIN))), dtype=word)
            if rows is not None:
                grown[:, :filled] = rows[:, :filled]
            else:
                finer, finer_filled = buffers.get(depth - 1, (None, 0))
                filled = min(need, finer_filled >> _GROUP_BITS)
                if filled:  # every group's first column one level down, without its level's arcs
                    step = 1 << _GROUP_BITS
                    grown[:, :filled] = finer[:, : filled * step : step] ^ tables[depth - 1, :, :, 0]
                else:  # mask 0, without the arcs of edges[:shift]
                    grown[:, :1] = out
                    if depth:
                        grown[:, :1] ^= np.bitwise_or.reduce(tables[:depth, :, :, 0], axis=0)
                    filled = 1
            rows = grown
        while filled < need:
            flip = delta[shift + filled.bit_length() - 1]
            np.bitwise_xor(rows[:, :filled], flip, out=rows[:, filled : 2 * filled])
            filled *= 2
        buffers[depth] = rows, filled
        chunk = rows[:, left:right]
        if high:  # flip the edges set in high, all above the chunk's own
            chunk = chunk ^ np.bitwise_xor.reduce(delta[list(_iter_bits(high))], axis=0)
        return chunk, tables[:depth] if depth else ()

    return build


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


def _drop_covered(rows, n, cap, edges, tables=()):
    """Offsets of the masks of a chunk not certified to have gamma <= cap.

    rows and tables are as the builder of _chunk_rows returns them: a chunk
    at group depth d = len(tables), whose columns hold only the arcs of
    edges[b d:] (b = _GROUP_BITS); the offsets are those of the chunk's own
    masks. The cover test, exact or greedy, tests the columns, expands each
    survivor 2^b-fold by OR-ing in tables[d - 1], tests those, and so on
    through tables[0]. Needs cap >= 1: _scan evaluates mask 0 exactly, and
    gamma >= 1 beats an incumbent of 0.
    Does not write into rows.
    """
    full = rows.dtype.type((1 << n) - 1)
    # cap stays below the scan's ceiling n - nu <= n - 1, so cap-subsets are proper
    if math.comb(n, cap) <= _SUBSET_BUDGET:
        # exact filter (upward closure): survivors are precisely gamma > cap. A cap-subset
        # S dominates iff each t outside S has an in-neighbour in S; for 2 cap > n, walk
        # the smaller complements T = V - S instead
        dual = 2 * cap > n
        size = n - cap if dual else cap
        subsets = _subsets(n, size)
        if dual:
            # each edge the rows hold is exactly one arc, so t's open in-row is its
            # neighbours along those edges minus its out-row
            adj = [0] * n
            for u, v in edges[_GROUP_BITS * len(tables) :]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            rows = np.array(adj, dtype=rows.dtype)[:, None] & ~rows
            outside = _outside(n, size, rows.dtype)
            tables = [table[..., ::-1] for table in tables]  # in-arcs: the complement's out-arcs

        def survive(rows, alive):  # (alive, rows) of the columns no cap-subset dominates
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
            return alive, rows
    else:
        def survive(rows, alive):  # (alive, rows) of the columns `cap` greedy picks do not cover
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
            return alive, rows

    # a column is a subdigraph of every mask of its group, and adding arcs never
    # raises gamma, so a cover of the column drops the group; only the surviving
    # groups are expanded, one level at a time
    alive, rows = survive(rows, np.arange(rows.shape[1]))
    for table in reversed(tables):
        if not alive.size:
            break
        rows = (rows[:, :, None] | table).reshape(n, -1)
        alive = (alive[:, None] << _GROUP_BITS | np.arange(table.shape[-1])).ravel()
        alive, rows = survive(rows, alive)
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

    # mask 0 points each edge away from its smaller end
    first = [a >> v << v | 1 << v for v, a in enumerate(adj)]

    def exact(mask):  # gamma under mask if it beats the incumbent, else a value <= it
        out = first.copy()  # closed out-rows
        while mask:
            low = mask & -mask
            mask ^= low
            u, v = edges[low.bit_length() - 1]
            out[u] ^= 1 << v
            out[v] ^= 1 << u
        into = [a & ~row | 1 << v for v, (a, row) in enumerate(zip(adj, out))]  # one arc per edge
        return _gamma_engine(out, into, n, best_val)[0]

    closed = floor == ceiling
    prefix = 1 if closed else 8  # the exact prefix: its chunks are [0, 1), [1, 2), [2, 4), [4, 8)
    pos = 0
    while pos < stop and best_val < ceiling:
        if pos < prefix:  # every mask gets an exact gamma, counted only if it beats the incumbent
            end = 2 * pos or 1
            offsets, filtered = range(end - pos), False
        else:
            exact_filter = math.comb(n, best_val) <= _SUBSET_BUDGET
            # at ceiling - 1 any rise stops the scan, at its first exact survivor. A
            # closed sandwich has one possible rise, to the ceiling, and it stops the
            # scan; with no one-rise break to protect, its first chunk can be wide
            growth = _LAST_RISE_GROWTH if best_val == ceiling - 1 and exact_filter else 2
            end = min(stop, (pos & -_CHUNK) + _CHUNK, max(growth * pos, _CLOSED_FIRST if closed else 0))
            if pos == prefix:  # the first numpy chunk
                build = _chunk_rows(n, edges, stop)
            rows, tables = build(pos, end, _group_depth(end - pos))
            offsets, filtered = map(int, _drop_covered(rows, n, best_val, edges, tables)), True
        for offset in offsets:
            value = exact(pos + offset)
            exact_evals += filtered or value > best_val  # a prefix mask that loses counts as filtered
            if value > best_val:
                # the chunk's one rise: no later mask in it can beat the new incumbent
                best_val, best_mask = value, pos + offset
                break
        pos = end

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
