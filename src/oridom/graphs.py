"""Immutable graph, digraph and orientation types with bitset adjacency.

Vertices are 0-based integers below ``n``. Adjacency is stored one Python
int per vertex, bit ``j`` set when ``j`` is a neighbor, so neighborhood
unions and intersections are single integer operations. Edge lists are
kept in canonical order: sorted by ``(min endpoint, max endpoint)``. Every
module that indexes edges relies on that order. The copies of
``generalized_lexicographic(G, hs)`` sit consecutively in G's vertex order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence


class CapExceeded(RuntimeError):
    """A search was refused because the instance exceeds its size cap."""


SIZE_CAP = 10_000  # most vertices, and most edges, of a graph that a parser or builder makes


def check_size(n: int, m: int) -> None:
    """Refuse a graph with over SIZE_CAP vertices or edges before it is built."""
    if n > SIZE_CAP or m > SIZE_CAP:
        raise ValueError(f"graph too large: {n} vertices, {m} edges (cap {SIZE_CAP} each)")


def _iter_bits(mask: int):
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple labeled graph. Treat as immutable; all fields are tuples."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Digraph:
    """Simple labeled digraph. Opposite arcs are allowed, self-loops are not."""

    n: int
    arcs: tuple[tuple[int, int], ...]
    out_rows: tuple[int, ...]
    in_rows: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.arcs)

    def out_degree(self, v: int) -> int:
        return self.out_rows[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_rows[v].bit_count()


@dataclass(frozen=True)
class Orientation:
    """Direction assignment over the base graph's canonical edge order.

    Bit ``i`` of ``bits`` flips edge ``i``: 0 orients from the smaller
    endpoint to the larger, 1 the reverse.
    """

    base: UndirectedGraph
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.base.m):
            raise ValueError(
                f"orientation bits {self.bits} out of range for {self.base.m} edges"
            )

    def arc(self, index: int) -> tuple[int, int]:
        u, v = self.base.edges[index]
        return (v, u) if self.bits >> index & 1 else (u, v)

    def to_digraph(self) -> Digraph:
        return build_digraph(self.base.n, [self.arc(i) for i in range(self.base.m)])


def build_graph(n, edges) -> UndirectedGraph:
    """Validate and canonicalize an edge list into an UndirectedGraph."""
    if n < 1:
        raise ValueError(f"graph must have at least one vertex, got n={n}")
    canonical = []
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise ValueError(f"self-loop not allowed: ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge: {key}")
        seen.add(key)
        canonical.append(key)
    canonical.sort()
    adj = [0] * n
    for u, v in canonical:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return UndirectedGraph(n, tuple(canonical), tuple(adj))


def build_digraph(n, arcs) -> Digraph:
    """Validate an arc list into a Digraph."""
    if n < 1:
        raise ValueError(f"digraph must have at least one vertex, got n={n}")
    seen = set()
    ordered = []
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise ValueError(f"self-loop not allowed: ({u}, {v})")
        if (u, v) in seen:
            raise ValueError(f"duplicate arc: ({u}, {v})")
        seen.add((u, v))
        ordered.append((u, v))
    ordered.sort()
    out_rows = [0] * n
    in_rows = [0] * n
    for u, v in ordered:
        out_rows[u] |= 1 << v
        in_rows[v] |= 1 << u
    return Digraph(n, tuple(ordered), tuple(out_rows), tuple(in_rows))


def path(n: int) -> UndirectedGraph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    check_size(n, n - 1)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> UndirectedGraph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    check_size(n, n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> UndirectedGraph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    check_size(n, n * (n - 1) // 2)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty(n: int) -> UndirectedGraph:
    if n < 1:
        raise ValueError(f"empty graph needs n >= 1, got {n}")
    check_size(n, 0)
    return build_graph(n, [])


def generalized_lexicographic(G: UndirectedGraph, hs: Sequence[UndirectedGraph]) -> UndirectedGraph:
    """Substitute graph hs[u] for each vertex u of G; join copies along E(G)."""
    if len(hs) != G.n:
        raise ValueError(f"need one substituted graph per vertex: {len(hs)} != {G.n}")
    *starts, total = accumulate((H.n for H in hs), initial=0)
    check_size(total, sum(H.m for H in hs) + sum(hs[u].n * hs[v].n for u, v in G.edges))
    edges = []
    for u in range(G.n):
        for a, b in hs[u].edges:
            edges.append((starts[u] + a, starts[u] + b))
    for u, v in G.edges:
        for a in range(starts[u], starts[u] + hs[u].n):
            for b in range(starts[v], starts[v] + hs[v].n):
                edges.append((a, b))
    return build_graph(total, edges)


def multipartite(*sizes: int) -> UndirectedGraph:
    """Complete multipartite graph, K_k with empty(s) substituted; parts consecutive, ascending."""
    if len(sizes) < 2:
        raise ValueError(f"multipartite needs at least 2 parts, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be positive: {sizes}")
    check_size(sum(sizes), (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2)
    if list(sizes) != sorted(sizes):
        warnings.warn(f"part sizes {sizes} not ascending; sorting", stacklevel=2)
        sizes = tuple(sorted(sizes))
    return generalized_lexicographic(complete(len(sizes)), [empty(s) for s in sizes])


def induced_subgraph(G: UndirectedGraph, vertices) -> UndirectedGraph:
    """Subgraph induced by ``vertices``, relabeled 0..k-1 in sorted order."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v]) for u, v in G.edges if u in index and v in index
    ]
    return build_graph(len(keep), edges)


def delete_edge(G: UndirectedGraph, u: int, v: int) -> UndirectedGraph:
    """Spanning subgraph with one edge removed."""
    key = (u, v) if u < v else (v, u)
    if key not in G.edges:
        raise ValueError(f"no such edge: {key}")
    return build_graph(G.n, [e for e in G.edges if e != key])

