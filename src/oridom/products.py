"""Graph product and composition constructors.

Product vertices are laid out row-major by first-factor index: the vertex
``(g, h)`` of a two-factor product gets id ``g * n(H) + h``. Orientation
schemes address product vertices through this fixed layout, so it must
not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import UndirectedGraph, build_graph, check_size


@dataclass(frozen=True)
class ProductVertexMap:
    """Bijection (g-vertex, h-vertex) <-> product vertex id, row-major by g."""

    n_g: int
    n_h: int

    def forward(self, g: int, h: int) -> int:
        return g * self.n_h + h

    def inverse(self, pid: int) -> tuple[int, int]:
        return divmod(pid, self.n_h)


@dataclass(frozen=True)
class BlockMap:
    """Per-base-vertex contiguous id ranges of substituted or attached copies."""

    ranges: tuple[tuple[int, int], ...]  # (start, length) per base vertex

    def block(self, u: int) -> range:
        start, length = self.ranges[u]
        return range(start, start + length)


def cartesian(G: UndirectedGraph, H: UndirectedGraph):
    """(u,v) ~ (x,y) iff u=x and vy in E(H), or v=y and ux in E(G)."""
    check_size(G.n * H.n, G.n * H.m + G.m * H.n)
    vmap = ProductVertexMap(G.n, H.n)
    edges = []
    for g in range(G.n):
        for a, b in H.edges:
            edges.append((vmap.forward(g, a), vmap.forward(g, b)))
    for a, b in G.edges:
        for h in range(H.n):
            edges.append((vmap.forward(a, h), vmap.forward(b, h)))
    return build_graph(G.n * H.n, edges), vmap


def lexicographic(G: UndirectedGraph, H: UndirectedGraph):
    """(x,y) ~ (u,v) iff xu in E(G), or x=u and yv in E(H)."""
    return generalized_lexicographic(G, [H] * G.n)[0], ProductVertexMap(G.n, H.n)


def generalized_lexicographic(G: UndirectedGraph, hs: Sequence[UndirectedGraph]):
    """Substitute graph hs[u] for each vertex u of G; join copies along E(G)."""
    if len(hs) != G.n:
        raise ValueError(f"need one substituted graph per vertex: {len(hs)} != {G.n}")
    starts = []
    total = 0
    for H in hs:
        starts.append(total)
        total += H.n
    check_size(total, sum(H.m for H in hs) + sum(hs[u].n * hs[v].n for u, v in G.edges))
    blocks = BlockMap(tuple((starts[u], hs[u].n) for u in range(G.n)))
    edges = []
    for u in range(G.n):
        for a, b in hs[u].edges:
            edges.append((starts[u] + a, starts[u] + b))
    for u, v in G.edges:
        for a in blocks.block(u):
            for b in blocks.block(v):
                edges.append((a, b))
    return build_graph(total, edges), blocks


def corona(G: UndirectedGraph, H: UndirectedGraph):
    """G plus one copy of H per vertex u, with u joined to its whole copy.

    G keeps ids 0..n(G)-1; the copy for u occupies the block starting at
    n(G) + u*n(H).
    """
    check_size(G.n * (1 + H.n), G.m + G.n * (H.m + H.n))
    blocks = BlockMap(tuple((G.n + u * H.n, H.n) for u in range(G.n)))
    edges = list(G.edges)
    for u in range(G.n):
        start = G.n + u * H.n
        for a, b in H.edges:
            edges.append((start + a, start + b))
        for a in range(H.n):
            edges.append((u, start + a))
    return build_graph(G.n * (1 + H.n), edges), blocks


def join(G: UndirectedGraph, H: UndirectedGraph) -> UndirectedGraph:
    """Disjoint union plus all cross edges; H is shifted by n(G)."""
    check_size(G.n + H.n, G.m + H.m + G.n * H.n)
    edges = list(G.edges)
    for a, b in H.edges:
        edges.append((G.n + a, G.n + b))
    for u in range(G.n):
        for v in range(H.n):
            edges.append((u, G.n + v))
    return build_graph(G.n + H.n, edges)
