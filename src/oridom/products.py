"""Graph product and composition constructors.

Each constructor returns one UndirectedGraph in a fixed vertex layout, which
the orientation schemes read back with ``divmod``, so it must not change:
vertex ``(g, h)`` of ``cartesian(G, H)`` and ``lexicographic(G, H)`` is
``g * n(H) + h``; the copies of ``generalized_lexicographic(G, hs)`` sit
consecutively in G's vertex order; ``corona(G, H)`` keeps G's ids and
starts u's copy of H at ``n(G) + u * n(H)``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .graphs import UndirectedGraph, build_graph, check_size, complete


def cartesian(G: UndirectedGraph, H: UndirectedGraph) -> UndirectedGraph:
    """(u,v) ~ (x,y) iff u=x and vy in E(H), or v=y and ux in E(G)."""
    check_size(G.n * H.n, G.n * H.m + G.m * H.n)
    edges = []
    for g in range(G.n):
        for a, b in H.edges:
            edges.append((g * H.n + a, g * H.n + b))
    for a, b in G.edges:
        for h in range(H.n):
            edges.append((a * H.n + h, b * H.n + h))
    return build_graph(G.n * H.n, edges)


def lexicographic(G: UndirectedGraph, H: UndirectedGraph) -> UndirectedGraph:
    """(x,y) ~ (u,v) iff xu in E(G), or x=u and yv in E(H)."""
    return generalized_lexicographic(G, [H] * G.n)


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


def corona(G: UndirectedGraph, H: UndirectedGraph) -> UndirectedGraph:
    """G plus one copy of H per vertex u, with u joined to its whole copy."""
    check_size(G.n * (1 + H.n), G.m + G.n * (H.m + H.n))
    edges = list(G.edges)
    for u in range(G.n):
        start = G.n + u * H.n
        for a, b in H.edges:
            edges.append((start + a, start + b))
        for a in range(H.n):
            edges.append((u, start + a))
    return build_graph(G.n * (1 + H.n), edges)


def join(G: UndirectedGraph, H: UndirectedGraph) -> UndirectedGraph:
    """Disjoint union plus all cross edges; H is shifted by n(G).

    That is K_2 with G and H substituted for its two vertices."""
    return generalized_lexicographic(complete(2), [G, H])
