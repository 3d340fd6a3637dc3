"""Graph product and composition constructors.

Each constructor returns one UndirectedGraph in a fixed vertex layout, which
the orientation schemes read back with ``divmod``, so it must not change:
vertex ``(g, h)`` of ``cartesian(G, H)`` and ``lexicographic(G, H)`` is
``g * n(H) + h``. ``lexicographic``, ``join``, ``corona`` and
``graphs.multipartite`` are vertex substitutions, which place the copies in
the host's vertex order; ``corona(G, H)`` substitutes K_1 for G's vertices and
H for one pendant per vertex, so G keeps its ids and u's copy of H starts at
``n(G) + u * n(H)``.
"""

from __future__ import annotations

from .graphs import UndirectedGraph, build_graph, check_size, complete, generalized_lexicographic


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


def corona(G: UndirectedGraph, H: UndirectedGraph) -> UndirectedGraph:
    """G plus one copy of H per vertex u, with u joined to its whole copy."""
    check_size(G.n * (1 + H.n), G.m + G.n * (H.m + H.n))
    spine = build_graph(2 * G.n, [*G.edges, *((u, G.n + u) for u in range(G.n))])
    return generalized_lexicographic(spine, [complete(1)] * G.n + [H] * G.n)


def join(G: UndirectedGraph, H: UndirectedGraph) -> UndirectedGraph:
    """Disjoint union plus all cross edges; H is shifted by n(G).

    That is K_2 with G and H substituted for its two vertices."""
    return generalized_lexicographic(complete(2), [G, H])
