"""The concrete orientation schemes.

Every scheme builds its arcs by walking the base graph's canonical edge
list and choosing a direction per edge, so the underlying graph of the
output always equals the base graph edge-for-edge. Schemes that need
optimal sub-orientations take them as explicit arguments; they never run
the DOM solver themselves.
"""

from __future__ import annotations

from .graphs import (
    Digraph,
    Orientation,
    UndirectedGraph,
    build_digraph,
    check_size,
    complete,
    path,
)
from .products import cartesian, join, lexicographic

def _same_shape(a: UndirectedGraph, b: UndirectedGraph) -> bool:
    return a.n == b.n and a.edges == b.edges


def path_join_orientation(n: int) -> Digraph:
    """Orientation of P_n + K_1 whose domination number is n/2 + 1.

    Path arcs run forward; the hub sends arcs to odd-position path
    vertices and receives from even positions (1-based positions).
    """
    if n < 2 or n % 2:
        raise ValueError(f"path length must be even and >= 2, got {n}")
    base = join(path(n), complete(1))
    hub = n
    arcs = []
    for u, v in base.edges:
        if v == hub:  # path vertex u, 1-based position u+1
            arcs.append((hub, u) if (u + 1) % 2 == 1 else (u, hub))
        else:
            arcs.append((u, v))
    return build_digraph(base.n, arcs)


def corona_orientation(
    G: UndirectedGraph, H: UndirectedGraph, g: Orientation, h: Orientation
) -> Digraph:
    """Orient the corona of G and H blockwise.

    Each block {u} + copy of H is oriented by ``h`` (an orientation of
    H + K_1, with u in the K_1 role); the G edges follow ``g``.
    """
    if not _same_shape(g.base, G):
        raise ValueError("orientation g does not match G")
    hub_graph = join(H, complete(1))
    if not _same_shape(h.base, hub_graph):
        raise ValueError("orientation h does not match H + K_1")
    hub = H.n
    arcs = [g.arc(i) for i in range(G.m)]
    for u in range(G.n):
        start = G.n + u * H.n

        def place(x: int) -> int:
            return u if x == hub else start + x

        for i in range(hub_graph.m):
            a, b = h.arc(i)
            arcs.append((place(a), place(b)))
    return build_digraph(G.n * (1 + H.n), arcs)


def cartesian_orientation(g_f: Orientation, h_g: Orientation, A) -> Digraph:
    """Orient the Cartesian product of the two base graphs.

    G-layer edges follow ``g_f``; H-fiber edges incident to a vertex of
    the independent set A point away from it, the rest follow ``h_g``.
    """
    G, H = g_f.base, h_g.base
    a_set = set(A)
    for x in a_set:
        for y in a_set:
            if x != y and H.has_edge(x, y):
                raise ValueError(f"A is not independent in H: edge {{{x},{y}}}")
    product, vmap = cartesian(G, H)
    arcs = []
    for u, v in product.edges:
        gi, hi = vmap.inverse(u)
        gk, hl = vmap.inverse(v)
        if hi == hl:  # G-layer edge
            a, b = g_f.arc(G.edge_index(gi, gk))
            arcs.append((vmap.forward(a, hi), vmap.forward(b, hi)))
        elif hi in a_set:
            arcs.append((u, v))
        elif hl in a_set:
            arcs.append((v, u))
        else:
            a, b = h_g.arc(H.edge_index(hi, hl))
            arcs.append((vmap.forward(gi, a), vmap.forward(gi, b)))
    return build_digraph(product.n, arcs)


def k3_box_k3_orientation() -> Digraph:
    """The 9-vertex orientation of K_3 x K_3 (Cartesian) with every
    out-degree 2 and domination number 4. Vertex (i, j) has id 3*i + j."""
    arcs = [
        (0, 1), (1, 2), (2, 0),
        (3, 5), (4, 3), (5, 4),
        (6, 7), (7, 8), (8, 6),
        (0, 3), (3, 6), (6, 0),
        (4, 1), (7, 4), (1, 7),
        (2, 5), (5, 8), (8, 2),
    ]
    return build_digraph(9, arcs)


def prism_orientation(n: int) -> Digraph:
    """Orientation of C_n x K_2 (Cartesian) with domination number n.

    Both cycle layers run forward; every rung points from layer 0 to
    layer 1. Vertex (i, layer) has id 2*i + layer.
    """
    if n < 3:
        raise ValueError(f"prism needs a cycle of length >= 3, got {n}")
    check_size(2 * n, 3 * n)
    arcs = []
    for i in range(n):
        nxt = (i + 1) % n
        arcs.append((2 * i, 2 * nxt))
        arcs.append((2 * i + 1, 2 * nxt + 1))
        arcs.append((2 * i, 2 * i + 1))
    return build_digraph(2 * n, arcs)


def lex_orientation(G: UndirectedGraph, A, H_f: Orientation) -> Digraph:
    """Orient the lexicographic product of G and H_f's base graph.

    Each copy follows ``H_f``. Cross edges leaving a copy indexed by a
    vertex of the independent set A point away from that copy; cross
    edges between two non-A copies run from the lower G-index to the
    higher (a fixed, reproducible completion).
    """
    H = H_f.base
    a_set = set(A)
    for x in a_set:
        for y in a_set:
            if x != y and G.has_edge(x, y):
                raise ValueError(f"A is not independent in G: edge {{{x},{y}}}")
    product, vmap = lexicographic(G, H)
    arcs = []
    for p, q in product.edges:
        gu, ha = vmap.inverse(p)
        gv, hb = vmap.inverse(q)
        if gu == gv:  # inside one copy
            a, b = H_f.arc(H.edge_index(ha, hb))
            arcs.append((vmap.forward(gu, a), vmap.forward(gu, b)))
        elif gu in a_set:
            arcs.append((p, q))
        elif gv in a_set:
            arcs.append((q, p))
        else:
            arcs.append((p, q) if gu < gv else (q, p))
    return build_digraph(product.n, arcs)


def acyclic_lex_cycle_orientation(k: int, s: int) -> Digraph:
    """Acyclic orientation of C_{2k+1} composed with s-fold blowup.

    All edges between consecutive cycle classes run forward, and the
    chord class (first to last) also runs from the first class. The
    result has domination number s+2k-2 but packing number s+k-1.
    Vertex (i, j) has id i*s + j.
    """
    if k < 2 or s < 2:
        raise ValueError(f"need k >= 2 and s >= 2, got k={k}, s={s}")
    verts = 2 * k + 1
    check_size(verts * s, verts * s * s)
    arcs = []
    for i in range(verts - 1):
        for j in range(s):
            for l in range(s):
                arcs.append((i * s + j, (i + 1) * s + l))
    for j in range(s):
        for l in range(s):
            arcs.append((j, (verts - 1) * s + l))
    return build_digraph(verts * s, arcs)


def k222_orientation() -> Digraph:
    """Orientation of K_{2,2,2} with domination number 3.

    Parts are {0,1}, {2,3}, {4,5}; every vertex has out-degree 2. The
    closed out-neighborhoods are chosen so that no two vertices dominate.
    """
    arcs = [
        (0, 4), (0, 5),
        (1, 3), (1, 5),
        (2, 0), (2, 1),
        (3, 0), (3, 4),
        (4, 1), (4, 2),
        (5, 2), (5, 3),
    ]
    return build_digraph(6, arcs)


SELF_CONTAINED_SCHEMES = {
    "path_join": (path_join_orientation, ("n",)),
    "prism": (prism_orientation, ("n",)),
    "k3_box_k3": (k3_box_k3_orientation, ()),
    "k222": (k222_orientation, ()),
    "acyclic_lex_cycle": (acyclic_lex_cycle_orientation, ("k", "s")),
}
