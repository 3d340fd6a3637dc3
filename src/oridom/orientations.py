"""The concrete orientation schemes.

Every scheme builds its arcs by walking the base graph's canonical edge
list and choosing a direction per edge, so the underlying graph of the
output always equals the base graph edge-for-edge; the composite schemes
take that list from the ``products`` constructor and read each endpoint's
factor vertices off its id with ``divmod``. Schemes that need optimal
sub-orientations take them as explicit arguments; they never run the DOM
solver themselves.
"""

from __future__ import annotations

from .graphs import (
    Digraph,
    Orientation,
    UndirectedGraph,
    _iter_bits,
    build_digraph,
    check_size,
    complete,
    cycle,
    empty,
    path,
)
from .products import cartesian, corona, join, lexicographic


def _arcs(f: Orientation) -> set[tuple[int, int]]:
    return {f.arc(i) for i in range(f.base.m)}


def _independent_set(A, G: UndirectedGraph, name: str) -> set[int]:
    """``A`` as a set, after checking that it is an independent set of G's vertices."""
    a_set = set(A)
    for x in sorted(a_set):
        if not 0 <= x < G.n:
            raise ValueError(f"A has vertex {x}, out of range for {name} with n={G.n}")
        for y in _iter_bits(G.adj[x]):
            if y in a_set:
                raise ValueError(f"A is not independent in {name}: edge {{{x},{y}}}")
    return a_set


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
    if g.base != G:
        raise ValueError("orientation g does not match G")
    if h.base != join(H, complete(1)):
        raise ValueError("orientation h does not match H + K_1")
    g_arcs, h_arcs = _arcs(g), _arcs(h)
    arcs = []
    for p, q in corona(G, H).edges:
        if q < G.n:  # an edge of G
            forward = (p, q) in g_arcs
        else:  # in u's block: its copy of H starts at n(G) + u*n(H), and h's hub H.n is u
            u, b = divmod(q - G.n, H.n)
            forward = (H.n if p == u else p - G.n - u * H.n, b) in h_arcs
        arcs.append((p, q) if forward else (q, p))
    return build_digraph(G.n * (1 + H.n), arcs)


def cartesian_orientation(g_f: Orientation, h_g: Orientation, A) -> Digraph:
    """Orient the Cartesian product of the two base graphs.

    G-layer edges follow ``g_f``; H-fiber edges incident to a vertex of
    the independent set A point away from it, the rest follow ``h_g``.
    """
    G, H = g_f.base, h_g.base
    a_set = _independent_set(A, H, "H")
    g_arcs, h_arcs = _arcs(g_f), _arcs(h_g)
    arcs = []
    for u, v in cartesian(G, H).edges:
        gi, hi = divmod(u, H.n)
        gk, hl = divmod(v, H.n)
        if hi == hl:  # G-layer edge
            forward = (gi, gk) in g_arcs
        elif hi in a_set or hl in a_set:  # away from the A-fibre
            forward = hi in a_set
        else:
            forward = (hi, hl) in h_arcs
        arcs.append((u, v) if forward else (v, u))
    return build_digraph(G.n * H.n, arcs)


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

    The Cartesian scheme with A empty: both cycle layers run forward and
    every rung points from layer 0 to layer 1. Vertex (i, layer) has id
    2*i + layer.
    """
    if n < 3:
        raise ValueError(f"prism needs a cycle of length >= 3, got {n}")
    check_size(2 * n, 3 * n)  # the product's size, before the cycle is built
    # bit 1 of cycle(n) reverses its edge {0, n-1}, so the cycle runs 0 -> 1 -> ... -> 0
    return cartesian_orientation(Orientation(cycle(n), 2), Orientation(complete(2), 0), ())


def lex_orientation(G: UndirectedGraph, A, H_f: Orientation) -> Digraph:
    """Orient the lexicographic product of G and H_f's base graph.

    Each copy follows ``H_f``. A cross edge between the copies of gp < gq
    runs from copy gp to copy gq unless gq is in the independent set A, so
    every cross edge at an A-copy points away from it.
    """
    H = H_f.base
    a_set = _independent_set(A, G, "G")
    h_arcs = _arcs(H_f)
    arcs = []
    for p, q in lexicographic(G, H).edges:
        gp, a = divmod(p, H.n)
        gq, b = divmod(q, H.n)
        # inside one copy follow H_f; across copies gp < gq, away from an A-copy
        forward = (a, b) in h_arcs if gp == gq else gq not in a_set
        arcs.append((p, q) if forward else (q, p))
    return build_digraph(G.n * H.n, arcs)


def acyclic_lex_cycle_orientation(k: int, s: int) -> Digraph:
    """Acyclic orientation of C_{2k+1} composed with s-fold blowup.

    The lexicographic scheme with A empty: every cross edge runs from the
    lower cycle class to the higher, so consecutive classes run forward and
    the chord class (first to last) also runs from the first class. The
    result has domination number s+2k-2 but packing number s+k-1.
    Vertex (i, j) has id i*s + j.
    """
    if k < 2 or s < 2:
        raise ValueError(f"need k >= 2 and s >= 2, got k={k}, s={s}")
    check_size((2 * k + 1) * s, (2 * k + 1) * s * s)  # the product's size, before the cycle is built
    return lex_orientation(cycle(2 * k + 1), (), Orientation(empty(s), 0))


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
