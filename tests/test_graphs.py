from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import underlying_edges
from oridom.corpus import multipartite_instances
from oridom.exprs import parse_graph_expr
from oridom.graphs import (
    SIZE_CAP,
    Orientation,
    build_digraph,
    build_graph,
    complete,
    cycle,
    delete_edge,
    empty,
    induced_subgraph,
    multipartite,
    path,
)


def test_build_k3():
    G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert G.n == 3 and G.m == 3
    assert G.edges == ((0, 1), (0, 2), (1, 2))


def test_build_k1():
    G = build_graph(1, [])
    assert G.n == 1 and G.m == 0


def test_build_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate edge"):
        build_graph(4, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="duplicate edge"):
        build_graph(4, [(0, 1), (1, 0)])


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])


def test_build_rejects_empty_vertex_set():
    with pytest.raises(ValueError):
        build_graph(0, [])


def test_canonical_edge_order():
    G = build_graph(4, [(3, 2), (1, 0), (2, 0)])
    assert G.edges == ((0, 1), (0, 2), (2, 3))


def test_families():
    assert path(4).m == 3
    assert complete(9).m == 36
    assert cycle(5).m == 5
    assert empty(3).m == 0
    with pytest.raises(ValueError):
        cycle(2)


def test_multipartite_k222():
    G = multipartite(2, 2, 2)
    assert G.n == 6 and G.m == 12
    parts = ((0, 1), (2, 3), (4, 5))
    assert {(u, v) for u, v in combinations(range(6), 2) if not G.adj[u] >> v & 1} == set(parts)
    for part in parts:
        for u in part:
            for v in part:
                if u != v:
                    assert not G.adj[u] >> v & 1


def test_multipartite_autosorts_with_warning():
    with pytest.warns(UserWarning, match="not ascending"):
        G = multipartite(2, 1)
    assert {(u, v) for u, v in combinations(range(3), 2) if not G.adj[u] >> v & 1} == {(1, 2)}


def test_multipartite_matches_its_definition():
    # parts are consecutive runs of ascending sizes; an edge joins two vertices
    # exactly when they lie in different parts
    for sizes in multipartite_instances(40):
        part = [i for i, s in enumerate(sizes) for _ in range(s)]
        G = multipartite(*sizes)
        assert G.n == len(part)
        assert G.edges == tuple((u, v) for u, v in combinations(range(G.n), 2) if part[u] != part[v])


def test_multipartite_checks_before_building():
    # the whole graph is measured before any part is built, and the warning
    # names the line that asked for the unsorted parts
    with pytest.raises(ValueError, match=r"^graph too large: 10006 vertices, 10005 edges \(cap 10000 each\)$"):
        multipartite(1, SIZE_CAP + 5)
    with pytest.raises(ValueError, match=r"^graph too large: 2000000000000 vertices, "):
        multipartite(10**12, 10**12)
    with pytest.warns(UserWarning, match=r"^part sizes \(3, 1\) not ascending; sorting$") as record:
        multipartite(3, 1)
    assert record[0].filename == __file__


def test_family_descriptors():
    assert parse_graph_expr("path:4").edges == path(4).edges
    assert parse_graph_expr("multi:1,2,2").edges == multipartite(1, 2, 2).edges
    assert parse_graph_expr("multipartite:1,2,2").edges == multipartite(1, 2, 2).edges
    with pytest.raises(ValueError, match="^unknown family 'wheel'$"):
        parse_graph_expr("wheel:5")
    with pytest.raises(ValueError, match=r"^family 'path' takes one parameter, got \[3, 4\]$"):
        parse_graph_expr("path:3,4")
    with pytest.raises(ValueError):
        parse_graph_expr("path")


def test_families_refuse_graphs_over_size_cap():
    # complete:141 has 9,870 edges and multi:50,200 exactly 10,000
    for text in (f"path:{SIZE_CAP}", f"cycle:{SIZE_CAP}", f"empty:{SIZE_CAP}", "complete:141",
                 "multi:50,200", f"multi:1,{SIZE_CAP - 1}"):
        assert max(parse_graph_expr(text).n, parse_graph_expr(text).m) <= SIZE_CAP
    for text in (f"path:{SIZE_CAP + 1}", f"cycle:{SIZE_CAP + 1}", f"empty:{SIZE_CAP + 1}",
                 "complete:142", "multi:50,201", "multi:5000,5000", f"multi:1,{SIZE_CAP}",
                 "empty:10000000000"):
        with pytest.raises(ValueError, match="graph too large"):
            parse_graph_expr(text)


def test_digraph_validation():
    D = build_digraph(3, [(0, 1), (1, 0), (1, 2)])
    assert D.out_degree(1) == 2 and D.in_degree(0) == 1
    with pytest.raises(ValueError, match="duplicate arc"):
        build_digraph(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="self-loop"):
        build_digraph(3, [(2, 2)])
    with pytest.raises(ValueError, match="out of range"):
        build_digraph(2, [(0, 2)])


def test_orientation_bits_range():
    G = path(3)
    with pytest.raises(ValueError, match="out of range"):
        Orientation(G, 4)
    Orientation(G, 3)  # max valid bitmask for two edges


def test_orientation_to_digraph_no_opposite_arcs():
    G = cycle(4)
    for bits in range(1 << G.m):
        D = Orientation(G, bits).to_digraph()
        assert D.m == G.m
        assert not any((v, u) in D.arcs for u, v in D.arcs)
        assert underlying_edges(D) == G.edges


def test_induced_subgraph_and_delete_edge():
    G = cycle(5)
    H = induced_subgraph(G, [0, 1, 2])
    assert H.edges == ((0, 1), (1, 2))
    S = delete_edge(G, 4, 0)
    assert S.m == 4 and S.n == 5
    with pytest.raises(ValueError, match="no such edge"):
        delete_edge(G, 0, 2)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_graph(n, picks)


@given(small_graphs())
@settings(max_examples=80)
def test_adjacency_symmetric_and_canonical(G):
    for u, v in G.edges:
        assert u < v
        assert G.adj[u] >> v & 1 and G.adj[v] >> u & 1
    assert list(G.edges) == sorted(G.edges)
    assert sum(G.adj[v].bit_count() for v in range(G.n)) == 2 * G.m
