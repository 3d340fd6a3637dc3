import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import underlying_edges
from oridom.graphs import Orientation, build_graph, complete, cycle, empty, multipartite, path
from oridom.invariants import is_acyclic, max_independent_set
from oridom.orientations import (
    acyclic_lex_cycle_orientation,
    cartesian_orientation,
    corona_orientation,
    k3_box_k3_orientation,
    k222_orientation,
    lex_orientation,
    path_join_orientation,
    prism_orientation,
)
from oridom.products import cartesian, corona, join, lexicographic
from test_products import factor_pairs


def test_every_scheme_covers_its_base():
    cases = [
        (path_join_orientation(4), join(path(4), complete(1))),
        (path_join_orientation(8), join(path(8), complete(1))),
        (prism_orientation(3), cartesian(cycle(3), complete(2))),
        (prism_orientation(6), cartesian(cycle(6), complete(2))),
        (k3_box_k3_orientation(), cartesian(complete(3), complete(3))),
        (k222_orientation(), multipartite(2, 2, 2)),
        (acyclic_lex_cycle_orientation(2, 2), lexicographic(cycle(5), empty(2))),
        (acyclic_lex_cycle_orientation(3, 4), lexicographic(cycle(7), empty(4))),
    ]
    for digraph, base in cases:
        assert underlying_edges(digraph) == base.edges


def test_path_join_rejects_odd():
    with pytest.raises(ValueError, match="even"):
        path_join_orientation(5)


def test_path_join_hub_arc_parity():
    n = 6
    D = path_join_orientation(n)
    hub = n
    for i in range(n - 1):
        assert (i, i + 1) in D.arcs  # path runs forward
    for v in range(n):
        if (v + 1) % 2 == 1:  # odd 1-based position: hub sends
            assert (hub, v) in D.arcs
        else:
            assert (v, hub) in D.arcs


def test_prism_orientation_structure():
    n = 5
    D = prism_orientation(n)
    for i in range(n):
        nxt = (i + 1) % n
        assert (2 * i, 2 * nxt) in D.arcs  # layer 0 forward
        assert (2 * i + 1, 2 * nxt + 1) in D.arcs  # layer 1 forward
        assert (2 * i, 2 * i + 1) in D.arcs  # rung into layer 1


def test_k3_box_k3_fixed_arcs():
    D = k3_box_k3_orientation()
    assert set(D.arcs) == {
        (0, 1), (1, 2), (2, 0),
        (3, 5), (4, 3), (5, 4),
        (6, 7), (7, 8), (8, 6),
        (0, 3), (3, 6), (6, 0),
        (4, 1), (7, 4), (1, 7),
        (2, 5), (5, 8), (8, 2),
    }


def test_k222_closed_out_neighborhood_table():
    D = k222_orientation()
    table = {
        0: {0, 4, 5},
        1: {1, 3, 5},
        2: {0, 1, 2},
        3: {0, 3, 4},
        4: {1, 2, 4},
        5: {2, 3, 5},
    }
    for vertex, closed in table.items():
        got = {vertex} | set(v for v in range(6) if D.out_rows[vertex] >> v & 1)
        assert got == closed


def test_acyclic_scheme_grid():
    for k in (2, 3, 4):
        for s in (2, 3, 4):
            D = acyclic_lex_cycle_orientation(k, s)
            assert is_acyclic(D)[0]
            assert D.n == (2 * k + 1) * s


def test_acyclic_scheme_rejects_small_parameters():
    with pytest.raises(ValueError):
        acyclic_lex_cycle_orientation(1, 2)
    with pytest.raises(ValueError):
        acyclic_lex_cycle_orientation(2, 1)


def test_k222_orientation_structure():
    D = k222_orientation()
    assert underlying_edges(D) == multipartite(2, 2, 2).edges
    assert [D.out_degree(v) for v in range(6)] == [2] * 6
    # parts recovered from non-adjacency
    G = build_graph(D.n, underlying_edges(D))
    parts = sorted(
        tuple(sorted({u} | {v for v in range(6) if v != u and not G.adj[u] >> v & 1}))
        for u in range(6)
    )
    assert sorted(set(parts)) == [(0, 1), (2, 3), (4, 5)]


def test_corona_orientation_blocks():
    G, H = complete(3), path(2)
    g = Orientation(G, 0b101)
    hub_graph = join(H, complete(1))
    h = Orientation(hub_graph, 0b010)
    D = corona_orientation(G, H, g, h)
    assert underlying_edges(D) == __import__("oridom").products.corona(G, H).edges
    # G edges follow g
    for i in range(G.m):
        assert g.arc(i) in D.arcs
    # each block is h relabeled
    for u in range(G.n):
        start = G.n + u * H.n
        mapping = {H.n: u, 0: start, 1: start + 1}
        for i in range(hub_graph.m):
            a, b = h.arc(i)
            assert (mapping[a], mapping[b]) in D.arcs


def test_corona_orientation_shape_mismatch():
    G, H = complete(3), path(2)
    g = Orientation(G, 0)
    wrong = Orientation(path(3), 0)
    with pytest.raises(ValueError, match="does not match"):
        corona_orientation(G, H, g, wrong)
    with pytest.raises(ValueError, match="does not match"):
        corona_orientation(G, H, Orientation(path(3), 0), Orientation(join(H, complete(1)), 0))


def test_cartesian_orientation_shields_layers():
    G, H = path(3), complete(3)
    D = cartesian_orientation(Orientation(G, 0), Orientation(H, 0), (1,))
    base = cartesian(G, H)
    assert underlying_edges(D) == base.edges
    # no arc enters the layer V(G) x {1} from outside it
    layer = {g * H.n + 1 for g in range(G.n)}
    for u, v in D.arcs:
        if v in layer:
            assert u in layer


def test_cartesian_orientation_rejects_dependent_set():
    with pytest.raises(ValueError, match="not independent"):
        cartesian_orientation(Orientation(path(2), 0), Orientation(complete(3), 0), (0, 1))


@pytest.mark.parametrize("A", [(5,), (0, 7), (-1, 1)])
def test_composite_schemes_reject_vertices_out_of_range(A):
    with pytest.raises(ValueError, match="out of range"):
        cartesian_orientation(Orientation(path(2), 0), Orientation(path(3), 0), A)
    with pytest.raises(ValueError, match="out of range"):
        lex_orientation(path(3), A, Orientation(empty(2), 0))


def test_lex_orientation_shields_copies():
    G, H = cycle(5), empty(2)
    D = lex_orientation(G, (0, 2), Orientation(H, 0))
    base = lexicographic(G, H)
    assert underlying_edges(D) == base.edges
    for a_vertex in (0, 2):
        copy = {a_vertex * H.n + j for j in range(H.n)}
        for u, v in D.arcs:
            if v in copy:
                assert u in copy
    # non-shielded cross edges run from the lower G-index copy upward
    for u, v in D.arcs:
        gu, gv = u // H.n, v // H.n
        if gu != gv and gu not in (0, 2) and gv not in (0, 2):
            assert gu < gv


def test_lex_orientation_rejects_dependent_set():
    with pytest.raises(ValueError, match="not independent"):
        lex_orientation(cycle(5), (0, 1), Orientation(empty(2), 0))


def test_corona_orientation_attains_theorem_value():
    from oridom.domsearch import dom
    from oridom.solvers import gamma

    cases = (
        (complete(3), path(2), 5),  # 1*3 + 2: hub join raises DOM(P_2)
        (path(2), complete(1), 2),  # 1*2: hub join keeps DOM(K_1)
        (complete(1), complete(1), 1),
    )
    for G, H, expected in cases:
        g = dom(G).witness
        h = dom(join(H, complete(1))).witness
        assert gamma(corona_orientation(G, H, g, h)).value == expected


def test_trivial_first_factor():
    from oridom.solvers import gamma

    h_g = Orientation(complete(3), 0b101)
    # one-vertex G leaves no cross edges: the lex scheme is exactly H_g
    lexed = lex_orientation(complete(1), (0,), h_g)
    assert lexed.arcs == h_g.to_digraph().arcs
    assert gamma(lexed).value == gamma(h_g.to_digraph()).value

    # the boxed scheme still redirects fiber edges away from A
    boxed = cartesian_orientation(Orientation(complete(1), 0), h_g, (2,))
    assert underlying_edges(boxed) == complete(3).edges
    assert (2, 0) in boxed.arcs and (2, 1) in boxed.arcs  # away from A
    assert (1, 0) in boxed.arcs  # non-A edge follows h_g


def test_cartesian_orientation_attains_lower_bound():
    from oridom.domsearch import dom
    from oridom.solvers import gamma

    g_opt = dom(path(3)).witness  # DOM(P_3) = 2
    scheme = cartesian_orientation(g_opt, Orientation(complete(3), 0), (0,))
    assert gamma(scheme).value >= 2

    h_opt = dom(empty(2)).witness
    blown = lex_orientation(cycle(5), (0, 2), h_opt)
    assert gamma(blown).value >= 4  # alpha(C_5) * DOM(empty_2)


def test_composite_schemes_refuse_products_over_size_cap():
    with pytest.raises(ValueError, match="graph too large"):  # 300 vertices, 15,050 edges
        cartesian_orientation(Orientation(path(3), 0), Orientation(complete(100), 0), ())
    with pytest.raises(ValueError, match="graph too large"):  # 202 vertices, 10,201 edges
        lex_orientation(path(2), (), Orientation(empty(101), 0))
    with pytest.raises(ValueError, match="graph too large"):  # 20,000 vertices
        corona_orientation(empty(10_000), complete(1), Orientation(empty(10_000), 0), Orientation(complete(2), 0))


def _random_orientation(data, G):
    return Orientation(G, data.draw(st.integers(0, (1 << G.m) - 1)))


def _prefix(data, vertices):
    return vertices[: data.draw(st.integers(0, len(vertices)))]


@given(factor_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_composite_schemes_orient_the_product(pair, data):
    G, H = pair
    g, h = _random_orientation(data, G), _random_orientation(data, H)
    g_arcs, h_arcs = set(g.to_digraph().arcs), set(h.to_digraph().arcs)

    A = _prefix(data, max_independent_set(H))
    D = cartesian_orientation(g, h, A)
    assert underlying_edges(D) == cartesian(G, H).edges
    for u, v in D.arcs:
        (gu, hu), (gv, hv) = divmod(u, H.n), divmod(v, H.n)
        if hu == hv:  # a G-layer edge, A-fibres included
            assert (gu, gv) in g_arcs
        elif hu in A or hv in A:  # a fibre edge touching an A-fibre leaves it
            assert hu in A and hv not in A
        else:
            assert (hu, hv) in h_arcs

    A = _prefix(data, max_independent_set(G))
    D = lex_orientation(G, A, h)
    assert underlying_edges(D) == lexicographic(G, H).edges
    for u, v in D.arcs:
        (gu, hu), (gv, hv) = divmod(u, H.n), divmod(v, H.n)
        if gu == gv:
            assert (hu, hv) in h_arcs
        elif gu in A or gv in A:  # a cross edge touching an A-copy leaves it
            assert gu in A and gv not in A
        else:
            assert gu < gv

    hub = _random_orientation(data, join(H, complete(1)))
    D = corona_orientation(G, H, g, hub)
    assert underlying_edges(D) == corona(G, H).edges
    blocks = set()
    for u in range(G.n):  # block u is hub relabelled: H's vertex x to n(G) + u*n(H) + x, the hub to u
        place = [G.n + u * H.n + x for x in range(H.n)] + [u]
        blocks |= {(place[a], place[b]) for a, b in hub.to_digraph().arcs}
    assert set(D.arcs) == g_arcs | blocks
