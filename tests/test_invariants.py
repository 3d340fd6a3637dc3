import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    brute_bip,
    brute_independence,
    brute_matching,
    first_maximum_leaf,
    reference_max_independent_set_masks,
)
from oridom import invariants
from oridom.corpus import all_trees
from oridom.graphs import (
    CapExceeded,
    Orientation,
    build_digraph,
    build_graph,
    complete,
    cycle,
    empty,
    induced_subgraph,
    multipartite,
    path,
)
from oridom.invariants import (
    independence_number,
    is_acyclic,
    is_bipartite,
    matching_number,
    max_independent_set,
    max_independent_set_masks,
    max_induced_bipartite_order,
    max_matching,
    sandwich,
)
from oridom.orientations import acyclic_lex_cycle_orientation
from oridom.products import cartesian, corona, lexicographic
from oridom.solvers import rho


def test_independence_number_examples():
    assert independence_number(cycle(5)) == 2
    assert independence_number(multipartite(2, 2, 2)) == 2
    p3k3 = cartesian(path(3), complete(3))
    # frozen from brute-force subset enumeration over 2^9 subsets
    assert brute_independence(p3k3) == 3
    assert independence_number(p3k3) == 3


def test_matching_number_examples():
    assert matching_number(cycle(5)) == 2
    assert matching_number(complete(4)) == 2
    blown_c5 = lexicographic(cycle(5), empty(2))
    # frozen from brute-force matching enumeration (Hamiltonian, 10 vertices)
    assert brute_matching(blown_c5) == 5
    assert matching_number(blown_c5) == 5


def test_bip_examples():
    assert max_induced_bipartite_order(path(6)) == 6
    assert max_induced_bipartite_order(complete(4)) == 2
    assert max_induced_bipartite_order(cycle(5)) == 4
    assert brute_bip(complete(4)) == 2
    assert brute_bip(cycle(5)) == 4


def test_bip_witness_is_bipartition():
    for G in (cycle(5), cycle(6), complete(4), lexicographic(cycle(5), empty(2))):
        assert max_induced_bipartite_order(G) == brute_bip(G)
        assert is_bipartite(G) == (brute_bip(G) == G.n)


def test_bip_cap():
    with pytest.raises(CapExceeded):
        max_induced_bipartite_order(empty(21))


def test_is_bipartite_examples():
    assert is_bipartite(cycle(6)) is True
    assert is_bipartite(cycle(5)) is False
    assert is_bipartite(complete(1)) is True
    for G in (cycle(5), cycle(6), complete(1), path(4)):
        assert is_bipartite(G) == (brute_bip(G) == G.n)


def _is_directed_cycle(D, witness):
    if len(witness) < 2:
        return False
    return all(
        D.out_rows[witness[i]] >> witness[(i + 1) % len(witness)] & 1
        for i in range(len(witness))
    )


def test_is_acyclic_examples():
    directed_c3 = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    flag, cycle_witness = is_acyclic(directed_c3)
    assert not flag
    assert len(cycle_witness) == 3
    assert _is_directed_cycle(directed_c3, cycle_witness)


def test_is_acyclic_cycle_with_pendant_sink():
    # the 2-cycle feeds a sink that topological stripping cannot remove;
    # the witness walk must not dead-end there
    D = build_digraph(3, [(1, 2), (2, 1), (2, 0)])
    flag, cycle_witness = is_acyclic(D)
    assert not flag
    assert sorted(cycle_witness) == [1, 2]
    assert _is_directed_cycle(D, cycle_witness)

    tree = path(5)
    for bits in range(1 << tree.m):
        flag, order = is_acyclic(Orientation(tree, bits).to_digraph())
        assert flag
        position = {v: i for i, v in enumerate(order)}
        assert sorted(order) == list(range(5))
        D = Orientation(tree, bits).to_digraph()
        assert all(position[u] < position[v] for u, v in D.arcs)

    assert is_acyclic(acyclic_lex_cycle_orientation(2, 2))[0]


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_graph(n, picks)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_gallai_identities(G):
    alpha, nu = independence_number(G), matching_number(G)
    bip, bipartite = max_induced_bipartite_order(G), is_bipartite(G)
    # alpha + beta = n: a maximum independent set's complement covers every edge
    independent = set(max_independent_set(G))
    assert len(independent) == alpha
    assert not any(u in independent and v in independent for u, v in G.edges)
    # nu + beta' = n without isolated vertices: a maximum matching plus one edge per
    # unmatched vertex covers every vertex
    matching = max_matching(G)
    assert len(matching) == nu
    if all(G.adj):
        covered = {v for edge in matching for v in edge}
        unmatched = [v for v in range(G.n) if v not in covered]
        cover = set(matching) | {next(e for e in G.edges if v in e) for v in unmatched}
        assert len(cover) == G.n - nu
        assert {v for edge in cover for v in edge} == set(range(G.n))
    if bipartite:
        assert bip == G.n
        assert nu == G.n - alpha  # Konig-Egervary: nu = beta
    assert alpha == brute_independence(G)
    assert nu == brute_matching(G)
    assert bip == brute_bip(G)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_sandwich_matches_brute(G):
    assert sandwich(G) == (brute_independence(G), G.n - brute_matching(G), is_bipartite(G))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_two_colourings_are_proper(G):
    assert is_bipartite(G) == (brute_bip(G) == G.n)
    assert max_induced_bipartite_order(G) == brute_bip(G)


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_digraph(n, picks)


@given(small_digraphs())
@settings(max_examples=80, deadline=None)
def test_is_acyclic_witnesses(D):
    flag, witness = is_acyclic(D)
    if flag:
        position = {v: i for i, v in enumerate(witness)}
        assert sorted(witness) == list(range(D.n))
        assert all(position[u] < position[v] for u, v in D.arcs)
    else:
        assert _is_directed_cycle(D, witness)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_witnesses_are_valid(G):
    independent = max_independent_set(G)
    assert not any(G.adj[u] >> v & 1 for u in independent for v in independent if u != v)
    matching = max_matching(G)
    used = [v for e in matching for v in e]
    assert len(used) == len(set(used))
    assert all(G.adj[u] >> v & 1 for u, v in matching)


def _conflict_rows(D):
    """The packing conflict graph rho searches: arcs, plus pairs with a common in-neighbour."""
    rows = [D.out_rows[v] | D.in_rows[v] for v in range(D.n)]
    for w in range(D.n):
        for v in range(D.n):
            if D.out_rows[w] >> v & 1:
                rows[v] |= D.out_rows[w] & ~(1 << v)
    return rows


def test_mis_witness_matches_reference_kernel():
    rng = random.Random(12)
    for _ in range(600):
        n, p = rng.randint(1, 14), rng.random()
        adj = list(build_graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < p]).adj)
        assert max_independent_set_masks(adj, n) == reference_max_independent_set_masks(adj, n)
    conflicts = 0
    for n in range(1, 8):
        for T in all_trees(n):
            for bits in range(1 << T.m):
                rows = _conflict_rows(Orientation(T, bits).to_digraph())
                assert max_independent_set_masks(rows, n) == reference_max_independent_set_masks(rows, n)
                conflicts += 1
    assert conflicts == 1 + 2 + 4 + 16 + 3 * 16 + 6 * 32 + 11 * 64


def test_mis_matches_brute_force_maximum():
    # sparse graphs often leave remainders of maximum degree <= 1, which are taken whole
    rng = random.Random(20)
    for _ in range(300):
        n, p = rng.randint(1, 12), rng.random() * rng.choice((0.2, 1.0))
        G = build_graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < p])
        mask = max_independent_set_masks(list(G.adj), n)
        assert mask.bit_count() == brute_independence(G)
        assert not any(mask >> u & mask >> v & 1 for u, v in G.edges)


def test_rho_of_disjoint_two_cycles():
    # the conflict graph is a perfect matching: one remainder of maximum degree 1,
    # whose first maximum leaf takes the lower end of each pair
    k = 1500
    D = build_digraph(2 * k, [arc for i in range(k) for arc in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i))])
    result = rho(D)
    assert result.value == k
    assert result.witness == tuple(range(0, 2 * k, 2))


def _mis_test_graph(rng):
    """A random graph on at most 12 vertices: often disconnected, often with pendant vertices."""
    n = rng.randint(1, 12)
    cut, p = rng.randint(1, n), rng.random()  # no edge crosses the cut
    edges = [(u, v) for u in range(n) for v in range(u) if (u < cut) == (v < cut) and rng.random() < p]
    for leaf in rng.sample(range(1, n), rng.randint(0, n - 1) // 2):
        edges = [e for e in edges if leaf not in e] + [(leaf, rng.randrange(leaf))]
    return build_graph(n, edges)


def test_mis_is_the_first_maximum_leaf():
    # per-component search and the leaf-first clique cover keep the unbounded DFS's leaf
    rng = random.Random(21)
    for _ in range(300):
        G = _mis_test_graph(rng)
        adj = list(G.adj)
        assert max_independent_set_masks(adj, G.n) == first_maximum_leaf(adj, G.n)


def test_rho_of_disjoint_directed_triangles_and_paths():
    # conflict graphs of 1,000 triangles and of 1,000 paths a-b-c-d, one component each
    D = build_digraph(3000, [arc for i in range(0, 3000, 3) for arc in ((i, i + 1), (i + 1, i + 2), (i + 2, i))])
    assert rho(D).witness == tuple(range(0, 3000, 3))
    D = build_digraph(4000, [arc for i in range(0, 4000, 4) for arc in ((i, i + 1), (i + 1, i + 2), (i + 2, i + 3))])
    assert rho(D).witness == tuple(v for i in range(0, 4000, 4) for v in (i + 1, i + 3))


def test_mis_of_a_comb():
    # a lowest-first clique cover pairs spine edges, bounding alpha by 300; leaves first gives 200
    G = corona(path(200), complete(1))
    witness = max_independent_set(G)
    assert len(witness) == 200
    assert not any(G.adj[u] >> v & 1 for u in witness for v in witness)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


BLOSSOM_GRAPHS = {
    "C_5": (cycle(5), 2),
    "C_7": (cycle(7), 3),
    "C_7 and three isolated vertices": (build_graph(10, cycle(7).edges), 3),
    "Petersen": (_petersen(), 5),
    "two triangles and a bridge": (build_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]), 3),
    "3-petal flower": (build_graph(7, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5), (5, 6), (0, 6)]), 3),
    "3-petal flower with a stem": (
        build_graph(8, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5), (5, 6), (0, 6), (0, 7)]),
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(BLOSSOM_GRAPHS))
def test_matching_on_blossom_graphs(name):
    G, nu = BLOSSOM_GRAPHS[name]
    assert brute_matching(G) == nu
    rng = random.Random(name)
    # relabelling changes the greedy start, and with it the blossoms the search meets
    for _ in range(25):
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])
        assert matching_number(H) == nu
        _assert_matching(H, max_matching(H))


def _assert_matching(G, matching):
    used = [v for e in matching for v in e]
    assert len(used) == len(set(used))
    assert all(u < v and G.adj[u] >> v & 1 for u, v in matching)


@given(small_graphs(max_n=9))
@settings(max_examples=150, deadline=None)
def test_blossom_matches_brute_matching(G):
    matching = max_matching(G)
    _assert_matching(G, matching)
    assert len(matching) == matching_number(G) == brute_matching(G)


def test_independence_number_peels_long_paths():
    assert independence_number(path(200)) == 100
    near_tree = build_graph(300, [*path(300).edges, (0, 2)])
    assert not is_bipartite(near_tree)
    assert independence_number(near_tree) == 150
    # a triangle with a pendant vertex at each corner: peeling alone empties it
    spiky = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    assert independence_number(spiky) == brute_independence(spiky) == 3


def test_independence_number_of_odd_cycles():
    for n in range(3, 802, 2):
        assert independence_number(cycle(n)) == n // 2


def _cycles_with_pendant_paths(cycle_lengths, pendants):
    """Disjoint cycles, then paths hung one by one on the given vertices.

    pendants holds (vertex, path length) pairs; the path's first vertex is
    joined to the existing vertex, and later vertices get the next ids.
    """
    edges, n = [], 0
    for length in cycle_lengths:
        edges += [(n + i, n + (i + 1) % length) for i in range(length)]
        n += length
    for at, length in pendants:
        edges += [(at, n)] + [(n + i, n + i + 1) for i in range(length - 1)]
        n += length
    return build_graph(n, edges)


def test_independence_number_of_odd_cycles_with_pendant_paths():
    # even pendant paths peel away whole and leave their cycle intact
    G = _cycles_with_pendant_paths((3, 5, 7, 301), [(0, 2), (3, 4), (8, 2), (8, 6), (20, 2)])
    assert independence_number(G) == 1 + 2 + 3 + 150 + 1 + 2 + 1 + 3 + 1
    # an odd pendant path takes its cycle vertex with it, leaving a path
    G = _cycles_with_pendant_paths((5, 7), [(0, 1), (5, 3), (6, 2)])
    assert independence_number(G) == brute_independence(G) == 3 + 3 + 2 + 1
    assert independence_number(G) == max_independent_set_masks(list(G.adj), G.n).bit_count()


@st.composite
def cycles_with_pendant_paths(draw):
    # at most 14 vertices, so the brute-force subset enumeration stays quick
    lengths = draw(st.lists(st.integers(3, 5), min_size=1, max_size=2))
    pendants, n = [], sum(lengths)
    for _ in range(draw(st.integers(0, 2))):
        length = draw(st.integers(1, 2))
        pendants.append((draw(st.integers(0, n - 1)), length))
        n += length
    return _cycles_with_pendant_paths(lengths, pendants)


@given(cycles_with_pendant_paths())
@settings(max_examples=80, deadline=None)
def test_independence_number_of_cycle_unions_matches_brute(G):
    assert independence_number(G) == brute_independence(G)


def test_independence_number_of_odd_cycles_with_a_chord():
    # an odd cycle has a maximum independent set avoiding any one vertex, so
    # the chord {0, n // 2} keeps alpha at n // 2; no vertex peels here, and
    # the degree-2 folds reduce the graph to nothing
    for n in (201, 401, 801):
        G = build_graph(n, [*cycle(n).edges, (0, n // 2)])
        assert not is_bipartite(G)
        assert independence_number(G) == n // 2


@st.composite
def cycles_joined_by_chords(draw):
    # at most 14 vertices, so the brute-force subset enumeration stays quick
    G = draw(cycles_with_pendant_paths())
    pairs = [(u, v) for u in range(G.n) for v in range(u + 1, G.n) if not G.adj[u] >> v & 1]
    if not pairs:  # a lone triangle has room for no chord
        return G
    chords = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=3))
    return build_graph(G.n, [*G.edges, *chords])


@given(cycles_joined_by_chords())
@settings(max_examples=80, deadline=None)
def test_independence_number_with_chords_matches_brute(G):
    assert independence_number(G) == brute_independence(G)


def _spy_on_matching(monkeypatch):
    """Record the order of every graph independence_number's Koenig branch matches."""
    orders = []

    def spy(G):
        orders.append(G.n)
        return matching_number(G)

    monkeypatch.setattr(invariants, "matching_number", spy)
    return orders


def test_independence_number_of_a_bipartite_remainder(monkeypatch):
    # the triangle is taken by the reductions; K_{3,3} stays whole and is
    # solved as n - nu by Koenig's theorem
    G = build_graph(9, [*multipartite(3, 3).edges, (6, 7), (6, 8), (7, 8)])
    orders = _spy_on_matching(monkeypatch)
    assert independence_number(G) == brute_independence(G) == 4
    assert orders == [6]


def _bipartite_core_with_odd_cycles(rng):
    """A bipartite core of minimum degree 3, then disjoint odd cycles; at most 14 vertices."""
    a, b = rng.randint(3, 4), rng.randint(3, 4)
    edges = {(u, a + v) for u in range(a) for v in range(b) if rng.random() < 0.4}
    for side, other in ((range(a), range(a, a + b)), (range(a, a + b), range(a))):
        for u in side:
            while sum(u in e for e in edges) < 3:
                v = rng.choice(other)
                edges.add((min(u, v), max(u, v)))
    n = a + b
    for length in rng.choice([c for c in ((3,), (5,), (7,), (3, 3), (3, 5)) if sum(c) <= 14 - n]):
        edges |= {(n + i, n + (i + 1) % length) for i in range(length)}
        n += length
    return build_graph(n, sorted(edges)), a + b


def test_independence_number_of_bipartite_cores_matches_brute(monkeypatch):
    rng = random.Random(26)
    orders = _spy_on_matching(monkeypatch)
    for _ in range(40):
        G, core = _bipartite_core_with_odd_cycles(rng)
        assert G.n <= 14
        assert independence_number(G) == brute_independence(G)
        assert orders.pop() == core  # the cycles fold away; the core reaches Koenig whole


def test_mis_kernel_has_no_recursion_limit():
    # 1,001 disjoint edges are 1,001 components, each taken whole without branching
    G = build_graph(2002, [(2 * i, 2 * i + 1) for i in range(1001)])
    assert max_independent_set(G) == tuple(range(0, 2002, 2))
    # one connected chain of 300 triangles {3i, 3i+1, 3i+2}, 3i+2 joined to 3i+3:
    # the include branch runs 200 deep, past the lowered limit (the search grows
    # faster than quadratically in the chain length, so a 1,000-deep case is slow)
    k = 300
    triangles = [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))]
    G = build_graph(3 * k, triangles + [(3 * i + 2, 3 * i + 3) for i in range(k - 1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        witness = max_independent_set(G)
    finally:
        sys.setrecursionlimit(limit)
    assert witness == tuple(3 * i + (2, 1, 0)[i % 3] for i in range(k))


def _tutte_berge_bound(G, barrier):
    """(n + |U| - odd components of G - U) / 2, an upper bound on nu for every U."""
    seen, odd = set(barrier), 0
    for start in range(G.n):
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            v = stack.pop()
            size += 1
            for u in range(G.n):
                if G.adj[v] >> u & 1 and u not in seen:
                    seen.add(u)
                    stack.append(u)
        odd += size % 2
    return (G.n + len(barrier) - odd) // 2


def test_sparse_random_64_vertex_graph():
    # 64 vertices, 112 edges: the matching branch and bound took about 10 s on such graphs
    rng = random.Random(1)
    pairs = [(u, v) for u in range(64) for v in range(u + 1, 64)]
    G = build_graph(64, rng.sample(pairs, 112))
    assert not is_bipartite(G)
    matching = max_matching(G)
    _assert_matching(G, matching)
    # Gallai-Edmonds: the neighbours of the vertices some maximum matching misses
    # form a barrier whose Tutte-Berge bound certifies the matching maximum
    missable = {
        v for v in range(G.n)
        if matching_number(induced_subgraph(G, [u for u in range(G.n) if u != v])) == len(matching)
    }
    barrier = {u for v in missable for u in range(G.n) if G.adj[v] >> u & 1} - missable
    assert len(matching) == _tutte_berge_bound(G, barrier)
    adj = list(G.adj)
    witness = max_independent_set_masks(adj, G.n)
    assert witness == reference_max_independent_set_masks(adj, G.n)
    assert independence_number(G) == witness.bit_count() == 34
