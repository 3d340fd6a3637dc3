import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_gamma, brute_rho
from oridom.domsearch import Solver, dom
from oridom.graphs import (
    CapExceeded,
    Orientation,
    build_digraph,
    build_graph,
    complete,
    cycle,
    empty,
    path,
)
from oridom.orientations import acyclic_lex_cycle_orientation, k222_orientation
from oridom.solvers import dom_oracle, gamma, is_dominating, is_packing, rho


def directed_cycle(n):
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def test_is_dominating_examples():
    c3 = directed_cycle(3)
    assert is_dominating(c3, (0, 1))
    assert is_dominating(c3, (0, 1, 2))
    assert not is_dominating(c3, (0,))
    assert not is_dominating(k222_orientation(), (0, 1))


def test_gamma_directed_c3():
    assert gamma(directed_cycle(3)).value == 2


def test_gamma_directed_c3_box_c3():
    # Cartesian product of two directed triangles, built by hand
    arcs = []
    for i in range(3):
        for j in range(3):
            arcs.append((3 * i + j, 3 * ((i + 1) % 3) + j))
            arcs.append((3 * i + j, 3 * i + (j + 1) % 3))
    assert gamma(build_digraph(9, arcs)).value == 3


def test_gamma_edgeless():
    D = build_digraph(4, [])
    result = gamma(D)
    assert result.value == 4
    assert result.witness == (0, 1, 2, 3)


def test_gamma_forces_sources():
    D = acyclic_lex_cycle_orientation(2, 2)
    witness = gamma(D).witness
    assert {0, 1} <= set(witness)  # in-degree-0 class is forced


def test_gamma_witness_certifies():
    D = k222_orientation()
    result = gamma(D)
    assert result.value == 3
    assert is_dominating(D, result.witness)


def test_is_packing_examples():
    c3 = directed_cycle(3)
    assert is_packing(c3, (0,))
    assert not is_packing(c3, (0, 1))  # endpoints of one arc
    for k in (2, 3):
        for s in (2, 3):
            D = acyclic_lex_cycle_orientation(k, s)
            # first blowup class plus the first vertex of every odd class
            # v_3, v_5, ..., v_{2k-1}
            pack = tuple(range(s)) + tuple(2 * i * s for i in range(1, k))
            assert len(pack) == s + k - 1
            assert is_packing(D, pack)
            # the chord class receives arcs from the first class, so
            # extending the packing into it must fail
            assert not is_packing(D, pack + (2 * k * s,))


def test_rho_examples():
    assert rho(acyclic_lex_cycle_orientation(2, 2)).value == 3
    assert rho(build_digraph(5, [])).value == 5
    tree = path(5)
    for bits in range(1 << tree.m):
        D = Orientation(tree, bits).to_digraph()
        assert rho(D).value == gamma(D).value


def test_rho_witness_certifies():
    D = acyclic_lex_cycle_orientation(3, 2)
    result = rho(D)
    assert result.value == 4
    assert is_packing(D, result.witness)


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_digraph(n, picks)


@given(small_digraphs())
@settings(max_examples=80, deadline=None)
def test_gamma_matches_brute_force(D):
    assert gamma(D).value == brute_gamma(D)


@given(small_digraphs())
@settings(max_examples=80, deadline=None)
def test_rho_matches_brute_force(D):
    assert rho(D).value == brute_rho(D)


def test_oracle_examples():
    assert dom_oracle(path(3)) == 2
    assert dom_oracle(cycle(4)) == 2
    assert dom_oracle(cycle(5)) == 3


def test_oracle_caps():
    with pytest.raises(CapExceeded):
        dom_oracle(complete(7))  # 21 edges
    with pytest.raises(CapExceeded):
        dom_oracle(empty(13))


def test_dom_examples():
    assert dom(complete(3)).value == 2
    assert dom(path(4)).value == 2
    with pytest.raises(CapExceeded):
        dom(complete(9))


def test_dom_witness_orientation_attains_value():
    for G in (cycle(5), complete(4), path(6)):
        result = dom(G)
        assert isinstance(result.witness, Orientation)
        assert result.witness.base.edges == G.edges
        assert gamma(result.witness.to_digraph()).value == result.value


def test_dom_edgeless():
    result = dom(empty(6))
    assert result.value == 6
    assert result.witness.bits == 0
    assert result.nodes_explored == result.pruned_by["exact_evals"] == 1


def test_dom_isolated_vertices_are_added():
    G = build_graph(5, [(1, 3)])  # vertices 0, 2, 4 isolated
    result = dom(G)
    assert result.value == 1 + 3
    assert gamma(result.witness.to_digraph()).value == result.value


def test_dom_deterministic_and_worker_independent():
    G = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)])
    first = dom(G)
    second = dom(G)
    assert (first.value, first.witness.bits) == (second.value, second.witness.bits)
    sharded = dom(G, workers=2)
    assert (sharded.value, sharded.witness.bits) == (first.value, first.witness.bits)


def test_dom_worker_independent_on_chunked_scan():
    # large enough that the vectorized chunk path runs inside each shard
    G = complete(6)  # 2^15 orientations
    single = dom(G)
    sharded = dom(G, workers=2)
    assert (single.value, single.witness.bits) == (sharded.value, sharded.witness.bits)


def test_dom_matches_unfiltered_full_scan():
    # third route: enumerate every orientation and take the max gamma,
    # with no bulk filtering at all
    from oridom.orientations import enumerate_orientations

    graphs = (
        cycle(7),
        build_graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6), (1, 4)]),
        build_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3)]),
    )
    for G in graphs:
        best_val = 0
        best_bits = -1
        for orientation in enumerate_orientations(G):
            value = gamma(orientation.to_digraph()).value
            if value > best_val:
                best_val = value
                best_bits = orientation.bits
        result = dom(G)
        assert result.value == best_val
        assert result.witness.bits == best_bits


def test_dom_ceiling_stop_in_warmup():
    from oridom.graphs import multipartite

    G = multipartite(1, 9)
    result = dom(G)
    assert result.value == 9 == dom_oracle(G)
    assert result.pruned_by["ceiling_stop"] == 1
    # smallest bitmask attaining 9, verified exhaustively below it
    assert all(
        gamma(Orientation(G, bits).to_digraph()).value < 9
        for bits in range(result.witness.bits)
    )


def test_dom_ceiling_stop_in_vectorized_phase():
    # K_{2,9} is bipartite with independence number 9; the first orientation
    # attaining 9 sits deep inside the scan, past the sequential warmup
    from oridom.graphs import multipartite

    G = multipartite(2, 9)
    result = dom(G)
    assert result.value == 9
    assert result.pruned_by["ceiling_stop"] == 1
    assert result.nodes_explored == result.witness.bits + 1 > 256
    assert result.nodes_explored == result.pruned_by["vector_filtered"] + result.pruned_by["exact_evals"]
    assert gamma(result.witness.to_digraph()).value == 9


def test_solver_memoizes_dom_per_labelled_graph():
    solver = Solver()
    G = path(4)
    result = solver.dom(G)
    plain = dom(G)
    assert (result.value, result.witness.bits) == (plain.value, plain.witness.bits)
    assert solver.dom(G) is result
    assert solver.dom(build_graph(4, [(0, 1), (1, 2), (2, 3)])) is result
    # the same path relabelled is a separate key, solved afresh
    relabelled = solver.dom(build_graph(4, [(0, 2), (1, 3), (2, 3)]))
    assert relabelled is not result and relabelled.value == result.value
    for _ in range(2):  # a refused scan is not stored
        with pytest.raises(CapExceeded):
            solver.dom(complete(9))


def test_dom_smallest_witness_bitmask():
    G = cycle(4)
    result = dom(G)
    best = result.value
    smallest = min(
        bits
        for bits in range(1 << G.m)
        if gamma(Orientation(G, bits).to_digraph()).value == best
    )
    assert result.witness.bits == smallest


@given(
    st.integers(0, (1 << 10) - 1),
)
@settings(max_examples=30, deadline=None)
def test_gamma_cutoff_never_underestimates(bits):
    G = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (1, 3), (2, 4), (3, 5)])
    D = Orientation(G, bits).to_digraph()
    exact = gamma(D).value
    for cutoff in range(exact + 2):
        reported = gamma(D, cutoff=cutoff).value
        assert reported >= exact  # any reported set is a real dominating set
        if reported > cutoff:
            assert reported == exact  # cutoff never fired: search was exhaustive
