import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import brute_dom, brute_gamma, brute_rho
import oridom
from oridom import corpus, domsearch
from oridom.domsearch import Solver, _chunk_rows, _drop_covered, _group_depth, dom
from oridom.graphs import (
    CapExceeded,
    Orientation,
    build_digraph,
    build_graph,
    complete,
    cycle,
    empty,
    multipartite,
    path,
)
from oridom.invariants import independence_number, sandwich
from oridom.orientations import acyclic_lex_cycle_orientation, k222_orientation
from oridom.products import cartesian, corona
from oridom.solvers import _gamma_engine, dom_oracle, gamma, is_dominating, is_packing, rho


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


@pytest.mark.parametrize(
    "G",
    [path(3), cycle(4), cycle(5), complete(5), empty(3)],
    ids=["P_3", "C_4", "C_5", "K_5", "K3_bar"],
)
def test_oracle_matches_brute_dom(G):
    assert dom_oracle(G) == brute_dom(G)


@pytest.mark.parametrize("H", [complete(1), path(2)], ids=["K_1", "P_2"])
@pytest.mark.parametrize("G", [complete(1), path(2), path(3), complete(3)], ids=["K_1", "P_2", "P_3", "K_3"])
def test_oracle_matches_brute_dom_on_coronas(G, H):
    C = corona(G, H)
    assert dom_oracle(C) == brute_dom(C)


def test_oracle_at_its_caps():
    # 12 vertices and 16 edges: both oracle caps at once, 2^16 orientations
    rng = random.Random(7)
    pairs = list(itertools.combinations(range(12), 2))
    graphs = [rng.sample(pairs, 16) for _ in range(3)]
    values = [dom_oracle(build_graph(12, edges)) for edges in graphs]
    assert values == [dom(build_graph(12, edges)).value for edges in graphs] == [7, 6, 7]
    extra = next(pair for pair in pairs if pair not in graphs[0])
    with pytest.raises(CapExceeded):
        dom_oracle(build_graph(12, [*graphs[0], extra]))  # 17 edges
    with pytest.raises(CapExceeded):
        dom_oracle(build_graph(13, graphs[0]))  # 13 vertices


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


def test_dom_refuses_over_64_live_vertices_before_scanning(monkeypatch):
    # 33 disjoint edges fit an edge cap of 33, but their 66 endpoints do not fit a row
    def no_scan(*args):
        raise AssertionError("scanned past the vertex limit")

    monkeypatch.setattr(domsearch, "sandwich", no_scan)
    monkeypatch.setattr(domsearch, "_scan", no_scan)
    matching = build_graph(66, [(2 * i, 2 * i + 1) for i in range(33)])
    with pytest.raises(CapExceeded) as exc:
        dom(matching, max_edges=33)
    assert str(exc.value) == "orientation scan supports at most 64 non-isolated vertices, got 66"


def test_dom_deterministic():
    G = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)])
    first = dom(G)
    second = dom(G)
    assert (first.value, first.witness.bits) == (second.value, second.witness.bits)


def test_import_starts_no_process_pool_machinery():
    # the scan runs in one process, so importing the package loads no pool
    code = (
        "import sys, oridom; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    src = str(Path(oridom.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


def test_dom_matches_unfiltered_full_scan():
    # third route: enumerate every orientation and take the max gamma,
    # with no bulk filtering at all
    graphs = (
        cycle(7),
        build_graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6), (1, 4)]),
        build_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3)]),
    )
    for G in graphs:
        best_val = 0
        best_bits = -1
        for bits in range(1 << G.m):
            value = gamma(Orientation(G, bits).to_digraph()).value
            if value > best_val:
                best_val = value
                best_bits = bits
        result = dom(G)
        assert result.value == best_val
        assert result.witness.bits == best_bits


def test_dom_ceiling_stop_in_warmup():
    # K_{1,9} stops in the 128-mask chunk [128, 256), among the narrow early chunks
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
    # attaining 9 sits deep inside the scan, in a full-width chunk
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


def test_dom_alpha_floor_and_one_rise_break():
    # K_{2,2,3}: alpha = DOM = 3 < n - nu = 4, so the scan runs to the end;
    # the first orientation attaining 3 is mask 396, in the chunk [256, 512),
    # and that rise ends the chunk
    G = multipartite(2, 2, 3)
    result = dom(G)
    assert result.value == 3 == dom_oracle(G)
    assert result.witness.bits == 396 > 256
    assert all(gamma(Orientation(G, bits).to_digraph()).value < 3 for bits in range(396))
    tally = result.pruned_by
    assert result.nodes_explored == 1 << 16 == tally["vector_filtered"] + tally["exact_evals"]
    assert tally["exact_evals"] <= 300  # 4 without the break
    # K_{2,9}: the floor meets the bipartite ceiling
    assert dom(multipartite(2, 9)).pruned_by["exact_evals"] <= 300  # 54,812 without the floor


def test_dom_one_rise_break_keeps_later_chunks():
    # K_{1,2,4} plus a disjoint triangle: the incumbent rises to 5 at mask 7644
    # and to 6 at mask 40412. The rises fall in different chunks, [4096, 8192)
    # and [32768, 65536), so the break that ends the first chunk at its rise
    # leaves the second witness to a fresh chunk filter
    G = build_graph(10, [*multipartite(1, 2, 4).edges, (7, 8), (7, 9), (8, 9)])
    result = dom(G)
    assert result.value == 6
    assert result.witness.bits == 40412
    assert all(gamma(Orientation(G, bits).to_digraph()).value < 6 for bits in range(40412))
    tally = result.pruned_by
    assert result.nodes_explored == 40413 == tally["vector_filtered"] + tally["exact_evals"]
    # the rest of the chunk [4096, 8192) after the rise at 7644 gets no exact gamma
    assert tally["exact_evals"] == 2  # 101 without the break


def test_dom_closed_sandwich_stops_at_first_exact_survivor():
    # K_{1,1,8}: alpha = n - nu = 8; the exact filter lets no mask through
    # before mask 65278, and that first survivor attains the ceiling, so it is
    # the one exact evaluation and the stop
    result = dom(multipartite(1, 1, 8))
    assert (result.value, result.witness.bits, result.nodes_explored) == (8, 65278, 65279)
    assert result.pruned_by["exact_evals"] == 1
    assert result.pruned_by["ceiling_stop"] == 1


@st.composite
def chunked_graphs(draw):
    # 9-11 edges: more than 256 orientations, so the vectorized phase runs
    n = draw(st.integers(5, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = draw(st.integers(9, min(11, len(pairs))))
    return build_graph(n, draw(st.lists(st.sampled_from(pairs), min_size=m, max_size=m, unique=True)))


@given(chunked_graphs())
@settings(max_examples=25, deadline=None)
def test_dom_witness_matches_unfiltered_scan(G):
    best_val = 0
    best_bits = -1
    for bits in range(1 << G.m):
        value = gamma(Orientation(G, bits).to_digraph()).value
        if value > best_val:
            best_val = value
            best_bits = bits
    result = dom(G)
    assert (result.value, result.witness.bits) == (best_val, best_bits)
    assert result.value >= independence_number(G)


def _reference_rows(digraphs, n, dtype=np.uint64):
    # rows[v][j]: closed out-neighbourhood of v in digraphs[j], read off the digraph;
    # compare with np.array_equal, which compares values across dtypes
    return np.array([[D.out_rows[v] | 1 << v for D in digraphs] for v in range(n)], dtype=dtype)


def _chunks(n, edges, stop, start=0, first=1, schedule=((2, False),)):
    # yield (pos, rows, tables) for the chunks of [start, stop) on _scan's rule: a chunk
    # at pos ends at max(growth * pos, first), capped at the next multiple of _CHUNK, and
    # a grouped chunk of _GROUP_MIN or more columns is built at its group depth; each
    # chunk's (growth, grouped) is taken in turn from schedule, cycled
    build, pos, chunk = _chunk_rows(n, edges, stop), start, domsearch._CHUNK
    for growth, grouped in itertools.cycle(schedule):
        if pos >= stop:
            return
        end = min(stop, (pos & -chunk) + chunk, max(growth * pos, first))
        depth = _group_depth(end - pos) if grouped and end - pos >= domsearch._GROUP_MIN else 0
        yield (pos, *build(pos, end, depth))
        pos = end


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = draw(st.integers(1, min(10, len(pairs))))
    return build_graph(n, draw(st.lists(st.sampled_from(pairs), min_size=m, max_size=m, unique=True)))


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_chunk_rows_and_dom_do_not_depend_on_chunk_width(G):
    # at _CHUNK 1 to 8 most chunks lie past _CHUNK, each XOR-ed from the mask-0 buffer
    # with the edges set in its block's start, often several (block 24 flips edges 3, 4)
    stop = 1 << G.m
    reference = _reference_rows([Orientation(G, bits).to_digraph() for bits in range(stop)], G.n)
    default = dom(G)
    for chunk in (1, 2, 4, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(domsearch, "_CHUNK", chunk)
            covered = 0
            for pos, rows, _ in _chunks(G.n, G.edges, stop):
                assert pos == covered and rows.shape[1] == min(chunk, max(1, pos))
                assert np.array_equal(rows, reference[:, pos : pos + rows.shape[1]])
                covered += rows.shape[1]
            assert covered == stop
            result = dom(G)
        assert (result.value, result.witness.bits, result.nodes_explored) == (
            default.value, default.witness.bits, default.nodes_explored
        )
        tally = result.pruned_by
        assert result.nodes_explored == tally["vector_filtered"] + tally["exact_evals"]


@pytest.mark.parametrize("chunk", [8, 16, domsearch._CHUNK])
@pytest.mark.parametrize("first", [1, domsearch._CLOSED_FIRST])
@pytest.mark.parametrize("stop", [100, 1 << 10])
def test_chunk_rows_grow_then_rebase(chunk, first, stop, monkeypatch):
    # chunks from mask 0, the first ending at `first`: below _CHUNK the buffer
    # doubles and a chunk at pos ends at growth * pos; at _CHUNK 8 and 16 the
    # blocks past the first, inside the first wide chunk [0, _CLOSED_FIRST), are
    # XOR-ed from the same buffer; stop 100 ends in a part chunk on either path.
    # Every chunk is re-checked after the last build: no later build writes into it
    G = complete(5)
    reference = _reference_rows([Orientation(G, bits).to_digraph() for bits in range(stop)], G.n)
    monkeypatch.setattr(domsearch, "_CHUNK", chunk)
    for growth in (2, domsearch._LAST_RISE_GROWTH):
        covered, kept = 0, []
        for pos, rows, _ in _chunks(G.n, G.edges, stop, 0, first, [(growth, False)]):
            end = pos + chunk if pos >= chunk else min(chunk, max(growth * pos, first))
            assert pos == covered and rows.shape[1] == min(stop, end) - pos
            assert rows.dtype == np.uint8 and np.array_equal(rows, reference[:, pos : pos + rows.shape[1]])
            covered += rows.shape[1]
            kept.append((pos, rows))
        assert covered == stop
        for pos, rows in kept:
            assert np.array_equal(rows, reference[:, pos : pos + rows.shape[1]])


def test_chunk_rows_last_rise_growth_bounds():
    # at the default _CHUNK, a closed scan at growth 8 asks for these chunks, from
    # mask 1 on; the rows are checked on a few columns of each, at 2^18 masks of K_7
    G, stop, chunk = complete(7), 1 << 18, domsearch._CHUNK
    schedule = [(domsearch._LAST_RISE_GROWTH, False)]
    bounds, rng = [], random.Random(0)
    for pos, rows, _ in _chunks(G.n, G.edges, stop, 1, domsearch._CLOSED_FIRST, schedule):
        bounds.append(pos)
        width = rows.shape[1]
        offsets = [0, width // 2, width - 1, *rng.sample(range(width), min(width, 8))]
        reference = _reference_rows([Orientation(G, pos + j).to_digraph() for j in offsets], G.n)
        assert np.array_equal(rows[:, offsets], reference)
    assert bounds + [stop] == [1, 64, 512, 4096, 32768, chunk, 2 * chunk, 3 * chunk, 4 * chunk]


def test_chunk_rows_switch_growth_mid_scan():
    # growth 2 up to the chunk at 16, 8 after it, as an open scan switches after its
    # rise to ceiling - 1
    G, stop = complete(5), 1 << 10
    reference = _reference_rows([Orientation(G, bits).to_digraph() for bits in range(stop)], G.n)
    schedule, bounds = [(2, False)] * 6 + [(domsearch._LAST_RISE_GROWTH, False)] * 2, []
    for pos, rows, _ in _chunks(G.n, G.edges, stop, schedule=schedule):
        bounds.append(pos)
        assert np.array_equal(rows, reference[:, pos : pos + rows.shape[1]])
    assert bounds == [0, 1, 2, 4, 8, 16, 32, 256]  # powers of two


@given(st.one_of(small_graphs(), chunked_graphs()))
@example(build_graph(7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (1, 6), (2, 5), (3, 6)]))
@settings(max_examples=40, deadline=None)
def test_dom_does_not_depend_on_last_rise_growth(G):
    # growth 8 runs closed scans from their first chunk on and open scans after
    # their rise to ceiling - 1; budget 0 keeps the greedy cover (and growth 2),
    # and _GROUP_MIN 8 groups the chunks 7 * 2^k wide that growth 8 makes. The
    # example rises to ceiling - 1 in [8, 16), so its next chunk [16, 128) has
    # 112 columns, whose 14 groups are not a whole number of groups of 8
    for budget, group_min in [
        (domsearch._SUBSET_BUDGET, domsearch._GROUP_MIN),
        (0, domsearch._GROUP_MIN),
        (domsearch._SUBSET_BUDGET, 8),
    ]:
        results = []
        for growth in (2, 8):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(domsearch, "_SUBSET_BUDGET", budget)
                mp.setattr(domsearch, "_GROUP_MIN", group_min)
                mp.setattr(domsearch, "_LAST_RISE_GROWTH", growth)
                result = dom(G)
            results.append((result.value, result.witness.bits, result.nodes_explored, result.pruned_by))
        assert results[0] == results[1]


@pytest.mark.parametrize("n, dtype", [(5, np.uint8), (9, np.uint16), (20, np.uint32), (40, np.uint64)])
def test_outside_is_read_only_in_the_row_dtype(n, dtype):
    ones = (1 << 8 * np.dtype(dtype).itemsize) - 1
    for k in (1, 2):
        outside = domsearch._outside(n, k, np.dtype(dtype))
        assert outside.dtype == dtype and not outside.flags.writeable
        expected = [ones & ~sum(1 << v for v in T) for T in itertools.combinations(range(n), k)]
        assert outside[:, 0].tolist() == expected


@pytest.mark.parametrize(
    "group_min, budget",
    [(8, domsearch._SUBSET_BUDGET), (1 << 30, domsearch._SUBSET_BUDGET), (8, 0)],
    ids=["grouped", "columns", "greedy"],
)
def test_drop_covered_leaves_the_chunk_unchanged(group_min, budget, monkeypatch):
    # a chunk is a view of a row buffer whose columns later doublings read, so the
    # filter must not write into it; caps 1-3 walk subsets and cap 4 (2 cap > n)
    # complements. Grouped chunks are built at their depth, under either cover test
    G = multipartite(1, 2, 3)
    monkeypatch.setattr(domsearch, "_GROUP_MIN", group_min)
    monkeypatch.setattr(domsearch, "_SUBSET_BUDGET", budget)
    for pos, rows, tables in _chunks(G.n, G.edges, 1 << G.m, schedule=[(2, True)]):
        before = rows.tobytes()
        for cap in range(1, G.n - 1):
            _drop_covered(rows, G.n, cap, G.edges, tables)
            assert rows.tobytes() == before


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_chunk_gamma_rises_at_most_one_above_its_prefix(G):
    # the lemma behind the scan's break: each mask of a chunk is one arc
    # reversal from a mask before the chunk, so gamma rises at most once in it
    gammas = [gamma(Orientation(G, bits).to_digraph()).value for bits in range(1 << G.m)]
    for chunk in (1, 2, 4, 8, domsearch._CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(domsearch, "_CHUNK", chunk)
            for pos, rows, _ in _chunks(G.n, G.edges, 1 << G.m):
                if pos:  # the chunk at 0 is the single mask 0
                    assert max(gammas[pos : pos + rows.shape[1]]) <= max(gammas[:pos]) + 1


@given(chunked_graphs())
@settings(max_examples=15, deadline=None)
def test_drop_covered_is_exact_within_budget_and_sound_beyond(G):
    n, width = G.n, 1 << G.m
    digraphs = [Orientation(G, bits).to_digraph() for bits in range(width)]
    rows = _reference_rows(digraphs, n)
    gammas = np.array([gamma(D).value for D in digraphs])
    for cap in range(1, n - 1):
        alive = _drop_covered(rows, n, cap, G.edges)
        assert alive.tolist() == np.flatnonzero(gammas > cap).tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(domsearch, "_SUBSET_BUDGET", 0)  # force the greedy cover
            alive = _drop_covered(rows, n, cap, G.edges)
        dropped = np.setdiff1d(np.arange(width), alive)
        assert (gammas[dropped] <= cap).all()


@given(chunked_graphs())
@settings(max_examples=15, deadline=None)
def test_drop_covered_and_dom_do_not_depend_on_block_size(G):
    # _BLOCK 1 tests one subset per pass; the large value puts every subset of a
    # chunk in one block (affordable only on these small chunks)
    n = G.n
    digraphs = [Orientation(G, bits).to_digraph() for bits in range(1 << G.m)]
    rows = _reference_rows(digraphs, n, np.uint8)  # chunked_graphs have n <= 8
    default = dom(G)
    survivors = [_drop_covered(rows, n, cap, G.edges).tolist() for cap in range(1, n - 1)]
    for block in (1, domsearch._CHUNK * domsearch._SUBSET_BUDGET):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(domsearch, "_BLOCK", block)
            assert [_drop_covered(rows, n, cap, G.edges).tolist() for cap in range(1, n - 1)] == survivors
            result = dom(G)
        assert (result.value, result.witness.bits, result.nodes_explored, result.pruned_by) == (
            default.value, default.witness.bits, default.nodes_explored, default.pruned_by
        )


def _assert_cover_keeps(alive, gammas, cap, exact):
    # the exact filter keeps precisely the masks with gamma > cap; the greedy cover keeps
    # all of them (in order), and every mask it drops has gamma <= cap
    above = np.flatnonzero(gammas > cap)
    if exact:
        assert alive.tolist() == above.tolist()
    else:
        assert (np.diff(alive) > 0).all() and np.isin(above, alive).all()
        assert (gammas[np.setdiff1d(np.arange(len(gammas)), alive)] <= cap).all()


def _cleared(G, edges, dtype=np.uint8):
    # (n, 1) masks that clear the arcs of `edges` (a prefix of G's) from closed out-rows
    cleared = [(1 << G.n) - 1] * G.n
    for u, v in edges:
        cleared[u] &= ~(1 << v)
        cleared[v] &= ~(1 << u)
    return np.array(cleared, dtype=dtype)[:, None]


def _reference_tables(G, depth, bits):
    # tables[k][w, 0, i]: w's open out-row when edges[bits k : bits (k + 1)] alone are
    # oriented by i, read off the digraph
    tables = []
    for k in range(depth):
        part = build_graph(G.n, G.edges[bits * k : bits * (k + 1)])
        digraphs = [Orientation(part, i).to_digraph() for i in range(1 << bits)]
        tables.append(np.array([[[D.out_rows[w] for D in digraphs]] for w in range(G.n)], dtype=np.uint8))
    return tables


@given(chunked_graphs())
@settings(max_examples=15, deadline=None)
def test_drop_covered_groups_keep_exactly_the_gamma_above_cap(G):
    # the whole space as one chunk at each depth: every (1 << bits d)-th mask with the
    # arcs of the lowest bits * d edges cleared, up to groups of a single column. Budget
    # 0 runs the greedy cover through the same levels: it keeps every mask with
    # gamma > cap and drops only masks with gamma <= cap
    n, width = G.n, 1 << G.m
    digraphs = [Orientation(G, bits).to_digraph() for bits in range(width)]
    rows = _reference_rows(digraphs, n, np.uint8)  # chunked_graphs have n <= 8
    gammas = np.array([gamma(D).value for D in digraphs])
    for budget in (domsearch._SUBSET_BUDGET, 0):
        for bits in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(domsearch, "_SUBSET_BUDGET", budget)
                mp.setattr(domsearch, "_GROUP_BITS", bits)
                for depth in range(G.m // bits + 1):
                    shift = bits * depth
                    grouped = rows[:, :: 1 << shift] & _cleared(G, G.edges[:shift])
                    tables = _reference_tables(G, depth, bits)
                    for cap in range(1, n - 1):
                        alive = _drop_covered(grouped, n, cap, G.edges, tables)
                        _assert_cover_keeps(alive, gammas, cap, exact=budget > 0)


@st.composite
def chunk_schedules(draw):
    # where the chunks start and the first one ends, as in _scan's rule (from 0, from the
    # closed prefix 1 or from the open prefix 8), then each chunk's growth and grouping,
    # taken in turn and repeated
    start, first = draw(st.sampled_from([(0, 1), (1, domsearch._CLOSED_FIRST), (8, 0)]))
    steps = st.tuples(st.sampled_from([2, domsearch._LAST_RISE_GROWTH]), st.booleans())
    return start, first, draw(st.lists(steps, min_size=1, max_size=8))


@given(chunked_graphs(), chunk_schedules())
@settings(max_examples=15, deadline=None)
def test_chunk_rows_build_grouped_chunks_at_their_depth(G, schedule):
    # _GROUP_MIN 8 groups every grouped chunk of 8 or more columns; a chunk at depth d
    # is every (1 << bits d)-th column of the reference with the arcs of edges[:bits d]
    # cleared, and its tables hold the arcs of each level's edges. The drawn schedule
    # switches chunks between growths and depths, below _CHUNK and from it on, so the
    # buffers of several depths grow and seed one another, and later blocks XOR them
    start, first, steps = schedule
    n, stop = G.n, 1 << G.m
    reference = _reference_rows([Orientation(G, b).to_digraph() for b in range(stop)], n, np.uint8)
    for chunk in (8, 16, domsearch._CHUNK):
        for bits in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(domsearch, "_GROUP_MIN", 8)
                mp.setattr(domsearch, "_CHUNK", chunk)
                mp.setattr(domsearch, "_GROUP_BITS", bits)
                covered = start
                built = _chunks(n, G.edges, stop, start, first, steps)
                for (growth, grouped), (pos, rows, tables) in zip(itertools.cycle(steps), built):
                    end = min(stop, pos + chunk) if pos >= chunk else min(stop, chunk, max(growth * pos, first))
                    expected, w = 0, end - pos
                    while grouped and w >= 8 and w % (1 << bits) == 0:
                        expected, w = expected + 1, w >> bits
                    depth = len(tables)
                    assert pos == covered and depth == expected and rows.dtype == np.uint8
                    assert rows.shape[1] << bits * depth == end - pos
                    cleared = _cleared(G, G.edges[: bits * depth])
                    assert np.array_equal(rows, reference[:, pos : end : 1 << bits * depth] & cleared)
                    for table, ref in zip(tables, _reference_tables(G, depth, bits), strict=True):
                        assert table.shape == (n, 1, 1 << bits) and np.array_equal(table, ref)
                    covered = end
                assert covered == stop


@given(chunked_graphs())
@example(build_graph(8, [(0, 5), (0, 6), (0, 7), (1, 3), (1, 5), (3, 7), (4, 5), (4, 6), (5, 6)]))
@settings(max_examples=15, deadline=None)
def test_dom_does_not_depend_on_grouping(G):
    default = dom(G)
    for group_min in (8, domsearch._GROUP_MIN, 1 << 30):
        for bits in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(domsearch, "_GROUP_MIN", group_min)
                mp.setattr(domsearch, "_GROUP_BITS", bits)
                result = dom(G)
            assert (result.value, result.witness.bits, result.nodes_explored, result.pruned_by) == (
                default.value, default.witness.bits, default.nodes_explored, default.pruned_by
            )
    # under the greedy cover a mask survives only if its own row and its groups' columns
    # do, so grouping can only lower exact_evals below the ungrouped scan's. The open
    # prefix is [0, 8) whatever the group size, so the ungrouped scans of both bits agree
    # (on the example a prefix of [0, 2) at bits 1 would cost 2 more exact_evals)
    flats = []
    for bits in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(domsearch, "_SUBSET_BUDGET", 0)
            mp.setattr(domsearch, "_GROUP_BITS", bits)
            mp.setattr(domsearch, "_GROUP_MIN", 1 << 30)
            flat = dom(G)
            mp.setattr(domsearch, "_GROUP_MIN", 8)
            result = dom(G)
        assert (result.value, result.witness.bits, result.nodes_explored) == (
            default.value, default.witness.bits, default.nodes_explored
        )
        assert result.pruned_by["exact_evals"] <= flat.pruned_by["exact_evals"]
        flats.append((flat.value, flat.witness.bits, flat.nodes_explored, flat.pruned_by))
    assert flats[0] == flats[1]


@given(st.one_of(chunked_graphs(), small_graphs()))
@settings(max_examples=30, deadline=None)
def test_dom_does_not_depend_on_closed_scan_first_width(G):
    # bipartite graphs are closed sandwiches (Konig), so many of these start with the
    # chunk [1, _CLOSED_FIRST); at 1 it is [1, growth), and [1, 1024) is 1,023 columns,
    # an odd width, so it is not grouped. Budget 0 puts the greedy cover in place of
    # the exact filter
    for budget in (domsearch._SUBSET_BUDGET, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(domsearch, "_SUBSET_BUDGET", budget)
            default = dom(G)
            for first in (1, 1 << 10):
                mp.setattr(domsearch, "_CLOSED_FIRST", first)
                result = dom(G)
                assert (result.value, result.witness.bits, result.nodes_explored, result.pruned_by) == (
                    default.value, default.witness.bits, default.nodes_explored, default.pruned_by
                )


@given(chunked_graphs())
@settings(max_examples=15, deadline=None)
def test_drop_covered_complement_form_on_group_rows(G):
    # caps with 2 cap > n walk the complements and read in-rows off the edges the
    # rows hold; group rows clear the arcs of the lowest `bits` edges and are the
    # orientations of the other edges, in mask order. Alone they keep exactly the
    # groups with gamma > cap, and with their table every mask with gamma > cap
    n = G.n
    full = [Orientation(G, b).to_digraph() for b in range(1 << G.m)]
    reference = _reference_rows(full, n, np.uint8)
    gammas = np.array([gamma(D).value for D in full])
    for bits in (0, 1, 3):
        rest = build_graph(n, G.edges[bits:])
        rows = reference[:, :: 1 << bits] & _cleared(G, G.edges[:bits])
        digraphs = [Orientation(rest, b).to_digraph() for b in range(1 << rest.m)]
        assert np.array_equal(rows, _reference_rows(digraphs, n, np.uint8))
        rest_gammas = np.array([gamma(D).value for D in digraphs])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(domsearch, "_GROUP_BITS", bits)
            tables = _reference_tables(G, 1, bits) if bits else []
            for cap in range(n // 2 + 1, n - 1):
                alive = _drop_covered(rows, n, cap, rest.edges)
                assert alive.tolist() == np.flatnonzero(rest_gammas > cap).tolist()
                alive = _drop_covered(rows, n, cap, G.edges, tables)
                assert alive.tolist() == np.flatnonzero(gammas > cap).tolist()


@given(st.one_of(chunked_graphs(), small_graphs()), st.sampled_from([2, domsearch._LAST_RISE_GROWTH]))
@settings(max_examples=20, deadline=None)
def test_drop_covered_at_depth_keeps_the_chunk_masks_with_gamma_above_cap(G, growth):
    # every chunk the builder returns, at the depth it is built at, against the gamma of
    # each of its masks; _GROUP_MIN 8 groups chunks of 8 columns and more, and growth
    # 8 makes chunks 7 * 2^k wide. Caps on both sides of n / 2 walk subsets and
    # complements; budget 0 runs the greedy cover at the same depths
    n = G.n
    gammas = np.array([gamma(Orientation(G, b).to_digraph()).value for b in range(1 << G.m)])
    for budget in (domsearch._SUBSET_BUDGET, 0):
        for bits in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(domsearch, "_SUBSET_BUDGET", budget)
                mp.setattr(domsearch, "_GROUP_MIN", 8)
                mp.setattr(domsearch, "_GROUP_BITS", bits)
                for pos, rows, tables in _chunks(n, G.edges, 1 << G.m, schedule=[(growth, True)]):
                    chunk = gammas[pos : pos + (rows.shape[1] << bits * len(tables))]
                    for cap in range(1, n - 1):
                        alive = _drop_covered(rows, n, cap, G.edges, tables)
                        _assert_cover_keeps(alive, chunk, cap, exact=budget > 0)


@pytest.mark.parametrize(
    "G, expected, exact_evals",
    [
        (complete(7), (3, 85298, 2097152), 3),
        (cartesian(complete(3), complete(3)), (4, 1322, 262144), 2),
        (multipartite(1, 18), (18, 131071, 131072), 1),
        (multipartite(2, 2, 4), (4, 489244, 489245), 1),
        (multipartite(1, 2, 6), (6, 515964, 515965), 1),
    ],
    ids=["K_7", "K_3xK_3", "K_1,18", "K_2,2,4", "K_1,2,6"],
)
def test_dom_values_witnesses_and_counters_are_pinned(G, expected, exact_evals):
    # chunks of 1,024 columns and more run the group step
    result = dom(G)
    assert (result.value, result.witness.bits, result.nodes_explored) == expected
    assert result.pruned_by["exact_evals"] == exact_evals
    assert result.pruned_by["vector_filtered"] == result.nodes_explored - exact_evals


@pytest.mark.parametrize(
    "G, expected, tallies",
    [
        (complete(8), (3, 600626, 268435456), (268435453, 3, 0)),
        (multipartite(1, 1, 1, 1, 2, 2), (3, 338609, 67108864), (67108862, 2, 0)),
        (multipartite(3, 3, 3), (3, 0, 134217728), (134217727, 1, 0)),
        (cartesian(multipartite(1, 3), multipartite(1, 3)), (10, 7190208, 7190209), (7190208, 1, 1)),
    ],
    ids=["K_8", "K_1,1,1,1,2,2", "K_3,3,3", "K_1,3xK_1,3"],
)
def test_dom_past_the_edge_cap_is_pinned(G, expected, tallies):
    # full scans of 2^26-2^28 masks, almost all certified at their coarsest group level;
    # K_1,3xK_1,3 (C(16, 9) = 11,440 cap-subsets, so the greedy cover) stops at the
    # ceiling, with every mask before its witness certified in groups
    result = dom(G, max_edges=28)
    assert (result.value, result.witness.bits, result.nodes_explored) == expected
    tally = result.pruned_by
    assert (tally["vector_filtered"], tally["exact_evals"], tally["ceiling_stop"]) == tallies


def test_grouped_scan_builds_no_full_width_rows():
    # K_1,18's chunks from 512 on are grouped, so no buffer reaches the 65,536 columns
    # of 19 uint32 rows (5 MB) that a full-width row buffer takes; K_1,3xK_1,3's wide
    # chunks are grouped under the greedy cover, which certifies them at their
    # coarsest level (16 uint16 rows of 65,536 columns take 2 MB)
    for G, max_edges in [
        (multipartite(1, 18), domsearch.DEFAULT_EDGE_CAP),
        (cartesian(multipartite(1, 3), multipartite(1, 3)), 28),
    ]:
        dom(G, max_edges)  # the subset tables are cached
        tracemalloc.start()
        try:
            dom(G, max_edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


@pytest.mark.parametrize(
    "G, filter_calls",
    [
        (complete(7), 44),
        (cartesian(complete(3), complete(3)), 13),
        (multipartite(1, 18), 6),
        (multipartite(2, 2, 4), 12),
    ],
    ids=["K_7", "K_3xK_3", "K_1,18", "K_2,2,4"],
)
def test_dom_filter_calls_are_pinned(G, filter_calls, monkeypatch):
    # the chunk schedule, counted as _drop_covered calls (one per chunk): K_1,18 and
    # K_2,2,4 are closed scans at growth 8 from the start, K_3xK_3 switches after its
    # rise to 4 at mask 1,322, and K_7 reaches ceiling - 1 = 3 only after _CHUNK
    real, calls = domsearch._drop_covered, []

    def counted(rows, n, cap, edges, tables):
        calls.append(rows.shape[1] << domsearch._GROUP_BITS * len(tables))
        return real(rows, n, cap, edges, tables)

    monkeypatch.setattr(domsearch, "_drop_covered", counted)
    dom(G)
    assert len(calls) == filter_calls


@pytest.mark.parametrize(
    "G, calls_default, calls_greedy",
    [
        (complete(7), 8, 10),
        (cartesian(complete(3), complete(3)), 9, 24),
        (multipartite(2, 2, 2), 9, 9),
        (multipartite(1, 18), 2, 2),
        (multipartite(2, 2, 4), 2, 375),
        (cartesian(cycle(5), complete(2)), 9, 10),
    ],
    ids=["K_7", "K_3xK_3", "K_2,2,2", "K_1,18", "K_2,2,4", "C_5xK_2"],
)
def test_dom_gamma_engine_calls_are_pinned(G, calls_default, calls_greedy, monkeypatch):
    # every exact gamma the scan asks for, at the default subset budget and under the
    # greedy cover alone (budget 0); unlike exact_evals this counts the prefix masks
    # that do not beat the incumbent
    real, calls = domsearch._gamma_engine, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(domsearch, "_gamma_engine", counted)
    dom(G)
    assert len(calls) == calls_default
    calls.clear()
    monkeypatch.setattr(domsearch, "_SUBSET_BUDGET", 0)
    dom(G)
    assert len(calls) == calls_greedy


_POWERS = [1 << k for k in range(3, 16)]  # 8, 16, ..., 32768


@pytest.mark.parametrize(
    "G, budget, starts",
    [
        (multipartite(1, 18), domsearch._SUBSET_BUDGET, [1, 64, 512, 4096, 32768]),
        (multipartite(2, 2, 4), domsearch._SUBSET_BUDGET, [1, 64, 512, 4096, 32768]),
        (cartesian(complete(3), complete(3)), domsearch._SUBSET_BUDGET, [*_POWERS[:9], 16384]),
        (complete(7), domsearch._SUBSET_BUDGET, _POWERS),
        (multipartite(1, 18), 0, [1, *_POWERS[3:]]),
        (cartesian(complete(3), complete(3)), 0, _POWERS),
    ],
    ids=["K_1,18", "K_2,2,4", "K_3xK_3", "K_7", "K_1,18-greedy", "K_3xK_3-greedy"],
)
def test_scan_sets_the_chunk_schedule(G, budget, starts, monkeypatch):
    # the chunks _scan asks the builder for, each with the incumbent its filter ran at.
    # K_1,18 and K_2,2,4 are closed scans at growth 8 from mask 1 on, K_3xK_3 switches
    # to growth 8 at 2,048 after its rise to 4 at mask 1,322, and K_7 reaches
    # ceiling - 1 = 3 only after _CHUNK. Under the greedy cover (budget 0) no chunk
    # grows 8-fold, and chunks of _GROUP_MIN columns or more are grouped as under the
    # exact filter
    real_rows, real_drop, chunks = domsearch._chunk_rows, domsearch._drop_covered, []

    def recording(n, edges, stop):
        build = real_rows(n, edges, stop)

        def recorded(pos, end, depth):
            chunks.append([pos, end, depth])
            return build(pos, end, depth)

        return recorded

    def drop(rows, n, cap, edges, tables):
        chunks[-1].append(cap)
        return real_drop(rows, n, cap, edges, tables)

    monkeypatch.setattr(domsearch, "_chunk_rows", recording)
    monkeypatch.setattr(domsearch, "_drop_covered", drop)
    monkeypatch.setattr(domsearch, "_SUBSET_BUDGET", budget)
    result = dom(G)
    floor, ceiling, _ = sandwich(G)
    chunk, stop = domsearch._CHUNK, 1 << G.m
    # the first chunk starts at the exact prefix, each later one where the one before ended
    assert chunks[0][0] == (1 if floor == ceiling else 8)
    assert [pos for pos, *_ in chunks[1:]] == [end for _, end, *_ in chunks[:-1]]
    assert [pos for pos, *_ in chunks if pos < chunk] == starts
    last = chunks[-1][1]
    assert last == stop or chunks[-1][0] <= result.witness.bits < last
    for pos, end, depth, cap in chunks:
        exact_filter = math.comb(G.n, cap) <= domsearch._SUBSET_BUDGET
        if pos == 1:  # a closed scan's wide first chunk
            assert end == domsearch._CLOSED_FIRST
        elif pos < chunk:  # growth 8 exactly when any rise must stop the scan
            growth = domsearch._LAST_RISE_GROWTH if cap == ceiling - 1 and exact_filter else 2
            assert end == min(stop, chunk, growth * pos)
        else:
            assert end == min(stop, pos + chunk)
        assert depth == (_group_depth(end - pos) if end - pos >= domsearch._GROUP_MIN else 0)


def _vector_only_scan(G, floor, ceiling):
    # _scan with no exact prefix: every mask goes through the numpy chunks, and
    # each filter survivor gets an exact gamma counted in exact_evals; the filter
    # needs an incumbent of at least 1, so below that every column survives
    n, best_val, best_mask, explored, exact_evals = G.n, floor - 1, -1, 0, 0
    first = domsearch._CLOSED_FIRST if floor == ceiling else 1
    for pos, rows, _ in _chunks(n, G.edges, 1 << G.m, 0, first):
        alive = range(rows.shape[1]) if best_val < 1 else _drop_covered(rows, n, best_val, G.edges)
        for offset in map(int, alive):
            out = rows[:, offset].tolist()
            into = [a & ~row | 1 << v for v, (a, row) in enumerate(zip(G.adj, out))]
            value = _gamma_engine(out, into, n, best_val)[0]
            exact_evals += 1
            if value > best_val:
                best_val, best_mask = value, pos + offset
                break
        if best_val >= ceiling:
            explored += best_mask - pos + 1
            break
        explored += rows.shape[1]
    ceiling_stop = int(best_val >= ceiling)
    tallies = {"vector_filtered": explored - exact_evals, "exact_evals": exact_evals, "ceiling_stop": ceiling_stop}
    return best_val, best_mask, explored, tallies


def test_exact_prefix_matches_the_vector_only_scan(monkeypatch):
    # every labelled graph with 1-3 edges on up to 6 vertices (all their masks lie
    # in the prefix), and random graphs whose scans run on into the numpy chunks
    small = [
        build_graph(n, list(edges))
        for n in range(2, 7)
        for m in (1, 2, 3)
        for edges in itertools.combinations(itertools.combinations(range(n), 2), m)
    ]
    graphs = [*corpus.random_graphs(300, max_n=8, max_edges=14), *small]
    with_prefix = [dom(G) for G in graphs]
    monkeypatch.setattr(domsearch, "_scan", _vector_only_scan)
    for G, result in zip(graphs, with_prefix):
        reference = dom(G)
        assert (result.value, result.witness.bits, result.nodes_explored, result.pruned_by) == (
            reference.value, reference.witness.bits, reference.nodes_explored, reference.pruned_by
        )
        assert result.value == dom_oracle(G)


@pytest.mark.parametrize(
    "G, expected, tallies",
    [(path(3), (2, 0, 1), (0, 1, 1)), (complete(3), (2, 2, 3), (1, 2, 1))],
    ids=["P_3", "K_3"],
)
def test_scan_that_ends_in_the_exact_prefix_builds_no_rows(G, expected, tallies, monkeypatch):
    # P_3 is a closed sandwich that stops at mask 0; K_3 has 3 edges, so its whole
    # space is the open prefix [0, 8)
    def no_rows(*args):
        raise AssertionError("the scan built numpy rows")

    monkeypatch.setattr(domsearch, "_chunk_rows", no_rows)
    result = dom(G)
    assert (result.value, result.witness.bits, result.nodes_explored) == expected
    tally = result.pruned_by
    assert (tally["vector_filtered"], tally["exact_evals"], tally["ceiling_stop"]) == tallies


@pytest.mark.parametrize(
    "G, expected, tallies, moved",
    [
        (
            cartesian(build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), complete(2)),
            (7, 20, 21), (18, 3, 1), 0,
        ),
        (
            build_graph(12, [(0, 5), (1, 4), (1, 6), (2, 5), (3, 11), (4, 9), (5, 8), (5, 11), (7, 8), (7, 10), (8, 9)]),
            (7, 258, 259), (176, 83, 1), 1,
        ),
    ],
    ids=["C_5+2K_1 prism", "12-vertex tree"],
)
def test_exact_prefix_tallies_under_the_greedy_cover(G, expected, tallies, moved, monkeypatch):
    # C(n, incumbent) exceeds the subset budget, so the greedy cover filters the chunks.
    # The prism (14 vertices, floor 6 < ceiling 7) rises at mask 0; its other 7 prefix
    # masks do not beat the incumbent and count as filtered, as the cover drops them.
    # The tree (floor = ceiling = 7) does not rise at mask 0, which the cover keeps for
    # an exact gamma: a scan with no prefix counts it as an exact evaluation, the
    # prefix as filtered, and the closed scan's first chunk starts after it, at mask 1
    floor, _, _ = sandwich(G)
    assert math.comb(G.n, floor - 1) > domsearch._SUBSET_BUDGET
    result = dom(G)
    assert (result.value, result.witness.bits, result.nodes_explored) == expected
    tally = result.pruned_by
    assert (tally["vector_filtered"], tally["exact_evals"], tally["ceiling_stop"]) == tallies
    monkeypatch.setattr(domsearch, "_scan", _vector_only_scan)
    reference = dom(G)
    assert (reference.value, reference.witness.bits, reference.nodes_explored) == expected
    assert reference.pruned_by["exact_evals"] == tallies[1] + moved


@pytest.mark.parametrize(
    "n, dtype",
    [(8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32), (32, np.uint32), (33, np.uint64)],
)
def test_row_dtype_boundaries(n, dtype):
    # a star centred on the top vertex with at most 22 leaves, so the top bit of
    # the row width is in use; gamma = n - max(1, out-leaves) reaches n - 1, so at
    # every width the exact filter at cap n - 2 keeps some columns and drops others
    G = build_graph(n, [(v, n - 1) for v in range(min(n - 1, 22))])
    stop = 48
    reference = _reference_rows([Orientation(G, bits).to_digraph() for bits in range(stop)], n)
    for pos, rows, _ in _chunks(n, G.edges, stop):
        assert rows.dtype == dtype
        assert np.array_equal(rows, reference[:, pos : pos + rows.shape[1]])

    # a few dozen random orientations, each with its own arc density
    rng = random.Random(n)
    masks = [0, (1 << G.m) - 1]
    for _ in range(40):
        p = rng.random()
        masks.append(sum(1 << e for e in range(G.m) if rng.random() < p))
    digraphs = [Orientation(G, bits).to_digraph() for bits in masks]
    rows = _reference_rows(digraphs, n, dtype)
    gammas = np.array([gamma(D).value for D in digraphs])
    for cap in range(1, n - 1):
        alive = _drop_covered(rows, n, cap, G.edges)
        if math.comb(n, cap) <= domsearch._SUBSET_BUDGET:  # exact filter
            assert alive.tolist() == np.flatnonzero(gammas > cap).tolist()
        else:  # greedy cover: drops only gamma <= cap
            assert (gammas[np.setdiff1d(np.arange(len(masks)), alive)] <= cap).all()


@given(
    st.integers(0, (1 << 10) - 1),
)
@settings(max_examples=30, deadline=None)
def test_gamma_cutoff_never_underestimates(bits):
    G = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (1, 3), (2, 4), (3, 5)])
    D = Orientation(G, bits).to_digraph()
    exact = gamma(D).value
    out = [D.out_rows[v] | 1 << v for v in range(G.n)]
    into = [D.in_rows[v] | 1 << v for v in range(G.n)]
    for cutoff in range(exact + 2):
        reported = _gamma_engine(out, into, G.n, cutoff)[0]
        assert reported >= exact  # any reported set is a real dominating set
        if reported > cutoff:
            assert reported == exact  # cutoff never fired: search was exhaustive


@pytest.mark.parametrize(
    "G", [cycle(5), complete(5), multipartite(1, 2, 3), path(4)], ids=["C_5", "K_5", "K_{1,2,3}", "P_4"]
)
def test_scan_in_rows_are_neighbours_minus_out_rows(G):
    # _scan reads each survivor's closed in-rows as adj & ~out | own bit: each edge is one arc
    for pos, rows, _ in _chunks(G.n, G.edges, 1 << G.m):
        for j, out in enumerate(rows.T.tolist()):
            D = Orientation(G, pos + j).to_digraph()
            into = [a & ~row | 1 << v for v, (a, row) in enumerate(zip(G.adj, out))]
            assert into == [D.in_rows[v] | 1 << v for v in range(G.n)]


@pytest.mark.parametrize(
    "D, value, witness, nodes, bound_prunes",
    [
        (build_digraph(20, [(i, i + 1) for i in range(19)]), 10, tuple(range(0, 20, 2)), 109, 44),
        (directed_cycle(7), 4, (0, 1, 3, 5), 15, 4),
        (acyclic_lex_cycle_orientation(3, 2), 6, (0, 1, 2, 4, 6, 8), 37, 23),
        (acyclic_lex_cycle_orientation(3, 3), 7, (0, 1, 2, 3, 6, 9, 12), 73, 52),
    ],
    ids=["path_20", "C_7", "lex_3_2", "lex_3_3"],
)
def test_gamma_search_is_pinned(D, value, witness, nodes, bound_prunes):
    # the branching target is the lowest uncovered vertex with fewest potential
    # dominators; taking the last such vertex instead explores 19, 9, 34 and 61 nodes
    result = gamma(D)
    assert (result.value, result.witness, result.nodes_explored) == (value, witness, nodes)
    assert result.pruned_by == {"bound": bound_prunes, "cutoff": 0}


def test_gamma_has_no_recursion_limit():
    # 300 disjoint 2-cycles: the search runs 300 deep, past the lowered limit
    D = build_digraph(600, [arc for i in range(300) for arc in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i))])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        result = gamma(D)
    finally:
        sys.setrecursionlimit(limit)
    assert result.value == 300
    assert result.witness == tuple(range(0, 600, 2))
    assert result.nodes_explored == 601
