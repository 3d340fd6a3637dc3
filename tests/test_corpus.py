import hashlib
from itertools import combinations_with_replacement

import pytest

from oridom.corpus import (
    _tree_canon,
    all_trees,
    multipartite_instances,
    prism_corpus,
    random_graphs,
)
from oridom.invariants import is_bipartite


def test_tree_counts_up_to_isomorphism():
    # classic unlabeled tree counts
    assert [len(all_trees(n)) for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        all_trees(0)


def test_trees_are_trees():
    for n in range(1, 9):
        trees = all_trees(n)
        assert len({_tree_canon(n, list(T.edges)) for T in trees}) == len(trees)
        for T in trees:
            assert T.n == n and T.m == n - 1
            assert is_bipartite(T)
            # connected: BFS from 0 reaches everything
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for u in range(n):
                    if T.adj[v] >> u & 1 and u not in seen:
                        seen.add(u)
                        frontier.append(u)
            assert len(seen) == n


def test_multipartite_instances_cap():
    instances = multipartite_instances(18)
    for sizes in instances:
        total = sum(sizes)
        edges = (total * total - sum(s * s for s in sizes)) // 2
        assert edges <= 18
        assert list(sizes) == sorted(sizes)
        assert len(sizes) >= 2
    assert (1, 1) in instances
    assert (1, 18) in instances
    assert (2, 2, 2) in instances
    assert (1, 1, 1, 1, 1, 1) in instances
    assert (2, 2, 4) not in instances  # 20 edges
    assert (2, 2, 4) in multipartite_instances(20)


def test_multipartite_instances_match_enumeration():
    # k parts span at least C(k, 2) edges, and the largest part s_k spans at
    # least s_k (k - 1) edges with the others, so these loops reach every tuple
    for max_edges in range(31):
        expected = []
        k = 2
        while k * (k - 1) // 2 <= max_edges:
            for sizes in combinations_with_replacement(range(1, max_edges // (k - 1) + 1), k):
                if (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2 <= max_edges:
                    expected.append(sizes)
            k += 1
        assert multipartite_instances(max_edges) == expected


def test_corpora_are_deterministic():
    a = random_graphs(20, max_n=8, max_edges=14, seed=7)
    b = random_graphs(20, max_n=8, max_edges=14, seed=7)
    assert [(g.n, g.edges) for g in a] == [(g.n, g.edges) for g in b]
    c = random_graphs(20, max_n=8, max_edges=14, seed=8)
    assert [(g.n, g.edges) for g in a] != [(g.n, g.edges) for g in c]


def _digest(graphs):
    return hashlib.sha256(repr([(G.n, G.edges) for G in graphs]).encode()).hexdigest()


def test_corpora_are_pinned():
    # any change in the order of the random draws changes these corpora
    assert _digest(prism_corpus(0)) == "4a30e32ab91f37fe594b9ace485dfb7a9d3ea1633c270a65ae2d8c808d7c5ca6"
    assert _digest(random_graphs(200, max_n=8, max_edges=14, label="oracle")) == (
        "fd3d3beb80ce56781645e81235f77f075bb7c1c584db97f1fa1f42eb2337929e"
    )


def test_prism_corpus_fits_scan_cap():
    for G in prism_corpus(seed=0):
        assert G.n <= 7
        assert G.n + 2 * G.m <= 18
