"""Targeted randomized invariants; the full corpus runs in the acceptance suite."""

from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_dom, brute_gamma, brute_rho
from oridom.domsearch import dom
from oridom.graphs import Orientation, build_graph, delete_edge, induced_subgraph
from oridom.invariants import independence_number, is_bipartite, matching_number
from oridom.solvers import ORACLE_EDGE_CAP, dom_oracle, gamma, rho


@st.composite
def tiny_graphs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    max_size = min(len(pairs), ORACLE_EDGE_CAP)
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_size)) if pairs else []
    return build_graph(n, picks)


@given(tiny_graphs(max_n=7))
@settings(max_examples=80, deadline=None)
def test_dom_equals_oracle(G):
    assert dom(G).value == dom_oracle(G)


@given(tiny_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_oracle_matches_brute_dom_on_random_graphs(G):
    assert dom_oracle(G) == brute_dom(G)


@given(tiny_graphs())
@settings(max_examples=30, deadline=None)
def test_sandwich_bounds(G):
    value = dom(G).value
    assert independence_number(G) <= value <= G.n - matching_number(G)
    if is_bipartite(G):
        assert value == independence_number(G)


@given(tiny_graphs())
@settings(max_examples=20, deadline=None)
def test_deletion_monotonicity(G):
    base = dom(G).value
    for v in range(G.n):
        if G.n > 1:
            assert dom(induced_subgraph(G, [u for u in range(G.n) if u != v])).value <= base
    for u, v in G.edges:
        assert dom(delete_edge(G, u, v)).value >= base


@given(tiny_graphs(), st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_packing_at_most_gamma(G, pick):
    if G.m == 0:
        return
    D = Orientation(G, pick % (1 << G.m)).to_digraph()
    assert rho(D).value <= gamma(D).value
    assert rho(D).value == brute_rho(D)
    assert gamma(D).value == brute_gamma(D)
