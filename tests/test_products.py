import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oridom import products
from oridom.graphs import build_graph, complete, cycle, empty, multipartite, path
from oridom.products import (
    cartesian,
    corona,
    generalized_lexicographic,
    join,
    lexicographic,
)


def test_cartesian_examples():
    G = cartesian(path(3), complete(3))
    assert G.n == 9 and G.m == 15  # 3*3 + 3*2
    # (g, h) is vertex g*n(H) + h: (2, 1) = 7 meets its fibre (2, 0), (2, 2) and its layer (1, 1)
    assert G.adj[7] == 1 << 6 | 1 << 8 | 1 << 4

    H = cycle(4)
    K1H = cartesian(complete(1), H)
    assert K1H.edges == H.edges

    prism = cartesian(cycle(4), complete(2))
    assert prism.n == 8 and prism.m == 12


def test_lexicographic_examples():
    blown = lexicographic(cycle(5), empty(2))
    assert blown.n == 10 and blown.m == 20  # 4*5 + 0

    k9 = lexicographic(complete(3), complete(3))
    assert k9.edges == complete(9).edges

    same = lexicographic(path(4), complete(1))
    assert same.edges == path(4).edges


def test_generalized_lexicographic_examples():
    k122 = generalized_lexicographic(complete(3), [empty(1), empty(2), empty(2)])
    assert k122.edges == multipartite(1, 2, 2).edges
    # copies sit consecutively in G's vertex order: the copy of empty(2) for vertex 1 is {1, 2}
    assert k122.adj[1] == k122.adj[2] == 1 << 0 | 1 << 3 | 1 << 4

    G = cycle(5)
    same = generalized_lexicographic(G, [complete(1)] * 5)
    assert same.edges == G.edges

    k23 = generalized_lexicographic(path(2), [empty(2), empty(3)])
    assert k23.edges == multipartite(2, 3).edges

    with pytest.raises(ValueError, match="one substituted graph per vertex"):
        generalized_lexicographic(complete(3), [empty(1)])


def test_corona_examples():
    four_path = corona(path(2), complete(1))
    assert four_path.n == 4 and four_path.m == 3
    assert sorted(four_path.adj[v].bit_count() for v in range(4)) == [1, 1, 2, 2]
    # the copy for u starts at n(G) + u*n(H): leaf 2 hangs on 0 and leaf 3 on 1
    assert four_path.edges == ((0, 1), (0, 2), (1, 3))

    big = corona(complete(3), path(2))
    assert big.n == 9 and big.m == 12  # 3 + 3*(1+2)

    hub = corona(complete(1), path(3))
    joined = join(path(3), complete(1))
    relabel = {0: 3, 1: 0, 2: 1, 3: 2}  # corona root first; join hub last
    remapped = sorted(
        tuple(sorted((relabel[u], relabel[v]))) for u, v in hub.edges
    )
    assert remapped == list(joined.edges)


def test_products_refuse_results_over_size_cap():
    # each pair is checked by vertex count or edge count before any edge is built
    big = path(100)
    for product, G, H in (
        (cartesian, big, path(101)),  # 10,100 vertices
        (cartesian, big, path(100)),  # 10,000 vertices but 19,800 edges
        (lexicographic, path(50), complete(20)),  # 1,000 vertices, 29,100 edges
        (corona, big, empty(100)),  # 10,100 vertices
        (join, empty(100), empty(101)),  # 10,100 cross edges
    ):
        with pytest.raises(ValueError, match="graph too large"):
            product(G, H)
    assert corona(big, empty(99)).n == 10_000
    assert join(empty(100), empty(100)).m == 10_000


def test_generalized_lexicographic_refuses_results_over_size_cap():
    for G, hs in (
        (empty(3), [empty(4000)] * 3),  # 12,000 vertices
        (path(2), [empty(101), empty(100)]),  # 10,100 cross edges
    ):
        with pytest.raises(ValueError, match="graph too large"):
            generalized_lexicographic(G, hs)
    assert generalized_lexicographic(path(2), [empty(100), empty(100)]).m == 10_000


def test_join_examples():
    c4 = join(empty(2), empty(2))
    assert c4.n == 4 and c4.m == 4
    assert sorted(c4.adj[v].bit_count() for v in range(4)) == [2, 2, 2, 2]

    k3 = join(complete(2), complete(1))
    assert k3.edges == complete(3).edges

    g4 = join(path(4), complete(1))
    assert g4.n == 5 and g4.m == 3 + 4


@st.composite
def factor_pairs(draw):
    def one(tag):
        n = draw(st.integers(1, 4))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = (
            draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
            if pairs
            else []
        )
        return build_graph(n, picks)

    return one("g"), one("h")


@given(factor_pairs())
@settings(max_examples=60, deadline=None)
def test_count_formulas(pair):
    G, H = pair
    cart = cartesian(G, H)
    assert cart.n == G.n * H.n
    assert cart.m == G.n * H.m + H.n * G.m

    lex = lexicographic(G, H)
    assert lex.m == H.n * H.n * G.m + G.n * H.m

    cor = corona(G, H)
    assert cor.n == G.n * (1 + H.n)
    assert cor.m == G.m + G.n * (H.m + H.n)

    joined = join(G, H)
    assert joined.m == G.m + H.m + G.n * H.n


@given(factor_pairs())
@settings(max_examples=40, deadline=None)
def test_cartesian_spans_lexicographic(pair):
    G, H = pair
    cart = cartesian(G, H)
    lex = lexicographic(G, H)
    assert set(cart.edges) <= set(lex.edges)


@given(factor_pairs())
@settings(max_examples=40, deadline=None)
def test_generalized_matches_plain_lexicographic(pair):
    G, H = pair
    lex = lexicographic(G, H)
    gen = generalized_lexicographic(G, [H] * G.n)
    assert gen.edges == lex.edges
    # lexicographic is built by generalized_lexicographic, so also check the definition
    by_definition = {
        (x * H.n + y, u * H.n + v)
        for x in range(G.n) for y in range(H.n) for u in range(G.n) for v in range(H.n)
        if (x, y) < (u, v) and (G.adj[x] >> u & 1 or x == u and H.adj[y] >> v & 1)
    }
    assert set(lex.edges) == by_definition


@given(factor_pairs())
@settings(max_examples=40, deadline=None)
def test_corona_matches_its_definition(pair):
    # corona is built by vertex substitution, so check it against the definition
    G, H = pair
    start = [G.n + u * H.n for u in range(G.n)]
    by_definition = {
        *G.edges,
        *((start[u] + a, start[u] + b) for u in range(G.n) for a, b in H.edges),
        *((u, start[u] + a) for u in range(G.n) for a in range(H.n)),
    }
    product = corona(G, H)
    assert product.n == G.n * (1 + H.n)
    assert set(product.edges) == by_definition


@pytest.mark.parametrize(
    "G, H, message",
    [
        (path(100), empty(100), "10100 vertices, 10099 edges"),
        (empty(10000), complete(1), "20000 vertices, 10000 edges"),
        (complete(1), empty(10000), "10001 vertices, 10000 edges"),
    ],
    ids=["both-factors", "wide-host", "wide-copy"],
)
def test_corona_checks_before_building(G, H, message, monkeypatch):
    def no_build(*args):
        raise AssertionError("built a graph before the size check")

    monkeypatch.setattr(products, "build_graph", no_build)
    monkeypatch.setattr(products, "generalized_lexicographic", no_build)
    with pytest.raises(ValueError) as exc:
        corona(G, H)
    assert str(exc.value) == f"graph too large: {message} (cap 10000 each)"


def test_corona_block_is_hub_join():
    G, H = complete(3), path(2)
    product = corona(G, H)
    for u in range(G.n):
        block = range(G.n + u * H.n, G.n + (u + 1) * H.n)
        assert all(product.adj[u] >> b & 1 for b in block)
        inner = [
            (a, b)
            for a, b in product.edges
            if a in block and b in block
        ]
        assert len(inner) == H.m
