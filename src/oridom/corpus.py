"""Deterministic instance corpora for the randomized property suites.

All randomness flows through ``random.Random`` seeded with a string key,
so every corpus is reproducible across runs and platforms. Trees are
enumerated exhaustively up to isomorphism by adding a leaf to every tree
on one vertex fewer and deduplicating with a rooted canonical encoding.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from .graphs import UndirectedGraph, build_graph

DEFAULT_SEED = 0
PRISM_COUNT = 50  # graphs in prism_corpus
PRISM_MAX_N = 7  # their largest order
PRISM_PRODUCT_EDGES = 18  # the most edges of G box K_2, inside the scan cap


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _draw(rng: random.Random, n: int, max_edges: int) -> UndirectedGraph:
    """A random graph on n vertices with at most max_edges edges."""
    pairs = list(combinations(range(n), 2))
    m = rng.randint(0, min(max_edges, len(pairs)))
    return build_graph(n, rng.sample(pairs, m))


def random_graphs(
    count: int, max_n: int, max_edges: int, seed: int = DEFAULT_SEED, label: str = "graphs"
) -> list[UndirectedGraph]:
    """Random labeled graphs with n <= max_n and |E| <= max_edges."""
    rng = _rng(seed, label)
    return [_draw(rng, rng.randint(1, max_n), max_edges) for _ in range(count)]


def prism_corpus(seed: int = DEFAULT_SEED) -> list[UndirectedGraph]:
    """PRISM_COUNT random graphs whose product with K_2 stays inside the scan cap."""
    rng = _rng(seed, "prism")
    out = []
    for _ in range(PRISM_COUNT):
        n = rng.randint(1, PRISM_MAX_N)
        out.append(_draw(rng, n, max(0, (PRISM_PRODUCT_EDGES - n) // 2)))
    return out


def multipartite_instances(max_edges: int) -> list[tuple[int, ...]]:
    """All ascending part-size tuples (k >= 2) with at most max_edges edges."""
    out: list[tuple[int, ...]] = []

    def extend(parts: list[int], total: int, edges: int):
        if len(parts) >= 2:
            out.append(tuple(parts))
        s = parts[-1]
        while edges + s * total <= max_edges:  # a part of size s adds s * total edges
            parts.append(s)
            extend(parts, total + s, edges + s * total)
            parts.pop()
            s += 1

    # the first two parts already span first * second >= first^2 edges
    for first in range(1, math.isqrt(max_edges) + 1):
        extend([first], first, 0)
    return sorted(out, key=lambda t: (len(t), t))


def _tree_canon(n: int, edges: list[tuple[int, int]]) -> str:
    """Canonical encoding of an unrooted tree: root at its center(s)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(adj[v]) for v in range(n)]
    alive = n
    layer = [v for v in range(n) if degree[v] == 1]
    removed = [False] * n
    while alive > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            alive -= 1
            for u in adj[v]:
                if not removed[u]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = [v for v in range(n) if not removed[v]]

    def encode(v: int, parent: int) -> str:
        inner = sorted(encode(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(inner) + ")"

    if len(centers) == 1:
        return encode(centers[0], -1)
    a, b = centers
    return "".join(sorted((encode(a, b), encode(b, a))))


def all_trees(n: int) -> list[UndirectedGraph]:
    """Every tree on n vertices, one representative per isomorphism class."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return [build_graph(1, [])]
    # every tree on n vertices is a tree on n - 1 vertices plus a leaf
    seen: dict[str, UndirectedGraph] = {}
    for T in all_trees(n - 1):
        for v in range(n - 1):
            edges = [*T.edges, (v, n - 1)]
            key = _tree_canon(n, edges)
            if key not in seen:
                seen[key] = build_graph(n, edges)
    return list(seen.values())
