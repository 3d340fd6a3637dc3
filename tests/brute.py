"""Independent brute-force oracles used to cross-check the solvers.

Everything here works by direct enumeration against the raw edge/arc
lists; nothing is shared with the package's branch-and-bound machinery.
"""

from itertools import combinations


def underlying_edges(D):
    """Edges under D's arcs in canonical order; opposite arcs collapse to one edge."""
    return tuple(sorted({(u, v) if u < v else (v, u) for u, v in D.arcs}))


def brute_independence(G):
    """Largest subset with no edge inside, by enumerating all subsets."""
    best = 0
    edges = G.edges
    for size in range(G.n, 0, -1):
        for subset in combinations(range(G.n), size):
            chosen = set(subset)
            if not any(u in chosen and v in chosen for u, v in edges):
                return size
    return best


def brute_matching(G):
    """Maximum matching by unbounded recursion on the lowest unmatched vertex."""

    def recurse(matched: frozenset) -> int:
        v = next((x for x in range(G.n) if x not in matched), None)
        if v is None:
            return 0
        best = recurse(matched | {v})  # leave v unmatched
        for u, w in G.edges:
            other = w if u == v else (u if w == v else None)
            if other is not None and other not in matched:
                best = max(best, 1 + recurse(matched | {v, other}))
        return best

    return recurse(frozenset())


def brute_gamma(D):
    """Smallest dominating set by increasing-size subset enumeration."""
    full = set(range(D.n))
    for size in range(1, D.n + 1):
        for subset in combinations(range(D.n), size):
            covered = set(subset)
            for v in subset:
                covered.update(u for (w, u) in D.arcs if w == v)
            if covered == full:
                return size
    return D.n


def brute_rho(D):
    """Largest packing by decreasing-size subset enumeration."""
    arcs = set(D.arcs)
    for size in range(D.n, 0, -1):
        for subset in combinations(range(D.n), size):
            chosen = set(subset)
            if any((u, v) in arcs for u in chosen for v in chosen if u != v):
                continue
            if any(
                sum(1 for x in chosen if (w, x) in arcs) > 1 for w in range(D.n)
            ):
                continue
            return size
    return 0


def brute_bip(G):
    """Largest induced bipartite subgraph via exhaustive 2-colorings."""
    for size in range(G.n, 0, -1):
        for subset in combinations(range(G.n), size):
            inside = [(u, v) for u, v in G.edges if u in subset and v in subset]
            for coloring in range(1 << size):
                side = {v: coloring >> i & 1 for i, v in enumerate(subset)}
                if all(side[u] != side[v] for u, v in inside):
                    break
            else:
                continue
            return size
    return 0


def brute_dom(G):
    """Orientable domination number by a plain double loop, no pruning.

    Every orientation bitmask (bit e set orients edge e from its larger
    endpoint to its smaller); for each, every vertex subset in increasing
    size until one dominates. The largest such size over all orientations
    is the value.
    """
    n, edges = G.n, G.edges
    m = len(edges)
    full = (1 << n) - 1
    subsets_by_size = [
        list(combinations(range(n), k)) for k in range(n + 1)
    ]
    best = 0
    for bits in range(1 << m):
        rows = [1 << v for v in range(n)]
        for e in range(m):
            u, v = edges[e]
            if bits >> e & 1:
                rows[v] |= 1 << u
            else:
                rows[u] |= 1 << v
        value = n
        done = False
        for size in range(1, n + 1):
            for subset in subsets_by_size[size]:
                cover = 0
                for v in subset:
                    cover |= rows[v]
                if cover == full:
                    value = size
                    done = True
                    break
            if done:
                break
        if value > best:
            best = value
    return best


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_max_independent_set_masks(adj, n):
    """The maximum-independent-set kernel as first written, kept as the witness reference.

    Branches on the highest-degree vertex of the remaining graph (ties to
    the lowest index), include before exclude, pruned by a greedy clique
    cover; the witness is the first maximum leaf of that DFS.
    """
    full = (1 << n) - 1
    best_size = 0
    best_mask = 0

    def clique_cover_bound(remaining):
        count = 0
        left = remaining
        while left:
            v = (left & -left).bit_length() - 1
            clique = 1 << v
            left ^= 1 << v
            for u in _bits(left):
                if adj[u] & clique == clique:
                    clique |= 1 << u
                    left ^= 1 << u
            count += 1
        return count

    def recurse(remaining, chosen, size):
        nonlocal best_size, best_mask
        if remaining == 0:
            if size > best_size:
                best_size = size
                best_mask = chosen
            return
        if size + clique_cover_bound(remaining) <= best_size:
            return
        pick = -1
        pick_deg = -1
        for v in _bits(remaining):
            deg = (adj[v] & remaining).bit_count()
            if deg > pick_deg:
                pick = v
                pick_deg = deg
        bit = 1 << pick
        recurse(remaining & ~(adj[pick] | bit), chosen | bit, size + 1)
        recurse(remaining & ~bit, chosen, size)

    recurse(full, 0, 0)
    return best_mask


def first_maximum_leaf(adj, n):
    """First maximum leaf of the unbounded independent-set DFS.

    Branches on the highest-degree vertex of the remaining graph (ties to
    the lowest index), include before exclude, with no bound of any kind;
    a leaf replaces the best only if it is strictly larger.
    """
    best = [0, 0]  # size, mask

    def recurse(remaining, chosen, size):
        if remaining == 0:
            if size > best[0]:
                best[:] = [size, chosen]
            return
        pick = max(_bits(remaining), key=lambda v: ((adj[v] & remaining).bit_count(), -v))
        bit = 1 << pick
        recurse(remaining & ~(adj[pick] | bit), chosen | bit, size + 1)
        recurse(remaining & ~bit, chosen, size)

    recurse((1 << n) - 1, 0, 0)
    return best[1]
