"""Classical invariants consumed by the domination bounds.

Matchings come from Edmonds' blossom algorithm, O(n^3). The independence
number first applies the reductions that keep alpha exact: a vertex whose
neighbours form a clique (degree <= 1, or degree 2 in a triangle) lies in
some maximum independent set, so it is taken and its closed neighbourhood
removed; a degree-2 vertex v with non-adjacent neighbours a, b is folded
with them into one vertex adjacent to N(a) | N(b) - v, which lowers alpha
by exactly 1. A remainder of minimum degree 3 takes n - nu if bipartite
(Konig), and an exact branch and bound per connected component otherwise.
sandwich(G) gives both ends of alpha <= DOM <= n - nu from one matching.
One two-colouring check serves is_bipartite and max_induced_bipartite_order.
All searches are deterministic: ties break on canonical vertex / edge
order, so witnesses are reproducible across runs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations

from .graphs import CapExceeded, Digraph, UndirectedGraph, _iter_bits, build_graph

BIP_VERTEX_CAP = 20


def max_independent_set_masks(adj: list[int], n: int) -> int:
    """Maximum independent set of the graph given by adjacency bitrows.

    Returns the witness as a bitmask: the first maximum leaf of a DFS that
    branches on the highest-degree vertex left (ties to the lowest index),
    include before exclude. The DFS's choices inside one connected
    component do not depend on the others, so each component is searched
    alone and the leaves are OR-ed. The bounds (vertices left, a greedy
    clique cover that starts with each degree-1 vertex and its neighbour)
    and taking a remainder of maximum degree <= 1 whole skip only subtrees
    with no larger leaf, so they never change which leaf that is.
    """
    witness, rest = 0, (1 << n) - 1
    while rest:
        component = frontier = rest & -rest  # breadth first from the lowest vertex left
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~component
            component |= frontier
        rest &= ~component
        witness |= _first_maximum_leaf(adj, component)
    return witness


def _first_maximum_leaf(adj: list[int], component: int) -> int:
    """max_independent_set_masks' DFS on one connected component."""
    best_size = best_mask = 0
    todo = [(component, 0, 0)]  # (remaining, chosen, size); an explicit stack, no depth limit
    while todo:
        remaining, chosen, size = todo.pop()
        while size + remaining.bit_count() > best_size:
            pick, pick_deg, leaves, left = -1, 0, 0, remaining
            while left:
                low = left & -left
                deg = (adj[low.bit_length() - 1] & remaining).bit_count()
                if deg > pick_deg:
                    pick, pick_deg = low.bit_length() - 1, deg
                if deg == 1:
                    leaves |= low
                left ^= low
            if pick_deg <= 1:
                # isolated vertices and disjoint edges: the DFS's first leaf below
                # takes each edge's lower end (the lowest vertex of degree 1 is
                # one), and no leaf below is larger
                take, left = remaining, remaining
                while left:
                    low = left & -left
                    take &= ~(adj[low.bit_length() - 1] & remaining & -(low << 1))
                    left ^= low
                if size + take.bit_count() > best_size:
                    best_size, best_mask = size + take.bit_count(), chosen | take
                break
            # greedy clique cover, degree-1 vertices first; stops once it cannot prune
            cliques, left = 0, remaining
            while left and size + cliques <= best_size:
                low = leaves & left or left
                low &= -low
                common = adj[low.bit_length() - 1] & left
                left ^= low
                while common:
                    low = common & -common
                    common &= adj[low.bit_length() - 1]
                    left ^= low
                cliques += 1
            if size + cliques <= best_size:
                break
            bit = 1 << pick
            todo.append((remaining & ~bit, chosen, size))  # exclude pick, after the include subtree
            remaining, chosen, size = remaining & ~(adj[pick] | bit), chosen | bit, size + 1
    return best_mask


def max_independent_set(G: UndirectedGraph) -> tuple[int, ...]:
    return tuple(_iter_bits(max_independent_set_masks(list(G.adj), G.n)))


def independence_number(G: UndirectedGraph) -> int:
    """alpha(G): the degree <= 2 reductions; n - nu if the rest is bipartite, else search."""
    adj, alive, taken = list(G.adj), (1 << G.n) - 1, 0
    stack = list(range(G.n))  # every vertex whose degree fell since it was last looked at
    while stack:
        v = stack.pop()
        near = adj[v] & alive
        if not alive >> v & 1 or near.bit_count() > 2:
            continue
        taken += 1
        a, b = (near & -near).bit_length() - 1, near.bit_length() - 1
        if near.bit_count() < 2 or adj[a] >> b & 1:  # N(v) is a clique: take v
            alive &= ~(near | 1 << v)
            for u in _iter_bits(near):
                stack += _iter_bits(adj[u] & alive)
        else:  # fold v and b into a, which keeps the neighbours of both
            alive &= ~(1 << v | 1 << b)
            stack += _iter_bits(adj[a] & adj[b] & alive)  # the common ones lose one
            stack.append(a)
            adj[a] = (adj[a] | adj[b]) & alive
            for u in _iter_bits(adj[b] & alive):
                adj[u] |= 1 << a
    if not alive:
        return taken
    index = {v: i for i, v in enumerate(_iter_bits(alive))}
    edges = [(index[u], index[w]) for u in index for w in _iter_bits(adj[u] & alive) if u < w]
    rest = build_graph(len(index), edges)
    if is_bipartite(rest):
        return taken + rest.n - matching_number(rest)
    return taken + max_independent_set_masks(list(rest.adj), rest.n).bit_count()


def max_matching(G: UndirectedGraph) -> tuple[tuple[int, int], ...]:
    """Maximum matching by Edmonds' blossom algorithm, O(n^3).

    Starts from the greedy matching in canonical edge order, then grows an
    alternating tree once from each free vertex, contracting odd cycles
    (blossoms) into their base, until it meets an augmenting path; a vertex
    with no augmenting path never gets one later.
    """
    n, adj = G.n, G.adj
    mate = [-1] * n
    for u, v in G.edges:
        if mate[u] < 0 and mate[v] < 0:
            mate[u], mate[v] = v, u
    for root in range(n):
        if mate[root] >= 0 or not adj[root]:  # an isolated vertex is never matched
            continue
        base, parent, outer, queue, end = list(range(n)), [-1] * n, 1 << root, [root], -1
        for v in queue:  # outer (even) vertices; blossoms append theirs
            for to in _iter_bits(adj[v]):
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or mate[to] >= 0 and parent[mate[to]] >= 0:
                    # even-even edge: the blossom's base is the deepest common ancestor
                    top = base[v]
                    path = 1 << top
                    while mate[top] >= 0:
                        top = base[parent[mate[top]]]
                        path |= 1 << top
                    top, blossom = base[to], 0
                    while not path >> top & 1:
                        top = base[parent[mate[top]]]
                    for x, child in ((v, to), (to, v)):
                        while base[x] != top:
                            blossom |= 1 << base[x] | 1 << base[mate[x]]
                            parent[x], child = child, mate[x]
                            x = parent[child]
                    for i in range(n):
                        if blossom >> base[i] & 1:
                            base[i] = top
                            if not outer >> i & 1:
                                outer |= 1 << i
                                queue.append(i)
                elif parent[to] < 0:
                    parent[to] = v
                    if mate[to] < 0:
                        end = to
                        break
                    outer |= 1 << mate[to]
                    queue.append(mate[to])
            if end >= 0:
                break
        while end >= 0:  # flip the augmenting path from end back to root
            v = parent[end]
            mate[end], mate[v], end = v, end, mate[v]
    return tuple((v, mate[v]) for v in range(n) if v < mate[v])


def matching_number(G: UndirectedGraph) -> int:
    return len(max_matching(G))


def sandwich(G: UndirectedGraph) -> tuple[int, int, bool]:
    """(alpha, n - nu, bipartite): alpha <= DOM <= n - nu, equal when bipartite.

    nu is computed once; on a bipartite graph alpha = n - nu (Konig), so the
    independent-set search is skipped there.
    """
    upper = G.n - matching_number(G)
    bipartite = is_bipartite(G)
    return (upper if bipartite else independence_number(G)), upper, bipartite


def is_bipartite(G: UndirectedGraph) -> bool:
    return _two_colourable(G.adj, (1 << G.n) - 1)


def _two_colourable(adj, mask: int) -> bool:
    """Whether the subgraph induced by mask has no odd cycle."""
    colour = [-1] * len(adj)
    for start in _iter_bits(mask):
        if colour[start] != -1:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in _iter_bits(adj[v] & mask):
                if colour[u] == -1:
                    colour[u] = 1 - colour[v]
                    stack.append(u)
                elif colour[u] == colour[v]:
                    return False
    return True


def max_induced_bipartite_order(G: UndirectedGraph) -> int:
    """Order of the largest vertex subset inducing a bipartite subgraph.

    Subsets are enumerated in decreasing size, first hit wins; BIP_VERTEX_CAP
    keeps the enumeration at desk scale.
    """
    if G.n > BIP_VERTEX_CAP:
        raise CapExceeded(f"bip enumeration capped at n <= {BIP_VERTEX_CAP}, got n={G.n}")
    for size in range(G.n, 0, -1):
        for subset in combinations(range(G.n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if _two_colourable(G.adj, mask):
                return size
    raise AssertionError("unreachable: single vertex is bipartite")


def is_acyclic(D: Digraph):
    """(True, topological order) or (False, a directed cycle)."""
    indeg = [D.in_degree(v) for v in range(D.n)]
    ready = [v for v in range(D.n) if indeg[v] == 0]
    heapify(ready)
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for u in _iter_bits(D.out_rows[v]):
            indeg[u] -= 1
            if indeg[u] == 0:
                heappush(ready, u)
    if len(order) == D.n:
        return True, tuple(order)
    # every leftover vertex keeps an in-neighbor among the leftover, so a
    # backward walk must revisit a vertex; the revisited segment, reversed,
    # is a directed cycle
    leftover = {v for v in range(D.n) if indeg[v] > 0}
    v = min(leftover)
    seen_at: dict[int, int] = {}
    walk: list[int] = []
    while v not in seen_at:
        seen_at[v] = len(walk)
        walk.append(v)
        v = next(u for u in _iter_bits(D.in_rows[v]) if u in leftover)
    return False, tuple(reversed(walk[seen_at[v] :]))
