"""Exact digraph domination and packing solvers plus the brute-force oracle.

gamma() is an exact set-cover style branch and bound over closed
in-neighborhoods, run depth first on an explicit stack; only dom's scan sets
the early-exit cutoff of its engine, calling _gamma_engine on rows rebuilt
in Python from each filter survivor's mask, not read off the chunk. rho()
reduces maximum packing to maximum independent set on a conflict graph.
dom_oracle() deliberately shares no code with the optimized search
machinery: it tries every vertex subset in increasing size against a
bit-sliced cover table, one big integer per ordered vertex pair with one bit
per orientation bitmask, so each subset is tested on all orientations at
once. It uses stdlib integers only and serves as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graphs import CapExceeded, Digraph, UndirectedGraph, _iter_bits
from .invariants import max_independent_set_masks

ORACLE_EDGE_CAP = 16
ORACLE_VERTEX_CAP = 12


@dataclass(frozen=True)
class DomResult:
    """Value plus certifying witness and search statistics."""

    value: int
    witness: object  # vertex tuple for gamma/rho, Orientation for dom
    nodes_explored: int = 0
    pruned_by: dict = field(default_factory=dict, compare=False)


def is_dominating(D: Digraph, S) -> bool:
    """True iff the closed out-neighborhoods of S cover every vertex."""
    cover = 0
    for v in S:
        cover |= D.out_rows[v] | (1 << v)
    return cover == (1 << D.n) - 1


def is_packing(D: Digraph, P) -> bool:
    """True iff P spans no arc and no two members share an in-neighbor."""
    pmask = 0
    for v in P:
        pmask |= 1 << v
    for v in P:
        if D.out_rows[v] & pmask:
            return False
    for w in range(D.n):
        if (D.out_rows[w] & pmask).bit_count() > 1:
            return False
    return True


def _gamma_engine(nout: list[int], nin: list[int], n: int, cutoff: int | None):
    """Minimum dominating set over bitset rows.

    nout[v]/nin[v] are closed out/in neighborhoods. Vertices of in-degree 0
    (closed in-neighborhood == own bit) are forced into every solution.
    With a cutoff, the search may return any certified value <= cutoff
    early; the result is then an upper bound rather than the exact minimum.

    Returns (value, witness_mask, nodes, prune_tally).
    """
    full = (1 << n) - 1
    counts = [row.bit_count() for row in nin]  # potential dominators of each vertex
    forced = 0
    covered = 0
    for v in range(n):
        if nin[v] == 1 << v:
            forced |= 1 << v
            covered |= nout[v]
    best_size = n
    best_mask = full
    if covered == full:
        best_size = forced.bit_count()
        best_mask = forced
    nodes = 0
    pruned = {"bound": 0, "cutoff": 0}
    stack = [] if covered == full else [(forced.bit_count(), forced, covered)]
    while stack:
        size, chosen, covered = stack.pop()
        nodes += 1
        if covered == full:
            if size < best_size:
                best_size = size
                best_mask = chosen
            if cutoff is not None and best_size <= cutoff:
                pruned["cutoff"] += 1
                break
            continue
        # one pass over the uncovered vertices, lowest first: the lower bound counts
        # those with pairwise disjoint dominator sets, and the branching target is
        # the first with fewest potential dominators
        rest = full & ~covered
        used = 0
        bound = size
        target_count = n + 1
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            row = nin[v]
            if row & used == 0:
                used |= row
                bound += 1
            if counts[v] < target_count:
                target = v
                target_count = counts[v]
        if bound >= best_size:
            pruned["bound"] += 1
            continue
        # pushed highest first, so the lowest dominator is searched first
        rest = nin[target]
        while rest:
            w = rest.bit_length() - 1
            rest ^= 1 << w
            stack.append((size + 1, chosen | 1 << w, covered | nout[w]))
    return best_size, best_mask, nodes, pruned


def gamma(D: Digraph) -> DomResult:
    """Exact domination number with a minimum dominating set as witness."""
    nout = [D.out_rows[v] | (1 << v) for v in range(D.n)]
    nin = [D.in_rows[v] | (1 << v) for v in range(D.n)]
    value, mask, nodes, pruned = _gamma_engine(nout, nin, D.n, None)
    return DomResult(value, tuple(_iter_bits(mask)), nodes, pruned)


def rho(D: Digraph) -> DomResult:
    """Exact packing number via maximum independent set on the conflict graph.

    Two vertices conflict when an arc joins them or some vertex has arcs to
    both; packings are exactly the independent sets of that graph.
    """
    conflict = [D.out_rows[v] | D.in_rows[v] for v in range(D.n)]
    for w in range(D.n):
        row = D.out_rows[w]
        for v in _iter_bits(row):
            conflict[v] |= row & ~(1 << v)
    mask = max_independent_set_masks(conflict, D.n)
    return DomResult(mask.bit_count(), tuple(_iter_bits(mask)))


def dom_oracle(G: UndirectedGraph) -> int:
    """Ground-truth orientable domination number, no pruning of any kind.

    Every orientation goes through every vertex subset in increasing size,
    all orientations at once: ``cov[v][u]`` has bit j set iff u lies in the
    closed out-neighborhood of v under orientation bitmask j. Size k hits
    the orientations that some k-subset dominates; the value is the last k
    that hits one still undecided. Kept independent of the optimized search
    on purpose. Refuses instances beyond |E| <= 16, n <= 12.
    """
    n, edges = G.n, G.edges
    m = len(edges)
    if m > ORACLE_EDGE_CAP or n > ORACLE_VERTEX_CAP:
        raise CapExceeded(
            f"oracle capped at |E| <= {ORACLE_EDGE_CAP}, n <= {ORACLE_VERTEX_CAP};"
            f" got |E|={m}, n={n}"
        )
    ones = (1 << (1 << m)) - 1
    cov = [[ones if u == v else 0 for u in range(n)] for v in range(n)]
    for e, (u, v) in enumerate(edges):
        # bit j set iff j >> e & 1, which orients edge e from v to u
        half = 1 << e
        flipped = ones // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
        cov[v][u] = flipped
        cov[u][v] = ones ^ flipped
    undecided = ones
    best = 0
    for size in range(1, n + 1):
        hit = 0
        for subset in combinations(range(n), size):
            dominated = undecided
            for u in range(n):
                reach = 0
                for v in subset:
                    reach |= cov[v][u]
                dominated &= reach
                if not dominated:
                    break
            hit |= dominated
        if hit:
            best = size
            undecided ^= hit
            if not undecided:
                break
    return best
