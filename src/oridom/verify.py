"""End-to-end verification suites reproducing the package's headline values.

Each suite builds its instances, solves them exactly, and reports one
VerifyCase per claim. Cases whose instance exceeds the orientation-scan
edge cap are reported SKIPPED with the known value displayed for context,
never dropped. Suites are deterministic for a fixed seed and independent
of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import corpus
from .domsearch import DEFAULT_EDGE_CAP, Solver
from .formulas import (
    corona_dom,
    dom_bounds,
    erdos_szekeres_bounds,
    join_k1_check,
    multipartite_dom_bounds,
    tripartite_dom,
    vizing_like_check,
)
from .graphs import (
    CapExceeded,
    Orientation,
    complete,
    cycle,
    delete_edge,
    empty,
    induced_subgraph,
    multipartite,
    path,
)
from .invariants import (
    independence_number,
    is_acyclic,
    is_bipartite,
    matching_number,
    max_induced_bipartite_order,
)
from .orientations import (
    acyclic_lex_cycle_orientation,
    cartesian_orientation,
    k3_box_k3_orientation,
    k222_orientation,
    lex_orientation,
    path_join_orientation,
    prism_orientation,
)
from .products import cartesian, corona, generalized_lexicographic, join, lexicographic
from .solvers import dom_oracle, gamma, is_dominating, is_packing, rho

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class VerifyCase:
    suite: str
    description: str
    expected: object  # int, (lo, hi) interval, or None for pure predicates
    computed: object
    status: str


def _case(suite, description, expected, computed) -> VerifyCase:
    if isinstance(expected, tuple):
        ok = expected[0] <= computed <= expected[1]
    else:
        ok = computed == expected
    return VerifyCase(suite, description, expected, computed, PASS if ok else FAIL)


def _suite_bounds(solver: Solver, seed: int) -> list[VerifyCase]:
    cases = [
        _case("bounds", "DOM(K_2) = 1", 1, solver.dom(complete(2)).value),
        _case("bounds", "DOM(K_3) = 2", 2, solver.dom(complete(3)).value),
    ]
    for n in range(4, 8):
        interval = erdos_szekeres_bounds(n)
        cases.append(
            _case(
                "bounds",
                f"DOM(K_{n}) within log bounds [{interval.lower}, {interval.upper}]",
                (interval.lower, interval.upper),
                solver.dom(complete(n)).value,
            )
        )
    k9 = complete(9)
    try:
        value = solver.dom(k9).value
        cases.append(_case("bounds", "DOM(K_9) = 3 (known value)", 3, value))
    except CapExceeded:
        interval = erdos_szekeres_bounds(9)
        ok = interval.contains(3)
        cases.append(
            VerifyCase(
                "bounds",
                f"DOM(K_9) = 3 (known value); 36 edges exceed the scan cap,"
                f" log bounds give [{interval.lower}, {interval.upper}]",
                3,
                None,
                SKIPPED if ok else FAIL,
            )
        )
    return cases


def _suite_corona(solver: Solver, seed: int) -> list[VerifyCase]:
    cases = []
    for n in (2, 4, 6):
        cases.append(_case("corona", f"DOM(P_{n}) = {n // 2}", n // 2, solver.dom(path(n)).value))
        cases.append(
            _case(
                "corona",
                f"DOM(P_{n} + K_1) = {n // 2 + 1}",
                n // 2 + 1,
                solver.dom(join(path(n), complete(1))).value,
            )
        )
    for n in (2, 4, 6, 8):
        cases.append(
            _case(
                "corona",
                f"gamma of the hub orientation of P_{n} + K_1 is {n // 2 + 1}",
                n // 2 + 1,
                gamma(path_join_orientation(n)).value,
            )
        )
    for g_name, G in (("K_1", complete(1)), ("P_2", path(2)), ("P_3", path(3)), ("K_3", complete(3))):
        for h_name, H in (("K_1", complete(1)), ("P_2", path(2))):
            C = corona(G, H)[0]
            formula = corona_dom(G, H, solver)
            cases.append(
                _case(
                    "corona",
                    f"DOM({g_name} corona {h_name}) matches the two-case formula",
                    formula,
                    solver.dom(C).value,
                )
            )
            cases.append(
                _case(
                    "corona",
                    f"DOM({g_name} corona {h_name}) matches the brute-force oracle",
                    dom_oracle(C),
                    solver.dom(C).value,
                )
            )
    for name, G, expected in (
        ("P_4", path(4), (2, 3)),
        ("K_2", complete(2), (1, 2)),
        ("K_1", complete(1), (1, 1)),
    ):
        got = join_k1_check(G, solver)
        cases.append(
            _case(
                "corona",
                f"(DOM({name}), DOM({name} + K_1)) = {expected}",
                list(expected),
                list(got),
            )
        )
    return cases


def _suite_cartesian(solver: Solver, seed: int) -> list[VerifyCase]:
    cases = []
    p3k3 = cartesian(path(3), complete(3))[0]
    k3k3 = cartesian(complete(3), complete(3))[0]
    cases.append(_case("cartesian", "DOM(P_3 box K_3) = 4", 4, solver.dom(p3k3).value))
    cases.append(_case("cartesian", "DOM(K_3 box K_3) = 4", 4, solver.dom(k3k3).value))
    fig = k3_box_k3_orientation()
    cases.append(
        _case("cartesian", "gamma of the out-degree-2 orientation of K_3 box K_3 is 4", 4, gamma(fig).value)
    )
    cases.append(
        _case(
            "cartesian",
            "every vertex of that orientation has out-degree 2",
            [2] * 9,
            [fig.out_degree(v) for v in range(9)],
        )
    )
    # constructed lower-bound witness: gamma >= DOM(G) * |A| with A independent in H
    g_opt = solver.dom(path(3)).witness
    scheme = cartesian_orientation(g_opt, Orientation(complete(3), 0), (0,))
    cases.append(
        _case(
            "cartesian",
            "layered orientation of P_3 box K_3 has gamma >= 2",
            (2, 9),
            gamma(scheme).value,
        )
    )
    for g_name, G, h_name, H, expected in (
        ("K_3", complete(3), "K_3", complete(3), (4, 4)),
        ("P_3", path(3), "K_3", complete(3), (4, 4)),
        ("P_2", path(2), "P_2", path(2), (2, 1)),
    ):
        check = vizing_like_check(G, H, solver)
        cases.append(
            _case(
                "cartesian",
                f"DOM({g_name} box {h_name}) = {expected[0]} >= {expected[1]}"
                " = product of factor values",
                [expected[0], expected[1], True],
                [check.dom_product, check.dom_factor_product, check.holds],
            )
        )
    return cases


def _suite_prism(solver: Solver, seed: int) -> list[VerifyCase]:
    cases = []
    for n in (3, 4, 5, 6):
        prism = cartesian(cycle(n), complete(2))[0]
        cases.append(_case("prism", f"DOM(C_{n} box K_2) = {n}", n, solver.dom(prism).value))
        cases.append(
            _case(
                "prism",
                f"gamma of the rung orientation of C_{n} box K_2 is {n}",
                n,
                gamma(prism_orientation(n)).value,
            )
        )
    graphs = corpus.prism_corpus(seed=seed)
    violations = 0
    for G in graphs:
        prism = cartesian(G, complete(2))[0]
        value = solver.dom(prism).value
        if not (max_induced_bipartite_order(G) <= value <= G.n):
            violations += 1
        if is_bipartite(G)[0] and value != G.n:
            violations += 1
    cases.append(
        _case(
            "prism",
            f"bip(G) <= DOM(G box K_2) <= n(G) with bipartite equality"
            f" on {len(graphs)} random graphs: violations",
            0,
            violations,
        )
    )
    return cases


def _suite_lex(solver: Solver, seed: int) -> list[VerifyCase]:
    cases = []
    pairs = (
        ("P_2", path(2), "P_2", path(2)),
        ("P_3", path(3), "K_2", complete(2)),
        ("K_3", complete(3), "empty_2", empty(2)),
        ("P_2", path(2), "P_3", path(3)),
        ("C_5", cycle(5), "empty_2", empty(2)),
    )
    for g_name, G, h_name, H in pairs:
        product = lexicographic(G, H)[0]
        value = solver.dom(product).value
        dom_g, dom_h = solver.dom(G).value, solver.dom(H).value
        low = independence_number(G) * dom_h
        high = min(dom_g * H.n, dom_h * G.n)
        cases.append(
            _case(
                "lex",
                f"DOM({g_name} lex {h_name}) within [{low}, {high}]",
                (low, high),
                value,
            )
        )
    c5k2 = lexicographic(cycle(5), empty(2))[0]
    cases.append(
        _case(
            "lex",
            "DOM(C_5 lex empty_2) within the odd-cycle bounds [4, 5] (exact value recorded)",
            (4, 5),
            solver.dom(c5k2).value,
        )
    )
    # constructed lower-bound witnesses
    h_opt = solver.dom(empty(2)).witness
    scheme = lex_orientation(cycle(5), (0, 2), h_opt)
    cases.append(
        _case(
            "lex",
            "blown-up C_5 orientation with 2 shielded copies has gamma >= 4",
            (4, 10),
            gamma(scheme).value,
        )
    )
    k2_opt = solver.dom(complete(2)).witness
    scheme = lex_orientation(path(3), (0, 2), k2_opt)
    cases.append(
        _case(
            "lex",
            "blown-up P_3 orientation with endpoint copies shielded has gamma >= 2",
            (2, 6),
            gamma(scheme).value,
        )
    )
    k122 = generalized_lexicographic(complete(3), [empty(1), empty(2), empty(2)])[0]
    cases.append(
        _case(
            "lex",
            "DOM(K_{1,2,2}) via vertex substitution within [2, 5]",
            (2, 5),
            solver.dom(k122).value,
        )
    )
    return cases


def _suite_multipartite(solver: Solver, seed: int) -> list[VerifyCase]:
    cases = []
    for sizes in corpus.multipartite_instances(18):
        report = multipartite_dom_bounds(*sizes)
        G = multipartite(*sizes)
        value = solver.dom(G).value
        name = "K_{" + ",".join(map(str, sizes)) + "}"
        if report.exact:
            cases.append(_case("multipartite", f"DOM({name}) = {report.lower}", report.lower, value))
        else:
            cases.append(
                _case(
                    "multipartite",
                    f"DOM({name}) within [{report.lower}, {report.upper}]",
                    (report.lower, report.upper),
                    value,
                )
            )
    return cases


def _suite_tripartite(solver: Solver, seed: int) -> list[VerifyCase]:
    cases = []
    for sizes in corpus.multipartite_instances(20):
        if len(sizes) != 3:
            continue
        expected = tripartite_dom(*sizes)
        G = multipartite(*sizes)
        name = "K_{" + ",".join(map(str, sizes)) + "}"
        cases.append(
            _case(
                "tripartite",
                f"DOM({name}) = {expected} by the three-case formula",
                expected,
                solver.dom(G).value,
            )
        )
    table = k222_orientation()
    cases.append(
        _case("tripartite", "gamma of the tabulated K_{2,2,2} orientation is 3", 3, gamma(table).value)
    )
    cases.append(
        _case(
            "tripartite",
            "every vertex of that orientation has out-degree 2",
            [2] * 6,
            [table.out_degree(v) for v in range(6)],
        )
    )
    return cases


def _suite_counterexample(solver: Solver, seed: int) -> list[VerifyCase]:
    cases = []
    for k, s in ((2, 2), (2, 3), (3, 2), (3, 3)):
        D = acyclic_lex_cycle_orientation(k, s)
        acyclic, _ = is_acyclic(D)
        g = gamma(D).value
        r = rho(D).value
        name = f"(k={k}, s={s})"
        cases.append(_case("counterexample", f"{name}: orientation is acyclic", True, acyclic))
        cases.append(_case("counterexample", f"{name}: gamma = s + 2k - 2", s + 2 * k - 2, g))
        cases.append(_case("counterexample", f"{name}: packing number = s + k - 1", s + k - 1, r))
        cases.append(_case("counterexample", f"{name}: gamma differs from packing number", True, g != r))
    return cases


def _props_cases(solver: Solver, seed: int) -> list[VerifyCase]:
    cases = []
    graphs = corpus.random_graphs(200, max_n=8, max_edges=14, seed=seed, label="oracle")

    oracle_bad = sum(1 for G in graphs if solver.dom(G).value != dom_oracle(G))
    cases.append(
        _case("props", f"optimized DOM equals the brute-force oracle on {len(graphs)} graphs", 0, oracle_bad)
    )

    sandwich_bad = 0
    for G in graphs:
        value = solver.dom(G).value
        alpha = independence_number(G)
        if not (alpha <= value <= G.n - matching_number(G)):
            sandwich_bad += 1
        if is_bipartite(G)[0] and value != alpha:
            sandwich_bad += 1
    cases.append(
        _case("props", "independence <= DOM <= order - matching, equality when bipartite", 0, sandwich_bad)
    )

    sample = [G for G in graphs if G.n >= 2 and G.m <= 10][:25]
    mono_bad = 0
    for G in sample:
        base = solver.dom(G).value
        for v in range(G.n):
            sub = induced_subgraph(G, [u for u in range(G.n) if u != v])
            if solver.dom(sub).value > base:
                mono_bad += 1
        for u, v in G.edges:
            if solver.dom(delete_edge(G, u, v)).value < base:
                mono_bad += 1
    cases.append(
        _case("props", f"vertex-deletion/edge-deletion monotonicity on {len(sample)} graphs", 0, mono_bad)
    )

    part_rng = corpus._rng(seed, "partition")
    part_bad = 0
    for G in sample:
        left = sorted(part_rng.sample(range(G.n), part_rng.randint(1, G.n - 1))) if G.n > 1 else [0]
        right = [v for v in range(G.n) if v not in left]
        if not right:
            continue
        report = dom_bounds(G, partition=(left, right), solver=solver)
        if solver.dom(G).value > report.sources["partition_sum"]:
            part_bad += 1
    cases.append(_case("props", f"two-block partition bound on {len(sample)} graphs", 0, part_bad))

    orient_rng = corpus._rng(seed, "orientations")
    packing_bad = 0
    checked = 0
    for G in graphs[:60]:
        if G.m == 0:
            continue
        for _ in range(3):
            D = Orientation(G, orient_rng.randrange(1 << G.m)).to_digraph()
            if rho(D).value > gamma(D).value:
                packing_bad += 1
            checked += 1
    cases.append(_case("props", f"packing number <= gamma on {checked} random orientations", 0, packing_bad))

    tree_bad = 0
    tree_count = 0
    orientations_checked = 0
    for n in range(1, 8):
        for T in corpus.all_trees(n):
            tree_count += 1
            for bits in range(1 << T.m):
                D = Orientation(T, bits).to_digraph()
                orientations_checked += 1
                if rho(D).value != gamma(D).value:
                    tree_bad += 1
    cases.append(
        _case(
            "props",
            f"packing number equals gamma on all {orientations_checked} orientations"
            f" of all {tree_count} trees up to 7 vertices",
            0,
            tree_bad,
        )
    )

    witness_bad = 0
    for G in graphs[:20]:
        if G.m == 0:
            continue
        D = Orientation(G, orient_rng.randrange(1 << G.m)).to_digraph()
        gres, rres = gamma(D), rho(D)
        if not is_dominating(D, gres.witness):
            witness_bad += 1
        if any(
            is_dominating(D, S) for S in combinations(range(D.n), gres.value - 1)
        ):
            witness_bad += 1
        if not is_packing(D, rres.witness):
            witness_bad += 1
        if any(is_packing(D, S) for S in combinations(range(D.n), rres.value + 1)):
            witness_bad += 1
    cases.append(_case("props", "gamma/packing witnesses certified minimal/maximal", 0, witness_bad))
    return cases


_SUITES = {
    "bounds": _suite_bounds,
    "corona": _suite_corona,
    "cartesian": _suite_cartesian,
    "prism": _suite_prism,
    "lex": _suite_lex,
    "multipartite": _suite_multipartite,
    "tripartite": _suite_tripartite,
    "counterexample": _suite_counterexample,
}

SUITE_NAMES = (*_SUITES, "all")


def run_verify(
    suite: str,
    seed: int = corpus.DEFAULT_SEED,
    workers: int = 1,
    max_edges: int = DEFAULT_EDGE_CAP,
) -> list[VerifyCase]:
    """Run one named suite (or ``all``) and return its cases in fixed order."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    solver = Solver(max_edges, workers)
    names = _SUITES if suite == "all" else (suite,)
    return [case for name in names for case in _SUITES[name](solver, seed)]


def run_props(
    seed: int = corpus.DEFAULT_SEED,
    workers: int = 1,
    max_edges: int = DEFAULT_EDGE_CAP,
) -> list[VerifyCase]:
    """Run the randomized invariant suite."""
    return _props_cases(Solver(max_edges, workers), seed)
