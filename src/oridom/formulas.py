"""Bound calculators and closed-form evaluators for orientable domination.

The log-based complete-graph bounds are the only floating-point arithmetic
in the package; values within 1e-9 of an integer are snapped before
rounding, and rounding is always outward (ceil on the lower bound, floor
on the upper) so the interval can only widen.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .domsearch import Solver
from .graphs import UndirectedGraph, complete, induced_subgraph
from .invariants import independence_number, is_bipartite, matching_number
from .products import cartesian, join

_TIE_EPS = 1e-9


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper bounds with the rule that produced each value."""

    lower: int
    upper: int
    sources: dict

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"crossed bounds: [{self.lower}, {self.upper}]")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def contains(self, value: int) -> bool:
        return self.lower <= value <= self.upper


def dom_bounds(G: UndirectedGraph, partition=None, solver: Solver | None = None) -> BoundsReport:
    """Sandwich bounds on DOM(G): independence below, n - matching above.

    A vertex partition tightens the upper bound to the sum of the DOM
    values of its induced subgraphs (computed exactly by ``solver``, whose
    caps apply; None means a fresh Solver()).
    """
    alpha = independence_number(G)
    upper = G.n - matching_number(G)
    sources = {"independence": alpha, "n_minus_matching": upper}
    if is_bipartite(G)[0]:
        sources["bipartite_equality"] = alpha
        upper = alpha
    if partition is not None:
        blocks = [list(block) for block in partition]
        flat = sorted(v for block in blocks for v in block)
        if flat != list(range(G.n)):
            raise ValueError("partition must cover every vertex exactly once")
        solver = solver or Solver()
        total = sum(solver.dom(induced_subgraph(G, block)).value for block in blocks)
        sources["partition_sum"] = total
        upper = min(upper, total)
    return BoundsReport(alpha, upper, sources)


def _snap(x: float) -> float:
    nearest = round(x)
    return float(nearest) if abs(x - nearest) <= _TIE_EPS else x


def erdos_szekeres_bounds(n: int) -> BoundsReport:
    """Logarithmic bounds on DOM(K_n), clamped below at 1."""
    if n < 2:
        raise ValueError(f"complete-graph bounds need n >= 2, got {n}")
    log_n = math.log2(n)
    log_log_n = math.log2(log_n)
    lower = max(1, math.ceil(_snap(log_n - 2 * log_log_n)))
    upper = math.floor(_snap(log_n - log_log_n + 2))
    return BoundsReport(lower, upper, {"log_lower": lower, "log_upper": upper})


def corona_dom(G: UndirectedGraph, H: UndirectedGraph, solver: Solver | None = None) -> int:
    """DOM of the corona of G and H from the DOM values of the factors.

    DOM(H) * n(G) when joining a universal vertex to H does not raise its
    DOM, plus DOM(G) when it does.
    """
    solver = solver or Solver()
    dom_h = solver.dom(H).value
    dom_h_k1 = solver.dom(join(H, complete(1))).value
    if dom_h_k1 == dom_h:
        return dom_h * G.n
    return dom_h * G.n + solver.dom(G).value


def join_k1_check(G: UndirectedGraph, solver: Solver | None = None) -> tuple[int, int]:
    """(DOM(G), DOM(G + K_1)); the second is the first or one more."""
    solver = solver or Solver()
    dom_g = solver.dom(G).value
    dom_gk1 = solver.dom(join(G, complete(1))).value
    if dom_gk1 not in (dom_g, dom_g + 1):
        raise AssertionError(
            f"universal-vertex join changed DOM from {dom_g} to {dom_gk1}"
        )
    return dom_g, dom_gk1


def tripartite_dom(n1: int, n2: int, n3: int) -> int:
    """DOM of the complete tripartite graph on parts of the given sizes."""
    if min(n1, n2, n3) < 1:
        raise ValueError(f"part sizes must be positive: {(n1, n2, n3)}")
    if not n1 <= n2 <= n3:
        warnings.warn(f"part sizes {(n1, n2, n3)} not ascending; sorting", stacklevel=2)
        n1, n2, n3 = sorted((n1, n2, n3))
    if n3 >= 3:
        return n3
    if (n1, n2, n3) == (2, 2, 2):
        return 3
    return 2


def multipartite_dom_bounds(*sizes: int) -> BoundsReport:
    """Bounds on DOM of a complete multipartite graph; exact in two regimes.

    With k parts of ascending sizes the value lies in
    [n_k, max(n_k, k)]; it equals n_k when n_k >= k, and equals n_2 for
    every complete bipartite graph.
    """
    if len(sizes) < 2:
        raise ValueError(f"need at least 2 parts, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be positive: {sizes}")
    ordered = tuple(sorted(sizes))
    k = len(ordered)
    largest = ordered[-1]
    sources = {"largest_part": largest, "part_count": k}
    if k == 2:
        sources["bipartite_equality"] = largest
        return BoundsReport(largest, largest, sources)
    if largest >= k:
        sources["largest_part_dominates"] = largest
        return BoundsReport(largest, largest, sources)
    return BoundsReport(largest, max(largest, k), sources)


@dataclass(frozen=True)
class VizingCheck:
    """Evidence for one product instance of the product-inequality question."""

    dom_product: int
    dom_factor_product: int
    holds: bool
    factor_bipartite: bool  # inequality is guaranteed when either factor is


def vizing_like_check(
    G: UndirectedGraph, H: UndirectedGraph, solver: Solver | None = None
) -> VizingCheck:
    """Compare DOM(G x H) (Cartesian) against DOM(G) * DOM(H)."""
    solver = solver or Solver()
    dom_g = solver.dom(G).value
    dom_h = solver.dom(H).value
    dom_gh = solver.dom(cartesian(G, H)[0]).value
    bipartite = is_bipartite(G)[0] or is_bipartite(H)[0]
    return VizingCheck(dom_gh, dom_g * dom_h, dom_gh >= dom_g * dom_h, bipartite)
