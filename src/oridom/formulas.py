"""Bound calculators and closed-form evaluators for orientable domination.

Each function is a bound or a closed form for DOM; the checks that compare
them with exact search live in ``verify``. Bounds come as a BoundsReport,
and only dom_bounds names the rules behind its ends. Only ``corona_dom``
needs the DOM values of its factors, so it alone takes a ``solver``.

The log-based complete-graph bounds are the only floating-point arithmetic
in the package; values within 1e-9 of an integer are snapped before
rounding, and rounding is always outward (ceil on the lower bound, floor
on the upper) so the interval can only widen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domsearch import Solver
from .graphs import UndirectedGraph, complete
from .invariants import sandwich
from .products import join

_TIE_EPS = 1e-9


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper bounds on DOM; only dom_bounds names their rules in sources."""

    lower: int
    upper: int
    sources: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"crossed bounds: [{self.lower}, {self.upper}]")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def contains(self, value: int) -> bool:
        return self.lower <= value <= self.upper


def dom_bounds(G: UndirectedGraph) -> BoundsReport:
    """Sandwich bounds on DOM(G): independence below, n - matching above."""
    alpha, upper, bipartite = sandwich(G)
    sources = {"independence": alpha, "n_minus_matching": upper}
    if bipartite:
        sources["bipartite_equality"] = alpha
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
    return BoundsReport(lower, upper)


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


def tripartite_dom(n1: int, n2: int, n3: int) -> int:
    """DOM of the complete tripartite graph on parts of the given sizes, in any order."""
    if min(n1, n2, n3) < 1:
        raise ValueError(f"part sizes must be positive: {(n1, n2, n3)}")
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
    k, largest = len(sizes), max(sizes)
    if k == 2 or largest >= k:
        return BoundsReport(largest, largest)
    return BoundsReport(largest, k)
