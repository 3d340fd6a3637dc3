"""Exact workbench for orientable domination, digraph domination, and packing."""

from .domsearch import DEFAULT_EDGE_CAP, SOLVER_VERSION, Solver, dom
from .exprs import parse_graph_expr
from .formulas import (
    BoundsReport,
    corona_dom,
    dom_bounds,
    erdos_szekeres_bounds,
    multipartite_dom_bounds,
    tripartite_dom,
)
from .graphs import (
    CapExceeded,
    Digraph,
    Orientation,
    UndirectedGraph,
    build_digraph,
    build_graph,
    complete,
    cycle,
    delete_edge,
    empty,
    generalized_lexicographic,
    induced_subgraph,
    multipartite,
    path,
)
from .invariants import (
    independence_number,
    is_acyclic,
    is_bipartite,
    matching_number,
    max_independent_set,
    max_induced_bipartite_order,
    max_matching,
    sandwich,
)
from .io import (
    GraphFormatError,
    format_digraph,
    format_graph,
    load_digraph,
    load_graph,
    parse_digraph,
    parse_graph,
)
from .orientations import (
    acyclic_lex_cycle_orientation,
    cartesian_orientation,
    corona_orientation,
    k3_box_k3_orientation,
    k222_orientation,
    lex_orientation,
    path_join_orientation,
    prism_orientation,
)
from .products import (
    cartesian,
    corona,
    join,
    lexicographic,
)
from .solvers import DomResult, dom_oracle, gamma, is_dominating, is_packing, rho
from .verify import VerifyCase, run_props, run_verify
