"""Exact workbench for orientable domination, digraph domination, and packing."""

from .domsearch import DEFAULT_EDGE_CAP, SOLVER_VERSION, Solver, dom
from .formulas import (
    BoundsReport,
    VizingCheck,
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
    Digraph,
    Orientation,
    UndirectedGraph,
    build_digraph,
    build_graph,
    complete,
    cycle,
    delete_edge,
    empty,
    family,
    induced_subgraph,
    multipartite,
    path,
    underlying_graph,
)
from .invariants import (
    InvariantReport,
    cover_numbers,
    independence_number,
    invariant_report,
    is_acyclic,
    is_bipartite,
    matching_number,
    max_independent_set,
    max_induced_bipartite,
    max_induced_bipartite_order,
    max_matching,
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
    bitmask_shards,
    cartesian_orientation,
    corona_orientation,
    enumerate_orientations,
    k3_box_k3_orientation,
    k222_orientation,
    lex_orientation,
    path_join_orientation,
    prism_orientation,
)
from .products import (
    BlockMap,
    ProductVertexMap,
    cartesian,
    corona,
    generalized_lexicographic,
    join,
    lexicographic,
)
from .solvers import DomResult, dom_oracle, gamma, is_dominating, is_packing, rho
from .verify import VerifyCase, run_props, run_verify
