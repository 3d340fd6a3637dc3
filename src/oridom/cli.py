"""Command-line entry point.

Subcommands: construct, orient, dom, gamma, rho, bounds, verify, props.
Results print as key-value lines; verify/props print a PASS/FAIL table
(or tab-separated lines with --porcelain). Exit codes: 0 all pass or
skipped, 1 any failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .cache import DomCache
from .corpus import DEFAULT_SEED
from .domsearch import DEFAULT_EDGE_CAP, Solver
from .exprs import ExprError, parse_graph_expr
from .formulas import dom_bounds
from .graphs import CapExceeded, Orientation, complete, family
from .invariants import max_independent_set
from .io import (
    GraphFormatError,
    format_digraph,
    format_graph,
    load_digraph,
    load_graph,
)
from .orientations import (
    SELF_CONTAINED_SCHEMES,
    cartesian_orientation,
    corona_orientation,
    lex_orientation,
)
from .products import join
from .solvers import gamma, rho
from .verify import FAIL, SKIPPED, SUITE_NAMES, run_props, run_verify

COMPOSITE_SCHEMES = ("corona", "cartesian", "lex")


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_params(raw: str | None) -> dict[str, str]:
    """Parse ``k=2,s=3`` style parameters; commas without '=' extend the
    previous value so family descriptors like ``multi:1,2,2`` survive."""
    params: dict[str, str] = {}
    if not raw:
        return params
    key = None
    for piece in raw.split(","):
        if "=" in piece:
            key, _, value = piece.partition("=")
            params[key.strip()] = value.strip()
        elif key is not None:
            params[key] += "," + piece.strip()
        else:
            raise ValueError(f"malformed parameters {raw!r}")
    return params


def _cmd_construct(args) -> int:
    try:
        graph = parse_graph_expr(args.expr)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(format_graph(graph), args.out)
    return 0


def _cmd_orient(args) -> int:
    params = _parse_params(args.params)
    name = args.scheme.removesuffix("_orientation")
    try:
        if name in SELF_CONTAINED_SCHEMES:
            builder, wanted = SELF_CONTAINED_SCHEMES[name]
            digraph = builder(*(int(params[key]) for key in wanted))
        else:
            G = load_graph(args.base) if args.base else family(params["g"])
            H = family(params["h"])
            solver = Solver(args.max_edges, args.workers)
            if name == "corona":
                g_opt = solver.dom(G).witness
                h_opt = solver.dom(join(H, complete(1))).witness
                digraph = corona_orientation(G, H, g_opt, h_opt)
            elif name == "cartesian":
                g_opt = solver.dom(G).witness
                digraph = cartesian_orientation(
                    g_opt, Orientation(H, 0), max_independent_set(H)
                )
            elif name == "lex":
                h_opt = solver.dom(H).witness
                digraph = lex_orientation(G, max_independent_set(G), h_opt)
            else:
                print(f"error: unknown scheme {name!r}", file=sys.stderr)
                return 2
    except KeyError as exc:
        print(f"error: scheme {name!r} needs parameter {exc}", file=sys.stderr)
        return 2
    except (ValueError, CapExceeded, GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(format_digraph(digraph), args.out)
    return 0


def _cmd_dom(args) -> int:
    try:
        graph = load_graph(args.graph)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else DomCache(args.cache_dir)
    cached = cache.lookup(graph) if cache else None
    if cached is not None:
        print(f"value {cached}")
        print("witness cached")
        print("explored 0")
        return 0
    try:
        result = Solver(args.max_edges, args.workers).dom(graph)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cache:
        cache.store(graph, result.value)
    print(f"value {result.value}")
    print(f"witness {result.witness.bits}")
    print(f"explored {result.nodes_explored}")
    return 0


def _cmd_gamma(args) -> int:
    return _digraph_value(args, gamma)


def _cmd_rho(args) -> int:
    return _digraph_value(args, rho)


def _digraph_value(args, solver) -> int:
    try:
        digraph = load_digraph(args.digraph)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = solver(digraph)
    print(f"value {result.value}")
    print(f"witness {' '.join(map(str, result.witness))}")
    print(f"explored {result.nodes_explored}")
    return 0


def _cmd_bounds(args) -> int:
    try:
        graph = load_graph(args.graph)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = dom_bounds(graph)
    print(f"lower {report.lower}")
    print(f"upper {report.upper}")
    for rule, value in sorted(report.sources.items()):
        print(f"source {rule} {value}")
    return 0


def _print_cases(cases, porcelain: bool) -> int:
    def fmt(value):
        if value is None:
            return "-"
        if isinstance(value, tuple):
            return f"[{value[0]}, {value[1]}]"
        return str(value)

    if porcelain:
        for case in cases:
            fields = (case.status, case.suite, case.description, fmt(case.expected), fmt(case.computed))
            print("\t".join(fields))
    else:
        width = max((len(c.description) for c in cases), default=0)
        for case in cases:
            print(
                f"{case.status:<8} {case.suite:<15} {case.description:<{width}}"
                f"  expected={fmt(case.expected)} computed={fmt(case.computed)}"
            )
        total = len(cases)
        failed = sum(1 for c in cases if c.status == FAIL)
        skipped = sum(1 for c in cases if c.status == SKIPPED)
        print(f"{total} cases: {total - failed - skipped} passed, {failed} failed, {skipped} skipped")
    return 1 if any(c.status == FAIL for c in cases) else 0


def _cmd_verify(args) -> int:
    cases = run_verify(args.suite, seed=args.seed, workers=args.workers, max_edges=args.max_edges)
    return _print_cases(cases, args.porcelain)


def _cmd_props(args) -> int:
    cases = run_props(seed=args.seed, workers=args.workers, max_edges=args.max_edges)
    return _print_cases(cases, args.porcelain)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-edges", type=int, default=DEFAULT_EDGE_CAP,
                        help="orientation-scan edge cap (default %(default)s)")
    common.add_argument("--workers", type=int, default=1,
                        help="parallel scan workers, at least 1 (default %(default)s)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized corpora (default %(default)s)")
    common.add_argument("--cache-dir", default=None,
                        help="DOM cache directory (env ORIDOM_CACHE_DIR overrides the default)")
    common.add_argument("--porcelain", action="store_true",
                        help="machine-readable tab-separated output")

    parser = argparse.ArgumentParser(prog="oridom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="build a graph expression")
    p.add_argument("expr", help="e.g. cart(path:3,complete:3) or multi:1,2,2")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_construct)

    scheme_names = sorted((*SELF_CONTAINED_SCHEMES, *COMPOSITE_SCHEMES))
    p = sub.add_parser("orient", parents=[common], help="emit a named orientation scheme")
    p.add_argument("--scheme", required=True,
                   choices=scheme_names + [f"{s}_orientation" for s in scheme_names])
    p.add_argument("--params", help="e.g. k=2,s=2 or n=4 or g=cycle:5,h=empty:2")
    p.add_argument("--base", help="graph file for the first factor of composite schemes")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("dom", parents=[common], help="orientable domination number")
    p.add_argument("--graph", required=True)
    p.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    p.set_defaults(func=_cmd_dom)

    p = sub.add_parser("gamma", parents=[common], help="digraph domination number")
    p.add_argument("--digraph", required=True)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("rho", parents=[common], help="digraph packing number")
    p.add_argument("--digraph", required=True)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("bounds", parents=[common], help="DOM sandwich bounds")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("props", parents=[common], help="run the randomized invariant suite")
    p.set_defaults(func=_cmd_props)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
