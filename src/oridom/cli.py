"""Command-line entry point.

Subcommands: construct, orient, dom, gamma, rho, bounds, verify, props.
Results print as key-value lines; verify/props print a PASS/FAIL table
(or tab-separated lines with --porcelain). Exit codes: 0 all pass or
skipped, 1 any failure, 2 usage error.

Each command takes only the flags it reads: every command takes --workers
and --cache-dir; orient, dom, verify and props take --max-edges; verify
and props take --seed and --porcelain. Any other flag is an argument error.

Commands do their work and raise; main is the one place that reports. A
ValueError (a malformed file or expression, a graph over SIZE_CAP, bytes
that are not UTF-8), an OSError (a missing input, an unwritable --out or
cache file) or a CapExceeded from any command ends it with one
``error: <message>`` line on stderr and exit 2.

How main works: arguments are parsed in one pass. When the first token
names a command, main hands the rest straight to that command's parser, and
any token it does not know goes to the top parser's "unrecognized arguments"
error. Anything else (no arguments, -h, an unknown command) goes through the
top parser, so every message is the one a full parse would give. A warning
raised while a command runs (a corrupt cache line) prints as one
``warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .cache import DomCache
from .corpus import DEFAULT_SEED
from .domsearch import DEFAULT_EDGE_CAP, dom
from .exprs import SPACES, parse_graph_expr, parse_int
from .formulas import dom_bounds
from .graphs import CapExceeded, Orientation, complete
from .invariants import max_independent_set
from .io import format_digraph, format_graph, load_digraph, load_graph
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
DESCRIPTION = ("Exact workbench for orientable domination. Exit codes: 0 success, 1 a"
               " verify/props case failed, 2 usage error (one 'error:' line on stderr).")


def _write(text: str, out: str | None):
    if out:
        with open(out, "wb") as handle:
            handle.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _parse_params(raw: str | None) -> dict[str, str]:
    """Parse ``k=2,s=3`` style parameters; commas without '=' extend the
    previous value so expressions like ``cart(path:2,multi:1,2)`` survive."""
    params: dict[str, str] = {}
    if not raw:
        return params
    key = None
    for piece in raw.split(","):
        name, eq, value = piece.partition("=")
        name = name.strip(SPACES)
        if eq and name:
            if name in params:
                raise ValueError(f"parameter {name!r} given twice in {raw!r}")
            key = name
            params[key] = value.strip(SPACES)
        elif not eq and key is not None:
            params[key] += "," + piece.strip(SPACES)
        else:
            raise ValueError(f"malformed parameters {raw!r}")
    return params


def _flag_int(text: str) -> int:
    """argparse type for --max-edges and --seed: the ASCII-digit rule of parse_int."""
    try:
        return parse_int(text)
    except ValueError as exc:  # argparse prints this message after the flag's name
        raise argparse.ArgumentTypeError(str(exc)) from None


def _flag_dir(text: str) -> str:
    """argparse type for --cache-dir: an empty name is refused, not taken as the default."""
    if not text:
        raise argparse.ArgumentTypeError("expected a directory name, got ''")
    return text


def _param(params: dict[str, str], name: str, key: str) -> str:
    if key not in params:
        raise ValueError(f"scheme {name!r} needs parameter {key!r}")
    return params[key]


def _cmd_construct(args) -> int:
    _write(format_graph(parse_graph_expr(args.expr)), args.out)
    return 0


def _cmd_orient(args) -> int:
    name = args.scheme.removesuffix("_orientation")
    params = _parse_params(args.params)
    builder, wanted = SELF_CONTAINED_SCHEMES.get(name, (None, ("h",) if args.base else ("g", "h")))
    if builder and args.base:
        raise ValueError(f"scheme {name!r} reads no --base file")
    for key in params:
        if key not in wanted:
            raise ValueError(f"scheme {name!r} does not read parameter {key!r}"
                             + (" with --base" if args.base else ""))
    if builder:
        digraph = builder(*(parse_int(_param(params, name, key)) for key in wanted))
    else:
        G = load_graph(args.base) if args.base else parse_graph_expr(_param(params, name, "g"))
        H = parse_graph_expr(_param(params, name, "h"))
        if name == "corona":
            g_opt = dom(G, args.max_edges).witness
            h_opt = dom(join(H, complete(1)), args.max_edges).witness
            digraph = corona_orientation(G, H, g_opt, h_opt)
        elif name == "cartesian":
            g_opt = dom(G, args.max_edges).witness
            digraph = cartesian_orientation(g_opt, Orientation(H, 0), max_independent_set(H))
        else:  # lex; argparse's choices admit no other name
            h_opt = dom(H, args.max_edges).witness
            digraph = lex_orientation(G, max_independent_set(G), h_opt)
    _write(format_digraph(digraph), args.out)
    return 0


def _cmd_dom(args) -> int:
    graph = load_graph(args.graph)
    cache = None if args.no_cache else DomCache(args.cache_dir)
    cached = cache.lookup(graph) if cache else None
    if cached is not None:
        print(f"value {cached}")
        print("witness cached")
        print("explored 0")
        return 0
    result = dom(graph, args.max_edges)
    if cache:  # before any print, so a failed append prints no result
        cache.store(graph, result.value)
    print(f"value {result.value}")
    print(f"witness {result.witness.bits}")
    print(f"explored {result.nodes_explored}")
    if args.stats:
        for key, value in sorted(result.pruned_by.items()):
            print(f"{key} {value}")
    return 0


def _cmd_gamma(args) -> int:
    return _digraph_value(args, gamma)


def _cmd_rho(args) -> int:
    return _digraph_value(args, rho)


def _digraph_value(args, solver) -> int:
    result = solver(load_digraph(args.digraph))
    print(f"value {result.value}")
    print(f"witness {' '.join(map(str, result.witness))}")
    print(f"explored {result.nodes_explored}")
    return 0


def _cmd_bounds(args) -> int:
    report = dom_bounds(load_graph(args.graph))
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
    cases = run_verify(args.suite, seed=args.seed, max_edges=args.max_edges)
    return _print_cases(cases, args.porcelain)


def _cmd_props(args) -> int:
    cases = run_props(seed=args.seed, max_edges=args.max_edges)
    return _print_cases(cases, args.porcelain)


@functools.cache  # parse_args never changes the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for existing callers; the scan runs in one process"
                             " (at least 1, default %(default)s)")
    common.add_argument("--cache-dir", type=_flag_dir, default=None,
                        help="dom's cache directory (env ORIDOM_CACHE_DIR overrides the default)")
    scans = argparse.ArgumentParser(add_help=False, parents=[common])
    scans.add_argument("--max-edges", type=_flag_int, default=DEFAULT_EDGE_CAP,
                       help="orientation-scan edge cap (default %(default)s)")
    suites = argparse.ArgumentParser(add_help=False, parents=[scans])
    suites.add_argument("--seed", type=_flag_int, default=DEFAULT_SEED,
                        help="seed for randomized corpora (default %(default)s)")
    suites.add_argument("--porcelain", action="store_true",
                        help="machine-readable tab-separated output")

    parser = argparse.ArgumentParser(prog="oridom", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for main's one-pass dispatch

    p = sub.add_parser("construct", parents=[common], help="build a graph expression")
    p.add_argument("expr", help="e.g. cart(path:3,complete:3) or multi:1,2,2")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_construct)

    scheme_names = sorted((*SELF_CONTAINED_SCHEMES, *COMPOSITE_SCHEMES))
    p = sub.add_parser("orient", parents=[scans], help="emit a named orientation scheme")
    p.add_argument("--scheme", required=True,
                   choices=scheme_names + [f"{s}_orientation" for s in scheme_names])
    p.add_argument("--params", help="e.g. k=2,s=2 or n=4 or g=cart(path:2,path:2),h=empty:2")
    p.add_argument("--base", help="graph file for the first factor of composite schemes")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("dom", parents=[scans], help="orientable domination number")
    p.add_argument("--graph", required=True)
    p.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    p.add_argument("--stats", action="store_true",
                   help="after a scan, also print its counters as key-value lines")
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

    p = sub.add_parser("verify", parents=[suites], help="run a named verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("props", parents=[suites], help="run the randomized invariant suite")
    p.set_defaults(func=_cmd_props)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.workers < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except (ValueError, OSError, CapExceeded) as exc:  # the one usage-error path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
