"""Workload inputs, one measured pass per workload, and the correctness gate.

Four workloads, each chosen to load different layers of oridom:

  scan       verify suites bounds, corona, cartesian, prism, lex and
             counterexample. K_7 (2^21 masks) and K_3 box K_3 (2^18) dominate,
             and the numpy chunk filter decides almost every mask.
  sandwich   verify suites multipartite and tripartite: closed-sandwich
             instances (K_{2,9}, K_{1,1,8}, ...) where exact gamma on filter
             survivors does most of the work and the ceiling stop ends scans.
  props      run_props: hundreds of tiny graphs through dom, dom_oracle, the
             invariants, and gamma/rho on every orientation of every small tree.
  cli_cache  in-process cli.main calls: construct, orient, gamma, rho and
             bounds on emitted files, then dom on many distinct small graphs
             against a fresh cache directory, first missing, then hitting.

The verify suites run on their reference instance sets (corpus seed
DEFAULT_SEED, the one `oridom verify` and `oridom props` use by default). The
random parts of those sets have heavy-tailed cost across corpus seeds (on a
2-core Xeon VM, corpus seeds 0-19: the prism suite alone takes 0.07 s to
3.1 s, props 1.7 s to 3.5 s), so a per-run corpus seed would measure the seed
rather than the code. `--seed` drives the cli_cache inputs, whose thousands
of small commands make their total cost stable from seed to seed.
"""

from __future__ import annotations

import io as stdio
import random
import resource
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oridom import cli, corpus, orientations, verify
from oridom.domsearch import dom
from oridom.exprs import parse_graph_expr
from oridom.formulas import dom_bounds
from oridom.graphs import Orientation
from oridom.io import format_digraph, format_graph
from oridom.solvers import gamma, rho
from oridom.verify import FAIL

from calibrate import Calibrator

SUITES = {
    "scan": ("bounds", "corona", "cartesian", "prism", "lex", "counterexample"),
    "sandwich": ("multipartite", "tripartite"),
    "props": ("props",),
}
WORKLOADS = (*SUITES, "cli_cache")
# Workloads whose traced run adds passes with two scan workers.
SHARDED = ("scan", "sandwich")
W2 = 2
SUITE_SEED = corpus.DEFAULT_SEED

# cli_cache sizes: 1000 distinct graphs give a 1000-line cache file, where
# each lookup's scan of the whole file shows in cache.lookup.busy_s.
CLI_DOM_GRAPHS = 1000
CLI_DIGRAPHS = 100
CLI_EXPRS = 150
CLI_EXPR_VERTICES = 16
CLI_ORIENTS = 40
_FAMILIES = ("path:2", "path:3", "path:4", "cycle:3", "cycle:4", "complete:2",
             "complete:3", "empty:2", "empty:3", "multi:1,2", "multi:2,2")
_OPS = ("cart", "lex", "corona", "join")
_SCHEMES = (("prism", "n=3"), ("prism", "n=4"), ("prism", "n=5"), ("path_join", "n=2"),
            ("path_join", "n=4"), ("path_join", "n=6"), ("k3_box_k3", None), ("k222", None),
            ("acyclic_lex_cycle", "k=2,s=2"))


@dataclass
class Inputs:
    workload: str
    counts: dict  # instance counts, recorded as run metadata
    commands: list = field(default_factory=list)  # cli_cache: (kind, argv, key)
    graphs: dict = field(default_factory=dict)  # cli_cache: key -> input the command reads
    files: dict = field(default_factory=dict)  # cli_cache: path -> text, see write_files


@dataclass
class Outcome:
    """What one pass produced; checked against the library after timing."""

    wall_s: float
    cpu_s: float  # user + system time of this process and of workers it waited for
    cpu_ref_s: float  # cpu_s less the calibration ticks, at reference host speed
    results: list  # verify cases, or per-command (exit code, stdout)
    latencies: list  # seconds per cli.main call (cli_cache only)
    errors: list  # exceptions raised inside the pass


def first_numpy_call() -> int:
    """The vectorised operations the dom chunk filter starts with."""
    masks = np.arange(1024, dtype=np.uint64)
    return int(np.bitwise_count((masks >> np.uint64(3)) & np.uint64(7)).sum())


def build(workload: str, seed: int, workdir: Path) -> Inputs:
    """Make the workload's inputs from the seed; the same seed gives the same inputs.
    The cli_cache input files are made in memory; write_files puts them on disk."""
    if workload == "scan":
        prism = corpus.prism_corpus(seed=SUITE_SEED)
        return Inputs(workload, {"suites": 6, "prism_corpus_graphs": len(prism)})
    if workload == "sandwich":
        multi = corpus.multipartite_instances(18)
        tri = [s for s in corpus.multipartite_instances(20) if len(s) == 3]
        return Inputs(workload, {"suites": 2, "multipartite_instances": len(multi),
                                 "tripartite_instances": len(tri)})
    if workload == "props":
        graphs = corpus.random_graphs(200, max_n=8, max_edges=14, seed=SUITE_SEED, label="oracle")
        trees = sum(len(corpus.all_trees(n)) for n in range(1, 8))
        return Inputs(workload, {"random_graphs": len(graphs), "trees": trees})
    if workload == "cli_cache":
        return _build_cli(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_files(inputs: Inputs) -> None:
    """Write the input files the commands read. Kept out of build, and so out of
    setup_s: on a 2-vCPU VM, creating 1,300 small files took 0.02 s of system
    time in one directory and 0.6 s in another of the same ext4 disk, so their
    time measured the file system's state rather than oridom."""
    for path, text in inputs.files.items():
        Path(path).write_text(text, encoding="utf-8")


def _build_cli(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(f"{seed}:cli_cache")
    inputs = Inputs("cli_cache", {})
    seen = set()
    dom_graphs = []
    for G in corpus.random_graphs(4 * CLI_DOM_GRAPHS, max_n=7, max_edges=9, seed=seed,
                                  label="cli_cache"):
        if (G.n, G.edges) not in seen and len(dom_graphs) < CLI_DOM_GRAPHS:
            seen.add((G.n, G.edges))
            dom_graphs.append(G)
    if len(dom_graphs) < CLI_DOM_GRAPHS:
        raise RuntimeError(f"only {len(dom_graphs)} distinct graphs for seed {seed}")

    groups = []  # first phase: constructs, orientations and misses, shuffled
    for i, G in enumerate(dom_graphs):
        key = f"g{i}"
        inputs.graphs[key] = G
        path = str(workdir / f"{key}.ug")
        inputs.files[path] = format_graph(G)
        groups.append([("dom", ["dom", "--graph", path], key)])
    for i, G in enumerate([G for G in dom_graphs if G.m][:CLI_DIGRAPHS]):
        key = f"d{i}"
        D = Orientation(G, rng.randrange(1 << G.m)).to_digraph()
        inputs.graphs[key] = D
        path = str(workdir / f"{key}.dg")
        inputs.files[path] = format_digraph(D)
        groups.append([("gamma", ["gamma", "--digraph", path], key),
                       ("rho", ["rho", "--digraph", path], key)])
    exprs = []
    while len(exprs) < CLI_EXPRS:
        left = rng.choice(_FAMILIES)
        if rng.random() < 0.2:
            left = f"{rng.choice(_OPS)}({left},{rng.choice(_FAMILIES[:4])})"
        expr = f"{rng.choice(_OPS)}({left},{rng.choice(_FAMILIES)})"
        # bounds runs an exponential matching search; keep it desk-sized
        if parse_graph_expr(expr).n <= CLI_EXPR_VERTICES:
            exprs.append(expr)
    for i, expr in enumerate(exprs):
        key = f"c{i}"
        inputs.graphs[key] = expr
        path = str(workdir / f"{key}.ug")
        groups.append([("construct", ["construct", expr, "--out", path], key),
                       ("bounds", ["bounds", "--graph", path], key)])
    for i in range(CLI_ORIENTS):
        key = f"o{i}"
        scheme, params = rng.choice(_SCHEMES)
        inputs.graphs[key] = (scheme, params)
        path = str(workdir / f"{key}.dg")
        argv = ["orient", "--scheme", scheme, "--out", path]
        if params:
            argv += ["--params", params]
        groups.append([("orient", argv, key), ("gamma", ["gamma", "--digraph", path], key),
                       ("rho", ["rho", "--digraph", path], key)])
    rng.shuffle(groups)
    inputs.commands = [cmd for group in groups for cmd in group]
    hits = [("dom_hit", ["dom", "--graph", str(workdir / f"g{i}.ug")], f"g{i}")
            for i in range(len(dom_graphs))]
    rng.shuffle(hits)
    inputs.commands += hits
    inputs.counts = {"commands": len(inputs.commands), "dom_graphs": len(dom_graphs),
                     "digraphs": CLI_DIGRAPHS, "exprs": CLI_EXPRS, "orients": CLI_ORIENTS}
    return inputs


def cpu_time() -> float:
    """CPU seconds of this process and its waited-for children. Unlike wall time,
    it leaves out the time a shared host runs other guests (steal time)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(inputs: Inputs, workers: int, cache_dir: Path) -> Outcome:
    """One timed pass. An exception is recorded, and the checker counts it as a failure.

    Calls go through module attributes (verify.run_verify, cli.main), so the
    tracer's wrappers see them. The pass samples the host's speed
    (calibrate.Calibrator) and reports its CPU time at reference speed too.
    """
    body = _cli_pass if inputs.workload == "cli_cache" else _verify_pass
    with Calibrator() as calibrator:
        start, cpu = time.perf_counter(), cpu_time()
        results, latencies, errors = body(inputs, workers, cache_dir)
        wall, cpu = time.perf_counter() - start, cpu_time() - cpu
    return Outcome(wall, cpu, calibrator.scale(cpu), results, latencies, errors)


def _verify_pass(inputs: Inputs, workers: int, cache_dir: Path) -> tuple[list, list, list]:
    results, errors = [], []
    for suite in SUITES[inputs.workload]:
        try:
            if suite == "props":
                results.extend(verify.run_props(seed=SUITE_SEED, workers=workers))
            else:
                results.extend(verify.run_verify(suite, seed=SUITE_SEED, workers=workers))
        except Exception as exc:  # a raising suite is a failed case, not a crash
            errors.append(f"{suite}: {exc!r}")
    return results, [], errors


def _cli_pass(inputs: Inputs, workers: int, cache_dir: Path) -> tuple[list, list, list]:
    extra = ["--workers", str(workers), "--cache-dir", str(cache_dir)]
    results, latencies, errors = [], [], []
    buffer = stdio.StringIO()
    with redirect_stdout(buffer):
        for _, argv, _ in inputs.commands:
            mark = buffer.tell()
            t0 = time.perf_counter()
            try:
                code = cli.main(argv + extra)
            except (Exception, SystemExit) as exc:  # usage errors exit through argparse
                code = None
                errors.append(f"{' '.join(argv)}: {exc!r}")
            latencies.append(time.perf_counter() - t0)
            buffer.seek(mark)
            results.append((code, buffer.read()))
    return results, latencies, errors


def _fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        out.setdefault(key, rest)
    return out


class Checker:
    """Compares pass outputs with library results computed outside the timed passes."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.reference = None  # first pass's verify cases, or expected CLI fields

    def check(self, outcome: Outcome) -> tuple[int, int, list]:
        """Returns (attempted, failed, messages) for one pass."""
        if self.inputs.workload == "cli_cache":
            return self._check_cli(outcome)
        messages = list(outcome.errors)
        bad = [c for c in outcome.results if c.status == FAIL]
        messages += [f"FAIL {c.suite}: {c.description}" for c in bad]
        if self.reference is None:
            self.reference = outcome.results
        elif outcome.results != self.reference:
            # cases must not depend on the pass or the worker count
            differ = sum(a != b for a, b in zip(outcome.results, self.reference))
            differ += abs(len(outcome.results) - len(self.reference))
            messages.append(f"{differ} cases differ from the first pass")
            bad = bad + [None] * differ
        attempted = len(outcome.results) + len(outcome.errors)
        return attempted, len(bad) + len(outcome.errors), messages

    def _expected(self) -> list:
        expected = []
        doms = {}
        for kind, _, key in self.inputs.commands:
            item = self.inputs.graphs[key]
            if kind in ("dom", "dom_hit"):
                if key not in doms:
                    doms[key] = dom(item)
                want = {"value": str(doms[key].value)}
                if kind == "dom":  # a hit need only repeat the value its miss stored
                    want["witness"] = str(doms[key].witness.bits)
                expected.append(want)
            elif kind in ("gamma", "rho"):
                D = item if key.startswith("d") else _orient(*item)
                expected.append({"value": str((gamma if kind == "gamma" else rho)(D).value)})
            elif kind == "bounds":
                report = dom_bounds(parse_graph_expr(item))
                expected.append({"lower": str(report.lower), "upper": str(report.upper)})
            elif kind == "construct":
                expected.append({"file": format_graph(parse_graph_expr(item))})
            else:
                expected.append({"file": format_digraph(_orient(*item))})
        return expected

    def _check_cli(self, outcome: Outcome) -> tuple[int, int, list]:
        if self.reference is None:
            self.reference = self._expected()
        messages = list(outcome.errors)
        failed = 0
        for (kind, argv, key), (code, text), want in zip(
            self.inputs.commands, outcome.results, self.reference
        ):
            got = _fields(text)
            if "file" in want:
                path = Path(argv[argv.index("--out") + 1])
                got = {"file": path.read_text(encoding="utf-8") if path.exists() else None}
            wrong = code != 0 or any(got.get(k) != v for k, v in want.items())
            if wrong:
                failed += 1
                messages.append(f"{' '.join(argv)}: exit {code}, got {got}, want {want}")
        return len(self.inputs.commands), failed, messages


def _orient(scheme: str, params: str | None):
    builder, wanted = orientations.SELF_CONTAINED_SCHEMES[scheme]
    values = dict(p.split("=") for p in params.split(",")) if params else {}
    return builder(*(int(values[k]) for k in wanted))


def cache_file_bytes(cache_dir: Path) -> int:
    return sum(path.stat().st_size for path in cache_dir.glob("*"))

