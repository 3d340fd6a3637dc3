"""oridom benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; oridom is imported from its src/
directory and nothing is installed. --trace 0 measures the end-to-end metrics
with tracing off: set-up time (median of fresh processes), the time of one
pass with one scan worker (median of the passes run until --seconds is
spent), peak memory, and on cli_cache the command latencies. --trace 1 runs
two untraced and two traced passes, alternating, then on the sharded
workloads one untraced and one traced pass with two scan workers; it writes
every span to .bench_build/perfbench/ and reports the per-layer metrics,
with the two-worker wall time on its report line.

setup_s and cpu_s are CPU seconds (user + system, workers included), not
wall seconds: on a shared virtual machine the host's steal time stretched
one props pass from 3.3 s of CPU to 6.9 s of wall, so wall time measured the
neighbours. Both are also scaled to a reference host speed sampled while
they run (calibrate.py), because that host's CPU speed itself swung by up
to 1.8x for seconds at a time. Raw CPU and wall times are printed too
(cpu_raw_s, wall_s, wall_w2_s) but not gated. The calibration ticks add about
0.4 ms to one cli_cache command in eight, which shows in cmd_tail_ms.

Every pass is checked: each verify case must be PASS or SKIPPED and equal
the first pass's case, each CLI output must equal the library result, and a
traced pass must repeat the first traced pass's counts exactly. The last
line of stdout is one JSON object; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 9
PERCENTILES = (50, 90, 99, 99.9)

E2E_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "domsearch.dom.calls": "count", "domsearch.dom.busy_s": "s", "domsearch.dom.self_s": "s",
    "domsearch.dom.explored": "count", "domsearch.dom.vector_filtered": "count",
    "domsearch.dom.exact_evals": "count", "domsearch.dom.ceiling_stops": "count",
    "domsearch.dom.tally_gap": "count", "domsearch.dom.filter_ratio": "ratio",
    "domsearch.dom.masks_per_s": "1/s",
    "domsearch.dom_w2.calls": "count", "domsearch.dom_w2.busy_s": "s",
    "solvers.gamma.calls": "count", "solvers.gamma.busy_s": "s", "solvers.gamma.nodes": "count",
    "solvers.gamma.bound_prunes": "count", "solvers.gamma.cutoff_prunes": "count",
    "solvers.rho.calls": "count", "solvers.rho.busy_s": "s",
    "solvers.dom_oracle.calls": "count", "solvers.dom_oracle.busy_s": "s",
    "invariants.calls": "count", "invariants.busy_s": "s", "formulas.self_s": "s",
    "verify.self_s": "s", "corpus.busy_s": "s", "construct.busy_s": "s",
    "cache.lookup.calls": "count", "cache.lookup.busy_s": "s", "cache.lookup.hits": "count",
    "cache.lookup.misses": "count", "cache.store.calls": "count", "cache.store.busy_s": "s",
    "cache.file_bytes": "B", "io.busy_s": "s", "exprs.busy_s": "s", "cli.calls": "count",
    "cli.self_s": "s", "trace_overhead_s": "s",
}
# Counts that a traced pass must repeat exactly.
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]


def _import_oridom():
    src = ROOT / "src"
    if not (src / "oridom" / "__init__.py").is_file():
        sys.exit(f"error: no oridom sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import oridom

    if Path(oridom.__file__).resolve().parent != src / "oridom":
        sys.exit(f"error: imported oridom from {oridom.__file__}, not {src}")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oridom").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter: imports, inputs, first numpy call.

    The probe reads and writes bytecode under .bench_build only, so whether
    the environment allows writing __pycache__ next to the sources does not
    change what it measures; measure() runs one untimed probe first to fill it.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _tail(latencies: list[float], per_pass: int) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples of one pass beyond it,
    so the percentile does not change with the number of passes run."""
    pct = max(p for p in PERCENTILES if per_pass * (100 - p) / 100 >= 10)
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    return pct, cuts[round(pct * 10) - 1]


class Run:
    def __init__(self, args, workdir: Path):
        from workloads import Checker, build, first_numpy_call, write_files

        self.args = args
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        (workdir / "inputs").mkdir()
        self.inputs = build(args.workload, args.seed, workdir / "inputs")
        first_numpy_call()
        write_files(self.inputs)
        self.checker = Checker(self.inputs)
        self.passes = 0

    def one_pass(self, workers: int, tracer=None, label=None):
        """Run and time one pass (traced when given a tracer), then check it."""
        from workloads import run_pass

        self.passes += 1
        cache_dir = self.workdir / f"cache{self.passes}"
        if tracer is None:
            outcome = run_pass(self.inputs, workers, cache_dir)
        else:
            with tracer.recording(f"{self.args.workload}:{self.args.seed}:{label}"):
                outcome = run_pass(self.inputs, workers, cache_dir)
        attempted, failed, messages = self.checker.check(outcome)
        self.attempted += attempted
        self.failed += failed
        self.messages += messages
        return outcome, cache_dir


def measure(run: Run) -> tuple[dict, dict]:
    args = run.args
    _probe_setup(args.workload, args.seed)  # warm-up: compiles into the bytecode cache
    setup = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    walls, cpus, raw, latencies = [], [], [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        outcome, _ = run.one_pass(workers=1)
        walls.append(outcome.wall_s)
        cpus.append(outcome.cpu_ref_s)
        raw.append(outcome.cpu_s)
        latencies += outcome.latencies
    metrics = {
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"passes": len(walls), "setup_probes_s": setup, "cpu_passes_s": cpus,
             "cpu_raw_s": statistics.median(raw), "wall_s": statistics.median(walls)}
    if latencies:
        per_pass = len(latencies) // len(walls)
        pct, tail = _tail(latencies, per_pass)
        extra.update(cmd_p50_ms=statistics.median(latencies) * 1e3, cmd_tail_ms=tail * 1e3,
                     cmd_tail_pct=pct, cmd_samples=len(latencies))
    return metrics, extra


def trace(run: Run) -> tuple[dict, dict]:
    from spans import Tracer, summarize
    from workloads import SHARDED, W2, build, cache_file_bytes

    args = run.args
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.recording(f"{args.workload}:{args.seed}:setup"):
        build(args.workload, args.seed, run.workdir / "inputs")
    untraced, traced = [], []
    # untraced and traced passes alternate, compared at reference speed so that
    # their difference is not the host's change of speed; span times include
    # the calibration ticks, about 2% of a pass
    for label in ("pass1", "pass2"):
        untraced.append(run.one_pass(workers=1)[0].cpu_ref_s)
        outcome, cache_dir = run.one_pass(1, tracer, label)
        traced.append((outcome.cpu_ref_s, summarize(tracer.spans), cache_file_bytes(cache_dir)))
    w2, extra = {}, {}
    if args.workload in SHARDED:
        extra["wall_w2_s"] = run.one_pass(workers=W2)[0].wall_s
        run.one_pass(W2, tracer, "w2")
        w2 = summarize(tracer.spans)
    run_id = f"{args.workload}:{args.seed}"
    setup = summarize(tracer.runs[f"{run_id}:setup"])
    per_pass = [_layer_metrics(layers, setup, w2, file_bytes) for _, layers, file_bytes in traced]

    for name in COUNTS:
        if per_pass[0][name] != per_pass[1][name]:
            run.failed += 1
            run.messages.append(f"count {name} did not repeat: {per_pass[0][name]} then "
                                f"{per_pass[1][name]}")
    run.attempted += len(COUNTS)
    metrics = {
        name: per_pass[0][name] if name in COUNTS
        else statistics.median(p[name] for p in per_pass)
        for name in PER_LAYER if name != "trace_overhead_s"
    }
    metrics["trace_overhead_s"] = (statistics.median(c for c, _, _ in traced)
                                   - statistics.median(untraced))
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_path, t0)
    return metrics, {"spans": str(spans_path.relative_to(ROOT)), "cpu_untraced_s": untraced,
                     "cpu_traced_s": [c for c, _, _ in traced], **extra}


def _layer_metrics(layers: dict, setup: dict, w2: dict, file_bytes: int) -> dict:
    def get(source, name, key):
        entry = source.get(name)
        if entry is None:
            return 0
        if key in ("calls", "busy_s", "self_s"):
            return entry[key]
        return entry["counts"].get(key, 0)

    out = {}
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if layer in ("corpus", "construct"):
            out[name] = get(setup, layer, key)
        elif layer == "domsearch.dom_w2":
            out[name] = get(w2, layer, key)
        elif layer:
            out[name] = get(layers, layer, key)
    dom = "domsearch.dom"
    explored = out[f"{dom}.explored"]
    out[f"{dom}.tally_gap"] = explored - out[f"{dom}.vector_filtered"] - out[f"{dom}.exact_evals"]
    out[f"{dom}.filter_ratio"] = out[f"{dom}.vector_filtered"] / explored if explored else 0.0
    busy = out[f"{dom}.busy_s"]
    out[f"{dom}.masks_per_s"] = explored / busy if busy else 0.0
    out["cache.file_bytes"] = file_bytes
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_oridom()
    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.pop("ORIDOM_CACHE_DIR", None)  # every dom command gets its own --cache-dir
    OUT.mkdir(parents=True, exist_ok=True)

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = Run(args, workdir)
        metrics, extra = (trace if args.trace else measure)(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else E2E_UNITS
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "source": _source_digest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "instances": run.inputs.counts, **extra,
        "fail_rate": run.failed / run.attempted,
    }
    for message in run.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<32} {value:>14.6g} {units[name]}")
    # end-to-end figures that BENCHMARK.json does not gate
    tail_note = f"  p{extra.get('cmd_tail_pct')} of {extra.get('cmd_samples')} commands"
    for name, unit, note in (("cpu_raw_s", "s", ""), ("wall_s", "s", ""), ("wall_w2_s", "s", ""),
                             ("cmd_p50_ms", "ms", ""),
                             ("cmd_tail_ms", "ms", tail_note)):
        if name in extra:
            print(f"{name:<32} {extra[name]:>14.6g} {unit}{note}")
    print(f"{'fail_rate':<32} {meta['fail_rate']:>14.6g} ratio  {run.failed} of {run.attempted}")
    print("report " + json.dumps(meta, sort_keys=True))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
