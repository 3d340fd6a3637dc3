"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads scan props] \
        [--trace-seeds 1-3] [--out perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every metric its median, quartiles and spread (interquartile
range over median) next to the bound BENCHMARK.json gives it. With --out it
also writes those numbers, the run metadata and the per-layer medians of the
traced runs to a JSON file, the form perfbench/baseline.json is kept in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    lines = proc.stdout.splitlines()
    report = next((json.loads(line[7:]) for line in lines if line.startswith("report ")), {})
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} trace {trace} failed (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return result, report


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace-seeds", type=_seeds, default=[], help="e.g. 1-3")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    reasons = {w["name"]: w["why"] for w in spec["workloads"]}

    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        reports = []
        for seed in args.seeds:
            result, report = _run(workload, seed, spec["run_seconds"], 0)
            reports.append(report)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name in ("cpu_raw_s", "wall_s", "cmd_p50_ms", "cmd_tail_ms"):
                if name in report:
                    values.setdefault(name, []).append(report[name])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        entry = {"why": reasons.get(workload), "instances": [r["instances"] for r in reports][0],
                 "passes": [r["passes"] for r in reports], "metrics": {}}
        for name, vals in values.items():
            stats = entry["metrics"][name] = _stats(vals)
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "ok" if stats["spread"] < bound / 3 else "within bound" if stats["spread"] <= bound
                else "TOO WIDE")
            print(f"  {name:<14} median {stats['median']:.5g} q1 {stats['q1']:.5g} "
                  f"q3 {stats['q3']:.5g} spread {stats['spread']:.3f} bound {bound} {verdict}")
        traced, wall_w2 = {}, []
        for seed in args.trace_seeds:
            result, report = _run(workload, seed, spec["run_seconds"], 1)
            for name, metric in result["metrics"].items():
                traced.setdefault(name, []).append(metric["value"])
            if "wall_w2_s" in report:
                wall_w2.append(report["wall_w2_s"])
        if len(wall_w2) > 1:  # measured untraced in the traced runs
            stats = entry["metrics"]["wall_w2_s"] = _stats(wall_w2)
            print(f"  wall_w2_s      median {stats['median']:.5g} q1 {stats['q1']:.5g} "
                  f"q3 {stats['q3']:.5g} spread {stats['spread']:.3f} (traced runs)")
        if traced:
            entry["per_layer"] = {name: statistics.median(v) for name, v in traced.items()}
            counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
            entry["counts_equal_across_trace_seeds"] = all(len(set(traced[c])) == 1 for c in counts)
            print(f"  traced {len(args.trace_seeds)} runs: " + " ".join(
                f"{k}={v:.4g}" for k, v in entry["per_layer"].items()))
        summary[workload] = entry

    if args.out:
        first = reports[0]
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT).stdout.strip() or None
        args.out.write_text(json.dumps({
            "commit": commit, "source": first["source"], "nproc": first["nproc"],
            "python": first["python"], "numpy": first["numpy"],
            "workers": {"cpu_s": 1, "wall_s": 1, "wall_w2_s": 2}, "seeds": args.seeds,
            "trace_seeds": args.trace_seeds, "run_seconds": spec["run_seconds"],
            "workloads": summary,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
