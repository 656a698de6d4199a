"""Repeat benchmark runs over seeds, summarise them and record the baseline.

    python3 bench/baseline.py

Run from the checkout root. For each BENCHMARK.json workload it makes
untraced runs with seeds 1..10 and one traced run with seed 1, prints each
end-to-end metric's median, quartiles and spread (interquartile distance
over the median) next to the bound BENCHMARK.json fixes for it, and stores
the figures under "measured" in bench/BASELINE.json, together with the raw
(unscaled) pass and set-up times and the reference-kernel times that the
scaled `wall_s` and `setup_s` were computed from.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(BENCH_DIR, "BASELINE.json")
SEEDS = range(1, 11)
RAW_PREFIX = "raw "


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's metric values and, untraced, its raw timings (else {})."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = next((json.loads(line[len(RAW_PREFIX):]) for line in lines
                if line.startswith(RAW_PREFIX)), {})
    return {name: m["value"] for name, m in result["metrics"].items()}, raw


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    measured = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        metrics = [m for m, _ in runs]
        raws = [r for _, r in runs]
        summary = {name: summarise([m[name] for m in metrics]) for name in metrics[0]}
        raw_summary = {name: summarise([r[name] for r in raws]) for name in raws[0]}
        print(f"{workload}: {len(runs)} runs")
        for name, s in summary.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread above a third of the bound"
            print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
            print("      runs: " + " ".join(f"{m[name]:.5g}" for m in metrics))
        for name, s in raw_summary.items():
            print(f"  raw {name:10s} median {s['median']:.6g}  spread {s['spread']:.4f}")
        measured[workload] = {
            "end_to_end": summary,
            "raw": raw_summary,
            "per_layer_seed1": one_run(workload, 1, spec["run_seconds"], 1)[0],
        }
        sys.stdout.flush()

    with open(BASELINE) as fh:
        baseline = json.load(fh)
    baseline["measured"] = measured
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
