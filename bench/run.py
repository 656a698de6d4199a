"""fockwitness benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload thermal_sweeps --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` there. Every run starts fresh interpreters with the BLAS and OpenMP
thread counts set to 1: several that only import fockwitness and build its
CLI parser (for `setup_s`), each between two reference interpreters that only
import numpy (see speed.py), then one that runs passes of the workload through
`fockwitness.cli.main` for `--seconds` seconds and checks the outputs
outside the timed region (see gate.py).

With `--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run. `--tiny` runs every
workload at a size small enough for the smoke test. The exit code is 0 when
every check passed, 1 when a check failed and 2 when the run could not be
made.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_KERNEL_S, REFERENCE_SPAWN_ARGV, REFERENCE_SPAWN_S
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Fresh interpreters timed for setup_s, each between two reference interpreters.
SETUP_SAMPLES = 21
# A run must end within 180 s; the measuring child is stopped before that.
RUN_DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "values_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith((".self_s", ".s", "overhead_s")):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.startswith("oracle.cutoff."):
        return "levels"
    if name.endswith("csv_bytes"):
        return "B"
    return "count"


class RunError(Exception):
    pass


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = src
    return env


def start_child(args, env: dict, deadline: float):
    """Start `python args`; returns it and the seconds until it printed "ready"."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RunError(f"child did not start (exit code {proc.returncode})")
    return proc, ready


def finish(proc, deadline: float) -> str:
    """Wait for a child until the deadline and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("the run did not finish within its deadline")
    return out


def time_to_ready(args, env: dict, deadline: float) -> float:
    """Seconds from spawning `python args` to its "ready" line; the
    interpreter is then stopped, so its exit is not timed."""
    proc, ready = start_child(args, env, deadline)
    proc.kill()
    finish(proc, deadline)
    return ready


def measure(args, src: str, work_dir: str, spans_out: str | None):
    """Returns the set-up times of an untraced run, each with the mean time
    of the reference interpreters before and after it, and the measuring
    child's result."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = child_env(src)
    child = os.path.join(BENCH_DIR, "child.py")
    setups = []
    if not args.trace:
        reference = [time_to_ready(REFERENCE_SPAWN_ARGV, env, deadline)]
        for _ in range(SETUP_SAMPLES):
            ready = time_to_ready([child, "--setup-only"], env, deadline)
            reference.append(time_to_ready(REFERENCE_SPAWN_ARGV, env, deadline))
            setups.append((ready, (reference[-2] + reference[-1]) / 2))
    child_args = [
        child,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    if args.tiny:
        child_args.append("--tiny")
    if spans_out:
        child_args += ["--spans-out", spans_out]
    proc, _ = start_child(child_args, env, deadline)
    out = finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"workload child exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    package_dir = os.path.realpath(os.path.join(src, "fockwitness"))
    if os.path.dirname(os.path.realpath(result["package"])) != package_dir:
        raise RunError(f"imported {result['package']}, not the package under {src}")
    return setups, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fockwitness", "__init__.py")):
        print(f"no fockwitness sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    # byte-compile first, so that no set-up sample pays for it
    compileall.compile_dir(src, quiet=1)

    scratch = os.path.join(root, ".benchrun")
    work_dir = os.path.join(scratch, f"{args.workload}-s{args.seed}-{os.getpid()}")
    spans_out = os.path.join(scratch, f"spans-{args.workload}.tsv") if args.trace else None
    os.makedirs(work_dir)
    try:
        setups, result = measure(args, src, work_dir, spans_out)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    walls = result["walls"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"unit order: {', '.join(result['order'])}")
    print(f"passes timed: {len(walls)}  ({', '.join(f'{w:.3f}' for w in walls)} s)")
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
        print(f"spans of the last traced pass: {spans_out}")
    else:
        # the unscaled figures behind setup_s and wall_s (bench/baseline.py records them)
        print("raw " + json.dumps({
            "pass_s": statistics.median(walls),
            "pass_kernel_s": statistics.fmean(result["reference"]),
            "setup_s": statistics.median(s for s, _ in setups),
            "setup_reference_s": statistics.median(r for _, r in setups),
        }))
        wall = statistics.median(
            w * REFERENCE_KERNEL_S / r for w, r in zip(walls, result["reference"])
        )
        values = {
            "setup_s": statistics.median(s * REFERENCE_SPAWN_S / r for s, r in setups),
            "wall_s": wall,
            "values_per_s": result["values"] / wall,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} checks failed)")
    for note in result["notes"]:
        print(f"  check failed: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
