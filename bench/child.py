"""One benchmark run inside a fresh interpreter; started by run.py.

The first line on stdout is "ready", printed once fockwitness is imported
and its CLI parser built; with `--setup-only` the child exits there, so the
parent can time set-up from the spawn. The last line is the run's
result as JSON. Untraced runs never import the tracer.
"""

import sys

from fockwitness import cli

cli.build_parser()
print("ready", flush=True)
if sys.argv[1:] == ["--setup-only"]:
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import fockwitness  # noqa: E402
import gate  # noqa: E402
from speed import SpeedSampler, time_reference  # noqa: E402
from workloads import EXPECTED_SUITES, WORKLOADS  # noqa: E402

# Figure workloads run at least two passes so their CSVs can be compared.
MIN_PASSES_CSV = 2


def clear_module_caches() -> None:
    """Empty every lru_cache in the package, as a fresh CLI process has them."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("fockwitness."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def run_pass(units, out_dir, sampler=None):
    """Run one pass; returns (seconds, [(argv, exit code)], captured stdout).

    The seconds exclude the reference samples a sampler took during the pass.
    """
    stdout = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(stdout):
        t0 = time.perf_counter()
        if sampler is not None:
            sampler.start()
        for argv in units:
            argv = list(argv) + (["--out", out_dir] if argv[0] == "figure" else [])
            codes.append((argv[:2], cli.main(argv)))
        if sampler is not None:
            sampler.stop()
        elapsed = time.perf_counter() - t0
    if sampler is not None:
        elapsed -= sum(sampler.samples)
    return elapsed, codes, stdout.getvalue()


class Run:
    """The passes of one run and the checks on their outputs."""

    def __init__(self, workload, units, work_dir):
        self.workload = workload
        self.units = units
        self.work_dir = work_dir
        self.tally = gate.Tally()
        self.first_digests = None
        self.values = 0
        self.layer_samples = []
        self.last_tracer = None
        # mean reference-kernel time during each sampled pass
        self.reference = []

    def pass_dir(self, index):
        return os.path.join(self.work_dir, f"pass{index}")

    def one_pass(self, index, tracer=None, sampler=None):
        clear_module_caches()
        out_dir = self.pass_dir(index)
        if tracer is None:
            elapsed, codes, text = run_pass(self.units, out_dir, sampler)
        else:
            with tracer:
                elapsed, codes, text = run_pass(self.units, out_dir)
            self.layer_samples.append(tracer.layer_metrics())
            self.last_tracer = tracer
        if sampler is not None:
            if not sampler.samples:
                sampler.samples.append(time_reference())
            self.reference.append(statistics.fmean(sampler.samples))
        self.check_pass(index, codes, text)
        return elapsed

    def check_pass(self, index, codes, text):
        """Checks on one pass's outputs, made after its timing ended."""
        for argv, code in codes:
            self.tally.check(
                code == self.workload.expected_exit,
                f"pass {index}: {' '.join(argv)} exited {code}, expected {self.workload.expected_exit}",
            )
        if not self.workload.writes_csv:
            gate.check_suites(self.tally, text, expected_suites(self.units))
            self.values = sum(checks for _, checks in gate.suite_outcomes(text).values())
            return
        digests = gate.csv_digests(self.pass_dir(index))
        if self.first_digests is None:
            self.first_digests = digests
            self.values = gate.count_cells(self.pass_dir(index))
            return
        for name in sorted(set(digests) | set(self.first_digests)):
            self.tally.check(
                digests.get(name) == self.first_digests.get(name),
                f"pass {index}: {name} differs from pass 0",
            )
        shutil.rmtree(self.pass_dir(index))


def expected_suites(units):
    """Expected outcomes of the suites a verify unit selects (all by default)."""
    argv = units[0]
    chosen = [argv[i + 1] for i, flag in enumerate(argv) if flag == "--suite"]
    return {s: ok for s, ok in EXPECTED_SUITES.items() if not chosen or s in chosen}


def timed_passes(run, first_index, seconds, min_passes, tracer_factory=None, sampler=None):
    """Run passes until `seconds` have gone by and at least `min_passes` ran."""
    walls = []
    started = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - started < seconds:
        tracer = tracer_factory() if tracer_factory else None
        walls.append(run.one_pass(first_index + len(walls), tracer, sampler))
    return walls


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    units = list(workload.tiny_units if args.tiny else workload.units)
    random.Random(f"{args.seed}:order").shuffle(units)
    run = Run(workload, units, args.work_dir)
    min_passes = MIN_PASSES_CSV if workload.writes_csv else 1

    result = {"order": [" ".join(u[:2]) for u in units], "package": fockwitness.__file__}
    if args.trace:
        import tracer

        walls = timed_passes(run, 0, args.seconds / 2, 1)
        traced = timed_passes(run, len(walls), args.seconds / 2, 1, tracer.Tracer)
        samples = run.layer_samples
        layers = {k: statistics.median_low(s[k] for s in samples) for k in samples[0]}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        result["layers"] = layers
        leftover = tracer.installed_wrappers()
        run.tally.check(not leftover, f"wrappers left installed: {leftover}")
        if args.spans_out:
            run.last_tracer.write(args.spans_out)
    else:
        walls = timed_passes(run, 0, args.seconds, min_passes, sampler=SpeedSampler())
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["reference"] = run.reference

    if workload.writes_csv:
        gate.cross_check_figures(run.tally, run.pass_dir(0), random.Random(f"{args.seed}:sample"))
    result.update(
        walls=walls,
        values=run.values,
        attempted=run.tally.attempted,
        failed=run.tally.failed,
        notes=run.tally.notes[:20],
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
