"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest bench/smoke.py -q

Run from the checkout root. It checks that every workload prints every
metric BENCHMARK.json names, with its unit; that call counts repeat exactly
between two traced runs with one seed; that the tracer puts every original
function back; and that the correctness gate is live: at tiny size one
perturbed value makes it fail, and at a size above its sample sizes an error
in every call does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from fockwitness import cli, states, sweep_report  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import EXPECTED_SUITES, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units_of(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_json_names_the_workloads():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_printed_with_units(workload):
    result = run_bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units_of(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_between_runs(workload):
    first, second = run_bench(workload, 1), run_bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert units_of(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [n for n, unit in units_of(first).items() if unit in ("count", "levels", "B", "ratio")]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact
    }


def _fetch(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_tracer_restores_every_original(tmp_path):
    originals = [(owner, key, _fetch(owner, key)) for owner, key, _, _ in tracer._targets()]
    t = tracer.Tracer()
    with t, contextlib.redirect_stdout(io.StringIO()):
        assert len(tracer.installed_wrappers()) == len(originals)
        assert cli.main(["figure", "fig1", "--steps", "3", "--out", str(tmp_path)]) == 0
    assert tracer.installed_wrappers() == []
    assert all(_fetch(owner, key) is original for owner, key, original in originals)
    metrics = t.layer_metrics()
    assert metrics["witnesses.evaluate_witness.calls"] == 3 * 3 * 3
    assert metrics["sweep_report.csv_bytes"] == sum(
        os.path.getsize(tmp_path / name) for name in os.listdir(tmp_path)
    )


@contextlib.contextmanager
def perturb_calls(owner, key, factor=1.0 + 1e-6, every=False):
    """Shift the first result of owner.key, or with `every` each result, by
    (factor - 1) relative and absolute."""
    original = getattr(owner, key)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        value = original(*args, **kwargs)
        return value * factor + (factor - 1.0) if every or len(calls) == 1 else value

    setattr(owner, key, wrapper)
    try:
        yield calls
    finally:
        setattr(owner, key, original)


def _figure_gate(units, out_dir: str) -> gate.Tally:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in units:
            assert cli.main(list(argv) + ["--out", out_dir]) == 0
    tally = gate.Tally()
    gate.cross_check_figures(tally, out_dir, random.Random(0))
    return tally


@pytest.mark.parametrize("workload, target", [
    ("thermal_sweeps", "moment"),
    ("cat_sweeps", "moment"),
    ("husimi_grids", "husimi"),
])
def test_gate_catches_one_perturbed_value_at_tiny_size(tmp_path, workload, target):
    """At tiny size the gate's sample covers every point of every panel."""
    units = WORKLOADS[workload].tiny_units
    clean = _figure_gate(units, str(tmp_path / "clean"))
    assert clean.attempted > 0 and clean.failed == 0, clean.notes
    with perturb_calls(states, target) as calls:
        perturbed = _figure_gate(units, str(tmp_path / "perturbed"))
    assert calls
    assert perturbed.failed / perturbed.attempted > 0


@pytest.mark.parametrize("argv, target, points", [
    (("figure", "fig1", "--steps", "15"), "moment", 15),
    (("figure", "fig2", "--steps", "15"), "moment", 15),
    (("figure", "fig7", "--grid-steps", "9"), "husimi", 81),
])
def test_gate_catches_a_systematic_error_when_sampling(tmp_path, argv, target, points):
    """Above the sample sizes the gate checks a seeded sample of each panel,
    so it catches an error in every call, not necessarily a single wrong point."""
    assert points > (gate.HUSIMI_POINTS if target == "husimi" else gate.SWEEP_ROWS)
    clean = _figure_gate([argv], str(tmp_path / "clean"))
    assert clean.failed == 0, clean.notes
    with perturb_calls(states, target, every=True) as calls:
        perturbed = _figure_gate([argv], str(tmp_path / "perturbed"))
    rows = [len(path.read_text().splitlines()) - 1 for path in (tmp_path / "perturbed").iterdir()]
    assert calls and min(rows) == points
    assert perturbed.failed / perturbed.attempted > 0


def test_gate_catches_a_changed_suite_outcome():
    argv = list(WORKLOADS["verify_all"].tiny_units[0])
    expected = {s: EXPECTED_SUITES[s] for s in argv[2::2]}
    for factor in (1.0, 1.0 + 1e-6):
        with perturb_calls(states, "photon_prob", factor), \
                contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 1
        tally = gate.Tally()
        gate.check_suites(tally, out.getvalue(), expected)
        assert tally.attempted == len(expected)
        assert (tally.failed > 0) == (factor != 1.0), tally.notes


def test_csv_cell_count_matches_panels(tmp_path):
    pack = sweep_report.figure_pack("fig1", steps=4)
    sweep_report.write_figure_pack(pack, str(tmp_path))
    # three panels of 4 rows, each a parameter and PAS, PSA and bare series
    assert gate.count_cells(str(tmp_path)) == 3 * 4 * 4
