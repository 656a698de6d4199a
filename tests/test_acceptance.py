"""Acceptance gate: one test per contract criterion, at pinned tolerances.

Each test prints a single ACCEPTANCE line (visible with `pytest -s` and in
failure reports) and then asserts. Criterion 3d pins the sign structure of
the determinant-ratio witness A3 for the (2,1) thermal pair as it is in exact
arithmetic: add-then-subtract stays non-negative, while subtract-then-add is
negative for small mean photon numbers (the state tends to the one-photon
Fock state, which that witness detects; A3 -> -2/11 as rbar -> 0) and changes
sign once, at rbar* = 1.045432...
"""

import math
import time
from fractions import Fraction

import pytest

from fockwitness import oracle, states, verify, witnesses
from fockwitness.errors import SingularDenominator
from fockwitness.states import EngineeringOp, MomentTable, StateSpec
from fockwitness.sweep_report import figure_pack, panel_csv


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})", flush=True)


def test_criterion_1_moment_oracle_equivalence():
    started = time.monotonic()
    result = verify.suite_moments(tol=1e-8)
    elapsed = time.monotonic() - started
    ok = result.passed and elapsed <= 60.0
    report("1 moment-oracle-equivalence", ok,
           f"{result.checks} moments, max rel dev {result.max_deviation:.3e}, {elapsed:.1f}s")
    assert result.passed, result.notes
    assert elapsed <= 60.0


def test_criterion_2_exact_derived_fixtures():
    past = StateSpec.thermal(1.0, EngineeringOp.pas(1, 1))
    psat = StateSpec.thermal(1.0, EngineeringOp.psa(1, 1))
    bare = StateSpec.thermal(1.0)
    psat_table = MomentTable.analytic(psat)
    checks = {
        "mean PAST(1,1)": (states.moment(past, 1, 1).real, 10 / 3),
        "mean PSAT(1,1)": (states.moment(psat, 1, 1).real, 13 / 3),
        "mandel(2) PSAT(1,1)": (witnesses.mandel_q(psat_table, 2), 17 / 39),
        "hoa(2) PSAT(1,1)": (witnesses.hoa(psat_table, 2), 17 / 9),
        "a3 bare": (witnesses.agarwal_tara(MomentTable.analytic(bare)), 1 / 7),
        "klyshko(2) bare": (witnesses.klyshko(bare, 2), 1 / 256),
        "husimi(0) bare": (states.husimi(bare, 0j), 1 / (2 * math.pi)),
    }
    worst = max(abs(got - want) / abs(want) for got, want in checks.values())
    report("2 exact-derived-fixtures", worst <= 1e-10, f"7 values, max rel dev {worst:.3e}")
    for label, (got, want) in checks.items():
        assert got == pytest.approx(want, rel=1e-10), label


def test_criterion_3a_mandel_sign_structure():
    grid = [0.01 + i * (5.0 - 0.01) / 79 for i in range(80)]
    psat = [
        witnesses.mandel_q(
            MomentTable.analytic(StateSpec.thermal(r, EngineeringOp.psa(1, 1))), 2
        )
        for r in grid
    ]
    past = [
        witnesses.mandel_q(
            MomentTable.analytic(StateSpec.thermal(r, EngineeringOp.pas(1, 1))), 2
        )
        for r in grid
    ]
    ok = min(psat) < -1e-10 and min(past) >= -1e-10
    report("3a mandel-signs", ok, f"PSA min {min(psat):.3e}, PAS min {min(past):.3e}")
    assert min(psat) < -1e-10
    assert min(past) >= -1e-10


def test_criterion_3b_hos_never_negative():
    result = verify.suite_hos()
    report("3b hos-nonnegative", result.passed,
           f"{result.checks} points, most negative {-result.max_deviation:.3e}")
    assert result.passed, result.notes


def test_criterion_3c_husimi_origin_zero_for_net_adders():
    values = [
        states.husimi(StateSpec.thermal(2.0, EngineeringOp.psa(2, 4)), 0j),
        states.husimi(StateSpec.thermal(0.5, EngineeringOp.psa(1, 2)), 0j),
    ]
    ok = all(v == 0.0 for v in values)
    report("3c husimi-origin-zero", ok, f"values {values}")
    assert all(v == 0.0 for v in values)


def test_criterion_3d_a3_sign_structure_subtract_heavy():
    # A3(PSA(2,1)) = (180r^6+180r^5-135r^4-195r^3-57r^2-9r-4)
    #              / (540r^5+1305r^4+1203r^3+561r^2+153r+22)
    # has one positive root, r* = 1.0454320331..., which lies in the grid cell
    # (grid[16], grid[17]) = (1.0206, 1.0838); A3(PAS(2,1)) is positive for r > 0.
    grid = [0.01 + i * (5.0 - 0.01) / 79 for i in range(80)]
    last_negative = 16

    def scan(op):
        values = {}
        for i, r in enumerate(grid):
            try:
                values[i] = witnesses.agarwal_tara(
                    MomentTable.analytic(StateSpec.thermal(r, op))
                )
            except SingularDenominator:
                continue
        return values

    past = scan(EngineeringOp.pas(2, 1))
    psat = scan(EngineeringOp.psa(2, 1))
    past_min = min(past.values(), default=math.inf)
    signs_ok = all(
        v < -1e-10 if i <= last_negative else v > 1e-10 for i, v in psat.items()
    )
    negative = [i for i, v in psat.items() if v < -1e-10]
    positive = [i for i, v in psat.items() if v > 1e-10]
    crossing = (
        f"({grid[max(negative)]:.4f}, {grid[min(positive)]:.4f})"
        if negative and positive else "none"
    )

    # Fock-diagonal weights n (n-1)^2 x^n on level n-1, x = r/(1+r), summed
    # exactly at r = 1/100
    exact = float(Fraction(-204794816591, 1179365805200))
    anchor = StateSpec.thermal(0.01, EngineeringOp.psa(2, 1))
    anchor_analytic = witnesses.agarwal_tara(MomentTable.analytic(anchor))
    anchor_oracle = witnesses.agarwal_tara(
        oracle.moment_table_from_state(oracle.build_truncated(anchor))
    )
    anchor_dev = max(abs(anchor_analytic / exact - 1), abs(anchor_oracle / exact - 1))

    ok = past_min >= -1e-10 and signs_ok and anchor_dev <= 1e-10
    report("3d a3-signs", ok,
           f"PAS min {past_min:.3e}, PSA sign change in rbar cell {crossing}, "
           f"rbar=0.01 rel dev {anchor_dev:.3e}")
    assert past_min >= -1e-10
    assert signs_ok, crossing
    assert anchor_analytic == pytest.approx(exact, rel=1e-10)
    assert anchor_oracle == pytest.approx(exact, rel=1e-10)


def test_criterion_4_normalization_and_parity():
    result = verify.suite_normalization()
    report("4 normalization-parity", result.passed,
           f"{result.checks} checks, max dev {result.max_deviation:.3e}")
    assert result.passed, result.notes


def test_criterion_5_hosps_definition_gate():
    result = verify.suite_hosps_gate(tol=1e-8)
    report("5 hosps-gate", result.passed,
           f"{result.checks} comparisons, max rel dev {result.max_deviation:.3e}")
    assert result.passed, result.notes
    # the printed-sign variant, (-1)^l times hosps by construction, is
    # named in a note beside the gate's verdict:
    assert any("printed-sign variant" in note for note in result.notes)


def test_criterion_6_coherent_baseline():
    result = verify.suite_coherent()
    report("6 coherent-baseline", result.passed,
           f"{result.checks} checks, max |value| {result.max_deviation:.3e}")
    assert result.passed, result.notes


def test_criterion_7_figure_determinism():
    packs = [figure_pack("fig11", steps=25), figure_pack("fig11", steps=25)]
    same = all(
        panel_csv(a) == panel_csv(b)
        for (_, a), (_, b) in zip(packs[0].panels, packs[1].panels)
    )
    grids = [figure_pack("fig7", grid_steps=9), figure_pack("fig7", grid_steps=9)]
    same_grids = all(
        panel_csv(a) == panel_csv(b)
        for (_, a), (_, b) in zip(grids[0].panels, grids[1].panels)
    )
    report("7 figure-determinism", same and same_grids,
           "byte-identical CSV on repeated runs")
    assert same and same_grids


def test_criterion_2_frozen_oracle_fixture_file():
    # companion to criterion 2: the packaged frozen-oracle records re-evaluate
    # on both engines within the equivalence tolerance
    result = verify.suite_fixtures()
    report("2+ fixture-file", result.passed,
           f"{result.checks} records, max rel dev {result.max_deviation:.3e}")
    assert result.passed, result.notes
