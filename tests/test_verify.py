import math

import numpy as np
import pytest

from fockwitness import oracle, states, verify, witnesses
from fockwitness.states import EngineeringOp, StateSpec


def test_parse_canonical_round_trip():
    specs = [
        StateSpec.thermal(1.0, EngineeringOp.pas(2, 1)),
        StateSpec.thermal(0.25),
        StateSpec.even_coherent(2.0, EngineeringOp.psa(1, 2)),
        StateSpec.even_coherent(1 + 0.5j),
    ]
    for spec in specs:
        assert StateSpec.from_canonical(spec.canonical()) == spec


def test_packaged_fixture_canonicals_parse():
    for record in verify.load_packaged_fixtures():
        spec = StateSpec.from_canonical(record.canonical)
        assert spec.canonical() == record.canonical


def test_run_suites_selection_and_reporting():
    lines = []
    results = verify.run_suites(["determinism"], report=lines.append)
    assert [r.name for r in results] == ["determinism"]
    assert lines and lines[0].startswith("PASS determinism")


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError):
        verify.run_suites(["numerology"])


def test_overtight_tolerance_fails_fixtures():
    results = verify.run_suites(["fixtures"], tol=1e-16, report=None)
    assert not results[0].passed


def test_overtight_tolerance_fails_witnesses():
    result = verify.run_suites(["witnesses"], tol=1e-16, report=None)[0]
    assert not result.passed
    assert result.checks == SUITE_SHAPE["witnesses"][1]


# outcome and check count of every suite: a restructuring that drops checks
# shows here
SUITE_SHAPE = {
    "moments": (True, 4422),
    "witnesses": (True, 546),
    "normalization": (True, 1122),
    "hos": (True, 480),
    "signs": (False, 183),
    "hosps_gate": (True, 891),
    "coherent": (True, 27),
    "fixtures": (True, 25),
    "determinism": (True, 9),
}


def test_suite_outcomes_and_check_counts():
    results = verify.run_suites(report=None)
    assert {r.name: (r.passed, r.checks) for r in results} == SUITE_SHAPE
    assert sum(checks for _, checks in SUITE_SHAPE.values()) == 7705
    for result in results:
        assert result.max_deviation <= 1e-8, result.line()


def test_oracle_states_are_built_once_and_read_only(monkeypatch):
    calls = []
    original = oracle.build_truncated

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(oracle, "build_truncated", counting)
    verify._oracle_state.cache_clear()
    try:
        verify.suite_moments()
        verify.suite_normalization()
        verify.suite_hosps_gate()
        # klyshko's oracle side reads the same states
        verify.suite_witnesses()
        specs = [StateSpec.of(family, value, op)
                 for op, family, values in verify._grid_series() for value in values]
        assert len(calls) == len(set(specs)) == 297
        state = verify._oracle_state(specs[0])
        assert len(calls) == 297
        with pytest.raises(ValueError):
            state.data[0] = 0.0
    finally:
        verify._oracle_state.cache_clear()


def _nan_at(values, index):
    values = np.array(values, dtype=float if np.isrealobj(values) else complex)
    values[index] = math.nan
    return values


def _poison_first(monkeypatch, owner, name, index=0):
    """owner.name gives NaN at `index` of its first result."""
    original = getattr(owner, name)
    calls = []

    def poisoned(*args, **kwargs):
        value = original(*args, **kwargs)
        calls.append(None)
        if len(calls) > 1:
            return value
        if np.ndim(value):
            return _nan_at(value, index)
        return math.nan
    monkeypatch.setattr(owner, name, poisoned)
    return calls


@pytest.mark.parametrize("suite, owner, name", [
    ("moments", states, "moment"),
    ("witnesses", witnesses, "mandel_q"),
    ("normalization", states, "photon_prob"),
    ("normalization", states, "moment"),
    ("hos", witnesses, "hos"),
    ("signs", witnesses, "mandel_q"),
    ("hosps_gate", witnesses, "hosps"),
    ("coherent", witnesses, "hoa"),
    ("fixtures", states, "moment"),
])
def test_a_nan_value_fails_its_suite(monkeypatch, suite, owner, name):
    clean = verify.run_suites([suite], report=None)[0]
    calls = _poison_first(monkeypatch, owner, name, index=1)
    result = verify.run_suites([suite], report=None)[0]
    assert calls
    assert not result.passed
    assert result.checks == clean.checks
    assert any("nan" in note for note in result.notes), result.notes


def test_the_hosps_gate_stacks_its_orders(monkeypatch):
    # one deviation call per (op, family) for the gate and one for the
    # printed-sign check, and a failed element still names its state and order
    deviations = []
    deviation, hosps = oracle.deviation, witnesses.hosps
    monkeypatch.setattr(oracle, "deviation", lambda *args: deviations.append(None) or deviation(*args))
    orders = []

    def poisoned(table, l):
        orders.append(l)
        value = hosps(table, l)
        # the first grid's order-3 row, at its third state
        return _nan_at(value, 2) if len(orders) == 2 else value
    monkeypatch.setattr(witnesses, "hosps", poisoned)
    result = verify.suite_hosps_gate()
    assert len(deviations) == 2 * len(list(verify._grid_series()))
    assert orders[:3] == [2, 3, 4]
    assert result.checks == 891
    assert result.notes[0] == f"{StateSpec.thermal(verify.RBAR_GRID[2]).canonical()} hosps(3): dev nan"


def test_an_annihilated_point_fails_the_signs_suite(monkeypatch):
    original = states._norm

    def nan_at_first_point(spec, entry=None):
        # every grid spec's norm is NaN at its first point, as where the
        # operation annihilates the state
        norm = original(spec, entry)
        return _nan_at(norm, 0) if np.ndim(spec.parameter) else norm

    monkeypatch.setattr(states, "_norm", nan_at_first_point)
    result = verify.suite_signs()
    assert not result.passed
    assert any(note.startswith("mandel(2) PSA(1,1) rbar=0.010: nan") for note in result.notes), result.notes
    assert any(note.startswith("a3 PAS(2,1) rbar=0.010: annihilated") for note in result.notes), result.notes


def test_a_singular_a3_point_stays_skipped(monkeypatch):
    original = witnesses.agarwal_tara

    def singular_at_first_point(table, *args, **kwargs):
        # NaN from the singular-denominator mask, with a finite norm
        return _nan_at(original(table, *args, **kwargs), 0)

    monkeypatch.setattr(witnesses, "agarwal_tara", singular_at_first_point)
    result = verify.suite_signs()
    # the PSA(2,1) scan now stops at its second point, not its first
    assert result.checks == SUITE_SHAPE["signs"][1] + 1
    assert [note[:20] for note in result.notes] == ["a3 PSA(2,1) rbar=0.0"]
    assert "nan" not in result.notes[0] and "annihilated" not in result.notes[0]


@pytest.mark.parametrize("provenances, passed", [
    (("analytic",), False),
    (("analytic", "oracle"), True),
], ids=["analytic-only", "both-engines"])
def test_an_indeterminate_a3_passes_only_on_both_engines(monkeypatch, provenances, passed):
    original = witnesses.agarwal_tara

    def nan_at_second_state(table, *args, **kwargs):
        # NaN, as where the denominator vanishes, at the second state of
        # every table of the given engines
        value = original(table, *args, **kwargs)
        return _nan_at(value, 1) if table.provenance in provenances else value

    monkeypatch.setattr(witnesses, "agarwal_tara", nan_at_second_state)
    result = verify.suite_witnesses()
    assert result.passed is passed
    assert result.checks == SUITE_SHAPE["witnesses"][1]
    if not passed:
        assert result.notes and all("agarwal_tara: dev nan" in note for note in result.notes), result.notes
