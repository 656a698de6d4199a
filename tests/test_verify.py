import gc
import importlib.util
import math
import pathlib
import weakref

import numpy as np
import pytest

from bits import float_bits
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
    canonicals = [record.canonical for record in verify.load_packaged_fixtures()]
    canonicals += [canonical for canonical, _, _ in verify._EXACT_FIXTURES]
    for canonical in canonicals:
        assert StateSpec.from_canonical(canonical).canonical() == canonical


def test_the_freeze_plan_regenerates_the_committed_fixtures():
    # every row of scripts/freeze_fixtures.py, evaluated without writing
    # fixtures.txt: the committed record's spec, quantity and cutoff, and its
    # value within the tolerance the fixtures suite reads the file at
    path = pathlib.Path(__file__).parent.parent / "scripts" / "freeze_fixtures.py"
    spec = importlib.util.spec_from_file_location("freeze_fixtures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    committed = verify.load_packaged_fixtures()
    assert len(script.PLAN) == len(committed)
    for (state_spec, quantity, evaluate), record in zip(script.PLAN, committed):
        fresh = oracle.stable_oracle_value(evaluate, state_spec, quantity)
        assert (fresh.canonical, fresh.quantity, fresh.cutoff) == (record.canonical, record.quantity, record.cutoff)
        assert oracle.deviation(fresh.value, record.value, oracle.RELATIVE_FLOOR) <= verify.WITNESS_REL_TOL, quantity


def test_each_exact_fixture_reads_the_value_of_its_direct_call():
    # each exact row, read through the one fixture route, gives bit for bit
    # the float of the direct library call for its quantity
    past11 = StateSpec.thermal(1.0, EngineeringOp.pas(1, 1))
    psat11 = StateSpec.thermal(1.0, EngineeringOp.psa(1, 1))
    bare = StateSpec.thermal(1.0)
    direct = [
        states.moment(past11, 1, 1).real,
        states.moment(psat11, 1, 1).real,
        witnesses.mandel_q(states.MomentTable.analytic(psat11), 2),
        witnesses.hoa(states.MomentTable.analytic(psat11), 2),
        witnesses.agarwal_tara(states.MomentTable.analytic(bare)),
        witnesses.klyshko(bare, 2),
        states.husimi(bare, 0j),
    ]
    assert len(direct) == len(verify._EXACT_FIXTURES)
    for (canonical, quantity, _), value in zip(verify._EXACT_FIXTURES, direct):
        got = verify._frozen_quantity(StateSpec.from_canonical(canonical), quantity, witnesses.ENGINES["analytic"])
        assert float(got).hex() == float(value).hex(), (canonical, quantity)
    with pytest.raises(ValueError, match="unknown fixture quantity 'parity\\(2\\)'"):
        verify._frozen_quantity(bare, "parity(2)", witnesses.ENGINES["analytic"])


def test_run_suites_selection_and_reporting():
    lines = []
    results = verify.run_suites(["determinism"], report=lines.append)
    assert [r.name for r in results] == ["determinism"]
    assert lines and lines[0].startswith("PASS determinism")


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError):
        verify.run_suites(["numerology"])


def test_run_suites_rejects_a_repeated_suite_before_running_any():
    lines = []
    with pytest.raises(ValueError, match="suite 'determinism' is selected twice"):
        verify.run_suites(["coherent", "determinism", "determinism"], report=lines.append)
    assert lines == []


def test_overtight_tolerance_fails_fixtures():
    results = verify.run_suites(["fixtures"], tol=1e-16, report=None)
    assert not results[0].passed


def test_overtight_tolerance_fails_witnesses():
    result = verify.run_suites(["witnesses"], tol=1e-16, report=None)[0]
    assert not result.passed
    assert result.checks == SUITE_SHAPE["witnesses"][1]


def test_overtight_tolerance_fails_hosps_gate():
    # the limit is tol at magnitude 1 and above, so a deviation of 1e-15
    # there fails; at the default tolerance every check passes
    result = verify.run_suites(["hosps_gate"], tol=1e-16, report=None)[0]
    assert not result.passed
    assert result.checks == SUITE_SHAPE["hosps_gate"][1]
    assert result.notes[0].startswith("thermal(rbar=1.0)|bare hosps(2): dev ")
    assert verify.suite_hosps_gate().passed


def test_the_hosps_gate_limit_is_the_witness_limit():
    reference = np.array([[-3.0, 1.0, 0.5, 1e-4, 0.0]])
    assert verify._witness_limit(reference, 1e-8).tolist() == [1e-8, 1e-8, 5e-9, 1e-10, 1e-10]
    assert verify._witness_limit(reference, 1e-16).tolist() == [1e-16, 1e-16, 1e-10, 1e-10, 1e-10]


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
    # one growth per family in a run_suites call, over every (op, point) of
    # its grids, whose states every suite that reads the oracle shares, and
    # a fresh one in the next
    grown = []
    original = oracle._grow

    def counting(*args, **kwargs):
        states = original(*args, **kwargs)
        grown.append(states)
        return states

    monkeypatch.setattr(oracle, "_grow", counting)
    suites = ["moments", "witnesses", "normalization", "hosps_gate"]
    verify.run_suites(suites, report=None)
    assert len(grown) == len(verify._GRID_VALUES) == 2
    states = [state for grid in grown for state in grid]
    assert len(states) == 297 and None not in states
    for state in states:
        with pytest.raises(ValueError):
            state.data[0] = 0.0
    # the next call grows its own
    verify.run_suites(suites, report=None)
    assert len(grown) == 2 * 2


def test_each_family_fills_its_analytic_table_in_one_moment_call(monkeypatch):
    # one states.moment call per family, on its stack of grid specs, with
    # every pair its suites read
    calls = []
    moment = states.moment

    def counting(stack, ms, ns):
        calls.append(([spec.op for spec in stack], len(ms)))
        return moment(stack, ms, ns)

    monkeypatch.setattr(states, "moment", counting)
    verify.run_suites(["moments", "witnesses", "normalization", "hosps_gate"], report=None)
    assert calls == [(verify._engineering_ops(), len(verify._grid_pairs(family))) for family in verify._GRID_VALUES]


def test_the_grid_records_are_released_when_run_suites_returns(monkeypatch):
    # with the cyclic collector off, the records die as the call returns: a
    # reference cycle through one would keep its oracle states alive until
    # the collector runs
    made = []
    original = verify._Family

    def tracked(family):
        record = original(family)
        made.append(weakref.ref(record))
        return record

    monkeypatch.setattr(verify, "_Family", tracked)
    gc.disable()
    try:
        verify.run_suites(["normalization", "determinism"], report=None)
        alive = [ref for ref in made if ref() is not None]
    finally:
        gc.enable()
    assert len(made) == len(verify._GRID_VALUES) == 2
    assert alive == []


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf])
def test_run_suites_refuses_a_tolerance_that_is_not_finite_and_non_negative(tol):
    lines = []
    with pytest.raises(ValueError, match="is not a finite number >= 0"):
        verify.run_suites(["coherent", "fixtures"], tol=tol, report=lines.append)
    assert lines == []


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


# a family's analytic fill calls states.moment once, on its stack of grid
# specs, with every pair the family's suites read, one row each, so the
# poison of the first call goes to the second state of every pair; an exact fixture's
# first moment is a one-pair block, poisoned at its one element; elsewhere
# to element 1 of the first result
_POISON_INDEX = {("moments", "moment"): (..., 1), ("normalization", "moment"): (..., 1),
                 ("fixtures", "moment"): 0}


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
    calls = _poison_first(monkeypatch, owner, name, _POISON_INDEX.get((suite, name), 1))
    result = verify.run_suites([suite], report=None)[0]
    assert calls
    assert not result.passed
    assert result.checks == clean.checks
    assert any("nan" in note for note in result.notes), result.notes


def test_the_hosps_gate_stacks_its_orders(monkeypatch):
    # one deviation call per family, over every column of it, and a
    # failed element still names its state and order
    deviations = []
    deviation, hosps = oracle.deviation, witnesses.hosps
    monkeypatch.setattr(oracle, "deviation", lambda *args: deviations.append(None) or deviation(*args))
    orders = []

    def poisoned(table, l):
        orders.append(l)
        value = hosps(table, l)
        # the thermal family's order-3 row, at its third column: the bare
        # state's third point
        return _nan_at(value, 2) if len(orders) == 2 else value
    monkeypatch.setattr(witnesses, "hosps", poisoned)
    result = verify.suite_hosps_gate()
    assert len(deviations) == len(verify._GRID_VALUES) == 2
    assert orders[:3] == [2, 3, 4]
    assert result.checks == 891
    assert result.notes[0] == f"{StateSpec.thermal(verify.RBAR_GRID[2]).canonical()} hosps(3): dev nan"


def _own_read(op, family, engine):
    """A grid spec's own table on the engine, and its own oracle states: a
    fresh grid spec's analytic table over its family's _grid_pairs (a
    moment's bits do not depend on the pairs it is asked with), or an oracle
    table over a growth of its grid alone."""
    grid = StateSpec.of(family, np.array(verify._GRID_VALUES[family]), op)
    pairs = verify._grid_pairs(family)
    if engine == "analytic":
        return states.MomentTable.analytic(grid, pairs), None
    own = oracle.truncated_states(grid, verify.ORACLE_TAIL_TOL)
    return oracle.moment_table_from_state(own, pairs), own


@pytest.mark.parametrize("engine", ["analytic", "oracle"])
@pytest.mark.parametrize("family", list(verify._GRID_VALUES), ids=lambda family: family.name)
def test_a_family_equals_its_grids_bit_for_bit(family, engine):
    # column k of every read of a _Family is the value of its grid spec's
    # own read, grid specs in _engineering_ops() order, then points; on the
    # oracle, the grid spec's own read grows and fills its grid alone
    record = verify._Family(family)
    ops, values = verify._engineering_ops(), verify._GRID_VALUES[family]
    assert record.family == family
    assert record.specs == [StateSpec.of(family, value, op) for op in ops for value in values]
    assert [grid.op for grid, _ in record.by_grid] == ops
    assert all(np.array_equal(grid.parameter, values) for grid, _ in record.by_grid)
    assert [len(grown) for _, grown in record.by_grid] == [len(values)] * len(ops)
    each = [state for _, grown in record.by_grid for state in grown]
    assert len(each) == len(record.states) and all(a is b for a, b in zip(each, record.states))
    own = [_own_read(op, family, engine) for op in ops]
    if engine == "oracle":
        each = [state for _, grown in own for state in grown]
        assert [(s.cutoff, s.kind, s.tail_mass) for s in record.states] == [
            (s.cutoff, s.kind, s.tail_mass) for s in each]
        assert all(np.array_equal(float_bits(a.data), float_bits(b.data)) for a, b in zip(record.states, each))
    table = getattr(record, engine)
    assert table.provenance == engine
    witness = [k for k, spec in enumerate(record.specs) if spec.op in verify._WITNESS_OPS]
    for reads, columns, tables in (
            ([("hosps", l) for l in verify._HOSPS_ORDERS], slice(None), [t for t, _ in own]),
            (verify._WITNESS_READS, witness, [t for op, (t, _) in zip(ops, own) if op in verify._WITNESS_OPS])):
        for name, l in reads:
            read = witnesses.table_witness(table, name, l)
            each = np.concatenate([witnesses.table_witness(t, name, l) for t in tables])
            assert read.shape == (len(record.specs),)
            assert np.array_equal(float_bits(read[columns]), float_bits(each)), (name, l)
    for pair in verify._moment_suite_pairs(family):
        each = np.concatenate([t.get(*pair) for t, _ in own])
        assert np.array_equal(float_bits(table.get(*pair)), float_bits(each)), pair


def _labels(pair):
    return [f"{w}({l})" if l else w for w, l in verify._WITNESS_READS if pair in witnesses.moment_pairs(w, l)]


# the last grid spec of each family's checked columns, at its last point:
# PSA(3,3) for every operation, PSA(2,1) for the witness operations
@pytest.mark.parametrize("suite, op, pair, labels", [
    ("moments", EngineeringOp.psa(3, 3), (2, 3), ["moment(2,3): dev"]),
    ("hosps_gate", EngineeringOp.psa(3, 3), (2, 2), [f"hosps({l}): dev" for l in (2, 3, 4)]),
    ("normalization", EngineeringOp.psa(3, 3), (2, 1), ["parity moment(2,1):"]),
    ("witnesses", EngineeringOp.psa(2, 1), (2, 2), [f"{label}: dev" for label in _labels((2, 2))]),
], ids=["moments", "hosps_gate", "normalization", "witnesses"])
def test_a_failed_element_deep_in_a_stack_names_its_state(monkeypatch, suite, op, pair, labels):
    original = states.moment
    family = states.FAMILY_EVEN_COHERENT

    def poisoned(stack, ms, ns):
        # NaN at one pair of the family's one moment call on its stack of
        # grid specs, at the column of (op, alpha = 2.0)
        values = original(stack, ms, ns)
        if stack[0].family == family:
            row = [*zip(np.ravel(ms).tolist(), np.ravel(ns).tolist())].index(pair)
            spec = [one.op for one in stack].index(op)
            values = _nan_at(values, (row, spec * len(verify.ALPHA_GRID) + verify.ALPHA_GRID.index(2.0)))
        return values

    monkeypatch.setattr(states, "moment", poisoned)
    result = verify.run_suites([suite], report=None)[0]
    canonical = StateSpec.even_coherent(2.0, op).canonical()
    assert not result.passed
    assert result.checks == SUITE_SHAPE[suite][1]
    assert result.notes[:len(labels)] == [f"{canonical} {label} nan" for label in labels]
    assert len(result.notes) == len(labels) + (suite == "hosps_gate")


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


@pytest.mark.parametrize("sign, note", [
    (1.0, "mandel(2) PSA(1,1) thermal never negative (min "),
    (-1.0, "mandel(2) PAS(1,1) thermal goes negative (min "),
])
def test_the_signs_suite_checks_the_mandel_pair(monkeypatch, sign, note):
    # every Mandel value made positive, or negative: the pair's sign
    # structure fails on the one series that no longer holds it
    original = witnesses.mandel_q
    monkeypatch.setattr(witnesses, "mandel_q", lambda table, l: sign * abs(original(table, l)))
    mandel_notes = [line for line in verify.suite_signs().notes if line.startswith("mandel(2)")]
    assert len(mandel_notes) == 1 and mandel_notes[0].startswith(note), mandel_notes


def test_a_singular_a3_point_stays_skipped(monkeypatch):
    original = witnesses.agarwal_tara

    def singular_at_first_point(table, *args, **kwargs):
        # NaN from the singular-denominator mask, with a finite norm, at the
        # first point of each series of the stack the A3 pair is read from
        value = original(table, *args, **kwargs)
        return _nan_at(value, slice(None, None, len(value) // 2))

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
