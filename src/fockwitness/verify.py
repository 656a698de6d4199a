"""Verification suites: closed forms against the brute-force oracle.

Each suite returns a SuiteResult with the worst observed deviation; the
`verify` CLI command and the acceptance tests both run through here so they
cannot drift apart. Tolerances are pinned to the contract values and can
only be overridden explicitly (e.g. `verify --tol 1e-15` to demonstrate the
gate is live).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from importlib import resources

import numpy as np

from . import oracle as oracle_mod
from . import states as states_mod
from . import sweep_report
from . import witnesses as witnesses_mod
from .states import EngineeringOp, MomentTable, StateSpec

MOMENT_TOL = 1e-8
WITNESS_REL_TOL = 1e-8
WITNESS_ABS_TOL = 1e-10
NORMALIZATION_TOL = 1e-10
PROB_SUM_TOL = 1e-9
PARITY_TOL = 1e-12
SIGN_MAGNITUDE = 1e-10
EXACT_FIXTURE_TOL = 1e-10
COHERENT_BASELINE_TOL = 1e-9

# high moments amplify the truncated tail by ~k^5, so verification
# builds converge the oracle well past the comparison tolerance
ORACLE_TAIL_TOL = 1e-15

RBAR_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
ALPHA_GRID = (0.3, 0.7, 1.2, 2.0)

SUITE_NAMES = (
    "moments",
    "witnesses",
    "normalization",
    "hos",
    "signs",
    "hosps_gate",
    "coherent",
    "fixtures",
    "determinism",
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    checks: int
    notes: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.checks} checks, max deviation {self.max_deviation:.3e}"


class _Tally:
    """The checks of one suite: their count, the worst deviation, and one
    note per failed check. A NaN deviation fails its check; the worst
    deviation is taken over the others."""

    def __init__(self):
        self.checks = 0
        self.worst = 0.0
        self.notes: list[str] = []

    def add(self, dev, limit, note) -> None:
        """One check per element of dev, failed unless dev <= limit there;
        note(i, dev_i) describes failed element i."""
        dev = np.asarray(dev, dtype=float).ravel()
        self.checks += dev.size
        self.worst = float(np.fmax.reduce(dev, initial=self.worst))
        self.notes.extend(note(i, dev[i]) for i in np.flatnonzero(~(dev <= limit)))

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name, not self.notes, self.worst, self.checks, self.notes[:10])


def _engineering_ops(max_order: int = 3) -> list[EngineeringOp]:
    ops = [EngineeringOp.bare()]
    for p in range(max_order + 1):
        for q in range(max_order + 1):
            ops.append(EngineeringOp.pas(p, q))
            ops.append(EngineeringOp.psa(p, q))
    return ops


def _grid_series(max_order: int = 3):
    """(op, family, values): the spec grid, one grid spec per (op, family)."""
    for op in _engineering_ops(max_order):
        yield op, states_mod.FAMILY_THERMAL, RBAR_GRID
        yield op, states_mod.FAMILY_EVEN_COHERENT, ALPHA_GRID


@lru_cache(maxsize=None)
def _oracle_state(spec: StateSpec) -> oracle_mod.TruncatedState:
    """The spec's oracle state at ORACLE_TAIL_TOL, built once per run and
    shared by every suite; its arrays are read-only."""
    state = oracle_mod.build_truncated(spec, ORACLE_TAIL_TOL)
    state.data.flags.writeable = False
    return state


def _table(spec: StateSpec, *reads) -> MomentTable:
    """The analytic table of spec, filled with the pairs that the given
    (witness, order) reads take."""
    pairs = {pair for witness, order in reads for pair in witnesses_mod._moment_pairs(witness, order)}
    return MomentTable.analytic(spec, sorted(pairs))


def suite_moments(tol: float = MOMENT_TOL) -> SuiteResult:
    """Analytic moments against oracle moments over the full spec grid.

    Each (op, family) is one grid spec on the analytic side, all its pairs
    one moment call, and each state one oracle_moment call for the same
    pairs <a'^m a^n>, m, n <= 5.
    """
    tally = _Tally()
    for op, family, values in _grid_series():
        specs = [StateSpec.of(family, value, op) for value in values]
        pairs = [(n, n) for n in range(6)]
        if not family.diagonal:
            pairs += [(m, n) for m in range(5) for n in range(5) if m != n]
        ms, ns = np.array(pairs).T
        # one row per pair, one column per state
        analytic = states_mod.moment(StateSpec.of(family, np.array(values), op), ms, ns)
        oracle = np.array([oracle_mod.oracle_moment(_oracle_state(s), ms, ns) for s in specs]).T

        def note(i, dev):
            pair, state = divmod(i, len(specs))
            return f"{specs[state].canonical()} moment({ms[pair]},{ns[pair]}): dev {dev:.3e}"

        tally.add(oracle_mod.deviation(analytic, oracle, oracle_mod.RELATIVE_FLOOR), tol, note)
    return tally.result("moments")


_WITNESS_OPS = (
    EngineeringOp.bare(),
    EngineeringOp.pas(1, 1),
    EngineeringOp.pas(1, 2),
    EngineeringOp.pas(2, 1),
    EngineeringOp.psa(1, 1),
    EngineeringOp.psa(1, 2),
    EngineeringOp.psa(2, 1),
)


_WITNESS_VALUES = ((states_mod.FAMILY_THERMAL, (0.5, 1.0, 2.0)),
                   (states_mod.FAMILY_EVEN_COHERENT, (0.7, 1.2, 2.0)))


def suite_witnesses(tol: float = WITNESS_REL_TOL) -> SuiteResult:
    """Every witness from analytic moments against the same witness from oracle moments.

    Each (op, family) is one grid spec: one analytic table, and one oracle
    table over the run's shared oracle states of its points. A witness that
    is NaN (indeterminate) on both engines is one passing check; NaN on one
    engine only fails its check.
    """
    tally = _Tally()
    for op, (family, values) in product(_WITNESS_OPS, _WITNESS_VALUES):
        specs = [StateSpec.of(family, value, op) for value in values]
        grid = StateSpec.of(family, np.array(values), op)
        analytic = _table(grid, *((w, l) for w in ("mandel", "hoa", "hosps") for l in (2, 3)),
                          ("hos", 2), ("hos", 4), ("agarwal_tara", 0))
        oracle_states = [_oracle_state(spec) for spec in specs]
        tables = (analytic, oracle_mod.moment_table_from_state(oracle_states, grid, analytic.pairs))
        # (label, analytic values, oracle values), each over the states
        rows = [(f"{name}({l})", *(witness(table, l) for table in tables)) for l in (2, 3)
                for name, witness in (("mandel", witnesses_mod.mandel_q), ("hoa", witnesses_mod.hoa),
                                      ("hosps", witnesses_mod.hosps))]
        rows += [(f"hos({l})", *(witnesses_mod.hos(table, l) for table in tables)) for l in (2, 4)]
        rows.append(("agarwal_tara", *map(witnesses_mod.agarwal_tara, tables)))
        # p_0 .. p_6 of every state from one photon_prob call, and from the
        # shared oracle states
        probs = (states_mod.photon_prob(grid, np.arange(7)),
                 np.array([oracle_mod.oracle_photon_prob(state, np.arange(7)) for state in oracle_states]).T)
        rows += [(f"klyshko({m})", *(witnesses_mod.klyshko_from_probs(m, *p[m:m + 3]) for p in probs))
                 for m in (0, 2, 4)]
        # Husimi Q takes one state
        beta = 0.4 + 0.3j
        rows.append((f"husimi({beta})", [states_mod.husimi(spec, beta) for spec in specs],
                     [oracle_mod.oracle_husimi(state, beta) for state in oracle_states]))
        labels, a, o = zip(*rows)
        a, o = np.array(a), np.array(o)
        dev = oracle_mod.deviation(a, o)
        limit = np.where(np.abs(o) >= 1.0, tol, np.fmax(WITNESS_ABS_TOL, tol * np.abs(o)))
        tally.add(dev, limit.ravel(), lambda i, dev: f"{specs[i % len(specs)].canonical()} "
                                                     f"{labels[i // len(specs)]}: dev {dev:.3e}")
    return tally.result("witnesses")


def suite_normalization() -> SuiteResult:
    """Traces, probability sums, and parity zeros.

    Each (op, family) is one grid spec on the analytic side: one
    photon_prob call gives p_m of every state up to the largest oracle
    cutoff, each state summing its own up to its cutoff, and one moment
    call the parity zeros.
    """
    tally = _Tally()
    for op, family, values in _grid_series():
        specs = [StateSpec.of(family, value, op) for value in values]
        grid = StateSpec.of(family, np.array(values), op)
        oracle_states = [_oracle_state(spec) for spec in specs]
        traces = np.array([state.probabilities().sum() for state in oracle_states])
        tally.add(np.abs(traces - 1.0), NORMALIZATION_TOL,
                  lambda i, dev: f"{specs[i].canonical()} oracle trace: dev {dev:.3e}")
        cutoffs = np.array([state.cutoff for state in oracle_states])
        probs = states_mod.photon_prob(grid, np.arange(cutoffs.max()))
        totals = np.where(np.arange(len(probs))[:, None] < cutoffs, probs, 0.0).sum(axis=0)
        tally.add(np.abs(totals - 1.0), PROB_SUM_TOL,
                  lambda i, dev: f"{specs[i].canonical()} sum p_m: dev {dev:.3e}")
        if not family.diagonal:
            ms, ns = np.array(((1, 0), (2, 1), (3, 2), (3, 0))).T

            def note(i, value):
                pair, state = divmod(i, len(values))
                return f"{specs[state].canonical()} parity moment({ms[pair]},{ns[pair]}): {value:.3e}"

            tally.add(np.abs(states_mod.moment(grid, ms, ns)), PARITY_TOL, note)
    return tally.result("normalization")


def suite_hos(points: int = 40) -> SuiteResult:
    """Hong-Mandel squeezing stays non-negative over the plotted windows.

    Each scanned series is one grid spec. A NaN fails its check; the printed
    deviation is the most negative value.
    """
    tally = _Tally()
    for family in states_mod.FAMILIES.values():
        values = np.array(witnesses_mod._linspace(*family.window, points))
        for l, p, q in ((2, 1, 1), (4, 1, 2), (6, 2, 1)):
            for op in (EngineeringOp.pas(p, q), EngineeringOp.psa(p, q)):
                s = witnesses_mod.hos(_table(StateSpec.of(family, values, op), ("hos", l)), l)
                tally.add(-s, SIGN_MAGNITUDE,
                          lambda i, dev: f"{StateSpec.of(family, values[i], op).canonical()} "
                                         f"hos({l}) = {-dev:.3e}")
    return tally.result("hos")


def suite_signs(points: int = 60) -> SuiteResult:
    """Sign structure of the reference panels.

    Mandel order 2: the subtract-then-add (1,1) thermal curve goes negative
    somewhere on the window while the add-then-subtract (1,1) curve never
    does; Husimi of subtract-then-add thermal states with q > p vanishes at
    the origin; A3 of both (2,1) thermal variants never goes negative.
    Each scanned series is one grid spec; a point where the state is
    annihilated (NaN norm) fails its check, while a singular A3 denominator
    is skipped.
    """
    notes = []
    checks = 0
    rbar_values = np.array(witnesses_mod._linspace(*states_mod.FAMILY_THERMAL.window, points))

    minima = {}
    for op in (EngineeringOp.psa(1, 1), EngineeringOp.pas(1, 1)):
        series = witnesses_mod.mandel_q(_table(StateSpec.thermal(rbar_values, op), ("mandel", 2)), 2)
        checks += points
        # NaN only where the norm is (an annihilated state)
        for i in np.flatnonzero(np.isnan(series)):
            notes.append(f"mandel(2) {op.label()} rbar={rbar_values[i]:.3f}: nan")
        minima[op.order] = float(np.fmin.reduce(series, initial=math.inf))
    psat_min = minima[states_mod.ORDER_SUBTRACT_THEN_ADD]
    past_min = minima[states_mod.ORDER_ADD_THEN_SUBTRACT]
    if not psat_min < -SIGN_MAGNITUDE:
        notes.append(f"mandel(2) PSA(1,1) thermal never negative (min {psat_min:.3e})")
    if past_min < -SIGN_MAGNITUDE:
        notes.append(f"mandel(2) PAS(1,1) thermal goes negative (min {past_min:.3e})")

    for p, q, rbar in ((2, 4, 2.0), (1, 2, 1.0)):
        spec = StateSpec.thermal(rbar, EngineeringOp.psa(p, q))
        q0 = states_mod.husimi(spec, 0j)
        checks += 1
        if not q0 == 0.0:
            notes.append(f"{spec.canonical()} husimi(0) = {q0!r}, expected exact 0")

    for op in (EngineeringOp.pas(2, 1), EngineeringOp.psa(2, 1)):
        table = _table(StateSpec.thermal(rbar_values, op), ("agarwal_tara", 0))
        # <1> is NaN exactly where the norm is; any other NaN is a singular
        # denominator, skipped as it compares False below
        for i in np.flatnonzero(np.isnan(table.get(0, 0).real)):
            notes.append(f"a3 {op.label()} rbar={rbar_values[i]:.3f}: annihilated (NaN norm)")
        a3 = witnesses_mod.agarwal_tara(table)
        negative = np.flatnonzero(a3 < -SIGN_MAGNITUDE)
        if not negative.size:
            checks += points
            continue
        # the scan stops at the first negative value
        first = int(negative[0])
        checks += first + 1
        # Known irreproducible reference claim for the subtract-then-add
        # variant: the state tends to the one-photon Fock state as
        # rbar -> 0 and the determinant witness genuinely detects it
        # (negative A3 for rbar below about 1.045; the closed form and the
        # crossing are pinned by tests/test_acceptance.py::
        # test_criterion_3d_a3_sign_structure_subtract_heavy). Reported
        # honestly as a failure.
        notes.append(
            f"a3 {op.label()} rbar={rbar_values[first]:.3f}: {a3[first]:.3e} "
            "(genuine negativity; the state tends to the one-photon "
            "Fock state, which this witness detects)"
        )
    return SuiteResult("signs", not notes, 0.0, checks, notes[:10])


def _oracle_hosps_direct(state, orders) -> list[float]:
    """For each l of orders, the oracle's l-th central number moment minus
    that of the same-mean Poisson distribution; the distribution and its
    mean are read once."""
    probs = state.probabilities()
    k = np.arange(len(probs), dtype=float)
    mean = float(np.dot(probs, k))
    poisson = oracle_mod.oracle_poissonian_central_moment(mean, orders)
    return [float(np.dot(probs, (k - mean) ** l)) - reference for l, reference in zip(orders, poisson)]


def suite_hosps_gate(tol: float = WITNESS_REL_TOL) -> SuiteResult:
    """Arbitrate the combinatorial HOSPS form against the direct definition.

    The direct reference is the oracle's central number moment minus the
    same-mean Poissonian central moment. The shipped hosps() must match it;
    the printed-sign variant is logged with its correction factor. Each
    (op, family) is one grid spec on the analytic side.
    """
    tally = _Tally()
    orders = (2, 3, 4)
    # (-1)^l, one row per order
    signs = np.array([(-1) ** l for l in orders])[:, None]
    printed_relation_holds = True
    for op, family, values in _grid_series():
        specs = [StateSpec.of(family, value, op) for value in values]
        # one row per order, one column per state
        references = np.array([_oracle_hosps_direct(_oracle_state(s), orders) for s in specs]).T
        table = _table(StateSpec.of(family, np.array(values), op), *(("hosps", l) for l in orders))
        direct = np.array([witnesses_mod.hosps(table, l) for l in orders])
        tally.add(oracle_mod.deviation(direct, references), max(tol, WITNESS_ABS_TOL),
                  lambda i, dev: f"{specs[i % len(specs)].canonical()} "
                                 f"hosps({orders[i // len(specs)]}): dev {dev:.3e}")
        printed = np.array([witnesses_mod.hosps_printed_form(table, l) for l in orders])
        printed_relation_holds &= bool(np.all(oracle_mod.deviation(printed, signs * direct) <= 1e-9))
    if printed_relation_holds:
        notes_extra = "printed-sign variant = (-1)^l * direct definition; direct used"
    else:
        notes_extra = "printed-sign variant relation UNEXPECTED; direct definition used"
    result = tally.result("hosps_gate")
    result.notes.append(notes_extra)
    return result


def suite_coherent(tol: float = COHERENT_BASELINE_TOL) -> SuiteResult:
    """Coherent states sit exactly on the classical boundary.

    Antibunching, sub-Poissonian, squeezing, and the default A3 all evaluate
    to zero; the power-of-mean A3 variant has both determinants vanish and
    must report an indeterminate (singular) witness.
    """
    tally = _Tally()
    amps = (0.5, 1.0, 2.0)
    table = oracle_mod.moment_table_from_state(
        [oracle_mod.coherent_truncated(amp, ORACLE_TAIL_TOL) for amp in amps])
    values = []
    for l in (2, 3, 4):
        values += [(f"hoa({l})", witnesses_mod.hoa(table, l)),
                   (f"hosps({l})", witnesses_mod.hosps(table, l))]
    values += [("hos(2)", witnesses_mod.hos(table, 2)),
               ("agarwal_tara", witnesses_mod.agarwal_tara(table))]
    for label, value in values:
        tally.add(abs(value), tol, lambda i, dev: f"coherent |{amps[i]}| {label}: {value[i]:.3e}")
    # NaN where indeterminate
    singular = np.isnan(witnesses_mod.agarwal_tara(table, witnesses_mod.VARIANT_POWER_OF_MEAN))
    tally.checks += len(amps)
    tally.notes.extend(f"coherent |{amps[i]}| agarwal_tara(power_of_mean) did not report "
                       "a singular denominator" for i in np.flatnonzero(~singular))
    return tally.result("coherent")


# exact rational / closed-form values, pinned at EXACT_FIXTURE_TOL
def _exact_fixtures():
    past11 = StateSpec.thermal(1.0, EngineeringOp.pas(1, 1))
    psat11 = StateSpec.thermal(1.0, EngineeringOp.psa(1, 1))
    bare = StateSpec.thermal(1.0)
    return (
        ("moment(1,1) PAS thermal", lambda: states_mod.moment(past11, 1, 1).real, 10.0 / 3.0),
        ("moment(1,1) PSA thermal", lambda: states_mod.moment(psat11, 1, 1).real, 13.0 / 3.0),
        ("mandel(2) PSA thermal",
         lambda: witnesses_mod.mandel_q(_table(psat11, ("mandel", 2)), 2), 17.0 / 39.0),
        ("hoa(2) PSA thermal", lambda: witnesses_mod.hoa(_table(psat11, ("hoa", 2)), 2), 17.0 / 9.0),
        ("a3 bare thermal", lambda: witnesses_mod.agarwal_tara(_table(bare, ("agarwal_tara", 0))), 1.0 / 7.0),
        ("klyshko(2) bare thermal", lambda: witnesses_mod.klyshko(bare, 2), 1.0 / 256.0),
        ("husimi(0) bare thermal", lambda: states_mod.husimi(bare, 0j), 1.0 / (2.0 * math.pi)),
    )


def _frozen_quantity(spec: StateSpec, quantity: str, engine: str) -> float:
    """Evaluate a fixture quantity on either engine's route, as the
    witnesses read it (an oracle basis is built fresh)."""
    name, _, argument = quantity[:-1].partition("(")
    tail_tol = oracle_mod.DEFAULT_TAIL_TOL
    if name == "moment":
        pair = tuple(int(v) for v in argument.split(","))
        return witnesses_mod._moment_table(spec, engine, tail_tol, (pair,)).get(*pair).real
    if name == "photon_prob":
        return float(witnesses_mod._photon_probs(spec, np.array([int(argument)]), engine, tail_tol)[0, 0])
    if name == "husimi":
        return float(witnesses_mod._husimi(spec, np.array(complex(argument)), engine, tail_tol))
    if name == "hosps":
        l = int(argument)
        return witnesses_mod.hosps(witnesses_mod._moment_table(
            spec, engine, tail_tol, witnesses_mod._moment_pairs("hosps", l)), l)
    raise ValueError(f"unknown fixture quantity {quantity!r}")


def load_packaged_fixtures():
    text = resources.files("fockwitness").joinpath("data/fixtures.txt").read_text()
    return oracle_mod.parse_fixtures(text)


def suite_fixtures(tol: float = EXACT_FIXTURE_TOL) -> SuiteResult:
    """Exact derived values plus the frozen oracle fixture file."""
    tally = _Tally()
    for label, compute, expected in _exact_fixtures():
        tally.add(oracle_mod.deviation(float(compute()), expected, oracle_mod.RELATIVE_FLOOR), tol,
                  lambda i, dev: f"{label}: dev {dev:.3e}")
    for record in load_packaged_fixtures():
        spec = StateSpec.from_canonical(record.canonical)
        for engine in witnesses_mod.ENGINES:
            value = _frozen_quantity(spec, record.quantity, engine)
            tally.add(oracle_mod.deviation(value, record.value, oracle_mod.RELATIVE_FLOOR), WITNESS_REL_TOL,
                      lambda i, dev: f"{record.canonical} {record.quantity} [{engine}]: dev {dev:.3e}")
    return tally.result("fixtures")


def suite_determinism() -> SuiteResult:
    """Identical configuration must give byte-identical CSV output."""
    notes = []
    checks = 0
    for figure_id, steps, grid_steps in (("fig11", 9, None), ("fig7", None, 7)):
        first = sweep_report.figure_pack(figure_id, steps=steps, grid_steps=grid_steps)
        second = sweep_report.figure_pack(figure_id, steps=steps, grid_steps=grid_steps)
        for (name_a, panel_a), (name_b, panel_b) in zip(first.panels, second.panels):
            checks += 1
            if sweep_report.panel_csv(panel_a) != sweep_report.panel_csv(panel_b):
                notes.append(f"{figure_id} panel {name_a}: output differs between runs")
    return SuiteResult("determinism", not notes, 0.0, checks, notes)


_SUITES = {
    "moments": suite_moments,
    "witnesses": suite_witnesses,
    "normalization": suite_normalization,
    "hos": suite_hos,
    "signs": suite_signs,
    "hosps_gate": suite_hosps_gate,
    "coherent": suite_coherent,
    "fixtures": suite_fixtures,
    "determinism": suite_determinism,
}


def run_suites(names=None, tol: float | None = None, report=print) -> list[SuiteResult]:
    """Run the requested suites (all by default) and report one line each."""
    selected = list(names) if names else list(SUITE_NAMES)
    results = []
    for name in selected:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
        suite = _SUITES[name]
        if tol is not None and name in ("moments", "witnesses", "hosps_gate", "fixtures"):
            result = suite(tol)
        else:
            result = suite()
        results.append(result)
        if report:
            report(result.line())
            for note in result.notes:
                report(f"  {note}")
    return results
