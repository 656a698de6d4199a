"""Verification suites: closed forms against the brute-force oracle.

Each suite returns a SuiteResult with the worst observed deviation; the
`verify` CLI command and the acceptance tests both run through here so they
cannot drift apart. Tolerances are pinned to the contract values and can
only be overridden explicitly (e.g. `verify --tol 1e-15` to demonstrate the
gate is live). The suites of TOL_SUITES read that override; a tolerance
given to a selection with none of them is a ValueError, not ignored.

The suites of GRID_SUITES in one run_suites call share one record per
family (_Family), built at the first of them and released when the call
returns: the family's spec grid on both engines, in columns ordered by
operation, then by point, with one analytic table, the oracle states of one
growth and one oracle table filled by one gather per cutoff. Each witness
body, deviation and tally runs once per family over every column, and each
engine fills once per family: the analytic table with one states.moment
call on the family's stack of grid specs, the oracle with one growth and
one gather.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracle as oracle_mod
from . import states as states_mod
from . import sweep_report
from . import witnesses as witnesses_mod
from .records import Record
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

# the suites that take a tolerance, which run_suites' tol overrides
TOL_SUITES = ("moments", "witnesses", "hosps_gate", "coherent", "fixtures")
# the suites that read the _Family records, which one run_suites call shares
GRID_SUITES = ("moments", "witnesses", "normalization", "hosps_gate")


class SuiteResult(Record):
    name: str
    passed: bool
    max_deviation: float
    checks: int
    notes: list[str] = []

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


def _engineering_ops() -> list[EngineeringOp]:
    """The bare state and every PAS/PSA operation with p, q <= 3."""
    ops = [EngineeringOp.bare()]
    for p in range(4):
        for q in range(4):
            ops.append(EngineeringOp.pas(p, q))
            ops.append(EngineeringOp.psa(p, q))
    return ops


_GRID_VALUES = {states_mod.FAMILY_THERMAL: RBAR_GRID, states_mod.FAMILY_EVEN_COHERENT: ALPHA_GRID}


def _moment_suite_pairs(family) -> list[tuple[int, int]]:
    """The pairs suite_moments checks: <a'^n a^n>, n <= 5, and off the
    diagonal m, n <= 4 where the family is not Fock-diagonal."""
    pairs = [(n, n) for n in range(6)]
    if not family.diagonal:
        pairs += [(m, n) for m in range(5) for n in range(5) if m != n]
    return pairs


# read for membership only
_WITNESS_OPS = frozenset((
    EngineeringOp.bare(),
    EngineeringOp.pas(1, 1),
    EngineeringOp.pas(1, 2),
    EngineeringOp.pas(2, 1),
    EngineeringOp.psa(1, 1),
    EngineeringOp.psa(1, 2),
    EngineeringOp.psa(2, 1),
))


_WITNESS_VALUES = {states_mod.FAMILY_THERMAL: (0.5, 1.0, 2.0),
                   states_mod.FAMILY_EVEN_COHERENT: (0.7, 1.2, 2.0)}

# the (witness, order) reads of suite_witnesses' moment witnesses, one row
# each in this order; A3 reads no order
_WITNESS_READS = [(w, l) for l in (2, 3) for w in ("mandel", "hoa", "hosps")] + [
    ("hos", 2), ("hos", 4), ("agarwal_tara", 0)]


_HOSPS_ORDERS = (2, 3, 4)
_PARITY_PAIRS = ((1, 0), (2, 1), (3, 2), (3, 0))


def _grid_pairs(family) -> list[tuple[int, int]]:
    """The union of the pairs that moments, witnesses, normalization and
    hosps_gate read of the grid specs of a _Family."""
    reads = [("hosps", l) for l in _HOSPS_ORDERS] + _WITNESS_READS
    pairs = {pair for witness, order in reads for pair in witnesses_mod.moment_pairs(witness, order)}
    return sorted(pairs.union(_moment_suite_pairs(family), _PARITY_PAIRS))


class _Family:
    """One family's spec grid on both engines, in columns ordered by
    operation (as _engineering_ops() orders them), then by point: the specs
    of the columns; one analytic table over the family's _grid_pairs on
    the stack of grid specs, filled by one `moment` call (a moment's bits
    do not depend on the pairs or the stack it is asked with); the states
    of one truncated_states call over the stack (arrays read-only) and one
    oracle table over them. A witness body, a deviation and a tally then
    run once over every column. Each grid spec's photon_prob call and
    hosps_gate Poisson references stay its own (by_grid): taken over a
    family at once, the references' temporaries, sized orders x states x
    support, raise the peak memory of a verify run by about 15%."""

    def __init__(self, family):
        values = _GRID_VALUES[family]
        ops = _engineering_ops()
        grids = [StateSpec.of(family, np.array(values), op) for op in ops]
        pairs = _grid_pairs(family)
        self.family = family
        self.specs = [StateSpec.of(family, value, op) for op in ops for value in values]
        self.analytic = MomentTable.analytic(grids, pairs)
        grown = oracle_mod.truncated_states(grids, ORACLE_TAIL_TOL)
        self.by_grid = list(zip(grids, grown))
        self.states = [state for states in grown for state in states]
        for state in self.states:
            state.data.flags.writeable = False
        self.oracle = oracle_mod.moment_table_from_state(self.states, pairs, lambda: states_mod.vacuum(grids))


def _families() -> list[_Family]:
    """One _Family per family of _GRID_VALUES."""
    return [_Family(family) for family in _GRID_VALUES]


def _entries(table: MomentTable, pairs) -> np.ndarray:
    """The table's entries at the pairs, one row per pair and one column per state."""
    return np.array([table.get(*pair) for pair in pairs])


def _note(specs, labels):
    """note(i, value) for element i of an array with one row per label and
    one column per spec: the spec, the label and the value."""
    return lambda i, value: f"{specs[i % len(specs)].canonical()} {labels[i // len(specs)]} {value:.3e}"


def suite_moments(tol: float = MOMENT_TOL, families: list[_Family] | None = None) -> SuiteResult:
    """Analytic moments against oracle moments over the full spec grid:
    <a'^m a^n>, m, n <= 5, from the two tables of each family."""
    tally = _Tally()
    for record in families or _families():
        pairs = _moment_suite_pairs(record.family)
        analytic, oracle = _entries(record.analytic, pairs), _entries(record.oracle, pairs)
        tally.add(oracle_mod.deviation(analytic, oracle, oracle_mod.RELATIVE_FLOOR), tol,
                  _note(record.specs, [f"moment({m},{n}): dev" for m, n in pairs]))
    return tally.result("moments")


def _witness_limit(reference, tol: float) -> np.ndarray:
    """The limit of each witness deviation, flattened: tol at magnitude 1
    and above, where the deviation is relative, and max(WITNESS_ABS_TOL,
    tol |reference|) below, where it is absolute."""
    magnitude = np.abs(reference)
    return np.where(magnitude >= 1.0, tol, np.fmax(WITNESS_ABS_TOL, tol * magnitude)).ravel()


def suite_witnesses(tol: float = WITNESS_REL_TOL, families: list[_Family] | None = None) -> SuiteResult:
    """Every witness from analytic moments against the same witness from oracle moments.

    Each family checks its columns of _WITNESS_OPS at its values of
    _WITNESS_VALUES: the witnesses over the family's two tables, p_0 .. p_6
    from one photon_prob call per grid spec of _WITNESS_OPS and from the
    oracle states, and Husimi Q, which takes one state. A witness that is
    NaN (indeterminate) on both engines is one passing check; NaN on one
    engine only fails its check.
    """
    tally = _Tally()
    for record in families or _families():
        values = _WITNESS_VALUES[record.family]
        columns = [k for k, spec in enumerate(record.specs)
                   if spec.op in _WITNESS_OPS and spec.parameter in values]
        specs = [record.specs[k] for k in columns]
        oracle_states = [record.states[k] for k in columns]
        tables = (record.analytic, record.oracle)
        # (label, analytic values, oracle values), each over the checked states
        rows = [(f"{name}({l})" if l else name,
                 *(witnesses_mod.table_witness(table, name, l)[columns] for table in tables))
                for name, l in _WITNESS_READS]
        # p_0 .. p_6 from one photon_prob call per grid spec, and from the oracle states
        probs = (np.concatenate([states_mod.photon_prob(grid, np.arange(7))[:, np.isin(grid.parameter, values)]
                                 for grid, _ in record.by_grid if grid.op in _WITNESS_OPS], axis=1),
                 np.array([oracle_mod.oracle_photon_prob(state, np.arange(7)) for state in oracle_states]).T)
        rows += [(f"klyshko({m})", *(witnesses_mod.klyshko_from_probs(m, *p[m:m + 3]) for p in probs))
                 for m in (0, 2, 4)]
        # Husimi Q takes one state
        beta = 0.4 + 0.3j
        rows.append((f"husimi({beta})", [states_mod.husimi(spec, beta) for spec in specs],
                     [oracle_mod.oracle_husimi(state, beta) for state in oracle_states]))
        labels, a, o = zip(*rows)
        a, o = np.array(a), np.array(o)
        tally.add(oracle_mod.deviation(a, o), _witness_limit(o, tol),
                  _note(specs, [f"{label}: dev" for label in labels]))
    return tally.result("witnesses")


def _probability_sums(grid: StateSpec, states) -> np.ndarray:
    """Each state's p_m summed to the cutoff of its oracle state, from one photon_prob call."""
    cutoffs = np.array([state.cutoff for state in states])
    probs = states_mod.photon_prob(grid, np.arange(cutoffs.max()))
    return np.where(np.arange(len(probs))[:, None] < cutoffs, probs, 0.0).sum(axis=0)


def suite_normalization(families: list[_Family] | None = None) -> SuiteResult:
    """Traces, probability sums, and parity zeros.

    Each family gives the traces of its oracle states, the probability sums
    of _probability_sums, and the parity zeros from its analytic table.
    """
    tally = _Tally()
    for record in families or _families():
        traces = np.array([state.probabilities().sum() for state in record.states])
        tally.add(np.abs(traces - 1.0), NORMALIZATION_TOL, _note(record.specs, ["oracle trace: dev"]))
        totals = np.concatenate([_probability_sums(*part) for part in record.by_grid])
        tally.add(np.abs(totals - 1.0), PROB_SUM_TOL, _note(record.specs, ["sum p_m: dev"]))
        if not record.family.diagonal:
            tally.add(np.abs(_entries(record.analytic, _PARITY_PAIRS)), PARITY_TOL,
                      _note(record.specs, [f"parity moment({m},{n}):" for m, n in _PARITY_PAIRS]))
    return tally.result("normalization")


def suite_hos() -> SuiteResult:
    """Hong-Mandel squeezing stays non-negative on the hos panels of the
    reference figures (fig9, fig10) at 40 points per series.

    A NaN fails its check; the printed deviation is the most negative value.
    """
    tally = _Tally()
    for figure_id in ("fig9", "fig10"):
        for _, table in sweep_report.figure_pack(figure_id, steps=40).panels:
            family, l = states_mod.FAMILIES[table.metadata["family"]], table.metadata["order"]
            for label, series in table.series.items():
                op = EngineeringOp.from_label(label)
                tally.add(-np.array(series), SIGN_MAGNITUDE,
                          lambda i, dev: f"{StateSpec.of(family, table.parameter_values[i], op).canonical()} "
                                         f"hos({l}) = {-dev:.3e}")
    return tally.result("hos")


def suite_signs() -> SuiteResult:
    """Sign structure of the reference panels.

    Mandel order 2: the subtract-then-add (1,1) thermal curve goes negative
    somewhere on the window while the add-then-subtract (1,1) curve never
    does; Husimi of subtract-then-add thermal states with q > p vanishes at
    the origin; A3 of both (2,1) thermal variants never goes negative.
    Each scanned series is one grid spec, and each pair of them one stack
    in one witness call; a point where the state is annihilated (NaN norm)
    fails its check, while a singular A3 denominator is skipped.
    """
    notes = []
    checks = 0
    points = 60
    rbar_values = np.array(witnesses_mod.linspace(*states_mod.FAMILY_THERMAL.window, points))

    # the Mandel pair in one call, each variant's series a slice of it
    ops = (EngineeringOp.psa(1, 1), EngineeringOp.pas(1, 1))
    mandel = witnesses_mod.evaluate_witness([StateSpec.thermal(rbar_values, op) for op in ops], "mandel", 2).value
    minima = {}
    for k, op in enumerate(ops):
        series = mandel[k * points:(k + 1) * points]
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

    # the A3 pair in one call, likewise
    stack = [StateSpec.thermal(rbar_values, op) for op in (EngineeringOp.pas(2, 1), EngineeringOp.psa(2, 1))]
    a3_pair = witnesses_mod.evaluate_witness(stack, "agarwal_tara").value
    for k, spec in enumerate(stack):
        op, a3 = spec.op, a3_pair[k * points:(k + 1) * points]
        # a NaN where the norm is not is a singular denominator, skipped as
        # it compares False below
        for i in np.flatnonzero(np.isnan(spec._norm)):
            notes.append(f"a3 {op.label()} rbar={rbar_values[i]:.3f}: annihilated (NaN norm)")
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


def _oracle_hosps_direct(states, orders) -> np.ndarray:
    """For each l of orders (rows) and each oracle state of a list (columns),
    the state's l-th central number moment minus that of the same-mean
    Poisson distribution, every state's reference from one array call. Each
    state's distribution and mean are read once."""
    central, means = [], []
    for state in states:
        probs = state.probabilities()
        k = np.arange(len(probs), dtype=float)
        means.append(float(np.dot(probs, k)))
        central.append([float(np.dot(probs, (k - means[-1]) ** l)) for l in orders])
    poisson = oracle_mod.oracle_poissonian_central_moment(np.array(means), orders)
    return np.array(central).T - np.array(poisson)


def suite_hosps_gate(tol: float = WITNESS_REL_TOL, families: list[_Family] | None = None) -> SuiteResult:
    """Arbitrate the combinatorial HOSPS form against the direct definition.

    The direct reference is the oracle's central number moment minus the
    same-mean Poissonian central moment. The shipped hosps() must match it;
    the paper's printed (-1)^e sign, (-1)^l times hosps(), is ruled out at
    odd l. Each family gives hosps of every order over its analytic table,
    and the references of its oracle states, taken grid spec by grid spec;
    each deviation is held to the limit of suite_witnesses (_witness_limit).
    """
    tally = _Tally()
    orders = _HOSPS_ORDERS
    for record in families or _families():
        # one row per order, one column per state
        direct = np.array([witnesses_mod.hosps(record.analytic, l) for l in orders])
        references = np.concatenate([_oracle_hosps_direct(states, orders) for _, states in record.by_grid],
                                    axis=1)
        tally.add(oracle_mod.deviation(direct, references), _witness_limit(references, tol),
                  _note(record.specs, [f"hosps({l}): dev" for l in orders]))
    result = tally.result("hosps_gate")
    # a fixed note: the printed sign flips hosps' (-1)^(l-e) by (-1)^l term by
    # term, so the relation holds by construction and needs no check
    result.notes.append("printed-sign variant = (-1)^l * direct definition; direct used")
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


# exact rational / closed-form values as (canonical, quantity, value), read
# as the records of fixtures.txt are, on the analytic engine at
# EXACT_FIXTURE_TOL
_EXACT_FIXTURES = (
    ("thermal(rbar=1.0)|PAS(1,1)", "moment(1,1)", 10.0 / 3.0),
    ("thermal(rbar=1.0)|PSA(1,1)", "moment(1,1)", 13.0 / 3.0),
    ("thermal(rbar=1.0)|PSA(1,1)", "mandel(2)", 17.0 / 39.0),
    ("thermal(rbar=1.0)|PSA(1,1)", "hoa(2)", 17.0 / 9.0),
    ("thermal(rbar=1.0)|bare", "agarwal_tara(0)", 1.0 / 7.0),
    ("thermal(rbar=1.0)|bare", "klyshko(2)", 1.0 / 256.0),
    ("thermal(rbar=1.0)|bare", "husimi(0j)", 1.0 / (2.0 * math.pi)),
)


def _frozen_quantity(spec: StateSpec, quantity: str, engine: witnesses_mod.Engine) -> float:
    """Evaluate a fixture quantity on an engine's route (a record of
    witnesses.ENGINES), as the witnesses read it (an oracle basis is built
    fresh): a moment(m,n), photon_prob(m), husimi(beta) or any witness of
    WITNESS_READS at its order, such as mandel(2)."""
    name, _, argument = quantity[:-1].partition("(")
    tail_tol = oracle_mod.DEFAULT_TAIL_TOL
    if name == "moment":
        pair = tuple(int(v) for v in argument.split(","))
        return engine.moment_table(spec, (pair,), tail_tol).get(*pair).real
    if name == "photon_prob":
        return float(engine.photon_probs(spec, np.array([int(argument)]), tail_tol)[0])
    if name == "husimi":
        return float(engine.husimi(spec, np.array(complex(argument)), tail_tol))
    if name in witnesses_mod.WITNESS_READS:
        return witnesses_mod.evaluate_witness(spec, name, int(argument), engine=engine.name,
                                              tail_tol=tail_tol).value
    raise ValueError(f"unknown fixture quantity {quantity!r}")


def load_packaged_fixtures():
    # imported here, as only a fixtures read needs it
    from importlib import resources

    text = resources.files("fockwitness").joinpath("data/fixtures.txt").read_text()
    return oracle_mod.parse_fixtures(text)


def suite_fixtures(tol: float = EXACT_FIXTURE_TOL) -> SuiteResult:
    """The exact rows of _EXACT_FIXTURES on the analytic engine at tol, then
    the frozen oracle records of fixtures.txt on both engines at
    WITNESS_REL_TOL, every one read by _frozen_quantity."""
    tally = _Tally()
    rows = [(*row, witnesses_mod.engines("analytic"), tol) for row in _EXACT_FIXTURES]
    rows += [(record.canonical, record.quantity, record.value, witnesses_mod.engines("both"), WITNESS_REL_TOL)
             for record in load_packaged_fixtures()]
    for canonical, quantity, expected, engines, limit in rows:
        spec = StateSpec.from_canonical(canonical)
        for engine in engines:
            value = _frozen_quantity(spec, quantity, engine)
            tally.add(oracle_mod.deviation(value, expected, oracle_mod.RELATIVE_FLOOR), limit,
                      lambda i, dev: f"{canonical} {quantity} [{engine.name}]: dev {dev:.3e}")
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
SUITE_NAMES = tuple(_SUITES)


def tolerance(value) -> float:
    """value as a tolerance: a finite number >= 0, else ValueError (a NaN
    or negative tolerance would fail every check, and inf pass every one)."""
    tol = float(value)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance {value!r} is not a finite number >= 0")
    return tol


def run_suites(names=None, tol: float | None = None, report=print) -> list[SuiteResult]:
    """Run the requested suites (all by default) and report one line each;
    an unknown suite, or one named twice, raises ValueError before any
    runs. tol overrides the tolerance of the selected suites of TOL_SUITES;
    it raises ValueError where none is selected, or where it is not a
    tolerance(). The suites of GRID_SUITES in one call share one _Family
    per family, built at the first of them."""
    selected = list(names) if names else list(SUITE_NAMES)
    for name in selected:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
        if selected.count(name) > 1:
            raise ValueError(f"suite {name!r} is selected twice")
    if tol is not None and not set(selected) & set(TOL_SUITES):
        raise ValueError(f"no selected suite reads a tolerance (those that do: {', '.join(TOL_SUITES)})")
    if tol is not None:
        tol = tolerance(tol)
    # the families of this call, released when it returns
    families = None
    results = []
    for name in selected:
        args = (tol,) if tol is not None and name in TOL_SUITES else ()
        if name in GRID_SUITES:
            families = families or _families()
            result = _SUITES[name](*args, families=families)
        else:
            result = _SUITES[name](*args)
        results.append(result)
        if report:
            report(result.line())
            for note in result.notes:
                report(f"  {note}")
    return results
