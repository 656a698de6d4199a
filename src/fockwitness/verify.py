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
from importlib import resources

from . import oracle as oracle_mod
from . import states as states_mod
from . import sweep_report
from . import witnesses as witnesses_mod
from .errors import SingularDenominator
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


def _engineering_ops(max_order: int = 3) -> list[EngineeringOp]:
    ops = [EngineeringOp.bare()]
    for p in range(max_order + 1):
        for q in range(max_order + 1):
            ops.append(EngineeringOp.pas(p, q))
            ops.append(EngineeringOp.psa(p, q))
    return ops


def _grid_specs(max_order: int = 3):
    for op in _engineering_ops(max_order):
        for rbar in RBAR_GRID:
            yield StateSpec.thermal(rbar, op)
        for alpha in ALPHA_GRID:
            yield StateSpec.even_coherent(alpha, op)


def _rel_dev(analytic: complex, reference: complex) -> float:
    return abs(analytic - reference) / max(abs(reference), 1e-30)


def suite_moments(tol: float = MOMENT_TOL) -> SuiteResult:
    """Analytic moments against oracle moments over the full spec grid."""
    worst = 0.0
    checks = 0
    notes = []
    for spec in _grid_specs():
        state = oracle_mod.build_truncated(spec, ORACLE_TAIL_TOL)
        if spec.family == states_mod.FAMILY_THERMAL:
            pairs = [(n, n) for n in range(6)]
        else:
            pairs = [(n, n) for n in range(6)]
            pairs += [(m, n) for m in range(5) for n in range(5) if m != n]
        for m, n in pairs:
            reference = oracle_mod.oracle_moment(state, m, n)
            analytic = states_mod.moment(spec, m, n)
            dev = _rel_dev(analytic, reference)
            checks += 1
            if dev > worst:
                worst = dev
            if dev > tol:
                notes.append(f"{spec.canonical()} moment({m},{n}): dev {dev:.3e}")
    return SuiteResult("moments", worst <= tol and not notes, worst, checks, notes[:10])


_WITNESS_OPS = (
    EngineeringOp.bare(),
    EngineeringOp.pas(1, 1),
    EngineeringOp.pas(1, 2),
    EngineeringOp.pas(2, 1),
    EngineeringOp.psa(1, 1),
    EngineeringOp.psa(1, 2),
    EngineeringOp.psa(2, 1),
)


def _witness_specs():
    for op in _WITNESS_OPS:
        for rbar in (0.5, 1.0, 2.0):
            yield StateSpec.thermal(rbar, op)
        for alpha in (0.7, 1.2, 2.0):
            yield StateSpec.even_coherent(alpha, op)


def suite_witnesses(tol: float = WITNESS_REL_TOL, abs_tol: float = WITNESS_ABS_TOL) -> SuiteResult:
    """Every witness from analytic moments against the same witness from oracle moments."""
    worst = 0.0
    checks = 0
    notes = []

    def compare(label, analytic_fn, oracle_fn):
        nonlocal worst, checks
        try:
            a = analytic_fn()
            a_err = None
        except SingularDenominator:
            a, a_err = None, "singular"
        try:
            o = oracle_fn()
            o_err = None
        except SingularDenominator:
            o, o_err = None, "singular"
        checks += 1
        if a_err or o_err:
            if a_err != o_err:
                notes.append(f"{label}: {a_err} vs {o_err}")
            return
        dev = abs(a - o)
        if abs(o) >= 1.0:
            dev /= abs(o)
            limit = tol
        else:
            limit = max(abs_tol, tol * abs(o))
        if dev > worst:
            worst = dev
        if dev > limit:
            notes.append(f"{label}: dev {dev:.3e}")

    for spec in _witness_specs():
        analytic = MomentTable.analytic(spec)
        oracle_state = oracle_mod.build_truncated(spec, ORACLE_TAIL_TOL)
        oracle_table = oracle_mod.moment_table_from_state(oracle_state, spec)
        name = spec.canonical()
        for l in (2, 3):
            compare(f"{name} mandel({l})",
                    lambda l=l: witnesses_mod.mandel_q(analytic, l),
                    lambda l=l: witnesses_mod.mandel_q(oracle_table, l))
            compare(f"{name} hoa({l})",
                    lambda l=l: witnesses_mod.hoa(analytic, l),
                    lambda l=l: witnesses_mod.hoa(oracle_table, l))
            compare(f"{name} hosps({l})",
                    lambda l=l: witnesses_mod.hosps(analytic, l),
                    lambda l=l: witnesses_mod.hosps(oracle_table, l))
        for l in (2, 4):
            compare(f"{name} hos({l})",
                    lambda l=l: witnesses_mod.hos(analytic, l),
                    lambda l=l: witnesses_mod.hos(oracle_table, l))
        compare(f"{name} agarwal_tara",
                lambda: witnesses_mod.agarwal_tara(analytic),
                lambda: witnesses_mod.agarwal_tara(oracle_table))
        for m in (0, 2, 4):
            compare(f"{name} klyshko({m})",
                    lambda m=m: witnesses_mod.klyshko(spec, m, engine="analytic"),
                    lambda m=m: witnesses_mod.klyshko(spec, m, engine="oracle",
                                                     tail_tol=ORACLE_TAIL_TOL))
        beta = 0.4 + 0.3j
        compare(f"{name} husimi({beta})",
                lambda: states_mod.husimi(spec, beta),
                lambda: oracle_mod.oracle_husimi(oracle_state, beta))
    return SuiteResult("witnesses", not notes, worst, checks, notes[:10])


def suite_normalization() -> SuiteResult:
    """Traces, probability sums, and parity zeros."""
    worst = 0.0
    checks = 0
    notes = []
    for spec in _grid_specs(max_order=3):
        state = oracle_mod.build_truncated(spec, ORACLE_TAIL_TOL)
        trace = float(state.probabilities().sum())
        dev = abs(trace - 1.0)
        worst = max(worst, dev)
        checks += 1
        if dev > NORMALIZATION_TOL:
            notes.append(f"{spec.canonical()} oracle trace: dev {dev:.3e}")
        total = sum(states_mod.photon_prob(spec, m) for m in range(state.cutoff))
        dev = abs(total - 1.0)
        worst = max(worst, dev)
        checks += 1
        if dev > PROB_SUM_TOL:
            notes.append(f"{spec.canonical()} sum p_m: dev {dev:.3e}")
        if spec.family == states_mod.FAMILY_EVEN_COHERENT:
            for m, n in ((1, 0), (2, 1), (3, 2), (3, 0)):
                value = abs(states_mod.moment(spec, m, n))
                worst = max(worst, value)
                checks += 1
                if value > PARITY_TOL:
                    notes.append(f"{spec.canonical()} parity moment({m},{n}): {value:.3e}")
    return SuiteResult("normalization", not notes, worst, checks, notes[:10])


def suite_hos(points: int = 40) -> SuiteResult:
    """Hong-Mandel squeezing stays non-negative over the plotted windows."""
    most_negative = 0.0
    checks = 0
    notes = []
    for family, window in (
        (states_mod.FAMILY_THERMAL, sweep_report.RBAR_WINDOW),
        (states_mod.FAMILY_EVEN_COHERENT, sweep_report.ALPHA_WINDOW),
    ):
        values = [window[0] + i * (window[1] - window[0]) / (points - 1) for i in range(points)]
        for l, p, q in ((2, 1, 1), (4, 1, 2), (6, 2, 1)):
            for op in (EngineeringOp.pas(p, q), EngineeringOp.psa(p, q)):
                for value in values:
                    spec = StateSpec.of(family, value, op)
                    s = witnesses_mod.hos(MomentTable.analytic(spec), l)
                    checks += 1
                    most_negative = min(most_negative, s)
                    if s < -SIGN_MAGNITUDE:
                        notes.append(f"{spec.canonical()} hos({l}) = {s:.3e}")
    return SuiteResult("hos", not notes, abs(most_negative), checks, notes[:10])


def suite_signs(points: int = 60) -> SuiteResult:
    """Sign structure of the reference panels.

    Mandel order 2: the subtract-then-add (1,1) thermal curve goes negative
    somewhere on the window while the add-then-subtract (1,1) curve never
    does; Husimi of subtract-then-add thermal states with q > p vanishes at
    the origin; A3 of both (2,1) thermal variants never goes negative.
    """
    notes = []
    checks = 0
    rbar_values = [
        sweep_report.RBAR_WINDOW[0]
        + i * (sweep_report.RBAR_WINDOW[1] - sweep_report.RBAR_WINDOW[0]) / (points - 1)
        for i in range(points)
    ]

    psat_min = math.inf
    past_min = math.inf
    for rbar in rbar_values:
        psat = witnesses_mod.mandel_q(
            MomentTable.analytic(StateSpec.thermal(rbar, EngineeringOp.psa(1, 1))), 2
        )
        past = witnesses_mod.mandel_q(
            MomentTable.analytic(StateSpec.thermal(rbar, EngineeringOp.pas(1, 1))), 2
        )
        psat_min = min(psat_min, psat)
        past_min = min(past_min, past)
        checks += 2
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
        for rbar in rbar_values:
            checks += 1
            try:
                a3 = witnesses_mod.agarwal_tara(
                    MomentTable.analytic(StateSpec.thermal(rbar, op))
                )
            except SingularDenominator:
                continue
            if a3 < -SIGN_MAGNITUDE:
                # Known irreproducible reference claim for the subtract-then-add
                # variant: the state tends to the one-photon Fock state as
                # rbar -> 0 and the determinant witness genuinely detects it
                # (negative A3 for rbar below about 1.045, confirmed in exact
                # rational arithmetic). Reported honestly as a failure.
                notes.append(
                    f"a3 {op.label()} rbar={rbar:.3f}: {a3:.3e} "
                    "(genuine negativity; the state tends to the one-photon "
                    "Fock state, which this witness detects)"
                )
                break
    return SuiteResult("signs", not notes, 0.0, checks, notes[:10])


def _oracle_central_number_moment(state, l: int) -> float:
    probs = state.probabilities()
    k = list(range(len(probs)))
    mean = sum(pk * kk for pk, kk in zip(probs, k))
    return sum(pk * (kk - mean) ** l for pk, kk in zip(probs, k))


def _oracle_hosps_direct(state, l: int) -> float:
    probs = state.probabilities()
    mean = sum(pk * kk for kk, pk in enumerate(probs))
    return _oracle_central_number_moment(state, l) - oracle_mod.oracle_poissonian_central_moment(
        mean, l
    )


def suite_hosps_gate(tol: float = WITNESS_REL_TOL) -> SuiteResult:
    """Arbitrate the combinatorial HOSPS form against the direct definition.

    The direct reference is the oracle's central number moment minus the
    same-mean Poissonian central moment. The shipped hosps() must match it;
    the printed-sign variant is logged with its correction factor.
    """
    worst = 0.0
    checks = 0
    notes = []
    printed_matches_even = True
    printed_flips_odd = True
    for spec in _grid_specs(max_order=3):
        state = oracle_mod.build_truncated(spec, ORACLE_TAIL_TOL)
        table = MomentTable.analytic(spec)
        for l in (2, 3, 4):
            reference = _oracle_hosps_direct(state, l)
            value = witnesses_mod.hosps(table, l)
            dev = abs(value - reference) / max(abs(reference), 1e-30)
            if abs(reference) < 1.0:
                dev = min(dev, abs(value - reference))
            checks += 1
            worst = max(worst, dev)
            if dev > max(tol, WITNESS_ABS_TOL):
                notes.append(f"{spec.canonical()} hosps({l}): dev {dev:.3e}")
            printed = witnesses_mod.hosps_printed_form(table, l)
            expected = value if l % 2 == 0 else -value
            if abs(printed - expected) > max(1e-9, 1e-9 * abs(expected)):
                if l % 2 == 0:
                    printed_matches_even = False
                else:
                    printed_flips_odd = False
    if printed_matches_even and printed_flips_odd:
        notes_extra = "printed-sign variant = (-1)^l * direct definition; direct used"
    else:
        notes_extra = "printed-sign variant relation UNEXPECTED; direct definition used"
    result = SuiteResult("hosps_gate", not notes, worst, checks, notes[:10])
    result.notes.append(notes_extra)
    return result


def suite_coherent(tol: float = COHERENT_BASELINE_TOL) -> SuiteResult:
    """Coherent states sit exactly on the classical boundary.

    Antibunching, sub-Poissonian, squeezing, and the default A3 all evaluate
    to zero; the power-of-mean A3 variant has both determinants vanish and
    must report an indeterminate (singular) witness.
    """
    worst = 0.0
    checks = 0
    notes = []
    for amp in (0.5, 1.0, 2.0):
        state = oracle_mod.coherent_truncated(amp, ORACLE_TAIL_TOL)
        table = oracle_mod.moment_table_from_state(state)
        for l in (2, 3, 4):
            for label, value in (
                (f"hoa({l})", witnesses_mod.hoa(table, l)),
                (f"hosps({l})", witnesses_mod.hosps(table, l)),
            ):
                checks += 1
                worst = max(worst, abs(value))
                if abs(value) > tol:
                    notes.append(f"coherent |{amp}| {label}: {value:.3e}")
        s2 = witnesses_mod.hos(table, 2)
        checks += 1
        worst = max(worst, abs(s2))
        if abs(s2) > tol:
            notes.append(f"coherent |{amp}| hos(2): {s2:.3e}")
        checks += 1
        value = witnesses_mod.agarwal_tara(table)
        worst = max(worst, abs(value))
        if abs(value) > tol:
            notes.append(f"coherent |{amp}| agarwal_tara: {value:.3e}")
        checks += 1
        try:
            witnesses_mod.agarwal_tara(table, witnesses_mod.VARIANT_POWER_OF_MEAN)
            notes.append(
                f"coherent |{amp}| agarwal_tara(power_of_mean) did not report "
                "a singular denominator"
            )
        except SingularDenominator:
            pass
    return SuiteResult("coherent", not notes, worst, checks, notes[:10])


# exact rational / closed-form values, pinned at EXACT_FIXTURE_TOL
def _exact_fixtures():
    past11 = StateSpec.thermal(1.0, EngineeringOp.pas(1, 1))
    psat11 = StateSpec.thermal(1.0, EngineeringOp.psa(1, 1))
    bare = StateSpec.thermal(1.0)
    return (
        ("moment(1,1) PAS thermal", lambda: states_mod.moment_thermal(past11, 1, 1), 10.0 / 3.0),
        ("moment(1,1) PSA thermal", lambda: states_mod.moment_thermal(psat11, 1, 1), 13.0 / 3.0),
        ("mandel(2) PSA thermal", lambda: witnesses_mod.mandel_q(MomentTable.analytic(psat11), 2), 17.0 / 39.0),
        ("hoa(2) PSA thermal", lambda: witnesses_mod.hoa(MomentTable.analytic(psat11), 2), 17.0 / 9.0),
        ("a3 bare thermal", lambda: witnesses_mod.agarwal_tara(MomentTable.analytic(bare)), 1.0 / 7.0),
        ("klyshko(2) bare thermal", lambda: witnesses_mod.klyshko(bare, 2), 1.0 / 256.0),
        ("husimi(0) bare thermal", lambda: states_mod.husimi(bare, 0j), 1.0 / (2.0 * math.pi)),
    )


def _frozen_quantity(spec: StateSpec, quantity: str, engine: str):
    """Evaluate a fixture quantity analytically or from a fresh oracle build."""
    if quantity.startswith("moment("):
        m, n = (int(v) for v in quantity[7:-1].split(","))
        if engine == "analytic":
            return states_mod.moment(spec, m, n).real
        return oracle_mod.oracle_moment(oracle_mod.build_truncated(spec), m, n).real
    if quantity.startswith("photon_prob("):
        m = int(quantity[12:-1])
        if engine == "analytic":
            return states_mod.photon_prob(spec, m)
        return oracle_mod.oracle_photon_prob(oracle_mod.build_truncated(spec), m)
    if quantity.startswith("husimi("):
        beta = complex(quantity[7:-1])
        if engine == "analytic":
            return states_mod.husimi(spec, beta)
        return oracle_mod.oracle_husimi(oracle_mod.build_truncated(spec), beta)
    if quantity.startswith("hosps("):
        l = int(quantity[6:-1])
        if engine == "analytic":
            return witnesses_mod.hosps(MomentTable.analytic(spec), l)
        return witnesses_mod.hosps(oracle_mod.oracle_moment_table(spec, order=l), l)
    raise ValueError(f"unknown fixture quantity {quantity!r}")


def load_packaged_fixtures():
    text = resources.files("fockwitness").joinpath("data/fixtures.txt").read_text()
    return oracle_mod.parse_fixtures(text)


def suite_fixtures(tol: float = EXACT_FIXTURE_TOL) -> SuiteResult:
    """Exact derived values plus the frozen oracle fixture file."""
    worst = 0.0
    checks = 0
    notes = []
    for label, compute, expected in _exact_fixtures():
        value = float(compute())
        dev = abs(value - expected) / max(abs(expected), 1e-30)
        checks += 1
        worst = max(worst, dev)
        if dev > tol:
            notes.append(f"{label}: dev {dev:.3e}")
    for record in load_packaged_fixtures():
        spec = StateSpec.from_canonical(record.canonical)
        for engine in ("analytic", "oracle"):
            value = float(_frozen_quantity(spec, record.quantity, engine))
            dev = abs(value - record.value) / max(abs(record.value), 1e-30)
            checks += 1
            worst = max(worst, dev)
            if dev > WITNESS_REL_TOL:
                notes.append(
                    f"{record.canonical} {record.quantity} [{engine}]: dev {dev:.3e}"
                )
    return SuiteResult("fixtures", not notes, worst, checks, notes[:10])


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
