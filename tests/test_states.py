import ast
import math
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import fockwitness
from bits import float_bits
from fockwitness import oracle, specfun, states, sweep_report, verify, witnesses
from fockwitness.sweep_report import BETA_WINDOW
from fockwitness.errors import DegenerateState, OutOfRange
from fockwitness.states import (
    EngineeringOp,
    MomentTable,
    StateSpec,
    husimi,
    moment,
    normalization_past_thermal,
    normalization_psat_thermal,
    photon_prob,
)


def direct_past_norm(rbar, p, q, terms=500):
    """Independent normalization: literal log-space weight sum (no pFq)."""
    x = rbar / (1.0 + rbar)
    total = 0.0
    for r in range(terms):
        if r + q - p < 0:
            continue
        log_w = (
            r * math.log(x) if x > 0 else (0.0 if r == 0 else -math.inf)
        ) + 2 * math.lgamma(r + q + 1) - math.lgamma(r + 1) - math.lgamma(r + q - p + 1)
        total += math.exp(log_w)
    return (1.0 + rbar) / total


def direct_psat_norm(rbar, p, q, terms=500):
    x = rbar / (1.0 + rbar)
    total = 0.0
    for r in range(p, terms):
        log_w = (
            r * math.log(x) if x > 0 else (0.0 if r == 0 else -math.inf)
        ) + math.lgamma(r + 1) + math.lgamma(r - p + q + 1) - 2 * math.lgamma(r - p + 1)
        total += math.exp(log_w)
    return (1.0 + rbar) / total


def direct_thermal_moment(rbar, op, n):
    """Independent <a'^n a^n>: literal log-space Fock sum of the engineered
    weights (no contraction, no closed form)."""
    x = rbar / (1.0 + rbar)
    p, q = op.p, op.q
    logs = {}
    for r in range(int(80 * (1.0 + rbar)) + 200):  # bare level r
        if op.order == states.ORDER_SUBTRACT_THEN_ADD:
            if r < p:
                continue
            level = r - p + q
            log_w = math.lgamma(r + 1) + math.lgamma(level + 1) - 2 * math.lgamma(r - p + 1)
        else:
            level = r + q - p
            if level < 0:
                continue
            log_w = 2 * math.lgamma(r + q + 1) - math.lgamma(r + 1) - math.lgamma(level + 1)
        if level >= n:  # <a'^n a^n> on level m is m! / (m - n)!
            logs[level] = (r * math.log(x) + log_w, math.lgamma(level + 1) - math.lgamma(level - n + 1))
        else:
            logs[level] = (r * math.log(x) + log_w, -math.inf)
    peak = max(log_w for log_w, _ in logs.values())
    norm = sum(math.exp(log_w - peak) for log_w, _ in logs.values())
    total = sum(math.exp(log_w - peak + log_f) for log_w, log_f in logs.values())
    return total / norm


class TestEngineeringOp:
    def test_labels(self):
        assert EngineeringOp.bare().label() == "bare"
        assert EngineeringOp.pas(1, 2).label() == "PAS(1,2)"
        assert EngineeringOp.psa(3, 0).label() == "PSA(3,0)"

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineeringOp("none", 1, 0)
        with pytest.raises(ValueError):
            EngineeringOp("add_then_subtract", -1, 0)
        with pytest.raises(ValueError):
            EngineeringOp.pas(9, 0)
        with pytest.raises(ValueError):
            EngineeringOp("sideways", 0, 0)

    def test_from_label_inverts_label(self):
        ops = [EngineeringOp.bare()] + [
            make(p, q) for make in (EngineeringOp.pas, EngineeringOp.psa)
            for p in range(9) for q in range(9)
        ]
        for op in ops:
            label = op.label()
            for text in (label, label.replace(",", ":"), label.replace(",", ";"), label.lower()):
                assert EngineeringOp.from_label(text) == op

    @pytest.mark.parametrize("label", ["XYZ(1:1)", "PAS(9:1)", "PAS(1)", "PAS(1,1"])
    def test_from_label_rejects(self, label):
        with pytest.raises(ValueError):
            EngineeringOp.from_label(label)


class TestStateSpec:
    def test_thermal_requires_rbar(self):
        with pytest.raises(ValueError, match="mean photon number"):
            StateSpec(states.FAMILY_THERMAL, -1.0)
        with pytest.raises(ValueError):
            StateSpec.thermal(-0.5)
        with pytest.raises(ValueError, match="mean photon number"):
            StateSpec.thermal(np.array([1.0, -0.5]))

    def test_ecs_requires_alpha(self):
        with pytest.raises(ValueError, match="amplitude"):
            StateSpec(states.FAMILY_EVEN_COHERENT, complex(math.nan, 1.0))
        with pytest.raises(ValueError, match="amplitude"):
            StateSpec.even_coherent(np.array([1.0, math.inf]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StateSpec.thermal(bad)
        with pytest.raises(ValueError, match="finite"):
            StateSpec.even_coherent(bad)
        with pytest.raises(ValueError, match="finite"):
            StateSpec.even_coherent(complex(1.0, bad))

    def test_of_selects_family(self):
        op = EngineeringOp.psa(1, 2)
        assert StateSpec.of(states.FAMILY_THERMAL, 1.5, op) == StateSpec.thermal(1.5, op)
        assert StateSpec.of(states.FAMILY_EVEN_COHERENT, 0.5j, op) == StateSpec.even_coherent(0.5j, op)
        for family in ("ecs", "thermal", None):
            with pytest.raises(ValueError, match="unknown family"):
                StateSpec.of(family, 1.0)

    def test_canonical_strings(self):
        assert StateSpec.thermal(1.0, EngineeringOp.pas(2, 1)).canonical() == "thermal(rbar=1.0)|PAS(2,1)"
        assert StateSpec.even_coherent(1 + 0.5j).canonical() == "ecs(alpha=1.0+0.5j)|bare"


class TestThermalNormalization:
    @pytest.mark.parametrize("rbar", [0.0, 0.3, 1.0, 4.2])
    def test_bare_is_normalized(self, rbar):
        assert normalization_past_thermal(rbar, 0, 0) == pytest.approx(1.0, rel=1e-13)
        assert normalization_psat_thermal(rbar, 0, 0) == pytest.approx(1.0, rel=1e-13)

    def test_known_values(self):
        assert normalization_past_thermal(1.0, 1, 1) == pytest.approx(1 / 6, rel=1e-13)
        assert normalization_psat_thermal(1.0, 1, 1) == pytest.approx(1 / 3, rel=1e-13)

    @pytest.mark.parametrize("rbar", [0.3, 1.0, 2.7])
    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(4))
    def test_against_direct_series(self, rbar, p, q):
        # covers both branches of each closed form, including q < p
        assert normalization_past_thermal(rbar, p, q) == pytest.approx(
            direct_past_norm(rbar, p, q), rel=1e-10
        )
        assert normalization_psat_thermal(rbar, p, q) == pytest.approx(
            direct_psat_norm(rbar, p, q), rel=1e-10
        )

    def test_degenerate_subtraction_from_vacuum(self):
        with pytest.raises(DegenerateState):
            normalization_psat_thermal(0.0, 1, 0)
        with pytest.raises(DegenerateState):
            normalization_past_thermal(0.0, 2, 1)
        # vacuum survives add-then-subtract when q >= p
        assert normalization_past_thermal(0.0, 1, 2) > 0


class TestThermalMoments:
    def test_bare_factorial_moments(self):
        spec = StateSpec.thermal(1.0)
        assert moment(spec, 1, 1).real == pytest.approx(1.0, rel=1e-13)
        assert moment(spec, 3, 3).real == pytest.approx(6.0, rel=1e-13)

    def test_engineered_means(self):
        past = StateSpec.thermal(1.0, EngineeringOp.pas(1, 1))
        psat = StateSpec.thermal(1.0, EngineeringOp.psa(1, 1))
        assert moment(past, 1, 1).real == pytest.approx(10 / 3, rel=1e-12)
        assert moment(psat, 1, 1).real == pytest.approx(13 / 3, rel=1e-12)

    @pytest.mark.parametrize("op", [EngineeringOp.bare(), EngineeringOp.pas(2, 1), EngineeringOp.psa(1, 3)])
    def test_off_diagonal_vanishes(self, op):
        spec = StateSpec.thermal(0.8, op)
        assert moment(spec, 2, 1).real == 0.0
        assert moment(spec, 0, 3).real == 0.0

    def test_degenerate_moment(self):
        for q in range(4):
            with pytest.raises(DegenerateState):
                moment(StateSpec.thermal(0.0, EngineeringOp.psa(1, q)), 1, 1)

    def test_tiny_rbar_is_not_annihilation(self):
        # the PSA(2,1) norm, ~2 rbar^2, is below the float range here; the
        # state tends to the one-photon Fock state
        spec = StateSpec.thermal(1e-170, EngineeringOp.psa(2, 1))
        assert moment(spec, 1, 1).real == 1.0

    def test_vacuum_survives_net_addition(self):
        spec = StateSpec.thermal(0.0, EngineeringOp.pas(1, 2))  # the state is |1>
        assert moment(spec, 1, 1).real == 1.0
        for beta in (0.0, 0.7, 1.5 - 2j):
            b2 = abs(beta) ** 2
            assert husimi(spec, beta) == pytest.approx(b2 * math.exp(-b2) / math.pi, rel=1e-14, abs=0)

    @pytest.mark.parametrize("rbar", [0.01, 0.3, 2.7, 50.0])
    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(4))
    def test_against_direct_fock_sum(self, rbar, p, q):
        for op in (EngineeringOp.pas(p, q), EngineeringOp.psa(p, q)):
            spec = StateSpec.thermal(rbar, op)
            for n in range(5):
                assert moment(spec, n, n).real == pytest.approx(
                    direct_thermal_moment(rbar, op, n), rel=1e-10
                )

    @pytest.mark.parametrize("rbar", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_pure_subtraction_mean(self, rbar, p):
        # p-fold subtraction turns the geometric weights negative-binomial,
        # raising the mean to (p+1) rbar
        got = moment(StateSpec.thermal(rbar, EngineeringOp.pas(p, 0)), 1, 1).real
        assert got == pytest.approx((p + 1) * rbar, rel=1e-11)

    @pytest.mark.parametrize("rbar", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_pure_addition_mean(self, rbar, q):
        # q-fold addition gives mean (q+1) rbar + q
        got = moment(StateSpec.thermal(rbar, EngineeringOp.psa(0, q)), 1, 1).real
        assert got == pytest.approx((q + 1) * rbar + q, rel=1e-11)


class TestEcsMoments:
    def test_mean_photon_number(self):
        spec = StateSpec.even_coherent(1.0)
        assert moment(spec, 1, 1).real == pytest.approx(math.tanh(1.0), rel=1e-12)

    def test_pair_annihilation_eigenvalue(self):
        # |alpha> + |-alpha> is an eigenstate of a^2, so <a'^2> = conj(alpha)^2
        for alpha in (0.6, 1.0, 1.3 - 0.4j):
            spec = StateSpec.even_coherent(alpha)
            expected = complex(alpha).conjugate() ** 2
            assert moment(spec, 2, 0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.7])
    def test_eigenstate_factorial_moment_structure(self, alpha):
        # the same eigenstructure fixes m2 = |alpha|^4 and m3 = |alpha|^4 m1
        spec = StateSpec.even_coherent(alpha)
        m1 = moment(spec, 1, 1).real
        assert moment(spec, 2, 2).real == pytest.approx(alpha ** 4, rel=1e-12)
        assert moment(spec, 3, 3).real == pytest.approx(alpha ** 4 * m1, rel=1e-12)

    @pytest.mark.parametrize("op", [EngineeringOp.bare(), EngineeringOp.pas(1, 1), EngineeringOp.psa(2, 1)])
    def test_odd_moments_vanish(self, op):
        spec = StateSpec.even_coherent(0.9, op)
        for m, n in ((1, 0), (0, 1), (2, 1), (3, 2), (1, 4)):
            assert moment(spec, m, n) == 0j

    @pytest.mark.parametrize("op", [EngineeringOp.pas(2, 1), EngineeringOp.psa(1, 2)])
    def test_hermitian_symmetry(self, op):
        spec = StateSpec.even_coherent(0.8 + 0.5j, op)
        for m, n in ((2, 0), (3, 1), (4, 2)):
            left = moment(spec, m, n)
            right = moment(spec, n, m).conjugate()
            assert left == pytest.approx(right, rel=1e-10)

    def test_degenerate_on_vacuum(self):
        with pytest.raises(DegenerateState):
            moment(StateSpec.even_coherent(0.0, EngineeringOp.psa(1, 1)), 1, 1)
        with pytest.raises(DegenerateState):
            moment(StateSpec.even_coherent(0.0, EngineeringOp.pas(2, 1)), 1, 1)
        # vacuum survives when more photons are added than removed
        value = moment(StateSpec.even_coherent(0.0, EngineeringOp.pas(1, 2)), 1, 1)
        assert value.real == pytest.approx(1.0, rel=1e-12)  # the state is |1>

    @pytest.mark.parametrize(
        "op",
        [
            EngineeringOp.bare(),
            EngineeringOp.pas(1, 1),
            EngineeringOp.pas(2, 1),
            EngineeringOp.pas(1, 2),
            EngineeringOp.psa(2, 1),
            EngineeringOp.psa(2, 2),
            EngineeringOp.psa(1, 1),
            EngineeringOp.psa(3, 1),
        ],
    )
    def test_hermite_route_agrees(self, op):
        """The contraction route against the oracle, including odd subtraction
        orders, where the compact two-index Hermite form used to differ."""
        spec = StateSpec.even_coherent(0.9, op)
        state = oracle.build_truncated(spec, 1e-15)
        for m in range(4):
            for n in range(4):
                if (m + n) % 2:
                    continue
                assert moment(spec, m, n) == pytest.approx(
                    oracle.oracle_moment(state, m, n), rel=1e-10
                )

    def test_small_amplitude_means(self):
        # 1 - exp(-2|alpha|^2) must not cancel at small |alpha|
        alpha = 1e-5
        a2 = alpha ** 2
        bare = moment(StateSpec.even_coherent(alpha), 1, 1).real
        subtracted = moment(StateSpec.even_coherent(alpha, EngineeringOp.psa(1, 0)), 1, 1).real
        assert bare == pytest.approx(a2 * math.tanh(a2), rel=1e-12)
        assert subtracted == pytest.approx(a2 / math.tanh(a2), rel=1e-12)


class TestContractionTable:
    @staticmethod
    def _runs(op, m, n) -> list:
        """O' a'^m a^n O as runs (dagger, power) of one ladder, read left to
        right."""
        p, q = op.p, op.q
        if op.order == states.ORDER_SUBTRACT_THEN_ADD:
            return [(True, p), (False, q), (True, m), (False, n), (True, q), (False, p)]
        return [(False, q), (True, p), (True, m), (False, n), (False, p), (True, q)]

    @staticmethod
    def _word_on_fock(runs, k: int) -> int:
        """The word applied to |k> is w |k + M - N>, w = sqrt(k! (k + M - N)!)
        times a rational; this is k! times that rational. a^N at level j
        multiplies it by j!/(j-N)!, and a'^M leaves it."""
        level, scaled = k, 1
        for dagger, power in reversed(runs):
            if dagger:
                level += power
            elif power > level:
                return 0
            else:
                scaled *= math.perm(level, power)
                level -= power
        return scaled

    @staticmethod
    def _table_on_fock(table, k: int) -> int:
        """The same for sum c a'^M a^N: each term with N <= k is
        c sqrt(k! (k + M - N)!) / (k - N)!, so k! times the rational is
        sum c k!/(k - N)!."""
        return sum(c * math.perm(k, plain) for _, plain, c in table if plain <= k)

    def test_table_equals_the_fock_action_of_the_word(self):
        # no term has N above the word's count of a, and the values at
        # k = 0..that count fix every coefficient: perm(k, N) is 0 below
        # k = N and N! at it
        for op in [EngineeringOp.bare(), *_pas_psa_up_to(8)]:
            for m in range(9):
                for n in range(9):
                    table = states._contraction_table(op, m, n)
                    runs = self._runs(op, m, n)
                    lowerings = sum(power for dagger, power in runs if not dagger)
                    assert all(dag - plain == m - n and plain <= lowerings for dag, plain, _ in table)
                    for k in range(lowerings + 1):
                        assert self._table_on_fock(table, k) == self._word_on_fock(runs, k), (op, m, n, k)

    @staticmethod
    def _full_word_table(op, m, n):
        """O' a'^m a^n O normal-ordered as one word, O' the reversed word
        of O with each factor's M and N swapped."""
        word = states._word(op)
        adjoint = tuple(tuple((plain, dag, c) for dag, plain, c in factor) for factor in reversed(word))
        return specfun.normal_order(adjoint + (((m, n, 1),),) + word)

    def test_table_equals_the_normal_form_of_the_full_word(self):
        # the sandwich S(q, p + m, p + n) of a^p a'^q, and a'^p S(q, m, n) a^p
        # of a'^q a^p, term for term and in the same order
        for op in [EngineeringOp.bare(), *_pas_psa_up_to(6)]:
            for m in range(9):
                for n in range(9):
                    assert states._contraction_table(op, m, n) == self._full_word_table(op, m, n), (op, m, n)

    def test_a_swapped_sandwich_is_the_adjoint(self):
        # S(q, B, A) is S(q, A, B) with M and N swapped, M still ascending
        for q in range(7):
            for a in range(15):
                for b in range(15):
                    swapped = tuple((plain, dag, c) for dag, plain, c in states._sandwich(q, a, b))
                    assert states._sandwich(q, b, a) == swapped, (q, a, b)

    def test_a_cold_verify_orders_each_sandwich_once(self):
        # in a new process, whose caches are all empty, so that this one's
        # stay warm; a form and its swap (the adjoint) count as one
        source = "\n".join([
            "import contextlib, io, sys",
            f"sys.path[:0] = {[os.path.dirname(os.path.dirname(fockwitness.__file__))]!r}",
            "from fockwitness import cli, specfun, states",
            "normal_order, calls = specfun.normal_order, []",
            "def counting(word):",
            "    calls.append((word, normal_order(word)))",
            "    return calls[-1][1]",
            "specfun.normal_order = counting",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = cli.main(['verify'])",
            "print(repr((code, calls, states._operator_terms.cache_info().misses)))",
        ])
        out = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, check=True).stdout
        code, calls, misses = ast.literal_eval(out)
        assert code == 1
        operator_words = {states._word(op) for op in _pas_psa_up_to(states.MAX_ENGINEERING_ORDER)}
        operator = [word for word, _ in calls if word in operator_words]
        forms = [form for word, form in calls if word not in operator_words]
        distinct = {min(form, tuple((plain, dag, c) for dag, plain, c in form)) for form in forms}
        assert len(operator) == misses == 8
        assert len(forms) == len(distinct) <= 81


class TestPhotonProb:
    def test_bare_thermal_geometric(self):
        spec = StateSpec.thermal(1.0)
        for m in range(6):
            assert photon_prob(spec, m) == pytest.approx(2.0 ** -(m + 1), rel=1e-12)

    def test_psa_ecs_parity_zeros(self):
        spec = StateSpec.even_coherent(1.1, EngineeringOp.psa(1, 1))
        for m in (1, 3, 5, 7):
            assert photon_prob(spec, m) == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec.thermal(0.7, EngineeringOp.pas(2, 1)),
            StateSpec.thermal(2.0, EngineeringOp.psa(1, 2)),
            StateSpec.even_coherent(1.4, EngineeringOp.pas(1, 2)),
            StateSpec.even_coherent(0.6, EngineeringOp.psa(2, 1)),
            StateSpec.even_coherent(0.9 + 0.4j, EngineeringOp.pas(3, 1)),
            StateSpec.even_coherent(1.3),
        ],
    )
    def test_matches_oracle_distribution(self, spec):
        state = oracle.build_truncated(spec, 1e-15)
        for m in range(min(state.cutoff, 48)):
            assert photon_prob(spec, m) == pytest.approx(
                oracle.oracle_photon_prob(state, m), abs=1e-12
            )

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec.thermal(1.0, EngineeringOp.pas(1, 3)),
            StateSpec.even_coherent(1.8, EngineeringOp.psa(2, 2)),
        ],
    )
    def test_sums_to_one(self, spec):
        total = sum(photon_prob(spec, m) for m in range(200))
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec.thermal(1.0, EngineeringOp.pas(1, 1)),
            StateSpec.even_coherent(1.0, EngineeringOp.pas(1, 1)),
            StateSpec.even_coherent(1.0, EngineeringOp.psa(1, 1)),
        ],
    )
    def test_huge_photon_number_is_zero(self, spec):
        # W(m) is beyond the float range there, the bare weight underflows
        assert photon_prob(spec, 10 ** 200) == 0.0


    @pytest.mark.parametrize("rbar, m", [(1e6, 10 ** 8), (50.0, 150), (3.0, 40)])
    def test_large_rbar_power_is_accurate(self, rbar, m):
        # bare thermal p_m = (1 - x) x^m at 50 digits; x^m from the rounded
        # x = rbar/(1+rbar) is off by ~m * 1e-16 relative
        with mpmath.workdps(50):
            r = mpmath.mpf(rbar)
            expected = float((1 / (1 + r)) * (r / (1 + r)) ** m)
        assert photon_prob(StateSpec.thermal(rbar), m) == pytest.approx(expected, rel=1e-13)

    def test_underflow_hidden_by_rounded_x_is_zero(self):
        # x rounds to 1.0 at rbar = 1e16, but x^m = e^(-m/rbar) = e^(-1e14)
        spec = StateSpec.thermal(1e16, EngineeringOp.pas(8, 8))
        assert photon_prob(spec, 10 ** 30) == 0.0

    def test_weight_beyond_float_range_is_typed(self):
        # x^m = e^(-100) does not cancel W(m) ~ m^16 ~ 1e320
        spec = StateSpec.thermal(1e18, EngineeringOp.pas(8, 8))
        with pytest.raises(OutOfRange):
            photon_prob(spec, 10 ** 20)


def _pas_psa_up_to(order):
    for p in range(order + 1):
        for q in range(order + 1):
            yield EngineeringOp.pas(p, q)
            yield EngineeringOp.psa(p, q)


def _assert_bit_equal(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestPhotonProbArray:
    @pytest.mark.parametrize("family, values", [
        ("thermal", (0.0, 0.1, 1.0, 5.0, 1e-300, 1e20)),
        ("ecs", (0.0, 0.3, 1.2, 0.9 + 0.4j, 5.0)),
    ])
    def test_array_equals_scalar_loop(self, family, values):
        m = np.arange(300)
        for op in _pas_psa_up_to(3):
            for value in values:
                spec = StateSpec.of(states.FAMILIES[family], value, op)
                try:
                    loop = np.array([photon_prob(spec, int(i)) for i in m])
                except DegenerateState:
                    continue
                _assert_bit_equal(photon_prob(spec, m), loop)

    @staticmethod
    def _int64_bound(op):
        """The largest m with W(m) < 2^63 (W grows with m), None where W is constant."""
        if states._fock_weight(op, 2 ** 64) < 2 ** 63:
            return None
        low, high = 0, 2 ** 64
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if states._fock_weight(op, mid) < 2 ** 63 else (low, mid)
        return low

    @pytest.mark.parametrize("family, values", [
        ("thermal", (0.5, 1e6, 1e20)),
        ("ecs", (1.2, 30.0)),
    ])
    def test_array_equals_scalar_loop_across_the_int64_bound(self, family, values):
        # m up to 3,000 crosses the bound for the high orders; each op also
        # takes the two arrays that end just below and just above it
        spread = np.array([*range(18), 100, 999, 1000, 2999, 3000])
        for op in [EngineeringOp.bare(), *_pas_psa_up_to(8)]:
            arrays = [spread]
            bound = self._int64_bound(op)
            if bound is not None:
                arrays += [np.array([0, bound - 1, bound], dtype=np.uint64),
                           np.array([1, bound, bound + 1], dtype=np.uint64)]
                # int64 products below the bound, Python ints above it
                assert isinstance(states._fock_weights(op, arrays[1]), np.ndarray)
                assert isinstance(states._fock_weights(op, arrays[2]), list)
            for value in values:
                spec = StateSpec.of(states.FAMILIES[family], value, op)
                for m in arrays:
                    loop = np.array([photon_prob(spec, i) for i in m.tolist()])
                    _assert_bit_equal(photon_prob(spec, m), loop)

    def test_numpy_integer_m_keeps_exact_weights(self):
        # W(20) of PAS(8,8) is about 2.3e22, beyond int64
        for spec in (StateSpec.thermal(1e6, EngineeringOp.pas(8, 8)),
                     StateSpec.even_coherent(4.0, EngineeringOp.psa(8, 8))):
            assert photon_prob(spec, np.int64(20)) == photon_prob(spec, 20) > 0.0

    @pytest.mark.parametrize("rbar", [0.5, 1e20])
    def test_weight_beyond_the_float_range_raises_over_an_array(self, rbar):
        # W(2^64 - 1) of PAS(8,8) exceeds 2^1024, beyond the float range; over
        # an array this raises even where the bare weight underflows
        spec = StateSpec.thermal(rbar, EngineeringOp.pas(8, 8))
        with pytest.raises(OutOfRange):
            photon_prob(spec, np.array([0, 5, 2 ** 64 - 1], dtype=np.uint64))

    def test_sums_over_the_oracle_cutoff(self):
        spec = StateSpec.even_coherent(1.8, EngineeringOp.psa(2, 2))
        state = oracle.build_truncated(spec, 1e-15)
        total = photon_prob(spec, np.arange(state.cutoff)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_grid_spec_with_array_m_gives_the_column_block(self):
        m = np.arange(60)
        for spec in (StateSpec.thermal(np.array([0.0, 0.5, 1.0, 3e4]), EngineeringOp.pas(1, 1)),
                     StateSpec.thermal(np.array([0.0, 0.3, 2.0]), EngineeringOp.psa(2, 1)),
                     StateSpec.even_coherent(np.array([0.0, 0.4, 1.1 - 0.5j, 6.0]), EngineeringOp.psa(1, 2))):
            block = photon_prob(spec, m)
            assert block.shape == (len(m), len(spec.parameter)) and block.dtype == np.float64
            for i, value in enumerate(spec.parameter):
                one = StateSpec.of(spec.family, value, spec.op)
                try:
                    column = photon_prob(one, m)
                except DegenerateState:
                    # NaN over the grid where one state raises
                    assert np.isnan(block[:, i]).all()
                    continue
                _assert_bit_equal(block[:, i].copy(), column)
            # a grid spec with one m stays a series over the grid
            _assert_bit_equal(photon_prob(spec, 2), block[2].copy())

    @pytest.mark.parametrize("m", [np.array([1.0, 2.0]), np.arange(4).reshape(2, 2), np.array([0, -1])])
    def test_array_m_must_be_non_negative_1d_integers(self, m):
        with pytest.raises(ValueError):
            photon_prob(StateSpec.thermal(1.0), m)


class TestOutOfRange:
    def test_thermal_moment_beyond_float_range(self):
        # <a'^2 a^2> of PAS(2,2) at rbar = 1e200 is about 3e401
        with pytest.raises(OutOfRange):
            states.moment(StateSpec.thermal(1e200, EngineeringOp.pas(2, 2)), 2, 2)

    def test_cat_moment_beyond_float_range(self):
        with pytest.raises(OutOfRange):
            states.moment(StateSpec.even_coherent(1e100), 2, 2)

    @pytest.mark.parametrize("call", [
        lambda spec: states.moment(spec, 1, 1),
        lambda spec: photon_prob(spec, 2),
        lambda spec: husimi(spec, 0j),
    ])
    def test_cat_norm_beyond_float_range(self, call):
        with pytest.raises(OutOfRange):
            call(StateSpec.even_coherent(1e200))


    @pytest.mark.parametrize("spec, beta", [
        (StateSpec.thermal(2.0, EngineeringOp.pas(8, 8)), 1e10),
        (StateSpec.even_coherent(2.0, EngineeringOp.pas(8, 8)), 1e200),
    ])
    def test_husimi_power_of_beta_beyond_float_range(self, spec, beta):
        # |beta|^32 overflows where the Gaussian has underflowed: inf * 0
        with pytest.raises(OutOfRange):
            husimi(spec, np.array([0.5, beta]))
        assert husimi(StateSpec.thermal(2.0), beta) == 0.0


def _engineered(order):
    if order == "bare":
        return [EngineeringOp.bare()]
    make = EngineeringOp.pas if order == "pas" else EngineeringOp.psa
    return [make(p, q) for p in range(5) for q in range(5)]


# the corners of the figure window and points inside it
_ARRAY_BETAS = np.array([
    [complex(-4, -4), complex(4, -4), complex(-4, 4), complex(4, 4)],
    [0j, 0.3 + 0j, -1.1 + 0.4j, 2.5 - 3.5j],
])


class TestHusimiArray:
    @pytest.mark.parametrize("order", ["bare", "pas", "psa"])
    @pytest.mark.parametrize("family", ["thermal", "ecs"])
    def test_array_equals_scalar_calls(self, family, order):
        for op in _engineered(order):
            if family == "thermal":
                specs = [StateSpec.thermal(rbar, op) for rbar in (0.3, 2.0, 4.0)]
            else:
                specs = [StateSpec.even_coherent(a, op) for a in (1.2, 0.9 + 0.4j, 2.0 - 1.5j)]
            for spec in specs:
                values = husimi(spec, _ARRAY_BETAS)
                for beta, value in zip(_ARRAY_BETAS.ravel(), values.ravel()):
                    scalar = husimi(spec, complex(beta))
                    assert abs(value - scalar) <= 1e-14 * abs(scalar), (spec, beta)

    @pytest.mark.parametrize("spec", [
        StateSpec.thermal(2.0, EngineeringOp.psa(2, 4)),
        StateSpec.even_coherent(2.0, EngineeringOp.pas(4, 2)),
    ])
    def test_shape_follows_input(self, spec):
        for shape in ((3,), (2, 3), (2, 0), (1, 2, 2)):
            betas = np.full(shape, 0.5 - 1.0j)
            values = husimi(spec, betas)
            assert isinstance(values, np.ndarray) and values.shape == shape
            assert values.dtype == np.float64
        for beta in (0.5 - 1.0j, np.complex128(0.5 - 1.0j), np.array(0.5 - 1.0j), 2, 0.5):
            assert type(husimi(spec, beta)) is float

    def test_a_grid_spec_or_stack_gives_beta_shape_then_columns(self):
        # a grid spec or a stack takes a beta array of any shape, and gives
        # (*beta.shape, columns), each column its state's own call bit for bit
        values = np.array([0.5, 1.0, 2.0])
        grid = StateSpec.thermal(values)
        stack = [grid, StateSpec.thermal(values, EngineeringOp.psa(2, 1))]
        ones = [StateSpec.of(one.family, value, one.op) for one in stack for value in values]
        for spec, count in ((grid, 3), ([grid], 3), (stack, 6)):
            q = husimi(spec, _ARRAY_BETAS)
            assert q.shape == (*_ARRAY_BETAS.shape, count)
            for k, one in enumerate(ones[:count]):
                assert np.array_equal(q[..., k].view(np.uint64), husimi(one, _ARRAY_BETAS).view(np.uint64))

    def test_a_stack_reads_the_norms_its_moment_call_contracted(self, monkeypatch):
        # no contraction after the moment call, which keeps each spec's norm
        stack = [StateSpec.even_coherent(np.array([0.5, 1.5]), op) for op in (EngineeringOp.bare(),
                                                                               EngineeringOp.psa(1, 2))]
        states.moment(stack, 1, 1)
        contract, calls = states._contract, []
        monkeypatch.setattr(states, "_contract", lambda *args: calls.append(None) or contract(*args))
        assert husimi(stack, 0.3).shape == photon_prob(stack, 2).shape == (4,)
        assert calls == []

    def test_a_stack_past_the_float_range_names_its_first_such_state(self):
        # |beta|^32 overflows where the Gaussian has underflowed, at every
        # point of PAS(8,8); the bare state's values are 0 there
        values = np.array([0.5, 2.0])
        stack = [StateSpec.thermal(values), StateSpec.thermal(values, EngineeringOp.pas(8, 8))]
        with pytest.raises(OutOfRange) as stack_error:
            husimi(stack, 1e10)
        with pytest.raises(OutOfRange) as point_error:
            husimi(StateSpec.thermal(0.5, EngineeringOp.pas(8, 8)), 1e10)
        assert str(stack_error.value) == str(point_error.value)
        assert (husimi(stack[0], 1e10) == 0.0).all()

    def test_array_call_computes_the_norm_once(self, monkeypatch):
        calls = []
        original = states._norm

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(states, "_norm", counting)
        husimi(StateSpec.even_coherent(1.5, EngineeringOp.pas(2, 1)), np.zeros((11, 11), complex))
        assert len(calls) == 1


class TestHusimi:
    def test_bare_thermal_origin(self):
        assert husimi(StateSpec.thermal(1.0), 0j) == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_bare_thermal_is_gaussian(self):
        rbar = 0.7
        spec = StateSpec.thermal(rbar)
        for beta in (0.5, 1.2j, 0.8 - 0.9j):
            expected = math.exp(-abs(beta) ** 2 / (1 + rbar)) / (math.pi * (1 + rbar))
            assert husimi(spec, beta) == pytest.approx(expected, rel=1e-11)

    def test_psa_origin_zero_when_adding(self):
        assert husimi(StateSpec.thermal(2.0, EngineeringOp.psa(2, 4)), 0j) == 0.0
        assert husimi(StateSpec.even_coherent(1.0, EngineeringOp.psa(1, 2)), 0j) == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec.thermal(1.5, EngineeringOp.pas(3, 1)),  # subtract-heavy branch
            StateSpec.thermal(0.5, EngineeringOp.pas(1, 3)),
            StateSpec.thermal(2.0, EngineeringOp.psa(2, 1)),
            StateSpec.even_coherent(2.0, EngineeringOp.pas(2, 4)),
            StateSpec.even_coherent(1.2, EngineeringOp.psa(1, 2)),
            StateSpec.even_coherent(0.9 + 0.4j, EngineeringOp.pas(3, 1)),
            StateSpec.even_coherent(1.5 - 0.5j),
            # the four engineered thermal panels of fig7
            StateSpec.thermal(2.0, EngineeringOp.pas(2, 4)),
            StateSpec.thermal(2.0, EngineeringOp.psa(2, 4)),
            StateSpec.thermal(4.0, EngineeringOp.pas(4, 2)),
            StateSpec.thermal(4.0, EngineeringOp.psa(4, 2)),
        ],
    )
    def test_matches_oracle(self, spec):
        betas = [0.3, -1.1 + 0.4j, 2.0j, 1.0 + 0.5j]
        if spec.family == states.FAMILY_THERMAL:
            # out to the corner of the figure window
            corner = BETA_WINDOW[1]
            betas += [-3.0 + 2.0j, complex(corner, -corner), complex(corner, corner)]
        reach = max(abs(beta) for beta in betas)
        state = oracle.build_truncated(spec, 1e-15, min_cutoff=max(64, int(8 * reach ** 2) + 8))
        for beta in betas:
            assert husimi(spec, beta) == pytest.approx(
                oracle.oracle_husimi(state, beta), rel=1e-9
            )

    def test_bare_cat_at_large_amplitude(self):
        # |<199|200>|^2 = e^-1, the |-200> overlap is e^-79601, norm 2
        value = husimi(StateSpec.even_coherent(200.0), 199.0)
        assert value == pytest.approx(math.exp(-1.0) / (2 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("op", [EngineeringOp.pas(2, 1), EngineeringOp.psa(2, 1)])
    def test_engineered_cat_at_large_amplitude_is_finite(self, op):
        value = husimi(StateSpec.even_coherent(200.0, op), 199.0 + 0.5j)
        assert math.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize(
        "spec,radius",
        [
            (StateSpec.thermal(1.0), 5.0),
            (StateSpec.thermal(0.5, EngineeringOp.psa(1, 1)), 5.5),
            (StateSpec.even_coherent(1.2, EngineeringOp.pas(1, 1)), 5.5),
        ],
    )
    def test_normalized_over_plane(self, spec, radius):
        steps = 141
        h = 2 * radius / (steps - 1)
        total = 0.0
        for i in range(steps):
            for j in range(steps):
                beta = complex(-radius + i * h, -radius + j * h)
                value = husimi(spec, beta)
                assert value >= 0.0
                total += value
        assert total * h * h == pytest.approx(1.0, abs=1e-3)


class TestMomentTable:
    def test_normalized_origin_entry(self):
        table = MomentTable.analytic(StateSpec.thermal(0.9, EngineeringOp.pas(1, 1)))
        assert table.get(0, 0) == 1.0 + 0j
        # exact unity also for a complex-amplitude cat (z/z division)
        table = MomentTable.analytic(StateSpec.even_coherent(0.7 - 0.3j, EngineeringOp.psa(1, 2)))
        assert table.get(0, 0) == 1.0 + 0j

    def test_caches_values(self):
        calls = []

        def fill(ms, ns):
            calls.append(list(zip(ms.tolist(), ns.tolist())))
            return (ms + ns).astype(complex)

        table = MomentTable(fill, pairs=((1, 1), (2, 2)))
        assert table.get(2, 2) == 4
        table.get(2, 2)
        assert table.get(1, 1) == 2
        assert table.get(3, 0) == 3
        table.get(3, 0)
        # the table's pairs in one call on the first get, then one per other pair
        assert calls == [[(1, 1), (2, 2)], [(3, 0)]]

    def test_provenance_labels(self):
        spec = StateSpec.thermal(1.0)
        assert MomentTable.analytic(spec).provenance == "analytic"
        assert witnesses.ENGINES["oracle"].moment_table(spec, ((1, 1),), 1e-12).provenance == "oracle"


# ---------------------------------------------------------------------------
# Moments over pair sets
# ---------------------------------------------------------------------------

def reference_contraction(spec, m, n):
    """Independent per-pair term sum: the pair's contraction table term by
    term, each term with its own powers, as a sum from 0 in table order:
    c M! x^(M-k0) y^(p+q-M) on the M = N terms of a thermal state, and
    c (conj(alpha)^M alpha^N w) of an even cat, with w the even or odd pair
    weight and 0j for mixed parity; an m = n value is real, as <a'^n a^n>
    is. A number for one state, an array over a grid."""
    op, value = spec.op, spec.parameter
    table = states._contraction_table(op, m, n)
    if spec.family is states.FAMILY_THERMAL:
        x, y = value / (1.0 + value), 1.0 / (1.0 + value)
        k0 = min(dag for dag, _, _ in states._contraction_table(op, 0, 0))
        top = op.p + op.q
        return sum(c * math.factorial(dag) * x ** (dag - k0) * y ** (top - dag)
                   for dag, plain, c in table if dag == plain)
    a2 = abs(value) ** 2
    lib = np if isinstance(a2, np.ndarray) else math
    weights = (2.0 + 2.0 * lib.exp(-2.0 * a2), -2.0 * lib.expm1(-2.0 * a2))
    total = sum(c * (0j if (dag + plain) % 2 else value.conjugate() ** dag * value ** plain * weights[dag % 2])
                for dag, plain, c in table)
    return total.real + 0j if m == n else total


def reference_moment(spec, m, n):
    """reference_contraction over the (0,0) entry, NaN where the state is
    annihilated: on either family, at parameter 0 where the operation
    removes the vacuum."""
    with np.errstate(all="ignore"):
        norm = reference_contraction(spec, 0, 0).real
        k0 = min(dag for dag, _, _ in states._contraction_table(spec.op, 0, 0))
        annihilated = (spec.parameter == 0) & (k0 > 0)
        norm = np.where(annihilated, math.nan, norm) if isinstance(norm, np.ndarray) else norm
        value = reference_contraction(spec, m, n)
        return value.real / norm + value.imag / norm * 1j


def reference_one(spec, m, n):
    """reference_moment of one state, evaluated on its grid of one."""
    return complex(reference_moment(StateSpec.of(spec.family, np.array([spec.parameter]), spec.op), m, n)[0])


def _assert_same_bits(actual, expected):
    """Equal complex values bit for bit, NaN included, and the same type."""
    assert type(actual) is type(expected)
    actual, expected = np.atleast_1d(actual).astype(complex), np.atleast_1d(expected).astype(complex)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


PAIRS = [(m, n) for m in range(6) for n in range(6)]
PAIR_MS, PAIR_NS = np.array(PAIRS).T
BLOCK_GRIDS = [
    (states.FAMILY_THERMAL, np.array([0.0, 0.01, 0.37, 1.0, 2.5, 5.0])),
    (states.FAMILY_EVEN_COHERENT, np.array([0.0, 0.05, 0.3 + 0.2j, -0.7j, 1.2, 2.0 - 1.1j])),
]


class TestMomentBlocks:
    @pytest.mark.parametrize("family, values", BLOCK_GRIDS, ids=["thermal", "ecs"])
    @pytest.mark.parametrize("op", [EngineeringOp.bare(), *_pas_psa_up_to(3)], ids=EngineeringOp.label)
    def test_grid_block_equals_reference_and_int_calls(self, family, values, op):
        block = moment(StateSpec.of(family, values, op), PAIR_MS, PAIR_NS)
        assert block.shape == (len(PAIRS), len(values)) and block.dtype == complex
        # a spec whose norm is cached, and a fresh spec per pair
        cached = StateSpec.of(family, values, op)
        cached._norm
        for i, (m, n) in enumerate(PAIRS):
            expected = reference_moment(StateSpec.of(family, values, op), m, n)
            _assert_same_bits(block[i], expected)
            _assert_same_bits(moment(cached, m, n), expected)
            _assert_same_bits(moment(StateSpec.of(family, values, op), m, n), expected)

    @pytest.mark.parametrize("family, values", BLOCK_GRIDS, ids=["thermal", "ecs"])
    @pytest.mark.parametrize("op", [EngineeringOp.bare(), *_pas_psa_up_to(3)], ids=EngineeringOp.label)
    def test_one_state_block_equals_reference_and_int_calls(self, family, values, op):
        # one state is a grid of one, and so is its reference
        for value in values[1:]:
            spec = StateSpec.of(family, value, op)
            if np.isnan(reference_one(spec, 0, 0)):
                with pytest.raises(DegenerateState):
                    moment(spec, PAIR_MS, PAIR_NS)
                continue
            block = moment(spec, PAIR_MS, PAIR_NS)
            assert block.shape == (len(PAIRS),) and block.dtype == complex
            for i, (m, n) in enumerate(PAIRS):
                expected = reference_one(spec, m, n)
                _assert_same_bits(complex(block[i]), expected)
                _assert_same_bits(moment(spec, m, n), expected)
                _assert_same_bits(moment(StateSpec.of(family, value, op), m, n), expected)

    @pytest.mark.parametrize("spec, gaps", [
        (StateSpec.thermal(np.array([0.0, 0.5, 0.0, 2.0]), EngineeringOp.psa(1, 2)), [0, 2]),
        (StateSpec.even_coherent(np.array([1.0, 0.0, 0.4j]), EngineeringOp.psa(1, 0)), [1]),
    ])
    def test_nan_gaps_at_annihilated_points(self, spec, gaps):
        block = moment(spec, PAIR_MS, PAIR_NS)
        assert np.isnan(block[:, gaps]).all()
        live = [i for i in range(len(spec.parameter)) if i not in gaps]
        assert np.isfinite(block[:, live]).all()
        for i in live:
            one = moment(StateSpec.of(spec.family, spec.parameter[i], spec.op), PAIR_MS, PAIR_NS)
            np.testing.assert_allclose(block[:, i], one, rtol=1e-14, atol=1e-300)

    def test_out_of_range_names_the_first_pair_and_state(self):
        op = EngineeringOp.pas(2, 2)
        # <a'a> is about 2.4 rbar, <a'^2 a^2> about 3e401 at rbar = 1e200
        grid = StateSpec.thermal(np.array([1.0, 1e200, 1e300]), op)
        with pytest.raises(OutOfRange, match=r"^<a'\^2 a\^2> of thermal\(rbar=1e\+200\)\|PAS\(2,2\) "):
            moment(grid, np.array([1, 2, 3]), np.array([1, 2, 3]))
        one = StateSpec.thermal(1e200, op)
        with pytest.raises(OutOfRange, match=r"^<a'\^3 a\^3> of thermal\(rbar=1e\+200\)\|PAS\(2,2\) "):
            moment(one, np.array([1, 3, 2]), np.array([1, 3, 2]))
        # <a'^2> = alpha^2 = 1e200 is in range, <a'^3 a> = 1e400 is not
        with pytest.raises(OutOfRange, match=r"^<a'\^3 a\^1> of ecs\(alpha=1e\+100\)\|bare "):
            moment(StateSpec.even_coherent(1e100), np.array([0, 2, 3, 2]), np.array([0, 0, 1, 2]))

    @pytest.mark.parametrize("ms, ns", [
        (np.array([1, -1]), np.array([1, 1])),  # negative
        (np.array([1, 2]), np.array([1])),  # ragged
        (np.array([1.0, 2.0]), np.array([1, 2])),  # not integers
        (np.array([True]), np.array([1])),
        (np.array([[1, 2]]), np.array([[1, 2]])),  # 2-d
        (1, np.array([1])),
    ])
    def test_bad_order_arrays_are_value_errors(self, ms, ns):
        with pytest.raises(ValueError):
            moment(StateSpec.thermal(1.0), ms, ns)

    def test_int_and_array_calls_return_their_types(self):
        spec = StateSpec.even_coherent(0.7 - 0.2j, EngineeringOp.psa(1, 2))
        assert type(moment(spec, 2, 1)) is complex
        assert isinstance(moment(spec, np.array([2]), np.array([1])), np.ndarray)
        grid = StateSpec.thermal(np.array([0.5, 1.0]))
        assert moment(grid, 1, 1).shape == (2,)
        assert moment(grid, np.array([], dtype=int), np.array([], dtype=int)).shape == (0, 2)


class TestHighOrderThermal:
    """c M! past 170! and x^M underflowing at small rbar: each such term is
    taken from its logarithm, against the contraction at 50 digits."""

    @staticmethod
    def _exact(op, rbar, order):
        with mpmath.workdps(50):
            r = mpmath.mpf(rbar)

            def contraction(m, n):
                return mpmath.fsum(c * mpmath.factorial(dag) * r ** dag
                                   for dag, plain, c in states._contraction_table(op, m, n) if dag == plain)

            return float(contraction(order, order) / contraction(0, 0))

    @pytest.mark.parametrize("op", [EngineeringOp.bare(), EngineeringOp.pas(1, 1)], ids=EngineeringOp.label)
    @pytest.mark.parametrize("rbar, order", [(0.01, 170), (0.01, 171), (0.01, 200), (0.001, 250)])
    def test_one_state_against_mpmath(self, op, rbar, order):
        value = moment(StateSpec.thermal(rbar, op), order, order)
        assert value.imag == 0.0
        assert value.real == pytest.approx(self._exact(op, rbar, order), rel=1e-11)

    @pytest.mark.parametrize("op", [EngineeringOp.bare(), EngineeringOp.pas(1, 1)], ids=EngineeringOp.label)
    def test_grid_against_mpmath(self, op):
        rbars = np.array([0.001, 0.01, 0.5])
        block = moment(StateSpec.thermal(rbars, op), np.array([1, 170]), np.array([1, 170]))
        for i, rbar in enumerate(rbars):
            assert block[1, i].real == pytest.approx(self._exact(op, rbar, 170), rel=1e-11)
            assert block[0, i] == moment(StateSpec.thermal(rbar, op), 1, 1)

    @pytest.mark.parametrize("op, rbar, order", [
        *((EngineeringOp.bare(), rbar, 171) for rbar in (0.001, 0.01, 0.1, 0.5)),
        (EngineeringOp.pas(2, 1), 0.01, 200),
        (EngineeringOp.psa(1, 2), 0.001, 300),
    ], ids=lambda v: v.label() if isinstance(v, EngineeringOp) else str(v))
    def test_a_term_past_170_factorial_against_mpmath(self, op, rbar, order):
        # c M! of the top term is past the largest float, so it is taken
        # from log c + lgamma(M + 1)
        value = moment(StateSpec.thermal(rbar, op), order, order)
        assert value.real == pytest.approx(self._exact(op, rbar, order), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("op", [EngineeringOp.bare(), EngineeringOp.pas(2, 1)], ids=EngineeringOp.label)
    @pytest.mark.parametrize("order", [171, 200])
    def test_a_grid_column_past_170_factorial_is_its_state(self, op, order):
        rbars = np.array([0.001, 0.01, 0.1, 0.3])
        column = moment(StateSpec.thermal(rbars, op), order, order)
        for i, rbar in enumerate(rbars):
            value = moment(StateSpec.thermal(rbar, op), order, order)
            assert np.array_equal(column[i:i + 1].view(np.uint64), np.array([value]).view(np.uint64))

    def test_past_the_float_range_still_raises(self):
        # 171! rbar^171 with rbar = 1 is about 1.2e309
        with pytest.raises(OutOfRange):
            moment(StateSpec.thermal(1.0), 171, 171)
        with pytest.raises(OutOfRange):
            moment(StateSpec.thermal(np.array([0.01, 1.0])), 171, 171)


class TestMomentTableFill:
    def _counting(self, monkeypatch):
        calls = []
        original = states.moment

        def counting(spec, m, n):
            calls.append((np.size(m), np.ndim(spec.parameter)))
            return original(spec, m, n)

        monkeypatch.setattr(states, "moment", counting)
        return calls

    def test_one_call_fills_the_pairs(self, monkeypatch):
        calls = self._counting(monkeypatch)
        spec = StateSpec.thermal(np.array([0.5, 1.0, 2.0]), EngineeringOp.psa(2, 1))
        pairs = [(0, 0), (1, 1), (2, 2), (3, 3)]
        table = MomentTable.analytic(spec, pairs)
        for m, n in pairs:
            expected = moment(StateSpec.of(spec.family, spec.parameter, spec.op), m, n)
            np.testing.assert_array_equal(table.get(m, n), expected)
        assert calls == [(len(pairs), 1)]
        # another pair: the same call with that one pair
        del calls[:]
        table.get(4, 4)
        table.get(4, 4)
        assert calls == [(1, 1)]

    def test_one_state_entries_are_complex(self):
        spec = StateSpec.even_coherent(0.8 + 0.1j, EngineeringOp.pas(1, 2))
        table = MomentTable.analytic(spec, [(0, 0), (2, 1), (1, 1)])
        for m, n in [(2, 1), (1, 1), (3, 0)]:
            value = table.get(m, n)
            assert type(value) is complex
            _assert_same_bits(value, reference_one(spec, m, n))


# ---------------------------------------------------------------------------
# A state is its column of any grid
# ---------------------------------------------------------------------------

def _sweep_grid(family, scale=1.0):
    """The 200-point grid a sweep of the family takes, times scale."""
    lo, hi = family.window
    return np.array(witnesses.linspace(lo, hi, 200)) * scale


COLUMN_GRIDS = [
    (states.FAMILY_THERMAL, _sweep_grid(states.FAMILY_THERMAL)),
    (states.FAMILY_EVEN_COHERENT, _sweep_grid(states.FAMILY_EVEN_COHERENT)),
    (states.FAMILY_EVEN_COHERENT, _sweep_grid(states.FAMILY_EVEN_COHERENT, 0.8 - 0.6j)),
]
COLUMN_POINTS = (0, 100, 199)
COLUMN_LEVELS = np.arange(40)


class TestGridColumns:
    """moment and photon_prob of a state equal, bit for bit, its column of a
    200-point sweep grid and of grids of one and two points."""

    @pytest.mark.parametrize("family, values", COLUMN_GRIDS, ids=["thermal", "ecs", "ecs-complex"])
    @pytest.mark.parametrize("op", [EngineeringOp.bare(), *_pas_psa_up_to(3)], ids=EngineeringOp.label)
    def test_moments(self, family, values, op):
        block = moment(StateSpec.of(family, values, op), PAIR_MS, PAIR_NS)
        for i in COLUMN_POINTS:
            one = moment(StateSpec.of(family, values[i], op), PAIR_MS, PAIR_NS)
            _assert_same_bits(one, block[:, i].copy())
            for m, n in ((0, 0), (2, 2), (3, 1)):
                _assert_same_bits(moment(StateSpec.of(family, values[i], op), m, n),
                                  complex(block[PAIRS.index((m, n)), i]))
        for points in ([0], [100], [199], [0, 199], [99, 100]):
            small = moment(StateSpec.of(family, values[points], op), PAIR_MS, PAIR_NS)
            _assert_same_bits(small, block[:, points].copy())

    @pytest.mark.parametrize("family, values", COLUMN_GRIDS, ids=["thermal", "ecs", "ecs-complex"])
    @pytest.mark.parametrize("op", [EngineeringOp.bare(), *_pas_psa_up_to(3)], ids=EngineeringOp.label)
    def test_photon_probs(self, family, values, op):
        block = photon_prob(StateSpec.of(family, values, op), COLUMN_LEVELS)
        for i in COLUMN_POINTS:
            one = StateSpec.of(family, values[i], op)
            _assert_bit_equal(photon_prob(one, COLUMN_LEVELS), block[:, i].copy())
            for m in (0, 1, 2, 7):
                assert photon_prob(one, m) == block[m, i]
            _assert_bit_equal(photon_prob(StateSpec.of(family, values, op), 7), block[7].copy())
        for points in ([0], [100], [199], [0, 199], [99, 100]):
            small = photon_prob(StateSpec.of(family, values[points], op), COLUMN_LEVELS)
            _assert_bit_equal(small, block[:, points].copy())


# ---------------------------------------------------------------------------
# Even-cat photon-number probabilities at large amplitude
# ---------------------------------------------------------------------------

def _cat_photon_prob_exact(op, alpha, m):
    """p_m of the engineered even cat at 50 digits: 4 e^(-a2) a2^k / k! W(m)
    over the norm, the (0,0) contraction, for k = m + p - q and a2 = alpha^2
    (alpha real)."""
    with mpmath.workdps(50):
        a2 = mpmath.mpf(alpha) ** 2
        e = mpmath.exp(-2 * a2)
        weights = (2 * (1 + e), 2 * (1 - e))
        norm = mpmath.fsum(c * a2 ** dag * weights[dag % 2]
                           for dag, plain, c in states._contraction_table(op, 0, 0))
        k = m + op.p - op.q
        weight = states._fock_weight(op, m)
        if k % 2 or not weight:
            return 0.0
        log_p = k * mpmath.log(a2) - a2 - mpmath.loggamma(k + 1) + mpmath.log(4 * weight) - mpmath.log(norm)
        return float(mpmath.exp(log_p))


CAT_OPS = [EngineeringOp.bare(), EngineeringOp.psa(1, 1)]
LARGE_ALPHAS = (30.0, 1e3, 1e5, 1e6, 1e7, 1e8)


def _around_the_peak(alpha):
    a2, spread = int(alpha * alpha), int(3 * alpha)
    return (a2 - spread, a2, a2 + spread)


class TestCatPhotonProbLargeAmplitude:
    """Loader's saddle-point form of the Poisson weight keeps full precision
    where k is near |alpha|^2, however large."""

    @pytest.mark.parametrize("op", CAT_OPS, ids=EngineeringOp.label)
    @pytest.mark.parametrize("alpha", [0.3, 1.2, 3.0])
    def test_small_amplitudes_against_mpmath(self, op, alpha):
        spec = StateSpec.even_coherent(alpha, op)
        probs = photon_prob(spec, np.arange(41))
        for m in range(41):
            expected = _cat_photon_prob_exact(op, alpha, m)
            assert probs[m] == pytest.approx(expected, rel=1e-12, abs=0.0), m
            assert photon_prob(spec, m) == probs[m]

    @pytest.mark.parametrize("op", CAT_OPS, ids=EngineeringOp.label)
    @pytest.mark.parametrize("alpha", LARGE_ALPHAS)
    def test_large_amplitudes_against_mpmath(self, op, alpha):
        spec = StateSpec.even_coherent(alpha, op)
        for m in _around_the_peak(alpha):
            assert photon_prob(spec, m) == pytest.approx(_cat_photon_prob_exact(op, alpha, m), rel=1e-12), m

    @pytest.mark.parametrize("op", CAT_OPS, ids=EngineeringOp.label)
    def test_no_probability_exceeds_one(self, op):
        grid = StateSpec.even_coherent(np.array(LARGE_ALPHAS), op)
        for alpha in LARGE_ALPHAS:
            m = np.array(_around_the_peak(alpha))
            one = photon_prob(StateSpec.even_coherent(alpha, op), m)
            block = photon_prob(grid, m)
            assert (one <= 1.0).all() and (block <= 1.0).all()
            assert (one > 0.0).all()


# ---------------------------------------------------------------------------
# A thermal pair far past the float range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    # 300! 0.5^300 is about 1e524, 300! 0.1^300 about 3e314
    StateSpec.thermal(np.array([0.5, 0.1]), EngineeringOp.pas(2, 1)),
    StateSpec.thermal(np.array([0.5]), EngineeringOp.psa(1, 2)),
    # at rbar = 0 the term of M = 300 is 0
    StateSpec.thermal(np.array([0.0, 0.5])),
], ids=["PAS(2,1)", "PSA(1,2)", "with rbar 0"])
def test_a_pair_past_the_float_range_contracts_as_its_exact_terms(spec):
    # the pair's terms are taken from their logarithms: inf where rbar > 0
    # and 0 at rbar = 0, while the pairs beside it keep the bits they have alone
    pairs = ((0, 0), (1, 1), (300, 300))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        total = states._contract([spec], pairs)
        alone = states._contract([spec], pairs[:2])
    assert np.array_equal(total[:2].view(np.uint64), alone.view(np.uint64))
    assert total[2].tolist() == [math.inf if rbar > 0 else 0.0 for rbar in spec.parameter]


def test_a_pair_near_the_float_range_keeps_its_exact_terms():
    # 171! 1.02^171, about e^715: past the largest float, e^709.8, by less
    # than a factor e^6, and the term taken from its logarithm overflows
    with pytest.raises(OutOfRange, match=re.escape("<a'^171 a^171> of thermal(rbar=1.02)|bare")):
        moment(StateSpec.thermal(1.02), 171, 171)


@pytest.mark.parametrize("op", [EngineeringOp.bare(), EngineeringOp.pas(2, 1)], ids=EngineeringOp.label)
def test_a_moment_far_past_the_float_range_builds_no_factorial_past_170(op, monkeypatch):
    factorial = math.factorial

    def guarded(n):
        if n > 170:
            raise AssertionError(f"{n}! built")
        return factorial(n)

    # the terms of <a'^l a^l> are padded afresh, so their weights are built here
    states._padded.cache_clear()
    monkeypatch.setattr(math, "factorial", guarded)
    spec = StateSpec.thermal(0.5, op)
    with pytest.raises(OutOfRange, match=re.escape(f"<a'^1000000 a^1000000> of {spec.canonical()} exceeds")):
        witnesses.evaluate_witness(spec, "hoa", 10 ** 6)



# ---------------------------------------------------------------------------
# A grid spec is a stack of one
# ---------------------------------------------------------------------------

def _stack_pairs(family):
    """verify's pairs of the family plus pairs off the diagonal."""
    return sorted(set(verify._grid_pairs(family)) | {(3, 1), (1, 3), (0, 2), (5, 4), (2, 0)})


STACK_GRIDS = [
    (states.FAMILY_THERMAL, np.array([0.1, 0.5, 1.0, 2.0, 5.0])),
    (states.FAMILY_EVEN_COHERENT, np.array([0.3, 0.7 - 0.2j, 1.2, 2.0])),
]


class TestMomentStacks:
    """moment over a stack of grid specs: its columns, spec by spec, then
    point by point, are each spec's own call and each state's one-state
    call, bit for bit."""

    @pytest.mark.parametrize("family, values", STACK_GRIDS, ids=["thermal", "ecs"])
    def test_each_column_is_its_specs_own_call(self, family, values):
        ops = verify._engineering_ops()
        pairs = _stack_pairs(family)
        ms, ns = (np.array(orders) for orders in zip(*pairs))
        stack = [StateSpec.of(family, values, op) for op in ops]
        block = moment(stack, ms, ns)
        assert block.shape == (len(pairs), len(ops) * len(values))
        for s, op in enumerate(ops):
            columns = block[:, s * len(values):(s + 1) * len(values)]
            own = moment(StateSpec.of(family, values, op), ms, ns)
            np.testing.assert_array_equal(float_bits(columns), float_bits(own))
            for g in (0, len(values) - 1):
                one = moment(StateSpec.of(family, values[g], op), ms, ns)
                np.testing.assert_array_equal(float_bits(columns[:, g]), float_bits(one))
        # ints give one row over the stack's columns
        np.testing.assert_array_equal(float_bits(moment(stack, 2, 1)), float_bits(block[pairs.index((2, 1))]))

    @pytest.mark.parametrize("family, values", STACK_GRIDS, ids=["thermal", "ecs"])
    def test_each_spec_keeps_its_own_norm(self, family, values):
        ops = [EngineeringOp.pas(2, 1), EngineeringOp.psa(1, 2), EngineeringOp.bare()]
        stack = [StateSpec.of(family, values, op) for op in ops]
        moment(stack, 1, 1)
        for spec in stack:
            assert "_norm" in vars(spec)
            own = StateSpec.of(family, values, spec.op)._norm
            np.testing.assert_array_equal(spec._norm.view(np.uint64), own.view(np.uint64))

    def test_a_stack_holding_rbar_zero_has_gaps_where_an_operation_annihilates(self):
        values = np.array([0.0, 0.5, 2.0])
        ops = [EngineeringOp.bare(), EngineeringOp.pas(2, 1), EngineeringOp.psa(2, 1), EngineeringOp.pas(1, 2)]
        stack = [StateSpec.thermal(values, op) for op in ops]
        block = moment(stack, np.array([0, 1, 2]), np.array([0, 1, 2]))
        for s, op in enumerate(ops):
            columns = block[:, s * len(values):(s + 1) * len(values)]
            # k0 > 0: no bare constant term, so the state at rbar = 0 is gone
            assert np.isnan(columns[:, 0]).all() == (states._lowest_power(op) > 0)
            assert np.isfinite(columns[:, 1:]).all()
            np.testing.assert_array_equal(float_bits(columns),
                                          float_bits(moment(StateSpec.thermal(values, op), np.array([0, 1, 2]),
                                                       np.array([0, 1, 2]))))

    def test_a_member_that_needs_the_log_path_leaves_the_others_bits(self, monkeypatch):
        # at rbar = 1e-300, x^a underflows for a > 0: the (0,0) terms of
        # PAS(2,1) send the stack to the log-space redo path, while the bare
        # state's one term, x^0 y^0, takes the direct path alone
        values, pairs = np.array([1e-300, 0.5]), ((0, 0),)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bare = states._contract([StateSpec.thermal(values)], pairs)
            logs = []
            log = states._log
            monkeypatch.setattr(states, "_log", lambda value: logs.append(value) or log(value))
            mixed = states._contract([StateSpec.thermal(values), StateSpec.thermal(values, EngineeringOp.pas(2, 1))],
                                     pairs)
        # the bound's two logarithms, then the terms' log weights
        assert len(logs) > 2
        np.testing.assert_array_equal(mixed[:, :2].view(np.uint64), bare.view(np.uint64))

    @pytest.mark.parametrize("stack", [
        [StateSpec.thermal(np.array([0.5, 1.0])), StateSpec.even_coherent(np.array([0.5, 1.0]))],
        [StateSpec.thermal(np.array([0.5, 1.0])), StateSpec.thermal(np.array([0.5, 2.0]))],
        [StateSpec.thermal(np.array([0.5])), StateSpec.thermal(0.5, EngineeringOp.pas(1, 1))],
        [],
    ], ids=["families", "parameters", "one-state spec", "empty"])
    def test_a_stack_of_mismatched_specs_is_refused(self, stack):
        with pytest.raises(ValueError, match="one family over one parameter array"):
            moment(stack, 1, 1)
        with pytest.raises(ValueError, match="one family over one parameter array"):
            MomentTable.analytic(stack, [(1, 1)]).get(1, 1)

    def test_out_of_range_names_the_first_pair_and_state_of_the_stack(self):
        values = np.array([1.0, 1e200])
        stack = [StateSpec.thermal(values), StateSpec.thermal(values, EngineeringOp.pas(2, 2))]
        # <a'^2 a^2> of PAS(2,2) at rbar = 1e200 is about 3e401; the bare
        # state's <a'^2 a^2>, 2 rbar^2, is 2e400, past the range as well, and first
        with pytest.raises(OutOfRange, match=re.escape("<a'^2 a^2> of thermal(rbar=1e+200)|bare exceeds")):
            moment(stack, np.array([1, 2]), np.array([1, 2]))
        with pytest.raises(OutOfRange, match=re.escape("<a'^2 a^2> of thermal(rbar=1e+200)|PAS(2,2) exceeds")):
            moment(stack[1:], np.array([1, 2]), np.array([1, 2]))

    def test_a_one_state_spec_is_a_stack_of_one(self):
        spec = StateSpec.even_coherent(0.7 - 0.2j, EngineeringOp.psa(1, 2))
        block = moment([StateSpec.even_coherent(spec.parameter, spec.op)], np.array([2, 1]), np.array([1, 1]))
        assert block.shape == (2, 1)
        _assert_same_bits(moment(spec, 2, 1), complex(block[0, 0]))


class TestOrderLimit:
    """A moment table takes orders up to the int64 maximum, on both engines,
    and refuses a larger one with a ValueError that names the limit."""

    @pytest.mark.parametrize("family, value", [(states.FAMILY_THERMAL, 0.5), (states.FAMILY_EVEN_COHERENT, 0.5)],
                             ids=["thermal", "ecs"])
    @pytest.mark.parametrize("order", [2 ** 63, 10 ** 20])
    def test_an_order_past_int64_is_refused(self, family, value, order):
        spec = StateSpec.of(family, value)
        tables = [MomentTable.analytic(spec, [(1, 1)]),
                  oracle.moment_table_from_state(oracle.build_truncated(spec), [(1, 1)])]
        for table in tables:
            with pytest.raises(ValueError, match=re.escape("limited to 2**63 - 1 = 9223372036854775807")):
                table.get(order, order)

    def test_the_int64_maximum_is_taken(self):
        order = 2 ** 63 - 1
        with pytest.raises(OutOfRange, match=re.escape(f"<a'^{order} a^{order}> of thermal(rbar=0.5)|bare")):
            MomentTable.analytic(StateSpec.thermal(0.5)).get(order, order)


def test_a_count_that_is_not_an_integer_is_refused():
    # each was truncated or read as 0 where it entered, a moment order or a
    # step count, or raised a raw TypeError
    spec = StateSpec.thermal(1.0)
    calls = {
        "moment": lambda: moment(spec, 1.5, 1),
        "MomentTable.get": lambda: MomentTable.analytic(spec).get(1.5, 1),
        "oracle_moment": lambda: oracle.oracle_moment(oracle.build_truncated(spec), 1.5, 1),
        "sweep": lambda: sweep_report.sweep("hoa", 2, [EngineeringOp.pas(1, 1)], states.FAMILY_THERMAL, steps=2.5),
        "figure_pack steps": lambda: sweep_report.figure_pack("fig1", steps=2.5),
        "figure_pack grid_steps": lambda: sweep_report.figure_pack("fig7", grid_steps=2.5),
        "photon_prob": lambda: photon_prob(spec, 1.5),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"must be (an integer \(got (1\.5|2\.5)\)|integers)$"):
            call()
            pytest.fail(name)
    # a numpy integer is an integer
    op = EngineeringOp.pas(np.int64(1), np.int64(2))
    assert op == EngineeringOp.pas(1, 2) and op.label() == "PAS(1,2)"
    assert MomentTable.analytic(spec).get(np.int64(1), 1) == moment(spec, 1, 1) == moment(spec, np.int64(1), 1)
