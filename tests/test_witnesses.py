import argparse
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dense
import fockwitness
from fockwitness import cli, oracle, states, sweep_report, witnesses
from fockwitness.errors import DegenerateState, EmptyWindow, OddOrder, OutOfRange, SingularDenominator, ZeroMeanPhoton
from fockwitness.specfun import normal_order, quadrature_power_coeffs
from fockwitness.states import EngineeringOp, MomentTable, StateSpec
from fockwitness.witnesses import (
    ScanGrid,
    agarwal_tara,
    evaluate_witness,
    hoa,
    hos,
    hosps,
    husimi_zero_scan,
    klyshko,
    mandel_q,
)

BARE_THERMAL = StateSpec.thermal(1.0)
PSAT11 = StateSpec.thermal(1.0, EngineeringOp.psa(1, 1))


@pytest.fixture(scope="module")
def bare_table():
    return MomentTable.analytic(BARE_THERMAL)


@pytest.fixture(scope="module")
def psat_table():
    return MomentTable.analytic(PSAT11)


class TestMandel:
    def test_bare_thermal(self, bare_table):
        assert mandel_q(bare_table, 2) == pytest.approx(1.0, rel=1e-12)

    def test_psat_value(self, psat_table):
        assert mandel_q(psat_table, 2) == pytest.approx(17 / 39, rel=1e-12)

    def test_psat_negative_at_small_rbar(self):
        table = MomentTable.analytic(StateSpec.thermal(0.05, EngineeringOp.psa(1, 1)))
        assert mandel_q(table, 2) < -1e-10

    def test_zero_mean_photon(self):
        table = MomentTable.analytic(StateSpec.thermal(0.0))
        with pytest.raises(ZeroMeanPhoton):
            mandel_q(table, 2)

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_a_subnormal_mean_is_out_of_range(self, engine):
        # the mean of this cat, about |alpha|^4, is positive but below the
        # normal floats: divided by, it would give 0.0, where the true
        # value is 1 (the oracle's, and the alpha = 1e-20 limit)
        spec = StateSpec.even_coherent(1e-81, EngineeringOp.pas(1, 1))
        with pytest.raises(OutOfRange, match="mean photon number below the float range"):
            evaluate_witness(spec, "mandel", 2, engine=engine)
        limit = evaluate_witness(StateSpec.even_coherent(1e-20, EngineeringOp.pas(1, 1)), "mandel", 2, engine=engine)
        assert limit.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_a_mean_that_underflows_to_0_is_out_of_range(self, engine):
        # the mean of this cat, about |alpha|^4 = 1e-680, is exactly 0.0 in
        # floats, but the state is not the vacuum: its mandel is out of
        # range, on a grid too, and only the vacuum is a zero-mean state
        spec = StateSpec.even_coherent(1e-170)
        assert states.moment(spec, 1, 1) == 0
        with pytest.raises(OutOfRange, match="mean photon number below the float range"):
            evaluate_witness(spec, "mandel", 2, engine=engine)
        with pytest.raises(OutOfRange, match="mean photon number below the float range"):
            evaluate_witness(StateSpec.even_coherent(np.array([1e-170, 1.0])), "mandel", 2, engine=engine)
        with pytest.raises(ZeroMeanPhoton):
            evaluate_witness(StateSpec.even_coherent(np.array([0.0, 1e-170])), "mandel", 2, engine=engine)
        for op in (EngineeringOp.bare(), EngineeringOp.pas(1, 1), EngineeringOp.psa(0, 0)):
            with pytest.raises(ZeroMeanPhoton):
                evaluate_witness(StateSpec.even_coherent(0.0, op), "mandel", 2, engine=engine)

    def test_single_photon_added_thermal_is_nonclassical(self):
        # the classic single-photon-added thermal state: strongly
        # sub-Poissonian at small mean photon number
        table = MomentTable.analytic(StateSpec.thermal(0.05, EngineeringOp.psa(0, 1)))
        assert mandel_q(table, 2) < -0.5

    @pytest.mark.parametrize(
        "spec",
        [
            BARE_THERMAL,
            PSAT11,
            StateSpec.thermal(2.0, EngineeringOp.pas(2, 1)),
            StateSpec.even_coherent(1.1, EngineeringOp.pas(1, 2)),
        ],
    )
    def test_order_two_reduction(self, spec):
        # Q^(2) <n> = <n^2> - <n>^2 - <n>
        table = MomentTable.analytic(spec)
        mean = table.get(1, 1).real
        n2 = table.get(2, 2).real + mean
        assert mandel_q(table, 2) * mean == pytest.approx(n2 - mean ** 2 - mean, rel=1e-11)


class TestHoa:
    def test_psat_value(self, psat_table):
        assert hoa(psat_table, 2) == pytest.approx(17 / 9, rel=1e-12)

    def test_negative_near_zero_rbar(self):
        table = MomentTable.analytic(StateSpec.thermal(0.05, EngineeringOp.psa(1, 1)))
        assert hoa(table, 2) < 0

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_coherent_baseline_zero(self, l):
        table = oracle.moment_table_from_state(oracle.coherent_truncated(1.0, 1e-15))
        assert hoa(table, l) == pytest.approx(0.0, abs=1e-9)


class TestHosps:
    def test_bare_thermal(self, bare_table):
        # reduces to <(dn)^2> - <n> = rbar^2
        assert hosps(bare_table, 2) == pytest.approx(1.0, rel=1e-11)

    def test_order_two_equals_hoa(self, psat_table, bare_table):
        for table in (psat_table, bare_table):
            assert hosps(table, 2) == pytest.approx(hoa(table, 2), rel=1e-11)

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_matches_oracle_poissonian_reference(self, l):
        spec = StateSpec.thermal(0.8, EngineeringOp.pas(1, 2))
        state = oracle.build_truncated(spec, 1e-15)
        probs = state.probabilities()
        mean = sum(p * k for k, p in enumerate(probs))
        central = sum(p * (k - mean) ** l for k, p in enumerate(probs))
        reference = central - oracle.oracle_poissonian_central_moment(mean, l)
        value = hosps(MomentTable.analytic(spec), l)
        assert value == pytest.approx(reference, rel=1e-9)

    def test_order_below_two_rejected(self, bare_table):
        with pytest.raises(ValueError, match="hosps requires l >= 2"):
            hosps(bare_table, 1)


class TestHos:
    def test_bare_thermal(self, bare_table):
        assert hos(bare_table, 2) == pytest.approx(2.0, rel=1e-12)

    def test_vacuum_saturates_bound(self):
        table = MomentTable.analytic(StateSpec.thermal(0.0))
        assert hos(table, 2) == pytest.approx(0.0, abs=1e-13)

    def test_coherent_baseline(self):
        table = oracle.moment_table_from_state(oracle.coherent_truncated(2.0, 1e-15))
        assert hos(table, 2) == pytest.approx(0.0, abs=1e-9)

    def test_odd_order_rejected(self, bare_table):
        with pytest.raises(OddOrder):
            hos(bare_table, 3)

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_sums_past_the_float_range_raise(self, engine):
        # every moment hos(270) reads is in range at rbar = 0.5, but its
        # quadrature sums are not; 268 is the last finite even order there
        spec = StateSpec.thermal(0.5)
        for l in (270, 290):
            with pytest.raises(OutOfRange, match=f"quadrature sums of hos at order {l}"):
                evaluate_witness(spec, "hos", l, engine=engine)
        if engine == "analytic":
            assert evaluate_witness(spec, "hos", 268).value == 2.1778071482940052e+40

    def test_the_highest_orders_stay_small_in_a_new_process(self):
        # hos(290) reads every power (a + a')^k, k <= 290, about 2.1 million
        # terms, before its sums overflow: held as Python integers they took
        # the process to about 500 MB. The child reads its own peak, VmHWM,
        # in kB: its ru_maxrss would start from this process's at exec.
        source = "\n".join([
            "import re, sys",
            f"sys.path[:0] = {[os.path.dirname(os.path.dirname(fockwitness.__file__))]!r}",
            "from fockwitness.errors import OutOfRange",
            "from fockwitness.states import StateSpec",
            "from fockwitness.witnesses import evaluate_witness",
            "try:",
            "    evaluate_witness(StateSpec.thermal(0.5), 'hos', 290)",
            "except OutOfRange:",
            "    print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])",
        ])
        out = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, check=True).stdout
        assert int(out) < 200 * 1024

    def test_a_grid_keeps_its_gaps_and_raises_past_the_float_range(self):
        spec = StateSpec.thermal(np.array([0.0, 0.5]), EngineeringOp.psa(2, 1))
        # PSA(2,1) is annihilated at rbar = 0, a gap, which is not out of range
        values = evaluate_witness(spec, "hos", 260).value
        assert math.isnan(values[0])
        assert values[1] == evaluate_witness(StateSpec.thermal(0.5, EngineeringOp.psa(2, 1)), "hos", 260).value
        with pytest.raises(OutOfRange):
            evaluate_witness(spec, "hos", 268)

    @pytest.mark.parametrize("l", [2, 4, 6])
    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec.thermal(0.3, EngineeringOp.pas(1, 1)),
            StateSpec.thermal(2.5, EngineeringOp.psa(1, 2)),
            StateSpec.even_coherent(1.5, EngineeringOp.pas(2, 1)),
            StateSpec.even_coherent(0.4, EngineeringOp.psa(2, 1)),
        ],
    )
    def test_engineered_states_never_squeezed(self, spec, l):
        assert hos(MomentTable.analytic(spec), l) >= -1e-10

    def test_bare_thermal_gaussian_values(self):
        # X is Gaussian with variance (1 + 2 rbar)/2, so at rbar = 1 the
        # even-order values are exactly 2, 8, 26
        table = MomentTable.analytic(StateSpec.thermal(1.0))
        for l, expected in ((2, 2.0), (4, 8.0), (6, 26.0)):
            assert hos(table, l) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec.thermal(0.5, EngineeringOp.psa(1, 1)),
            StateSpec.even_coherent(1.2, EngineeringOp.pas(1, 2)),
        ],
    )
    @pytest.mark.parametrize("l", [2, 4, 6])
    def test_against_quadrature_distribution(self, spec, l):
        # independent route: diagonalize X on the truncated space and take
        # central moments of the eigenvalue distribution
        import numpy as np

        dim = oracle.build_truncated(spec, 1e-15).cutoff
        rho = dense.density_matrix(spec, dim)
        x_op = (dense.annihilation_matrix(dim) + dense.creation_matrix(dim)) / np.sqrt(2)
        eigenvalues, eigenvectors = np.linalg.eigh(x_op)
        probs = np.real(np.einsum("ij,jk,ki->i", eigenvectors.conj().T, rho, eigenvectors))
        mean = float(np.sum(probs * eigenvalues))
        central = float(np.sum(probs * (eigenvalues - mean) ** l))
        reference = 1.0
        for i in range(1, l, 2):
            reference *= i
        reference /= 2 ** (l / 2)
        distribution_route = (central - reference) / reference
        witness_route = hos(MomentTable.analytic(spec), l)
        assert witness_route == pytest.approx(distribution_route, rel=1e-9)


def _hos_per_term(table, l):
    """hos(table, l) with each quadrature moment summed one term at a time,
    in the order quadrature_power_coeffs gives the terms, each coefficient
    as the double it rounds to."""
    entries = {pair: np.atleast_1d(table.get(*pair)) for pair in witnesses.moment_pairs("hos", l)}

    def quad_moment(k):
        total = 0j
        for j, m, coeff in quadrature_power_coeffs(k):
            total += float(coeff) * entries[j, m]
        return (total / 2 ** (k / 2.0)).real

    mean_x = quad_moment(1)
    central = 0.0
    for k in range(l + 1):
        central += math.comb(l, k) * (-mean_x) ** (l - k) * quad_moment(k)
    reference = quadrature_power_coeffs(l)[0][2] / 2 ** (l / 2.0)
    return (central - reference) / reference


class TestHosTermSums:
    """hos sums each quadrature moment's terms in one stacked pass; it
    equals the per-term loop bit for bit."""

    @pytest.mark.parametrize("spec", [
        StateSpec.thermal(1.5, EngineeringOp.psa(2, 1)),
        StateSpec.even_coherent(1.2),
        StateSpec.of(states.FAMILY_THERMAL, np.linspace(0.01, 3.0, 9), EngineeringOp.pas(1, 2)),
        StateSpec.of(states.FAMILY_EVEN_COHERENT, np.linspace(0.1, 2.0, 7), EngineeringOp.psa(2, 1)),
    ], ids=["thermal", "ecs", "thermal-grid", "ecs-grid"])
    def test_equals_per_term_loop(self, spec):
        table = MomentTable.analytic(spec, witnesses.moment_pairs("hos", 40))
        for l in range(2, 41, 2):
            stacked = np.atleast_1d(np.asarray(hos(table, l), dtype=np.float64))
            per_term = np.asarray(_hos_per_term(table, l), dtype=np.float64)
            assert stacked.view(np.uint64).tolist() == per_term.view(np.uint64).tolist(), l

    def test_pairs_are_the_terms_read(self):
        for l in range(2, 41, 2):
            terms = {(j, m) for k in range(l + 1) for j, m, _ in quadrature_power_coeffs(k)}
            assert witnesses.moment_pairs("hos", l) == tuple(sorted(terms)), l


class TestAgarwalTara:
    def test_bare_thermal_number_moments(self, bare_table):
        assert agarwal_tara(bare_table) == pytest.approx(1 / 7, rel=1e-12)

    def test_bare_thermal_power_of_mean(self, bare_table):
        assert agarwal_tara(bare_table, witnesses.VARIANT_POWER_OF_MEAN) == pytest.approx(-1.0, rel=1e-12)

    def test_coherent_power_of_mean_singular(self):
        table = oracle.moment_table_from_state(oracle.coherent_truncated(1.0, 1e-15))
        with pytest.raises(SingularDenominator):
            agarwal_tara(table, witnesses.VARIANT_POWER_OF_MEAN)

    def test_coherent_number_moments_is_zero(self):
        table = oracle.moment_table_from_state(oracle.coherent_truncated(1.0, 1e-15))
        assert agarwal_tara(table) == pytest.approx(0.0, abs=1e-9)

    def test_unknown_variant(self, bare_table):
        with pytest.raises(ValueError):
            agarwal_tara(bare_table, "geometric_mean")

    @pytest.mark.parametrize("rbar", [0.5, 1.0, 2.0, 5.0])
    def test_positive_for_bare_thermal(self, rbar):
        table = MomentTable.analytic(StateSpec.thermal(rbar))
        assert agarwal_tara(table) > 0


class TestKlyshko:
    def test_bare_thermal_value(self):
        assert klyshko(BARE_THERMAL, 2) == pytest.approx(1 / 256, rel=1e-12)

    @pytest.mark.parametrize("rbar", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", range(7))
    def test_geometric_closed_form(self, rbar, m):
        x = rbar / (1 + rbar)
        expected = x ** (2 * m + 2) / (1 + rbar) ** 2
        assert klyshko(StateSpec.thermal(rbar), m) == pytest.approx(expected, abs=1e-12)
        assert expected > 0

    def test_vanishing_probabilities_give_zero(self):
        # all support sits at photon number >= 4, so B(0) sees three zeros
        spec = StateSpec.even_coherent(1.0, EngineeringOp.pas(0, 4))
        assert klyshko(spec, 0) == 0.0

    def test_engines_agree(self):
        spec = StateSpec.even_coherent(1.3, EngineeringOp.psa(2, 1))
        assert klyshko(spec, 3, engine="analytic") == pytest.approx(
            klyshko(spec, 3, engine="oracle", tail_tol=1e-15), abs=1e-12
        )

    def test_negative_region_exists_for_subtract_heavy_ecs(self):
        values = [
            klyshko(StateSpec.even_coherent(a, EngineeringOp.psa(2, 1)), 4)
            for a in [0.2 + 0.14 * i for i in range(20)]
        ]
        assert min(values) < -1e-10


class TestHusimiZeroScan:
    def test_gaussian_has_no_zeros(self):
        grid = ScanGrid(-2.0, 2.0, -2.0, 2.0, steps=21)
        assert husimi_zero_scan(BARE_THERMAL, grid) == []

    def test_psa_zero_at_origin(self):
        grid = ScanGrid(-1.0, 1.0, -1.0, 1.0, steps=21)  # grid contains 0
        spec = StateSpec.thermal(2.0, EngineeringOp.psa(1, 2))
        assert 0j in husimi_zero_scan(spec, grid)
        # an exact zero, not only a point below ZERO_THRESHOLD
        assert states.husimi(spec, 0j) == 0.0

    def test_engineered_ecs_has_zero_curve(self):
        spec = StateSpec.even_coherent(2.0, EngineeringOp.pas(2, 4))
        zeros = husimi_zero_scan(spec, ScanGrid(steps=41))
        assert zeros

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ScanGrid(steps=1)
        with pytest.raises(ValueError):
            ScanGrid(re_min=2.0, re_max=-2.0)

    def test_analytic_values_follow_points(self):
        grid = ScanGrid(-1.3, 2.1, -0.7, 3.3, steps=7)
        spec = StateSpec.even_coherent(1.1 - 0.4j, EngineeringOp.pas(2, 1))
        values = witnesses.ENGINES["analytic"].husimi(spec, grid.betas(), oracle.DEFAULT_TAIL_TOL).ravel()
        expected = [states.husimi(spec, beta) for beta in grid.points()]
        assert len(values) == len(expected) == 49
        for value, reference in zip(values, expected):
            assert abs(value - reference) <= 1e-14 * reference

    @pytest.mark.parametrize("alpha", [32.0, 200.0])
    def test_empty_window_is_not_nonclassical(self, alpha):
        # the state lies outside the window: Q is 0.0 at every grid point
        spec = StateSpec.even_coherent(alpha)
        with pytest.raises(EmptyWindow, match=r"window Re\(beta\) in \[-4.0, 4.0\]"):
            husimi_zero_scan(spec)
        with pytest.raises(EmptyWindow):
            evaluate_witness(spec, "husimi_zero")

    def test_row_major_order(self):
        grid = ScanGrid(-1.0, 1.0, -1.0, 1.0, steps=3)
        points = list(grid.points())
        assert points[0] == complex(-1, -1)
        assert points[1] == complex(0, -1)
        assert points[-1] == complex(1, 1)


class TestEvaluateWitness:
    def test_wraps_value_and_flag(self):
        result = evaluate_witness(PSAT11, "mandel", order=2)
        assert result.witness == "mandel"
        assert result.order == 2
        assert result.value == pytest.approx(17 / 39, rel=1e-12)
        assert result.nonclassical is False
        assert result.provenance == "analytic"

    def test_oracle_engine(self):
        result = evaluate_witness(PSAT11, "hoa", order=2, engine="oracle")
        assert result.provenance == "oracle"
        assert result.value == pytest.approx(17 / 9, rel=1e-8)

    # grids holding an annihilated state (thermal PAS(2,1) at rbar = 0) and
    # indeterminate A3 points (the even cat near the vacuum)
    @pytest.mark.parametrize("witness, order, spec", [
        ("hoa", 3, StateSpec.thermal(np.array([0.0, 0.4, 1.7]), EngineeringOp.pas(2, 1))),
        ("klyshko", 1, StateSpec.thermal(np.array([0.0, 0.4, 1.7]), EngineeringOp.pas(2, 1))),
        ("agarwal_tara", 0, StateSpec.even_coherent(np.array([0.0, 0.01, 1.3]), EngineeringOp.pas(1, 1))),
    ], ids=["hoa", "klyshko", "agarwal_tara"])
    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_grid_spec_equals_one_state_calls(self, witness, order, spec, engine):
        values = evaluate_witness(spec, witness, order, engine=engine).value
        assert isinstance(values, np.ndarray) and np.isnan(values).any()
        for point, got in zip(spec.parameter, values):
            one = StateSpec.of(spec.family, point, spec.op)
            try:
                want = evaluate_witness(one, witness, order, engine=engine).value
            except (DegenerateState, SingularDenominator):
                assert math.isnan(got)
            else:
                assert type(want) is float and got == want

    # a stack of grid specs of one family, with an annihilated state
    # (thermal PAS(2,1) and PSA(2,1) at rbar = 0) and indeterminate A3 points
    # (the even cat near the vacuum)
    @pytest.mark.parametrize("witness, order", [("mandel", 2), ("hoa", 3), ("hosps", 3), ("hos", 4),
                                                ("agarwal_tara", 0), ("klyshko", 1)])
    @pytest.mark.parametrize("family, values", [
        (states.FAMILY_THERMAL, np.array([0.0, 0.4, 1.7])),
        (states.FAMILY_EVEN_COHERENT, np.array([0.01, 0.6 + 0.3j, 1.3])),
    ], ids=["thermal", "ecs"])
    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_a_stack_equals_its_grid_specs(self, witness, order, family, values, engine):
        ops = [EngineeringOp.pas(2, 1), EngineeringOp.psa(2, 1), EngineeringOp.pas(1, 2)]
        stack = [StateSpec.of(family, values, op) for op in ops]
        result = evaluate_witness(stack, witness, order, engine=engine)
        assert result.value.shape == result.nonclassical.shape == (len(ops) * len(values),)
        own = [evaluate_witness(StateSpec.of(family, values, op), witness, order, engine=engine) for op in ops]
        np.testing.assert_array_equal(result.value.view(np.uint64),
                                      np.concatenate([one.value for one in own]).view(np.uint64))
        np.testing.assert_array_equal(result.nonclassical, np.concatenate([one.nonclassical for one in own]))

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_husimi_zero_takes_one_state(self, engine):
        with pytest.raises(ValueError, match="one state"):
            evaluate_witness(StateSpec.thermal(np.array([0.5, 1.0])), "husimi_zero", engine=engine)
        with pytest.raises(ValueError, match="one state"):
            evaluate_witness([StateSpec.thermal(0.5)], "husimi_zero", engine=engine)

    def test_husimi_zero_result(self):
        grid = ScanGrid(-1.5, 1.5, -1.5, 1.5, steps=15)
        result = evaluate_witness(
            StateSpec.thermal(1.0, EngineeringOp.psa(1, 2)), "husimi_zero", grid=grid
        )
        assert result.nonclassical is True
        assert result.order == 0

    def test_unknown_witness(self):
        with pytest.raises(ValueError):
            evaluate_witness(BARE_THERMAL, "parity")

    # each witness reads one argument of WITNESS_READS; any other is refused
    @pytest.mark.parametrize("witness, kwargs", [
        ("hoa", {"order": 2, "variant": "bogus"}),
        ("hoa", {"variant": witnesses.VARIANT_NUMBER_MOMENTS}),
        ("klyshko", {"order": 1, "variant": witnesses.VARIANT_POWER_OF_MEAN}),
        ("husimi_zero", {"variant": witnesses.VARIANT_NUMBER_MOMENTS}),
        ("mandel", {"grid": ScanGrid(steps=3)}),
        ("agarwal_tara", {"grid": ScanGrid(steps=3)}),
        ("agarwal_tara", {"order": 7}),
        ("agarwal_tara", {"order": 2}),
        ("husimi_zero", {"order": 2}),
    ], ids=lambda v: " ".join(f"{k}={v!r}" for k, v in v.items()) if isinstance(v, dict) else v)
    def test_an_argument_the_witness_does_not_read_raises(self, witness, kwargs):
        with pytest.raises(ValueError, match=f"^{witness} takes no "):
            evaluate_witness(BARE_THERMAL, witness, **kwargs)

    # the figure panels and the benchmark's gate pass order 0 to these two
    @pytest.mark.parametrize("witness", ["agarwal_tara", "husimi_zero"])
    def test_order_zero_is_accepted_where_no_order_is_read(self, witness):
        result = evaluate_witness(PSAT11, witness, 0)
        assert result == evaluate_witness(PSAT11, witness)
        assert result.order == 0

    @pytest.mark.parametrize("witness", ["mandel", "hoa", "hosps", "hos", "klyshko"])
    def test_an_order_read_defaults_to_2(self, witness):
        result = evaluate_witness(PSAT11, witness)
        assert result == evaluate_witness(PSAT11, witness, 2)
        assert result.order == 2

    def test_agarwal_tara_reads_its_variant(self):
        result = evaluate_witness(BARE_THERMAL, "agarwal_tara", variant=witnesses.VARIANT_POWER_OF_MEAN)
        assert result.value == pytest.approx(-1.0, rel=1e-12)
        with pytest.raises(ValueError, match="unknown agarwal_tara variant 'bogus'"):
            evaluate_witness(BARE_THERMAL, "agarwal_tara", variant="bogus")

    def test_husimi_zero_reads_its_grid(self):
        # bare thermal Q at rbar = 1 is exp(-|beta|^2 / 2) / (2 pi): its
        # minimum over the grid's maximum is at the corners
        result = evaluate_witness(BARE_THERMAL, "husimi_zero", grid=ScanGrid(-1.0, 1.0, -1.0, 1.0, steps=3))
        assert result.value == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert evaluate_witness(BARE_THERMAL, "husimi_zero").value == pytest.approx(math.exp(-16.0), rel=1e-12)


# (witness, order) as the CLI default, the figure panels and verify read them
_READS = sorted(
    {panel[:2] for _, panels in sweep_report.FIGURES.values() for panel in panels if len(panel) == 3}
    | {(witness, 2) for witness in ("mandel", "hoa", "hosps", "hos")}
    | {("mandel", 3), ("hoa", 3), ("hosps", 3), ("agarwal_tara", 0)}
)


class TestMomentPairs:
    class _Recording(MomentTable):
        """A table that raises on any pair its witness does not list."""

        def __init__(self, spec, witness, order):
            allowed = set(witnesses.moment_pairs(witness, order))

            def fill(ms, ns):
                for m, n in zip(ms.tolist(), ns.tolist()):
                    if (m, n) not in allowed:
                        raise AssertionError(f"{witness}({order}) read ({m}, {n}), not in {sorted(allowed)}")
                return states.moment(spec, ms, ns)

            super().__init__(fill)

    @pytest.mark.parametrize("witness, order", _READS)
    @pytest.mark.parametrize("spec", [
        StateSpec.thermal(0.8, EngineeringOp.psa(2, 1)),
        StateSpec.even_coherent(1.1 + 0.3j, EngineeringOp.pas(1, 2)),
        StateSpec.thermal(np.array([0.3, 1.0, 2.5]), EngineeringOp.pas(1, 1)),
    ], ids=["thermal", "ecs", "grid"])
    def test_each_witness_reads_only_its_pairs(self, spec, witness, order):
        table = self._Recording(spec, witness, order)
        if witness == "agarwal_tara":
            for variant in (witnesses.VARIANT_NUMBER_MOMENTS, witnesses.VARIANT_POWER_OF_MEAN):
                agarwal_tara(table, variant)
            return
        {"mandel": mandel_q, "hoa": hoa, "hosps": hosps, "hos": hos}[witness](table, order)

    class _Counting(MomentTable):
        """An analytic table that counts its reads of each pair."""

        def __init__(self, spec, pairs=()):
            super().__init__(lambda ms, ns: states.moment(spec, ms, ns), pairs=pairs)
            self.reads = {}

        def get(self, m, n):
            self.reads[m, n] = self.reads.get((m, n), 0) + 1
            return super().get(m, n)

    @pytest.mark.parametrize("order", [2, 6, 12])
    @pytest.mark.parametrize("spec", [
        StateSpec.thermal(0.8, EngineeringOp.psa(2, 1)),
        StateSpec.even_coherent(np.array([0.4, 1.1]), EngineeringOp.pas(1, 2)),
    ], ids=["thermal", "grid"])
    def test_hos_reads_each_pair_once(self, spec, order):
        pairs = witnesses.moment_pairs("hos", order)
        table = self._Counting(spec, pairs)
        hos(table, order)
        assert table.reads == dict.fromkeys(pairs, 1)

    @pytest.mark.parametrize("witness, order", _READS)
    def test_the_oracle_tail_order_is_unchanged(self, monkeypatch, witness, order):
        # the n of <a'^n a^n> whose tail the oracle basis holds, as
        # the oracle engine's moment_table passes it to truncated_states
        passed = []
        monkeypatch.setattr(oracle, "truncated_states", lambda spec, tail_tol, n: passed.append(n))
        witnesses.ENGINES["oracle"].moment_table(PSAT11, witnesses.moment_pairs(witness, order), 1e-12)
        assert passed == [{"agarwal_tara": 4, "hos": order // 2}.get(witness, order)]

    @pytest.mark.parametrize("witness, order", _READS)
    def test_a_grid_table_is_one_moment_call(self, monkeypatch, witness, order):
        calls = []
        original = states.moment

        def counting(spec, m, n):
            calls.append(np.size(m))
            return original(spec, m, n)

        monkeypatch.setattr(states, "moment", counting)
        spec = StateSpec.even_coherent(np.array([0.4, 0.9, 1.7]), EngineeringOp.psa(1, 2))
        result = evaluate_witness(spec, witness, order)
        assert result.value.shape == (3,)
        assert calls == [len(witnesses.moment_pairs(witness, order))]


class TestLargestOrder:
    """Past witnesses.LARGEST_ORDER a witness's exact coefficients leave
    the float range; the order alone decides it, on either engine."""

    @staticmethod
    def _coefficients(witness, l):
        """The integers the witness's body turns into floats at order l
        that are not also read at order l - 1: the largest, as each grows
        with l."""
        if witness == "mandel":
            return [c for _, _, c in witnesses._number_power(l)]
        if witness == "hosps":
            return [s2 * math.comb(l, e) for e in range(1, l + 1) for _, _, s2 in witnesses._number_power(e)]
        return [c for _, _, c in quadrature_power_coeffs(l)]

    def test_each_number_power_extends_the_last_as_from_scratch(self):
        # (a'a)^r built as (a'a)^(r - 1) times a'a: the same terms as the
        # normal form of the word of r factors a'a
        for r in range(41):
            assert witnesses._number_power(r) == normal_order((((1, 1, 1),),) * r), r

    @pytest.mark.parametrize("witness", witnesses.LARGEST_ORDER)
    def test_the_largest_order_is_the_last_with_float_coefficients(self, witness):
        def floats(l):
            try:
                [float(c) for c in self._coefficients(witness, l)]
            except OverflowError:
                return False
            return True

        largest = witnesses.LARGEST_ORDER[witness]
        assert floats(largest) and not floats(largest + 1)

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    @pytest.mark.parametrize("witness", witnesses.LARGEST_ORDER)
    def test_past_the_largest_order_raises(self, witness, engine):
        order = witnesses.LARGEST_ORDER[witness] + 1
        spec = StateSpec.thermal(0.01, EngineeringOp.pas(1, 1))
        with pytest.raises(OutOfRange, match=f"coefficients of {witness} at order {order} "):
            evaluate_witness(spec, witness, order, engine=engine)
        table = MomentTable.analytic(spec)
        with pytest.raises(OutOfRange, match=f"coefficients of {witness} at order {order} "):
            {"mandel": mandel_q, "hosps": hosps, "hos": hos}[witness](table, order)

    @pytest.mark.parametrize("witness", ["mandel", "hosps"])
    def test_the_largest_order_gives_a_value(self, witness):
        order = witnesses.LARGEST_ORDER[witness]
        assert math.isfinite(evaluate_witness(StateSpec.thermal(0.01), witness, order).value)


def test_engines_reads_every_engine_choice():
    assert tuple(witnesses.ENGINES) == ("analytic", "oracle")
    for name, engine in witnesses.ENGINES.items():
        assert engine.name == name
        assert witnesses.engines(name) == (engine,)
    assert tuple(engine.name for engine in witnesses.engines("both")) == ("analytic", "oracle")
    with pytest.raises(ValueError, match="unknown engine 'quantum'"):
        witnesses.engines("quantum")
    # the CLI's --engine choices are the table's names and "both", on every command that reads one
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("moment", "witness", "sweep", "figure"):
        (action,) = [a for a in commands.choices[command]._actions if a.dest == "engine"]
        assert tuple(action.choices) == (*witnesses.ENGINES, "both")


def _counting(reached: set, name: str, original):
    def counting(*args, **kwargs):
        reached.add(name)
        return original(*args, **kwargs)

    return counting


# Each engine field looks the module function it calls up at call time, so
# a patched or traced one (bench/tracer.py counts layer calls this way) is
# the one called: each route reaches its engine's functions and none of the
# other engine's. An oracle Husimi basis is one build_truncated, which
# grows through truncated_states.
@pytest.mark.parametrize("evaluate, analytic, oracle_reads", [
    (lambda engine: evaluate_witness(PSAT11, "hoa", 2, engine=engine),
     {"moment"}, {"truncated_states"}),
    (lambda engine: evaluate_witness(PSAT11, "klyshko", 1, engine=engine),
     {"photon_prob"}, {"truncated_states"}),
    (lambda engine: evaluate_witness(PSAT11, "husimi_zero", grid=ScanGrid(steps=3), engine=engine),
     {"husimi"}, {"build_truncated", "truncated_states"}),
    (lambda engine: sweep_report.husimi_grid(PSAT11, steps=3, engine=engine),
     {"husimi"}, {"build_truncated", "truncated_states"}),
], ids=["moment witness", "klyshko", "husimi_zero", "husimi_grid"])
def test_each_engine_looks_its_functions_up_at_call_time(monkeypatch, evaluate, analytic, oracle_reads):
    for engine, expected in (("analytic", analytic), ("oracle", oracle_reads)):
        reached = set()
        for module, name in ((states, "moment"), (states, "photon_prob"), (states, "husimi"),
                             (oracle, "truncated_states"), (oracle, "build_truncated")):
            monkeypatch.setattr(module, name, _counting(reached, name, getattr(module, name)))
        evaluate(engine)
        monkeypatch.undo()
        assert reached == expected, engine


# every route names one engine: "both" is the caller's choice of two routes,
# and any other name raises where "hoa" and the moment table raise
@pytest.mark.parametrize("engine", ["both", "quantum"])
@pytest.mark.parametrize("evaluate", [
    lambda engine: evaluate_witness(BARE_THERMAL, "hoa", 2, engine=engine),
    lambda engine: evaluate_witness(BARE_THERMAL, "klyshko", 1, engine=engine),
    lambda engine: evaluate_witness(BARE_THERMAL, "husimi_zero", engine=engine),
    lambda engine: klyshko(BARE_THERMAL, 1, engine),
    lambda engine: husimi_zero_scan(BARE_THERMAL, ScanGrid(steps=3), engine=engine),
], ids=["hoa", "klyshko", "husimi_zero", "klyshko()", "husimi_zero_scan()"])
def test_an_unknown_engine_name_raises_on_every_route(evaluate, engine):
    with pytest.raises(ValueError, match=f"unknown engine '{engine}'"):
        evaluate(engine)


@pytest.mark.parametrize("spec", [
    StateSpec.thermal(0.7, EngineeringOp.pas(1, 2)),
    StateSpec.even_coherent(1.1 + 0.2j, EngineeringOp.psa(2, 1)),
], ids=lambda spec: spec.canonical())
def test_the_analytic_moment_route_is_states_moment(spec):
    # moment --engine analytic|both reads its value through the engine's moment_table
    for m, n in ((0, 0), (1, 1), (2, 0), (3, 2), (4, 4), (1, 5)):
        value = witnesses.ENGINES["analytic"].moment_table(spec, ((m, n),), oracle.DEFAULT_TAIL_TOL).get(m, n)
        assert type(value) is complex
        assert value == states.moment(spec, m, n)


# A seeded census of tiny nonzero parameters, log-uniform in [1e-160,
# 1e-60], on both families: none is annihilated (only the vacuum is), so each
# call gives its small-parameter limit, the value at parameter 1e-20 (whose
# corrections are of order 1e-20 or below), or OutOfRange where a norm or a
# mean underflows (to exactly 0 too: only the vacuum is a zero-mean state).
_CENSUS_OPS = [f(p, q) for f in (EngineeringOp.pas, EngineeringOp.psa) for p in range(5) for q in range(5)]
_CENSUS_READS = (("hoa", 2), ("mandel", 2), ("hosps", 2), ("hoa", 3))


def test_a_tiny_parameter_census_sees_no_annihilation():
    rng = np.random.default_rng(20261020)
    limits, outcomes = {}, {"value": 0, "OutOfRange": 0}
    for _ in range(400):
        family = (states.FAMILY_THERMAL, states.FAMILY_EVEN_COHERENT)[rng.integers(2)]
        op = _CENSUS_OPS[rng.integers(len(_CENSUS_OPS))]
        name, l = _CENSUS_READS[rng.integers(len(_CENSUS_READS))]
        parameter = 10.0 ** rng.uniform(-160, -60)
        key = (family, op, name, l)
        if key not in limits:
            limits[key] = evaluate_witness(StateSpec.of(family, 1e-20, op), name, l).value
        spec = StateSpec.of(family, parameter, op)
        try:
            value = evaluate_witness(spec, name, l).value
        except OutOfRange:
            outcomes["OutOfRange"] += 1
            continue
        outcomes["value"] += 1
        assert abs(value - limits[key]) <= 1e-12 * max(1.0, abs(limits[key])), (spec.canonical(), name, l)
    # both outcomes occur, so neither branch is vacuous
    assert min(outcomes.values()) > 0, outcomes
