import math

import numpy as np
import pytest

import dense
from fockwitness import oracle, states, sweep_report, witnesses
from fockwitness.errors import DegenerateState, EmptyWindow, OddOrder, SingularDenominator, ZeroMeanPhoton
from fockwitness.states import EngineeringOp, MomentTable, StateSpec
from fockwitness.witnesses import (
    ScanGrid,
    agarwal_tara,
    evaluate_witness,
    hoa,
    hos,
    hosps,
    hosps_printed_form,
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
    def test_printed_form_sign_relation(self, psat_table, l):
        direct = hosps(psat_table, l)
        printed = hosps_printed_form(psat_table, l)
        assert printed == pytest.approx((-1) ** l * direct, rel=1e-10)

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
        assert husimi_zero_scan(BARE_THERMAL, grid, 1e-6) == []

    def test_psa_zero_at_origin(self):
        grid = ScanGrid(-1.0, 1.0, -1.0, 1.0, steps=21)  # grid contains 0
        zeros = husimi_zero_scan(StateSpec.thermal(2.0, EngineeringOp.psa(1, 2)), grid, 1e-9)
        assert 0j in zeros

    def test_engineered_ecs_has_zero_curve(self):
        spec = StateSpec.even_coherent(2.0, EngineeringOp.pas(2, 4))
        zeros = husimi_zero_scan(spec, ScanGrid(steps=41), 1e-6)
        assert zeros

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ScanGrid(steps=1)
        with pytest.raises(ValueError):
            ScanGrid(re_min=2.0, re_max=-2.0)

    def test_analytic_values_follow_points(self):
        grid = ScanGrid(-1.3, 2.1, -0.7, 3.3, steps=7)
        spec = StateSpec.even_coherent(1.1 - 0.4j, EngineeringOp.pas(2, 1))
        values = witnesses._husimi_grid_values(spec, grid, "analytic", oracle.DEFAULT_TAIL_TOL)
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

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_husimi_zero_takes_one_state(self, engine):
        with pytest.raises(ValueError, match="one state"):
            evaluate_witness(StateSpec.thermal(np.array([0.5, 1.0])), "husimi_zero", engine=engine)

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


# (witness, order) as the CLI default, the figure panels and verify read them
_READS = sorted(
    {(witness, order) for witness, panels in sweep_report._PANEL_COMBOS.items() for order, _, _ in panels}
    | {(witness, 2) for witness in ("mandel", "hoa", "hosps", "hos")}
    | {("mandel", 3), ("hoa", 3), ("hosps", 3), ("agarwal_tara", 0)}
)


class TestMomentPairs:
    class _Recording(MomentTable):
        """A table that raises on any pair its witness does not list."""

        def __init__(self, spec, witness, order):
            allowed = set(witnesses._moment_pairs(witness, order))

            def fill(ms, ns):
                for m, n in zip(ms.tolist(), ns.tolist()):
                    if (m, n) not in allowed:
                        raise AssertionError(f"{witness}({order}) read ({m}, {n}), not in {sorted(allowed)}")
                return states.moment(spec, ms, ns)

            super().__init__(spec, fill)

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
        if witness == "hosps":
            hosps_printed_form(table, order)

    @pytest.mark.parametrize("witness, order", _READS)
    def test_the_oracle_tail_order_is_unchanged(self, witness, order):
        # the n of <a'^n a^n> whose tail the oracle basis holds
        expected = {"agarwal_tara": 4, "hos": order // 2}.get(witness, order)
        assert oracle._tail_order(witnesses._moment_pairs(witness, order)) == expected

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
        assert calls == [len(witnesses._moment_pairs(witness, order))]


def test_engines_reads_every_engine_choice():
    assert witnesses.engines("analytic") == ("analytic",)
    assert witnesses.engines("oracle") == ("oracle",)
    assert witnesses.engines("both") == ("analytic", "oracle")
    with pytest.raises(ValueError, match="unknown engine 'quantum'"):
        witnesses.engines("quantum")


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
    # moment --engine analytic|both reads its value through _moment_table
    for m, n in ((0, 0), (1, 1), (2, 0), (3, 2), (4, 4), (1, 5)):
        value = witnesses._moment_table(spec, "analytic", oracle.DEFAULT_TAIL_TOL, ((m, n),)).get(m, n)
        assert type(value) is complex
        assert value == states.moment(spec, m, n)
