import math

import numpy as np
import pytest

from fockwitness import oracle
from fockwitness.errors import CutoffExceeded, DegenerateState
from fockwitness.states import FAMILY_EVEN_COHERENT, FAMILY_THERMAL, EngineeringOp, StateSpec


def test_ladder_commutator_on_interior():
    dim = 40
    a = oracle.annihilation_matrix(dim)
    ad = oracle.creation_matrix(dim)
    comm = a @ ad - ad @ a
    # both products are diagonal, so the commutator is exactly diagonal; the
    # diagonal itself carries only sqrt(k)*sqrt(k) rounding (about 1 ulp)
    off_diag = comm - np.diag(np.diag(comm))
    assert np.count_nonzero(off_diag) == 0
    interior = np.diag(comm)[: dim - 1]
    assert np.allclose(interior, 1.0, rtol=0.0, atol=1e-13)
    # the last diagonal entry is the truncation artifact
    assert comm[dim - 1, dim - 1].real == pytest.approx(1 - dim, rel=1e-13)


def test_bare_thermal_weights_geometric():
    state = oracle.build_truncated(StateSpec.thermal(1.0), 1e-12)
    probs = state.probabilities()
    expected = np.array([2.0 ** -(k + 1) for k in range(state.cutoff)])
    expected /= expected.sum()
    assert np.allclose(probs, expected, atol=1e-13)
    assert state.kind == oracle.KIND_DIAGONAL
    assert state.tail_mass < 1e-12


@pytest.mark.parametrize("rbar", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("q", range(4))
def test_past_matches_literal_weight_sequence(rbar, p, q):
    if rbar == 0 and q < p:
        return
    spec = StateSpec.thermal(rbar, EngineeringOp.pas(p, q))
    state = oracle.build_truncated(spec, 1e-13)
    x = rbar / (1 + rbar)
    weights = np.zeros(state.cutoff)
    for r in range(state.cutoff + p):
        level = r + q - p
        if level < 0 or level >= state.cutoff:
            continue
        # weight x^r (r+q)!^2 / (r! (r+q-p)!) at Fock level r+q-p
        log_w = r * math.log(x) + 2 * math.lgamma(r + q + 1) - math.lgamma(r + 1) - math.lgamma(r + q - p + 1)
        weights[level] += math.exp(log_w)
    weights /= weights.sum()
    assert np.allclose(state.probabilities(), weights, atol=1e-12)


def test_pure_and_matrix_paths_agree_for_ecs():
    spec = StateSpec.even_coherent(1.3, EngineeringOp.pas(2, 1))
    vec_state = oracle.build_truncated(spec, 1e-13)
    mat_state = oracle.build_truncated(spec, 1e-13, representation="matrix")
    dim = min(vec_state.cutoff, mat_state.cutoff)
    rho_vec = vec_state.density_matrix()[:dim, :dim]
    rho_mat = mat_state.density_matrix()[:dim, :dim]
    assert np.allclose(rho_vec, rho_mat, atol=1e-12)


def test_matrix_path_is_hermitian_positive():
    spec = StateSpec.even_coherent(1.1, EngineeringOp.psa(1, 2))
    rho = oracle.build_truncated(spec, 1e-13, representation="matrix").data
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(rho)
    assert eigenvalues.min() > -1e-10
    assert eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)


def test_diagonal_and_matrix_paths_agree_for_thermal():
    spec = StateSpec.thermal(0.8, EngineeringOp.psa(1, 2))
    diag_state = oracle.build_truncated(spec, 1e-13)
    mat_state = oracle.build_truncated(spec, 1e-13, representation="matrix")
    dim = min(diag_state.cutoff, mat_state.cutoff)
    assert np.allclose(
        diag_state.probabilities()[:dim], mat_state.probabilities()[:dim], atol=1e-12
    )


def test_degenerate_states_raise():
    with pytest.raises(DegenerateState):
        oracle.build_truncated(StateSpec.thermal(0.0, EngineeringOp.psa(1, 0)))
    with pytest.raises(DegenerateState):
        oracle.build_truncated(StateSpec.even_coherent(0.0, EngineeringOp.pas(2, 1)))


def test_vacuum_add_then_subtract_is_fock_state():
    state = oracle.build_truncated(StateSpec.even_coherent(0.0, EngineeringOp.pas(1, 2)))
    probs = state.probabilities()
    assert probs[1] == pytest.approx(1.0, abs=1e-14)
    assert oracle.oracle_moment(state, 1, 1).real == pytest.approx(1.0, rel=1e-13)


def test_moment_requires_margin_below_cutoff():
    state = oracle.build_truncated(StateSpec.thermal(0.5))
    with pytest.raises(CutoffExceeded):
        oracle.oracle_moment(state, state.cutoff // 2, state.cutoff // 2)


def test_photon_prob_beyond_cutoff_warns_and_returns_zero():
    state = oracle.build_truncated(StateSpec.thermal(0.5))
    with pytest.warns(UserWarning):
        assert oracle.oracle_photon_prob(state, state.cutoff + 3) == 0.0


def test_husimi_requires_margin():
    state = oracle.build_truncated(StateSpec.thermal(0.5))
    with pytest.raises(CutoffExceeded):
        oracle.oracle_husimi(state, complex(math.sqrt(state.cutoff), 0))


def test_husimi_vacuum_gaussian():
    state = oracle.build_truncated(StateSpec.thermal(0.0))
    for beta in (0.0, 0.7, 1.0 - 0.4j):
        assert oracle.oracle_husimi(state, beta) == pytest.approx(
            math.exp(-abs(beta) ** 2) / math.pi, rel=1e-12
        )


def test_max_cutoff_env_override(monkeypatch):
    monkeypatch.setenv("FOCKWITNESS_MAX_CUTOFF", "64")
    assert oracle.max_cutoff() == 64
    with pytest.raises(CutoffExceeded):
        oracle.build_truncated(StateSpec.thermal(40.0), 1e-12)
    monkeypatch.setenv("FOCKWITNESS_MAX_CUTOFF", "banana")
    with pytest.raises(ValueError):
        oracle.max_cutoff()


def test_cutoff_doubling_stability():
    # doubling the converged cutoff moves reported values by < 1e-10 relative
    spec = StateSpec.thermal(2.0, EngineeringOp.psa(2, 1))
    state = oracle.build_truncated(spec, 1e-13)
    doubled = oracle._grow_to(spec, 2 * state.cutoff)
    for m in range(5):
        first = oracle.oracle_moment(state, m, m).real
        second = oracle.oracle_moment(doubled, m, m).real
        assert first == pytest.approx(second, rel=1e-10)


class TestPoissonCentralMoments:
    def test_first_is_zero(self):
        assert oracle.oracle_poissonian_central_moment(3.7, 1) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("mean", [0.3, 1.0, 4.5])
    def test_second_is_mean(self, mean):
        assert oracle.oracle_poissonian_central_moment(mean, 2) == pytest.approx(mean, rel=1e-12)

    def test_third_at_unit_mean(self):
        assert oracle.oracle_poissonian_central_moment(1.0, 3) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mean", [0.7, 2.0])
    def test_fourth_closed_form(self, mean):
        # mu4 = mean (1 + 3 mean)
        assert oracle.oracle_poissonian_central_moment(mean, 4) == pytest.approx(
            mean * (1 + 3 * mean), rel=1e-12
        )

    def test_zero_mean(self):
        assert oracle.oracle_poissonian_central_moment(0.0, 5) == 0.0
        assert oracle.oracle_poissonian_central_moment(0.0, (2, 3)) == [0.0, 0.0]

    @pytest.mark.parametrize("mean", [0.013, 0.37, 1.0, 2.9, 7.5, 31.0, 140.0])
    def test_orders_at_once_equal_one_order_calls(self, mean):
        # one pmf over the support of the largest order; each order sums over
        # its own, whose top grows by 2 per order, so each value is the one
        # an order-by-order call gives, bit for bit
        orders = (2, 3, 4, 6)
        values = oracle.oracle_poissonian_central_moment(mean, orders)
        assert values == [oracle.oracle_poissonian_central_moment(mean, l) for l in orders]
        assert all(type(value) is float for value in values)
        assert oracle.oracle_poissonian_central_moment(mean, np.int64(3)) == values[1]

    def test_orders_are_checked(self):
        with pytest.raises(ValueError):
            oracle.oracle_poissonian_central_moment(1.0, (2, 0))
        assert oracle.oracle_poissonian_central_moment(1.0, ()) == []


class TestCoherentBaseline:
    @pytest.mark.parametrize("amp", [0.5, 2.0])
    def test_factorial_moments_are_powers(self, amp):
        state = oracle.coherent_truncated(amp, 1e-15)
        for k in range(1, 5):
            assert oracle.oracle_moment(state, k, k).real == pytest.approx(
                amp ** (2 * k), rel=1e-11
            )

    def test_complex_amplitude_mean(self):
        state = oracle.coherent_truncated(1 + 1j, 1e-14)
        assert oracle.oracle_moment(state, 0, 1) == pytest.approx(1 + 1j, rel=1e-12)


class TestFixtures:
    def test_round_trip(self):
        records = [
            oracle.FixtureRecord("thermal(rbar=1.0)|bare", "moment(1,1)", 64, 1.0),
            oracle.FixtureRecord("ecs(alpha=2.0)|PAS(1,2)", "husimi((1+0j))", 128, 0.123456789),
        ]
        text = oracle.format_fixtures(records, header="tail_tol=1e-12")
        parsed = oracle.parse_fixtures(text)
        assert parsed == records

    def test_stable_value_passes_gate(self):
        record = oracle.stable_oracle_value(
            lambda st: oracle.oracle_moment(st, 1, 1).real,
            StateSpec.thermal(1.0, EngineeringOp.pas(1, 1)),
            "moment(1,1)",
        )
        assert record.value == pytest.approx(10 / 3, rel=1e-10)

    def test_packaged_fixtures_parse(self):
        from fockwitness.verify import load_packaged_fixtures

        records = load_packaged_fixtures()
        assert len(records) >= 8
        assert all(rec.cutoff >= 32 for rec in records)


_LADDER_SPECS = [
    StateSpec.of(family, value, op)
    for family, value in ((FAMILY_THERMAL, 0.5), (FAMILY_THERMAL, 2.0),
                          (FAMILY_EVEN_COHERENT, 0.7), (FAMILY_EVEN_COHERENT, 1.2 + 0.3j))
    for op in (EngineeringOp.bare(), EngineeringOp.pas(1, 2), EngineeringOp.psa(1, 2),
               EngineeringOp.pas(3, 1), EngineeringOp.psa(3, 1), EngineeringOp.pas(2, 2))
]


def _matrix_twin(spec, state):
    matrix = oracle.build_truncated(spec, 1e-15, representation="matrix", min_cutoff=state.cutoff)
    assert matrix.cutoff == state.cutoff
    return matrix


@pytest.mark.parametrize("spec", _LADDER_SPECS, ids=lambda s: s.canonical())
def test_ladders_agree_with_matrix_route(spec):
    state = oracle.build_truncated(spec, 1e-15)
    rho = _matrix_twin(spec, state).data
    assert np.allclose(state.density_matrix(), rho, rtol=0.0, atol=1e-14 * np.abs(rho).max())


@pytest.mark.parametrize("spec", _LADDER_SPECS, ids=lambda s: s.canonical())
def test_moment_block_agrees_with_matrix_route(spec):
    state = oracle.build_truncated(spec, 1e-15)
    matrix = _matrix_twin(spec, state)
    order = 5
    block = oracle.oracle_moment_block(state, order)
    assert block.shape == (order + 1, order + 1)
    for m in range(order + 1):
        for n in range(order + 1):
            reference = oracle.oracle_moment(matrix, m, n)
            for value in (block[m, n], oracle.oracle_moment(state, m, n)):
                assert abs(value - reference) <= 1e-14 * abs(reference), (m, n)


def test_moment_block_keeps_the_cutoff_guard():
    state = oracle.build_truncated(StateSpec.thermal(0.5))
    assert state.cutoff == 32
    oracle.oracle_moment_block(state, 7)
    with pytest.raises(CutoffExceeded):
        oracle.oracle_moment_block(state, 8)
