import cmath
import math
import re
import warnings

import numpy as np
import pytest

import dense
from bits import float_bits
from fockwitness import cli, oracle, states, verify, witnesses
from fockwitness.errors import CutoffExceeded, DegenerateState, OutOfRange
from fockwitness.states import FAMILY_EVEN_COHERENT, FAMILY_THERMAL, EngineeringOp, StateSpec


def test_ladder_commutator_on_interior():
    dim = 40
    a = dense.annihilation_matrix(dim)
    ad = dense.creation_matrix(dim)
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
    rho_vec = dense.of_state(vec_state)
    rho_mat = dense.density_matrix(spec, vec_state.cutoff)
    assert np.allclose(rho_vec, rho_mat, atol=1e-12)


def test_matrix_path_is_hermitian_positive():
    spec = StateSpec.even_coherent(1.1, EngineeringOp.psa(1, 2))
    rho = dense.density_matrix(spec, oracle.build_truncated(spec, 1e-13).cutoff)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(rho)
    assert eigenvalues.min() > -1e-10
    assert eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)


def test_diagonal_and_matrix_paths_agree_for_thermal():
    spec = StateSpec.thermal(0.8, EngineeringOp.psa(1, 2))
    diag_state = oracle.build_truncated(spec, 1e-13)
    rho = dense.density_matrix(spec, diag_state.cutoff)
    assert np.allclose(diag_state.probabilities(), dense.probabilities(rho), atol=1e-12)


def test_degenerate_states_raise():
    for spec in (StateSpec.thermal(0.0, EngineeringOp.psa(1, 0)),
                 StateSpec.thermal(0.0, EngineeringOp.pas(2, 1)),
                 StateSpec.even_coherent(0.0, EngineeringOp.pas(2, 1)),
                 StateSpec.even_coherent(0.0, EngineeringOp.psa(1, 0))):
        with pytest.raises(DegenerateState):
            oracle.build_truncated(spec)


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
    monkeypatch.setenv("FOCKWITNESS_MAX_CUTOFF", "1")
    with pytest.raises(ValueError, match="must be at least 2"):
        oracle.max_cutoff()


def test_cutoff_doubling_stability():
    # doubling the converged cutoff moves reported values by < 1e-10 relative
    spec = StateSpec.thermal(2.0, EngineeringOp.psa(2, 1))
    state = oracle.build_truncated(spec, 1e-13)
    doubled = oracle.build_truncated(spec, 1e-13, min_cutoff=2 * state.cutoff)
    assert doubled.cutoff == 2 * state.cutoff
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

    def test_a_negative_mean_is_refused(self):
        with pytest.raises(ValueError, match="mean must be non-negative"):
            oracle.oracle_poissonian_central_moment(-1.0, 2)


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
    """The dense reference of the oracle state, at its cutoff."""
    return dense.density_matrix(spec, state.cutoff)


@pytest.mark.parametrize("spec", _LADDER_SPECS, ids=lambda s: s.canonical())
def test_ladders_agree_with_matrix_route(spec):
    state = oracle.build_truncated(spec, 1e-15)
    rho = _matrix_twin(spec, state)
    assert np.allclose(dense.of_state(state), rho, rtol=0.0, atol=1e-14 * np.abs(rho).max())


@pytest.mark.parametrize("spec", _LADDER_SPECS, ids=lambda s: s.canonical())
def test_moment_block_agrees_with_matrix_route(spec):
    # the block <a'^m a^n>, m, n <= 5, from one oracle_moment call over its
    # pairs, each value the one its int call gives, bit for bit
    state = oracle.build_truncated(spec, 1e-15)
    rho = _matrix_twin(spec, state)
    order = 5
    ms, ns = (a.ravel() for a in np.indices((order + 1, order + 1)))
    block = oracle.oracle_moment(state, ms, ns)
    assert block.shape == ((order + 1) ** 2,)
    for value, m, n in zip(block, ms.tolist(), ns.tolist()):
        reference = dense.moment(rho, m, n)
        assert abs(value - reference) <= 1e-14 * abs(reference), (m, n)
        assert value == oracle.oracle_moment(state, m, n), (m, n)


def test_moment_block_keeps_the_cutoff_guard():
    state = oracle.build_truncated(StateSpec.thermal(0.5))
    assert state.cutoff == 32
    ms, ns = (a.ravel() for a in np.indices((8, 8)))
    oracle.oracle_moment(state, ms, ns)
    with pytest.raises(CutoffExceeded, match="moment order 8\\+8"):
        oracle.oracle_moment(state, np.append(ms, 8), np.append(ns, 8))


# ---------------------------------------------------------------------------
# One body per quantity: an array call equals its one-element calls
# ---------------------------------------------------------------------------

_BODY_SPECS = [StateSpec.thermal(1.3, EngineeringOp.psa(2, 1)),
               StateSpec.even_coherent(1.1 - 0.4j, EngineeringOp.pas(1, 2))]


@pytest.mark.parametrize("spec", _BODY_SPECS, ids=lambda s: s.canonical())
def test_photon_prob_array_equals_its_int_calls(spec):
    state = oracle.build_truncated(spec)
    numbers = np.array([4, 0, 1, 7, 1, state.cutoff - 1])
    probs = oracle.oracle_photon_prob(state, numbers)
    assert probs.shape == numbers.shape
    singles = [oracle.oracle_photon_prob(state, m) for m in numbers.tolist()]
    assert all(type(p) is float for p in singles)
    assert probs.tolist() == singles


def test_photon_prob_array_beyond_cutoff_warns_and_gives_zero_there():
    state = oracle.build_truncated(StateSpec.thermal(0.5))
    with pytest.warns(UserWarning, match=f"photon number {state.cutoff + 2} is beyond"):
        probs = oracle.oracle_photon_prob(state, np.array([1, state.cutoff + 2]))
    assert probs.tolist() == [oracle.oracle_photon_prob(state, 1), 0.0]
    with pytest.raises(ValueError):
        oracle.oracle_photon_prob(state, np.array([1, -1]))


@pytest.mark.parametrize("spec", _BODY_SPECS, ids=lambda s: s.canonical())
def test_husimi_array_of_any_shape_equals_its_point_calls(spec, monkeypatch):
    state = oracle.build_truncated(spec, min_cutoff=136)
    re_axis, im_axis = np.linspace(-4.0, 4.0, 7), np.linspace(-4.0, 3.0, 5)
    betas = re_axis[None, :] + 1j * im_axis[:, None]
    q = oracle.oracle_husimi(state, betas)
    assert q.shape == betas.shape
    points = [oracle.oracle_husimi(state, complex(beta)) for beta in betas.ravel()]
    assert all(type(value) is float for value in points)
    assert q.ravel().tolist() == points
    assert oracle.oracle_husimi(state, betas.reshape(5, 7, 1)).ravel().tolist() == points
    # chunks of about 3 points: each point is the same in any chunk
    monkeypatch.setattr(oracle, "_HUSIMI_CHUNK", 3 * state.cutoff)
    assert oracle.oracle_husimi(state, betas).ravel().tolist() == points


def test_husimi_guard_holds_at_every_point():
    state = oracle.build_truncated(StateSpec.thermal(0.5))
    edge = math.sqrt(state.cutoff) / 2
    oracle.oracle_husimi(state, np.array([0.0, 0.999 * edge]))
    with pytest.raises(CutoffExceeded, match=f"cutoff {state.cutoff}"):
        oracle.oracle_husimi(state, np.array([[0.0, 0.5j], [edge * 1j, 0.1]]))


def test_coherent_amplitudes_array_equals_its_scalar_calls():
    zs = np.array([[0.0, 1.5 - 0.2j], [-3.3, 30 * cmath.exp(1j * math.pi / 7)]])
    amps = oracle.coherent_amplitudes(zs, 2048)
    assert amps.shape == (2, 2, 2048)
    for z, row in zip(zs.ravel(), amps.reshape(4, 2048)):
        assert np.array_equal(oracle.coherent_amplitudes(z, 2048), row)
    # the vacuum: exactly |0>
    assert amps[0, 0, 0] == 1.0 and not amps[0, 0, 1:].any()


def _log_form(z, dim):
    """The log-form reference <k|z> = exp(k log z - log(k!)/2 - |z|^2/2)."""
    k = np.arange(dim)
    log_factorials = np.array([math.lgamma(i + 1) for i in range(dim)])
    return np.exp(k * np.log(complex(z)) - 0.5 * log_factorials - 0.5 * abs(z) ** 2)


@pytest.mark.parametrize("z", [40.0, 30 * cmath.exp(1j * math.pi / 7)], ids=["40", "30e^(i pi/7)"])
def test_coherent_amplitudes_where_the_gaussian_factor_underflows(z):
    # e^(-|z|^2/2) alone is 0 in doubles at |z| = 40 and 6.9e-196 at 30
    amps = oracle.coherent_amplitudes(z, 2048)
    reference = _log_form(z, 2048)
    assert np.max(np.abs(amps - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


# at the guard's edge of a 4096-level basis: |beta|^2 just under 1024, where
# e^(-|beta|^2) (the first factor of a diagonal weight) underflows to 0
_EDGE_BETA = math.sqrt(1023.9) * cmath.exp(1j * math.pi / 7)


def test_husimi_bras_at_the_guard_edge():
    state = oracle.build_truncated(StateSpec.even_coherent(31 * cmath.exp(1j * math.pi / 7)), min_cutoff=4096)
    assert (state.cutoff, state.kind) == (4096, oracle.KIND_VECTOR)
    bra = oracle.coherent_amplitudes(_EDGE_BETA, 4096)
    reference = _log_form(_EDGE_BETA, 4096)
    assert np.max(np.abs(bra - reference)) <= 1e-12 * np.max(np.abs(reference))
    expected = abs(np.vdot(reference, state.data)) ** 2 / math.pi
    assert oracle.oracle_husimi(state, _EDGE_BETA) == pytest.approx(expected, rel=1e-10)
    assert expected > 0.01


def test_husimi_weights_at_the_guard_edge():
    rbar = 50.0
    state = oracle.build_truncated(StateSpec.thermal(rbar), min_cutoff=4096)
    assert (state.cutoff, state.kind) == (4096, oracle.KIND_DIAGONAL)
    weights = np.abs(oracle.coherent_amplitudes(_EDGE_BETA, 4096)) ** 2
    reference = np.abs(_log_form(_EDGE_BETA, 4096)) ** 2
    assert np.max(np.abs(weights - reference)) <= 1e-12 * np.max(reference)
    # the weights are the Poisson distribution of mean |beta|^2
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)
    # the thermal Q is the Gaussian e^(-|beta|^2/(rbar+1)) / (pi (rbar+1))
    expected = math.exp(-abs(_EDGE_BETA) ** 2 / (rbar + 1)) / (math.pi * (rbar + 1))
    assert oracle.oracle_husimi(state, _EDGE_BETA) == pytest.approx(expected, rel=1e-9)
    assert oracle.oracle_husimi(state, _EDGE_BETA) == pytest.approx(
        np.sum(reference * state.data) / math.pi, rel=1e-10)


# ---------------------------------------------------------------------------
# The one growth loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [30.0, 40.0])
def test_a_large_cat_grows_past_its_underflowing_amplitudes(alpha):
    # at 32 levels every amplitude underflows: the norm is 0 there, yet the
    # bare cat is not annihilated, and the basis grows until it holds it
    spec = StateSpec.even_coherent(alpha)
    assert oracle.build_truncated(spec).cutoff == 2048
    for witness in ("hoa", "mandel", "hosps"):
        value = witnesses.evaluate_witness(spec, witness, 2, engine="oracle").value
        analytic = witnesses.evaluate_witness(spec, witness, 2).value
        assert abs(value - analytic) <= 2.4e-10 * max(abs(analytic), 1.0), witness


@pytest.mark.parametrize("spec, witness, order", [
    (StateSpec.even_coherent(0.5), "hoa", 10),
    (StateSpec.thermal(0.1), "hosps", 8),
], ids=["hoa(10) ecs", "hosps(8) thermal"])
def test_a_witness_basis_admits_every_pair_it_reads(spec, witness, order):
    # the mass alone converges at 32 levels, where <a'^l a^l> is too close
    # to the cutoff; the basis grows until the guard admits it
    assert oracle.build_truncated(spec).cutoff == 32
    value = witnesses.evaluate_witness(spec, witness, order, engine="oracle").value
    analytic = witnesses.evaluate_witness(spec, witness, order).value
    assert value == pytest.approx(analytic, rel=1e-12)


@pytest.mark.parametrize("spec, family", [
    (StateSpec.even_coherent(1.0), ["--family", "ecs", "--alpha", "1"]),
    (StateSpec.thermal(2.0), ["--family", "thermal", "--rbar", "2"]),
], ids=["ecs", "thermal"])
def test_a_moment_basis_holds_its_tail(spec, family, capsys):
    # the mass alone gives 32 levels (ecs), too few for <a'^20 a^20>, and
    # 128 (thermal), 5e-6 off it; the basis grows until its k^20 tail is held
    table = witnesses.ENGINES["oracle"].moment_table(spec, ((20, 20),), 1e-12)
    assert table.get(20, 20) == pytest.approx(states.moment(spec, 20, 20), rel=1e-13)
    # the CLI reads the same basis
    argv = ["moment", *family, "--m", "20", "--n", "20", "--engine", "both"]
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_a_moment_basis_beyond_the_hard_limit_raises(monkeypatch):
    monkeypatch.setenv("FOCKWITNESS_MAX_CUTOFF", "64")
    # <a'^20 a^20> needs a cutoff above 82
    with pytest.raises(CutoffExceeded, match="too close to cutoff 64"):
        witnesses.ENGINES["oracle"].moment_table(StateSpec.thermal(0.1), ((20, 20),), 1e-12).get(20, 20)


@pytest.mark.parametrize("family", [FAMILY_THERMAL, FAMILY_EVEN_COHERENT], ids=lambda family: family.name)
def test_annihilation_at_parameter_0_is_one_rule(family):
    # at parameter 0 the bare state is the vacuum, which a^p a'^q removes
    # where p > q and a'^q a^p where p > 0: for every operation with
    # p, q <= 8, the analytic norm is NaN, the oracle's state is None and
    # states.annihilated holds exactly there
    ops = [f(p, q) for f in (EngineeringOp.pas, EngineeringOp.psa) for p in range(9) for q in range(9)]
    stack = [StateSpec.of(family, np.zeros(1), op) for op in ops]
    for spec, (state,) in zip(stack, oracle.truncated_states(stack)):
        op = spec.op
        removed = op.p > (op.q if op.order == states.ORDER_ADD_THEN_SUBTRACT else 0)
        assert math.isnan(spec._norm[0]) == (state is None) == states.annihilated(spec)[0] == removed, op.label()
    # a nonzero parameter is never annihilated, however small
    assert not any(states.annihilated(StateSpec.of(family, np.array([5e-324]), op))[0] for op in ops)


@pytest.mark.parametrize("family", [FAMILY_THERMAL, FAMILY_EVEN_COHERENT], ids=lambda family: family.name)
def test_the_vacuum_is_one_rule(family):
    # at parameter 0 an operation that keeps the vacuum and adds as many
    # photons as it subtracts (bare, PAS(p,p)) leaves the vacuum: for every
    # operation with p, q <= 8, states.vacuum holds exactly where the
    # oracle's state is |0>; over the stack it is one column per spec
    ops = [f(p, q) for f in (EngineeringOp.pas, EngineeringOp.psa) for p in range(9) for q in range(9)]
    stack = [StateSpec.of(family, np.zeros(1), op) for op in ops]
    found = states.vacuum(stack)
    assert found.shape == (len(ops),)
    for spec, (state,), held in zip(stack, oracle.truncated_states(stack), found):
        at_zero = state is not None and state.probabilities()[0] == 1.0
        assert at_zero == held == states.vacuum(spec)[0], spec.op.label()
    assert found.sum() == 10  # PAS(p,p) for p <= 8, and PSA(0,0)
    # a nonzero parameter is never the vacuum, however small
    assert not states.vacuum([StateSpec.of(family, np.array([5e-324]), op) for op in ops]).any()


# ---------------------------------------------------------------------------
# A grid grows together
# ---------------------------------------------------------------------------

def _assert_grid_equals_its_points(grid, tail_tol=oracle.DEFAULT_TAIL_TOL, **kwargs):
    """truncated_states(grid) against one build per point: the same cutoff,
    kind, tail mass and data, bit for bit, and None exactly where the
    point's own build raises DegenerateState."""
    states = oracle.truncated_states(grid, tail_tol, **kwargs)
    assert len(states) == len(grid.parameter)
    for value, state in zip(grid.parameter, states):
        spec = StateSpec.of(grid.family, value, grid.op)
        if state is None:
            with pytest.raises(DegenerateState, match=re.escape(f"{spec.canonical()} is annihilated")):
                oracle.truncated_states(spec, tail_tol, **kwargs)
            continue
        one = oracle.truncated_states(spec, tail_tol, **kwargs)
        assert (state.cutoff, state.kind, state.tail_mass) == (one.cutoff, one.kind, one.tail_mass)
        assert state.data.dtype == one.data.dtype
        assert np.array_equal(state.data, one.data)
    return states


@pytest.mark.parametrize("op, family, values", [(op, family, values) for op in verify._engineering_ops()
                                                for family, values in verify._GRID_VALUES.items()],
                         ids=lambda v: v.label() if isinstance(v, EngineeringOp) else None)
def test_every_verify_grid_equals_its_point_builds(op, family, values):
    _assert_grid_equals_its_points(StateSpec.of(family, np.array(values), op), verify.ORACLE_TAIL_TOL)


def test_a_thermal_grid_retires_each_row_at_its_own_cutoff():
    grid = StateSpec.thermal(np.array([10.0, 0.1, 1.0, 5.0, 2.0, 0.5]))
    states = _assert_grid_equals_its_points(grid)
    assert [state.cutoff for state in states] == [512, 32, 64, 256, 128, 32]


@pytest.mark.parametrize("op", [EngineeringOp.bare(), EngineeringOp.psa(2, 1)], ids=lambda op: op.label())
@pytest.mark.parametrize("order", [0, 3])
def test_large_cats_grow_in_a_grid_past_their_underflowing_amplitudes(op, order):
    # every amplitude of the two large cats underflows at the first cutoff
    states = _assert_grid_equals_its_points(StateSpec.even_coherent(np.array([30.0, 0.5, 40.0]), op), order=order)
    assert [state.cutoff for state in states][::2] == [2048, 2048]


@pytest.mark.parametrize("grid", [
    StateSpec.thermal(np.array([0.5, 0.0, 2.0, 0.0]), EngineeringOp.psa(1, 0)),
    StateSpec.thermal(np.array([0.0, 1.0]), EngineeringOp.pas(2, 1)),
    StateSpec.even_coherent(np.array([0.0, 1.3, 0.0]), EngineeringOp.pas(2, 1)),
], ids=["thermal PSA(1,0)", "thermal PAS(2,1)", "ecs PAS(2,1)"])
def test_annihilated_points_of_a_grid_are_none(grid):
    states = _assert_grid_equals_its_points(grid, order=2)
    assert [state is None for state in states] == list(grid.parameter == 0.0)


def test_a_grid_past_the_hard_limit_names_its_first_such_point(monkeypatch):
    monkeypatch.setenv("FOCKWITNESS_MAX_CUTOFF", "64")
    # 0.5 fits in 64 levels, 40 and 50 do not
    grid = StateSpec.thermal(np.array([0.5, 40.0, 0.0, 50.0]), EngineeringOp.pas(1, 1))
    with pytest.raises(CutoffExceeded) as grid_error:
        oracle.truncated_states(grid)
    with pytest.raises(CutoffExceeded) as point_error:
        oracle.build_truncated(StateSpec.thermal(40.0, EngineeringOp.pas(1, 1)))
    assert str(grid_error.value) == str(point_error.value)
    assert str(grid_error.value).startswith("thermal(rbar=40.0)|PAS(1,1) needs more than 64 Fock levels")


def test_a_basis_asked_to_hold_a_level_past_the_hard_limit_raises(monkeypatch):
    monkeypatch.setenv("FOCKWITNESS_MAX_CUTOFF", "64")
    with pytest.raises(CutoffExceeded, match="needs more than 64 Fock levels to hold level 64"):
        oracle.build_truncated(StateSpec.thermal(0.5), min_cutoff=65)
    assert oracle.build_truncated(StateSpec.thermal(0.5), min_cutoff=64).cutoff == 64


# ---------------------------------------------------------------------------
# A stack of grids grows together, and its states are filled together
# ---------------------------------------------------------------------------

def _family_stack(family, ops=None):
    """verify's grid specs of one family, one per operation of _engineering_ops()."""
    values = np.array(verify._GRID_VALUES[family])
    return [StateSpec.of(family, values, op) for op in verify._engineering_ops() if ops is None or op in ops]


def _assert_stack_equals_its_grids(stack, tail_tol=oracle.DEFAULT_TAIL_TOL, **kwargs):
    """truncated_states(stack) against one truncated_states call per grid
    spec: the same cutoff, kind, tail mass, dtype, read-only flag and data
    bits, and None at the same rows."""
    grown = oracle.truncated_states(stack, tail_tol, **kwargs)
    assert len(grown) == len(stack)
    for spec, states in zip(stack, grown):
        own = oracle.truncated_states(spec, tail_tol, **kwargs)
        assert len(states) == len(own) == len(spec.parameter)
        for state, one in zip(states, own):
            assert (state is None) == (one is None), spec.canonical()
            if one is None:
                continue
            assert (state.cutoff, state.kind, state.tail_mass) == (one.cutoff, one.kind, one.tail_mass)
            assert state.data.dtype == one.data.dtype
            assert state.data.flags.writeable == one.data.flags.writeable
            assert np.array_equal(state.data.view(np.uint64), one.data.view(np.uint64)), spec.canonical()
    return grown


@pytest.mark.parametrize("family", [FAMILY_THERMAL, FAMILY_EVEN_COHERENT], ids=lambda f: f.name)
def test_a_family_stack_equals_its_grids(family):
    _assert_stack_equals_its_grids(_family_stack(family), verify.ORACLE_TAIL_TOL)


@pytest.mark.parametrize("kwargs", [{"order": 3}, {"min_cutoff": 200}], ids=["order", "min_cutoff"])
@pytest.mark.parametrize("family", [FAMILY_THERMAL, FAMILY_EVEN_COHERENT], ids=lambda f: f.name)
def test_a_stack_equals_its_grids_with_an_order_or_a_floor(family, kwargs):
    grown = _assert_stack_equals_its_grids(_family_stack(family, verify._WITNESS_OPS), **kwargs)
    if "min_cutoff" in kwargs:
        assert min(state.cutoff for states in grown for state in states) == 256


def test_an_annihilated_row_of_a_stack_is_none():
    values = np.array([0.5, 0.0, 2.0])
    stack = [StateSpec.thermal(values, op) for op in (EngineeringOp.bare(), EngineeringOp.psa(1, 0),
                                                      EngineeringOp.pas(2, 1), EngineeringOp.psa(2, 2))]
    grown = _assert_stack_equals_its_grids(stack, order=2)
    assert [[state is None for state in states] for states in grown] == [
        [False] * 3, [False, True, False], [False, True, False], [False, True, False]]


def test_a_stack_past_the_hard_limit_names_its_first_such_row(monkeypatch):
    monkeypatch.setenv("FOCKWITNESS_MAX_CUTOFF", "64")
    # every operation fits 0.5 in 64 levels; at 1.2, PAS(2,2) is the first that does not
    values = np.array([0.5, 1.2])
    stack = [StateSpec.thermal(values, op) for op in (EngineeringOp.bare(), EngineeringOp.psa(1, 1),
                                                      EngineeringOp.pas(2, 2), EngineeringOp.pas(3, 3))]
    oracle.truncated_states(stack[:2])
    with pytest.raises(CutoffExceeded) as stack_error:
        oracle.truncated_states(stack)
    with pytest.raises(CutoffExceeded) as grid_error:
        oracle.truncated_states(stack[2])
    assert str(stack_error.value) == str(grid_error.value)
    assert str(stack_error.value).startswith("thermal(rbar=1.2)|PAS(2,2) needs more than 64 Fock levels")


@pytest.mark.parametrize("stack", [
    [StateSpec.thermal(np.array([0.5, 1.0])), StateSpec.even_coherent(np.array([0.5, 1.0]))],
    [StateSpec.thermal(np.array([0.5, 1.0])), StateSpec.thermal(np.array([0.5, 2.0]))],
    [StateSpec.thermal(0.5), StateSpec.thermal(0.5, EngineeringOp.pas(1, 1))],
], ids=["families", "parameters", "one-state specs"])
def test_a_stack_of_mismatched_specs_is_refused(stack):
    with pytest.raises(ValueError, match="one family over one parameter array"):
        oracle.truncated_states(stack)


def _assert_gather_equals_one_state_calls(states, ms, ns):
    gathered = oracle._gathered_moments(states, ms, ns)
    assert gathered.shape == (len(ms), len(states)) and gathered.flags.c_contiguous
    for j, state in enumerate(states):
        if state is None:
            assert np.isnan(gathered[:, j]).all()
            continue
        assert np.array_equal(float_bits(gathered[:, j]), float_bits(oracle.oracle_moment(state, ms, ns))), j
    return gathered


@pytest.mark.parametrize("chunk", [oracle._GATHER_CHUNK, 1], ids=["default chunks", "one state a chunk"])
@pytest.mark.parametrize("family", [FAMILY_THERMAL, FAMILY_EVEN_COHERENT], ids=lambda f: f.name)
def test_the_grouped_fill_equals_one_state_calls_bit_for_bit(family, chunk, monkeypatch):
    monkeypatch.setattr(oracle, "_GATHER_CHUNK", chunk)
    stack = _family_stack(family)
    states = [state for grid in oracle.truncated_states(stack, verify.ORACLE_TAIL_TOL) for state in grid]
    assert len({state.cutoff for state in states}) > 1
    pairs = verify._grid_pairs(family)
    ms, ns = (np.array(orders, dtype=np.intp) for orders in zip(*pairs))
    # an annihilated state among them is a NaN column
    _assert_gather_equals_one_state_calls(states[:40] + [None] + states[40:], ms, ns)
    table = oracle.moment_table_from_state(states, pairs)
    for m, n in pairs:
        assert np.array_equal(float_bits(table.get(m, n)), float_bits([oracle.oracle_moment(s, m, n) for s in states]))


@pytest.mark.parametrize("family", [FAMILY_THERMAL, FAMILY_EVEN_COHERENT], ids=lambda f: f.name)
def test_the_grouped_fill_sums_the_ladder_products_bit_for_bit(family):
    # each value sums a^m psi against a^n psi as _ladder lowers them (on a
    # diagonal state, the diagonal of a^n rho a'^n), in level order
    states = [state for grid in oracle.truncated_states(_family_stack(family), verify.ORACLE_TAIL_TOL)
              for state in grid]
    ms, ns = (a.ravel() for a in np.indices((6, 6)))
    gathered = oracle._gathered_moments(states, ms, ns)
    for j, state in enumerate(states):
        diagonal = state.kind == oracle.KIND_DIAGONAL
        lowered = [oracle._ladder(state.data, k, creation=False, diagonal=diagonal) for k in range(6)]
        # complex, as the gathered values are, where the diagonal's are real
        reference = np.array([np.sum(lowered[m].conj() * lowered[n]) if not diagonal else np.sum(lowered[n])
                              if m == n else 0.0 for m, n in zip(ms.tolist(), ns.tolist())], dtype=complex)
        assert np.array_equal(float_bits(gathered[:, j]), float_bits(reference)), j


@pytest.mark.parametrize("spec", [StateSpec.even_coherent(np.array([1.5, 2.0, 2.5])),
                                  StateSpec.thermal(np.array([0.5, 1.0]), EngineeringOp.psa(2, 1))],
                         ids=["ecs", "thermal PSA(2,1)"])
def test_the_grouped_fill_lowers_past_the_float_range_of_its_factorials(spec):
    # rows from (j + k)!/j! > 1.8e308 are lowered one level at a time
    states = oracle.truncated_states(spec, order=120)
    assert len({state.cutoff for state in states}) == 1
    ms, ns = np.array([120, 119, 0, 60]), np.array([120, 120, 0, 60])
    _assert_gather_equals_one_state_calls(states, ms, ns)


def test_the_grouped_fill_raises_for_its_first_state():
    small, large = (oracle.build_truncated(StateSpec.thermal(rbar)) for rbar in (0.5, 10.0))
    assert (small.cutoff, large.cutoff) == (32, 512)
    with pytest.raises(CutoffExceeded, match="moment order 8\\+8 too close to cutoff 32"):
        oracle._gathered_moments([large, None, small], np.array([1, 8]), np.array([1, 8]))
    # 300! 0.5^300 is about 1e524 and 300! about 3e614, while 300! 1e-3^300 is in range;
    # the first state past the range is in the second group
    fine, first, second = (oracle.truncated_states(StateSpec.thermal(rbar), order=300, min_cutoff=cutoff)
                           for rbar, cutoff in ((1e-3, 0), (0.5, 4096), (1.0, 0)))
    assert fine.cutoff == second.cutoff == 2048 and first.cutoff == 4096
    with pytest.raises(OutOfRange, match="<a'\\^300 a\\^300> on the 4096-level oracle basis"):
        oracle._gathered_moments([fine, None, first, second], np.array([1, 300]), np.array([1, 300]))
    with pytest.raises(ValueError, match="non-negative"):
        oracle._gathered_moments([small], np.array([1, -1]), np.array([1, 1]))


@pytest.mark.parametrize("spec, m", [
    (StateSpec.thermal(0.5), 31),
    (StateSpec.even_coherent(0.5), 40),
    (StateSpec.thermal(1.0, EngineeringOp.pas(3, 1)), 60),
], ids=["thermal m=31", "ecs m=40", "thermal PAS(3,1) m=60"])
def test_oracle_klyshko_basis_holds_every_level_it_reads(spec, m):
    # the mass alone converges below m + 3 levels; the basis grows to hold
    # p_m .. p_(m+2) and their bare levels, with no beyond-cutoff warning
    assert oracle.build_truncated(spec).cutoff < m + 3 + spec.op.p
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = witnesses.klyshko(spec, m, engine="oracle")
    assert value == pytest.approx(witnesses.klyshko(spec, m), rel=1e-9, abs=1e-300)


def test_oracle_klyshko_past_the_hard_limit_raises(monkeypatch):
    monkeypatch.setenv("FOCKWITNESS_MAX_CUTOFF", "64")
    with pytest.raises(CutoffExceeded, match="to hold level 64"):
        witnesses.klyshko(StateSpec.thermal(0.5), 62, engine="oracle")


class TestDeviation:
    def test_a_gap_on_both_sides_agrees(self):
        assert oracle.deviation(math.nan, math.nan) == 0.0
        assert oracle.deviation(complex(math.nan, 0.0), math.nan, oracle.RELATIVE_FLOOR) == 0.0

    @pytest.mark.parametrize("value, reference", [(math.nan, 1.0), (1.0, math.nan), (0.0, math.nan)])
    def test_a_gap_on_one_side_fails_any_tolerance(self, value, reference):
        dev = oracle.deviation(value, reference)
        assert math.isnan(dev)
        assert not dev <= 1e300

    def test_floor_one_is_relative_above_magnitude_one_and_absolute_below(self):
        assert oracle.deviation(2.5, 2.0) == 0.25
        assert oracle.deviation(-1.5, -2.0) == 0.25
        assert oracle.deviation(0.75, 0.5) == 0.25
        assert oracle.deviation(0.25, 0.0) == 0.25

    def test_the_relative_floor_is_plain_relative(self):
        assert oracle.deviation(0.625, 0.5, oracle.RELATIVE_FLOOR) == 0.25
        assert oracle.deviation(3e-20, 2e-20, oracle.RELATIVE_FLOOR) == pytest.approx(0.5, rel=1e-15)
        assert oracle.deviation(0.0, 0.0, oracle.RELATIVE_FLOOR) == 0.0

    def test_complex_values_measure_the_modulus(self):
        assert oracle.deviation(3 + 4j, 0j) == 5.0
        assert oracle.deviation(1 + 1j, 2j, oracle.RELATIVE_FLOOR) == abs(1 - 1j) / 2.0

    @pytest.mark.parametrize("floor", [1.0, oracle.RELATIVE_FLOOR])
    def test_a_number_equals_its_element_of_an_array_call(self, floor):
        values = np.array([1.0, -0.3, 7.25, math.nan, math.nan, 1e-40, 2 + 1j])
        references = np.array([1.0 + 1e-9, -0.30000001, 7.0, math.nan, 3.0, 0.0, 2 - 1j])
        devs = oracle.deviation(values, references, floor)
        assert devs.shape == values.shape
        for i, (value, reference) in enumerate(zip(values.tolist(), references.tolist())):
            dev = oracle.deviation(value, reference, floor)
            assert type(dev) is float
            assert dev == devs[i] or (math.isnan(dev) and math.isnan(devs[i]))


@pytest.mark.parametrize("order", [100, 113, 114, 116, 118, 120, 130])
def test_a_high_order_thermal_moment_on_the_oracle(order):
    # <a'^n a^n> of a thermal state is n! rbar^n; k^n overflows the tail
    # weights from n = 114, and (j + n)!/j! the lowering from n = 118
    spec = StateSpec.thermal(0.1)
    value = witnesses.ENGINES["oracle"].moment_table(spec, ((order, order),), 1e-12).get(order, order)
    assert value.real == pytest.approx(math.exp(math.lgamma(order + 1) + order * math.log(0.1)), rel=1e-12)
    witness = witnesses.evaluate_witness(spec, "hoa", order, engine="oracle").value
    assert oracle.deviation(witness, witnesses.evaluate_witness(spec, "hoa", order).value) <= 1e-12


def test_a_lowered_vector_past_the_float_range_of_its_factorials():
    # the cat's rows from (j + n)!/j! > 1.8e308 are lowered one level at a time
    spec = StateSpec.even_coherent(2.0)
    value = witnesses.ENGINES["oracle"].moment_table(spec, ((120, 120),), 1e-12).get(120, 120)
    assert value.real == pytest.approx(4.0 ** 120, rel=1e-12)


def test_an_oracle_moment_beyond_the_float_range_raises():
    # 300! 0.5^300 is about 1e524
    with pytest.raises(OutOfRange, match="<a'\\^300 a\\^300> on the 2048-level oracle basis"):
        witnesses.evaluate_witness(StateSpec.thermal(0.5), "hoa", 300, engine="oracle")
