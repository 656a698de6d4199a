"""Brute-force ground truth in a truncated Fock basis.

Every state is built numerically from first principles (geometric weights or
coherent amplitudes, then explicit ladder-operator application) and every
quantity is read off the truncated representation. The bare-state builders
are the oracle's own, looked up by family record, of which it reads only the
`diagonal` flag: nothing here shares code with the closed-form routes in
`states`, so agreement between the two is a real check.

A Fock-diagonal family (thermal) stays diagonal through both engineering
operations, so it is held as a weight vector (O(D) instead of O(D^2)), and
any other family as a pure state vector.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffExceeded, DegenerateState
from .states import (
    FAMILY_EVEN_COHERENT,
    FAMILY_THERMAL,
    ORDER_SUBTRACT_THEN_ADD,
    MomentTable,
    StateSpec,
)

DEFAULT_TAIL_TOL = 1e-12
# A moment <a'^n a^n> beyond the cutoff is the photon-number tail weighted
# by about k^n. evaluate_witness passes the n its witness reads; a table for
# an unnamed reader holds up to A3's <a'^4 a^4>, the highest the figures read.
DEFAULT_MOMENT_ORDER = 4
DEFAULT_MAX_CUTOFF = 4096
_INITIAL_CUTOFF = 32
_NORM_FLOOR = 1e-300

KIND_VECTOR = "vector"
KIND_DIAGONAL = "diagonal"


def max_cutoff() -> int:
    """Hard cutoff limit; FOCKWITNESS_MAX_CUTOFF in the environment overrides."""
    raw = os.environ.get("FOCKWITNESS_MAX_CUTOFF")
    if raw is None:
        return DEFAULT_MAX_CUTOFF
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"FOCKWITNESS_MAX_CUTOFF={raw!r} is not an integer") from exc
    if value < 2:
        raise ValueError("FOCKWITNESS_MAX_CUTOFF must be at least 2")
    return value


@dataclass(frozen=True)
class TruncatedState:
    """Finite Fock-basis state: pure vector or diagonal weights."""

    cutoff: int
    kind: str
    data: np.ndarray
    tail_mass: float

    def probabilities(self) -> np.ndarray:
        """Photon-number distribution p_0 .. p_{D-1}."""
        if self.kind == KIND_VECTOR:
            return np.abs(self.data) ** 2
        return self.data.real.copy()


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Exact truncated amplitudes <k|alpha> = e^{-|a|^2/2} alpha^k / sqrt(k!).

    Computed in log form so large |alpha| and large k never overflow on the
    way to small final values.
    """
    alpha = complex(alpha)
    out = np.zeros(dim, dtype=complex)
    if alpha == 0:
        out[0] = 1.0
        return out
    log_alpha = np.log(complex(alpha))
    k = np.arange(dim)
    return np.exp(k * log_alpha - 0.5 * _log_factorials(dim) - 0.5 * abs(alpha) ** 2)


@lru_cache(maxsize=None)
def _falling(count: int, times: int) -> np.ndarray:
    """(k + times)! / k! for k = 0 .. count - 1, as a read-only float array."""
    k = np.arange(count, dtype=float)
    out = np.prod(k[:, None] + np.arange(1.0, times + 1.0), axis=1)
    out.flags.writeable = False
    return out


def _ladder(data: np.ndarray, times: int, *, creation: bool, diagonal: bool) -> np.ndarray:
    """a'^times (creation) or a^times applied to a vector, in one slice and
    scale: a'^t |k> = sqrt((k+t)!/k!) |k+t>. On diagonal weights the same
    shift carries the full falling factorial, as a'^t rho a^t (creation) or
    a^t rho a'^t does to a diagonal rho."""
    if not times:
        return data
    out = np.zeros_like(data)
    count = len(data) - times
    if count <= 0:
        return out
    scale = _falling(count, times)
    if not diagonal:
        scale = np.sqrt(scale)
    if creation:
        out[times:] = data[:count] * scale
    else:
        out[:count] = data[times:] * scale
    return out


def _thermal_weights(rbar: float, dim: int) -> np.ndarray:
    x = rbar / (1.0 + rbar)
    k = np.arange(dim)
    if x == 0.0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    return np.exp(k * math.log(x)) / (1.0 + rbar)


def _even_cat_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    # |alpha> + |-alpha> keeps only even Fock levels; build the even slots
    # from the coherent amplitudes and zero the odd ones exactly, so parity
    # zeros survive the ladder algebra as exact zeros
    out = 2.0 * coherent_amplitudes(alpha, dim)
    out[1::2] = 0.0
    return out


# (parameter, dim) -> the bare state's weights or amplitudes, per family record
_BARE_COMPONENTS = {FAMILY_THERMAL: _thermal_weights, FAMILY_EVEN_COHERENT: _even_cat_amplitudes}


def _engineer(components: np.ndarray, spec: StateSpec, diagonal: bool) -> np.ndarray:
    p, q = spec.op.p, spec.op.q
    if spec.op.order == ORDER_SUBTRACT_THEN_ADD:
        lowered = _ladder(components, p, creation=False, diagonal=diagonal)
        return _ladder(lowered, q, creation=True, diagonal=diagonal)
    raised = _ladder(components, q, creation=True, diagonal=diagonal)
    return _ladder(raised, p, creation=False, diagonal=diagonal)


def _tail_estimate(probs: np.ndarray, structural_zeros: int = 0) -> float:
    """Conservative mass-above-cutoff estimate from the top of the basis.

    Photon subtraction leaves up to `structural_zeros` exactly-zero slots at
    the top of the array; those are skipped (they carry no mass) so the
    window anchors on the real tail. Zeros beyond that count are treated as
    the genuine end of support.
    """
    dim = len(probs)
    skip = 0
    while skip < structural_zeros and skip < dim and probs[dim - 1 - skip] == 0.0:
        skip += 1
    window = max(2, dim // 16)
    lo = max(0, dim - skip - window)
    return float(np.sum(probs[lo:dim - skip]))


def build_truncated(
    spec: StateSpec,
    tail_tol: float = DEFAULT_TAIL_TOL,
    min_cutoff: int = 0,
) -> TruncatedState:
    """Build the engineered state numerically, growing the cutoff as needed.

    The cutoff doubles until the estimated probability mass near the top of
    the basis falls below tail_tol; add-then-subtract applies a'^q first and
    a^p second, the other order is reversed. min_cutoff forces a larger
    starting basis (Husimi evaluations need |beta|^2 well inside the cutoff).
    A grid spec raises ValueError: truncated_states builds one per point.
    """
    if isinstance(spec.parameter, np.ndarray):
        raise ValueError(f"build_truncated takes one state, not a grid spec of {len(spec.parameter)} points")
    limit = max_cutoff()
    dim = min(_INITIAL_CUTOFF, limit)
    while dim < min(min_cutoff, limit):
        dim = min(2 * dim, limit)
    while True:
        state = _build_auto_at_cutoff(spec, dim)
        if state.tail_mass < tail_tol:
            return state
        if dim >= limit:
            raise CutoffExceeded(
                f"{spec.canonical()} needs more than {limit} Fock levels "
                f"for tail tolerance {tail_tol}"
            )
        dim = min(2 * dim, limit)


def _build_auto_at_cutoff(spec: StateSpec, dim: int) -> TruncatedState:
    """Diagonal weights for a Fock-diagonal family, a pure vector otherwise."""
    diagonal = spec.family.diagonal
    engineered = _engineer(_BARE_COMPONENTS[spec.family](spec.parameter, dim), spec, diagonal)
    # weights divide by their sum, the trace; amplitudes by their norm, its root
    total = float(np.sum(engineered) if diagonal else np.linalg.norm(engineered))
    if not total > _NORM_FLOOR:
        raise DegenerateState(f"{spec.canonical()} is annihilated")
    data = engineered / total
    tail = _tail_estimate(data if diagonal else np.abs(data) ** 2, structural_zeros=spec.op.p)
    return TruncatedState(dim, KIND_DIAGONAL if diagonal else KIND_VECTOR, data, tail)


def oracle_moment(state: TruncatedState, m: int, n: int) -> complex:
    """<a'^m a^n> from the truncated representation via ladder products."""
    if m < 0 or n < 0:
        raise ValueError("moment orders must be non-negative")
    if m + n >= state.cutoff / 2:
        raise CutoffExceeded(
            f"moment order {m}+{n} too close to cutoff {state.cutoff}"
        )
    if state.kind == KIND_VECTOR:
        left = _ladder(state.data, m, creation=False, diagonal=False)
        right = _ladder(state.data, n, creation=False, diagonal=False)
        return complex(np.vdot(left, right))
    if m != n:
        return 0j
    return complex(np.dot(state.data[n:], _falling(state.cutoff - n, n)))


def oracle_moment_block(state: TruncatedState, order: int) -> np.ndarray:
    """<a'^m a^n> for m, n = 0 .. order, as an (order+1) x (order+1) array.

    A pure state stacks its lowered vectors a^k psi and takes one product of
    them; a diagonal state has only the m = n entries, one falling-factorial
    dot each through oracle_moment. The cutoff guard is oracle_moment's for
    the largest entry.
    """
    if order < 0:
        raise ValueError("moment orders must be non-negative")
    if 2 * order >= state.cutoff / 2:
        raise CutoffExceeded(
            f"moment order {order}+{order} too close to cutoff {state.cutoff}"
        )
    size = order + 1
    if state.kind == KIND_VECTOR:
        lowered = np.array([_ladder(state.data, k, creation=False, diagonal=False)
                            for k in range(size)])
        return lowered.conj() @ lowered.T
    return np.diag([oracle_moment(state, n, n) for n in range(size)])


def oracle_photon_prob(state: TruncatedState, m: int) -> float:
    """p_m = <m| sigma |m>; 0 with a warning beyond the cutoff."""
    if m < 0:
        raise ValueError("photon number must be non-negative")
    if m >= state.cutoff:
        warnings.warn(
            f"photon number {m} is beyond the cutoff {state.cutoff}; returning 0",
            stacklevel=2,
        )
        return 0.0
    return float(state.probabilities()[m])


def oracle_husimi(state: TruncatedState, beta: complex) -> float:
    """Q(beta) = <beta| sigma |beta> / pi from the truncated state."""
    beta = complex(beta)
    if abs(beta) ** 2 >= state.cutoff / 4:
        raise CutoffExceeded(
            f"|beta|^2 = {abs(beta) ** 2:.3f} is not well inside cutoff {state.cutoff}"
        )
    bra = coherent_amplitudes(beta, state.cutoff)
    if state.kind == KIND_VECTOR:
        return float(abs(np.vdot(bra, state.data)) ** 2 / math.pi)
    return float(np.sum(state.data * np.abs(bra) ** 2) / math.pi)


def oracle_poissonian_central_moment(mean: float, l):
    """l-th central moment of a Poisson distribution, by truncated summation.

    l may also be a sequence of orders: the pmf is built once, over the
    support of the largest, and each order sums over its own support, so
    that each value equals the one-order call's bit for bit; a list comes
    back, one value per order.
    """
    scalar = np.ndim(l) == 0
    orders = [l] if scalar else list(l)
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if min(orders, default=1) < 1:
        raise ValueError("order must be at least 1")
    if mean == 0.0:
        values = [0.0] * len(orders)
    else:
        # support wide enough that the neglected tail is far below 1e-14 even
        # after the (k - mean)^l weight
        tops = [int(mean + 40.0 * math.sqrt(mean) + 60.0 + 2 * order) for order in orders]
        k = np.arange(max(tops, default=0) + 1, dtype=float)
        pmf = np.exp(k * math.log(mean) - mean - _log_factorials(len(k)))
        values = [float(np.dot(pmf[:top + 1], (k[:top + 1] - mean) ** order))
                  for top, order in zip(tops, orders)]
    return values[0] if scalar else values


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(i + 1) for i in range(size)])
    table.flags.writeable = False
    return table


def _log_factorials(count: int) -> np.ndarray:
    """log k! for k = 0 .. count - 1, sliced from one cached table whose
    size is count rounded up to a power of two."""
    return _log_factorial_table(1 << max(count - 1, 1).bit_length())[:count]


def coherent_truncated(alpha: complex, tail_tol: float = DEFAULT_TAIL_TOL) -> TruncatedState:
    """Plain coherent state |alpha> in the truncated basis (baseline states)."""
    limit = max_cutoff()
    dim = min(_INITIAL_CUTOFF, limit)
    while True:
        vec = coherent_amplitudes(alpha, dim)
        nrm = float(np.linalg.norm(vec))
        vec = vec / nrm
        tail = _tail_estimate(np.abs(vec) ** 2)
        if tail < tail_tol:
            return TruncatedState(dim, KIND_VECTOR, vec, tail)
        if dim >= limit:
            raise CutoffExceeded(f"coherent state |{alpha}| needs more than {limit} levels")
        dim = min(2 * dim, limit)


def moment_table_from_state(state, spec: StateSpec | None = None) -> MomentTable:
    """Moment cache backed by a truncated state (provenance 'oracle'), whose
    entries are complex numbers; or by a list of states, one per point of a
    grid, whose entries are arrays over them, NaN where a state is None (an
    annihilated point)."""
    if isinstance(state, TruncatedState):
        return MomentTable(spec, lambda m, n: oracle_moment(state, m, n), provenance="oracle")

    def source(m, n):
        return np.array([math.nan if s is None else oracle_moment(s, m, n) for s in state], dtype=complex)

    return MomentTable(spec, source, provenance="oracle")


def _moment_tail(state: TruncatedState, structural_zeros: int, order: int) -> float:
    """_tail_estimate of sum_k p_k k^order, relative to that sum where it
    exceeds 1 (absolute below, as the witness comparisons are)."""
    weighted = state.probabilities() * np.arange(state.cutoff, dtype=float) ** order
    return _tail_estimate(weighted, structural_zeros) / max(1.0, float(np.sum(weighted)))


def truncated_states(spec: StateSpec, tail_tol: float = DEFAULT_TAIL_TOL, order: int | None = None) -> list:
    """The truncated state of each point of spec, at its own cutoff: one for
    one state, one per point of a grid spec. With an order, each cutoff then
    doubles until the tail weighted by k^order is below tail_tol too. A point
    of a grid where the state is annihilated (DegenerateState) is None; for
    one state the error propagates, as CutoffExceeded does on either."""
    def build(point: StateSpec) -> TruncatedState:
        state = build_truncated(point, tail_tol)
        while order is not None and _moment_tail(state, point.op.p, order) >= tail_tol:
            if state.cutoff >= max_cutoff():
                raise CutoffExceeded(
                    f"{point.canonical()} moments need more than {state.cutoff} Fock levels "
                    f"for tail tolerance {tail_tol}"
                )
            state = build_truncated(point, tail_tol, min_cutoff=2 * state.cutoff)
        return state

    if not isinstance(spec.parameter, np.ndarray):
        return [build(spec)]
    states = []
    for value in spec.parameter:
        try:
            states.append(build(StateSpec.of(spec.family, value, spec.op)))
        except DegenerateState:
            states.append(None)
    return states


def oracle_photon_probs(states: list, numbers) -> np.ndarray:
    """p_m of each state for m in numbers, one row per m and one column per
    state; NaN in the column of a None (annihilated) state."""
    return np.array([[math.nan if s is None else oracle_photon_prob(s, m) for s in states]
                     for m in numbers])


def oracle_moment_table(
    spec: StateSpec, tail_tol: float = DEFAULT_TAIL_TOL, order: int = DEFAULT_MOMENT_ORDER
) -> MomentTable:
    """Oracle moments on a basis that holds the tails of the moments read,
    up to <a'^order a^order>, not only the probability mass: build_truncated
    stops when the mass near the top of the basis is below tail_tol, and the
    cutoff then doubles until the tail weighted by k^order is below it too.
    Over a grid spec each entry is an array, NaN at the annihilated points.
    """
    states = truncated_states(spec, tail_tol, order)
    return moment_table_from_state(states if isinstance(spec.parameter, np.ndarray) else states[0], spec)


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixtureRecord:
    """One frozen oracle value: spec identity, quantity id, cutoff, value."""

    canonical: str
    quantity: str
    cutoff: int
    value: float

    def line(self) -> str:
        return f"{self.canonical}\t{self.quantity}\t{self.cutoff}\t{self.value:.17g}"


def parse_fixtures(text: str) -> list[FixtureRecord]:
    records = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        canonical, quantity, cutoff, value = line.split("\t")
        records.append(FixtureRecord(canonical, quantity, int(cutoff), float(value)))
    return records


def format_fixtures(records, header: str | None = None) -> str:
    lines = []
    if header:
        lines.extend(f"# {part}" for part in header.splitlines())
    lines.extend(record.line() for record in records)
    return "\n".join(lines) + "\n"


def stable_oracle_value(
    evaluate,
    spec: StateSpec,
    quantity: str,
    tail_tol: float = DEFAULT_TAIL_TOL,
    gate_rel_tol: float = 1e-10,
) -> FixtureRecord:
    """Freeze an oracle value only after the doubled-cutoff stability gate.

    `evaluate(state)` computes the quantity from a TruncatedState; the value
    at the converged cutoff D must match the value at 2D to gate_rel_tol.
    """
    state = build_truncated(spec, tail_tol)
    doubled = _grow_to(spec, 2 * state.cutoff)
    first = float(evaluate(state))
    second = float(evaluate(doubled))
    scale = max(abs(first), abs(second), 1e-30)
    if abs(first - second) / scale > gate_rel_tol:
        raise CutoffExceeded(
            f"{spec.canonical()} {quantity}: value not stable under cutoff doubling "
            f"({first!r} vs {second!r})"
        )
    return FixtureRecord(spec.canonical(), quantity, state.cutoff, first)


def _grow_to(spec: StateSpec, dim: int) -> TruncatedState:
    if dim > max_cutoff():
        raise CutoffExceeded(f"doubled cutoff {dim} exceeds the hard limit")
    return _build_auto_at_cutoff(spec, dim)
