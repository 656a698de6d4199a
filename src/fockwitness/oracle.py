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

Every basis grows in one loop (_grow). Each quantity is one body over arrays,
whose one-element case is the scalar call; over_states stacks it over states.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import CutoffExceeded, DegenerateState, OutOfRange
from .states import (
    FAMILY_EVEN_COHERENT,
    FAMILY_THERMAL,
    ORDER_SUBTRACT_THEN_ADD,
    EngineeringOp,
    MomentTable,
    StateSpec,
)

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_MAX_CUTOFF = 4096
_INITIAL_CUTOFF = 32
_NORM_FLOOR = 1e-300
# Husimi points per chunk times the cutoff: a few MB of amplitudes
_HUSIMI_CHUNK = 1 << 17
# deviation's floor for a plain relative deviation
RELATIVE_FLOOR = 1e-30

KIND_VECTOR = "vector"
KIND_DIAGONAL = "diagonal"


def deviation(value, reference, floor: float = 1.0):
    """|value - reference| / max(|reference|, floor), elementwise over real or
    complex numbers (which give a float) or arrays: relative above magnitude
    floor and absolute below. Floor 1 serves witnesses, which are 0 at the
    classical boundary; RELATIVE_FLOOR moments and fixtures. It is 0 where
    both sides are NaN (the same gap) and NaN where one is, failing <= tol."""
    value, reference = np.asarray(value), np.asarray(reference)
    with np.errstate(invalid="ignore"):
        dev = np.abs(value - reference) / np.maximum(np.abs(reference), floor)
    dev = np.where(np.isnan(value) & np.isnan(reference), 0.0, dev)
    return float(dev) if dev.ndim == 0 else dev


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


def coherent_amplitudes(z, dim: int) -> np.ndarray:
    """Exact truncated amplitudes <k|z> = e^{-|z|^2/2} z^k / sqrt(k!), k < dim,
    on a last axis added to the shape of z: moduli from their logarithms,
    exact where e^{-|z|^2/2} alone underflows (a cat at |z| = 40), and
    phases (z/|z|)^k from a cumulative product."""
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    # |z| where z != 0; at z = 0 the phases vanish above k = 0
    modulus = np.where(r > 0, r, 1.0)
    phases = np.empty(z.shape + (dim,), dtype=complex)
    phases[..., 0] = 1.0
    phases[..., 1:] = (z / modulus)[..., None]
    log_moduli = np.log(modulus)[..., None] * np.arange(dim) - 0.5 * _log_factorials(dim)
    return np.exp(log_moduli - 0.5 * (r * r)[..., None]) * np.cumprod(phases, axis=-1)


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


@lru_cache(maxsize=None)
def _lowering(dim: int, top: int, diagonal: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """(index, scale, rows) for top < dim: row k < rows of data[index] * scale
    is _ladder(data, k, creation=False), the same products; the later rows,
    whose (j + k)!/j! pass the float range, are 0."""
    index = np.minimum(np.arange(top + 1)[:, None] + np.arange(dim), dim - 1)
    scale = np.zeros((top + 1, dim))
    with np.errstate(over="ignore"):
        # (j + k)!/j! grows with j and with k
        rows = next((k for k in range(top + 1) if _falling(dim - k, k)[-1] == math.inf), top + 1)
    for k in range(rows):
        scale[k, :dim - k] = _falling(dim - k, k)
    if not diagonal:
        scale = np.sqrt(scale)
    index.flags.writeable = scale.flags.writeable = False
    return index, scale, rows


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


def _engineer(components: np.ndarray, op: EngineeringOp, diagonal: bool) -> np.ndarray:
    p, q = op.p, op.q
    if op.order == ORDER_SUBTRACT_THEN_ADD:
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


def _moment_tail(probs: np.ndarray, structural_zeros: int, order: int) -> float:
    """_tail_estimate of sum_k p_k k^order, relative to that sum where it
    exceeds 1 (absolute below, as the witness comparisons are), in logarithms:
    k^order alone passes the float range at high orders (511^120 ~ 1e325)."""
    with np.errstate(divide="ignore"):
        log_weighted = np.log(probs) + order * np.log(np.arange(len(probs), dtype=float))
    relative = np.exp(log_weighted - max(0.0, np.logaddexp.reduce(log_weighted)))
    return _tail_estimate(relative, structural_zeros)


def _grow(name: str, bare, op: EngineeringOp, diagonal: bool, tail_tol: float,
          min_cutoff: int = 0, order: int = 0) -> TruncatedState:
    """The one cutoff-doubling loop behind every oracle state: op engineers
    bare(dim), the bare weights (diagonal) or amplitudes on dim levels. It
    starts where it reaches min_cutoff and oracle_moment's guard admits
    every <a'^m a^n> with (m + n) // 2 <= order, and stops where the mass
    near the top of the basis, and that mass weighted by k^order, are below
    tail_tol. A norm below _NORM_FLOOR is an annihilated state only where
    the bare state's own mass is held; otherwise it is underflow."""
    limit = max_cutoff()
    dim = min(_INITIAL_CUTOFF, limit)
    # m + n <= 2 order + 1 must stay below dim / 2
    while dim < min(max(min_cutoff, 4 * order + 3), limit):
        dim = min(2 * dim, limit)
    while True:
        components = bare(dim)
        engineered = _engineer(components, op, diagonal)
        # weights divide by their sum, the trace; amplitudes by their norm, its root
        total = float(np.sum(engineered) if diagonal else np.linalg.norm(engineered))
        if total > _NORM_FLOOR:
            data = engineered / total
            probs = data if diagonal else np.abs(data) ** 2
            tail = _tail_estimate(probs, structural_zeros=op.p)
            if tail < tail_tol and (not order or _moment_tail(probs, op.p, order) < tail_tol):
                return TruncatedState(dim, KIND_DIAGONAL if diagonal else KIND_VECTOR, data, tail)
        else:
            bare_probs = components if diagonal else np.abs(components) ** 2
            if _tail_estimate(bare_probs) < tail_tol * np.sum(bare_probs):
                raise DegenerateState(f"{name} is annihilated")
        if dim >= limit:
            subject = f"{name} moments need" if order else f"{name} needs"
            raise CutoffExceeded(f"{subject} more than {limit} Fock levels for tail tolerance {tail_tol}")
        dim = min(2 * dim, limit)


def _grow_spec(spec: StateSpec, tail_tol: float, min_cutoff: int = 0, order: int = 0) -> TruncatedState:
    return _grow(spec.canonical(), partial(_BARE_COMPONENTS[spec.family], spec.parameter), spec.op,
                 spec.family.diagonal, tail_tol, min_cutoff, order)


def build_truncated(spec: StateSpec, tail_tol: float = DEFAULT_TAIL_TOL,
                    min_cutoff: int = 0) -> TruncatedState:
    """Build the engineered state numerically, growing the cutoff (_grow)
    until the mass near the top of the basis is below tail_tol, from at
    least min_cutoff (Husimi evaluations need |beta|^2 well inside it).
    add-then-subtract applies a'^q first and a^p second, the other order is
    reversed. A grid spec raises ValueError: truncated_states builds one
    per point."""
    if isinstance(spec.parameter, np.ndarray):
        raise ValueError(f"build_truncated takes one state, not a grid spec of {len(spec.parameter)} points")
    return _grow_spec(spec, tail_tol, min_cutoff)


def coherent_truncated(alpha: complex, tail_tol: float = DEFAULT_TAIL_TOL) -> TruncatedState:
    """Plain coherent state |alpha> in the truncated basis (baseline states)."""
    alpha = complex(alpha)
    return _grow(f"coherent state |{alpha}>", partial(coherent_amplitudes, alpha), EngineeringOp.bare(),
                 False, tail_tol)


def truncated_states(spec: StateSpec, tail_tol: float = DEFAULT_TAIL_TOL, order: int = 0):
    """The state of a one-state spec, or a list over a grid spec's points
    with None where a state is annihilated, each grown by _grow for moments
    of that order. For one state DegenerateState propagates, as
    CutoffExceeded does on either."""
    if not isinstance(spec.parameter, np.ndarray):
        return _grow_spec(spec, tail_tol, order=order)
    states = []
    for value in spec.parameter:
        try:
            states.append(_grow_spec(StateSpec.of(spec.family, value, spec.op), tail_tol, order=order))
        except DegenerateState:
            states.append(None)
    return states


def over_states(states, quantity, rows: int, dtype=float) -> np.ndarray:
    """quantity(state), `rows` values, of one state, or stacked as columns
    over a list of states, NaN where a state is None (annihilated)."""
    if isinstance(states, TruncatedState):
        return quantity(states)
    out = np.full((rows, len(states)), math.nan, dtype=dtype)
    for i, state in enumerate(states):
        if state is not None:
            out[:, i] = quantity(state)
    return out


def oracle_moment(state: TruncatedState, m, n):
    """<a'^m a^n> from the truncated representation via ladder products.

    m and n are ints, which give a complex, or equal-length 1-d integer
    arrays of pairs (m[i], n[i]), as states.moment takes them. Each value
    sums one elementwise product of lowered vectors a^k psi (on a diagonal
    state, the diagonal of a^k rho a'^k itself). A pair with m + n at or
    above half the cutoff raises CutoffExceeded, and a value beyond the
    float range OutOfRange.
    """
    ms, ns = np.atleast_1d(m, n)
    if min(ms.min(initial=0), ns.min(initial=0)) < 0:
        raise ValueError("moment orders must be non-negative")
    too_close = ms + ns >= state.cutoff / 2
    if too_close.any():
        i = int(np.argmax(too_close))
        raise CutoffExceeded(f"moment order {ms[i]}+{ns[i]} too close to cutoff {state.cutoff}")
    diagonal = state.kind == KIND_DIAGONAL
    index, scale, rows = _lowering(state.cutoff, int(max(ms.max(initial=0), ns.max(initial=0))), diagonal)
    with np.errstate(over="ignore", invalid="ignore"):
        lowered = state.data[index] * scale
        for k in range(rows, len(lowered)):
            # a^k from a^(k-1): level j takes level j + 1 times j + 1, or its root on a vector
            lowered[k, :-1] = lowered[k - 1, 1:] * np.arange(1.0, state.cutoff) ** (1.0 if diagonal else 0.5)
        if diagonal:
            # only m = n survives on a diagonal state
            values = np.where(ms == ns, np.sum(lowered[ns], axis=-1), 0.0).astype(complex)
        else:
            values = np.sum(lowered[ms].conj() * lowered[ns], axis=-1)
    if not np.isfinite(values).all():
        i = int(np.argmax(~np.isfinite(values)))
        raise OutOfRange(f"<a'^{ms[i]} a^{ns[i]}> on the {state.cutoff}-level oracle basis "
                         "exceeds the float range")
    return complex(values[0]) if np.ndim(m) == np.ndim(n) == 0 else values


def oracle_photon_prob(state: TruncatedState, m):
    """p_m = <m| sigma |m> for an int m or a 1-d array of them; 0 with a
    warning beyond the cutoff."""
    numbers = np.atleast_1d(m)
    if numbers.min(initial=0) < 0:
        raise ValueError("photon number must be non-negative")
    beyond = numbers >= state.cutoff
    if beyond.any():
        warnings.warn(f"photon number {numbers[beyond][0]} is beyond the cutoff {state.cutoff}; returning 0",
                      stacklevel=2)
    values = np.where(beyond, 0.0, state.probabilities()[np.minimum(numbers, state.cutoff - 1)])
    return float(values[0]) if np.ndim(m) == 0 else values


def oracle_husimi(state: TruncatedState, beta):
    """Q(beta) = <beta| sigma |beta> / pi from the truncated state.

    beta is one complex amplitude, which gives a float, or an array of any
    shape. Every |beta|^2 must lie below a quarter of the cutoff, or
    CutoffExceeded names the largest. The bras are coherent_amplitudes, and
    a diagonal state's weights e^{-|beta|^2} |beta|^{2k} / k! their squared
    moduli, so neither underflows where e^{-|beta|^2} does.
    """
    beta = np.asarray(beta, dtype=complex)
    r2 = np.abs(beta) ** 2
    if np.any(r2 >= state.cutoff / 4):
        raise CutoffExceeded(f"|beta|^2 = {r2.max():.3f} is not well inside cutoff {state.cutoff}")

    def q(z):
        # one sum over the levels per point, the same in any chunk
        bras = coherent_amplitudes(z, state.cutoff)
        if state.kind == KIND_DIAGONAL:
            return np.sum(np.abs(bras) ** 2 * state.data, axis=-1)
        return np.abs(np.sum(bras.conj() * state.data, axis=-1)) ** 2

    chunks = np.array_split(beta.ravel(), 1 + beta.size * state.cutoff // _HUSIMI_CHUNK)
    values = np.concatenate([q(z) for z in chunks]).reshape(beta.shape) / math.pi
    return float(values) if beta.ndim == 0 else values


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


def moment_table_from_state(states, spec: StateSpec | None = None, pairs=()) -> MomentTable:
    """Moment cache (provenance 'oracle') over a list of truncated states,
    filled by one oracle_moment call per state: an entry is an array over
    them, NaN where a state is None (annihilated); over one state, a complex."""
    def fill(ms, ns):
        # the module's oracle_moment, as looked up at call time
        return over_states(states, lambda state: oracle_moment(state, ms, ns), len(ms), complex)

    return MomentTable(spec, fill, "oracle", pairs)


def _tail_order(pairs) -> int:
    """The largest (m + n) // 2 over the pairs: the n of the <a'^n a^n>
    whose tail a basis read at those pairs must hold (l/2 for hos(l))."""
    return max(((m + n) // 2 for m, n in pairs), default=0)


def oracle_moment_table(spec: StateSpec, tail_tol: float, pairs) -> MomentTable:
    """Oracle moments of spec's states at the given pairs, on bases that
    hold those moments' tails and admit them (truncated_states at
    _tail_order); over a grid spec an entry is an array, NaN where annihilated.
    """
    return moment_table_from_state(truncated_states(spec, tail_tol, _tail_order(pairs)), spec, pairs)


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
    doubled = build_truncated(spec, tail_tol, min_cutoff=2 * state.cutoff)
    if doubled.cutoff != 2 * state.cutoff:
        raise CutoffExceeded(f"doubled cutoff {2 * state.cutoff} exceeds the hard limit")
    first = float(evaluate(state))
    second = float(evaluate(doubled))
    if not deviation(first, second, RELATIVE_FLOOR) <= gate_rel_tol:
        raise CutoffExceeded(
            f"{spec.canonical()} {quantity}: value not stable under cutoff doubling "
            f"({first!r} vs {second!r})"
        )
    return FixtureRecord(spec.canonical(), quantity, state.cutoff, first)
