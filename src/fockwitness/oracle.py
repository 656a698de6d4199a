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

Every basis grows in one loop over the rows of a grid (_grow), all of a grid
spec's points at once (truncated_states); one state is a grid of one. Each
quantity is one body over arrays, whose one-element case is the scalar call;
over_states stacks it over states.
"""

from __future__ import annotations

import math
import operator
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

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
# stable_oracle_value's bound on a value's deviation from it at twice the cutoff
STABILITY_TOL = 1e-10

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
    """a'^times (creation) or a^times applied to vectors along the last
    axis, in one slice and scale: a'^t |k> = sqrt((k+t)!/k!) |k+t>. On
    diagonal weights the same shift carries the full falling factorial, as
    a'^t rho a^t (creation) or a^t rho a'^t does to a diagonal rho."""
    if not times:
        return data
    out = np.zeros_like(data)
    count = data.shape[-1] - times
    if count <= 0:
        return out
    scale = _falling(count, times)
    if not diagonal:
        scale = np.sqrt(scale)
    if creation:
        out[..., times:] = data[..., :count] * scale
    else:
        out[..., :count] = data[..., times:] * scale
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


def _thermal_weights(rbar, dim: int) -> np.ndarray:
    """Bare thermal weights on dim levels, on a last axis added to the
    shape of rbar; rbar = 0 is the vacuum."""
    rbar = np.asarray(rbar, dtype=float)[..., None]
    total = 1.0 + rbar
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.exp(np.arange(dim) * np.log(rbar / total)) / total
    # x^0 / (1 + rbar), also where x = 0 and the log leaves NaN there
    weights[..., 0] = 1.0 / total[..., 0]
    return weights


def _even_cat_amplitudes(alpha, dim: int) -> np.ndarray:
    # |alpha> + |-alpha> keeps only even Fock levels; build the even slots
    # from the coherent amplitudes and zero the odd ones exactly, so parity
    # zeros survive the ladder algebra as exact zeros
    out = 2.0 * coherent_amplitudes(alpha, dim)
    out[..., 1::2] = 0.0
    return out


# (parameters, dim) -> the bare states' weights or amplitudes, per family record
_BARE_COMPONENTS = {FAMILY_THERMAL: _thermal_weights, FAMILY_EVEN_COHERENT: _even_cat_amplitudes}


def _engineer(components: np.ndarray, op: EngineeringOp, diagonal: bool) -> np.ndarray:
    p, q = op.p, op.q
    if op.order == ORDER_SUBTRACT_THEN_ADD:
        lowered = _ladder(components, p, creation=False, diagonal=diagonal)
        return _ladder(lowered, q, creation=True, diagonal=diagonal)
    raised = _ladder(components, q, creation=True, diagonal=diagonal)
    return _ladder(raised, p, creation=False, diagonal=diagonal)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex (G, D) array, formed as it
    forms one vector's: the dot products of the real and imaginary parts."""
    re, im = rows.real, rows.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _tail_estimate(probs: np.ndarray, structural_zeros: int = 0) -> np.ndarray:
    """Conservative mass-above-cutoff estimate from the top of the basis,
    one per row of probs (G, D).

    Photon subtraction leaves up to `structural_zeros` exactly-zero slots at
    the top of a row; those are skipped (they carry no mass) so the window
    anchors on the real tail. Zeros beyond that count are treated as the
    genuine end of support.
    """
    dim = probs.shape[-1]
    window = max(2, dim // 16)
    if not structural_zeros:
        return probs[:, max(0, dim - window):].sum(axis=-1)
    # each row's exact zeros at the top, up to structural_zeros of them
    top = probs[:, dim - min(structural_zeros, dim):][:, ::-1] == 0.0
    skips = np.cumprod(top, axis=1).sum(axis=1)
    tails = np.empty(len(probs))
    for skip in set(skips.tolist()):
        np.copyto(tails, probs[:, max(0, dim - skip - window):dim - skip].sum(axis=-1), where=skips == skip)
    return tails


def _moment_tail(probs: np.ndarray, structural_zeros: int, order: int) -> np.ndarray:
    """_tail_estimate of sum_k p_k k^order per row, relative to that sum
    where it exceeds 1 (absolute below, as the witness comparisons are), in
    logarithms: k^order alone passes the float range at high orders
    (511^120 ~ 1e325)."""
    with np.errstate(divide="ignore"):
        log_weighted = np.log(probs) + order * np.log(np.arange(probs.shape[-1], dtype=float))
    total = np.logaddexp.reduce(log_weighted, axis=-1)
    return _tail_estimate(np.exp(log_weighted - np.maximum(0.0, total)[:, None]), structural_zeros)


def _grow(name, points: np.ndarray, bare, op: EngineeringOp, diagonal: bool, tail_tol: float,
          min_cutoff: int = 0, order: int = 0) -> list:
    """The one cutoff-doubling loop behind every oracle state, over the rows
    of a grid: bare(points, dim) gives the bare weights (diagonal) or
    amplitudes of the pending points on dim levels, one row each, and op
    engineers them along the last axis. Every row starts where the basis
    reaches min_cutoff and oracle_moment's guard admits every <a'^m a^n>
    with (m + n) // 2 <= order, and retires at the first cutoff where the
    mass near the top of its basis, and that mass weighted by k^order, are
    below tail_tol: the cutoff its one-state build converges to. A norm
    below _NORM_FLOOR is an annihilated state (None) only where the bare
    state's own mass is held; otherwise it is underflow, and the row grows.
    name(i) names point i, and is formatted only for an error."""
    limit = max_cutoff()
    if min_cutoff > limit:
        raise CutoffExceeded(f"{name(0)} needs more than {limit} Fock levels to hold level {min_cutoff - 1}")
    dim = min(_INITIAL_CUTOFF, limit)
    # m + n <= 2 order + 1 must stay below dim / 2
    while dim < min(max(min_cutoff, 4 * order + 3), limit):
        dim = min(2 * dim, limit)
    states = [None] * len(points)
    kind = KIND_DIAGONAL if diagonal else KIND_VECTOR
    pending = np.arange(len(points))
    while pending.size:
        components = bare(points[pending], dim)
        engineered = _engineer(components, op, diagonal)
        # weights divide by their sum, the trace; amplitudes by their norm, its root
        total = np.sum(engineered, axis=-1) if diagonal else _row_norms(engineered)
        live = total > _NORM_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            # the rows below the floor are not read
            data = engineered / total[:, None]
        probs = data if diagonal else np.abs(data) ** 2
        tails = _tail_estimate(probs, op.p)
        retired = live & (tails < tail_tol)
        if order:
            # the weighted tail of the rows whose mass tail is held
            retired[retired] = _moment_tail(probs[retired], op.p, order) < tail_tol
        # the retired rows apart, so that no state holds the others' data
        for i, row, tail in zip(pending[retired], data[retired], tails[retired].tolist()):
            states[i] = TruncatedState(dim, kind, row, tail)
        if not live.all():
            bare_probs = components if diagonal else np.abs(components) ** 2
            retired |= ~live & (_tail_estimate(bare_probs) < tail_tol * np.sum(bare_probs, axis=-1))
        pending = pending[~retired]
        if pending.size and dim >= limit:
            subject = f"{name(pending[0])} moments need" if order else f"{name(pending[0])} needs"
            raise CutoffExceeded(f"{subject} more than {limit} Fock levels for tail tolerance {tail_tol}")
        dim = min(2 * dim, limit)
    return states


def _one(states: list, name) -> TruncatedState:
    """The state of a grid of one, or DegenerateState where it is annihilated."""
    if states[0] is None:
        raise DegenerateState(f"{name(0)} is annihilated")
    return states[0]


def truncated_states(spec: StateSpec, tail_tol: float = DEFAULT_TAIL_TOL, order: int = 0,
                     min_cutoff: int = 0):
    """The states of a spec's points from one _grow over them, each at the
    cutoff its own build converges to, for moments of that order and from
    at least min_cutoff levels: the state of a one-state spec, or a list
    over a grid spec's points with None where a state is annihilated. For
    one state DegenerateState propagates, as CutoffExceeded does on either,
    naming the first point past the hard limit."""
    points = np.atleast_1d(spec.parameter)

    def name(i):
        return StateSpec.of(spec.family, points[i], spec.op).canonical()

    states = _grow(name, points, _BARE_COMPONENTS[spec.family], spec.op, spec.family.diagonal,
                   tail_tol, min_cutoff, order)
    return states if isinstance(spec.parameter, np.ndarray) else _one(states, name)


def build_truncated(spec: StateSpec, tail_tol: float = DEFAULT_TAIL_TOL,
                    min_cutoff: int = 0) -> TruncatedState:
    """Build the engineered state numerically, growing the cutoff (_grow)
    until the mass near the top of the basis is below tail_tol, from at
    least min_cutoff (Husimi evaluations need |beta|^2 well inside it);
    past the hard limit it raises CutoffExceeded. add-then-subtract applies
    a'^q first and a^p second, the other order is reversed. A grid spec
    raises ValueError: truncated_states builds all its points at once."""
    if isinstance(spec.parameter, np.ndarray):
        raise ValueError(f"build_truncated takes one state, not a grid spec of {len(spec.parameter)} points")
    return truncated_states(spec, tail_tol, min_cutoff=min_cutoff)


def coherent_truncated(alpha: complex, tail_tol: float = DEFAULT_TAIL_TOL) -> TruncatedState:
    """Plain coherent state |alpha> in the truncated basis (baseline states)."""
    alpha = complex(alpha)

    def name(i):
        return f"coherent state |{alpha}>"

    return _one(_grow(name, np.array([alpha]), coherent_amplitudes, EngineeringOp.bare(), False, tail_tol), name)


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


def oracle_poissonian_central_moment(mean, l):
    """l-th central moment of a Poisson distribution, by truncated summation.

    mean may also be a 1-d array of means, and l a sequence of orders: the
    pmf of every mean is built once, over the support of the largest order,
    and each value sums its own mean's and order's support term by term in
    level order, so that it equals its one-mean, one-order call bit for
    bit. Per order, a number mean gives a float and an array of means an
    array over them; a sequence of orders gives a list, one per order.
    """
    scalar = np.ndim(l) == 0
    orders = [l] if scalar else list(l)
    means = np.atleast_1d(np.asarray(mean, dtype=float))
    if (means < 0).any():
        raise ValueError("mean must be non-negative")
    if min(orders, default=1) < 1:
        raise ValueError("order must be at least 1")
    # support wide enough that the neglected tail is far below 1e-14 even
    # after the (k - mean)^l weight; one row per order, one column per mean
    tops = (means + 40.0 * np.sqrt(means) + 60.0 + 2 * np.array(orders, dtype=int)[:, None]).astype(int)
    k = np.arange(tops.max(initial=0) + 1, dtype=float)
    # a zero mean, whose moments are 0, is summed as mean 1 and masked below
    pmf = np.exp(k * np.log(np.where(means > 0.0, means, 1.0))[:, None] - means[:, None]
                 - _log_factorials(len(k)))
    deviations = k - means[:, None]
    # (k - mean)^l as l - 1 products, the same for each order on its own
    weights = [reduce(operator.mul, [deviations] * order) for order in orders]
    sums = np.cumsum(pmf * np.array(weights).reshape(len(orders), *pmf.shape), axis=-1)
    values = np.where(means > 0.0, sums[np.arange(len(orders))[:, None], np.arange(len(means)), tops], 0.0)
    values = [value if np.ndim(mean) else float(value[0]) for value in values]
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


def moment_table_from_state(states, pairs=()) -> MomentTable:
    """Moment cache (provenance 'oracle') of the given pairs over a list of
    truncated states, filled by one oracle_moment call per state: an entry
    is an array over them, NaN where a state is None (annihilated); over one
    state, a complex."""
    def fill(ms, ns):
        # the module's oracle_moment, as looked up at call time
        return over_states(states, lambda state: oracle_moment(state, ms, ns), len(ms), complex)

    return MomentTable(fill, "oracle", pairs)


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


def stable_oracle_value(evaluate, spec: StateSpec, quantity: str) -> FixtureRecord:
    """Freeze an oracle value only after the doubled-cutoff stability gate.

    `evaluate(state)` computes the quantity from a TruncatedState; the value
    at the converged cutoff D must match the value at 2D to STABILITY_TOL.
    """
    state = build_truncated(spec)
    doubled = build_truncated(spec, min_cutoff=2 * state.cutoff)
    if doubled.cutoff != 2 * state.cutoff:
        raise CutoffExceeded(f"doubled cutoff {2 * state.cutoff} exceeds the hard limit")
    first = float(evaluate(state))
    second = float(evaluate(doubled))
    if not deviation(first, second, RELATIVE_FLOOR) <= STABILITY_TOL:
        raise CutoffExceeded(
            f"{spec.canonical()} {quantity}: value not stable under cutoff doubling "
            f"({first!r} vs {second!r})"
        )
    return FixtureRecord(spec.canonical(), quantity, state.cutoff, first)
