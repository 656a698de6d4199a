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

Every basis grows in one loop over rows that each carry their own operation
(_grow): all the (operation, point) pairs of a stack of grid specs of one
family at once (truncated_states); a grid spec is a stack of one, and one
state a grid of one. Each quantity is one body over arrays, whose
one-element case is the scalar call; the moments of many states are one
gather per cutoff (_gathered_moments), of which oracle_moment is the group of
one. From its own arithmetic, a row whose mass underflows while its basis
holds the bare state's is annihilated at parameter 0, out of range elsewhere.
"""

from __future__ import annotations

import math
import operator
import os
import warnings
from functools import lru_cache, reduce

import numpy as np

from .errors import CutoffExceeded, DegenerateState, OutOfRange
from .records import FrozenRecord
from .states import (
    FAMILY_EVEN_COHERENT,
    FAMILY_THERMAL,
    ORDER_SUBTRACT_THEN_ADD,
    EngineeringOp,
    MomentTable,
    StateSpec,
    as_stack,
)

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_MAX_CUTOFF = 4096
_INITIAL_CUTOFF = 32
# Husimi points per chunk times the cutoff: a few MB of amplitudes
_HUSIMI_CHUNK = 1 << 17
# elements per temporary of a grouped moment gather, 128 KB of complex: at 2^16
# the gathers of a verify run raised its peak RSS by 7%
_GATHER_CHUNK = 1 << 13
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


class TruncatedState(FrozenRecord):
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
def _lowering(dim: int, top: int, diagonal: bool) -> tuple[np.ndarray, int]:
    """(scale, rows) for top < dim: row k < rows of data shifted down k
    levels (level j takes level j + k, the top k levels take the last level)
    times scale is _ladder(data, k, creation=False), the same products; the
    later rows, whose (j + k)!/j! pass the float range, are 0."""
    scale = np.zeros((top + 1, dim))
    with np.errstate(over="ignore"):
        # (j + k)!/j! grows with j and with k
        rows = next((k for k in range(top + 1) if _falling(dim - k, k)[-1] == math.inf), top + 1)
    for k in range(rows):
        scale[k, :dim - k] = _falling(dim - k, k)
    if not diagonal:
        scale = np.sqrt(scale)
    scale.flags.writeable = False
    return scale, rows


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


def _row_masses(rows: np.ndarray) -> np.ndarray:
    """Each row's squared norm of a complex (G, D) array, as np.linalg.norm
    forms one vector's: the dot products of the real and imaginary parts."""
    re, im = rows.real, rows.imag
    return (re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]


def _tail_estimate(probs: np.ndarray, structural_zeros=0) -> np.ndarray:
    """Conservative mass-above-cutoff estimate from the top of the basis,
    one per row of probs (G, D).

    Photon subtraction leaves up to `structural_zeros` (one per row, its
    operation's p; none by default) exactly-zero slots at the top of a row;
    those are skipped (they carry no mass) so the window anchors on the real
    tail. Zeros beyond that count are treated as the genuine end of support.
    """
    dim = probs.shape[-1]
    window = max(2, dim // 16)
    zeros = np.asarray(structural_zeros)
    width = min(int(zeros.max(initial=0)), dim)
    if not width:
        return probs[:, max(0, dim - window):].sum(axis=-1)
    # each row's exact zeros at the top, up to its structural_zeros of them
    top = (probs[:, dim - width:][:, ::-1] == 0.0) & (np.arange(width) < zeros[:, None])
    skips = np.cumprod(top, axis=1).sum(axis=1)
    tails = np.empty(len(probs))
    for skip in set(skips.tolist()):
        np.copyto(tails, probs[:, max(0, dim - skip - window):dim - skip].sum(axis=-1), where=skips == skip)
    return tails


def _moment_tail(probs: np.ndarray, structural_zeros: np.ndarray, order: int) -> np.ndarray:
    """_tail_estimate of sum_k p_k k^order per row, relative to that sum
    where it exceeds 1 (absolute below, as the witness comparisons are), in
    logarithms: k^order alone passes the float range at high orders
    (511^120 ~ 1e325)."""
    with np.errstate(divide="ignore"):
        log_weighted = np.log(probs) + order * np.log(np.arange(probs.shape[-1], dtype=float))
    total = np.logaddexp.reduce(log_weighted, axis=-1)
    return _tail_estimate(np.exp(log_weighted - np.maximum(0.0, total)[:, None]), structural_zeros)


def _grow(name, points: np.ndarray, ops, bare, diagonal: bool, tail_tol: float,
          min_cutoff: int = 0, order: int = 0) -> list:
    """The one cutoff-doubling loop behind every oracle state, over rows
    that each carry their own operation: row r is point r % len(points)
    engineered by ops[r // len(points)]. bare(values, dim) gives the bare
    weights (diagonal) or amplitudes of values on dim levels, one row each;
    they are built once per pending point and dim and gathered to its rows,
    and each operation engineers its rows together along the last axis.
    Every row starts where the basis reaches min_cutoff and oracle_moment's
    guard admits every <a'^m a^n> with (m + n) // 2 <= order, and retires
    at the first cutoff where the mass near the top of its basis (its
    op.p structural zeros skipped), and that mass weighted by k^order, are
    below tail_tol: the cutoff its one-state build converges to. A row whose
    mass (weights' sum, amplitudes' squared norm) is below the normal floats
    while the basis holds its bare mass is annihilated (None) at parameter
    0, the vacuum, and raises OutOfRange at any other; a row whose bare mass
    is not held grows. The states come in row order; name(r) names row r,
    and is formatted only for an error."""
    limit = max_cutoff()
    if min_cutoff > limit:
        raise CutoffExceeded(f"{name(0)} needs more than {limit} Fock levels to hold level {min_cutoff - 1}")
    dim = min(_INITIAL_CUTOFF, limit)
    # m + n <= 2 order + 1 must stay below dim / 2
    while dim < min(max(min_cutoff, 4 * order + 3), limit):
        dim = min(2 * dim, limit)
    size = len(points)
    # each row's structural zeros, its operation's p
    zeros = np.repeat([op.p for op in ops], size)
    states = [None] * len(zeros)
    kind = KIND_DIAGONAL if diagonal else KIND_VECTOR
    pending = np.arange(len(states))
    while pending.size:
        if len(ops) == 1:
            # the rows are the points, so there is nothing to gather
            components = bare(points[pending], dim)
            engineered = _engineer(components, ops[0], diagonal)
        else:
            op, point = np.divmod(pending, size)
            # the bare components of each pending point, gathered to its rows
            needed = np.flatnonzero(np.bincount(point, minlength=size))
            components = bare(points[needed], dim)[np.searchsorted(needed, point)]
            # pending ascends, so the rows of each operation are one run of it
            bounds = [0, *(np.flatnonzero(np.diff(op)) + 1).tolist(), pending.size]
            engineered = np.empty_like(components)
            for start, stop in zip(bounds, bounds[1:]):
                engineered[start:stop] = _engineer(components[start:stop], ops[op[start]], diagonal)
        # weights divide by their mass, the trace; amplitudes by its root, their norm
        mass = np.sum(engineered, axis=-1) if diagonal else _row_masses(engineered)
        live = mass >= np.finfo(float).tiny
        with np.errstate(divide="ignore", invalid="ignore"):
            # the rows that are not live are not read
            data = engineered / (mass if diagonal else np.sqrt(mass))[:, None]
        probs = data if diagonal else np.abs(data) ** 2
        tails = _tail_estimate(probs, zeros[pending])
        retired = live & (tails < tail_tol)
        if order:
            # the weighted tail of the rows whose mass tail is held
            retired[retired] = _moment_tail(probs[retired], zeros[pending[retired]], order) < tail_tol
        # the retired rows apart, so that no state holds the others' data
        for i, row, tail in zip(pending[retired], data[retired], tails[retired].tolist()):
            states[i] = TruncatedState(dim, kind, row, tail)
        if not live.all():
            bare_probs = components if diagonal else np.abs(components) ** 2
            held = ~live & (_tail_estimate(bare_probs) < tail_tol * np.sum(bare_probs, axis=-1))
            if (lost := held & (points[pending % size] != 0)).any():
                raise OutOfRange(f"the oracle mass of {name(pending[np.argmax(lost)])} is not a normal float")
            retired |= held
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


def truncated_states(spec, tail_tol: float = DEFAULT_TAIL_TOL, order: int = 0, min_cutoff: int = 0):
    """The states of a spec's points, or of a stack of grid specs, from one
    _grow over them, each at the cutoff its own build converges to, for
    moments of that order and from at least min_cutoff levels. A stack is a
    sequence of grid specs of one family over one parameter array
    (states.as_stack), whose rows are its (operation, point) pairs, and
    gives one list per spec; a grid spec is a stack of one, and gives a
    list over its points, with None where a state is annihilated; a
    one-state spec is a grid of one, and gives its state. For one state DegenerateState propagates, as
    CutoffExceeded and OutOfRange (_grow) do on any, naming the first such row."""
    stack = as_stack(spec)
    family, parameter = stack[0].family, stack[0].parameter
    points = np.atleast_1d(parameter)

    def name(r):
        return StateSpec.of(family, points[r % len(points)], stack[r // len(points)].op).canonical()

    states = _grow(name, points, [one.op for one in stack], _BARE_COMPONENTS[family], family.diagonal,
                   tail_tol, min_cutoff, order)
    if not isinstance(spec, StateSpec):
        return [states[i:i + len(points)] for i in range(0, len(states), len(points))]
    return states if isinstance(parameter, np.ndarray) else _one(states, name)


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

    states = _grow(name, np.array([alpha]), [EngineeringOp.bare()], coherent_amplitudes, False, tail_tol)
    return _one(states, name)


def oracle_moment(state: TruncatedState, m, n):
    """<a'^m a^n> from the truncated representation via ladder products:
    the gather of _gathered_moments over a group of one.

    m and n are ints, which give a complex, or equal-length 1-d integer
    arrays of pairs (m[i], n[i]), as states.moment takes them. Each value
    sums one elementwise product of lowered vectors a^k psi (on a diagonal
    state, the diagonal of a^k rho a'^k itself). A pair with m + n at or
    above half the cutoff raises CutoffExceeded, and a value beyond the
    float range OutOfRange.
    """
    ms, ns = np.atleast_1d(m, n)
    values = _gathered_moments([state], ms, ns)[:, 0]
    return complex(values[0]) if np.ndim(m) == np.ndim(n) == 0 else values


def _gathered_moments(states, ms: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """<a'^ms[i] a^ns[i]> (rows) on each of a list of truncated states
    (columns), NaN where a state is None (annihilated).

    The states of one cutoff and kind are one group, gathered together in
    chunks whose temporaries hold about _GATHER_CHUNK elements: row k of
    the lowered stack is the stacked data shifted down k levels, times
    _lowering's scale, and each value sums one C-contiguous row of an
    elementwise product (on diagonal states, a row of the lowered stack
    itself), so it equals the state's one-state value bit for bit. The
    errors are oracle_moment's, raised for the first state that has one.
    """
    if min(ms.min(initial=0), ns.min(initial=0)) < 0:
        raise ValueError("moment orders must be non-negative")
    reach = ms + ns
    # the first state whose cutoff is at most twice the widest pair
    widest = 2 * int(reach.max(initial=0))
    close = next((state for state in states if state is not None and widest >= state.cutoff), None)
    if close is not None:
        i = int(np.argmax(reach >= close.cutoff / 2))
        raise CutoffExceeded(f"moment order {ms[i]}+{ns[i]} too close to cutoff {close.cutoff}")
    groups: dict = {}
    for j, state in enumerate(states):
        if state is not None:
            groups.setdefault((state.cutoff, state.kind), []).append(j)
    top = int(max(ms.max(initial=0), ns.max(initial=0)))
    out = np.full((len(ms), len(states)), math.nan, dtype=complex)
    for (cutoff, kind), columns in groups.items():
        diagonal = kind == KIND_DIAGONAL
        scale, rows = _lowering(cutoff, top, diagonal)
        step = max(1, _GATHER_CHUNK // (cutoff * max(top + 1, len(ms))))
        for chunk in (columns[i:i + step] for i in range(0, len(columns), step)):
            # each state's data, then top copies of its last level
            padded = np.empty((len(chunk), cutoff + top), dtype=states[chunk[0]].data.dtype)
            np.stack([states[j].data for j in chunk], out=padded[:, :cutoff])
            padded[:, cutoff:] = padded[:, cutoff - 1:cutoff]
            # a view: shifted[k, g, j] is level j + k of padded state g
            level_bytes, state_bytes = padded.strides[1], padded.strides[0]
            shifted = np.ndarray((top + 1, len(chunk), cutoff), padded.dtype, padded, 0,
                                 (level_bytes, state_bytes, level_bytes))
            lowered = np.empty(shifted.shape, dtype=padded.dtype)
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(shifted, scale[:, None], out=lowered)
                for k in range(rows, top + 1):
                    # a^k from a^(k-1): level j takes level j + 1 times j + 1, or its root on a vector
                    lowered[k, :, :-1] = lowered[k - 1, :, 1:] * np.arange(1.0, cutoff) ** (0.5 + 0.5 * diagonal)
                if diagonal:
                    # only m = n survives on a diagonal state
                    out[:, chunk] = np.where((ms == ns)[:, None], np.sum(lowered, axis=-1)[ns], 0.0)
                else:
                    products = lowered[ms]
                    np.conjugate(products, out=products)
                    products *= lowered[ns]
                    out[:, chunk] = np.sum(products, axis=-1)
    bad = ~np.isfinite(out) & np.array([state is not None for state in states])
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        i = int(np.argmax(bad[:, j]))
        raise OutOfRange(f"<a'^{ms[i]} a^{ns[i]}> on the {states[j].cutoff}-level oracle basis "
                         "exceeds the float range")
    return out


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


def moment_table_from_state(states, pairs=(), vacuum=None) -> MomentTable:
    """Moment cache (provenance 'oracle') of the given pairs over a list of
    truncated states, filled by one _gathered_moments call over them, one
    gather per cutoff: an entry is an array over them, NaN where a state is
    None (annihilated); over one state, a complex. `vacuum` is the table's
    (see MomentTable)."""
    one = isinstance(states, TruncatedState)

    def fill(ms, ns):
        values = _gathered_moments([states] if one else states, ms, ns)
        return values[:, 0] if one else values

    return MomentTable(fill, "oracle", pairs, vacuum)


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------

class FixtureRecord(FrozenRecord):
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
