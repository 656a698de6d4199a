"""Nonclassicality witnesses evaluated from moment tables and distributions.

Seven criteria are implemented. Six are scalar inequalities where a negative
value flags nonclassicality:

* mandel_q       -- l-th order Mandel function, <(dN)^l>/<n> - 1
* hoa            -- higher-order antibunching, <a'^l a^l> - <n>^l
* hosps          -- higher-order sub-Poissonian statistics: the l-th central
                    number moment minus the same-mean Poissonian reference
* hos            -- Hong-Mandel higher-order squeezing of X = (a + a')/sqrt(2)
* agarwal_tara   -- determinant ratio of factorial-moment Hankel matrices
* klyshko        -- three consecutive photon-number probabilities

The seventh, husimi_zero_scan, looks for zeros of the Husimi Q function on a
grid; a nonempty zero set is the flag.

The six scalar witnesses also take a grid spec (states.StateSpec over an
array of parameters): their bodies are generic arithmetic on the moment
table, so one call gives the whole series as an ndarray. A guard that raises
for one state gives NaN at its points of a grid: DegenerateState (from the
norm) and SingularDenominator (agarwal_tara). ZeroMeanPhoton still fails the
whole grid, and OutOfRange and OddOrder still raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from . import oracle as oracle_mod
from . import states as states_mod
from .errors import EmptyWindow, OddOrder, SingularDenominator, ZeroMeanPhoton
from .specfun import binomial, double_factorial, quadrature_power_coeffs, stirling2
from .states import MomentTable, StateSpec

VARIANT_NUMBER_MOMENTS = "number_moments"
VARIANT_POWER_OF_MEAN = "power_of_mean"

# |det(mu) - det(m)| below epsilon * scale is reported as indeterminate
SINGULAR_EPSILON = 1e-12

WITNESS_IDS = ("mandel", "hoa", "hosps", "hos", "husimi_zero", "agarwal_tara", "klyshko")


@dataclass(frozen=True)
class WitnessResult:
    witness: str
    order: int
    value: float
    nonclassical: bool
    provenance: str


def _mean_photon(table: MomentTable) -> float:
    return table.get(1, 1).real


def _number_moment(table: MomentTable, r: int) -> float:
    """<(a'a)^r> from normally ordered moments via Stirling conversion."""
    return sum(stirling2(r, n) * table.get(n, n).real for n in range(r + 1))


def _central_number_moment(table: MomentTable, l: int) -> float:
    """<(a'a - <a'a>)^l> by binomial expansion."""
    mean = _mean_photon(table)
    total = 0.0
    for k in range(l + 1):
        total += binomial(l, k) * (-mean) ** k * _number_moment(table, l - k)
    return total


def mandel_q(table: MomentTable, l: int = 2) -> float:
    """Mandel function of order l; negative flags sub-Poissonian statistics."""
    if l < 2:
        raise ValueError("mandel_q requires l >= 2")
    mean = _mean_photon(table)
    # a zero-mean state anywhere on a grid fails the whole series
    if np.any(mean == 0.0):
        raise ZeroMeanPhoton("mandel_q is undefined for a zero-mean-photon state")
    return _central_number_moment(table, l) / mean - 1.0


def hoa(table: MomentTable, l: int = 2) -> float:
    """Higher-order antibunching d^(l-1) = <a'^l a^l> - <a'a>^l."""
    if l < 2:
        raise ValueError("hoa requires l >= 2")
    return table.get(l, l).real - _mean_photon(table) ** l


def hosps(table: MomentTable, l: int = 2) -> float:
    """Higher-order sub-Poissonian statistics D^(l-1).

    Combinatorial form of <(dn)^l> minus the same-mean Poissonian central
    moment: sum_{e,f} S2(e,f) C(l,e) (-1)^(l-e) d^(f-1) <n>^(l-e). This is
    the sign under which the criterion means "below Poissonian"; see
    hosps_printed_form for the (-1)^e variant it is gated against.
    """
    if l < 2:
        raise ValueError("hosps requires l >= 2")
    return _hosps_sum(table, l, flip_with_l=True)


def hosps_printed_form(table: MomentTable, l: int = 2) -> float:
    """Variant of hosps with the (-1)^e sign; equals (-1)^l * hosps.

    Kept for the definition gate: the two agree for even l and differ by an
    overall sign for odd l, where the Poissonian-difference form is
    authoritative (arbitrated by the oracle).
    """
    if l < 2:
        raise ValueError("hosps requires l >= 2")
    return _hosps_sum(table, l, flip_with_l=False)


def _hosps_sum(table: MomentTable, l: int, flip_with_l: bool) -> float:
    mean = _mean_photon(table)
    # mean^j and d_f = <a'^f a^f> - mean^f, each computed once
    powers = [mean ** j for j in range(l + 1)]
    d = [None] + [table.get(f, f).real - powers[f] for f in range(1, l + 1)]
    total = 0.0
    for e in range(l + 1):
        sign = (-1) ** (l - e) if flip_with_l else (-1) ** e
        for f in range(1, e + 1):
            total += stirling2(e, f) * binomial(l, e) * sign * d[f] * powers[l - e]
    return total


def hos(table: MomentTable, l: int = 2) -> float:
    """Hong-Mandel squeezing S^(l) of the quadrature X = (a + a')/sqrt(2).

    S^(l) = [<(dX)^l> - (1/2)_(l/2)] / (1/2)_(l/2) with (1/2)_(l/2) equal to
    (l-1)!!/2^(l/2); coherent states saturate S^(l) = 0. Quadrature moments
    come from the exact normal-ordered expansion of (a + a')^k.
    """
    if l < 2:
        raise ValueError("hos requires l >= 2")
    if l % 2:
        raise OddOrder("hos is defined for even order only")

    def quad_moment(k: int) -> float:
        total = 0j
        for (j, kk), coeff in quadrature_power_coeffs(k).items():
            total += coeff * table.get(j, kk)
        return (total / 2 ** (k / 2.0)).real

    mean_x = quad_moment(1)
    central = 0.0
    for k in range(l + 1):
        central += binomial(l, k) * (-mean_x) ** (l - k) * quad_moment(k)
    reference = double_factorial(l - 1) / 2 ** (l / 2.0)
    return (central - reference) / reference


def agarwal_tara(
    table: MomentTable,
    variant: str = VARIANT_NUMBER_MOMENTS,
    epsilon: float = SINGULAR_EPSILON,
) -> float:
    """Determinant-ratio witness A3 = det(m) / (det(mu) - det(m)).

    m is the 3x3 Hankel matrix of factorial moments m_k = <a'^k a^k>. The
    default variant takes mu_k = <(a'a)^k>; the power_of_mean variant takes
    mu_k = m_1^k, which makes mu rank one and det(mu) = 0 for every state.
    Where the denominator vanishes against the moments' scale the witness
    is indeterminate: SingularDenominator for one state, NaN on a grid.
    """
    if variant not in (VARIANT_NUMBER_MOMENTS, VARIANT_POWER_OF_MEAN):
        raise ValueError(f"unknown agarwal_tara variant {variant!r}")
    m = [1.0] + [table.get(k, k).real for k in range(1, 5)]
    if variant == VARIANT_NUMBER_MOMENTS:
        mu = [1.0] + [_number_moment(table, k) for k in range(1, 5)]
    else:
        mu = [m[1] ** k for k in range(5)]
    det_m = _hankel3_det(m)
    det_mu = _hankel3_det(mu)
    denominator = det_mu - det_m
    # elementwise over a grid
    scale = reduce(np.maximum, [1.0, abs(det_m), reduce(np.maximum, map(abs, m)) ** 3])
    return _guarded(
        abs(denominator) < epsilon * scale,
        lambda: SingularDenominator("agarwal_tara denominator vanishes (witness indeterminate)"),
        lambda: det_m / denominator,
    )


def _guarded(where, error: Callable[[], Exception], value: Callable[[], object]):
    """A per-point guard: for one state, raise error() if `where` holds and
    return value() otherwise; over a grid, value() with NaN where it holds."""
    if not isinstance(where, np.ndarray):
        if where:
            raise error()
        return value()
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(where, math.nan, value())


def _hankel3_det(moments) -> float:
    rows = [[moments[i + j] for j in range(3)] for i in range(3)]
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


def _photon_probs(spec: StateSpec, numbers, engine: str, tail_tol: float) -> list[float]:
    if engine == "analytic":
        # one call over the levels; a row per level, Python floats for one state
        probs = states_mod.photon_prob(spec, np.array(numbers))
        return list(probs) if probs.ndim > 1 else probs.tolist()
    state = oracle_mod.build_truncated(spec, tail_tol)
    return [oracle_mod.oracle_photon_prob(state, m) for m in numbers]


def klyshko(
    spec: StateSpec,
    m: int,
    engine: str = "analytic",
    tail_tol: float = oracle_mod.DEFAULT_TAIL_TOL,
) -> float:
    """Klyshko indicator B(m) = (m+2) p_m p_{m+2} - (m+1) p_{m+1}^2."""
    if m < 0:
        raise ValueError("photon number must be non-negative")
    return klyshko_from_probs(m, *_photon_probs(spec, (m, m + 1, m + 2), engine, tail_tol))


def klyshko_from_probs(m: int, p_m: float, p_m1: float, p_m2: float) -> float:
    """B(m) from the probabilities p_m, p_{m+1}, p_{m+2} of any distribution."""
    return (m + 2) * p_m * p_m2 - (m + 1) * p_m1 ** 2


@dataclass(frozen=True)
class ScanGrid:
    """Rectangular grid in the complex beta plane, steps points per axis."""

    re_min: float = -4.0
    re_max: float = 4.0
    im_min: float = -4.0
    im_max: float = 4.0
    steps: int = 81

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("grid needs at least 2 steps per axis")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid bounds must be well ordered")

    def axes(self) -> tuple[list[float], list[float]]:
        """(re values, im values): re_min + j d_re and im_min + i d_im."""
        d_re = (self.re_max - self.re_min) / (self.steps - 1)
        d_im = (self.im_max - self.im_min) / (self.steps - 1)
        return ([self.re_min + j * d_re for j in range(self.steps)],
                [self.im_min + i * d_im for i in range(self.steps)])

    def points(self):
        """Row-major grid points (imaginary part varies slowest)."""
        re_axis, im_axis = self.axes()
        for im in im_axis:
            for re in re_axis:
                yield complex(re, im)


def _husimi_grid_values(spec, grid, engine, tail_tol) -> np.ndarray:
    """Q at grid.points(), in their row-major order."""
    if engine == "analytic":
        re_axis, im_axis = map(np.array, grid.axes())
        return states_mod.husimi(spec, re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    corner = max(abs(grid.re_min), abs(grid.re_max)) ** 2
    corner += max(abs(grid.im_min), abs(grid.im_max)) ** 2
    state = oracle_mod.build_truncated(spec, tail_tol, min_cutoff=int(4 * corner) + 8)
    return np.array([oracle_mod.oracle_husimi(state, beta) for beta in grid.points()])


def _relative_husimi(spec, grid, engine, tail_tol) -> np.ndarray:
    """Q over its grid maximum, row-major.

    Raises EmptyWindow where Q is 0 at every point (a cat whose amplitude
    puts it outside the window): no point can then be told from a zero.
    """
    values = _husimi_grid_values(spec, grid, engine, tail_tol)
    q_max = values.max()
    if not q_max > 0.0:
        raise EmptyWindow(
            f"Husimi Q of {spec.canonical()} is 0 on the whole window "
            f"Re(beta) in [{grid.re_min!r}, {grid.re_max!r}], "
            f"Im(beta) in [{grid.im_min!r}, {grid.im_max!r}]"
        )
    return values / q_max


def husimi_zero_scan(
    spec: StateSpec,
    grid: ScanGrid | None = None,
    zero_threshold: float = 1e-6,
    engine: str = "analytic",
    tail_tol: float = oracle_mod.DEFAULT_TAIL_TOL,
) -> list[complex]:
    """Grid points where Q falls below zero_threshold times the grid maximum.

    The threshold is relative to the grid maximum because Q magnitudes vary
    by orders of magnitude between states. Deterministic row-major order.
    A window on which Q is 0 everywhere raises EmptyWindow.
    """
    grid = grid or ScanGrid()
    relative = _relative_husimi(spec, grid, engine, tail_tol)
    return [beta for beta, r in zip(grid.points(), relative) if r < zero_threshold]


# ---------------------------------------------------------------------------
# Uniform entry point
# ---------------------------------------------------------------------------

def _moment_pairs(witness: str, order: int) -> tuple[tuple[int, int], ...]:
    """The pairs (m, n) of the moments <a'^m a^n> a moment witness reads at
    this order: <a'^n a^n> for n <= l for mandel(l) (its <(a'a)^r>), n = 1
    and l for hoa(l), 1 <= n <= l for hosps(l) and n <= 4 for A3 (either
    variant); every normal-ordered term of (a + a')^k, k <= l, for hos(l)."""
    if witness == "hos":
        return tuple(sorted({pair for k in range(order + 1) for pair in quadrature_power_coeffs(k)}))
    if witness == "hoa":
        return ((1, 1), (order, order))
    first, last = (1, order) if witness == "hosps" else (0, 4 if witness == "agarwal_tara" else order)
    return tuple((n, n) for n in range(first, last + 1))


def _moment_order(witness: str, order: int) -> int:
    """The largest (m + n) // 2 over the pairs the witness reads: the n of
    the <a'^n a^n> whose tail the oracle basis must hold (l/2 for hos(l))."""
    return max(((m + n) // 2 for m, n in _moment_pairs(witness, order)), default=0)


def _table_for(spec: StateSpec, engine: str, tail_tol: float, witness: str, order: int) -> MomentTable:
    """The witness's moment table: an analytic table holds the pairs it
    reads, and an oracle basis holds the tails of the moments up to
    <a'^k a^k>, k = _moment_order."""
    if engine == "analytic":
        return MomentTable.analytic(spec, _moment_pairs(witness, order))
    if engine == "oracle":
        return oracle_mod.oracle_moment_table(spec, tail_tol, _moment_order(witness, order))
    raise ValueError(f"unknown engine {engine!r}")


def evaluate_witness(
    spec: StateSpec,
    witness: str,
    order: int = 2,
    variant: str = VARIANT_NUMBER_MOMENTS,
    engine: str = "analytic",
    grid: ScanGrid | None = None,
    zero_threshold: float = 1e-6,
    tail_tol: float = oracle_mod.DEFAULT_TAIL_TOL,
) -> WitnessResult:
    """Evaluate one witness for one state and wrap the outcome.

    For a grid spec on the analytic engine, value and nonclassical are
    arrays over the grid (husimi_zero takes one state only).
    """
    if witness in ("mandel", "hoa", "hosps", "hos", "agarwal_tara"):
        table = _table_for(spec, engine, tail_tol, witness, order)
        if witness == "mandel":
            value = mandel_q(table, order)
        elif witness == "hoa":
            value = hoa(table, order)
        elif witness == "hosps":
            value = hosps(table, order)
        elif witness == "hos":
            value = hos(table, order)
        else:
            value = agarwal_tara(table, variant)
            order = 0
        return WitnessResult(witness, order, value, value < 0.0, engine)
    if witness == "klyshko":
        value = klyshko(spec, order, engine, tail_tol)
        return WitnessResult(witness, order, value, value < 0.0, engine)
    if witness == "husimi_zero":
        # the husimi_zero_scan rule: some point lies below the threshold
        rel_min = float(_relative_husimi(spec, grid or ScanGrid(), engine, tail_tol).min())
        return WitnessResult("husimi_zero", 0, rel_min, rel_min < zero_threshold, engine)
    raise ValueError(f"unknown witness {witness!r}")
