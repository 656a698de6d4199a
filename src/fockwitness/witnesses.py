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
array of parameters), on either engine, and then return the whole series as
an ndarray. One state is a grid of one: every body computes on 1-d arrays
over the table's states (a one-state table's entries become one-element
arrays), so a state's value equals its column of any grid bit for bit, and
each public function converts its result once, at return. A guard that
raises for one state gives NaN at its points of a grid: DegenerateState
(an annihilated state, whose moments are all NaN) and SingularDenominator
(agarwal_tara). ZeroMeanPhoton still fails the whole grid, and OutOfRange
and OddOrder still raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from . import oracle as oracle_mod
from . import states as states_mod
from .errors import EmptyWindow, OddOrder, SingularDenominator, ZeroMeanPhoton
from .specfun import normal_order, quadrature_power_coeffs
from .states import MomentTable, StateSpec

VARIANT_NUMBER_MOMENTS = "number_moments"
VARIANT_POWER_OF_MEAN = "power_of_mean"

# |det(mu) - det(m)| below this times the moments' scale is reported as
# indeterminate
SINGULAR_EPSILON = 1e-12

ENGINES = ("analytic", "oracle")


def engines(engine: str) -> tuple[str, ...]:
    """The engines an engine choice runs, in order: "analytic", "oracle",
    or "both" for the two. The first one's value is the one reported; under
    "both" the oracle's is its reference (oracle.deviation)."""
    if engine not in ENGINES + ("both",):
        raise ValueError(f"unknown engine {engine!r}")
    return ENGINES if engine == "both" else (engine,)


def _analytic(engine: str) -> bool:
    """Whether a route's engine is the analytic one rather than the
    oracle; a name outside ENGINES ("both" too) raises."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    return engine == "analytic"


@dataclass(frozen=True)
class WitnessResult:
    witness: str
    order: int
    value: float
    nonclassical: bool
    provenance: str


def _entry(table: MomentTable, m: int, n: int) -> np.ndarray:
    """<a'^m a^n> over the table's states as a 1-d array: a one-state
    table's entry is a grid of one."""
    return np.atleast_1d(table.get(m, n))


def _unwrap(values: np.ndarray, like, indeterminate: Callable[[], Exception] | None = None):
    """A body's values as a public witness returns them: the array over a
    grid, where `like` (a table entry, or the spec's parameter) is an array;
    for one state its one value as a float, or indeterminate() raised where
    that value is NaN. Every moment witness reads <a'a>, so the tables pass
    that entry."""
    if isinstance(like, np.ndarray):
        return values
    value = float(values[0])
    if indeterminate is not None and math.isnan(value):
        raise indeterminate()
    return value


def _mean_photon(table: MomentTable) -> np.ndarray:
    return _entry(table, 1, 1).real


@lru_cache(maxsize=None)
def _number_power(r: int) -> tuple[tuple[int, int, int], ...]:
    """(a'a)^r = sum_n S2(r, n) a'^n a^n as terms (n, n, S2(r, n)), n
    ascending: the Stirling numbers of the second kind."""
    return normal_order((((1, 1, 1),),) * r)


def _number_moment(table: MomentTable, r: int) -> np.ndarray:
    """<(a'a)^r> from normally ordered moments."""
    return sum(c * _entry(table, n, n).real for n, _, c in _number_power(r))


def _central_number_moment(table: MomentTable, l: int) -> np.ndarray:
    """<(a'a - <a'a>)^l> by binomial expansion."""
    mean = _mean_photon(table)
    total = 0.0
    for k in range(l + 1):
        total += math.comb(l, k) * (-mean) ** k * _number_moment(table, l - k)
    return total


def mandel_q(table: MomentTable, l: int = 2):
    """Mandel function of order l; negative flags sub-Poissonian statistics."""
    if l < 2:
        raise ValueError("mandel_q requires l >= 2")
    mean = _mean_photon(table)
    # a zero-mean state anywhere on a grid fails the whole series
    if np.any(mean == 0.0):
        raise ZeroMeanPhoton("mandel_q is undefined for a zero-mean-photon state")
    return _unwrap(_central_number_moment(table, l) / mean - 1.0, table.get(1, 1))


def hoa(table: MomentTable, l: int = 2):
    """Higher-order antibunching d^(l-1) = <a'^l a^l> - <a'a>^l."""
    if l < 2:
        raise ValueError("hoa requires l >= 2")
    return _unwrap(_entry(table, l, l).real - _mean_photon(table) ** l, table.get(1, 1))


def hosps(table: MomentTable, l: int = 2):
    """Higher-order sub-Poissonian statistics D^(l-1).

    Combinatorial form of <(dn)^l> minus the same-mean Poissonian central
    moment: sum_{e,f} S2(e,f) C(l,e) (-1)^(l-e) d^(f-1) <n>^(l-e). This is
    the sign under which the criterion means "below Poissonian"; see
    hosps_printed_form for the (-1)^e variant it is gated against.
    """
    if l < 2:
        raise ValueError("hosps requires l >= 2")
    return _unwrap(_hosps_sum(table, l, flip_with_l=True), table.get(1, 1))


def hosps_printed_form(table: MomentTable, l: int = 2):
    """Variant of hosps with the (-1)^e sign; equals (-1)^l * hosps.

    Kept for the definition gate: the two agree for even l and differ by an
    overall sign for odd l, where the Poissonian-difference form is
    authoritative (arbitrated by the oracle).
    """
    if l < 2:
        raise ValueError("hosps requires l >= 2")
    return _unwrap(_hosps_sum(table, l, flip_with_l=False), table.get(1, 1))


def _hosps_sum(table: MomentTable, l: int, flip_with_l: bool) -> np.ndarray:
    mean = _mean_photon(table)
    # mean^j and d_f = <a'^f a^f> - mean^f, each computed once
    powers = [mean ** j for j in range(l + 1)]
    d = [None] + [_entry(table, f, f).real - powers[f] for f in range(1, l + 1)]
    total = 0.0
    for e in range(1, l + 1):
        sign = (-1) ** (l - e) if flip_with_l else (-1) ** e
        for f, _, s2 in _number_power(e):
            total += s2 * math.comb(l, e) * sign * d[f] * powers[l - e]
    return total


def hos(table: MomentTable, l: int = 2):
    """Hong-Mandel squeezing S^(l) of the quadrature X = (a + a')/sqrt(2).

    S^(l) = [<(dX)^l> - (1/2)_(l/2)] / (1/2)_(l/2) with (1/2)_(l/2) equal to
    (l-1)!!/2^(l/2); coherent states saturate S^(l) = 0. Quadrature moments
    come from the exact normal-ordered expansion of (a + a')^k.
    """
    if l < 2:
        raise ValueError("hos requires l >= 2")
    if l % 2:
        raise OddOrder("hos is defined for even order only")

    def quad_moment(k: int) -> np.ndarray:
        total = 0j
        for j, kk, coeff in quadrature_power_coeffs(k):
            total += coeff * _entry(table, j, kk)
        return (total / 2 ** (k / 2.0)).real

    mean_x = quad_moment(1)
    central = 0.0
    for k in range(l + 1):
        central += math.comb(l, k) * (-mean_x) ** (l - k) * quad_moment(k)
    # the (0,0) term of (a + a')^l, (l-1)!!
    reference = quadrature_power_coeffs(l)[0][2] / 2 ** (l / 2.0)
    return _unwrap((central - reference) / reference, table.get(1, 1))


def agarwal_tara(table: MomentTable, variant: str = VARIANT_NUMBER_MOMENTS):
    """Determinant-ratio witness A3 = det(m) / (det(mu) - det(m)).

    m is the 3x3 Hankel matrix of factorial moments m_k = <a'^k a^k>. The
    default variant takes mu_k = <(a'a)^k>; the power_of_mean variant takes
    mu_k = m_1^k, which makes mu rank one and det(mu) = 0 for every state.
    Where the denominator vanishes against the moments' scale the witness
    is indeterminate: SingularDenominator for one state, NaN on a grid.
    """
    if variant not in (VARIANT_NUMBER_MOMENTS, VARIANT_POWER_OF_MEAN):
        raise ValueError(f"unknown agarwal_tara variant {variant!r}")
    m = [1.0] + [_entry(table, k, k).real for k in range(1, 5)]
    if variant == VARIANT_NUMBER_MOMENTS:
        mu = [1.0] + [_number_moment(table, k) for k in range(1, 5)]
    else:
        mu = [m[1] ** k for k in range(5)]
    det_m = _hankel3_det(m)
    det_mu = _hankel3_det(mu)
    denominator = det_mu - det_m
    # elementwise over the states
    scale = reduce(np.maximum, [1.0, abs(det_m), reduce(np.maximum, map(abs, m)) ** 3])
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(abs(denominator) < SINGULAR_EPSILON * scale, math.nan, det_m / denominator)
    return _unwrap(value, table.get(1, 1), lambda: SingularDenominator(
        "agarwal_tara denominator vanishes (witness indeterminate)"))


def _hankel3_det(moments) -> np.ndarray:
    rows = [[moments[i + j] for j in range(3)] for i in range(3)]
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


def _photon_probs(spec: StateSpec, numbers, engine: str, tail_tol: float) -> np.ndarray:
    """p_m for m in numbers over spec's states, one row per m: a column
    per point of a grid spec, one column for one state."""
    if _analytic(engine):
        probs = states_mod.photon_prob(spec, numbers)
    else:
        probs = oracle_mod.over_states(oracle_mod.truncated_states(spec, tail_tol),
                                       lambda state: oracle_mod.oracle_photon_prob(state, numbers),
                                       len(numbers))
    return probs.reshape(len(numbers), -1)


def klyshko(
    spec: StateSpec,
    m: int,
    engine: str = "analytic",
    tail_tol: float = oracle_mod.DEFAULT_TAIL_TOL,
):
    """Klyshko indicator B(m) = (m+2) p_m p_{m+2} - (m+1) p_{m+1}^2."""
    if m < 0:
        raise ValueError("photon number must be non-negative")
    probs = _photon_probs(spec, np.arange(m, m + 3), engine, tail_tol)
    return _unwrap(klyshko_from_probs(m, *probs), spec.parameter)


def klyshko_from_probs(m: int, p_m: float, p_m1: float, p_m2: float) -> float:
    """B(m) from the probabilities p_m, p_{m+1}, p_{m+2} of any distribution."""
    return (m + 2) * p_m * p_m2 - (m + 1) * p_m1 ** 2


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    """lo + i (hi - lo) / (steps - 1) for i < steps: a sweep's parameter
    grid and a scan grid's axes."""
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


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
        """(re values, im values), each _linspace over its bounds."""
        return (_linspace(self.re_min, self.re_max, self.steps),
                _linspace(self.im_min, self.im_max, self.steps))

    def points(self):
        """Row-major grid points (imaginary part varies slowest)."""
        re_axis, im_axis = self.axes()
        for im in im_axis:
            for re in re_axis:
                yield complex(re, im)


def _husimi(spec: StateSpec, betas: np.ndarray, engine: str, tail_tol: float) -> np.ndarray:
    """Q at an array of betas from one call on either engine; an oracle
    basis holds every |beta|^2 well inside its cutoff."""
    if _analytic(engine):
        return states_mod.husimi(spec, betas)
    reach = int(4 * np.max(np.abs(betas) ** 2)) + 8
    return oracle_mod.oracle_husimi(oracle_mod.build_truncated(spec, tail_tol, min_cutoff=reach), betas)


def _husimi_grid_values(spec, grid, engine, tail_tol) -> np.ndarray:
    """Q at grid.points(), in their row-major order."""
    re_axis, im_axis = map(np.array, grid.axes())
    return _husimi(spec, re_axis[None, :] + 1j * im_axis[:, None], engine, tail_tol).ravel()


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
        return tuple(sorted({(j, kk) for k in range(order + 1) for j, kk, _ in quadrature_power_coeffs(k)}))
    if witness == "hoa":
        return ((1, 1), (order, order))
    first, last = (1, order) if witness == "hosps" else (0, 4 if witness == "agarwal_tara" else order)
    return tuple((n, n) for n in range(first, last + 1))


def _moment_table(spec: StateSpec, engine: str, tail_tol: float, pairs) -> MomentTable:
    """spec's moment table on either engine, holding the given pairs; an
    oracle basis also holds the tails of those moments."""
    if _analytic(engine):
        return MomentTable.analytic(spec, pairs)
    return oracle_mod.oracle_moment_table(spec, tail_tol, pairs)


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

    For a grid spec, value and nonclassical are arrays over the grid, NaN
    and False at its gaps (husimi_zero takes one state only).
    """
    if witness == "husimi_zero":
        # the husimi_zero_scan rule: some point lies below the threshold
        rel_min = float(_relative_husimi(spec, grid or ScanGrid(), engine, tail_tol).min())
        return WitnessResult("husimi_zero", 0, rel_min, rel_min < zero_threshold, engine)
    if witness == "klyshko":
        value = klyshko(spec, order, engine, tail_tol)
    elif witness in ("mandel", "hoa", "hosps", "hos", "agarwal_tara"):
        table = _moment_table(spec, engine, tail_tol, _moment_pairs(witness, order))
        if witness == "agarwal_tara":
            value, order = agarwal_tara(table, variant), 0
        else:
            value = {"mandel": mandel_q, "hoa": hoa, "hosps": hosps, "hos": hos}[witness](table, order)
    else:
        raise ValueError(f"unknown witness {witness!r}")
    return WitnessResult(witness, order, value, value < 0.0, engine)
