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

Each engine and each witness is a record of one table, ENGINES and
WITNESSES, holding all that differs between them: no code tests its name.

The six scalar witnesses also take a grid spec (states.StateSpec over an
array of parameters), or a stack of grid specs of one family over one
parameter array (states.as_stack), on either engine, and then return the
whole series as an ndarray: over a stack, its columns spec by spec, then
point by point, from one moment table and one witness body for the whole
stack. One state is a grid of one, and a grid spec a stack of one: every
body computes on 1-d arrays over the table's states (a one-state table's
entries become one-element arrays), so a state's value equals its column
of any grid or stack bit for bit, and each public function converts its
result once, at return. A guard that raises for one state gives NaN at its
points of a grid: DegenerateState (an annihilated state, states.annihilated
on either engine, whose moments are all NaN) and SingularDenominator
(agarwal_tara). ZeroMeanPhoton (mandel_q of the vacuum, states.vacuum on
either engine) still fails the whole grid or stack, and OutOfRange (a
mandel_q mean below the normal floats, 0 too where the state is not the
vacuum, or hos sums past the float range) and OddOrder still raise.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from . import oracle as oracle_mod
from . import states as states_mod
from .errors import EmptyWindow, OddOrder, OutOfRange, SingularDenominator, ZeroMeanPhoton
from .records import FrozenRecord
from .specfun import normal_order, quadrature_power_coeffs
from .states import MomentTable, StateSpec

VARIANT_NUMBER_MOMENTS = "number_moments"
VARIANT_POWER_OF_MEAN = "power_of_mean"
VARIANTS = (VARIANT_NUMBER_MOMENTS, VARIANT_POWER_OF_MEAN)

# |det(mu) - det(m)| below this times the moments' scale is reported as
# indeterminate
SINGULAR_EPSILON = 1e-12

# a Husimi grid point whose Q is below this times the grid maximum is a zero
ZERO_THRESHOLD = 1e-6


class Witness(FrozenRecord):
    """One witness: all that differs between witnesses. pairs and body, a
    moment witness's, look their function up at call time, as Engine's do."""

    reads: str  # its one argument besides state and engine: order "l", photon number "m", "variant" or "grid"
    largest_order: float = math.inf  # the last order whose exact coefficients are floats (_check_order)
    pairs: Callable | None = None  # order -> the pairs (m, n) of the moments <a'^m a^n> it reads
    body: Callable | None = None  # (table, order or variant) -> its value over the table's states


# Coefficients that grow with l cap mandel (Stirling numbers S2(r, n), r <= l),
# hosps (S2(e, f) C(l, e)) and hos (those of (a + a')^k, k <= l); hos reads every
# (m, n) with m + n <= l, as each has a positive coefficient in (a + a')^(m + n).
WITNESSES = {
    "mandel": Witness("l", 219, lambda l: tuple((n, n) for n in range(l + 1)), lambda t, l: mandel_q(t, l)),
    "hoa": Witness("l", math.inf, lambda l: ((1, 1), (l, l)), lambda t, l: hoa(t, l)),
    "hosps": Witness("l", 218, lambda l: tuple((n, n) for n in range(1, l + 1)), lambda t, l: hosps(t, l)),
    "hos": Witness("l", 291, lambda l: tuple((m, n) for m in range(l + 1) for n in range(l + 1 - m)),
                   lambda t, l: hos(t, l)),
    "klyshko": Witness("m"),
    "agarwal_tara": Witness("variant", math.inf, lambda order: tuple((n, n) for n in range(5)),
                            lambda t, variant: agarwal_tara(t, variant)),
    "husimi_zero": Witness("grid"),
}

# 2^(k/2), k <= hos's largest order, complex as numpy converts it against a
# quadrature sum: <X^k> is <(a + a')^k> over it
_QUADRATURE_SCALES = np.array([[2 ** (k / 2.0)] for k in range(WITNESSES["hos"].largest_order + 1)], dtype=complex)


class Engine(FrozenRecord):
    """One engine: every fact that differs from one engine to another. Each
    field looks the module function it calls up at call time, so a patched
    or traced one is the one called."""

    name: str  # the CLI --engine choice and a WitnessResult's provenance
    moment_table: Callable  # (spec or stack, pairs, tail_tol) -> a MomentTable holding the pairs
    photon_probs: Callable  # (spec or stack, photon numbers, tail_tol) -> p_m: (M,) for one state, else (M, columns)
    husimi: Callable  # (spec or stack, betas, tail_tol) -> Q: betas' shape for one state, else (*shape, columns)


def _oracle_moment_table(spec, pairs, tail_tol: float) -> MomentTable:
    """An oracle basis admits the pairs and holds the tail of <a'^n a^n>
    for the largest n = (m + n) // 2 over them (l/2 for hos(l)); a stack's
    states, grown at once, are one list, spec by spec."""
    order = max(((m + n) // 2 for m, n in pairs), default=0)
    states = oracle_mod.truncated_states(spec, tail_tol, order)
    return oracle_mod.moment_table_from_state(states, pairs, lambda: states_mod.vacuum(spec))


def _oracle_photon_probs(spec, numbers, tail_tol: float) -> np.ndarray:
    """One state's p_m, or a grid's or stack's as columns, NaN where a state
    is None (annihilated). The basis holds more than m + p levels, p the
    stack's largest: every level m read, the bare level it comes from (m +
    p - q) and the level a^p lowers it from (m + p), or CutoffExceeded."""
    reach = int(np.max(numbers)) + max(one.op.p for one in states_mod.as_stack(spec)) + 1
    return oracle_mod.oracle_photon_prob(oracle_mod.truncated_states(spec, tail_tol, min_cutoff=reach), numbers)


def _oracle_husimi(spec, betas, tail_tol: float) -> np.ndarray:
    """An oracle basis holds every |beta|^2 well inside its cutoff; a reach
    past the hard limit is refused by the build (CutoffExceeded)."""
    betas = states_mod.amplitudes(betas)
    # a |beta|^2 past the largest float is inf
    with np.errstate(over="ignore"):
        top = 4 * float(np.max(np.abs(betas) ** 2))
    reach = int(min(top, oracle_mod.max_cutoff())) + 8
    return oracle_mod.oracle_husimi(oracle_mod.truncated_states(spec, tail_tol, min_cutoff=reach), betas)


ENGINES = {engine.name: engine for engine in (
    Engine("analytic",
           moment_table=lambda spec, pairs, tail_tol: MomentTable.analytic(spec, pairs),
           photon_probs=lambda spec, numbers, tail_tol: states_mod.photon_prob(spec, numbers),
           husimi=lambda spec, betas, tail_tol: states_mod.husimi(spec, betas)),
    Engine("oracle", _oracle_moment_table, _oracle_photon_probs, _oracle_husimi),
)}


def engines(engine: str) -> tuple[Engine, ...]:
    """The engines an engine choice runs, in order: one of ENGINES, or
    "both" for the analytic then the oracle. The first one's value is the
    one reported; under "both" the oracle's is its reference (oracle.deviation)."""
    return tuple(ENGINES.values()) if engine == "both" else (_engine(engine),)


def _engine(name: str) -> Engine:
    """The record of a route's one engine; a name outside ENGINES, "both" too, raises."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}")
    return ENGINES[name]


class WitnessResult(FrozenRecord):
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
    ascending: the Stirling numbers of the second kind, each power the
    previous one times a'a."""
    if r == 0:
        return normal_order(())
    return normal_order((_number_power(r - 1), ((1, 1, 1),)))


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
    _check_order("mandel", l)
    mean = _mean_photon(table)
    # the vacuum anywhere on a grid fails the whole series, as does any
    # other state whose mean is below the normal floats (0 too, where it
    # underflows): it has lost its precision
    zero = mean == 0.0
    if zero.any() and np.any(zero & table.vacuum()):
        raise ZeroMeanPhoton("mandel_q is undefined for a zero-mean-photon state")
    if np.any((mean >= 0.0) & (mean < np.finfo(float).tiny)):
        raise OutOfRange("mandel_q divides by a mean photon number below the float range")
    return _unwrap(_central_number_moment(table, l) / mean - 1.0, table.get(1, 1))


def hoa(table: MomentTable, l: int = 2):
    """Higher-order antibunching d^(l-1) = <a'^l a^l> - <a'a>^l."""
    _check_order("hoa", l)
    return _unwrap(_entry(table, l, l).real - _mean_photon(table) ** l, table.get(1, 1))


def hosps(table: MomentTable, l: int = 2):
    """Higher-order sub-Poissonian statistics D^(l-1).

    Combinatorial form of <(dn)^l> minus the same-mean Poissonian central
    moment: sum_{e,f} S2(e,f) C(l,e) (-1)^(l-e) d^(f-1) <n>^(l-e). This is
    the sign under which the criterion means "below Poissonian". The
    paper's printed (-1)^e sign gives (-1)^l times this, which the oracle's
    direct definition rules out at odd l (verify's hosps_gate).
    """
    _check_order("hosps", l)
    mean = _mean_photon(table)
    # mean^j and d_f = <a'^f a^f> - mean^f, each computed once
    powers = [mean ** j for j in range(l + 1)]
    d = [None] + [_entry(table, f, f).real - powers[f] for f in range(1, l + 1)]
    total = 0.0
    for e in range(1, l + 1):
        for f, _, s2 in _number_power(e):
            total += s2 * math.comb(l, e) * (-1) ** (l - e) * d[f] * powers[l - e]
    return _unwrap(total, table.get(1, 1))


@lru_cache(maxsize=None)
def _quadrature_row(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The terms of (a + a')^k, in the order quadrature_power_coeffs gives
    them: the row of each term's pair (j, m) in hos's moment stack, whose
    pairs run by degree d = j + m and then by j, so that the row,
    d(d+1)/2 + j, is the same at every order; and its coefficient as the
    complex double it rounds to, the type numpy converts it to against a
    complex moment, so that no call converts it again."""
    terms = quadrature_power_coeffs(k)
    rows = np.array([(j + m) * (j + m + 1) // 2 + j for j, m, _ in terms])
    coeffs = np.array([float(c) for _, _, c in terms], dtype=complex)[:, None]
    for array in (rows, coeffs):
        array.flags.writeable = False  # every caller shares the cached arrays
    return rows, coeffs


def hos(table: MomentTable, l: int = 2):
    """Hong-Mandel squeezing S^(l) of the quadrature X = (a + a')/sqrt(2).

    S^(l) = [<(dX)^l> - (1/2)_(l/2)] / (1/2)_(l/2) with (1/2)_(l/2) equal to
    (l-1)!!/2^(l/2); coherent states saturate S^(l) = 0. Quadrature moments
    come from the exact normal-ordered expansion of (a + a')^k.
    """
    _check_order("hos", l)
    if l % 2:
        raise OddOrder("hos is defined for even order only")
    # each pair read once, by degree, as one row of a stack over the table's states
    raw = {(j, d - j): table.get(j, d - j) for d in range(l + 1) for j in range(d + 1)}
    moments = np.array(list(raw.values()), dtype=complex).reshape(len(raw), -1)
    # Each k's terms are stacked and added from 0 in expansion order, the
    # loop's sum bit for bit. numpy adds along the contiguous axis pairwise,
    # so the stack is read as floats: the term axis is then never the
    # contiguous one, not even for one state, and a complex add is the add
    # of its real and imaginary parts.
    sums = []
    # a sum past the float range is inf or nan, tested below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(l + 1):
            rows, coeffs = _quadrature_row(k)
            sums.append(np.add.reduce((coeffs * moments.take(rows, axis=0)).view(np.float64),
                                      axis=0, initial=0.0))
        quad = (np.array(sums).view(complex) / _QUADRATURE_SCALES[:l + 1]).real
        central = 0.0
        for k in range(l + 1):
            central += math.comb(l, k) * (-quad[1]) ** (l - k) * quad[k]
        # the (0,0) term of (a + a')^l, (l-1)!!
        reference = math.prod(range(1, l, 2)) / 2 ** (l / 2.0)
        value = (central - reference) / reference
    # a NaN gap, whose moments are NaN, stays a gap
    if not np.isfinite(value[np.isfinite(moments).all(axis=0)]).all():
        raise OutOfRange(f"the quadrature sums of hos at order {l} exceed the float range")
    return _unwrap(value, raw[1, 1])


def agarwal_tara(table: MomentTable, variant: str | None = VARIANT_NUMBER_MOMENTS):
    """Determinant-ratio witness A3 = det(m) / (det(mu) - det(m)).

    m is the 3x3 Hankel matrix of factorial moments m_k = <a'^k a^k>. The
    default variant (or None) takes mu_k = <(a'a)^k>; power_of_mean takes
    mu_k = m_1^k, which makes mu rank one and det(mu) = 0 for every state.
    Where the denominator vanishes against the moments' scale the witness
    is indeterminate: SingularDenominator for one state, NaN on a grid.
    """
    if variant not in (None, *VARIANTS):
        raise ValueError(f"unknown agarwal_tara variant {variant!r}")
    m = [1.0] + [_entry(table, k, k).real for k in range(1, 5)]
    if variant == VARIANT_POWER_OF_MEAN:
        mu = [m[1] ** k for k in range(5)]
    else:
        mu = [1.0] + [_number_moment(table, k) for k in range(1, 5)]
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


def klyshko(
    spec,
    m: int,
    engine: str = "analytic",
    tail_tol: float = oracle_mod.DEFAULT_TAIL_TOL,
):
    """Klyshko indicator B(m) = (m+2) p_m p_{m+2} - (m+1) p_{m+1}^2, of
    one state, a grid spec or a stack of them."""
    m = states_mod.integer(m, "a photon number")
    if m < 0:
        raise ValueError("photon number must be non-negative")
    run = _engine(engine)
    # exact integers, as Python ints past int64 (np.arange and np.array
    # round some of them to floats there)
    numbers = np.array([m, m + 1, m + 2], dtype=np.int64 if m + 2 < 2 ** 63 else object)
    # rows p_m, p_(m+1), p_(m+2), columns the states
    values = klyshko_from_probs(m, *run.photon_probs(spec, numbers, tail_tol).reshape(3, -1))
    return _unwrap(values, spec.parameter if isinstance(spec, StateSpec) else values)


def klyshko_from_probs(m: int, p_m: float, p_m1: float, p_m2: float) -> float:
    """B(m) from the probabilities p_m, p_{m+1}, p_{m+2} of any distribution."""
    return (m + 2) * p_m * p_m2 - (m + 1) * p_m1 ** 2


def linspace(lo: float, hi: float, steps: int) -> list[float]:
    """lo + i (hi - lo) / (steps - 1) for i < steps: a sweep's parameter
    grid and a scan grid's axes."""
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


class ScanGrid(FrozenRecord):
    """Rectangular grid in the complex beta plane, steps points per axis."""

    re_min: float = -4.0
    re_max: float = 4.0
    im_min: float = -4.0
    im_max: float = 4.0
    steps: int = 81

    def _check(self) -> None:
        if states_mod.integer(self.steps, "a grid's steps") < 2:
            raise ValueError("grid needs at least 2 steps per axis")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid bounds must be well ordered")

    def axes(self) -> tuple[list[float], list[float]]:
        """(re values, im values), each linspace over its bounds."""
        return (linspace(self.re_min, self.re_max, self.steps),
                linspace(self.im_min, self.im_max, self.steps))

    def betas(self) -> np.ndarray:
        """The grid points as one array: rows scan Im(beta), columns Re(beta)."""
        re_axis, im_axis = map(np.array, self.axes())
        return re_axis[None, :] + 1j * im_axis[:, None]

    def points(self):
        """Row-major grid points (imaginary part varies slowest)."""
        return iter(self.betas().ravel().tolist())


def _relative_husimi(spec, grid, engine: Engine, tail_tol) -> np.ndarray:
    """Q of one state (a grid spec or a stack raises ValueError) over its
    grid maximum, row-major, from one call on the engine.

    Raises EmptyWindow where Q is 0 at every point (a cat whose amplitude
    puts it outside the window): no point can then be told from a zero.
    """
    if not isinstance(spec, StateSpec) or isinstance(spec.parameter, np.ndarray):
        raise ValueError("a Husimi zero scan takes one state, not a grid spec or a stack")
    values = engine.husimi(spec, grid.betas(), tail_tol).ravel()
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
    engine: str = "analytic",
    tail_tol: float = oracle_mod.DEFAULT_TAIL_TOL,
) -> list[complex]:
    """Grid points where Q falls below ZERO_THRESHOLD times the grid maximum.

    The threshold is relative to the grid maximum because Q magnitudes vary
    by orders of magnitude between states. Deterministic row-major order.
    A window on which Q is 0 everywhere raises EmptyWindow.
    """
    grid = grid or ScanGrid()
    relative = _relative_husimi(spec, grid, _engine(engine), tail_tol)
    return [beta for beta, r in zip(grid.points(), relative) if r < ZERO_THRESHOLD]


# ---------------------------------------------------------------------------
# Uniform entry point
# ---------------------------------------------------------------------------

def witness_order(witness: str, order: int | None = None) -> int:
    """The order a witness reports: order, 2 where None, for a witness that
    reads l or m (its record's reads), and 0 for the others, which accept
    no other. An unknown witness or a non-integer order raises ValueError."""
    if witness not in WITNESSES:
        raise ValueError(f"unknown witness {witness!r}")
    if WITNESSES[witness].reads in ("l", "m"):
        return 2 if order is None else states_mod.integer(order, f"the order of {witness}")
    if order not in (None, 0):
        raise ValueError(f"{witness} takes no order other than 0 (got {order!r})")
    return 0


def _check_order(witness: str, order: int) -> int:
    """The order as an int; one that is not an integer or an l below 2
    raises ValueError, and one past largest_order OutOfRange."""
    record = WITNESSES[witness]
    order = states_mod.integer(order, f"the order of {witness}")
    if record.reads == "l" and order < 2:
        raise ValueError(f"{witness} requires l >= 2")
    if order > record.largest_order:
        raise OutOfRange(f"the coefficients of {witness} at order {order} exceed the float range "
                         f"(its largest order is {record.largest_order})")
    return order


@lru_cache(maxsize=None)
def moment_pairs(witness: str, order: int) -> tuple[tuple[int, int], ...]:
    """A moment witness's pairs (m, n) of <a'^m a^n> at an order in its bounds (_check_order)."""
    return WITNESSES[witness].pairs(_check_order(witness, order))


def table_witness(table: MomentTable, witness: str, order: int, variant: str | None = None):
    """A moment witness over a table: its record's body at its variant,
    where it reads one (agarwal_tara's default where None), else at its order."""
    record = WITNESSES[witness]
    return record.body(table, variant if record.reads == "variant" else order)


def evaluate_witness(
    spec,
    witness: str,
    order: int | None = None,
    variant: str | None = None,
    engine: str = "analytic",
    grid: ScanGrid | None = None,
    tail_tol: float = oracle_mod.DEFAULT_TAIL_TOL,
) -> WitnessResult:
    """Evaluate one witness for one state and wrap the outcome.

    The witness reads the one argument its record's reads names: order as
    witness_order gives it, variant and grid with agarwal_tara's and
    husimi_zero_scan's defaults. Any other argument given raises ValueError.

    For a grid spec, value and nonclassical are arrays over the grid, NaN
    and False at its gaps; for a stack of grid specs (states.as_stack),
    arrays over its columns, spec by spec, from one moment table (one
    contraction, or one oracle growth and gather, for the whole stack).
    husimi_zero takes one state only (_relative_husimi).
    """
    order = witness_order(witness, order)
    reads = WITNESSES[witness].reads
    for name, given in (("variant", variant), ("grid", grid)):
        if given is not None and name != reads:
            raise ValueError(f"{witness} takes no {name}")
    if reads == "grid":
        # the husimi_zero_scan rule: some point lies below the threshold
        rel_min = float(_relative_husimi(spec, grid or ScanGrid(), _engine(engine), tail_tol).min())
        return WitnessResult(witness, order, rel_min, rel_min < ZERO_THRESHOLD, engine)
    if reads == "m":
        value = klyshko(spec, order, engine, tail_tol)
    else:
        table = _engine(engine).moment_table(spec, moment_pairs(witness, order), tail_tol)
        value = table_witness(table, witness, order, variant)
    return WitnessResult(witness, order, value, value < 0.0, engine)
