"""Engineered thermal and even-coherent states and their closed-form moments.

Two photon-number engineering operations act on a base state:

* add-then-subtract: a^p a'^q  (add q photons, then subtract p)
* subtract-then-add: a'^q a^p  (subtract p photons, then add q)

Every normalized moment <a'^m a^n> of either family comes from one finite
contraction: specfun.normal_order, the package's one normal-ordering
route, gives O' a'^m a^n O as terms c a'^M a^N with exact integer c (cached
per operation and (m, n)). Each such product is one sandwich
S(q, A, B) = a^q a'^A a^B a'^q: S(q, p + m, p + n) for a^p a'^q, and
a'^p S(q, m, n) a^p for a'^q a^p; S(q, B, A) is S(q, A, B) with M and N
swapped, so each sandwich and its adjoint are normal-ordered once for
every operation and pair that reduce to them. Each term takes the bare
state's normally ordered moment, delta_MN M! rbar^M for the thermal state
and a four-term coherent-state contraction for the even coherent state
(|alpha> + |-alpha>, normalized). Thermal moments are thus ratios of
integer polynomials in rbar. Both orders send Fock level k = m + p - q to a
multiple of |m>, so the photon-number probability p_m of either family is
the bare state's weight of level k times one integer polynomial W(m); this
makes the thermal Husimi Q a Gaussian times a finite polynomial. The cat
Husimi Q sums the coherent-state matrix elements of O over its normal form,
from the same kernel. No infinite series is summed.

Each family is one Family record, FAMILY_THERMAL or FAMILY_EVEN_COHERENT
(FAMILIES, by name), which holds every fact that differs between families;
no other code tests a family's name. The brute-force oracle keeps its own
bare-state builders and reads only a record's `diagonal` flag, so that it
stays an independent check.

Every normalized quantity divides by the state's own unnormalized (0,0)
expectation, so normalization is exact by construction and is cross-checked
against the brute-force oracle in the test suite.

A set of pairs (m, n) is one contraction call (moment with two order
arrays; MomentTable fills the pairs its witness reads that way), in one
term loop for both families, _contract. A family's `factors` body gathers
the cached terms of every pair into padded arrays and gives its factor
tables, each power of the parameter taken once, in its own multiply order,
and an optional per-term fallback (the thermal log-space redo). The loop
sums one term slice at a time, each pair's terms in table order, so each
value is the one a call for that pair alone gives, bit for bit.

A spec may also hold a 1-d array of parameters: one operation over a grid
of states. Inside this module one state is a grid of one point: the family
bodies, the contraction, the norm and the photon-number probabilities
compute on parameter arrays only, so a state gives the same value, bit for
bit, as its column of any grid. The public functions unwrap a one-state
result at their boundary (_unwrap): a Python number, or an array without
the grid axis. The norm is NaN exactly where the state is annihilated
(annihilated: parameter 0, an operation that removes the vacuum; the one
rule of both engines), and raises OutOfRange below the normal floats
anywhere else. Over a grid the values are NaN at the annihilated points,
and one state raises DegenerateState instead.

A grid spec is in turn a stack of one: moment takes a stack, a sequence of
grid specs of one family over one parameter array (as_stack), and
contracts all of it in the same one call, one row per (pair, spec) of the
padded arrays, so the operations of a sweep panel or of a verify family
cost one term loop. Its columns run spec by spec, then point by point, and
each is the value of its spec's own call, bit for bit. Each spec keeps its
own norm, from its own (0,0) row.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
import sys
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from .errors import DegenerateState, OutOfRange
from .records import FrozenRecord

# Engineering orders beyond this are rejected at construction time.
MAX_ENGINEERING_ORDER = 8

# the normal float range
_TINY = sys.float_info.min
_HUGE = sys.float_info.max

ORDER_NONE = "none"
ORDER_ADD_THEN_SUBTRACT = "add_then_subtract"
ORDER_SUBTRACT_THEN_ADD = "subtract_then_add"

# the grammar EngineeringOp.label() and StateSpec.canonical() print, read back
_LABEL = re.compile(r"(PAS|PSA)\(([0-9]+)[,:;]([0-9]+)\)", re.IGNORECASE)
_CANONICAL = re.compile(r"(\w+)\((\w+)=([^|]*)\)\|(.*)")


def integer(value, what: str) -> int:
    """value as an int (operator.index: an int or a numpy integer, never a
    float); anything else raises ValueError naming what it is."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer (got {value!r})") from None


class EngineeringOp(FrozenRecord):
    """Photon engineering operation: none, a^p a'^q, or a'^q a^p.

    p counts subtracted photons, q added photons. An operation is a cache
    key of every contraction table, so it computes its hash once.
    """

    order: str
    p: int
    q: int

    def __init__(self, order: str = ORDER_NONE, p: int = 0, q: int = 0):
        if order not in (ORDER_NONE, ORDER_ADD_THEN_SUBTRACT, ORDER_SUBTRACT_THEN_ADD):
            raise ValueError(f"unknown engineering order {order!r}")
        p, q = integer(p, "a photon count"), integer(q, "a photon count")
        if p < 0 or q < 0:
            raise ValueError("photon counts must be non-negative")
        if order == ORDER_NONE and (p or q):
            raise ValueError("order 'none' requires p = q = 0")
        if p > MAX_ENGINEERING_ORDER or q > MAX_ENGINEERING_ORDER:
            raise ValueError(f"p, q are capped at {MAX_ENGINEERING_ORDER}")
        fields = self.__dict__
        fields["order"], fields["p"], fields["q"] = order, p, q
        fields["_hash"] = hash((order, p, q))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.order == other.order and self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields, so that a pickle from another process
        # (another string hash) hashes as this one's does
        return EngineeringOp, (self.order, self.p, self.q)

    @classmethod
    def bare(cls) -> "EngineeringOp":
        return cls(ORDER_NONE, 0, 0)

    @classmethod
    def pas(cls, p: int, q: int) -> "EngineeringOp":
        """Photon-added-then-subtracted: apply a'^q first, then a^p."""
        return cls(ORDER_ADD_THEN_SUBTRACT, p, q)

    @classmethod
    def psa(cls, p: int, q: int) -> "EngineeringOp":
        """Photon-subtracted-then-added: apply a^p first, then a'^q."""
        return cls(ORDER_SUBTRACT_THEN_ADD, p, q)

    def label(self) -> str:
        """Canonical variant label used in CSV headers and fixtures."""
        if self.order == ORDER_NONE:
            return "bare"
        tag = "PAS" if self.order == ORDER_ADD_THEN_SUBTRACT else "PSA"
        return f"{tag}({self.p},{self.q})"

    @classmethod
    def from_label(cls, label: str) -> "EngineeringOp":
        """Inverse of label(): 'bare' or PAS(p,q) / PSA(p,q).

        The separator may also be ':' or ';', and the tag may be in any case.
        """
        if label == "bare":
            return cls.bare()
        match = _LABEL.fullmatch(label)
        if match is None:
            raise ValueError(
                f"cannot parse variant label {label!r}: expected bare, PAS(p,q) or PSA(p,q)"
            )
        tag, p, q = match.groups()
        return (cls.pas if tag.upper() == "PAS" else cls.psa)(int(p), int(q))


def _finite(x):
    """Whether x is finite: a bool, or a bool array over a grid."""
    return np.isfinite(x) if isinstance(x, np.ndarray) else cmath.isfinite(x)


def _all(condition) -> bool:
    """A condition on a parameter, held at every point of a grid."""
    return bool(condition.all()) if isinstance(condition, np.ndarray) else condition


def _parameter(value, kind):
    """value as a `kind` number, or a 1-d array as a read-only `kind` array:
    the parameter of one state or of a grid of states."""
    if isinstance(value, np.ndarray) and value.ndim:
        value = value.astype(kind)
        value.flags.writeable = False
        return value
    return kind(value)


def _unwrap(spec: "StateSpec", value, kind: type):
    """A result over spec's grid (its last axis) as a public function
    returns it: as is for a grid spec; for one state the values of its one
    point, a `kind` number where no axis is left, or DegenerateState where
    the operation annihilates the state (its norm is NaN)."""
    if isinstance(spec.parameter, np.ndarray):
        return value
    if math.isnan(spec._norm[0]):
        raise DegenerateState(f"{spec.canonical()} is annihilated")
    value = value[..., 0]
    return kind(value) if value.ndim == 0 else value


def _fmt(z) -> str:
    """Shortest round-trip text of a parameter; a real one prints as its float repr."""
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


class Family(FrozenRecord):
    """One state family: every fact that differs from one family to another.

    Records compare and hash by identity. Each body takes the spec, whose
    `_points` hold its parameters as a 1-d array (one point for one state)
    and whose `_constants` keep what `constants` derives from them. Every
    body but `husimi` computes over those points: `factors` gives tables
    with one column per point, which _contract sums into one row per pair
    of a stack (as_stack), one column per spec and point; a level weight
    gives one row per photon number, with one column per point. `husimi`
    takes one point's parameter, as a Python number, over an array of beta.
    """

    name: str  # the CLI --family choice and the head of canonical()
    parameter: str  # the name of the family's one parameter
    kind: type  # float or complex
    valid: Callable  # the parameter's domain: a bool, or a bool array over a grid
    domain: str  # the ValueError text outside it
    window: tuple[float, float]  # the plotted sweep window
    diagonal: bool  # Fock-diagonal, as both engineering orders keep it
    constants: Callable  # parameters -> what the bodies read, once per spec over its points
    factors: Callable  # (stack, pairs) -> their _Terms, factor tables and fallback: see _contract
    level_weight: Callable  # (spec, photon numbers m, their W(m)) -> photon_prob times the norm, (M, G)
    husimi: Callable  # (one point's parameter, operation, beta) -> husimi times pi and the norm

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"<family {self.name}>"

    def __reduce__(self):
        # a copied or unpickled record is the record itself
        return _family, (self.name,)


class StateSpec(FrozenRecord):
    """Single input handle for every computation: family, parameter, operation.

    The family is a Family record. The parameter is its one parameter (rbar
    or alpha) as the family's kind: a number, or a 1-d array for a grid spec:
    the states of one operation over a parameter grid, which the moment
    layer evaluates in one array call (see MomentTable). A spec keeps what
    it derives from them (its cached properties) in its __dict__.
    """

    family: Family
    parameter: object
    op: EngineeringOp

    def __init__(self, family: Family, parameter, op: EngineeringOp = EngineeringOp.bare()):
        if not isinstance(family, Family):
            raise ValueError(f"unknown family {family!r}")
        parameter = _parameter(parameter, family.kind)
        if not _all(family.valid(parameter)):
            raise ValueError(family.domain)
        fields = self.__dict__
        fields["family"], fields["parameter"], fields["op"] = family, parameter, op

    @classmethod
    def thermal(cls, rbar: float, op: EngineeringOp | None = None) -> "StateSpec":
        return cls.of(FAMILY_THERMAL, rbar, op)

    @classmethod
    def even_coherent(cls, alpha: complex, op: EngineeringOp | None = None) -> "StateSpec":
        return cls.of(FAMILY_EVEN_COHERENT, alpha, op)

    @classmethod
    def of(cls, family: Family, value, op: EngineeringOp | None = None) -> "StateSpec":
        """The spec of a family from its one parameter (a 1-d array of them
        for a grid spec); ValueError for anything but a Family record."""
        return cls(family, value, op or EngineeringOp.bare())

    @classmethod
    def from_canonical(cls, text: str) -> "StateSpec":
        """Inverse of canonical(), e.g. 'thermal(rbar=1.0)|PAS(2,1)'."""
        match = _CANONICAL.fullmatch(text)
        family = match and FAMILIES.get(match[1])
        if family is None or match[2] != family.parameter:
            raise ValueError(f"cannot parse canonical spec {text!r}")
        op = EngineeringOp.from_label(match[4])
        return cls.of(family, family.kind(match[3]), op)

    # Derived once per spec and kept on it: every entry of a MomentTable and
    # every photon_prob divides by the norm, and every contraction term reads
    # the family's constants, so a table computes each once.
    @cached_property
    def _points(self) -> np.ndarray:
        """The parameters as a 1-d array: a grid of one for one state."""
        return np.atleast_1d(self.parameter)

    @cached_property
    def _norm(self):
        return _norm(self)

    @cached_property
    def _constants(self):
        return self.family.constants(self._points)

    def canonical(self) -> str:
        """Deterministic string identity, used in fixture records."""
        family = self.family
        return f"{family.name}({family.parameter}={_fmt(self.parameter)})|{self.op.label()}"


# ---------------------------------------------------------------------------
# Moments: one normal-ordering contraction for both families
# ---------------------------------------------------------------------------

def _word(op: EngineeringOp) -> tuple:
    """O = op as a word of specfun.normal_order: a'^q a^p subtracts then
    adds, a^p a'^q adds then subtracts (bare is its p = q = 0 case)."""
    if op.order == ORDER_SUBTRACT_THEN_ADD:
        return (((op.q, op.p, 1),),)
    return (((0, op.p, 1),), ((op.q, 0, 1),))


@lru_cache(maxsize=None)
def _sandwich(q: int, A: int, B: int) -> tuple[tuple[int, int, int], ...]:
    """S(q, A, B): the exact terms (M, N, c) of a^q a'^A a^B a'^q =
    sum c a'^M a^N, M ascending, the normal form of that word. Every term
    has M - N = A - B."""
    return specfun.normal_order((((0, q, 1),), ((A, B, 1),), ((q, 0, 1),)))


@lru_cache(maxsize=None)
def _contraction_table(op: EngineeringOp, m: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """Exact terms (M, N, c) of O' a'^m a^n O = sum c a'^M a^N, for O = op,
    M ascending. Every term has M - N = m - n.

    Each is one sandwich S(q, A, B) = a^q a'^A a^B a'^q (_sandwich): for
    a^p a'^q it is S(q, p + m, p + n), and for a'^q a^p it is
    a'^p S(q, m, n) a^p, S's terms with M and N each raised by p.
    S(q, B, A) is the adjoint of S(q, A, B), its terms with M and N
    swapped, so only A <= B is normal-ordered; as M - N is fixed, a swap
    or a shift keeps M ascending."""
    if op.order == ORDER_SUBTRACT_THEN_ADD:
        A, B, shift = m, n, op.p
    else:
        A, B, shift = op.p + m, op.p + n, 0
    if A > B:
        return tuple([(N + shift, M + shift, c) for M, N, c in _sandwich(op.q, B, A)])
    if shift:
        return tuple([(M + shift, N + shift, c) for M, N, c in _sandwich(op.q, A, B)])
    return _sandwich(op.q, A, B)


def _ecs_pair_weights(alpha) -> tuple[np.ndarray, np.ndarray]:
    """2 (1 + e) and 2 (1 - e), e = <alpha|-alpha> = exp(-2|alpha|^2): the
    weights of the even-M and odd-M terms of _ecs_factors. 1 - e goes
    through expm1, so that it keeps full precision at small |alpha|. Where
    |alpha|^2 leaves the float range (|alpha| > ~1.3e154) both are inf, so
    that the norm is out of range there."""
    a2 = abs(alpha) ** 2
    weights = 2.0 + 2.0 * np.exp(-2.0 * a2), -2.0 * np.expm1(-2.0 * a2)
    return tuple(np.where(a2 < math.inf, weight, math.inf) for weight in weights)


@lru_cache(maxsize=None)
def _lowest_power(op: EngineeringOp) -> int:
    """k0, the lowest power of rbar in a thermal norm: the lowest bare Fock
    level the operation does not annihilate."""
    return min(dag for dag, _, _ in _contraction_table(op, 0, 0))


def _same_parity(m: int, n: int) -> bool:
    return (m - n) % 2 == 0


class _Terms(NamedTuple):
    """The terms of a stack's pair set, padded and term-major. Row
    r = i S + s is pair i of the stack's operation s; `rows` lists the rows
    that have terms, and entry [t, j] of each padded array is term t of row
    rows[j]. Every other row sums to 0. For each key function of the family
    (a term's power of one factor), `distinct` holds the distinct keys of
    the terms, ascending, and `index` each term's place in them, one (R,)
    row per term slot t; a row with fewer terms pads with terms whose index
    is one past the end of each and whose weight is 0."""

    rows: np.ndarray  # the rows that have terms, ascending
    distinct: tuple  # per key function, the distinct keys, ascending
    index: tuple  # per key function, the places of the terms' keys in them, T rows of (R,)
    weight: np.ndarray  # the terms' weights as floats, inf past the float range, (T, R, 1)
    terms: tuple  # the terms (M, N, c) of the rows, row by row, unpadded
    places: tuple  # their places [t, j] in the padded arrays, two index arrays
    log_top: float  # log(max c) + lgamma(max M + 1), at least every log c M!
    diagonal: np.ndarray  # the indices i of the pairs with m = n


@lru_cache(maxsize=None)
def _padded(ops: tuple, pairs: tuple, keep: Callable, weigh: Callable, keys: tuple) -> _Terms:
    """Each row's _contraction_table where keep(m, n) holds, else no terms,
    as _Terms with the weights weigh(terms) and, for each function of
    keys, the key of each term, key(op, table) giving those of one row's.
    The rows run pair by pair, then operation by operation; the rows with
    terms are kept, each in its table's order. Every term of a table has
    M - N = m - n, so a family that drops terms by the parity or the
    difference of M and N drops whole tables. Cached, as every stack of a
    family and operations that reads the same pairs shares them, so its
    arrays are read-only."""
    tables = [_contraction_table(op, m, n) if keep(m, n) else () for m, n in pairs for op in ops]
    rows = [r for r, table in enumerate(tables) if table]
    tables, row_ops = [tables[r] for r in rows], [ops[r % len(ops)] for r in rows]
    terms = tuple(term for table in tables for term in table)
    # each term's place: its position in its row's table, and its row
    places = (np.array([t for table in tables for t in range(len(table))], dtype=np.intp),
              np.array([j for j, table in enumerate(tables) for _ in table], dtype=np.intp))
    shape = (max(map(len, tables), default=0), len(tables))

    def padded(values: np.ndarray, fill) -> np.ndarray:
        array = np.full(shape, fill, dtype=values.dtype)
        array[places] = values
        array.flags.writeable = False
        return array

    distinct, index = [], []
    for key in keys:
        values = [value for table, op in zip(tables, row_ops) for value in key(op, table)]
        distinct.append(tuple(sorted(set(values))))
        position = {value: j for j, value in enumerate(distinct[-1])}
        index.append(tuple(padded(np.array([position[value] for value in values], dtype=np.intp), len(position))))
    weight = padded(np.array(weigh(terms), dtype=float), 0.0)[..., None]
    log_top = (math.log(max(map(operator.itemgetter(2), terms), default=1))
               + math.lgamma(max(map(operator.itemgetter(0), terms), default=0) + 1))
    diagonal = np.array([i for i, (m, n) in enumerate(pairs) if m == n], dtype=np.intp)
    return _Terms(np.array(rows, dtype=np.intp), tuple(distinct), tuple(index), weight, terms, places, log_top,
                  diagonal)


# the factorials that are floats, 0! to 170!, and the least integer that
# float() rounds past the largest float
_FACTORIALS = [math.factorial(k) for k in range(171)]
_FLOAT_END = 2 ** 1024 - 2 ** 970


def _thermal_weights(terms) -> list:
    """c M!, inf where it passes the largest float; no M! past 170! is built."""
    return [w if M <= 170 and (w := c * _FACTORIALS[M]) < _FLOAT_END else math.inf for M, _, c in terms]


def _log(value) -> float:
    return math.log(value) if value > 0 else -math.inf


# exp(-690) and exp(690) are normal floats, the latter 2e11 times below the largest
_LOG_RANGE = 690.0


def _thermal_powers(op: EngineeringOp, table) -> list[tuple[int, int]]:
    """(a, b) = (M - k0, p + q - M) per term: its powers of x and y. b is
    negative past M = p + q, -M on a bare state."""
    k0, top = _lowest_power(op), op.p + op.q
    return [(M - k0, top - M) for M, _, _ in table]


def _thermal_factors(stack: list, pairs):
    """delta_MN M! rbar^M per term, in units of rbar^k0 (1 + rbar)^(p+q)
    of each row's operation: with rbar = x/y, x = rbar/(1+rbar),
    y = 1/(1+rbar), each term is M! x^a y^b, (a, b) = (M-k0, p+q-M), in
    the float range wherever the moment is.

    A term is the product x^a (c M!) y^b, in that order. Where c M!, a
    power or the product leaves the normal float range (c M! past the
    largest float, x^a underflowing at small rbar), the fallback gives the
    exponential of the term's logarithm, which is 0 or inf only where the
    term itself is out of range. Past 170! that logarithm is log c +
    lgamma(M + 1), and no M! is built. The powers of x and y are taken once
    per pair (a, b) of the stack's terms, and where one bound on the
    logarithms of all its terms says none can leave the range there is no
    fallback.
    """
    x, y = stack[0]._constants
    terms = _padded(tuple([one.op for one in stack]), pairs, operator.eq, _thermal_weights, (_thermal_powers,))
    (powers,), (at,) = terms.distinct, terms.index
    # the last row is the padding's, 0
    xs = np.array([x ** a for a, _ in powers] + [0.0 * x])
    ys = np.array([y ** b for _, b in powers] + [0.0 * x])
    factors = ((xs, at), (terms.weight, range(len(at))), (ys, at))
    # |log w x^a y^b| is at most this at every term and point, as
    # w <= exp(log_top) and x, y <= 1; powers ascend, so the last holds the
    # largest a
    a_top = powers[-1][0] if powers else 0
    b_top = max((abs(b) for _, b in powers), default=0)
    if a_top * -_log(x.min()) + b_top * -_log(y.min()) + terms.log_top < _LOG_RANGE:
        return terms, factors, None
    slot = (xs >= _TINY) & (ys >= _TINY) & (ys <= _HUGE)
    log_x, log_y = np.log(x), np.log(y)
    # y > 0, so 0 * log y is the 0 of x^0 at every point
    logs = np.array([(a * log_x if a else 0.0 * log_y) + b * log_y for a, b in powers] + [0.0 * log_y])
    # log c M! of the exact integer where M! is a float; the padding's is -inf
    log_weight = np.full(terms.weight.shape, -math.inf)
    log_weight[terms.places + (0,)] = [_log(c * _FACTORIALS[M]) if M <= 170 else math.log(c) + math.lgamma(M + 1)
                                       for M, _, c in terms.terms]

    def fallback(t: int, term: np.ndarray) -> np.ndarray:
        redo = (terms.weight[t] > 0) & ~(slot.take(at[t], 0) & (term >= _TINY) & (term <= _HUGE))
        return np.where(redo, np.exp(log_weight[t] + logs.take(at[t], 0)), term)

    return terms, factors, fallback


def _ecs_weights(terms) -> list:
    return [c for _, _, c in terms]


def _dag(op: EngineeringOp, table) -> list[int]:
    return [M for M, _, _ in table]


def _plain(op: EngineeringOp, table) -> list[int]:
    return [N for _, N, _ in table]


def _ecs_factors(stack: list, pairs):
    """<psi| a'^M a^N |psi> per term, for unnormalized |psi> = |alpha> + |-alpha>.

    The four coherent-state contractions cancel for mixed parity of M and N
    and otherwise give conj(alpha)^M alpha^N times the weight of M's parity
    (_ecs_pair_weights). Each term is conj(alpha)^M alpha^N w c, in that
    order, with the powers taken once per M and N of the stack, whatever
    the operation.
    """
    alpha, weights = stack[0]._points, stack[0]._constants
    conj = alpha.conjugate()
    terms = _padded(tuple([one.op for one in stack]), pairs, _same_parity, _ecs_weights, (_dag, _plain))
    (dags, plains), (dag, plain) = terms.distinct, terms.index
    # the last rows are the padding's, 0
    conj = np.array([conj ** M for M in dags] + [0j * alpha])
    power = np.array([alpha ** N for N in plains] + [0j * alpha])
    parity = np.array([weights[M % 2] for M in dags] + [weights[0]])
    return terms, ((conj, dag), (power, plain), (parity, dag), (terms.weight, range(len(dag)))), None


def as_stack(specs) -> list:
    """A stack as a list of specs: a spec is a stack of one; any other
    sequence must hold grid specs of one family over one parameter array,
    else ValueError."""
    if isinstance(specs, StateSpec):
        return [specs]
    stack = list(specs)
    family, parameter = (stack[0].family, stack[0].parameter) if stack else (None, None)
    if not stack or (len(stack) > 1 and not all(
            isinstance(one.parameter, np.ndarray) and one.family == family
            and np.array_equal(one.parameter, parameter) for one in stack)):
        raise ValueError("a stack of specs takes grid specs of one family over one parameter array")
    return stack


def _first(stack: list, where) -> StateSpec:
    """The state at the first column of a stack's result (spec by spec,
    then point by point) where `where` holds, for errors to name."""
    width = len(stack[0]._points)
    column = int(np.argmax(where))
    spec = stack[column // width]
    return StateSpec.of(spec.family, spec._points[column % width], spec.op)


def _contract(stack: list, pairs) -> np.ndarray:
    """The contraction of the pairs over a stack, (P, S G): at each term
    slot t, the product of the (table, index) factors of the family's
    `factors` in its order, each table.take(index[t], 0), or fallback(t,
    that product) where the family has one. The caller turns numpy's
    overflow warnings off (np.errstate): a value past the float range is
    inf or nan, for the caller to test."""
    # numpy's in-place complex multiply of a one-element array skips the
    # fused multiply-add it uses on longer ones, so one pair of one state
    # is contracted twice, to round as in every other pair set and grid
    rows = pairs if len(pairs) * len(stack) * len(stack[0]._points) > 1 else pairs * 2
    terms, ((first, at), *factors), fallback = stack[0].family.factors(stack, rows)
    total = np.zeros((len(terms.rows), len(stack[0]._points)), dtype=first.dtype)
    # in place, one (R, G) term slot at a time
    for t in range(len(at)):
        term = first.take(at[t], 0)
        for table, index in factors:
            term *= table.take(index[t], 0)
        if fallback is not None:
            term = fallback(t, term)
        total += term
    if len(total) < len(rows) * len(stack):
        # a row with no terms is 0
        every = np.zeros((len(rows) * len(stack), total.shape[1]), dtype=total.dtype)
        every[terms.rows] = total
        total = every
    total = total.reshape(len(rows), len(stack) * total.shape[1])
    if total.dtype.kind == "c":
        # <a'^n a^n> is real, but a complex product may leave a last-bit
        # imaginary part in conj(alpha)^M alpha^M, so the m = n rows are made real
        total.imag[terms.diagonal] = 0.0
    return total[:len(pairs)]


def annihilated(spec: StateSpec) -> np.ndarray:
    """Where the operation annihilates the state, (G,): the one rule, for
    both families and engines. Only the vacuum, at parameter 0, is taken to
    0 (by an operation with k0 > 0); elsewhere the bare state has infinite
    Fock support, which neither a^p a'^q nor a'^q a^p annihilates."""
    return (spec._points == 0) & (_lowest_power(spec.op) > 0)


def vacuum(spec) -> np.ndarray:
    """Where the engineered state is the vacuum, over a spec's grid or a
    stack's columns, spec by spec: the one state whose mean photon number is
    0. The bare state is the vacuum at parameter 0 only, and an operation
    that does not annihilate it keeps it the vacuum where it adds as many
    photons as it subtracts (bare, PAS(p,p)), as level k goes to m = k - p + q."""
    return np.concatenate([(one._points == 0) & (one.op.p == one.op.q) & (_lowest_power(one.op) == 0)
                           for one in as_stack(spec)])


def _norm(spec: StateSpec, entry=None) -> np.ndarray:
    """The (0,0) entry over the grid, (G,), in the units of the family's
    contraction: `entry`, where the caller has contracted it already.

    NaN where the state is annihilated. Anywhere else a norm outside the
    normal float range raises OutOfRange, naming the first such state: a
    norm below it (a cat's goes as |alpha|^(2 k0)) has lost its precision.
    """
    if entry is None:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            entry = _contract([spec], ((0, 0),))[0]
    norm = entry.real
    gone = annihilated(spec)
    ok = gone | ((norm >= _TINY) & (norm <= _HUGE))
    if not ok.all():
        raise OutOfRange(f"the norm of {_first([spec], ~ok).canonical()} is not a normal float")
    return np.where(gone, math.nan, norm)


def _pair_set(m, n) -> tuple[tuple[int, int], ...]:
    """The pairs (m, n) of two ints or of two equal-length 1-d integer arrays."""
    if isinstance(m, np.ndarray) or isinstance(n, np.ndarray):
        m, n = np.asarray(m), np.asarray(n)
        if m.ndim != 1 or m.shape != n.shape or m.dtype.kind not in "iu" or n.dtype.kind not in "iu":
            raise ValueError("moment orders must be two ints or two equal-length 1-d integer arrays")
        m, n = m.tolist(), n.tolist()
    else:
        m, n = [integer(m, "a moment order")], [integer(n, "a moment order")]
    if min(m + n, default=0) < 0:
        raise ValueError("moment orders must be non-negative")
    return tuple(zip(m, n))


def moment(spec, m, n):
    """Normalized <a'^m a^n> for any spec, or a stack of them: the
    contraction over the (0,0) entry.

    m and n are ints, or equal-length 1-d integer arrays of a pair set
    (m[i], n[i]), all evaluated in one contraction call. Ints give a
    complex for one state and an ndarray over a grid spec, with NaN at the
    annihilated points; arrays give the values stacked on axis 0, (P,) for
    one state and (P, G) over a grid. A stack is a sequence of grid specs
    of one family over one parameter array (as_stack), contracted in the
    same one call: its columns run spec by spec, then point by point,
    (P, S G) for arrays and (S G,) for ints. Each value is the same, bit
    for bit, whichever way it is asked for, and a state's value is its
    column of any grid or stack. A value beyond the float range (e.g.
    <a'^2 a^2> of thermal PAS(2,2) at rbar = 1e200, about 3e401) raises
    OutOfRange, naming the first such pair and state.
    """
    stack = as_stack(spec)
    pairs = _pair_set(m, n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if all("_norm" in vars(one) for one in stack):
            unnormalized = _contract(stack, pairs)
        else:
            # a spec's first moment call contracts its norm, the (0,0) entry,
            # with its pairs, and keeps it as the cached property would
            unnormalized = _contract(stack, ((0, 0),) + pairs)
            for one, entry in zip(stack, unnormalized[0].reshape(len(stack), -1)):
                if "_norm" not in vars(one):
                    vars(one)["_norm"] = _norm(one, entry)
            unnormalized = unnormalized[1:]
        norm = stack[0]._norm if len(stack) == 1 else np.concatenate([one._norm for one in stack])
        # the parts divided apart, as Python divides a complex by a float:
        # numpy's complex division multiplies by a reciprocal, a last-bit
        # change that cancellations in the witnesses amplify; the real part
        # is added in place, as addition commutes bit for bit
        value = unnormalized.imag / norm * 1j
        value += unnormalized.real / norm
    # a NaN gap of a grid (norm != norm) stays a gap; any other value that
    # is not finite is out of range
    finite = np.isfinite(value)
    if not finite.all() and not (ok := finite | (norm != norm)).all():
        i = int(np.argmax(~ok.all(axis=1)))
        raise OutOfRange(f"<a'^{pairs[i][0]} a^{pairs[i][1]}> of "
                         f"{_first(stack, ~ok[i]).canonical()} exceeds the float range")
    if not (isinstance(m, np.ndarray) or isinstance(n, np.ndarray)):
        value = value[0]
    return _unwrap(spec, value, complex) if isinstance(spec, StateSpec) else value


def _normalization_thermal(rbar: float, op: EngineeringOp) -> float:
    spec = StateSpec.thermal(rbar, op)
    x, y = spec._constants
    norm = spec._norm * x ** _lowest_power(op)
    # inf where the constant is beyond the float range (tiny rbar, k0 > 0)
    with np.errstate(divide="ignore"):
        return _unwrap(spec, y ** (op.p + op.q) / norm, float)


def normalization_past_thermal(rbar: float, p: int, q: int) -> float:
    """Normalization constant of the add-then-subtract thermal state."""
    return _normalization_thermal(rbar, EngineeringOp.pas(p, q))


def normalization_psat_thermal(rbar: float, p: int, q: int) -> float:
    """Normalization constant of the subtract-then-add thermal state."""
    return _normalization_thermal(rbar, EngineeringOp.psa(p, q))


# ---------------------------------------------------------------------------
# Photon-number probabilities
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _weight_shifts(op: EngineeringOp) -> tuple[int, ...]:
    """The shifts s of W(m) = prod over s of (m + s): see _fock_weight."""
    p, q = op.p, op.q
    if op.order == ORDER_SUBTRACT_THEN_ADD:
        # a^p: k!/(m-q)!, then a'^q: m!/(m-q)!, whose factor m - m is 0 below m = q
        return tuple(-i for i in range(q)) + tuple(p - q - i for i in range(p))
    # a'^q: (m+p)!/k!, then a^p: (m+p)!/m!
    return tuple(p - i for i in range(p)) + tuple(p - i for i in range(q))


def _fock_weight(op: EngineeringOp, m: int) -> int:
    """W(m) = |<m| O |k>|^2 for k = m + p - q: an integer polynomial in m of degree p + q.

    Each order sends Fock level k to sqrt(W(m)) |m> and nothing else, so the
    photon-number distribution of either family is the bare weight of level
    k times W(m). W is 0 where O cannot reach level m, which is what the
    reciprocal factorials of negative integers say in the closed forms.
    """
    return math.prod(m + s for s in _weight_shifts(op))


def _fock_weights(op: EngineeringOp, m: np.ndarray):
    """W over a 1-d array of levels: an int64 array where W(max m) < 2^63,
    else a list of Python ints.

    W grows with m, and where W > 0 every factor is at least 1, so no
    partial product exceeds W(max m) and none overflows below the bound; an
    unreached level (m < q, subtracting first) has a 0 factor and the others
    at most p + q in size.
    """
    top = int(m.max(initial=0))
    if top + op.p < 2 ** 63 and _fock_weight(op, top) < 2 ** 63:
        factors = m.astype(np.int64)[:, None] + np.array(_weight_shifts(op), dtype=np.int64)
        return factors.prod(axis=1)
    return [_fock_weight(op, i) for i in m.tolist()]


def photon_numbers(m) -> np.ndarray:
    """m, both engines' photon numbers, as a 1-d array: an int (True is 1) or
    a 1-d integer array (an int past uint64 makes one of Python ints), each
    non-negative; anything else raises ValueError."""
    levels = m if isinstance(m, np.ndarray) else np.array([integer(m, "a photon number")])
    if levels.ndim != 1 or not (levels.dtype.kind in "iu" or all(type(i) is int for i in levels.tolist())):
        raise ValueError("an array of photon numbers must be 1-d integers")
    if not (levels >= 0).all():
        raise ValueError("photon number must be non-negative")
    return levels


def photon_prob(spec, m):
    """Probability of detecting m photons in the engineered state.

    One body over the photon numbers and the grid: the family's
    `level_weight`, the bare weight of level k = m + p - q times
    W(m) = _fock_weight, over the norm. m is an int or a 1-d integer array
    (of an integer dtype, or Python ints in an object array past its
    range). An int gives a float for one state and an ndarray over a grid
    spec; an array gives p_m stacked on axis 0, (M,) for one state and
    (M, G) over a grid. NaN at the annihilated points of a grid. A stack of
    grid specs (as_stack) gives its columns spec by spec, then point by
    point, each spec's block its own call's. Each value is the same, bit
    for bit, whichever way it is asked for, and a state's values are its
    column of any grid or stack.

    W(m) is one int64 array operation where W(max m) < 2^63 (exact, as
    every product stays below that bound) and exact Python integers above
    it, so m may be any int; no array is sized by m. Where the bare weight
    underflows at every photon number and point asked for, the
    probabilities are 0 however large W(m) is; otherwise a W(m) beyond the
    float range (thermal, rbar > ~1e16 and m > ~1e19) raises OutOfRange,
    naming the spec's first state.
    """
    array = isinstance(m, np.ndarray)
    levels = photon_numbers(m)
    blocks = []
    for each in as_stack(spec):
        # OutOfRange first where the norm is
        norm = each._norm
        try:
            weight = each.family.level_weight(each, levels, _fock_weights(each.op, levels))
        except OverflowError:
            raise OutOfRange(
                f"W({'m' if array else m}) of {_first([each], True).canonical()} exceeds the float range"
            ) from None
        blocks.append(weight / norm)
    probs = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    if not array:
        probs = probs[0]
    return _unwrap(spec, probs, float) if isinstance(spec, StateSpec) else probs


def _thermal_level_weight(spec: StateSpec, m: np.ndarray, weight) -> np.ndarray:
    """y x^k W(m), for the bare weight y x^k of level k = m + p - q."""
    x, y = spec._constants
    rbar = spec._points
    # an unreached level (W = 0) takes x^0 and weighs 0; the power and x are
    # both whole (M, G) arrays, as numpy picks its power loop by the
    # operands' strides and these round differently
    shift = spec.op.p - spec.op.q - _lowest_power(spec.op)
    zeros = np.zeros((len(m), len(rbar)))
    power = np.where(np.asarray(weight) > 0, m.astype(float) + shift, 0.0)[:, None] + zeros
    # y x^k in the units of _norm; from rbar = 1 on, x^k goes through
    # log1p(1/rbar), since x itself rounds to 1.0 past rbar ~ 1e16 and
    # would hide that x^k underflows; 1/rbar is taken at rbar >= 1 only
    with np.errstate(divide="ignore", invalid="ignore"):
        bare = np.where(rbar < 1.0, np.power(x + zeros, power), np.exp(-power * np.log1p(1.0 / np.fmax(rbar, 1.0))))
    if not bare.any():
        # before W(m) meets a float, which it may not fit
        return bare
    # W in exact integers, converted to floats once
    return bare * np.asarray(weight, dtype=float)[:, None] * y ** (1 + spec.op.p + spec.op.q)


def _ecs_level_weight(spec: StateSpec, m: np.ndarray, weight) -> np.ndarray:
    """4 e^(-|alpha|^2) |alpha|^(2k) / k! W(m) on even k, 0 on odd k: the
    weight of level k = m + p - q in the unnormalized even cat, times W(m)."""
    # k is even where m and p + q have one parity; log W(m) from the exact
    # integers, which may leave the float range
    even = (m % 2 == (spec.op.p + spec.op.q) % 2).tolist()
    log_weight = np.array([_log(w) if e else -math.inf for e, w in zip(even, weight)])
    # an odd or unreached level takes k = 0 and weighs 0
    k = np.where(log_weight > -math.inf, m.astype(float) + (spec.op.p - spec.op.q), 0.0)
    return 4.0 * np.exp(_log_poisson(k[:, None], abs(spec._points) ** 2) + log_weight[:, None])


# stirlerr(k) = log k! - log(sqrt(2 pi k) (k/e)^k) for k < 16 (k = 0 unused)
_STIRLERR = np.array([0.0] + [math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
                              for k in range(1, 16)])


def _log_poisson(k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log(e^-lam lam^k / k!) for float arrays k, lam >= 0 (broadcast).

    Loader's saddle-point form, -stirlerr(k) - bd0(k, lam) - log(2 pi k)/2
    with bd0 = k log(k/lam) + lam - k (C. Loader, "Fast and Accurate
    Computation of Binomial Probabilities", 2000): near k = lam, where
    k log lam - lam - log k! cancels in doubles, bd0 is a series in
    v = (k - lam)/(k + lam) whose terms do not cancel, so the result keeps
    full precision however large k and lam are.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = k - lam
        v = d / (k + lam)
        # sum over j >= 1 of v^(2j) / (2j + 1), by Horner; |v| < 0.1 where it is read
        v2 = v * v
        tail = v2 / 17.0
        for j in range(7, 0, -1):
            tail += 1.0 / (2 * j + 1)
            tail *= v2
        bd0 = np.where(np.abs(v) < 0.1, (d + 2.0 * k * tail) * v, k * np.log(k / lam) + lam - k)
        # the Stirling series past the table, with its first five terms
        kk = k * k
        stirlerr = np.where(
            k < len(_STIRLERR), _STIRLERR[np.minimum(k, len(_STIRLERR) - 1).astype(int)],
            (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k,
        )
        log_p = -stirlerr - bd0 - 0.5 * np.log(2.0 * math.pi * k)
    # e^-lam at k = 0, where the form has 0 log 0
    return np.where(k == 0, -lam, log_p)


# ---------------------------------------------------------------------------
# Husimi Q function
# ---------------------------------------------------------------------------

def amplitudes(beta) -> np.ndarray:
    """beta, both engines' Husimi amplitudes, as a complex array of its
    shape; a NaN or infinite one raises ValueError."""
    beta = np.asarray(beta, dtype=complex)
    if not np.isfinite(beta).all():
        raise ValueError("a Husimi amplitude beta must be finite")
    return beta


def husimi(spec, beta):
    """Husimi Q(beta) = <beta| sigma |beta> / pi of an engineered state, a
    grid spec or a stack of them (as_stack).

    beta is a complex scalar or an array of any shape (amplitudes). One
    state gives beta's shape (a float for a scalar beta); a grid spec or a
    stack (*beta.shape, columns), spec by spec, then point by point, NaN at
    the annihilated points. Each column is its state's own call bit for bit:
    each point runs its family's one-point body over the whole beta array,
    on its parameter as a Python number, over the grid spec's norm, which a
    moment call on it has already contracted. Where |beta|^(2(p+q)) leaves
    the float range (|beta| > ~1e9 for p + q = 16) the call raises
    OutOfRange, naming the first such state.
    """
    beta = amplitudes(beta)
    stack = as_stack(spec)
    norms = np.concatenate([each._norm for each in stack])
    columns = [(each, point) for each in stack for point in each._points.tolist()]
    q = np.full((*beta.shape, len(columns)), math.nan)
    # a power of |beta| that leaves the float range shows up as inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        for k, ((each, point), norm) in enumerate(zip(columns, norms.tolist())):
            if norm == norm:
                np.divide(each.family.husimi(point, each.op, beta), math.pi * norm, out=q[..., k])
    # NaN stays a gap only where the norm is (an annihilated state)
    if not (ok := np.isfinite(q) | (norms != norms)).all():
        raise OutOfRange(f"Husimi Q of {_first(stack, ~ok.reshape(-1, len(norms)).all(axis=0)).canonical()} "
                         "leaves the float range at large |beta|")
    return _unwrap(spec, q, float) if isinstance(spec, StateSpec) else q


@lru_cache(maxsize=None)
def _newton_coeffs(op: EngineeringOp) -> tuple[tuple[int, float], ...]:
    """(j, D^j W(0) / j!) for the nonzero forward differences of W = _fock_weight.

    W has degree p + q, so sum_m W(m) z^m / m! = e^z sum_j D^j W(0) z^j / j!
    terminates: the thermal Husimi pFq sums have upper parameters exceeding
    the lower ones by integers (Kummer's transformation, DLMF 13.2, 18.5).
    """
    degree = op.p + op.q
    w = [_fock_weight(op, m) for m in range(degree + 1)]
    coeffs = []
    for j in range(degree + 1):
        delta = sum((-1) ** (j - i) * math.comb(j, i) * w[i] for i in range(j + 1))
        if delta:
            coeffs.append((j, delta / math.factorial(j)))
    return tuple(coeffs)


def _husimi_thermal(rbar: float, op: EngineeringOp, beta: np.ndarray) -> np.ndarray:
    # Q = e^(-|beta|^2) / pi * sum_m P_m |beta|^(2m) / m! with P_m from
    # photon_prob; the sum is e^(x|beta|^2) times a polynomial
    p, q = op.p, op.q
    # the one state's constants as numbers: here the grid is the beta array
    x, y = FAMILY_THERMAL.constants(rbar)
    b2 = np.abs(beta) ** 2
    shift = p - q - _lowest_power(op)
    series = sum(c * x ** (j + shift) * b2 ** j for j, c in _newton_coeffs(op))
    return np.exp(-b2 * y) * y ** (1 + p + q) * series


@lru_cache(maxsize=None)
def _operator_terms(op: EngineeringOp) -> tuple[tuple[int, int, int], ...]:
    """Normal form of O itself as terms (M, N, c), O = sum c a'^M a^N, M
    descending: the order the cat Husimi sum runs in."""
    return specfun.normal_order(_word(op))[::-1]


def _husimi_ecs(alpha: complex, op: EngineeringOp, beta: np.ndarray) -> np.ndarray:
    # <beta| a'^M a^N |+-alpha> = conj(beta)^M (+-alpha)^N <beta|+-alpha>, and
    # <beta|+-alpha> = exp(+-alpha conj(beta) - h) has real part
    # -|beta -+ alpha|^2 / 2 <= 0, so neither overlap can overflow
    bc = np.conj(beta)
    h = 0.5 * (abs(alpha) ** 2 + np.abs(beta) ** 2)
    plus = np.exp(alpha * bc - h)
    minus = np.exp(-alpha * bc - h)
    amp = sum(c * bc ** dag * alpha ** plain * (plus - minus if plain % 2 else plus + minus)
              for dag, plain, c in _operator_terms(op))
    return np.abs(amp) ** 2


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

# sweep windows reconstructed from the plots' visual ranges (not ground truth)
FAMILY_THERMAL = Family(
    name="thermal", parameter="rbar", kind=float,
    valid=lambda rbar: _finite(rbar) & (rbar >= 0),
    domain="mean photon number must be finite and >= 0",
    window=(0.01, 5.0), diagonal=True, factors=_thermal_factors,
    # (x, y) = (rbar, 1) / (1 + rbar): the bare weight of Fock level k is y x^k
    constants=lambda rbar: (rbar / (1.0 + rbar), 1.0 / (1.0 + rbar)),
    level_weight=_thermal_level_weight, husimi=_husimi_thermal,
)

# |alpha> + |-alpha>, normalized
FAMILY_EVEN_COHERENT = Family(
    name="ecs", parameter="alpha", kind=complex,
    valid=_finite, domain="amplitude must be finite",
    window=(0.01, 3.0), diagonal=False, constants=_ecs_pair_weights, factors=_ecs_factors,
    level_weight=_ecs_level_weight, husimi=_husimi_ecs,
)

FAMILIES = {family.name: family for family in (FAMILY_THERMAL, FAMILY_EVEN_COHERENT)}


def _family(name: str) -> Family:
    return FAMILIES[name]


# ---------------------------------------------------------------------------
# Moment cache
# ---------------------------------------------------------------------------

class MomentTable:
    """Memoized normalized moments <a'^m a^n> of one state spec.

    A table holds the pairs its reader needs (witnesses.moment_pairs) and a
    `fill(ms, ns)` that gives the moments of a pair set, as two equal-length
    order arrays, stacked on axis 0: the first get fills all the pairs in
    one call, and a get of any other pair makes the same call with that one
    pair. A table keeps no spec: MomentTable.analytic(spec, pairs) fills
    with `moment` of the spec or stack, and
    oracle.moment_table_from_state(states, pairs) with one oracle gather
    per cutoff over the truncated states.

    For a grid spec (one operation over an array of parameters) the table
    is one table for the whole grid: get(m, n) is an ndarray over the grid,
    NaN where the operation annihilates the state, so a witness body run on
    it gives the whole series at once; for a stack of grid specs, over the
    stack's columns, spec by spec. For one state an entry is a complex, as
    the int call of `moment` gives it.

    Immutable from the caller's point of view: entries are computed once and
    cached on first request.

    `vacuum()` gives where the table's states are the vacuum (`vacuum` of
    the spec or stack a table is built for, which that table's caller
    passes), a bool array over its states; for a table built from states
    alone it is False: none is taken to be the vacuum.
    """

    def __init__(self, fill: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 provenance: str = "analytic", pairs=(), vacuum: Callable[[], np.ndarray] | None = None):
        self.provenance = provenance
        self._fill = fill
        self.pairs = tuple(pairs)
        self.vacuum = vacuum or (lambda: False)
        self._cache: dict[tuple[int, int], complex] = {}

    @classmethod
    def analytic(cls, spec: StateSpec, pairs=()) -> "MomentTable":
        # the module's moment, as looked up at call time
        return cls(lambda ms, ns: moment(spec, ms, ns), "analytic", pairs, lambda: vacuum(spec))

    def get(self, m: int, n: int) -> complex:
        key = (m, n)
        if key not in self._cache:
            key = (integer(m, "a moment order"), integer(n, "a moment order"))
            pairs = self.pairs if key in self.pairs else (key,)
            try:
                orders = [np.array(orders, dtype=np.intp) for orders in zip(*pairs)]
            except OverflowError:
                raise ValueError("moment orders are limited to 2**63 - 1 = 9223372036854775807") from None
            values = self._fill(*orders)
            self._cache.update(zip(pairs, values.tolist() if values.ndim == 1 else values))
        return self._cache[key]
