"""Combinatorics and special-function kernel used by every other module.

All operations are pure functions of their arguments. Coefficients that are
exactly integer (binomials, normal-ordering weights, Stirling numbers) are
computed in exact integer arithmetic and only leave it at the caller's
boundary; factorial ratios go through log space above the exact range so
that quantities like (r+q)!^2 / r! never overflow on the way to a modest
final value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonConvergent, PoleInDenominatorParams

# Factorial ratios with every argument below this use exact integers.
EXACT_FACTORIAL_LIMIT = 20

# Series convergence guard: this many consecutive sub-tolerance terms are
# required before a pFq sum is declared converged (terms can be non-monotone
# before their asymptotic decay sets in).
SERIES_CALM_STREAK = 3
SERIES_MAX_TERMS = 10 ** 6


def log_factorial(n: int) -> float:
    """ln(n!) for integer n >= 0."""
    if n < 0:
        raise ValueError(f"log_factorial: negative argument {n}")
    return math.lgamma(n + 1)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 when k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)..., with 0!! = (-1)!! = 1 (empty products)."""
    if n < -1:
        raise ValueError(f"double_factorial: argument {n} below -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


@lru_cache(maxsize=None)
def stirling2(r: int, n: int) -> int:
    """Stirling number of the second kind S(r, n).

    Counts partitions of r labelled items into n nonempty blocks, so
    S(0, 0) = 1 and S(r, n) = 0 for n > r. Computed by the recurrence
    S(r, n) = n S(r-1, n) + S(r-1, n-1).
    """
    if r < 0 or n < 0:
        raise ValueError("stirling2: negative argument")
    if r == 0 and n == 0:
        return 1
    if r == 0 or n == 0 or n > r:
        return 0
    return n * stirling2(r - 1, n) + stirling2(r - 1, n - 1)


def factorial_ratio(numerators, denominators) -> float:
    """prod(n! for n in numerators) / prod(d! for d in denominators).

    A negative entry among the denominators makes the whole ratio 0: this is
    the 1/(negative integer)! = 0 convention that implements the index-range
    shifts of the closed-form moment sums. Negative numerator entries are a
    caller bug and raise.
    """
    nums = list(numerators)
    dens = list(denominators)
    if any(d < 0 for d in dens):
        return 0.0
    if any(n < 0 for n in nums):
        raise ValueError("factorial_ratio: negative numerator factorial")
    if all(v < EXACT_FACTORIAL_LIMIT for v in nums + dens):
        num = 1
        for v in nums:
            num *= math.factorial(v)
        den = 1
        for v in dens:
            den *= math.factorial(v)
        return num / den
    log = sum(math.lgamma(v + 1) for v in nums) - sum(math.lgamma(v + 1) for v in dens)
    return math.exp(log)


def hypergeometric_pfq(
    numerator_params,
    denominator_params,
    x: float,
    rel_tol: float = 1e-15,
    *,
    max_terms: int = SERIES_MAX_TERMS,
    calm_streak: int = SERIES_CALM_STREAK,
) -> float:
    """Generalized hypergeometric series pFq(a1..ap; b1..bq; x).

    Terms are generated by the ratio recurrence
        t_{k+1} = t_k * prod(a_i + k) / prod(b_j + k) * x / (k + 1)
    and summed until `calm_streak` consecutive terms fall below
    rel_tol * |partial sum|.

    Raises
    ------
    PoleInDenominatorParams
        if any b_j is a non-positive integer (the series hits a pole).
    NonConvergent
        if the term magnitude overflows or the budget is exhausted.
    """
    a = [float(v) for v in numerator_params]
    b = [float(v) for v in denominator_params]
    for bj in b:
        if bj <= 0 and float(bj).is_integer():
            raise PoleInDenominatorParams(
                f"denominator parameter {bj} is a non-positive integer"
            )
    total = 0.0
    term = 1.0
    calm = 0
    for k in range(max_terms):
        total += term
        ratio = x / (k + 1)
        for ai in a:
            ratio *= ai + k
        for bj in b:
            ratio /= bj + k
        term *= ratio
        if not math.isfinite(term) or not math.isfinite(total):
            raise NonConvergent(
                f"pFq({a}; {b}; {x}) overflowed after {k + 1} terms"
            )
        if abs(term) <= rel_tol * max(abs(total), 1e-300):
            calm += 1
            if calm >= calm_streak:
                return total
        else:
            calm = 0
    raise NonConvergent(
        f"pFq({a}; {b}; {x}) did not converge within {max_terms} terms"
    )


@dataclass(frozen=True)
class NormalOrderTerm:
    """One normally ordered term c * a'^dagger_power a^plain_power."""

    dagger_power: int
    plain_power: int
    coefficient: int


def normal_order_product(plain_power: int, dagger_power: int) -> list[NormalOrderTerm]:
    """Normal ordering of a^p a'^q.

    a^p a'^q = sum_r r! C(p,r) C(q,r) a'^(q-r) a^(p-r), exact coefficients.
    """
    p, q = plain_power, dagger_power
    if p < 0 or q < 0:
        raise ValueError("normal_order_product: negative power")
    terms = []
    for r in range(min(p, q) + 1):
        coeff = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
        terms.append(NormalOrderTerm(dagger_power=q - r, plain_power=p - r, coefficient=coeff))
    return terms


@lru_cache(maxsize=None)
def _quadrature_power_coeffs_cached(l: int) -> tuple[tuple[tuple[int, int], int], ...]:
    if l == 0:
        return (((0, 0), 1),)
    prev = dict(_quadrature_power_coeffs_cached(l - 1))
    out: dict[tuple[int, int], int] = {}
    for (j, k), c in prev.items():
        # left-multiply by a': a' a'^j a^k = a'^(j+1) a^k
        out[(j + 1, k)] = out.get((j + 1, k), 0) + c
        # left-multiply by a: a a'^j a^k = a'^j a^(k+1) + j a'^(j-1) a^k
        out[(j, k + 1)] = out.get((j, k + 1), 0) + c
        if j > 0:
            out[(j - 1, k)] = out.get((j - 1, k), 0) + j * c
    return tuple(sorted(out.items()))


def quadrature_power_coeffs(l: int) -> dict[tuple[int, int], int]:
    """Exact normal-ordered expansion of (a + a')^l.

    Returns the map (dagger_power, plain_power) -> coefficient with
    (a + a')^l = sum c_{j,k} a'^j a^k, built by recursive left-multiplication
    with [a, a'] = 1.
    """
    if l < 0:
        raise ValueError("quadrature_power_coeffs: negative power")
    return dict(_quadrature_power_coeffs_cached(l))
