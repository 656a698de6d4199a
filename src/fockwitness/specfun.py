"""Exact boson normal ordering, and the series kernels kept beside it.

normal_order is the package's one normal-ordering route: every expansion of
a product of ladder operators (the contraction tables and the operator
normal forms in `states`, the powers (a + a')^l and (a'a)^r the witnesses
read) is a call to it, in exact integer arithmetic, and leaves it only at
the caller's boundary.

hypergeometric_pfq and factorial_ratio have no caller in the package; the
benchmark's tracer binds them by name, so they stay until the benchmark
changes. factorial_ratio goes through log space above the exact range, so
that quantities like (r+q)!^2 / r! never overflow on the way to a modest
final value.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NonConvergent, PoleInDenominatorParams

# Factorial ratios with every argument below this use exact integers.
EXACT_FACTORIAL_LIMIT = 20

# Series convergence guard: this many consecutive sub-tolerance terms are
# required before a pFq sum is declared converged (terms can be non-monotone
# before their asymptotic decay sets in).
SERIES_CALM_STREAK = 3
SERIES_MAX_TERMS = 10 ** 6


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


def normal_order(word: tuple) -> tuple[tuple[int, int, int], ...]:
    """Normal form of a word in the boson algebra, [a, a'] = 1.

    A word is a tuple of factors read left to right; a factor is a tuple of
    terms (M, N, c) standing for the sum of c a'^M a^N, and a ladder power
    is a one-term factor. The normal form is returned as terms (M, N, c),
    word = sum c a'^M a^N, with zero terms dropped and (M, N) ascending;
    integer coefficients in the word give exact integer c. The factors are
    multiplied in from the right by the one rule

        a^N a'^j = sum_r r! C(N,r) C(j,r) a'^(j-r) a^(N-r)

    (Blasiak et al., "Combinatorics and boson normal ordering", Am. J. Phys.
    75, 639, 2007), so that a'^M a^N times d a'^j a^k is the sum over
    r <= min(N, j) of d r! C(N,r) C(j,r) a'^(M+j-r) a^(N+k-r).
    """
    terms = {(0, 0): 1}
    for factor in word:
        product: dict[tuple[int, int], int] = {}
        for j, k, d in factor:
            for (dag, plain), c in terms.items():
                # weight r! C(N,r) C(j,r), from r to r + 1 by the factor
                # (N - r)(j - r)/(r + 1), exact in integers
                weight = 1
                for r in range(min(plain, j) + 1):
                    key = (dag + j - r, plain + k - r)
                    product[key] = product.get(key, 0) + c * d * weight
                    weight = weight * (plain - r) * (j - r) // (r + 1)
        terms = product
    return tuple(sorted((dag, plain, c) for (dag, plain), c in terms.items() if c))


# the factor a + a'
_QUADRATURE = ((0, 1, 1), (1, 0, 1))


@lru_cache(maxsize=None)
def quadrature_power_coeffs(l: int) -> tuple[tuple[int, int, int], ...]:
    """Normal form of (a + a')^l as normal_order gives it, (M, N) ascending:
    a + a' times the normal form of (a + a')^(l-1)."""
    if l < 0:
        raise ValueError("quadrature_power_coeffs: negative power")
    return normal_order((_QUADRATURE, quadrature_power_coeffs(l - 1)) if l else ())
