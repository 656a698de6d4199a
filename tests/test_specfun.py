import math

import numpy as np
import pytest
import scipy.special

from fockwitness import specfun
from fockwitness.errors import NonConvergent, PoleInDenominatorParams


def ladder(dim):
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    return a, a.T


# ln(n!) through factorial_ratio: exact integers below EXACT_FACTORIAL_LIMIT,
# log space above it

def test_log_factorial_small():
    assert specfun.factorial_ratio([0], []) == 1.0
    assert specfun.factorial_ratio([1], []) == 1.0
    assert math.log(specfun.factorial_ratio([10], [])) == pytest.approx(15.104412573075516, rel=1e-13)


@pytest.mark.parametrize("n", [2, 7, 25, 60, 140])
def test_log_factorial_matches_exact(n):
    exact = math.log(math.factorial(n))
    assert math.log(specfun.factorial_ratio([n], [])) == pytest.approx(exact, rel=1e-13)


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        specfun.factorial_ratio([-1], [])


def _terms(word) -> dict:
    """normal_order(word) as a map (M, N) -> c."""
    return {(dag, plain): c for dag, plain, c in specfun.normal_order(word)}


def _quadrature(l: int) -> dict:
    """(a + a')^l as a map (M, N) -> c."""
    return {(dag, plain): c for dag, plain, c in specfun.quadrature_power_coeffs(l)}


def _top_degree(n: int) -> dict:
    """M -> c over the degree-n terms a'^M a^(n-M) of (a + a')^n: every
    commutator lowers the degree, so these are the binomials C(n, M)."""
    return {dag: c for (dag, plain), c in _quadrature(n).items() if dag + plain == n}


def _stirling2(r: int) -> dict:
    """n -> S2(r, n) from the normal form of (a'a)^r = sum_n S2(r, n) a'^n a^n."""
    terms = _terms((((1, 1, 1),),) * r)
    assert all(dag == plain for dag, plain in terms)
    return {n: c for (n, _), c in terms.items()}


def test_binomial_values():
    assert _top_degree(5)[2] == 10
    assert 7 not in _top_degree(4)
    assert -1 not in _top_degree(6)
    assert _top_degree(20)[10] == 184756


@pytest.mark.parametrize("n", range(2, 12))
def test_binomial_pascal_recurrence(n):
    row, previous = _top_degree(n), _top_degree(n - 1)
    for k in range(1, n):
        assert row[k] == previous[k - 1] + previous[k]


def test_double_factorial():
    # (l-1)!! as the (0,0) term of (a + a')^l: the pairings of l factors
    assert _quadrature(6)[0, 0] == 15
    assert _quadrature(0)[0, 0] == 1
    for l, pairings in ((2, 1), (4, 3), (8, 105), (12, 10395)):
        assert _quadrature(l)[0, 0] == pairings
    for l in (1, 3, 5):
        assert (0, 0) not in _quadrature(l)
    with pytest.raises(ValueError):
        specfun.quadrature_power_coeffs(-1)


def test_stirling2_values():
    assert _stirling2(3)[2] == 3
    assert _stirling2(4)[2] == 7
    for r in range(7):
        assert _stirling2(r)[r] == 1
    assert 5 not in _stirling2(2)
    assert 0 not in _stirling2(4)


@pytest.mark.parametrize("r", range(7))
@pytest.mark.parametrize("n", range(7))
def test_stirling2_explicit_formula(r, n):
    if n > r:
        return
    direct = sum(
        (-1) ** (n - j) * math.comb(n, j) * j ** r for j in range(n + 1)
    ) / math.factorial(n)
    # 0^0 = 1 in the j = 0 term of the r = 0 row
    if r == 0 and n == 0:
        direct = 1.0
    assert _stirling2(r).get(n, 0) == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("r", range(7))
def test_stirling2_number_operator_identity(d, r):
    # (a'a)^r on |d>: d^r = sum_n S(r, n) * d!/(d-n)!
    total = sum(
        s2 * math.factorial(d) / math.factorial(d - n)
        for n, s2 in _stirling2(r).items() if n <= d
    )
    assert total == pytest.approx(d ** r, rel=1e-12)


def test_factorial_ratio_zero_convention():
    assert specfun.factorial_ratio([3], [-1]) == 0.0
    assert specfun.factorial_ratio([4, 4], [2, 3]) == pytest.approx(48.0)
    with pytest.raises(ValueError):
        specfun.factorial_ratio([-2], [1])


def test_factorial_ratio_log_path_matches_exact_path():
    # straddle the exact-integer limit
    small = specfun.factorial_ratio([19, 5], [12, 3])
    large = specfun.factorial_ratio([25, 5], [18, 3])
    exact = math.factorial(25) * math.factorial(5) / (math.factorial(18) * math.factorial(3))
    assert small == math.factorial(19) * math.factorial(5) / (math.factorial(12) * math.factorial(3))
    assert large == pytest.approx(exact, rel=1e-12)


class TestHypergeometric:
    def test_geometric_series(self):
        assert specfun.hypergeometric_pfq([1, 1], [1], 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_exponential_series(self):
        assert specfun.hypergeometric_pfq([1], [1], 2.0) == pytest.approx(math.e ** 2, rel=1e-14)

    def test_euler_transform_value(self):
        # 2F1(3,3;2;1/2) = (1-x)^(-4) (1 + x/2) = 20
        assert specfun.hypergeometric_pfq([3, 3], [2], 0.5) == pytest.approx(20.0, rel=1e-13)

    @pytest.mark.parametrize("x", [-3.0, -0.4, 0.0, 0.7, 2.5])
    def test_empty_parameters_give_exp(self, x):
        assert specfun.hypergeometric_pfq([], [], x) == pytest.approx(math.exp(x), rel=1e-13)

    def test_pole_in_denominator(self):
        with pytest.raises(PoleInDenominatorParams):
            specfun.hypergeometric_pfq([1], [-2], 0.3)
        with pytest.raises(PoleInDenominatorParams):
            specfun.hypergeometric_pfq([1], [0], 0.3)

    def test_non_convergent_outside_disc(self):
        with pytest.raises(NonConvergent):
            specfun.hypergeometric_pfq([1, 1], [1], 1.2)

    def test_budget_exhaustion(self):
        with pytest.raises(NonConvergent):
            specfun.hypergeometric_pfq([2, 2], [1], 1.0 - 1e-15, max_terms=10_000)

    def test_terminating_series(self):
        # negative integer numerator parameter truncates the sum
        value = specfun.hypergeometric_pfq([-3, 2], [4], 1.5)
        direct = sum(
            math.prod((-3 + k1) for k1 in range(k))
            * math.prod((2 + k2) for k2 in range(k))
            / math.prod((4 + k3) for k3 in range(k))
            * 1.5 ** k
            / math.factorial(k)
            for k in range(4)
        )
        assert value == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("a,b,c", [(1.5, 2.0, 3.0), (2.0, 2.0, 1.0), (4.0, 1.0, 2.5)])
    @pytest.mark.parametrize("x", [-0.6, 0.1, 0.5, 0.85])
    def test_against_scipy_2f1(self, a, b, c, x):
        mine = specfun.hypergeometric_pfq([a, b], [c], x)
        assert mine == pytest.approx(scipy.special.hyp2f1(a, b, c, x), rel=1e-11)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.5, 1.0), (3.0, 2.0)])
    @pytest.mark.parametrize("x", [-2.0, 0.3, 4.0])
    def test_against_scipy_1f1(self, a, b, x):
        mine = specfun.hypergeometric_pfq([a], [b], x)
        assert mine == pytest.approx(scipy.special.hyp1f1(a, b, x), rel=1e-11)

    @pytest.mark.parametrize(
        "num,den,x",
        [
            ([2.0, 2.0, 3.0], [1.0, 4.0], 0.5),
            ([3.0, 3.0, 1.0], [2.0, 2.0], 0.85),
            ([2.0, 2.0], [1.0, 3.0], 6.0),
        ],
    )
    def test_against_mpmath_higher_order(self, num, den, x):
        mpmath = pytest.importorskip("mpmath")
        mine = specfun.hypergeometric_pfq(num, den, x)
        reference = float(mpmath.hyper(num, den, x))
        assert mine == pytest.approx(reference, rel=1e-11)


def _product(p: int, q: int) -> dict:
    """a^p a'^q as a map (M, N) -> c."""
    return _terms((((0, p, 1),), ((q, 0, 1),)))


class TestNormalOrdering:
    def test_single_commutator(self):
        assert _product(1, 1) == {(1, 1): 1, (0, 0): 1}

    def test_pure_creation(self):
        assert specfun.normal_order((((0, 0, 1),), ((4, 0, 1),))) == ((4, 0, 1),)

    def test_two_by_two(self):
        assert _product(2, 2) == {(2, 2): 1, (1, 1): 4, (0, 0): 2}

    @pytest.mark.parametrize("p", range(7))
    @pytest.mark.parametrize("q", range(7))
    def test_matrix_identity(self, p, q):
        dim = p + q + 8
        a, ad = ladder(dim)
        lhs = np.linalg.matrix_power(a, p) @ np.linalg.matrix_power(ad, q)
        rhs = np.zeros_like(lhs)
        for (dag, plain), coeff in _product(p, q).items():
            rhs += coeff * (
                np.linalg.matrix_power(ad, dag)
                @ np.linalg.matrix_power(a, plain)
            )
        # the top-left block is unaffected by the cutoff edge
        keep = dim - max(p, q)
        assert np.allclose(lhs[:keep, :keep], rhs[:keep, :keep], atol=1e-10)

    def test_empty_word_is_the_identity(self):
        assert specfun.normal_order(()) == ((0, 0, 1),)

    def test_terms_ascend_and_zero_terms_drop(self):
        # (a'a + 1)(a a') = a'^2 a^2 + 3 a'a + 1, and a' - a' = 0
        assert specfun.normal_order((((1, 1, 1), (0, 0, 1)), ((0, 1, 1),), ((1, 0, 1),))) == (
            (0, 0, 1), (1, 1, 3), (2, 2, 1))
        assert specfun.normal_order((((1, 0, 1), (1, 0, -1)),)) == ()


class TestQuadraturePowers:
    def test_low_orders(self):
        assert _quadrature(0) == {(0, 0): 1}
        assert _quadrature(1) == {(1, 0): 1, (0, 1): 1}
        assert _quadrature(2) == {(2, 0): 1, (0, 2): 1, (1, 1): 2, (0, 0): 1}

    def test_terms_ascend(self):
        for l in range(13):
            pairs = [(dag, plain) for dag, plain, _ in specfun.quadrature_power_coeffs(l)]
            assert pairs == sorted(pairs)

    @pytest.mark.parametrize("l", range(9))
    def test_matches_matrix_power(self, l):
        dim = 24
        a, ad = ladder(dim)
        direct = np.linalg.matrix_power(a + ad, l)
        expanded = np.zeros_like(direct)
        for (j, k), coeff in _quadrature(l).items():
            expanded += coeff * (
                np.linalg.matrix_power(ad, j) @ np.linalg.matrix_power(a, k)
            )
        keep = dim - l  # interior block, away from the cutoff edge
        scale = np.abs(direct[:keep, :keep]).max() or 1.0
        assert np.allclose(direct[:keep, :keep], expanded[:keep, :keep], atol=1e-10 * scale)

    def test_closed_form_equals_the_normal_order_recursion(self):
        # (a + a') times the normal form of (a + a')^(l-1), l <= 40: the same
        # tuples, in the same order, with the same integer coefficients
        previous = ((0, 0, 1),)
        assert specfun.quadrature_power_coeffs(0) == previous
        for l in range(1, 41):
            previous = specfun.normal_order((((0, 1, 1), (1, 0, 1)), previous))
            assert specfun.quadrature_power_coeffs(l) == previous
