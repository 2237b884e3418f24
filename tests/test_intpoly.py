import math
from fractions import Fraction

import pytest

from quiverbelt.intpoly import (
    IntPoly,
    chebyshev_T,
    cos2_poly,
    cyclotomic_phi,
    euler_totient,
    halved_cyclotomic,
    real_min_poly,
    watkins_zeitlin_check,
)


def test_chebyshev_t_base_cases():
    assert chebyshev_T(0).coeffs == (1,)
    assert chebyshev_T(2).coeffs == (-1, 0, 2)


def test_chebyshev_t_cosine_oracle():
    # T_m(cos x) = cos(m x), checked numerically
    for m in (1, 3, 5, 8):
        for x in (0.3, math.pi / 5, 1.2):
            assert abs(chebyshev_T(m).eval_at(math.cos(x)) - math.cos(m * x)) < 1e-12
    assert abs(chebyshev_T(5).eval_at(math.cos(math.pi / 5)) - (-1.0)) < 1e-12


def test_monic_rescalings_track_the_classical_polynomials():
    for m in range(8):
        two_t = chebyshev_T(m) * 2
        assert cos2_poly(m).eval_at(Fraction(1, 3)) == two_t.eval_at(Fraction(1, 6))


def test_cyclotomic_small_cases():
    assert cyclotomic_phi(1).coeffs == (-1, 1)
    assert cyclotomic_phi(5).coeffs == (1, 1, 1, 1, 1)
    # divide x^10 - 1 by Phi_1 Phi_2 Phi_5 by hand: x^4 - x^3 + x^2 - x + 1
    assert cyclotomic_phi(10).coeffs == (1, -1, 1, -1, 1)


def test_cyclotomic_degree_is_totient():
    for m in range(1, 201):
        assert cyclotomic_phi(m).degree() == euler_totient(m)


def test_cyclotomic_product_identity():
    for m in (6, 12, 30):
        prod = IntPoly((1,))
        for e in range(1, m + 1):
            if m % e == 0:
                prod = prod * cyclotomic_phi(e)
        assert prod.coeffs == tuple([-1] + [0] * (m - 1) + [1])


def test_totient_small():
    assert euler_totient(1) == 1
    assert euler_totient(5) == 4
    assert [euler_totient(m) for m in (8, 9, 12, 30)] == [4, 6, 4, 8]


def test_real_min_poly_known_values():
    assert real_min_poly(3).coeffs == (-1, 1)  # 2cos(pi/3) = 1
    assert real_min_poly(4).coeffs == (-2, 0, 1)  # sqrt(2)
    assert real_min_poly(5).coeffs == (-1, -1, 1)  # golden ratio
    assert real_min_poly(2).coeffs == (0, 1)


def test_real_min_poly_has_the_right_root_and_degree():
    for d in range(2, 61):
        mu = real_min_poly(d)
        assert mu.degree() == euler_totient(2 * d) // 2
        assert mu.is_monic()
        root = 2 * math.cos(math.pi / d)
        assert abs(mu.eval_at(root)) < 1e-9 * max(abs(c) for c in mu.coeffs)


def test_halved_cyclotomic_odd_index():
    # Phi_9 = x^6 + x^3 + 1 halves to y^3 - 3y + 1
    assert halved_cyclotomic(9).coeffs == (1, -3, 0, 1)
    assert halved_cyclotomic(1).coeffs == (-2, 1)
    assert halved_cyclotomic(3).coeffs == (1, 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_watkins_zeitlin(n):
    assert watkins_zeitlin_check(n)


def test_div_exact_rejects_inexact():
    with pytest.raises(ValueError):
        IntPoly((1, 1, 1)).div_exact(IntPoly((1, 1)))

