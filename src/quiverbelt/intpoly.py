"""Integer polynomials: Chebyshev polynomials, cyclotomic polynomials, and
the minimal polynomials of 2cos(pi/d).

Polynomials are dense integer coefficient tuples, lowest degree first, with
no trailing zeros.  The zero polynomial is the empty tuple.

Besides the classical Chebyshev polynomial T_m, the module works with its
monic rescaling in t = 2x:

    cos2_poly(m):   C_m(2 cos a) = 2 cos(m a)        (C_0 = 2, monic for m>=1)

which keeps all arithmetic over the integers.  halved_cyclotomic(m) rewrites
the palindromic cyclotomic polynomial Phi_m in the variable y = x + 1/x,
producing the monic minimal polynomial of 2cos(2*pi/m); applied to index 2d
it yields the minimal polynomial of 2cos(pi/d).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


class IntPoly:
    """Dense integer polynomial, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "IntPoly(" + " + ".join(terms) + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(
            a + b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(
            a - b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def div_exact(self, divisor: "IntPoly") -> "IntPoly":
        """Exact division by a monic divisor; raises if the remainder is nonzero."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dd = divisor.degree()
        out = [0] * max(len(rem) - dd, 0)
        for top in range(len(rem) - 1, dd - 1, -1):
            c = rem[top]
            if c:
                out[top - dd] = c
                for i, dc in enumerate(divisor.coeffs):
                    rem[top - dd + i] -= c * dc
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(out)

    # -- evaluation --------------------------------------------------------

    def eval_at(self, x):
        """Horner evaluation; works for int, Fraction, float inputs."""
        acc = 0 * x if self.coeffs else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def chebyshev_T(m: int) -> IntPoly:
    """Chebyshev polynomial of the first kind: T_m(cos x) = cos(m x)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _chebyshev_T(m)


@lru_cache(maxsize=None)
def _chebyshev_T(m: int) -> IntPoly:
    if m == 0:
        return IntPoly((1,))
    if m == 1:
        return IntPoly((0, 1))
    two_x = IntPoly((0, 2))
    return two_x * _chebyshev_T(m - 1) - _chebyshev_T(m - 2)


@lru_cache(maxsize=None)
def cos2_poly(m: int) -> IntPoly:
    """Monic integer polynomial C_m with C_m(2 cos a) = 2 cos(m a)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return IntPoly((2,))
    if m == 1:
        return IntPoly((0, 1))
    y = IntPoly((0, 1))
    return y * cos2_poly(m - 1) - cos2_poly(m - 2)


def euler_totient(m: int) -> int:
    """Euler's phi by trial-division factorisation."""
    if m < 1:
        raise ValueError("m must be positive")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            result -= result // p
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def cyclotomic_phi(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, by exact division of x^m - 1."""
    if m < 1:
        raise ValueError("m must be positive")
    return _cyclotomic_phi(m)


@lru_cache(maxsize=None)
def _cyclotomic_phi(m: int) -> IntPoly:
    xm1 = IntPoly([-1] + [0] * (m - 1) + [1])
    if m == 1:
        return xm1
    quot = xm1
    for e in range(1, m):
        if m % e == 0:
            quot = quot.div_exact(_cyclotomic_phi(e))
    return quot


@lru_cache(maxsize=None)
def halved_cyclotomic(m: int) -> IntPoly:
    """Phi_m rewritten in y = x + 1/x: the minimal polynomial of 2cos(2*pi/m).

    For m >= 3 the cyclotomic polynomial is palindromic of even degree and
    x^k + x^-k = C_k(y), so the rewrite stays over the integers.  The two
    non-palindromic indices get the linear polynomials with roots 2cos(0)
    and 2cos(pi).
    """
    if m == 1:
        return IntPoly((-2, 1))
    if m == 2:
        return IntPoly((2, 1))
    phi = cyclotomic_phi(m)
    cs = phi.coeffs
    deg = phi.degree()
    if deg % 2 != 0:
        raise ValueError(f"Phi_{m} has odd degree; cannot halve")
    half = deg // 2
    for k in range(half + 1):
        if cs[half - k] != cs[half + k]:
            raise ValueError(f"Phi_{m} is not palindromic")
    out = cs[half] * IntPoly((1,))
    for k in range(1, half + 1):
        out = out + cs[half + k] * cos2_poly(k)
    return out


def real_min_poly(d: int) -> IntPoly:
    """Monic minimal polynomial of 2cos(pi/d); degree phi(2d)/2."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return halved_cyclotomic(2 * d)


def watkins_zeitlin_check(n: int) -> bool:
    """Check T_{n+1} - T_n = 2^n * prod_{e | 2n+1} psi_e exactly.

    Both sides are rescaled to the variable t = 2x, where they become the
    monic integer identity C_{n+1} - C_n = prod over divisors of the halved
    cyclotomic polynomials, and compared coefficientwise.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = 2 * n + 1
    lhs = cos2_poly(n + 1) - cos2_poly(n)
    rhs = IntPoly((1,))
    for e in range(1, m + 1):
        if m % e == 0:
            rhs = rhs * halved_cyclotomic(e)
    if lhs != rhs:
        return False
    # The rescaling above is equivalent to the stated identity; spot-check it
    # once with exact rational arithmetic at x = 1/2 to guard the bookkeeping.
    x = Fraction(1, 2)
    lhs_q = chebyshev_T(n + 1).eval_at(x) - chebyshev_T(n).eval_at(x)
    rhs_q = Fraction(2) ** n
    for e in range(1, m + 1):
        if m % e == 0:
            p = halved_cyclotomic(e)
            rhs_q *= p.eval_at(2 * x) / Fraction(2) ** p.degree()
    return lhs_q == rhs_q
