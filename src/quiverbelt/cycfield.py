"""Exact arithmetic in the real cyclotomic fields F_d = Q(2 cos(pi/d)).

An element is stored as an integer coefficient vector in the power basis
{1, c, c^2, ...} of c = 2 cos(pi/d), reduced modulo the monic minimal
polynomial of c, together with a positive common denominator.  The vector
and denominator are kept coprime, so two elements of the same level are
equal iff their representations are equal.  A sum, difference or product
is brought to that form once, with one content gcd (none over
denominator 1), without going back through the constructor.

Each level multiplies through its own `LevelContext.product` (see
quiverbelt.kernels).  Up to degree 4, which covers the planar and
spherical levels d = 3..8, 12 and 15, it is straight-line code generated
from the level's reduction rows: a degree-2 product takes about 0.2 us
instead of 1.8 us for the convolution and reduction loops.  Above degree 4
it keeps the loops, since generating the code (0.06-0.14 ms at degree
<= 4, 4 ms at degree 26) pays off only after about 35-60 products, which
many high-degree levels never make.

Signs of nonzero elements are decided by evaluating the coefficient
polynomial on a certified dyadic enclosure of c, doubling the enclosure
precision until the resulting interval excludes zero.  Zero is decided
symbolically first, which makes the loop terminate: a nonzero reduced
vector of degree below deg(mu_d) cannot vanish at c.  The enclosure is
a dyadic interval, integer numerators over a power of two.  A refinement
to a finer width takes the cell of the interval's t-fold halving that
holds c: Newton's iteration on mu_d, in integer fixed point, proposes the
cell, and the signs of mu_d at its two ends, by exact integer Horner,
certify it.  c is the only root of mu_d in the interval, so the certified
cell is the one that bisection reaches, and bisection (one Horner per
halving) remains the fallback where the certificate refuses: rational c
at d = 2 and 3, or a cell end within Newton's guard bits of c.  Float
values come from the same enclosure, narrowed until the bounds on the
value agree to a relative 2^-60.

Inverses run the extended Euclidean algorithm on the numerator and mu_d
with primitive pseudo-remainders, so their integers stay near the size of
the answer.  Determinants of field matrices use Gaussian elimination with
one inverse per pivot.  Q-ranks and the integral-basis solve use
fraction-free (Bareiss) elimination on integer matrices, whose divisions
are all exact.  All of these run on Python ints alone.  The integer rows of
2cos(t*pi/d), t = 0..d, come from one table per level, built on first use
by the Chebyshev recurrence; sin(k*pi/d)/sin(pi/d) is a sum of its rows.

Elements of different levels never compare equal silently; binary
arithmetic lifts both operands to the lcm level via c_d = C_{L/d}(c_L),
but == and hash require matching levels and raise otherwise.  Code that
mixes levels (matrices, seeds) lifts once at its own boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import cos, gcd, inf, lcm, pi
from operator import mul

from quiverbelt import kernels
from quiverbelt.intpoly import euler_totient, real_min_poly

_INITIAL_SIGN_BITS = 64
_MAX_SIGN_BITS = 1 << 20
# Newton's root location: guard bits below the cell scale, and a cap on
# the steps (from a 28-bit seed, 2^20 bits take about 16)
_GUARD_BITS = 16
_NEWTON_STEPS = 64


def _initial_sign_bits() -> int:
    """Initial precision of the sign oracle; perfbench's tracer counts
    enclosures above it as escalations."""
    return _INITIAL_SIGN_BITS


class LevelContext:
    """Per-level data: minimal polynomial, reduction table, root enclosure."""

    __slots__ = (
        "d", "deg", "mu", "pow_table", "product", "_rows", "c_float",
        "_lo", "_hi", "_shift", "_bits", "_slo",
    )

    def __init__(self, d: int):
        if d < 2:
            raise ValueError("level must be at least 2")
        self.d = d
        mu = real_min_poly(d)
        self.mu = mu.coeffs
        self.deg = mu.degree()
        assert self.deg == euler_totient(2 * d) // 2
        # _rows[j] = integer vector of c^(deg + j) reduced mod mu; grown on
        # demand.  pow_table keeps the slice products of two reduced vectors
        # need, from which the level's product is built.
        self._rows = [tuple(-c for c in self.mu[:-1])]
        self._extend_rows(max(self.deg - 1, 1))
        self.pow_table = tuple(self._rows[: max(self.deg - 1, 1)])
        # product(a, b): the reduced product of two vectors as a tuple,
        # straight-line code for this level up to kernels.UNROLL_MAX_DEG
        self.product = kernels.product_for(self.pow_table, self.deg)
        self.c_float = 2.0 * cos(pi / d)
        # root enclosure [_lo/2^_shift, _hi/2^_shift], refined to _bits;
        # while it is open, _slo is the sign of mu_d at _lo, which no
        # refinement changes
        self._lo: int | None = None
        self._hi: int | None = None
        self._shift = 0
        self._bits = 0
        self._slo = 0

    def _extend_rows(self, count: int) -> None:
        while len(self._rows) < count:
            self._rows.append(tuple(_times_c(self._rows[-1], self.mu)))

    def rows_for(self, tail_len: int):
        """Reduction rows covering a coefficient tail of the given length."""
        if tail_len > len(self._rows):
            self._extend_rows(tail_len)
        return tuple(self._rows)

    def enclosure(self, bits: int) -> tuple[int, int, int]:
        """Dyadic interval [lo/2^s, hi/2^s] around c of width <= 2^-bits,
        returned as (lo, hi, s) with s minimal.  It is certified by a sign
        change of the minimal polynomial (an exact hit collapses it to
        lo == hi).  The interval is the cell of the t-fold halving of the
        current one that holds c, for the fewest halvings t that reach the
        width.  Newton's method proposes that cell and two exact signs of
        mu_d at its ends certify it: c is the only root of mu_d in the
        current interval, so the one cell with a sign change is the cell
        bisection reaches.  When the certificate refuses the proposal,
        bisection makes the t halvings.  Both keep the low end on the side
        of c it started on, so the sign there is the one `_seed_enclosure`
        recorded."""
        if self._lo is None:
            self._seed_enclosure()
        if self._lo == self._hi or self._bits >= bits:
            return self._lo, self._hi, self._shift
        mu, lo, hi, s, slo = self.mu, self._lo, self._hi, self._shift, self._slo
        gap = hi - lo
        # the fewest halvings with gap / 2^(s + t) <= 2^-bits
        t = max(0, bits + (gap - 1).bit_length() - s)
        k = _newton_cell(mu, lo, gap, s, t)
        cell = (lo << t) + k * gap
        if (
            0 <= k < 1 << t
            and _dyadic_sign(mu, cell, s + t) == slo
            and _dyadic_sign(mu, cell + gap, s + t) == -slo
        ):
            lo, hi, s = cell, cell + gap, s + t
        else:
            lo, hi, s = _bisect(mu, lo, hi, s, slo, t)
        self._lo, self._hi, self._shift = _reduce_dyadic(lo, hi, s)
        self._bits = max(self._bits, bits)
        return self._lo, self._hi, self._shift

    def _seed_enclosure(self) -> None:
        num, den = self.c_float.as_integer_ratio()
        exponent = den.bit_length() - 1
        s = max(exponent, 28)
        center = num << (s - exponent)
        delta = 1 << (s - 28)
        # The nearest other root of mu_d is at distance >= 32/d^2, far above
        # the float error of the seed, so a few widenings always bracket c.
        for _ in range(64):
            lo, hi = center - delta, center + delta
            slo, shi = _dyadic_sign(self.mu, lo, s), _dyadic_sign(self.mu, hi, s)
            if slo == 0:
                hi = lo
            elif shi == 0:
                lo = hi
            elif slo == shi:
                delta *= 2
                continue
            self._lo, self._hi, self._shift = _reduce_dyadic(lo, hi, s)
            self._slo = slo
            return
        raise RuntimeError(f"failed to bracket 2cos(pi/{self.d})")


def _times_c(vec, mu) -> list:
    """c * vec, reduced modulo the monic minimal polynomial `mu`."""
    top = vec[-1]
    shifted = [0, *vec[:-1]]
    if top:
        shifted = [v - top * m for v, m in zip(shifted, mu)]
    return shifted


def _inverse_cofactor(num, mu) -> tuple[list, int]:
    """(s, r) with s * num == r modulo mu, r a nonzero integer, for a
    nonzero `num` of degree below that of the irreducible `mu`.

    Extended Euclid on (mu, num) with primitive pseudo-remainders.  Each
    remainder r_i carries a cofactor s_i with s_i * num == r_i (mod mu),
    starting from (mu, 0) and (num, 1).  A step replaces r_0 by
    f0 * r_0 - f1 * x^shift * r_1, where f0 : f1 is the ratio of the
    leading coefficients of r_1 and r_0 in lowest terms, and s_0 alike; the
    congruence holds and the leading term cancels.  A remainder and its
    cofactor are divided by their common content, which keeps the integers
    near the size of the answer.  mu is irreducible, so the last nonzero
    remainder is a constant.  That is O(deg^2) integer operations, against
    O(deg^3) for elimination on the multiplication matrix, whose minors
    grow to about deg times the coefficient size."""
    r0, s0 = list(mu), []
    r1, s1 = list(num), [1]
    while not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        n1, lead = len(r1), r1[-1]
        while len(r0) >= n1:
            shift = len(r0) - n1
            g = gcd(lead, r0[-1])
            f0, f1 = lead // g, r0[-1] // g
            r0 = _combine(f0, r0, f1, r1, shift)
            s0 = _combine(f0, s0, f1, s1, shift)
        g = gcd(*r0, *s0)
        if g > 1:
            r0 = [v // g for v in r0]
            s0 = [v // g for v in s0]
        r0, s0, r1, s1 = r1, s1, r0, s0
    return s1, r1[0]


def _combine(f0: int, u, f1: int, v, shift: int) -> list:
    """f0 * u - f1 * x^shift * v on coefficient lists, lowest degree first,
    without trailing zeros."""
    out = [f0 * a for a in u] if f0 != 1 else list(u)
    if len(out) < len(v) + shift:
        out.extend([0] * (len(v) + shift - len(out)))
    for i, b in enumerate(v, shift):
        out[i] -= f1 * b
    while out and not out[-1]:
        out.pop()
    return out


def _dyadic_sign(coeffs, x: int, s: int) -> int:
    """Sign of the polynomial at x/2^s, by integer Horner on the value
    scaled by 2^(s*degree)."""
    acc = coeffs[-1]
    scale = 1
    for c in reversed(coeffs[:-1]):
        scale <<= s
        acc = acc * x + c * scale
    return (acc > 0) - (acc < 0)


def _newton_cell(mu, lo: int, gap: int, s: int, t: int) -> int:
    """Index k of the cell [lo 2^t + k gap, lo 2^t + (k + 1) gap] / 2^(s+t)
    in which Newton's iteration on mu, started at the midpoint of
    [lo, lo + gap] / 2^s, settles; -1 if the derivative vanishes.  The
    iteration runs on integers at scale 2^p.  Truncated Horner loses up
    to 2^deg units of 2^-p near |x| = 2, so p keeps deg + 16 guard bits
    below the cell scale s + t.  A step of m bits leaves an error of
    about 2^(2m - p) units, so the iteration stops at the first step of
    at most p / 2 bits.  The index is a proposal, which the caller certifies."""
    deg = len(mu) - 1
    p = s + t + deg + _GUARD_BITS
    x = (2 * lo + gap) << (p - s - 1)
    for _ in range(_NEWTON_STEPS):
        f, df = mu[-1] << p, 0
        for a in reversed(mu[:-1]):
            df = (df * x >> p) + f
            f = (f * x >> p) + (a << p)
        if not df:
            return -1
        step = (f << p) // df
        x -= step
        if 2 * step.bit_length() <= p:
            break
    return ((x >> (p - s - t)) - (lo << t)) // gap


def _bisect(mu, lo: int, hi: int, s: int, slo: int, t: int) -> tuple[int, int, int]:
    """t halvings of [lo/2^s, hi/2^s] toward the root of mu, whose sign at
    lo is slo, on the integer numerators: each step doubles both and takes
    their sum as the midpoint at scale s + 1.  An exact hit collapses the
    interval to lo == hi."""
    for _ in range(t):
        mid = lo + hi
        lo, hi, s = lo << 1, hi << 1, s + 1
        smid = _dyadic_sign(mu, mid, s)
        if smid == 0:
            return mid, mid, s
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi, s


def _reduce_dyadic(lo: int, hi: int, s: int) -> tuple[int, int, int]:
    """(lo, hi, s) with the common factors of two cancelled from the scale."""
    both = lo | hi
    zeros = min((both & -both).bit_length() - 1, s) if both else s
    return lo >> zeros, hi >> zeros, s - zeros


@lru_cache(maxsize=None)
def level_context(d: int) -> LevelContext:
    return LevelContext(d)


def _interval_horner(coeffs, lo: int, hi: int, s: int) -> tuple[int, int]:
    """Integer bounds (al, ah) on the polynomial over [lo/2^s, hi/2^s], at
    scale 2^(s*(len(coeffs) - 1)), by exact interval Horner; a point
    interval gives al == ah, the exact value."""
    scale = 1 << s
    al = ah = coeffs[-1]
    norm = 1
    for c in reversed(coeffs[:-1]):
        p1, p2, p3, p4 = al * lo, al * hi, ah * lo, ah * hi
        norm *= scale
        al = min(p1, p2, p3, p4) + c * norm
        ah = max(p1, p2, p3, p4) + c * norm
    return al, ah


class FieldElem:
    """Element of F_d = Q(2 cos(pi/d)) in canonical reduced form."""

    __slots__ = ("level", "num", "den", "_sign")

    def __init__(self, level: int, num, den: int = 1):
        ctx = level_context(level)
        self.level = level
        vec = list(num)
        if len(vec) > ctx.deg:
            vec = kernels.reduce_tail(vec, ctx.rows_for(len(vec) - ctx.deg), ctx.deg)
        elif len(vec) < ctx.deg:
            vec = vec + [0] * (ctx.deg - len(vec))
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            vec = [-v for v in vec]
        # the content of a zero vector is den, so zero gets denominator 1
        g = kernels.content(vec, den)
        if g > 1:
            vec = [v // g for v in vec]
            den //= g
        self.num = tuple(vec)
        self.den = den
        self._sign = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(level: int) -> "FieldElem":
        return _canonical(level, (0,) * level_context(level).deg, 1)

    @staticmethod
    def one(level: int) -> "FieldElem":
        return _canonical(level, (1,) + (0,) * (level_context(level).deg - 1), 1)

    @staticmethod
    def from_rational(level: int, value) -> "FieldElem":
        q = Fraction(value)
        deg = level_context(level).deg
        return FieldElem(level, [q.numerator] + [0] * (deg - 1), q.denominator)

    @staticmethod
    def from_coeffs(level: int, coeffs) -> "FieldElem":
        """Construct from rational coefficients in the power basis."""
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        vec = [int(f * den) for f in fracs]
        return FieldElem(level, vec, den)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return Fraction(self.num[0], self.den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            if other.level != self.level:
                raise ValueError("field elements of different levels; lift first")
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return self.is_rational() and Fraction(self.num[0], self.den) == q
        return NotImplemented

    def __hash__(self):
        return hash((self.level, self.num, self.den))

    def __repr__(self):
        ctx = level_context(self.level)
        terms = []
        for i, n in enumerate(self.num):
            if n == 0:
                continue
            q = Fraction(n, self.den)
            if i == 0:
                terms.append(str(q))
            elif i == 1:
                terms.append(f"{q}*c")
            else:
                terms.append(f"{q}*c^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"FieldElem(d={ctx.d}: {body})"

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other):
        if other.__class__ is FieldElem and other.level == self.level:
            return self, other
        if isinstance(other, (int, Fraction)):
            other = FieldElem.from_rational(self.level, other)
        elif not isinstance(other, FieldElem):
            return None, None
        if other.level == self.level:
            return self, other
        target = lcm(self.level, other.level)
        return self.lift(target), other.lift(target)

    # Each result is canonicalised once, by `_reduced`, without going
    # through __init__.  Equal denominators are kept rather than squared.

    def __add__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _reduced(a.level, tuple([x + y for x, y in zip(a.num, b.num)]), da)
        num = tuple([x * db + y * da for x, y in zip(a.num, b.num)])
        return _reduced(a.level, num, da * db)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _reduced(a.level, tuple([x - y for x, y in zip(a.num, b.num)]), da)
        num = tuple([x * db - y * da for x, y in zip(a.num, b.num)])
        return _reduced(a.level, num, da * db)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        neg = _canonical(self.level, tuple(-n for n in self.num), self.den)
        neg._sign = None if self._sign is None else -self._sign
        return neg

    def __mul__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        ctx = level_context(a.level)
        num = kernels.mul_reduce(a.num, b.num, ctx.product, ctx.deg)
        return _reduced(a.level, num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._coerced(other)
        if a is None:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = FieldElem.one(self.level)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> "FieldElem":
        """Multiplicative inverse by the extended Euclidean algorithm on
        num and mu (see `_inverse_cofactor`): s * num == r mod mu with r a
        nonzero integer, so 1/(num/den) = den * s / r."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        s, r = _inverse_cofactor(self.num, level_context(self.level).mu)
        return FieldElem(self.level, [self.den * v for v in s], r)

    # -- level handling ------------------------------------------------------

    def lift(self, target_level: int) -> "FieldElem":
        """Image in F_L for a level L divisible by this element's level."""
        if target_level == self.level:
            return self
        if target_level % self.level != 0:
            raise ValueError(f"cannot lift level {self.level} to {target_level}")
        return _substitute(self, target_level, target_level // self.level)

    # -- predicates ----------------------------------------------------------

    def sign(self) -> int:
        """Sign of the real embedding at c = 2 cos(pi/level)."""
        if self._sign is not None:
            return self._sign
        if self.is_zero():
            self._sign = 0
            return 0
        ctx = level_context(self.level)
        bits = _INITIAL_SIGN_BITS
        while bits <= _MAX_SIGN_BITS:
            lo, hi, shift = ctx.enclosure(bits)
            al, ah = _interval_horner(self.num, lo, hi, shift)
            if al > 0 or ah < 0:
                self._sign = 1 if al > 0 else -1
                return self._sign
            if lo == hi:
                break
            bits *= 2
        raise RuntimeError("sign determination failed to converge")

    def abs(self) -> "FieldElem":
        return -self if self.sign() < 0 else self

    def to_float(self) -> float:
        """The value, rounded from integer bounds that agree to a relative
        2^-60.  The numerator is evaluated by integer interval Horner over
        a certified dyadic enclosure of c and divided exactly, so large
        coefficients do not cancel as they do in double Horner, which
        reads 0.0 for F(90)*c - F(91) at d = 5.  The first enclosure is
        2^-(64 + log2 deg) wide, which bounds the error by 2^-60 times the
        coefficient scale sum |num_i| 2^i; the precision doubles until the
        bounds agree.  A value beyond the float range reads as +-inf."""
        if self.is_zero():
            return 0.0
        ctx = level_context(self.level)
        bits = 64 + ctx.deg.bit_length()
        while True:
            lo, hi, s = ctx.enclosure(bits)
            al, ah = _interval_horner(self.num, lo, hi, s)
            if (al > 0 and (ah - al) << 60 <= al) or (ah < 0 and (ah - al) << 60 <= -ah):
                try:
                    return al / (self.den << (s * (ctx.deg - 1)))
                except OverflowError:  # beyond the float range, as float("1e400")
                    return inf if al > 0 else -inf
            bits *= 2

    # -- serialisation -------------------------------------------------------

    def to_json(self):
        return {
            "level": self.level,
            "coeffs": [f"{Fraction(n, self.den)}" for n in self.num],
        }

    def key(self) -> str:
        """Compact canonical string, used by seed/matrix deduplication."""
        return ",".join(map(str, self.num)) + "/" + str(self.den)


def _canonical(level: int, num: tuple, den: int) -> FieldElem:
    """A FieldElem from a representation that is already canonical: `num`
    a reduced tuple of full length, coprime to the positive `den`."""
    elem = object.__new__(FieldElem)
    elem.level = level
    elem.num = num
    elem.den = den
    elem._sign = None
    return elem


def _reduced(level: int, num: tuple, den: int) -> FieldElem:
    """The FieldElem num/den for a reduced tuple `num` of full length and
    a positive `den`, divided by their common content: one gcd, none when
    den is 1.  The content of a zero vector is den, so zero gets den 1."""
    if den != 1:
        g = kernels.content(num, den)
        if g != 1:
            num = tuple([v // g for v in num])
            den //= g
    return _canonical(level, num, den)


def _substitute(elem: FieldElem, level: int, multiplier: int) -> FieldElem:
    """The coefficient polynomial of `elem` evaluated at g = 2cos(l*pi/L)
    in F_L (L = `level`, l = `multiplier`): sum_i num_i * g^i / den.

    g has denominator 1, so each power g^i is an integer vector of F_L.
    `_power_columns` tabulates them once per (L, l, number of powers);
    column j holds the j-th coefficient of g^0, g^1, ..., so coefficient
    j of the result is one integer dot product with `elem.num`, where
    Horner's rule needed a reduced product per coefficient."""
    cols = _power_columns(level, multiplier, len(elem.num))
    return FieldElem(level, [sum(map(mul, elem.num, col)) for col in cols], elem.den)


@lru_cache(maxsize=None)
def _power_columns(level: int, multiplier: int, count: int) -> tuple:
    """Columns of the integer rows g^0, ..., g^(count-1) of g =
    2cos(multiplier*pi/level) in F_level."""
    ctx = level_context(level)
    g = cos_multiple(level, multiplier).num
    power = (1,) + (0,) * (ctx.deg - 1)
    rows = [power]
    for _ in range(count - 1):
        power = kernels.mul_reduce(power, g, ctx.product, ctx.deg)
        rows.append(power)
    return tuple(zip(*rows))


# -- trigonometric elements ---------------------------------------------------


def _fold(d: int, k: int) -> int:
    """The t in [0, d] with cos(t*pi/d) == cos(k*pi/d): cosine has period
    2d in k and is even."""
    k %= 2 * d
    return min(k, 2 * d - k)


@lru_cache(maxsize=None)
def _cos_columns(d: int) -> tuple:
    """The integer vectors C_t of 2cos(t*pi/d), t = 0..d, stored by
    column: column i holds coefficient i of C_0, ..., C_d.  The vectors
    come from the recurrence C_{t+1} = c * C_t - C_{t-1}, C_0 = 2 and
    C_1 = c: one multiplication by c per vector."""
    ctx = level_context(d)
    unit = [1] + [0] * (ctx.deg - 1)
    rows = [[2 * v for v in unit], _times_c(unit, ctx.mu)]
    for _ in range(d - 1):
        rows.append([a - b for a, b in zip(_times_c(rows[-1], ctx.mu), rows[-2])])
    return tuple(zip(*rows))


@lru_cache(maxsize=None)
def cos_multiple(d: int, k: int) -> FieldElem:
    """2 cos(k*pi/d) as an element of F_d: entry _fold(d, k) of each column
    of the level's cosine table, an integer vector and so already
    canonical."""
    t = _fold(d, k)
    return _canonical(d, tuple(col[t] for col in _cos_columns(d)), 1)


@lru_cache(maxsize=None)
def sin_quotient(d: int, k: int) -> FieldElem:
    """sin(k*pi/d) / sin(pi/d) as an element of F_d (k >= 0).

    With a = pi/d, sin(ka)/sin(a) = sum_j exp(i(k-1-2j)a) over j < k,
    which pairs into 2cos(ta) over t = k-1, k-3, ... > 0, plus 1 when k
    is odd: an integer sum of entries _fold(d, t) of the level's cosine
    table, and so already canonical."""
    ts = [_fold(d, t) for t in range(k - 1, 0, -2)]
    num = [sum(col[t] for t in ts) for col in _cos_columns(d)]
    num[0] += k % 2
    return _canonical(d, tuple(num), 1)


def sin_ratio(d: int, k: int, l: int) -> FieldElem:
    """sin(k*pi/d) / sin(l*pi/d), exact."""
    denom = sin_quotient(d, l)
    if denom.is_zero():
        raise ZeroDivisionError(f"sin({l}*pi/{d}) vanishes")
    return sin_quotient(d, k) / denom


@lru_cache(maxsize=None)
def sin_product(d: int, k: int, l: int) -> FieldElem:
    """sin(k*pi/d) * sin(l*pi/d) as an element of F_d."""
    return (cos_multiple(d, k - l) - cos_multiple(d, k + l)) * Fraction(1, 4)


@lru_cache(maxsize=None)
def cos_value(d: int, k: int) -> FieldElem:
    """cos(k*pi/d) as an element of F_d."""
    return cos_multiple(d, k) * Fraction(1, 2)


@lru_cache(maxsize=None)
def inv_sin_sq(d: int, k: int) -> FieldElem:
    """1 / sin^2(k*pi/d) as an element of F_d, in closed form.

    Let a = k*pi/d, m = d / gcd(k, d) and u = exp(2ia), a primitive m-th
    root of unity; sin(a) = 0 iff m = 1.  For m > 1, multiplying by u - 1
    telescopes the sums over j = 0..m-1:

        sum_j j u^j   = m / (u - 1),
        sum_j j^2 u^j = (m^2 - 2m) / (u - 1) - 2m / (u - 1)^2,

    so sum_j j(m - j) u^j = 2m u / (u - 1)^2 = -m / (2 sin^2 a), because
    (u - 1)^2 = -4u sin^2 a.  The weights j(m - j) are symmetric under
    j -> m - j, so the sum is real and equals half of
    sum_j j(m - j) 2cos(2ja):

        1 / sin^2 a = -(1/m) sum_{j=1}^{m-1} j(m - j) 2cos(2jk*pi/d),

    one integer combination of the vectors C_t over m.  The weights are
    gathered per folded index t = _fold(d, 2jk), and each coefficient of the
    sum is one integer dot product with a column of the cosine table."""
    m = d // gcd(k, d)
    if m == 1:
        raise ZeroDivisionError(f"sin({k}*pi/{d}) vanishes")
    weights = [0] * (d + 1)
    for j in range(1, m):
        weights[_fold(d, 2 * j * k)] -= j * (m - j)
    return FieldElem(d, [sum(map(mul, weights, col)) for col in _cos_columns(d)], m)


# -- Galois action -------------------------------------------------------------


class InvalidMultiplier(ValueError):
    pass


class GaloisMap:
    """The automorphism of F_d determined by 2cos(pi/d) -> 2cos(l*pi/d).

    Requires gcd(l, 2d) = 1; multipliers l and -l induce the same map and
    are identified.  On the elements 2cos(2r*pi/d) it acts by r -> r*l,
    so for odd d an even multiplier coprime to d names the same
    automorphism as l + d and is normalised to it.
    """

    __slots__ = ("level", "multiplier")

    def __init__(self, level: int, multiplier: int):
        if gcd(multiplier, 2 * level) != 1:
            if level % 2 == 1 and gcd(multiplier, level) == 1:
                multiplier += level
            else:
                raise InvalidMultiplier(
                    f"multiplier {multiplier} not coprime to {2 * level}"
                )
        m = multiplier % (2 * level)
        self.level = level
        self.multiplier = min(m, 2 * level - m)

    def __repr__(self):
        return f"GaloisMap(d={self.level}, l={self.multiplier})"

    def __eq__(self, other):
        return (
            isinstance(other, GaloisMap)
            and other.level == self.level
            and other.multiplier == self.multiplier
        )

    def __hash__(self):
        return hash((self.level, self.multiplier))

    def apply(self, elem: FieldElem) -> FieldElem:
        if elem.level != self.level:
            raise ValueError("element level does not match the Galois map")
        return _substitute(elem, self.level, self.multiplier)


# -- exact linear algebra over Q ----------------------------------------------


def _common_level(elems):
    level = 1
    for e in elems:
        level = lcm(level, e.level)
    return [e.lift(level) if e.level != level else e for e in elems]


def rational_rank(elems) -> int:
    """Dimension over Q of the span of field elements, by exact elimination
    on their numerators (scaling an element by its denominator keeps the
    span's dimension)."""
    elems = list(elems)
    if not elems:
        return 0
    return _int_rank([e.num for e in _common_level(elems)])


def _int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination:
    every division by the previous pivot is exact."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prev = _bareiss_step(rows[rank], rows[rank + 1 :], col, prev)
        rank += 1
        if rank == len(rows):
            break
    return rank


def _bareiss_step(top, below, col: int, prev: int) -> int:
    """Eliminate column `col` from the rows `below` with the pivot row
    `top`, dividing by the previous pivot `prev` (exact by Sylvester's
    identity); returns the new pivot."""
    pv = top[col]
    tail = top[col + 1 :]
    for row in below:
        f = row[col]
        row[col + 1 :] = [(a * pv - f * b) // prev for a, b in zip(row[col + 1 :], tail)]
    return pv


def _int_solve(rows, rhs) -> tuple[list[int], int]:
    """Solve a square nonsingular integer system fraction-free: returns
    (x, det) with rows . x == det * rhs, where det = +-det(rows), by Bareiss
    elimination and back-substitution with exact divisions."""
    n = len(rows)
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot is None:
            raise ValueError("singular system")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        prev = _bareiss_step(aug[k], aug[k + 1 :], k, prev)
    det = prev
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = det * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * x[j]
        x[i] = acc // row[i]
    return x, det


def field_det(rows) -> FieldElem:
    """Determinant of a square FieldElem matrix by Gaussian elimination: one
    inverse per pivot, one product per eliminated entry, and the signed
    product of the pivots at the end."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(row) for row in rows]
    sign, det = 1, None
    for k in range(n):
        pivot = next((i for i in range(k, n) if not m[i][k].is_zero()), None)
        if pivot is None:
            return FieldElem.zero(rows[0][0].level)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        det = top[k] if det is None else det * top[k]
        if k == n - 1:
            break
        top_inv = top[k].inv()
        for row in m[k + 1 :]:
            if row[k].is_zero():
                continue
            f = row[k] * top_inv
            for j in range(k + 1, n):
                row[j] = row[j] - f * top[j]
    return det if sign > 0 else -det


# -- number-theoretic verification operations ----------------------------------


def units_up_to_half(d: int) -> list[int]:
    """U = {k in [1, (d-1)//2] : gcd(k, d) = 1}.

    For every d >= 3 this is also {k in [1, d//2] : gcd(k, d) = 1}: at even
    d the extra candidate d/2 shares the factor d/2 with d."""
    return [k for k in range(1, (d - 1) // 2 + 1) if gcd(k, d) == 1]


def verlinde_sum(n: int) -> FieldElem:
    """Exact sum of 1/sin^2(k*pi/(2n+1)) for k = 1..n."""
    if n < 1:
        raise ValueError("n must be positive")
    d = 2 * n + 1
    total = FieldElem.zero(d)
    for k in range(1, n + 1):
        total = total + inv_sin_sq(d, k)
    return total


def estimate_check(n: int) -> bool:
    """True iff 1/sin^2(a) strictly dominates the sum of the remaining
    1/sin^2(ka), a = pi/(2n+1): the leading-term estimate."""
    if n < 1:
        raise ValueError("n must be positive")
    d = 2 * n + 1
    rest = FieldElem.zero(d)
    for k in range(2, n + 1):
        rest = rest + inv_sin_sq(d, k)
    return (inv_sin_sq(d, 1) - rest).sign() == 1


def dedekind_det(n: int) -> FieldElem:
    """Exact determinant of the Galois-translate matrix of 1/sin^2(pi/d),
    d = 2n+1, indexed by the units U modulo plus/minus."""
    if n < 1:
        raise ValueError("n must be positive")
    d = 2 * n + 1
    units = units_up_to_half(d)

    def fold(t: int) -> int:
        t %= d
        return min(t, d - t)

    rows = []
    for r in units:
        r_inv = pow(r, -1, d)
        rows.append([inv_sin_sq(d, fold(r_inv * s)) for s in units])
    return field_det(rows)


@lru_cache(maxsize=None)
def _integral_basis_matrix(d: int):
    """Integer matrix whose columns express an integral basis of O_K in the
    power basis of c, for odd d.

    The conjugate set {2cos(2u*pi/d) : u in U} is used when it is linearly
    independent (all odd d <= 15 except d = 9, where it sums to zero).  The
    fallback is the power basis of 2cos(2*pi/d), whose Z-span is the ring of
    integers of the maximal real subfield.
    """
    units = units_up_to_half(d)
    ctx = level_context(d)
    if len(units) != ctx.deg:
        raise RuntimeError("integral basis size mismatch")
    conj = [cos_multiple(d, 2 * u) for u in units]
    if _int_rank([e.num for e in conj]) == ctx.deg:
        basis = conj
    else:
        beta = cos_multiple(d, 2)
        basis = [FieldElem.one(d)]
        for _ in range(ctx.deg - 1):
            basis.append(basis[-1] * beta)
    return tuple(zip(*(b.num for b in basis)))


def conjugate_basis_rank(d: int) -> int:
    """Q-rank of the set {2cos(2u*pi/d) : u in U}; equals deg(F_d) exactly
    when the set really is a basis."""
    return rational_rank([cos_multiple(d, 2 * u) for u in units_up_to_half(d)])


def integrality_check(d: int, k: int) -> tuple[bool, bool]:
    """Coordinates of sin(k a)/sin(a), a = pi/d (odd d), in an integral
    basis of O_K: (all integral?, inverse also integral?)."""
    if d < 3 or d % 2 == 0:
        raise ValueError("d must be odd and >= 3")
    n = (d - 1) // 2
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    matrix = _integral_basis_matrix(d)
    ratio = sin_ratio(d, k, 1)

    def integral(elem: FieldElem) -> bool:
        # coordinates are x / (det * den): integral iff each x is a multiple
        x, det = _int_solve(matrix, elem.num)
        return all(v % (det * elem.den) == 0 for v in x)

    is_integer = integral(ratio)
    is_unit = is_integer and integral(ratio.inv())
    return is_integer, is_unit
