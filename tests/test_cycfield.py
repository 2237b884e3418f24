import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from quiverbelt import kernels
from quiverbelt.cycfield import (
    FieldElem,
    GaloisMap,
    InvalidMultiplier,
    LevelContext,
    _int_solve,
    _times_c,
    conjugate_basis_rank,
    cos_multiple,
    dedekind_det,
    estimate_check,
    field_det,
    integrality_check,
    inv_sin_sq,
    level_context,
    rational_rank,
    sin_product,
    sin_quotient,
    sin_ratio,
    units_up_to_half,
    verlinde_sum,
)
from quiverbelt.intpoly import cos2_poly, euler_totient


def embed(e):
    return e.to_float()


def test_minimal_polynomial_root_and_degree():
    for d in range(2, 61):
        ctx = level_context(d)
        assert ctx.deg == euler_totient(2 * d) // 2
        c = cos_multiple(d, 1)
        acc = FieldElem.zero(d)
        for coeff in reversed(ctx.mu):
            acc = acc * c + coeff
        assert acc.is_zero()


def test_cos_multiple_values():
    assert cos_multiple(5, 0) == 2
    assert cos_multiple(5, 5) == -2
    assert abs(embed(cos_multiple(5, 1)) - 2 * math.cos(math.pi / 5)) < 1e-12
    assert abs(embed(cos_multiple(7, 3)) - 2 * math.cos(3 * math.pi / 7)) < 1e-12


def test_canonical_form_equality():
    a = cos_multiple(5, 1)
    assert a * a == a + 1  # c^2 = c + 1 for the golden ratio
    assert (a - a).is_zero()
    assert FieldElem.from_rational(5, Fraction(2, 3)) == Fraction(2, 3)


def test_arithmetic_against_numeric_oracle():
    rng = random.Random(7)
    for d in (5, 7, 12):
        deg = level_context(d).deg
        for _ in range(20):
            a = FieldElem.from_coeffs(
                d, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
            )
            b = FieldElem.from_coeffs(
                d, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
            )
            assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-9
            assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-7
            if not b.is_zero():
                assert abs(embed(a / b) - embed(a) / embed(b)) < 1e-7


def coeff_draw(rng, deg):
    """A coefficient vector mixing zeros, small entries and entries of 60
    to 72 bits, of either sign."""
    return tuple(
        rng.choice((0, rng.randint(-9, 9), rng.choice((-1, 1)) * rng.randint(1 << 60, 1 << 72)))
        for _ in range(deg)
    )


def naive_product(a, b, mu):
    """a * b reduced modulo the monic `mu` by schoolbook division, without
    the level's reduction rows."""
    deg = len(mu) - 1
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, deg - 1, -1):
        lead = prod[top]
        for i, m in enumerate(mu):
            prod[top - deg + i] -= lead * m
    return tuple(prod[:deg])


def test_level_product_matches_the_convolution_and_reduction_loops():
    rng = random.Random(22)
    for d in range(2, 65):
        ctx = level_context(d)
        deg = ctx.deg
        # straight-line code up to the degree cut, the loops above it
        generated = ctx.product.__code__.co_filename == f"<product of degree {deg}>"
        assert generated == (deg <= kernels.UNROLL_MAX_DEG)
        zero, one = (0,) * deg, (1,) + (0,) * (deg - 1)
        for _ in range(4):
            a, b = coeff_draw(rng, deg), coeff_draw(rng, deg)
            for x, y in ((a, b), (b, a), (a, a), (a, zero), (one, b)):
                got = ctx.product(x, y)
                assert type(got) is tuple
                want = tuple(kernels.reduce_tail(kernels.poly_mul(x, y), ctx.pow_table, deg))
                assert got == want == naive_product(x, y, ctx.mu)


def assert_canonical(e, level):
    deg = level_context(level).deg
    assert e.level == level
    assert type(e.num) is tuple and len(e.num) == deg
    assert e.den > 0 and math.gcd(*e.num, e.den) == 1
    assert e.den == 1 or any(e.num)
    assert e == FieldElem(level, list(e.num), e.den)


@pytest.mark.parametrize("level", [5, 7, 8, 15, 17, 27])
def test_sums_differences_and_products_are_canonical(level):
    # levels of degree 2, 3, 4, 4 (generated products), 8 and 9 (loops)
    rng = random.Random(level)
    deg = level_context(level).deg
    for _ in range(12):
        a = FieldElem(level, list(coeff_draw(rng, deg)), rng.choice((1, 2, 6, 1 << 61)))
        b = FieldElem(level, list(coeff_draw(rng, deg)), rng.choice((1, 3, 6, a.den)))
        for x, y in ((a, b), (a, a), (b, -b), (a, FieldElem.zero(level))):
            nx, ny, dx, dy = x.num, y.num, x.den, y.den
            for got, raw, den in (
                (x + y, [p * dy + q * dx for p, q in zip(nx, ny)], dx * dy),
                (x - y, [p * dy - q * dx for p, q in zip(nx, ny)], dx * dy),
                (x * y, naive_product(nx, ny, level_context(level).mu), dx * dy),
            ):
                assert_canonical(got, level)
                assert got == FieldElem(level, raw, den)
        assert (a - a).num == (0,) * deg and (a - a).den == 1


def bareiss_inverse(x):
    """1/x by fraction-free elimination on the multiplication matrix: column
    j holds num * c^j reduced mod mu, and M y = e_0 gives 1/num."""
    ctx = level_context(x.level)
    cols = [list(x.num)]
    for _ in range(ctx.deg - 1):
        cols.append(_times_c(cols[-1], ctx.mu))
    y, det = _int_solve(list(zip(*cols)), [1] + [0] * (ctx.deg - 1))
    return FieldElem(x.level, [x.den * v for v in y], det)


def test_inverse_matches_the_bareiss_solve_at_every_level():
    rng = random.Random(5)
    for d in range(2, 61):
        deg = level_context(d).deg
        draws = [
            [rng.randint(-99, 99) for _ in range(deg)],
            [rng.choice((0, 0, rng.randint(-99, 99))) for _ in range(deg - 1)] + [1],
            [rng.randint(-3, 3)] + [0] * (deg - 1),
        ]
        for num in draws:
            if any(num):
                x = FieldElem(d, num, rng.randint(1, 99))
                assert x.inv() == bareiss_inverse(x)


def test_field_axioms():
    c = cos_multiple(5, 1)
    assert c + 0 == c
    assert c * c.inv() == 1
    with pytest.raises(ZeroDivisionError):
        FieldElem.zero(5).inv()


def test_product_to_sum_identity_grid():
    for d in range(2, 31):
        step = max(1, d // 4)
        for a in range(0, d + 1, step):
            for b in range(0, d + 1, step):
                lhs = cos_multiple(d, a) * cos_multiple(d, b)
                rhs = cos_multiple(d, a + b) + cos_multiple(d, a - b)
                assert lhs == rhs


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", [40, 90])
def test_to_float_survives_cancellation(n):
    """F(n) * c - F(n+1) at d = 5 is -phi^-n for even n: double Horner
    cancels it to 0.0, the enclosure keeps its sign and value."""
    x = FieldElem(5, [-fibonacci(n + 1), fibonacci(n)])
    with localcontext() as ctx:
        ctx.prec = 60
        phi = (1 + Decimal(5).sqrt()) / 2
        exact = -(phi ** -n)
    value = x.to_float()
    assert x.sign() == -1 and value < 0
    assert abs(Decimal(value) / exact - 1) < Decimal("1e-12")


@pytest.mark.parametrize("sign", [1, -1])
def test_to_float_reads_values_beyond_the_float_range_as_inf(sign):
    # as float("1e400") does; 10^400 * 2cos(pi/5) has two coefficients
    assert FieldElem.from_rational(2, sign * 10**400).to_float() == sign * math.inf
    assert (cos_multiple(5, 1) * (sign * 10**400)).to_float() == sign * math.inf


def test_sign_frozen_values():
    # 2cos(2pi/5) = 0.618..., so subtracting 1 goes negative
    assert (cos_multiple(5, 2) - 1).sign() == -1
    assert cos_multiple(5, 3).sign() == -1
    assert FieldElem.zero(9).sign() == 0
    assert cos_multiple(60, 1).sign() == 1


def test_sign_matches_float_oracle():
    rng = random.Random(3)
    for d in (5, 9, 13):
        deg = level_context(d).deg
        for _ in range(40):
            e = FieldElem.from_coeffs(
                d, [Fraction(rng.randint(-5, 5)) for _ in range(deg)]
            )
            f = embed(e)
            if abs(f) > 1e-6:
                assert e.sign() == (1 if f > 0 else -1)


def test_sign_near_zero_needs_precision():
    # c - (a/b) with a/b a convergent of 2cos(pi/60): tiny but nonzero
    c = cos_multiple(60, 1)
    close = Fraction(2 * math.cos(math.pi / 60)).limit_denominator(10**12)
    assert (c - close).sign() != 0


def test_sin_ratio_values():
    assert sin_ratio(5, 2, 2) == 1
    assert sin_ratio(5, 2, 1) == cos_multiple(5, 1)  # double angle
    expect = math.sin(3 * math.pi / 5) / math.sin(math.pi / 5)
    assert abs(embed(sin_ratio(5, 3, 1)) - expect) < 1e-12
    assert sin_ratio(7, 7, 1).is_zero()
    with pytest.raises(ZeroDivisionError):
        sin_ratio(5, 2, 5)


def test_level_lifting():
    one_at_3 = cos_multiple(3, 1)  # the rational 1
    assert one_at_3.lift(15) == FieldElem.one(15)
    x = cos_multiple(15, 3)
    assert x == cos_multiple(5, 1).lift(15)
    mixed = cos_multiple(3, 1) * cos_multiple(5, 1)
    assert mixed.level == 15
    assert abs(embed(mixed) - 2 * math.cos(math.pi / 5)) < 1e-12


def test_cross_level_equality_raises():
    with pytest.raises(ValueError):
        cos_multiple(5, 1) == cos_multiple(7, 1)


def test_galois_action():
    assert GaloisMap(7, 1).apply(inv_sin_sq(7, 2)) == inv_sin_sq(7, 2)
    # sigma_l(1/sin^2(r a)) = 1/sin^2(r l a)
    assert GaloisMap(7, 2).apply(inv_sin_sq(7, 1)) == inv_sin_sq(7, 2)
    assert GaloisMap(5, 3).apply(cos_multiple(5, 2)) == cos_multiple(5, 6)
    with pytest.raises(InvalidMultiplier):
        GaloisMap(5, 5)


def test_galois_is_a_ring_map_and_permutes_the_basis():
    for d in (5, 7, 9):
        for l in units_up_to_half(d):
            if math.gcd(l, 2 * d) != 1:
                continue
            g = GaloisMap(d, l)
            a = cos_multiple(d, 2)
            b = inv_sin_sq(d, 1)
            assert g.apply(a * b) == g.apply(a) * g.apply(b)
            assert g.apply(a + b) == g.apply(a) + g.apply(b)
            basis = {cos_multiple(d, 2 * k) for k in units_up_to_half(d)}
            image = {g.apply(e) for e in basis}
            assert image == basis


def test_inv_sin_sq_closed_form_matches_the_general_inverse():
    """The closed form against `inv` of sin^2 for every residue of k
    twice over; it raises exactly when sin(k*pi/d) vanishes."""
    for d in range(2, 61):
        inverses = {}
        for k in range(-2 * d + 1, 2 * d):
            if k % d == 0:
                with pytest.raises(ZeroDivisionError):
                    inv_sin_sq(d, k)
                continue
            s2 = sin_product(d, k, k)
            if s2 not in inverses:
                inverses[s2] = s2.inv()
            assert inv_sin_sq(d, k) == inverses[s2]


def test_folded_cos_multiple_matches_the_unfolded_polynomial():
    for d in range(2, 61):
        for k in range(-4 * d, 4 * d + 1):
            assert cos_multiple(d, k) == FieldElem.from_intpoly(d, cos2_poly(abs(k)))


def test_sin_quotient_matches_the_recurrence_and_the_float_quotient():
    """sin(k*pi/d)/sin(pi/d) for k = 0..2d-1 against S_{k+1} = c S_k -
    S_{k-1} from S_0 = 0, S_1 = 1, and against the float quotient: zero at
    k = 0 and k = d, negative for d < k < 2d."""
    for d in range(2, 61):
        c = cos_multiple(d, 1)
        s, s_next = FieldElem.zero(d), FieldElem.one(d)
        for k in range(2 * d):
            value = sin_quotient(d, k)
            assert value == s
            expect = math.sin(k * math.pi / d) / math.sin(math.pi / d)
            assert abs(value.to_float() - expect) < 1e-9
            s, s_next = s_next, c * s_next - s


def horner(elem, g):
    """The coefficient polynomial of `elem` at `g` by Horner's rule."""
    acc = FieldElem.zero(g.level)
    for n in reversed(elem.num):
        acc = acc * g + n
    return acc * Fraction(1, elem.den)


@st.composite
def elements(draw, level):
    deg = level_context(level).deg
    num = draw(st.lists(st.integers(-99, 99), min_size=deg, max_size=deg))
    return FieldElem(level, num, draw(st.integers(1, 99)))


@settings(deadline=None, database=None)
@given(st.integers(3, 60), st.integers(-120, 120), st.data())
def test_galois_maps_match_horner(level, multiplier, data):
    try:
        g = GaloisMap(level, multiplier)
    except InvalidMultiplier:
        reject()
    x = data.draw(elements(level))
    image = FieldElem.from_intpoly(level, cos2_poly(g.multiplier))
    assert g.apply(x) == horner(x, image)


@settings(deadline=None, database=None)
@given(st.integers(3, 60), st.data())
def test_lifts_match_horner_across_levels(level, data):
    mid = level * data.draw(st.integers(1, 60 // level))
    target = mid * data.draw(st.integers(1, 60 // mid))
    x = data.draw(elements(level))
    lifted = x.lift(target)
    assert lifted == horner(x, FieldElem.from_intpoly(target, cos2_poly(target // level)))
    assert x.lift(mid).lift(target) == lifted


def test_rational_rank():
    assert rational_rank([FieldElem.from_rational(5, q) for q in (1, 2, 3)]) == 1
    assert rational_rank([inv_sin_sq(5, 1), inv_sin_sq(5, 2)]) == 2
    assert rational_rank([inv_sin_sq(7, k) for k in (1, 2, 3)]) == 3
    assert rational_rank([]) == 0


@pytest.mark.parametrize("n", [1, 2, 5, 12, 25])
def test_verlinde_formula(n):
    assert verlinde_sum(n) == Fraction(2 * n * (n + 1), 3)


@pytest.mark.parametrize("n", [1, 2, 12, 25])
def test_estimate(n):
    assert estimate_check(n)


def test_dedekind_determinants():
    assert dedekind_det(1) == Fraction(4, 3)
    for n in range(1, 9):
        assert not dedekind_det(n).is_zero()


# the keys the fraction-free elimination gave before Gaussian elimination
# replaced it
DEDEKIND_KEYS = {
    1: "4/3",
    2: "-16,32/5",
    3: "128,0,0/1",
    4: "576,0,0/1",
    5: "281600,0,0,0,0/1",
    6: "-35409920,-28327936,56655872,14163968,-14163968,0/1",
    7: "-122880,-737280,0,245760/1",
    8: "398192541696,-1327308472320,-2389155250176,2654616944640,"
    "1592770166784,-1592770166784,-265461694464,265461694464/1",
    9: "118212514283520,0,0,0,0,0,0,0,0/1",
}


@pytest.mark.parametrize("n", sorted(DEDEKIND_KEYS))
def test_dedekind_det_keys_are_pinned(n):
    assert dedekind_det(n).key() == DEDEKIND_KEYS[n]


def bareiss_field_det(rows):
    """Determinant by fraction-free elimination over F_d: each entry is
    m[i][j] * m[k][k] - m[i][k] * m[k][j], divided by the previous pivot."""
    n = len(rows)
    level = rows[0][0].level
    m = [list(row) for row in rows]
    sign = 1
    prev = FieldElem.one(level)
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                return FieldElem.zero(level)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        inv_prev = prev.inv()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) * inv_prev
            m[i][k] = FieldElem.zero(level)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def random_matrix(rng, level, n):
    """An n x n matrix at `level`.  Zero entries are common; some draws zero
    the top-left entry, which forces a row swap; some make a row a
    combination of two others or zero a column, which makes it singular."""
    deg = level_context(level).deg

    def entry():
        if rng.random() < 0.3:
            return FieldElem.zero(level)
        num = [rng.randint(-9, 9) for _ in range(deg)]
        return FieldElem(level, num, rng.randint(1, 5))

    m = [[entry() for _ in range(n)] for _ in range(n)]
    shape = rng.choice(("plain", "swap", "combination", "zero-column"))
    if shape == "swap":
        m[0][0] = FieldElem.zero(level)
    elif shape == "combination" and n >= 3:
        a, b = entry(), entry()
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    elif shape == "zero-column":
        col = rng.randrange(n)
        for row in m:
            row[col] = FieldElem.zero(level)
    return m


def test_field_det_matches_fraction_free_elimination():
    rng = random.Random(11)
    singular = swapped = 0
    for level in (2, 5, 7, 12, 17):
        for n in range(1, 6):
            for _ in range(8):
                m = random_matrix(rng, level, n)
                det = field_det(m)
                assert det == bareiss_field_det(m)
                singular += det.is_zero()
                swapped += m[0][0].is_zero() and not det.is_zero()
    assert singular > 10 and swapped > 10


def test_integrality_frozen_verdicts():
    assert integrality_check(5, 2) == (True, True)
    assert integrality_check(7, 1) == (True, True)
    # sin(3a)/sin(a) at d=9 is an algebraic integer but not a unit
    assert integrality_check(9, 3) == (True, False)
    assert integrality_check(15, 6) == (True, False)


def test_integrality_units_for_coprime_k():
    for d in (5, 7, 9, 11, 13, 15):
        for k in units_up_to_half(d):
            assert integrality_check(d, k) == (True, True)


def test_conjugate_basis_counterexample_is_recorded():
    # the claimed integral basis {2cos(2ka)} degenerates exactly at d = 9
    # in this range: the three elements sum to zero
    ranks = {d: conjugate_basis_rank(d) for d in (3, 5, 7, 9, 11, 13, 15)}
    for d, rank in ranks.items():
        expected = level_context(d).deg
        if d == 9:
            assert rank == expected - 1
        else:
            assert rank == expected


def test_json_round_trip():
    e = sin_ratio(9, 2, 1) / 3
    assert e.to_json()["level"] == 9


# -- Fraction references for the integer elimination and bisection ---------


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination over Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fraction_solve(matrix, rhs):
    """Solve a square nonsingular system by Gauss-Jordan over Fractions."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if aug[i][k])
        aug[k], aug[pivot] = aug[pivot], aug[k]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k] / aug[k][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


@st.composite
def families(draw):
    """Field elements with repeated members, integer combinations of
    members, columns forced to zero and, when levels differ, a lift."""
    levels = draw(st.lists(st.sampled_from((3, 4, 5, 7, 9, 12, 15)), min_size=1, max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 7)))
    base = []
    for level in levels:
        for _ in range(draw(st.integers(1, 3))):
            deg = level_context(level).deg
            num = [0 if j in zero_cols else draw(st.integers(-9, 9)) for j in range(deg)]
            base.append(FieldElem(level, num, draw(st.integers(1, 6))))
    family = list(base)
    for _ in range(draw(st.integers(0, 3))):
        family.append(draw(st.sampled_from(base)))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        family.append(reduce(lambda acc, t: acc + t[0] * t[1], zip(coeffs, base), 0))
    return draw(st.permutations(family))


@settings(deadline=None, database=None)
@given(families())
def test_rational_rank_matches_fraction_elimination(family):
    level = math.lcm(*(e.level for e in family))
    assert rational_rank(family) == fraction_rank([e.lift(level).coeffs for e in family])


def reference_integrality(d: int, k: int) -> tuple[bool, bool]:
    """integrality_check's verdict from its definition: coordinates in the
    same integral basis, solved over Fractions."""
    deg = level_context(d).deg
    basis = [cos_multiple(d, 2 * u) for u in units_up_to_half(d)]
    if fraction_rank([e.coeffs for e in basis]) < deg:
        beta = cos_multiple(d, 2)
        basis = [beta**j for j in range(deg)]
    matrix = [[basis[j].coeffs[i] for j in range(deg)] for i in range(deg)]

    def integral(elem):
        return all(c.denominator == 1 for c in fraction_solve(matrix, elem.coeffs))

    ratio = sin_quotient(d, k)
    is_integer = integral(ratio)
    return is_integer, is_integer and integral(ratio.inv())


@pytest.mark.parametrize("d", range(3, 22, 2))
def test_integrality_matches_fraction_solve(d):
    for k in range(1, (d - 1) // 2 + 1):
        assert integrality_check(d, k) == reference_integrality(d, k)


class FractionEnclosure:
    """The root enclosure by Fraction bisection: seeded at the float value
    of c, widened until mu changes sign, halved to the requested width and
    kept at the finest precision asked for."""

    def __init__(self, d: int):
        self.mu = level_context(d).mu
        self.c_float = level_context(d).c_float
        self.lo = self.hi = None
        self.bits = 0

    def mu_at(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.mu):
            acc = acc * x + c
        return acc

    def enclosure(self, bits: int):
        if self.lo is None:
            center, delta = Fraction(self.c_float), Fraction(1, 1 << 28)
            while True:
                lo, hi = center - delta, center + delta
                at_lo, at_hi = self.mu_at(lo), self.mu_at(hi)
                if at_lo == 0:
                    self.lo = self.hi = lo
                elif at_hi == 0:
                    self.lo = self.hi = hi
                elif (at_lo < 0) != (at_hi < 0):
                    self.lo, self.hi = lo, hi
                else:
                    delta *= 2
                    continue
                break
        if self.lo == self.hi or self.bits >= bits:
            return self.lo, self.hi
        lo, hi = self.lo, self.hi
        negative_at_lo = self.mu_at(lo) < 0
        while hi - lo > Fraction(1, 1 << bits):
            mid = (lo + hi) / 2
            value = self.mu_at(mid)
            if value == 0:
                lo = hi = mid
                break
            if (value < 0) == negative_at_lo:
                lo = mid
            else:
                hi = mid
        self.lo, self.hi, self.bits = lo, hi, bits
        return lo, hi


@pytest.mark.parametrize("d", [3, 4, 5, 7, 17, 32, 53])
def test_enclosure_matches_fraction_bisection(d):
    ctx, reference = LevelContext(d), FractionEnclosure(d)
    finest = 0
    # 100 asks for less than the cached 1024 bits and gets the cached interval
    for bits in (64, 128, 256, 1024, 100):
        finest = max(finest, bits)
        lo_num, hi_num, s = ctx.enclosure(bits)
        assert s == 0 or lo_num % 2 or hi_num % 2
        lo, hi = Fraction(lo_num, 1 << s), Fraction(hi_num, 1 << s)
        assert (lo, hi) == reference.enclosure(bits)
        if lo == hi:
            assert reference.mu_at(lo) == 0
        else:
            assert hi - lo <= Fraction(1, 1 << finest)
            assert (reference.mu_at(lo) < 0) != (reference.mu_at(hi) < 0)
