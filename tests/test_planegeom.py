import math
import random
from fractions import Fraction

from quiverbelt.cycfield import FieldElem
from quiverbelt.planegeom import (
    PlanarPoint,
    cross_q,
    dot,
    foot_of_perpendicular,
    length_along,
    line_intersect,
    midpoint,
    planar_zero,
    reflect_point,
    reflect_vector,
    unit_dir,
)


def floats(p, d):
    return p.to_floats(d)


def from_rationals(d, x, y):
    """Point with rational module coordinates (x, y*sin(pi/d))."""
    return PlanarPoint(
        FieldElem.from_rational(d, Fraction(x)),
        FieldElem.from_rational(d, Fraction(y)),
    )


def norm_sq(d, u):
    return dot(d, u, u)


def collinear(p, q, r):
    return cross_q(q - p, r - p).is_zero()


def test_unit_directions_embed_correctly():
    for d in (5, 6, 9):
        for m in range(2 * d):
            x, y = floats(unit_dir(d, m), d)
            assert abs(x - math.cos(m * math.pi / d)) < 1e-12
            assert abs(y - math.sin(m * math.pi / d)) < 1e-12
            assert norm_sq(d, unit_dir(d, m)) == 1


def test_dot_and_cross_against_floats():
    rng = random.Random(1)
    d = 7
    s = math.sin(math.pi / d)
    for _ in range(25):
        u = from_rationals(d, rng.randint(-5, 5), rng.randint(-5, 5))
        v = from_rationals(d, rng.randint(-5, 5), rng.randint(-5, 5))
        ux, uy = floats(u, d)
        vx, vy = floats(v, d)
        assert abs(dot(d, u, v).to_float() - (ux * vx + uy * vy)) < 1e-9
        assert abs(cross_q(u, v).to_float() * s - (ux * vy - uy * vx)) < 1e-9


def test_reflection_doubles_angles():
    d = 5
    for m in range(d):
        for k in range(2 * d):
            v = unit_dir(d, k)
            r = reflect_vector(d, v, m)
            x, y = floats(r, d)
            expect = (2 * m - k) * math.pi / d
            assert abs(x - math.cos(expect)) < 1e-12
            assert abs(y - math.sin(expect)) < 1e-12


def test_reflection_is_an_exact_involution():
    rng = random.Random(4)
    for d in (5, 8):
        base = from_rationals(d, Fraction(1, 3), Fraction(-2, 7))
        for _ in range(10):
            p = from_rationals(d, rng.randint(-4, 4), rng.randint(-4, 4))
            m = rng.randrange(d)
            assert reflect_point(d, reflect_point(d, p, base, m), base, m) == p


def test_line_intersection():
    d = 5
    p = line_intersect(d, planar_zero(d), 1, from_rationals(d, 1, 0), 3)
    assert p is not None
    assert collinear(planar_zero(d), p, unit_dir(d, 1))
    assert line_intersect(d, planar_zero(d), 2, from_rationals(d, 1, 1), 2) is None


def test_foot_of_perpendicular():
    d = 5
    p = from_rationals(d, 1, 0)
    h = foot_of_perpendicular(d, p, planar_zero(d), 1)
    hx, hy = floats(h, d)
    c = math.cos(math.pi / 5)
    assert abs(hx - c * c) < 1e-12
    assert abs(hy - c * math.sin(math.pi / 5)) < 1e-12
    # the connecting segment is perpendicular to the line
    assert dot(d, p - h, unit_dir(d, 1)).is_zero()


def test_length_along():
    d = 7
    v = unit_dir(d, 3).scale(Fraction(5, 2))
    assert length_along(d, v, 3) == Fraction(5, 2)
    assert length_along(d, v.scale(-1), 3) == Fraction(5, 2)


def test_midpoint_and_json():
    d = 6
    p = from_rationals(d, 1, 2)
    q = from_rationals(d, 3, 0)
    assert midpoint(p, q) == from_rationals(d, 2, 1)
