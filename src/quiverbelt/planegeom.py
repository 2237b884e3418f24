"""Exact plane geometry over the module F_d + sin(pi/d) * F_d.

A point (or vector) is a pair (x, y) of field elements standing for the
real point (x, y*sin(pi/d)).  Reflections across lines whose direction is
an integer multiple of pi/d act within the module: the mixed matrix
entries pair sine factors via product-to-sum, so coordinates never leave
F_d.  Cross products of module vectors are sin(pi/d) times a field
element, which is all that sign predicates need.

Lines are stored as (base point, direction class m) with the direction
angle m*pi/d taken mod pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from quiverbelt.cycfield import (
    FieldElem,
    cos_value,
    sin_product,
    sin_quotient,
)


@dataclass(frozen=True)
class PlanarPoint:
    """Module coordinates: the real point is (x, y*sin(pi/d))."""

    x: FieldElem
    y: FieldElem

    def __add__(self, other: "PlanarPoint") -> "PlanarPoint":
        return PlanarPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlanarPoint") -> "PlanarPoint":
        return PlanarPoint(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "PlanarPoint":
        return PlanarPoint(-self.x, -self.y)

    def scale(self, factor) -> "PlanarPoint":
        return PlanarPoint(self.x * factor, self.y * factor)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def to_floats(self, d: int) -> tuple[float, float]:
        from math import pi, sin

        return self.x.to_float(), self.y.to_float() * sin(pi / d)

    def key(self) -> str:
        return self.x.key() + "|" + self.y.key()


@lru_cache(maxsize=None)
def sin_sq(d: int) -> FieldElem:
    return sin_product(d, 1, 1)


def planar_zero(d: int) -> PlanarPoint:
    z = FieldElem.zero(d)
    return PlanarPoint(z, z)


@lru_cache(maxsize=None)
def unit_dir(d: int, m: int) -> PlanarPoint:
    """Unit vector at angle m*pi/d: (cos(m a), sin(m a)/sin(a)) in module
    coordinates."""
    return PlanarPoint(cos_value(d, m), sin_quotient(d, m % (2 * d)))


def dot(d: int, u: PlanarPoint, v: PlanarPoint) -> FieldElem:
    """Euclidean scalar product of module vectors."""
    return u.x * v.x + u.y * v.y * sin_sq(d)

def cross_q(u: PlanarPoint, v: PlanarPoint) -> FieldElem:
    """Cross product divided by sin(pi/d): sign-equivalent to the true
    cross product."""
    return u.x * v.y - u.y * v.x


def reflect_vector(d: int, v: PlanarPoint, m: int) -> PlanarPoint:
    """Reflect a vector across the direction m*pi/d."""
    c2 = cos_value(d, 2 * m)
    s2s1 = sin_product(d, 2 * m, 1)
    squot = sin_quotient(d, (2 * m) % (2 * d))
    return PlanarPoint(
        c2 * v.x + s2s1 * v.y,
        squot * v.x - c2 * v.y,
    )


def reflect_point(d: int, p: PlanarPoint, base: PlanarPoint, m: int) -> PlanarPoint:
    """Reflect a point across the line through `base` at angle m*pi/d."""
    return base + reflect_vector(d, p - base, m)


@lru_cache(maxsize=None)
def _dir_cross_inv(d: int, m1: int, m2: int):
    val = cross_q(unit_dir(d, m1), unit_dir(d, m2))
    return None if val.is_zero() else val.inv()


def line_intersect(
    d: int, p1: PlanarPoint, m1: int, p2: PlanarPoint, m2: int
) -> PlanarPoint | None:
    """Intersection of two lines given as (point, direction class); None if
    parallel."""
    inv = _dir_cross_inv(d, m1 % d, m2 % d)
    if inv is None:
        return None
    u1 = unit_dir(d, m1)
    t = cross_q(p2 - p1, unit_dir(d, m2)) * inv
    return p1 + u1.scale(t)


def foot_of_perpendicular(
    d: int, p: PlanarPoint, base: PlanarPoint, m: int
) -> PlanarPoint:
    """Foot of the perpendicular from p onto the line (base, m)."""
    u = unit_dir(d, m)
    t = dot(d, p - base, u)
    return base + u.scale(t)


def signed_length(d: int, v: PlanarPoint, m: int) -> FieldElem:
    """Component of v along the unit direction m; equals +-|v| when v is
    parallel to that direction."""
    return dot(d, v, unit_dir(d, m))


def length_along(d: int, v: PlanarPoint, m: int) -> FieldElem:
    """Exact length of a vector known to be parallel to direction m."""
    val = signed_length(d, v, m)
    return val.abs()


def midpoint(p: PlanarPoint, q: PlanarPoint) -> PlanarPoint:
    return (p + q).scale(Fraction(1, 2))
