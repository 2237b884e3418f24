"""Rank-2 seeds as angular sectors and their mutation orbits.

Everything is integral.  Normal directions of the seed vectors live on the
grid of multiples of pi/b (integers mod 2b); reference directions live on
the half-grid of multiples of pi/(2b) (integers mod 4b).  The grids are
offset so that a reference direction is never perpendicular to a normal
when its parity differs from b, which is exactly the non-degeneracy
condition.

A seed (w_m, -w_{m+1}) with positive upper entry is encoded by the pair
(theta_m, theta_{m+1}) of normal directions.  One step of the swap-mutation
map reflects theta_{m+1}'s predecessor or negates it:

    theta_{m+2} = 2*theta_{m+1} - theta_m   if w_{m+1} is positive,
    theta_{m+2} = theta_m + b               otherwise (a lazy step),

where "positive" means the reference point lies in the half-plane carved
out by the vector, i.e. <u, w> < 0.  The branch and the positivity
convention are pinned by the worked period-5 and period-7 orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class DegenerateReference(ValueError):
    """The reference direction is perpendicular to a possible normal."""


@dataclass(frozen=True)
class SectorSeed:
    """Sector seed with fundamental angle a*pi/b: the vectors (w_0, -w_1),
    whose normal directions are 0 and a*pi/b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1 or gcd(self.a, self.b) != 1:
            raise ValueError("need coprime a, b >= 1")
        if self.a % self.b == 0:
            raise ValueError("seed normals must not be parallel")


@dataclass(frozen=True)
class ReferencePoint2D:
    """Reference direction as halfsteps (multiples of pi/(2b))."""

    halfsteps: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "halfsteps", self.halfsteps % (4 * self.b))

    def validate(self) -> None:
        if self.halfsteps % 2 == self.b % 2:
            raise DegenerateReference(
                f"direction {self.halfsteps}*pi/{2 * self.b} is perpendicular "
                "to a grid normal"
            )


def _positive(theta: int, u: ReferencePoint2D, b: int) -> bool:
    """Whether the vector with normal direction theta*pi/b is positive,
    i.e. the reference point lies in its negative half-plane."""
    r = (u.halfsteps - 2 * theta) % (4 * b)
    return b < r < 3 * b


def is_compatible(u: ReferencePoint2D, s: SectorSeed) -> bool:
    """True unless u sits inside the supplementary sector of the oriented
    seed: the locus where both underlying normals fail positivity and the
    orbit period becomes long."""
    u.validate()
    return _positive(0, u, s.b) or _positive(s.a, u, s.b)


def reference_flags(s: SectorSeed, u: ReferencePoint2D) -> tuple[bool, bool]:
    """Positivity of the two seed vectors (w_0, -w_1)."""
    u.validate()
    return (
        _positive(0, u, s.b),
        not _positive(s.a, u, s.b),
    )


def orbit_trace(s: SectorSeed, u: ReferencePoint2D):
    """Run the swap-mutation orbit once around; yields (theta, lazy) per
    step until the state pair repeats."""
    u.validate()
    b = s.b
    state = (0, s.a % (2 * b))
    start = state
    steps = []
    while True:
        prev, curr = state
        if _positive(curr, u, b):
            nxt = (2 * curr - prev) % (2 * b)
            steps.append((curr, False))
        else:
            nxt = (prev + b) % (2 * b)
            steps.append((curr, True))
        state = (curr, nxt)
        if state == start:
            return steps


def orbit_period(s: SectorSeed, u: ReferencePoint2D) -> tuple[int, int]:
    """Period of the swap-mutation orbit and the number of lazy mutations
    along it."""
    steps = orbit_trace(s, u)
    return len(steps), sum(1 for _, lazy in steps if lazy)


def period_formula(a: int, b: int, w0_positive: bool, w1_positive: bool) -> int:
    """Closed form for the orbit period: b + 2a, except 3b - 2a when the
    first vector is negative and the second positive."""
    if not w0_positive and w1_positive:
        return 3 * b - 2 * a
    return b + 2 * a


def chambers(b: int) -> list[ReferencePoint2D]:
    """All 2b reference chambers, as their central directions."""
    start = (b + 1) % 2
    return [ReferencePoint2D(m, b) for m in range(start, 4 * b, 2)]


def sector_grid(max_b: int):
    """Every sector seed of fundamental angle a*pi/b with 2a < b, gcd(a, b)
    = 1 and 3 <= b <= max_b, with each of its reference chambers: yields
    (seed, u) in order of b, then a, then u."""
    for b in range(3, max_b + 1):
        for a in range(1, (b + 1) // 2):
            if gcd(a, b) == 1:
                seed = SectorSeed(a, b)
                for u in chambers(b):
                    yield seed, u


def period_grid(max_b: int):
    """Rows (a, b, u_halfsteps, period) over `sector_grid`; the CSV
    payload of the rank-2 CLI subcommand."""
    return [
        (seed.a, seed.b, u.halfsteps, orbit_period(seed, u)[0])
        for seed, u in sector_grid(max_b)
    ]
