from math import gcd

import pytest

from quiverbelt.rank2 import (
    DegenerateReference,
    ReferencePoint2D,
    SectorSeed,
    chambers,
    is_compatible,
    orbit_period,
    orbit_trace,
    period_formula,
    period_grid,
    reference_flags,
    sector_grid,
)


def test_worked_orbits_of_the_unit_weight_sector():
    s = SectorSeed(1, 3)
    assert orbit_period(s, ReferencePoint2D(10, 3)) == (5, 2)
    assert orbit_period(s, ReferencePoint2D(0, 3)) == (7, 4)


def test_compatibility_splits_short_and_long():
    s = SectorSeed(1, 3)
    for u in chambers(3):
        period, _ = orbit_period(s, u)
        assert is_compatible(u, s) == (period == 5)


@pytest.mark.parametrize(
    "a,b,short",
    [(1, 3, 5), (1, 4, 6), (1, 6, 8), (2, 5, 9)],
)
def test_short_periods_per_weight(a, b, short):
    s = SectorSeed(a, b)
    shorts = {
        orbit_period(s, u)[0] for u in chambers(b) if is_compatible(u, s)
    }
    longs = {
        orbit_period(s, u)[0] for u in chambers(b) if not is_compatible(u, s)
    }
    assert shorts == {short}
    assert longs == {3 * b - 2 * a}


def test_period_formula_values():
    assert period_formula(1, 3, True, True) == 5
    assert period_formula(1, 3, False, True) == 7
    assert period_formula(2, 5, False, True) == 11
    assert period_formula(1, 6, True, False) == 8


def test_formula_matches_orbits_across_the_grid():
    for b in range(3, 25):
        for a in range(1, (b + 1) // 2):
            if 2 * a >= b or gcd(a, b) != 1:
                continue
            seed = SectorSeed(a, b)
            for u in chambers(b):
                period, lazy = orbit_period(seed, u)
                assert period == period_formula(a, b, *reference_flags(seed, u))
                assert lazy % 2 == 0


def test_sector_grid_is_the_coprime_half_grid():
    expected = [
        (a, b, u)
        for b in range(3, 13)
        for a in range(1, b)
        if 2 * a < b and gcd(a, b) == 1
        for u in chambers(b)
    ]
    assert [(s.a, s.b, u) for s, u in sector_grid(12)] == expected
    assert len(expected) == 372


def test_lazy_steps_come_in_adjacent_pairs():
    for (a, b) in ((1, 3), (2, 5), (3, 8), (1, 7)):
        seed = SectorSeed(a, b)
        for u in chambers(b):
            steps = orbit_trace(seed, u)
            p = len(steps)
            lazies = {n % p for n, (_, lazy) in enumerate(steps) if lazy}
            while lazies:
                n = min(lazies)
                partner = (n + 1) % p if (n + 1) % p in lazies else (n - 1) % p
                assert partner in lazies, f"isolated lazy index at {(a, b)}"
                lazies -= {n, partner}


def test_turning_number_is_integral():
    # c'*pi + b'*psi = 2 pi m, in integer bookkeeping: c'*b + b'*c = 0 mod 2b
    for (a, b) in ((1, 3), (1, 4), (2, 5), (3, 7), (5, 12)):
        seed = SectorSeed(a, b)
        for u in chambers(b):
            steps = orbit_trace(seed, u)
            lazy_pairs = sum(1 for _, lazy in steps if lazy) // 2
            nonlazy = sum(1 for _, lazy in steps if not lazy)
            c = a if is_compatible(u, seed) else b - a
            assert (lazy_pairs * b + nonlazy * c) % (2 * b) == 0


def test_degenerate_reference_rejected():
    with pytest.raises(DegenerateReference):
        orbit_period(SectorSeed(1, 3), ReferencePoint2D(3, 3))
    with pytest.raises(DegenerateReference):
        is_compatible(ReferencePoint2D(4, 4), SectorSeed(1, 4))


def test_sector_seed_rejects_bad_angles():
    # a, b >= 1 and coprime, and the normals 0 and a*pi/b not parallel,
    # which fails for b = 1 alone
    for a in range(-2, 30):
        for b in range(-2, 30):
            valid = a >= 1 and b >= 1 and gcd(a, b) == 1 and a % b != 0
            if valid:
                SectorSeed(a, b)
            else:
                with pytest.raises(ValueError):
                    SectorSeed(a, b)
    with pytest.raises(ValueError, match="parallel"):
        SectorSeed(1, 1)


def test_grid_csv_rows():
    rows = period_grid(6)
    assert (1, 3, 4, 5) in rows or (1, 3, 0, 7) in rows
    assert all(len(r) == 4 for r in rows)
    for a, b, u, p in rows:
        assert p in (b + 2 * a, 3 * b - 2 * a)
