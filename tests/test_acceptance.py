"""Acceptance suite: one test per criterion, printing a pass/fail line.

Each criterion delegates to the named check in quiverbelt.verification so
the CLI `verify` subcommand and this module stay in lockstep.  Tolerances
are pinned here: every check is exact except the growth-degree band.

Criterion 2 note: the two H3-related finite-type classes close at 48 seeds
for weights (2cos(pi/3), 2cos(2pi/5)) and 40 seeds for
(2cos(pi/5), 2cos(2pi/5)).  Both this library and the independent
floating-point brute-force oracle built into the check agree on that
association; the prose sentence attaching 40 to the first pair swaps the
two classes.  The check asserts the computed association.
"""

import pytest

from quiverbelt import verification


def _run(name, **kwargs):
    result = verification.run_check(name, **kwargs)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[acceptance] {status} {result.name} ({result.elapsed:.2f}s): {result.detail}")
    assert result.passed, result.detail
    return result


def test_criterion_01_rank2_periods():
    # anchors 5 (A2 short), 7 (A2 long), 6 (B2), 8 (G2); full grid b <= 24
    res = _run("rank2-periods")
    assert res.elapsed < 10


def test_criterion_02_finite_type_counts():
    # closure of all five spherical classes, sampled compatible reference
    # points, isomorphism across samples, float brute-force cross-check
    _run("finite-type-counts", seed=2024)


def test_criterion_03_verlinde():
    _run("verlinde")


def test_criterion_04_independence_ranks():
    _run("independence-ranks")


def test_criterion_05_affine_invariants():
    _run("affine-invariants", levels=(3, 5, 7, 9))


def test_criterion_06_belt_periodicity():
    _run("belt-periodicity", levels=(3, 5, 7))


def test_criterion_07_translated_belts():
    _run("translated-belts", levels=(5, 7))


def test_criterion_08_quotient_census():
    _run("quotient-census", levels=(5, 7))


def test_criterion_09_growth():
    _run("growth")


def test_criterion_10_even_denominators():
    _run("even-denominators", levels=(4, 6, 8))


def test_criterion_11_number_theory():
    _run("number-theory")
