import random
from collections import Counter, deque
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from quiverbelt import exgraph
from quiverbelt.cycfield import FieldElem, cos_multiple
from quiverbelt.exmatrix import (
    PERMS3,
    SPHERICAL_PAIRS,
    ExchangeMatrix,
    NotCosineForm,
    affine_normal_form,
    classify,
    entry_cosine_form,
    is_acyclic,
    markov_constant,
    markov_matrix,
    mutate,
    mutation_class,
    spherical_matrix,
)
from quiverbelt.seedgeom import initial_seed


def float_mutate(rows, k):
    out = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            if i == k or j == k:
                out[i][j] = -rows[i][j]
            else:
                out[i][j] = rows[i][j] + (
                    rows[i][k] * abs(rows[k][j]) + abs(rows[i][k]) * rows[k][j]
                ) / 2
    return out


def test_mutation_matches_float_oracle():
    B = spherical_matrix(Fraction(1, 3), Fraction(1, 3))
    expected = float_mutate(B.to_float(), 1)
    got = mutate(B, 1).to_float()
    for i in range(3):
        for j in range(3):
            assert abs(got[i][j] - expected[i][j]) < 1e-10


def test_mutation_is_involution():
    rng = random.Random(5)
    for pair in SPHERICAL_PAIRS:
        B = spherical_matrix(*pair)
        for _ in range(4):
            B = mutate(B, rng.randrange(3))
        for k in range(3):
            assert mutate(mutate(B, k), k) == B


def closed_class_members():
    """Every `mutation_class` member of the five finite classes and of the
    affine classes of initial_seed(d).B, d = 3..20."""
    starts = [spherical_matrix(*pair) for pair in SPHERICAL_PAIRS]
    for B in starts + [initial_seed(d).B for d in range(3, 21)]:
        members, witness = mutation_class(B)
        assert witness is None
        yield from members.values()


def test_skew_symmetry_preserved():
    """Skew-symmetry is an invariant of the type: a zero diagonal,
    b_ji = -b_ij and the rebuild from the upper triangle hold on every
    member of the closed classes and on its six relabellings."""
    checked = 0
    for m in closed_class_members():
        for p in PERMS3:
            r = ExchangeMatrix(m[p[0], p[1]], m[p[0], p[2]], m[p[1], p[2]])
            for B in (m, r):
                for i in range(3):
                    assert B[i, i].is_zero()
                    for j in range(3):
                        assert B[j, i] == -B[i, j]
                assert ExchangeMatrix(B[0, 1], B[0, 2], B[1, 2]) == B
            assert all(r[i, j] == m[p[i], p[j]] for i in range(3) for j in range(3))
            checked += 1
    assert checked > 3000


def test_acyclicity():
    zero = FieldElem.zero(5)
    z3 = ExchangeMatrix(zero, zero, zero)
    assert is_acyclic(z3)
    assert not is_acyclic(markov_matrix())
    for pair in SPHERICAL_PAIRS:
        assert is_acyclic(spherical_matrix(*pair))


def test_markov_constant_values():
    assert markov_constant(markov_matrix()) == 4  # 4 + 4 + 4 - 8
    assert markov_constant(affine_normal_form(3)) == 4
    # affine representative of Prop Classification (5) at t = pi/3
    w = cos_multiple(3, 1)
    two = FieldElem.from_rational(3, 2)
    b = ExchangeMatrix(two, -w, w)
    assert markov_constant(b) == 4
    assert markov_constant(spherical_matrix(Fraction(1, 3), Fraction(1, 3))) == 2


def test_markov_constant_is_mutation_invariant():
    rng = random.Random(11)
    for B in (
        spherical_matrix(Fraction(1, 5), Fraction(2, 5)),
        affine_normal_form(5),
        markov_matrix(),
    ):
        c = markov_constant(B)
        cur = B
        for _ in range(8):
            cur = mutate(cur, rng.randrange(3))
            assert markov_constant(cur) == c


def test_markov_class_is_a_single_point():
    members, witness = mutation_class(markov_matrix())
    assert witness is None and len(members) == 1
    assert (
        mutate(markov_matrix(), 0).canonical_key() == markov_matrix().canonical_key()
    )


def test_classification_of_normal_forms():
    for pair in SPHERICAL_PAIRS:
        res = classify(spherical_matrix(*pair))
        assert res.kind == "finite"
        assert res.pair == pair
        assert (res.markov - 4).sign() < 0
    for d in (3, 4, 5, 6, 7):
        res = classify(affine_normal_form(d))
        assert res.kind == "affine"
        assert res.level == d
        assert res.markov == 4
    assert classify(markov_matrix()).kind == "markov"


def test_classification_is_mutation_invariant():
    rng = random.Random(2)
    B = spherical_matrix(Fraction(1, 3), Fraction(2, 5))
    for _ in range(5):
        B = mutate(B, rng.randrange(3))
        assert classify(B).pair == (Fraction(1, 3), Fraction(2, 5))


def test_hyperbolic_certificate():
    big = ExchangeMatrix(cos_multiple(7, 1), FieldElem.zero(7), cos_multiple(7, 1))
    res = classify(big)
    assert res.kind == "mutation_infinite"
    assert (res.markov - 4).sign() > 0


def test_a_witness_ends_the_walk_of_an_infinite_class():
    big = ExchangeMatrix(cos_multiple(7, 1), cos_multiple(7, 2), cos_multiple(7, 3))
    members, witness = mutation_class(big)
    assert witness is not None and len(members) <= 6
    with pytest.raises(NotCosineForm):
        entry_cosine_form(witness)
    last = list(members.values())[-1]
    assert witness in (last[0, 1], last[0, 2], last[1, 2])
    res = classify(big)
    assert res.kind == "mutation_infinite" and not res.closed
    assert res.class_size == len(members)


# (mutation_infinite, finite, affine) matrices of the census at each d
CENSUS_COUNTS = {
    3: (15, 4, 2),
    4: (17, 0, 4),
    5: (46, 6, 6),
    6: (46, 4, 8),
    7: (111, 0, 12),
    8: (107, 0, 16),
}


def census_matrices(d):
    """Every matrix with upper-triangle entries in {0, 2, 2cos(k pi/d)},
    with the sign of the third entry varied, once per canonical key and
    without the decomposable ones."""
    values = [FieldElem.zero(d), FieldElem.from_rational(d, 2)]
    values += [cos_multiple(d, k) for k in range(1, d)]
    found = {}
    for a, b, c, sign in product(values, values, values, (1, -1)):
        B = ExchangeMatrix(a, b, sign * c)
        isolated = any(
            B[v, w].is_zero() and B[v, x].is_zero()
            for v, w, x in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
        )
        if not isolated:
            found.setdefault(B.canonical_key(), B)
    return list(found.values())


@pytest.mark.parametrize("d", sorted(CENSUS_COUNTS))
def test_census_decides_every_class(d):
    rng = random.Random(d)
    counts = Counter()
    for B in census_matrices(d):
        res = classify(B)
        counts[res.kind] += 1
        p = PERMS3[rng.randrange(1, 6)]
        relabelled = ExchangeMatrix(B[p[0], p[1]], B[p[0], p[2]], B[p[1], p[2]])
        for other in (mutate(B, rng.randrange(3)), relabelled):
            again = classify(other)
            assert (again.kind, again.pair, again.level, again.markov) == (
                res.kind, res.pair, res.level, res.markov
            )
    assert sum(counts.values()) == sum(CENSUS_COUNTS[d])
    kinds = ("mutation_infinite", "finite", "affine")
    assert tuple(counts[kind] for kind in kinds) == CENSUS_COUNTS[d]


def test_entry_cosine_form():
    assert entry_cosine_form(FieldElem.zero(5)) == (1, 2)
    assert entry_cosine_form(FieldElem.from_rational(5, 1)) == (1, 3)
    assert entry_cosine_form(FieldElem.from_rational(5, -2)) == (0, 1)
    assert entry_cosine_form(cos_multiple(15, 6)) == (2, 5)
    with pytest.raises(NotCosineForm):
        entry_cosine_form(FieldElem.from_rational(5, Fraction(1, 2)))


def _scanned_cosine_form(a):
    """The former entry_cosine_form on |e|: after the multiples of pi/d it
    scanned every angle denominator l <= 2d + 3 at the common level
    lcm(d, l).  The oracle for dropping that scan."""
    a = a.abs()
    if a.is_zero():
        return (1, 2)
    if a.is_rational():
        q = a.as_rational()
        if q == 1:
            return (1, 3)
        if q == 2:
            return (0, 1)
        raise NotCosineForm(f"rational entry {q} is not 2cos(pi k/l)")
    d = a.level
    for k in range(1, d + 1):
        if a == cos_multiple(d, k):
            g = gcd(k, d)
            return (k // g, d // g)
    for l in range(3, 2 * d + 4):
        for k in range(1, (l + 1) // 2):
            if gcd(k, l) != 1:
                continue
            target_level = lcm(d, l)
            if a.lift(target_level) == cos_multiple(l, k).lift(target_level):
                return (k, l)
    raise NotCosineForm(f"entry {a!r} is not of the form 2cos(pi k/l)")


def test_entry_cosine_form_needs_no_scan_over_angle_denominators():
    for d in range(2, 31):
        for k in range(2 * d + 1):
            for e in (cos_multiple(d, k), -cos_multiple(d, k)):
                assert entry_cosine_form(e) == _scanned_cosine_form(e)
    # not algebraic integers, or beyond 2: no cosine, and neither form finds one
    for d in (4, 5, 7, 9, 12):
        c1, c2 = cos_multiple(d, 1), cos_multiple(d, 2)
        for e in (c1 + Fraction(1, 3), c1 * Fraction(1, 2), 2 * c1, c2 + 3):
            with pytest.raises(NotCosineForm):
                _scanned_cosine_form(e)
            with pytest.raises(NotCosineForm):
                entry_cosine_form(e)


def test_all_class_entries_are_cosines():
    finite = [spherical_matrix(*pair) for pair in SPHERICAL_PAIRS]
    for B in finite + [initial_seed(d).B for d in range(3, 61)]:
        members, witness = mutation_class(B)
        assert witness is None
        for m in members.values():
            for i in range(3):
                for j in range(i + 1, 3):
                    entry_cosine_form(m[i, j])
    # d = 60 closes beyond the former 512-member budget
    result = classify(initial_seed(60).B)
    assert result.class_size == 576 and result.closed


# (class size, mutations of the walk) of each finite class
FINITE_WALKS = dict(zip(SPHERICAL_PAIRS, zip((4, 5, 6, 6, 10), (8, 8, 10, 9, 15))))


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS, ids=str)
def test_mutation_class_builds_one_matrix_per_mutation(pair, monkeypatch):
    """Every `mutate` call of the walk builds one matrix and nothing else
    does.  `bfs` mutates no direction whose link the other end already
    set, so the walk makes fewer than 3 mutations per member."""
    size, mutations = FINITE_WALKS[pair]
    B = spherical_matrix(*pair)
    built, calls = [], []
    init = ExchangeMatrix.__init__

    def counting_init(self, *entries):
        built.append(1)
        init(self, *entries)

    def counting_mutate(m, k):
        calls.append(k)
        return mutate(m, k)

    monkeypatch.setattr(ExchangeMatrix, "__init__", counting_init)
    monkeypatch.setattr(exgraph, "mutate", counting_mutate)
    members, witness = mutation_class(B)
    assert witness is None and len(members) == size
    assert len(built) == len(calls) == mutations


def deque_mutation_class(B):
    """The walk `mutation_class` ran on its own deque before it ran on
    `exgraph.bfs`: the oracle for members, their order and the witness."""
    members = {}
    queue = deque([B])
    while queue:
        current = queue.popleft()
        key = current.canonical_key()
        if key in members:
            continue
        members[key] = current
        for e in (current[0, 1], current[0, 2], current[1, 2]):
            try:
                entry_cosine_form(e)
            except NotCosineForm:
                return members, e
        queue.extend(mutate(current, k) for k in range(3))
    return members, None


@pytest.mark.parametrize("source", ["census", "initial_seed"])
def test_mutation_class_matches_the_deque_walk(source):
    if source == "census":
        matrices = [B for d in sorted(CENSUS_COUNTS) for B in census_matrices(d)]
    else:
        matrices = [initial_seed(d).B for d in range(3, 61)]
    witnesses = 0
    for B in matrices:
        members, witness = mutation_class(B)
        expected, expected_witness = deque_mutation_class(B)
        assert list(members) == list(expected)
        assert all(members[key] == m for key, m in expected.items())
        assert witness == expected_witness
        witnesses += witness is not None
    assert witnesses == (sum(CENSUS_COUNTS[d][0] for d in CENSUS_COUNTS) if source == "census" else 0)


def test_entries_all_two_are_infinite_or_markov():
    """Every sign pattern of (+-2, +-2, +-2): acyclic ones have C = 20 and
    an infinite class, cyclic ones are the one-point Markov class, so no
    closed class with C = 4 has all its entry angles at denominator 1."""
    kinds = Counter()
    for signs in product((1, -1), repeat=3):
        B = ExchangeMatrix(*(2 * s for s in signs))
        res = classify(B)
        kinds[res.kind] += 1
        assert res.markov == (20 if is_acyclic(B) else 4)
        assert (res.kind == "markov") == (not is_acyclic(B))
    assert kinds == {"mutation_infinite": 6, "markov": 2}

