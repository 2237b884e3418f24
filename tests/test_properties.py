"""Property tests: mutation is an involution on canonical keys, canonical
keys do not change under a simultaneous permutation of the indices,
mutation commutes with relabelling field by field, the stored key
permutation attains the key, carried side orientations match the interior
witness, matrix mutation matches the abs/half rule, T is conserved along
planar walks, planar angles sum to d, the field axioms hold across levels,
canonical forms are unique under lifting, the FieldElem fast paths return
canonical representations, inverses invert, signs agree with the float
embedding away from zero, Galois maps are ring homomorphisms, and planar
positivity and mutation commute with the belt's lattice translations."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from quiverbelt.cycfield import (
    FieldElem,
    GaloisMap,
    InvalidMultiplier,
    level_context,
)
from quiverbelt.exgraph import acyclic_belt, bfs
from quiverbelt.exmatrix import (
    PERM_INVERSE,
    PERMS3,
    SPHERICAL_PAIRS,
    ExchangeMatrix,
    affine_normal_form,
    markov_matrix,
    mutate,
    spherical_matrix,
)
from quiverbelt.seedgeom import (
    DegeneratePositivity,
    PlanarSeed,
    SphericalSeed,
    initial_seed,
    planar_mutate,
    positivity,
    seed_mutate,
    spherical_seed,
    t_invariant,
    translate_relabelled,
    translation_between,
    translation_class,
)

walks = st.lists(st.integers(0, 2), min_size=1, max_size=10)
exact = settings(deadline=None, database=None)


def assert_involution_along(start, mutator, walk):
    s = start
    for k in walk:
        nxt = mutator(s, k)
        assert mutator(nxt, k).canonical_key() == s.canonical_key()
        s = nxt


MATRICES = (
    [spherical_matrix(*pair) for pair in SPHERICAL_PAIRS]
    + [affine_normal_form(d) for d in range(3, 9)]
    + [markov_matrix()]
)


@exact
@given(st.sampled_from(MATRICES), walks)
def test_matrix_mutation_is_an_involution_on_keys(B, walk):
    assert_involution_along(B, mutate, walk)


@exact
@given(st.integers(3, 8), walks)
def test_planar_mutation_is_an_involution_on_keys(d, walk):
    assert_involution_along(initial_seed(d), planar_mutate, walk)


nonzero_weights = st.tuples(
    st.integers(-40, 40).filter(bool), st.integers(1, 7)
).map(lambda t: Fraction(*t))


@exact
@given(
    st.sampled_from(SPHERICAL_PAIRS),
    st.tuples(nonzero_weights, nonzero_weights, nonzero_weights),
    walks,
)
def test_spherical_mutation_is_an_involution_on_keys(pair, reference, walk):
    try:
        assert_involution_along(
            spherical_seed(spherical_matrix(*pair), reference), seed_mutate, walk
        )
    except DegeneratePositivity:
        reject()


def walk_from(start, mutator, walk):
    for k in walk:
        start = mutator(start, k)
    return start


def permuted_matrix(B, p):
    """Entry (i, j) of the result is entry (p[i], p[j]) of B."""
    return ExchangeMatrix(B[p[0], p[1]], B[p[0], p[2]], B[p[1], p[2]])


@exact
@given(st.sampled_from(MATRICES), walks, st.sampled_from(PERMS3))
def test_rank3_matrix_key_is_invariant_under_index_permutation(B, walk, p):
    B = walk_from(B, mutate, walk)
    assert permuted_matrix(B, p).canonical_key() == B.canonical_key()


def relabelled(s, p):
    """The planar or spherical seed whose slot i holds slot p[i] of s."""
    if isinstance(s, PlanarSeed):
        return PlanarSeed(
            s.chart,
            s.kind,
            tuple(s.vertices[p[i]] for i in range(3)),
            tuple(s.side_dirs[p[i]] for i in range(3)),
            s.ray,
            permuted_matrix(s.B, p),
        )
    return SphericalSeed(
        s.space,
        tuple(s.vectors[p[i]] for i in range(3)),
        permuted_matrix(s.B, p),
        s.ref,
        tuple(s.ref_pairings[p[i]] for i in range(3)),
        tuple(s.pairing(p[i], p[j]) for i, j in ((0, 1), (0, 2), (1, 2))),
    )


def fields(s):
    """Every field of a seed, as a labelled seed (not up to relabelling)."""
    if isinstance(s, PlanarSeed):
        return s.chart, s.kind, s.vertices, s.side_dirs, s.ray, s.B
    return s.space, s.vectors, s.B, s.ref, s.ref_pairings, s.pairings


def planar_walk_ends(d, walk):
    return walk_from(initial_seed(d), planar_mutate, walk)


def spherical_walk_ends(pair, reference, walk):
    try:
        return walk_from(
            spherical_seed(spherical_matrix(*pair), reference), seed_mutate, walk
        )
    except DegeneratePositivity:
        reject()


spherical_walks = st.builds(
    spherical_walk_ends,
    st.sampled_from(SPHERICAL_PAIRS),
    st.tuples(nonzero_weights, nonzero_weights, nonzero_weights),
    walks,
)
planar_walks = st.builds(planar_walk_ends, st.integers(3, 8), walks)


@exact
@given(planar_walks, st.sampled_from(PERMS3))
def test_planar_seed_key_is_invariant_under_index_permutation(s, p):
    assert relabelled(s, p).canonical_key() == s.canonical_key()


@exact
@given(spherical_walks, st.sampled_from(PERMS3))
def test_spherical_seed_key_is_invariant_under_index_permutation(s, p):
    assert relabelled(s, p).canonical_key() == s.canonical_key()


@exact
@given(st.one_of(planar_walks, spherical_walks), st.integers(0, 2))
@example(spherical_walk_ends((Fraction(1, 3), Fraction(2, 5)), (1, -1, -1), [2, 1]), 2)
def test_mutation_commutes_with_relabelling_field_by_field(s, k):
    """With pi the relabelling that moves slot i to slot pi[i] (slot i of
    pi.s holds slot p[i] of s for p the inverse of pi), mutating pi.s at
    pi(k) gives pi.mu_k(s) as labelled seeds, not only up to keys.  When
    mu_k(s) is not defined, no relabelled mutation is."""
    mutator = planar_mutate if isinstance(s, PlanarSeed) else seed_mutate
    try:
        image = mutator(s, k)
    except DegeneratePositivity:
        image = None
    for index, p in enumerate(PERMS3):
        pi = PERMS3[PERM_INVERSE[index]]
        if image is None:
            with pytest.raises(DegeneratePositivity):
                mutator(relabelled(s, p), pi[k])
        else:
            assert fields(mutator(relabelled(s, p), pi[k])) == fields(
                relabelled(image, p)
            )


@exact
@given(st.one_of(planar_walks, spherical_walks))
def test_the_stored_key_permutation_attains_the_key(s):
    key = s.canonical_key()
    canonical = relabelled(s, PERMS3[s.key_perm()])
    # the identity comes first in PERMS3, so it is the one found when it
    # attains the key
    assert canonical.canonical_key() == key and canonical.key_perm() == 0


@exact
@given(planar_walks)
def test_carried_outward_signs_match_the_witness(s):
    """A mutated seed carries its side orientations from its parent; a
    fresh copy of it reads them off an interior witness."""
    assert s.outward_signs() == relabelled(s, PERMS3[0]).outward_signs()


@cache
def window_and_period(d):
    """The seeds of the depth-6 window at level d, and the translation
    between belt entries -6 and 0, a period of the lattice."""
    belt = acyclic_belt(initial_seed(d), 6)
    window = bfs(initial_seed(d), depth_limit=6)
    return list(window.vertices.values()), translation_between(belt[0], belt[6])


def window_seed(d, pick, sign):
    """A seed of the depth-6 window at level d and plus or minus its period."""
    seeds, period = window_and_period(d)
    return seeds[pick % len(seeds)], period.scale(sign)


window_seeds = st.builds(
    window_seed, st.sampled_from((3, 4, 5, 7, 8)), st.integers(0, 10**6), st.sampled_from((1, -1))
)


@exact
@given(window_seeds, st.integers(0, 2))
def test_planar_mutation_commutes_with_lattice_translation(seed_and_period, k):
    """mu_k(s + w) = mu_k(s) + w field by field, outward signs included,
    and positivity(s + w, k) = positivity(s, k), for a lattice period w:
    what lets the BFS mutate once per translation class."""
    s, w = seed_and_period
    moved = s.translate(w)
    try:
        sign = positivity(s, k)
    except DegeneratePositivity:
        with pytest.raises(DegeneratePositivity):
            positivity(moved, k)
        return
    assert positivity(moved, k) == sign
    image = planar_mutate(s, k)
    moved_image = planar_mutate(moved, k)
    assert fields(moved_image) == fields(image.translate(w))
    assert moved_image.outward_signs() == image.outward_signs()


@exact
@given(window_seeds, st.sampled_from(range(len(PERMS3))))
def test_translate_relabelled_carries_what_a_fresh_seed_computes(seed_and_period, r):
    """The outward signs and translation class that `translate_relabelled`
    carries equal those a fresh copy of its result reads off itself."""
    s, w = seed_and_period
    moved = translate_relabelled(s, r, w)
    fresh = relabelled(s, PERMS3[r]).translate(w)
    assert fields(moved) == fields(fresh)
    assert moved.outward_signs() == fresh.outward_signs()
    assert translation_class(moved) == translation_class(fresh)


def abs_half_mutate(B, k):
    """Matrix mutation by the textbook rule
    b'_ij = b_ij + (b_ik |b_kj| + |b_ik| b_kj) / 2 on every entry: the
    reference for the one-product rule of `mutate`, returned as the nine
    entries so that the lower triangle is compared too."""
    e = B.entries
    new = [[e[i][j] for j in range(3)] for i in range(3)]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            if k in (i, j):
                new[i][j] = -e[i][j]
            else:
                bik, bkj = e[i][k], e[k][j]
                new[i][j] = e[i][j] + (bik * bkj.abs() + bik.abs() * bkj) * Fraction(1, 2)
    return tuple(tuple(row) for row in new)


@exact
@given(st.sampled_from(MATRICES), walks)
def test_matrix_mutation_matches_the_abs_half_rule(B, walk):
    for k in walk:
        image = mutate(B, k)
        assert image.entries == abs_half_mutate(B, k)
        B = image


@exact
@given(st.sampled_from(MATRICES), walks, st.integers(0, 2))
def test_memoised_mutation_is_a_fresh_mutation(B, walk, k):
    # MATRICES are shared across examples, so their memos fill as walks
    # revisit them; a fresh copy of the entries has an empty memo
    B = walk_from(B, mutate, walk)
    image = mutate(B, k)
    fresh = mutate(ExchangeMatrix(B[0, 1], B[0, 2], B[1, 2]), k)
    assert image is not fresh and image.entries == fresh.entries
    assert image.level == fresh.level
    assert mutate(B, k) is image


@exact
@given(planar_walks)
def test_t_is_conserved_along_planar_walks(s):
    assert t_invariant(s) == s.chart.t0


@exact
@given(planar_walks)
def test_planar_angles_sum_to_d(s):
    """Side classes lie in [0, d); a triangle's angles sum to d, and so do
    the two co-interior angles at a region's finite side."""
    d = s.d
    assert all(0 <= m < d for m in s.side_dirs)
    f = s.finite_side_index()
    angles = [a for i, a in enumerate(s.angle_triple()) if i != f]
    assert len(angles) == (3 if s.kind == "triangle" else 2)
    assert all(0 < a < d for a in angles)
    assert sum(angles) == d


@st.composite
def same_level_pairs(draw):
    level = draw(st.sampled_from((3, 4, 5, 7, 8, 9, 12, 15)))
    deg = level_context(level).deg

    def element():
        num = draw(st.lists(st.integers(-60, 60), min_size=deg, max_size=deg))
        den = draw(st.one_of(st.just(1), st.integers(2, 12)))
        return FieldElem(level, num, den)

    return element(), element()


@exact
@given(same_level_pairs())
def test_arithmetic_results_are_canonical(pair):
    a, b = pair
    for r in (a + b, a - b, a * b, -a):
        canonical = FieldElem(r.level, list(r.num), r.den)
        assert type(r.num) is tuple
        assert (r.level, r.num, r.den) == (canonical.level, canonical.num, canonical.den)


@st.composite
def nonzero_elements(draw, levels=st.integers(2, 60)):
    """Nonzero elements with coefficients in -99..99 and denominators 1 to
    99."""
    level = draw(levels)
    deg = level_context(level).deg
    num = draw(st.lists(st.integers(-99, 99), min_size=deg, max_size=deg).filter(any))
    return FieldElem(level, num, draw(st.integers(1, 99)))


def _full_element(level: int, seed: int) -> FieldElem:
    """A level-`level` element whose coefficients run through -99..99."""
    deg = level_context(level).deg
    return FieldElem(level, [(seed * (7 * i + 3)) % 199 - 99 for i in range(deg)], 97)


@exact
@given(nonzero_elements())
@example(FieldElem(2, [-3], 4))
@example(FieldElem(3, [5], 7))
@example(FieldElem(5, [-2, 7], 9))
@example(_full_element(29, 5))
@example(_full_element(41, 11))
@example(_full_element(53, 13))
@example(_full_element(59, 17))
@example(_full_element(60, 19))
def test_inverse_inverts(x):
    y = x.inv()
    assert x * y == 1
    assert y.inv() == x


@exact
@given(st.integers(2, 60))
def test_zero_has_no_inverse(level):
    with pytest.raises(ZeroDivisionError):
        FieldElem.zero(level).inv()


def horner_float(x: FieldElem) -> float:
    """The value by double Horner at the float c: independent of the
    enclosure and interval Horner that sign() and to_float() share."""
    c = level_context(x.level).c_float
    acc = 0.0
    for n in reversed(x.num):
        acc = acc * c + n
    return acc / x.den


@exact
@given(nonzero_elements())
def test_sign_agrees_with_float_away_from_zero(x):
    c = level_context(x.level).c_float
    magnitude = sum(abs(n) * c**i for i, n in enumerate(x.num)) / x.den
    value = horner_float(x)
    assume(abs(value) > 1e-6 * magnitude)
    assert x.sign() == (1 if value > 0 else -1)
    assert abs(x.to_float() - value) <= 1e-12 * magnitude


@st.composite
def galois_maps(draw):
    level = draw(st.integers(5, 30))
    try:
        return GaloisMap(level, draw(st.integers(-4 * level, 4 * level)))
    except InvalidMultiplier:
        reject()


@exact
@given(galois_maps(), st.data())
def test_galois_map_is_a_ring_homomorphism(g, data):
    same_level = nonzero_elements(st.just(g.level))
    a, b = data.draw(same_level), data.draw(same_level)
    assert g.apply(a + b) == g.apply(a) + g.apply(b)
    assert g.apply(a * b) == g.apply(a) * g.apply(b)
    one = FieldElem.one(g.level)
    assert g.apply(one) == one


mixed_levels = st.sampled_from((2, 3, 4, 5, 6, 10, 12))


@exact
@given(
    nonzero_elements(mixed_levels),
    nonzero_elements(mixed_levels),
    nonzero_elements(mixed_levels),
)
def test_field_axioms_across_mixed_levels(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert (a - b) + b == a.lift((a - b).level)


@exact
@given(
    nonzero_elements(st.sampled_from((2, 3, 4, 5, 6))),
    st.integers(1, 6),
    st.lists(st.integers(-9, 9), max_size=4),
    st.integers(1, 9),
)
def test_canonical_form_is_unique_under_lift(x, m, extra, scale):
    target = x.level * m
    y = x.lift(target)
    # any representation of the lifted value, scaled and with a multiple of
    # the minimal polynomial added, reduces to the same numerator and
    # denominator
    mu = level_context(target).mu
    padded = list(y.num) + [0] * (len(mu) + len(extra))
    for i, g in enumerate(extra):
        for j, c in enumerate(mu):
            padded[i + j] += g * c * y.den
    again = FieldElem(target, [scale * n for n in padded], scale * y.den)
    assert (again.num, again.den) == (y.num, y.den)
    # lifting through an intermediate level lands on the same form, and
    # distinct elements stay distinct
    for mid in (x.level * k for k in range(1, m + 1) if m % k == 0):
        assert x.lift(mid).lift(target) == y
    assert (x + 1).lift(target) != y
