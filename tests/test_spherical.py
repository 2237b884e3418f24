import dataclasses
import random
from collections import Counter, deque
from fractions import Fraction
from itertools import product
from math import cos, gcd, pi

import pytest

from quiverbelt import exgraph, exmatrix, seedgeom, verification
from quiverbelt.cycfield import FieldElem, cos_multiple
from quiverbelt.exmatrix import (
    PERMS3,
    SPHERICAL_PAIRS,
    ExchangeMatrix,
    mutate,
    spherical_matrix,
)
from quiverbelt.rank2 import period_formula
from quiverbelt.seedgeom import (
    DegeneratePositivity,
    QuadSpace,
    RootTable,
    SphericalSeed,
    gram_invariants_ok,
    seed_mutate,
    spherical_seed,
)
from test_properties import relabelled


def test_gram_matrix_of_the_normal_form():
    B = spherical_matrix(Fraction(1, 3), Fraction(1, 3))
    s = spherical_seed(B, (1, 1, 1))
    g = s.space.gram
    assert g[0][0] == 2 and g[1][1] == 2 and g[2][2] == 2
    assert g[0][1] == -1 and g[0][2].is_zero()
    assert gram_invariants_ok(s)


def test_mutation_is_an_involution_and_keeps_gram_invariants():
    rng = random.Random(3)
    for pair in SPHERICAL_PAIRS[:3]:
        s = spherical_seed(spherical_matrix(*pair), (1, 1, 1))
        for _ in range(12):
            k = rng.randrange(3)
            s2 = seed_mutate(s, k)
            assert seed_mutate(s2, k) == s
            assert gram_invariants_ok(s2)
            s = s2


def test_sink_source_mutation_negates_one_vector():
    B = spherical_matrix(Fraction(1, 3), Fraction(1, 4))
    s = spherical_seed(B, (1, 1, 1))
    # vertex 0 is a source, all reference pairings are negative, so the
    # mutation reflects both neighbours and negates v_0
    s2 = seed_mutate(s, 0)
    assert s2.vectors[0] == tuple(-c for c in s.vectors[0])
    assert s2.B == mutate(B, 0)


def test_degenerate_reference_raises():
    B = spherical_matrix(Fraction(1, 3), Fraction(2, 5))
    s = spherical_seed(B, (1, 1, 1))
    with pytest.raises(DegeneratePositivity):
        g = exgraph.bfs(s)


def test_associahedron_counts():
    rng = random.Random(5)
    expected = {
        SPHERICAL_PAIRS[0]: 14,  # A3
        SPHERICAL_PAIRS[1]: 20,  # B3
        SPHERICAL_PAIRS[2]: 32,  # H3
    }
    for pair, count in expected.items():
        B = spherical_matrix(*pair)
        _, g = exgraph.compatible_spherical_graph(B, rng, vertex_cap=count + 16)
        assert g.closed and g.order() == count
        assert g.size() == 3 * count // 2
        assert all(len(v) == 3 for v in g.adjacency().values())


def test_a_vertex_cap_below_the_closure_names_the_vertex_limit():
    # the (1/3,2/5) closure has 48 vertices: every graph stops open at 10
    B = spherical_matrix(Fraction(1, 3), Fraction(2, 5))
    with pytest.raises(RuntimeError, match="vertex limit 10 reached"):
        exgraph.compatible_spherical_graph(B, random.Random(3), vertex_cap=10)


class ZeroRng:
    """Draws the reference weight 0/1 every time."""

    def randint(self, a, b):
        return 0 if a < 0 else 1


def test_the_final_error_names_each_kind_of_last_rejection(monkeypatch):
    B = spherical_matrix(Fraction(1, 3), Fraction(1, 4))

    def fails_with(reason, rng):
        with pytest.raises(RuntimeError, match=f"found: {reason}$"):
            exgraph.compatible_spherical_graph(B, rng)

    fails_with("zero reference weight", ZeroRng())
    monkeypatch.setattr(exgraph, "_orbits_short", lambda s: False)
    fails_with("long rank-2 orbit at the initial seed", random.Random(3))
    # every initial seed passes, and every seed the BFS builds fails
    monkeypatch.setattr(exgraph, "_orbits_short", lambda s: s.B is B)
    fails_with("long rank-2 orbit", random.Random(3))


def test_alternating_orbits_are_short_on_compatible_graphs():
    rng = random.Random(6)
    B = spherical_matrix(Fraction(1, 3), Fraction(1, 4))
    _, g = exgraph.compatible_spherical_graph(B, rng, vertex_cap=40)
    assert exgraph.all_periods_short(g)


def test_incompatible_reference_blows_up_the_graph():
    # interior of the initial domain but across a deep wall: the graph
    # closes onto a strictly larger seed set with a long rank-2 orbit
    B = spherical_matrix(Fraction(1, 3), Fraction(2, 5))
    s = spherical_seed(B, (1, 2, 4))
    g = exgraph.bfs(s)
    assert g.closed and g.order() > 48
    assert not exgraph.all_periods_short(g)


# Reference points per class: two compatible ones and, where a small one
# exists, one whose graph closes but has a long rank-2 orbit.
REFERENCES = [
    (SPHERICAL_PAIRS[0], (1, 2, 4), True),
    (SPHERICAL_PAIRS[0], (1, 1, 3), True),
    (SPHERICAL_PAIRS[0], (-3, -3, 1), False),  # 392 seeds
    (SPHERICAL_PAIRS[1], (1, 2, 4), True),
    (SPHERICAL_PAIRS[1], (2, 3, 7), True),
    (SPHERICAL_PAIRS[1], (-3, -3, 1), False),  # 440 seeds
    (SPHERICAL_PAIRS[2], (1, 2, 4), True),
    (SPHERICAL_PAIRS[2], (5, 1, 3), True),
    (SPHERICAL_PAIRS[3], (4, 2, 1), True),
    (SPHERICAL_PAIRS[3], (1, 5, 2), True),
    (SPHERICAL_PAIRS[3], (1, 2, 4), False),  # 2592 seeds
    (SPHERICAL_PAIRS[4], (4, 2, 1), True),
    (SPHERICAL_PAIRS[4], (1, 4, 2), True),
]


def restricted_to(seed, i, j):
    """`seed` with every entry of B but b_ij and b_ji set to 0: the sign
    rule reads a zero entry as a commuting pair, period 4, always short, so
    on this seed it decides the one pair (i, j)."""
    B = ExchangeMatrix(
        *(seed.B[r, c] if {r, c} == {i, j} else 0 for r, c in ((0, 1), (0, 2), (1, 2)))
    )
    return dataclasses.replace(seed, B=B, _key=[])


@pytest.mark.parametrize("pair, reference, compatible", REFERENCES)
def test_linked_periods_match_the_direct_oracle(
    pair, reference, compatible, monkeypatch
):
    """The sign rule `_orbits_short` against `alternating_period`, the
    direct walk, on every ordered pair of every seed of the graph."""
    g = exgraph.bfs(spherical_seed(spherical_matrix(*pair), reference))
    assert g.closed
    assert exgraph.all_periods_short(g) is compatible
    # The oracle's walks meet the same labelled seeds again and again;
    # mutation is a function of every field, so each is mutated once.
    direct = {}

    def seed_mutate_once(s, k):
        fields = (s.vectors, s.B.entries, s.space, s.ref, k)
        if fields not in direct:
            direct[fields] = seed_mutate(s, k)
        return direct[fields]

    monkeypatch.setattr(exgraph, "seed_mutate", seed_mutate_once)
    for key, seed in g.vertices.items():
        verdicts = []
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                expect = exgraph.expected_short_period(seed.B[i, j])
                short = exgraph.alternating_period(seed, i, j, expect) == expect
                rule = exgraph._orbits_short(restricted_to(seed, i, j))
                assert rule is short, (key, i, j)
                verdicts.append(short)
        assert exgraph._orbits_short(seed) is all(verdicts), key


def pair_with_ref(seed, v):
    """(v, u) computed directly from the coordinates of v and the reference
    weights: the oracle for the carried (v_i, u)."""
    total = FieldElem.zero(seed.B.level)
    for i in range(3):
        if not v[i].is_zero():
            total = total + v[i] * (-seed.ref[i])
    return total


def assert_pairings_are_direct(seed):
    for i in range(3):
        assert seed.ref_pairings[i] == pair_with_ref(seed, seed.vectors[i]), i
        for j in range(3):
            if i != j:
                direct = seed.space.pair(seed.vectors[i], seed.vectors[j])
                assert seed.pairing(i, j) == direct, (i, j)


def checked_walk(seed, rng, steps):
    """Mutate `steps` times at random indices, checking the carried
    pairings of every seed met; the seeds of the walk."""
    walk = [seed]
    assert_pairings_are_direct(seed)
    for _ in range(steps):
        try:
            seed = seed_mutate(seed, rng.randrange(3))
        except DegeneratePositivity:
            break
        assert_pairings_are_direct(seed)
        walk.append(seed)
    return walk


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS)
def test_carried_pairings_match_direct_recomputation(pair):
    """Along random walks from several reference points, compatible or not,
    and from seeds restricted to one pair of indices, the pairings a seed
    carries are the ones its vectors give directly."""
    rng = random.Random(19)
    B = spherical_matrix(*pair)
    references = [ref for p, ref, _ in REFERENCES if p == pair]
    references += [(-3, -3, 1), (Fraction(7, 2), Fraction(-5, 3), 2)]
    for reference in references:
        walk = checked_walk(spherical_seed(B, reference), rng, 40)
        assert gram_invariants_ok(walk[-1])
        for seed in walk[::8]:
            for i, j in ((0, 1), (0, 2), (1, 2)):
                checked_walk(restricted_to(seed, i, j), rng, 8)


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS)
def test_orbits_short_computes_no_product(pair, monkeypatch):
    """The compatibility rule reads signs of carried pairings only: with
    field products and the bilinear form disabled it still decides every
    seed of a closed graph."""
    reference = next(ref for p, ref, ok in REFERENCES if p == pair and ok)
    g = exgraph.bfs(spherical_seed(spherical_matrix(*pair), reference))
    assert g.closed

    def forbidden(*args):
        raise AssertionError("a product was computed")

    monkeypatch.setattr(FieldElem, "__mul__", forbidden)
    monkeypatch.setattr(FieldElem, "__rmul__", forbidden)
    monkeypatch.setattr(QuadSpace, "pair", forbidden)
    assert all(exgraph._orbits_short(seed) for seed in g.vertices.values())


def one_pair_seed(entry, ref_signs, pairing_sign):
    """A seed whose only nonzero entry is b_01 = `entry`, with (v_i, u) of
    the signs `ref_signs` and (v_0, v_1) of sign `pairing_sign`: the sign
    rule reads nothing else."""
    base = spherical_seed(spherical_matrix(*SPHERICAL_PAIRS[0]), (1, 2, 4))
    one = FieldElem.from_rational(2, 1)
    return dataclasses.replace(
        base,
        B=ExchangeMatrix(entry, 0, 0),
        ref_pairings=tuple(one * s for s in ref_signs),
        pairings=(one * pairing_sign, one, one),
        _key=[],
    )


def test_orbits_short_matches_the_period_law():
    """The sign rule against `period_formula`, the law it is derived from:
    on each one-pair seed of weight +-2cos(pi k/l), every coprime k/l with
    l <= 30 and 2k < l and the +-2 entry 0/1, for every sign of the pair's
    (v_i, u) and (v_0, v_1), the orbit is short iff the law gives l + 2k
    with a = k when (v_0, v_1) < 0 and a = l - k otherwise."""
    forms = [(0, 1)] + [
        (k, l) for l in range(3, 31) for k in range(1, (l + 1) // 2) if gcd(k, l) == 1
    ]
    verdicts = Counter()
    for k, l in forms:
        weight = 2 if l == 1 else cos_multiple(l, k)
        for sign_b, pairing_sign, s0, s1 in product((1, -1), repeat=4):
            seed = one_pair_seed(sign_b * weight, (s0, s1, 1), pairing_sign)
            first, second = (0, 1) if sign_b > 0 else (1, 0)
            signs = (s0, s1)
            a = k if pairing_sign < 0 else l - k
            law = period_formula(a, l, signs[first] < 0, signs[second] < 0)
            short = exgraph._orbits_short(seed)
            assert short is (law == l + 2 * k), (k, l, sign_b, pairing_sign, s0, s1)
            verdicts[short] += 1
    assert verdicts[True] == verdicts[False] == 8 * len(forms)


@pytest.mark.parametrize("pair, reference, compatible", REFERENCES)
def test_orbits_short_reads_no_cosine_form(pair, reference, compatible, monkeypatch):
    """The compatibility rule reads no k or l: with the cosine-form match
    disabled it still decides every seed of each reference graph."""
    g = exgraph.bfs(spherical_seed(spherical_matrix(*pair), reference))
    assert g.closed

    def forbidden(a):
        raise AssertionError("a cosine form was matched")

    monkeypatch.setattr(exmatrix, "_cosine_form_cached", forbidden)
    assert exgraph.all_periods_short(g) is compatible


def loop_float_oracle_count(w1, w2, lam, cap):
    """`verification._float_oracle_count` as it was written with loops,
    sums and a six-way minimum per key: the reference for the straight-line
    version."""
    G = [[2.0, -abs(w1), 0.0], [-abs(w1), 2.0, -abs(w2)], [0.0, -abs(w2), 2.0]]
    B0 = ((0.0, w1, 0.0), (-w1, 0.0, w2), (0.0, -w2, 0.0))
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

    def pair(x, y):
        return sum(x[i] * G[i][j] * y[j] for i in range(3) for j in range(3))

    def key(vs, B):
        vs = [tuple(round(c, 7) + 0.0 for c in v) for v in vs]
        B = [[round(x, 7) + 0.0 for x in row] for row in B]
        return min(
            vs[p[0]]
            + vs[p[1]]
            + vs[p[2]]
            + tuple(B[p[i]][p[j]] for i in range(3) for j in range(3) if i != j)
            for p in perms
        )

    def mutate_b(B, k):
        out = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                if i == k or j == k:
                    out[i][j] = -B[i][j]
                else:
                    out[i][j] = B[i][j] + (
                        B[i][k] * abs(B[k][j]) + abs(B[i][k]) * B[k][j]
                    ) / 2
        return tuple(tuple(r) for r in out)

    def mut(vs, B, k):
        s = -sum(vs[k][i] * lam[i] for i in range(3))
        if abs(s) < 1e-9:
            raise ArithmeticError("degenerate reference")
        positive = s < 0
        nv = list(vs)
        nv[k] = tuple(-c for c in vs[k])
        for i in range(3):
            if i == k:
                continue
            bs = B[i][k]
            reflect = (bs < -1e-12) if positive else (bs > 1e-12)
            if reflect:
                f = pair(vs[i], vs[k])
                nv[i] = tuple(vs[i][t] - f * vs[k][t] for t in range(3))
        return tuple(nv), mutate_b(B, k)

    start = (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), B0)
    seen = {key(*start)}
    queue = deque([start])
    while queue:
        vs, B = queue.popleft()
        for k in range(3):
            nxt = mut(vs, B, k)
            nk = key(*nxt)
            if nk not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(nk)
                queue.append(nxt)
    return len(seen)


def oracle_outcome(oracle, *args):
    try:
        return oracle(*args)
    except ArithmeticError:
        return ArithmeticError


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS, ids=str)
def test_straight_line_float_oracle_matches_the_loops(pair):
    """Counts, None at the cap and ArithmeticError alike, over 200 draws
    from the check's box at the check's cap, plus draws with a zero weight
    (a degenerate first mutation) and a cap below the closure."""
    w1, w2 = 2 * cos(pi * pair[0]), 2 * cos(pi * pair[1])
    expected = verification.FINITE_TYPE_COUNTS[pair]
    rng = random.Random(f"{pair}")
    draws = [[rng.uniform(-10, 10) for _ in range(3)] for _ in range(200)]
    draws += [[0.0, 1.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 5.0, 0.0]]
    seen = set()
    for cap in (expected + 8, expected - 1):
        for lam in draws:
            got = oracle_outcome(verification._float_oracle_count, w1, w2, lam, cap)
            assert got == oracle_outcome(loop_float_oracle_count, w1, w2, lam, cap), lam
            seen.add(got)
    assert {None, ArithmeticError, expected} <= seen


def test_finite_type_counts_fails_when_the_float_oracle_never_closes(monkeypatch):
    monkeypatch.setattr(verification, "_float_oracle_count", lambda *args, **kw: None)
    result = verification.check_finite_type_counts(seed=2024)
    assert not result.passed
    assert "oracle found no closing draw for (1/3,2/5)" in result.detail
    assert "oracle found no closing draw for (1/5,2/5)" in result.detail


def test_finite_type_counts_confirms_every_period_short(monkeypatch):
    checked = []

    def refuses(graph):
        checked.append(graph)
        return False

    monkeypatch.setattr(exgraph, "all_periods_short", refuses)
    result = verification.check_finite_type_counts(seed=2024)
    assert not result.passed and len(checked) == 5
    for pair in SPHERICAL_PAIRS:
        assert f"({pair[0]},{pair[1]}): long rank-2 orbit" in result.detail


def test_all_periods_short_needs_a_closed_graph():
    B = spherical_matrix(Fraction(1, 3), Fraction(1, 4))
    g = exgraph.bfs(spherical_seed(B, (1, 2, 4)), depth_limit=3)
    assert not g.closed
    with pytest.raises(ValueError, match="closed"):
        exgraph.all_periods_short(g)


def test_sampling_accepts_what_the_direct_oracle_accepts(monkeypatch):
    """The same draws are accepted, with the same graphs, when each seed's
    compatibility is read from signs as when its orbits are mutated
    afresh."""
    asked = []

    def direct(seed):
        asked.append(seed)
        return all(
            exgraph.alternating_period(seed, i, j, cap=expect) == expect
            for i in range(3)
            for j in range(i + 1, 3)
            for expect in [exgraph.expected_short_period(seed.B[i, j])]
        )

    def sample():
        rng = random.Random(11)
        out = []
        for pair in SPHERICAL_PAIRS:
            seed, g = exgraph.compatible_spherical_graph(spherical_matrix(*pair), rng)
            out.append((seed.ref, list(g.vertices), g.edges))
        return out, rng.getstate()

    linked = sample()
    monkeypatch.setattr(exgraph, "_orbits_short", direct)
    assert sample() == linked
    # the oracle was asked about every seed of the accepted graphs, and
    # about the seeds of rejected draws besides
    assert len(asked) > sum(len(vertices) for _, vertices, _ in linked[0])


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS)
def test_every_sampled_graph_has_every_period_short(pair):
    """The sampler's BFS admits only seeds with short orbits, so every graph
    it returns passes the whole-graph check, which the sampler never runs."""
    rng = random.Random(23)
    B = spherical_matrix(*pair)
    for _ in range(6):
        _, g = exgraph.compatible_spherical_graph(B, rng)
        assert g.closed and exgraph.all_periods_short(g)


def old_compatible_spherical_graph(B, rng, vertex_cap=256, attempts=64):
    """`compatible_spherical_graph` as it was before draws with a long
    initial rank-2 orbit were rejected ahead of the BFS."""
    last = None
    for _ in range(attempts):
        lam = tuple(
            Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(3)
        )
        if any(x == 0 for x in lam):
            continue
        try:
            seed = spherical_seed(B, lam)
            graph = exgraph.bfs(seed, vertex_limit=vertex_cap)
        except DegeneratePositivity as exc:
            last = exc
            continue
        if graph.closed and exgraph.all_periods_short(graph):
            return seed, graph
    raise RuntimeError(f"no compatible reference point found: {last!r}")


def test_initial_orbit_rejection_keeps_draws_and_graphs(monkeypatch):
    """Rejecting a draw by its initial seed's orbits before the BFS returns
    the same seeds and graphs and leaves the random stream where the old
    loop left it, with fewer BFS runs."""
    bfs_runs = []
    bfs = exgraph.bfs

    def counted(*args, **kwargs):
        bfs_runs.append(1)
        return bfs(*args, **kwargs)

    monkeypatch.setattr(exgraph, "bfs", counted)

    def sample(sampler, rng_seed):
        rng = random.Random(rng_seed)
        bfs_runs.clear()
        out = []
        for pair in SPHERICAL_PAIRS:
            seed, g = sampler(spherical_matrix(*pair), rng)
            out.append((seed.ref, list(g.vertices), g.edges, g.depth, g.links))
        return out, rng.getstate(), len(bfs_runs)

    for rng_seed in (11000, 1, 2, 3):
        new, new_state, new_runs = sample(exgraph.compatible_spherical_graph, rng_seed)
        old, old_state, old_runs = sample(old_compatible_spherical_graph, rng_seed)
        assert new == old and new_state == old_state
        assert new_runs <= old_runs
        if rng_seed == 11000:
            assert new_runs < old_runs


def six_serial_key(seed):
    """(canonical key, key_perm) of a spherical seed as the least of all six
    serialisations: the reference for the key built from slot order."""
    coords = [[c.key() for c in v] for v in seed.vectors]
    arrows = seed.B.entry_keys()
    serials = [
        ";".join(
            [k for i in range(3) for k in coords[p[i]]]
            + [arrows[p[i], p[j]] for i, j in arrows]
        )
        for p in PERMS3
    ]
    key = min(serials)
    return key, serials.index(key)


def built_key(seed):
    fresh = dataclasses.replace(seed, _key=[])
    return fresh.canonical_key(), fresh.key_perm()


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS, ids=str)
def test_spherical_keys_match_the_six_serial_minimum(pair):
    """On every seed of 30 sampled closures, and of a closed graph from an
    incompatible reference point where the class has a small one."""
    rng = random.Random(240)
    B = spherical_matrix(*pair)
    seeds = []
    for _ in range(30):
        _, g = exgraph.compatible_spherical_graph(B, rng)
        seeds.extend(g.vertices.values())
    for p, reference, compatible in REFERENCES:
        if p == pair and not compatible:
            seeds.extend(exgraph.bfs(spherical_seed(B, reference)).vertices.values())
    for seed in seeds:
        assert built_key(seed) == six_serial_key(seed)


def test_spherical_key_with_two_equal_slots_takes_the_fallback():
    """Two slots hold one vector, so the arrows decide between the two
    relabellings that put the tied slots first."""
    seed = spherical_seed(spherical_matrix(Fraction(1, 3), Fraction(2, 5)), (4, 2, 1))
    seed = seed_mutate(seed_mutate(seed, 0), 1)
    v0, v1, v2 = seed.vectors
    perms = set()
    for vectors in ((v0, v1, v0), (v1, v0, v0), (v0, v0, v1), (v2, v1, v2)):
        tied = dataclasses.replace(seed, vectors=vectors, _key=[])
        expected = six_serial_key(tied)
        assert (tied.canonical_key(), tied.key_perm()) == expected
        perms.add(expected[1])
    assert len(perms) > 1


# -- the class tables against table-free mutation -------------------------------


def reference_seed_mutate(s, k):
    """`seed_mutate` as it was before the class tables: every vector, the
    matrix and every pairing computed afresh by the rules in
    `SphericalSeed`'s docstring.  The oracle of the `RootTable` path."""
    pairing = s.ref_pairings[k]
    sgn = pairing.sign()
    if sgn == 0:
        raise DegeneratePositivity("reference point orthogonal to the vector")
    positive = sgn < 0
    new_vectors = list(s.vectors)
    ref_pairings = list(s.ref_pairings)
    pairings = list(s.pairings)
    vk = s.vectors[k]
    new_vectors[k] = tuple(-c for c in vk)
    ref_pairings[k] = -pairing
    reflected = 0
    for i in range(3):
        if i == k:
            continue
        b_sign = s.B[i, k].sign()
        reflect = (b_sign < 0) if positive else (b_sign > 0)
        factor = s.pairing(i, k)
        if reflect:
            new_vectors[i] = tuple(
                s.vectors[i][t] - factor * vk[t] for t in range(3)
            )
            ref_pairings[i] = ref_pairings[i] - factor * pairing
            reflected += 1
        else:
            pairings[i + k - 1] = -factor
    i, j = (x for x in range(3) if x != k)
    a_i, a_j = s.pairing(i, k), s.pairing(j, k)
    if reflected == 1 and not (a_i.is_zero() or a_j.is_zero()):
        pairings[i + j - 1] = pairings[i + j - 1] - a_i * a_j
    return SphericalSeed(
        s.space,
        tuple(new_vectors),
        mutate(s.B, k),
        s.ref,
        tuple(ref_pairings),
        tuple(pairings),
    )


def assert_mutates_as_the_reference(s, k):
    """mu_k(s) from the table against `reference_seed_mutate`, field by
    field, with its key and key_perm against the six-serial minimum of the
    reference seed; both raise or neither does.  The table's seed, or None
    where mu_k is not defined."""
    try:
        expected = reference_seed_mutate(s, k)
    except DegeneratePositivity:
        with pytest.raises(DegeneratePositivity):
            seed_mutate(s, k)
        return None
    got = seed_mutate(s, k)
    assert got.space is s.space
    assert got.vectors == expected.vectors
    assert got.B.entries == expected.B.entries
    assert got.ref == expected.ref
    assert got.ref_pairings == expected.ref_pairings
    assert got.pairings == expected.pairings
    assert (got.canonical_key(), got.key_perm()) == six_serial_key(expected)
    return got


def walk_as_the_reference(seed, rng, steps):
    assert (seed.canonical_key(), seed.key_perm()) == six_serial_key(seed)
    for _ in range(steps):
        seed = assert_mutates_as_the_reference(seed, rng.randrange(3))
        if seed is None:
            return


def fresh_copy(s, p):
    """`relabelled(s, p)` with every vector a new tuple of new field
    elements, so that the table can find its roots by value only."""
    moved = relabelled(s, p)
    vectors = tuple(
        tuple(FieldElem(c.level, c.num, c.den) for c in v) for v in moved.vectors
    )
    return dataclasses.replace(moved, vectors=vectors, _key=[])


def random_reference(rng):
    return tuple(
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 7))
        for _ in range(3)
    )


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS, ids=str)
def test_table_mutation_matches_the_reference_along_sampled_walks(pair):
    """Random walks from 30 sampled draws of the class in one process, so
    that later draws read a table that earlier ones filled."""
    rng = random.Random(32)
    B = spherical_matrix(*pair)
    for _ in range(30):
        seed, _ = exgraph.compatible_spherical_graph(B, rng)
        walk_as_the_reference(seed, rng, 12)


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS, ids=str)
def test_table_mutation_matches_the_reference_from_a_cold_table(pair, monkeypatch):
    """Each walk starts on an empty table of its class, compatible draw or
    not, so every entry it reads is one it made."""
    rng = random.Random(33)
    B = spherical_matrix(*pair)
    for _ in range(8):
        monkeypatch.setattr(seedgeom, "_SPACES", {})
        seed = spherical_seed(B, random_reference(rng))
        assert not seed.space.table._keys
        walk_as_the_reference(seed, rng, 30)


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS, ids=str)
@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
def test_table_mutation_matches_the_reference_on_hand_built_seeds(
    pair, cold, monkeypatch
):
    """Seeds relabelled by `permuted_matrix` with fresh vector tuples: the
    table meets roots and matrices it has not seen as objects and finds
    them by value, on a warm table and on a cold one."""
    rng = random.Random(34)
    B = spherical_matrix(*pair)
    seed, g = exgraph.compatible_spherical_graph(B, rng)
    for s in list(g.vertices.values())[::3]:
        if cold:
            monkeypatch.setattr(seedgeom, "_SPACES", {})
            space = seedgeom._class_space(B)
            assert space is not s.space and not space.table.roots
            s = dataclasses.replace(s, space=space, _key=[])
        for p in PERMS3:
            walk_as_the_reference(fresh_copy(s, p), rng, 6)


def signed_roots(pair):
    return len(seedgeom._class_space(spherical_matrix(*pair)).table.roots)


SIGNED_ROOTS = dict(zip(SPHERICAL_PAIRS, (12, 18, 30, 30, 30)))  # A3, B3, H3 three times


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS, ids=str)
def test_a_class_table_holds_at_most_its_signed_roots(pair):
    """Whatever ran before in this process, every vector a class's seeds
    reached is one of the 2|Phi+| roots of its reflection group."""
    spherical_seed(spherical_matrix(*pair), (1, 2, 4))
    assert 3 <= signed_roots(pair) <= SIGNED_ROOTS[pair]


def test_thirty_closures_reach_every_signed_root(monkeypatch):
    """From cold tables, 30 closures per class drawn with Random(5) reach
    all 12/18/30/30/30 roots and no other vector; the id tables hold
    exactly the interned objects, which the table keeps alive."""
    monkeypatch.setattr(seedgeom, "_SPACES", {})
    rng = random.Random(5)
    for pair in SPHERICAL_PAIRS:
        B = spherical_matrix(*pair)
        for _ in range(30):
            exgraph.compatible_spherical_graph(B, rng)
        table = seedgeom._class_space(B).table
        assert len(table.roots) == SIGNED_ROOTS[pair]
        assert set(table._root_ids) == {id(v) for v in table.roots}
        assert set(table._matrix_ids) == {id(m) for m in table.matrices}
        negations = [table.negation(r) for r in range(len(table.roots))]
        assert sorted(negations) == list(range(len(table.roots)))
    assert len(seedgeom._SPACES) == len(SPHERICAL_PAIRS)


def test_a_slot_string_names_a_root_of_one_class_only():
    """(1/3,1/5) and (1/3,2/5) both live at level 15, so their basis
    vectors have the same slot strings; the classes still keep apart, each
    with its own space and table, and close at 32 and 48 seeds."""
    spaces = [seedgeom._class_space(spherical_matrix(*p)) for p in SPHERICAL_PAIRS[2:4]]
    assert spaces[0] is not spaces[1] and spaces[0].table is not spaces[1].table
    slots = [
        [s.table.slots[s.table.root(v)] for v in s.basis[0]] for s in spaces
    ]
    assert slots[0] == slots[1]
    rng = random.Random(7)
    orders = [
        exgraph.compatible_spherical_graph(spherical_matrix(*p), rng)[1].order()
        for p in SPHERICAL_PAIRS[2:4]
    ]
    assert orders == [32, 48]


def test_a_hand_built_space_gets_its_own_table():
    """A QuadSpace made by hand equals the interned one of its Gram form
    but starts with an empty table, and its seeds mutate as the reference."""
    seed = spherical_seed(spherical_matrix(*SPHERICAL_PAIRS[3]), (4, 2, 1))
    space = QuadSpace(seed.space.gram)
    assert space == seed.space and space.table is not seed.space.table
    assert isinstance(space.table, RootTable) and not space.table.roots
    hand_built = dataclasses.replace(seed, space=space, _key=[])
    walk_as_the_reference(hand_built, random.Random(8), 20)
    assert space.table.roots
