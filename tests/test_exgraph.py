import json
import random
import re
from collections import deque
from fractions import Fraction
from math import gcd

import pytest

from quiverbelt import exgraph, seedgeom
from quiverbelt.cycfield import FieldElem, cos_multiple, rational_rank, units_up_to_half
from quiverbelt.exmatrix import (
    PERM_INVERSE,
    PERMS3,
    SPHERICAL_PAIRS,
    ExchangeMatrix,
    is_acyclic,
    markov_matrix,
    mutate,
    spherical_matrix,
)
from quiverbelt.intpoly import euler_totient
from quiverbelt.planegeom import cross_q, dot, length_along, unit_dir
from quiverbelt.seedgeom import (
    DegeneratePositivity,
    NotAcyclic,
    PlanarSeed,
    UnsupportedRegion,
    initial_seed,
    planar_mutate,
    reflect_across_belt,
    seed_mutate,
    spherical_seed,
    t_invariant,
    translation_between,
    translation_class,
)

GRAPHS = {}


def graph(d, depth=10):
    if (d, depth) not in GRAPHS:
        GRAPHS[(d, depth)] = exgraph.bfs(initial_seed(d), depth_limit=depth)
    return GRAPHS[(d, depth)]


def test_bfs_depths_and_edges_are_consistent():
    g = graph(5)
    assert g.depth[g.initial_key] == 0
    for pair, label in g.edges.items():
        a, b = tuple(pair)
        assert abs(g.depth[a] - g.depth[b]) <= 1
        assert 0 <= label < 3
    # edge endpoints really are one mutation apart
    rng = random.Random(0)
    keys = list(g.edges)
    for pair in rng.sample(keys, 12):
        a, b = tuple(pair)
        k = g.edges[pair]
        assert planar_mutate(g.vertices[a], k) == g.vertices[b]


def reference_bfs(initial, mutate, depth_limit=None, vertex_limit=None):
    """Plain BFS that mutates every vertex in all three directions.  At a
    vertex limit it stops where the next new vertex would pass the limit,
    as `bfs` returns there."""
    key0 = initial.canonical_key()
    vertices, depth, edges, frontier = {key0: initial}, {key0: 0}, {}, []
    queue = deque([initial])
    while queue:
        seed = queue.popleft()
        key = seed.canonical_key()
        if depth_limit is not None and depth[key] >= depth_limit:
            frontier.append(seed)
            continue
        for k in range(3):
            nxt = mutate(seed, k)
            nkey = nxt.canonical_key()
            if nkey not in vertices:
                if vertex_limit is not None and len(vertices) >= vertex_limit:
                    return vertices, depth, edges
                vertices[nkey] = nxt
                depth[nkey] = depth[key] + 1
                queue.append(nxt)
            if nkey != key:
                edges.setdefault(frozenset((key, nkey)), k)
    for seed in frontier:
        key = seed.canonical_key()
        for k in range(3):
            nkey = mutate(seed, k).canonical_key()
            if nkey in vertices and nkey != key:
                edges.setdefault(frozenset((key, nkey)), k)
    return vertices, depth, edges


def stored_fields(seed):
    """A stored seed field by field, with a planar seed's outward signs;
    a matrix's entries."""
    if isinstance(seed, ExchangeMatrix):
        return seed.entries
    if isinstance(seed, PlanarSeed):
        return seed.vertices, seed.side_dirs, seed.ray, seed.B, seed.outward_signs()
    return seed.vectors, seed.B


def assert_same_graph(g, reference):
    vertices, depth, edges = reference
    assert list(g.vertices) == list(vertices)
    assert list(g.depth.items()) == list(depth.items())
    assert list(g.edges.items()) == list(edges.items())
    for key, seed in g.vertices.items():
        assert stored_fields(seed) == stored_fields(vertices[key])


def affine_start(d, offset):
    """Entry `offset` of the initial belt, or with "mirror" the initial
    seed's mirror across the belt."""
    if offset == "mirror":
        return reflect_across_belt(initial_seed(d))
    return exgraph.acyclic_belt(initial_seed(d), 2)[2 + offset]


@pytest.mark.parametrize(
    "d, depth", [(3, 14), (4, 12), (5, 10), (6, 10), (7, 8), (8, 8), (9, 7)]
)
@pytest.mark.parametrize("offset", [-1, 0, 2, "mirror"])
def test_bfs_matches_the_plain_bfs_on_affine_windows(d, depth, offset):
    # bfs skips the direction back to each vertex's parent and mutates
    # once per translation class, direction and positivity
    start = affine_start(d, offset)
    g = exgraph.bfs(start, depth_limit=depth)
    assert not g.closed
    assert_same_graph(g, reference_bfs(start, planar_mutate, depth))


@pytest.mark.parametrize("d, limit", [(3, 40), (5, 150), (7, 300)])
@pytest.mark.parametrize("offset", [2, "mirror"])
def test_budget_partial_graph_matches_the_plain_bfs(d, limit, offset):
    start = affine_start(d, offset)
    partial = exgraph.bfs(start, vertex_limit=limit)
    assert partial.order() == limit and not partial.closed
    assert_same_graph(partial, reference_bfs(start, planar_mutate, vertex_limit=limit))


def table_key(seed, k):
    """The planar step's table key: (shape, canonical slot of k)."""
    shape, _, perm = translation_class(seed)
    return shape, PERMS3[PERM_INVERSE[perm]][k]


@pytest.mark.parametrize("depth", [4, 8])
@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_the_planar_step_mutates_once_per_class_and_slot(d, depth, monkeypatch):
    """One `planar_mutate` per (shape, canonical slot) key the BFS asks
    its step for, with no positivity in the key."""
    made, asked = [], set()
    monkeypatch.setattr(
        exgraph,
        "planar_mutate",
        lambda s, k: made.append(table_key(s, k)) or planar_mutate(s, k),
    )
    steps = exgraph._planar_steps

    def recording_steps(initial):
        step = steps(initial)

        def recorded(seed, k):
            asked.add(table_key(seed, k))
            return step(seed, k)

        return recorded

    monkeypatch.setattr(exgraph, "_planar_steps", recording_steps)
    exgraph.bfs(initial_seed(d), depth_limit=depth)
    assert len(made) == len(asked)
    assert set(made) == asked


@pytest.mark.parametrize("d", [3, 5, 8])
def test_the_planar_step_refuses_a_voltage_across_the_belt(d, monkeypatch):
    """A child moved across the belt puts a shape off its line through the
    representative, which the table's voltage check refuses."""
    belt = initial_seed(d).chart.belt
    across = unit_dir(d, belt.dir_class + 1)
    assert not cross_q(belt.e, across).is_zero()
    monkeypatch.setattr(
        exgraph, "planar_mutate", lambda s, k: planar_mutate(s, k).translate(across)
    )
    with pytest.raises(RuntimeError, match="not parallel to the belt"):
        exgraph.bfs(initial_seed(d), depth_limit=10)


@pytest.mark.parametrize("d", range(3, 13))
def test_the_belt_direction_is_a_unit_vector(d):
    e = initial_seed(d).chart.belt.e
    assert dot(d, e, e) == 1


def negated_quiver(d):
    """The initial triangle with its matrix negated: a positive sink."""
    s = initial_seed(d)
    B = ExchangeMatrix(-s.B[0, 1], -s.B[0, 2], -s.B[1, 2])
    return PlanarSeed(s.chart, s.kind, s.vertices, s.side_dirs, s.ray, B)


def off_belt(d, i):
    """The initial triangle moved so that vertex i sits on the belt's base
    point: some seeds of its window have a side on the belt line."""
    s = initial_seed(d)
    return s.translate(s.chart.belt.base - s.vertices[i])


@pytest.mark.parametrize(
    "start",
    [negated_quiver(5), off_belt(3, 0), off_belt(5, 1), off_belt(8, 0), off_belt(9, 0)],
    ids=["negated-d5", "off-belt-d3", "off-belt-d5", "off-belt-d8", "off-belt-d9"],
)
def test_bfs_raises_where_the_plain_bfs_raises(start, monkeypatch):
    """The same exception at the same (seed, direction): the last
    positivity asked for before it."""
    asked = []
    real = seedgeom.positivity

    def recording(seed, k):
        asked.append((seed.canonical_key(), k))
        return real(seed, k)

    monkeypatch.setattr(seedgeom, "positivity", recording)
    monkeypatch.setattr(exgraph, "positivity", recording)
    with pytest.raises((UnsupportedRegion, DegeneratePositivity)) as expected:
        reference_bfs(start, planar_mutate, 8)
    where = asked[-1]
    asked.clear()
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        exgraph.bfs(start, depth_limit=8)
    assert asked[-1] == where


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS)
def test_bfs_matches_the_plain_bfs_on_spherical_closures(pair):
    B = spherical_matrix(*pair)
    seed, g = exgraph.compatible_spherical_graph(B, random.Random(1))
    assert g.closed
    assert_same_graph(g, reference_bfs(seed, seed_mutate))


# closed matrix classes: the finite ones, affine ones and the Markov class
CLOSED_CLASSES = (
    [spherical_matrix(*pair) for pair in SPHERICAL_PAIRS]
    + [initial_seed(d).B for d in (3, 5, 8, 12)]
    + [markov_matrix()]
)
# matrices of infinite classes: a path and an acyclic triangle at level 7
INFINITE_CLASSES = [
    ExchangeMatrix(cos_multiple(7, 1), FieldElem.zero(7), cos_multiple(7, 1)),
    ExchangeMatrix(cos_multiple(7, 1), cos_multiple(7, 2), cos_multiple(7, 3)),
]


@pytest.mark.parametrize(
    "B, depth, limit",
    [(B, None, None) for B in CLOSED_CLASSES]
    + [(B, 3, None) for B in CLOSED_CLASSES + INFINITE_CLASSES]
    + [(B, None, 25) for B in CLOSED_CLASSES + INFINITE_CLASSES],
)
def test_bfs_matches_the_plain_bfs_on_matrix_classes(B, depth, limit):
    """A matrix mutation class is walked by the BFS that walks seeds: the
    same vertices, depths and edges as the plain BFS with `mutate`, whole
    for a closed class and up to a depth or vertex limit for any class."""
    g = exgraph.bfs(B, depth_limit=depth, vertex_limit=limit)
    assert g.closed or depth is not None or limit is not None
    assert_same_graph(g, reference_bfs(B, mutate, depth, limit))


def labelled_fields(seed, p):
    """The fields of `seed` relabelled so that slot i holds slot p[i]; for
    a matrix, the relabelled matrix."""
    if isinstance(seed, ExchangeMatrix):
        return ExchangeMatrix(seed[p[0], p[1]], seed[p[0], p[2]], seed[p[1], p[2]])
    B = labelled_fields(seed.B, p)
    if isinstance(seed, PlanarSeed):
        return (
            seed.chart,
            seed.kind,
            tuple(seed.vertices[p[i]] for i in range(3)),
            tuple(seed.side_dirs[p[i]] for i in range(3)),
            seed.ray,
            B,
        )
    return (
        seed.space,
        tuple(seed.vectors[p[i]] for i in range(3)),
        B,
        seed.ref,
        tuple(seed.ref_pairings[p[i]] for i in range(3)),
        tuple(seed.pairing(p[i], p[j]) for i, j in ((0, 1), (0, 2), (1, 2))),
    )


@pytest.mark.parametrize(
    "start, mutate",
    [
        (initial_seed(5), planar_mutate),
        (initial_seed(4), planar_mutate),
        (initial_seed(7), planar_mutate),
        (reflect_across_belt(initial_seed(5)), planar_mutate),
        (spherical_seed(spherical_matrix(*SPHERICAL_PAIRS[3]), (4, 2, 1)), seed_mutate),
        (spherical_seed(spherical_matrix(*SPHERICAL_PAIRS[0]), (-3, -3, 1)), seed_mutate),
        (spherical_matrix(*SPHERICAL_PAIRS[4]), mutate),
        (initial_seed(7).B, mutate),
        (markov_matrix(), mutate),
        (INFINITE_CLASSES[0], mutate),
    ],
    ids=["planar-d5", "planar-d4", "planar-d7", "planar-d5-mirror", "compatible-1/3,2/5",
         "incompatible-1/3,1/3", "matrix-1/5,2/5", "matrix-d7", "matrix-markov", "matrix-infinite"],
)
def test_links_carry_each_mutation_onto_the_stored_neighbour(start, mutate):
    """links[key][k] = (nkey, t): mu_k of the stored seed (or matrix) is
    the stored seed of nkey relabelled by PERMS3[t], field by field."""
    open_class = isinstance(start, PlanarSeed) or start is INFINITE_CLASSES[0]
    g = exgraph.bfs(start, depth_limit=6 if open_class else None)
    identity = PERMS3[0]
    for key, seed in g.vertices.items():
        for k, link in enumerate(g.links[key]):
            image = mutate(seed, k)
            if link is None:
                # only mutations the depth limit kept out have no link
                assert g.depth[key] == 6 and image.canonical_key() not in g.vertices
                continue
            nkey, t = link
            assert image.canonical_key() == nkey
            assert labelled_fields(image, identity) == labelled_fields(
                g.vertices[nkey], PERMS3[t]
            )


def test_vertex_budget():
    start = initial_seed(5)
    g = exgraph.bfs(start, vertex_limit=50)
    assert g.order() == 50 and not g.closed
    assert_same_graph(g, reference_bfs(start, planar_mutate, vertex_limit=50))


@pytest.mark.parametrize("pair, size", zip(SPHERICAL_PAIRS, (21, 30, 48, 72, 60)))
def test_each_edge_is_mutated_once(pair, size, monkeypatch):
    # a link set from one end of an edge is not looked up from the other
    seed, g = exgraph.compatible_spherical_graph(
        spherical_matrix(*pair), random.Random(3)
    )
    calls = []

    def counted(s, k):
        calls.append(k)
        return seed_mutate(s, k)

    monkeypatch.setattr(exgraph, "seed_mutate", counted)
    closure = exgraph.bfs(seed)
    assert closure.closed and len(calls) == closure.size() == g.size() == size


def assert_identical_runs(g, h):
    assert list(g.vertices) == list(h.vertices)
    assert list(g.depth.items()) == list(h.depth.items())
    assert list(g.edges.items()) == list(h.edges.items())
    assert g.links == h.links and g.closed == h.closed


@pytest.mark.parametrize(
    "start, depth",
    [
        (affine_start(3, 2), 12),
        (affine_start(5, "mirror"), 8),
        (affine_start(7, -1), 6),
    ]
    + [
        (spherical_seed(spherical_matrix(*pair), ref), None)
        for pair, ref in zip(
            SPHERICAL_PAIRS, [(1, 2, 4), (2, 3, 7), (5, 1, 3), (4, 2, 1), (1, 4, 2)]
        )
    ],
)
def test_an_admit_that_refuses_nothing_changes_nothing(start, depth):
    g = exgraph.bfs(start, depth_limit=depth, admit=lambda s: True)
    assert_identical_runs(g, exgraph.bfs(start, depth_limit=depth))
    assert g.closed is (depth is None)


def test_admit_stops_the_bfs_at_the_first_refused_seed():
    # (1,2,4) is incompatible at (1/3,2/5): its closure has 2,592 seeds,
    # and the seventh new seed in BFS order has a long rank-2 orbit
    start = spherical_seed(spherical_matrix(Fraction(1, 3), Fraction(2, 5)), (1, 2, 4))
    refused = []

    def admit(s):
        if exgraph._orbits_short(s):
            return True
        refused.append(s)
        return False

    g = exgraph.bfs(start, admit=admit)
    full = exgraph.bfs(start)
    assert full.closed and full.order() == 2592
    assert not g.closed and g.order() == 7 and len(refused) == 1
    # the admitted run is the plain run up to the refused seed, which is
    # not stored
    order = list(full.vertices)
    assert list(g.vertices) == order[:7]
    assert refused[0].canonical_key() == order[7] not in g.vertices
    assert all(exgraph._orbits_short(s) for s in g.vertices.values())


def test_growth_table_and_round_trip():
    t = exgraph.growth(initial_seed(3), 12)
    assert t.entries[0] == (0, 1)
    assert t.entries[1] == (1, 4)
    values = [g for _, g in t.entries]
    assert values == sorted(values)


def test_acyclic_belt_structure():
    for d in (3, 5, 7):
        belt = exgraph.acyclic_belt(initial_seed(d), 7)
        assert len(belt) == 15
        t0 = belt[7].chart.t0
        for s in belt:
            assert s.kind == "triangle"
            assert t_invariant(s) == t0
        assert belt[7] == initial_seed(d)
        # consecutive members are one mutation apart and the d=3 belt is
        # made of equilateral triangles throughout
        if d == 3:
            assert all(s.angle_triple() == (1, 1, 1) for s in belt)


def test_acyclic_belt_is_memoised_and_cannot_be_changed_by_a_caller():
    s = initial_seed(5)
    belt = exgraph.acyclic_belt(s, 4)
    assert isinstance(belt, tuple) and len(belt) == 9
    with pytest.raises(TypeError):
        belt[0] = belt[1]
    mine = list(belt)
    mine.reverse()
    mine.append(s)
    again = exgraph.acyclic_belt(s, 4)
    assert again is belt and len(again) == 9 and again[4] is s
    walked = exgraph.acyclic_belt(initial_seed(5), 4)
    assert [x.canonical_key() for x in again] == [x.canonical_key() for x in walked]
    # a shorter length is sliced from the memoised belt: its middle part
    assert exgraph.acyclic_belt(s, 2) == belt[2:7]


@pytest.mark.parametrize("d", (3, 5, 8))
def test_shorter_acyclic_belts_are_sliced_without_mutating(d, monkeypatch):
    fresh = {n: exgraph.acyclic_belt(initial_seed(d), n) for n in range(11)}
    s = initial_seed(d)
    exgraph.acyclic_belt(s, 9)

    def refused(seed, k):
        raise AssertionError("a shorter belt mutated")

    monkeypatch.setattr(exgraph, "planar_mutate", refused)
    for n in range(9):
        belt = exgraph.acyclic_belt(s, n)
        assert isinstance(belt, tuple) and belt[n] is s
        assert [x.canonical_key() for x in belt] == [
            x.canonical_key() for x in fresh[n]
        ]
    # a longer request still walks, both ways from s
    calls = []

    def counted(seed, k):
        calls.append(k)
        return planar_mutate(seed, k)

    monkeypatch.setattr(exgraph, "planar_mutate", counted)
    longer = exgraph.acyclic_belt(s, 10)
    assert len(calls) == 20
    assert [x.canonical_key() for x in longer] == [x.canonical_key() for x in fresh[10]]


def test_acyclic_belt_rejects_a_cyclic_seed():
    # the obtuse triangles of the d=5 window carry cyclic quivers
    obtuse = next(
        s for s in graph(5).vertices.values() if s.kind == "triangle" and s.is_obtuse()
    )
    assert not is_acyclic(obtuse.B)
    with pytest.raises(NotAcyclic):
        exgraph.acyclic_belt(obtuse, 2)


def test_belt_translation_every_sixth_seed():
    for d in (3, 5, 7):
        s0 = initial_seed(d)
        belt = exgraph.acyclic_belt(s0, 9)
        for n in range(len(belt) - 6):
            w = translation_between(belt[n], belt[n + 6])
            assert w is not None
            assert length_along(d, w, s0.chart.belt.dir_class) == 4 * s0.chart.t0


def test_lattice_report_odd():
    rep = exgraph.lattice_report(graph(5, 12), 5)
    assert rep.rank_r == 2 == rep.predicted_rank_r
    assert rep.rank_observed == 2
    assert rep.reflection_witness
    assert len(rep.generator_lengths) == 2  # s_1 and s_2
    assert rep.common_denominator == 1  # every length lies in Z[2cos(pi/5)]


@pytest.mark.parametrize("depth, rank", [(0, 0), (2, 2)])
def test_lattice_report_counts_only_witnessed_generators(depth, rank):
    # the one-vertex window has no region to mutate; the depth-2 window
    # witnesses s_1 and s_2
    rep = exgraph.lattice_report(graph(5, depth), 5)
    assert rep.rank_r == rank == len(rep.generator_lengths)
    assert rep.rank_observed == rank


def test_lattice_report_refuses_another_level_before_any_work(monkeypatch):
    g = graph(5, 4)

    def untouched(seed):
        raise AssertionError("the report read a seed")

    monkeypatch.setattr(exgraph, "translation_class", untouched)
    with pytest.raises(ValueError, match=r"d=10 .* level 5"):
        exgraph.lattice_report(g, 10)


def test_lattice_report_even():
    rep = exgraph.lattice_report(graph(4, 12), 4)
    assert rep.rank_r == 1 == euler_totient(4) // 2
    assert rep.rank_observed in rep.predicted_l_ranks


def reference_lattice_report(graph, d):
    """The lattice report with a `translation_between` and a `length_along`
    per pair: each translation class's first seed against every other."""
    seeds = list(graph.vertices.values())
    belt_class = seeds[0].chart.belt.dir_class
    groups = {}
    for s in seeds:
        groups.setdefault(translation_class(s)[0], []).append(s)
    observed, seen = [], set()
    for base, *others in groups.values():
        for other in others:
            L = length_along(d, translation_between(base, other), belt_class)
            if L.key() not in seen:
                seen.add(L.key())
                observed.append(L)
    generators = []
    for k in units_up_to_half(d):
        witness = exgraph.witness_region_translation(graph, d, k)
        if witness is not None:
            generators.append(witness)
            if witness.key() not in seen:
                seen.add(witness.key())
                observed.append(witness)
    den = 1
    for L in observed:
        for c in L.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
    predicted_r = euler_totient(d) // 2
    return exgraph.LatticeReport(
        level=d,
        generator_lengths=generators,
        observed_lengths=observed,
        rank_r=rational_rank(generators) if generators else 0,
        rank_observed=rational_rank(observed) if observed else 0,
        predicted_rank_r=predicted_r,
        predicted_l_ranks=(
            (predicted_r,) if d % 2 == 1 else (predicted_r, euler_totient(d))
        ),
        reflection_witness=any(
            translation_class(reflect_across_belt(s))[0] in groups for s in seeds
        ),
        common_denominator=den,
    )


def belt_entry(d, offset):
    return exgraph.acyclic_belt(initial_seed(d), 6)[6 + offset]


# d = 3..10 to depth 8 from three belt entries, and the affine-analysis
# benchmark's depth-7 windows from the belt entry 6 (its offset k = 1)
LATTICE_WINDOWS = [
    (d, 8, offset) for d in range(3, 11) for offset in (-2, 0, 3)
] + [(d, 7, 6) for d in (4, 6, 8, 5, 7)]


@pytest.mark.parametrize("d, depth, offset", LATTICE_WINDOWS)
def test_lattice_report_matches_the_pairwise_translations(d, depth, offset):
    window = exgraph.bfs(belt_entry(d, offset), depth_limit=depth)
    report = exgraph.lattice_report(window, d)
    expected = reference_lattice_report(window, d)
    for name in ("generator_lengths", "observed_lengths"):
        assert [L.key() for L in getattr(report, name)] == [
            L.key() for L in getattr(expected, name)
        ]
    assert report == expected


@pytest.mark.parametrize("m", (1, 2))
def test_lattice_report_measures_along_a_belt_of_any_direction(m):
    # at m = 2 of d = 4 the belt is vertical, e.x == 0, and the report reads
    # the translations off y
    d = 4
    s = initial_seed(d)
    e = -unit_dir(d, m)
    belt = seedgeom.BeltLine(s.chart.belt.base, m, e)
    chart = seedgeom.PlanarChart(d, belt, s.chart.t0)
    seed = PlanarSeed(chart, s.kind, s.vertices, s.side_dirs, s.ray, s.B)
    moved = (seed, seed.translate(e), seed.translate(e.scale(-3)))
    vertices = {x.canonical_key(): x for x in moved}
    window = exgraph.ExchangeGraphData(
        vertices, {}, dict.fromkeys(vertices, 0), False, seed.canonical_key(), {}
    )
    assert exgraph.lattice_report(window, d).observed_lengths == [1, 3]


@pytest.mark.parametrize("d", (3, 5, 8))
def test_lattice_report_refuses_a_translate_off_the_belt_line(d):
    # a vertex moved across the belt keeps its shape, so it joins a class
    # whose other members it no longer translates to along the belt
    window = exgraph.bfs(initial_seed(d), depth_limit=6)
    sizes = {}
    for s in window.vertices.values():
        shape = translation_class(s)[0]
        sizes[shape] = sizes.get(shape, 0) + 1
    key, seed = next(
        (key, s)
        for key, s in window.vertices.items()
        if key != window.initial_key and sizes[translation_class(s)[0]] > 1
    )
    across = unit_dir(d, seed.chart.belt.dir_class + 1)
    vertices = dict(window.vertices)
    vertices[key] = seed.translate(across)
    moved = exgraph.ExchangeGraphData(
        vertices, window.edges, window.depth, window.closed, window.initial_key, window.links
    )
    with pytest.raises(RuntimeError, match="not parallel to the belt"):
        exgraph.lattice_report(moved, d)


def test_s_k_lengths_match_the_sine_formula():
    import math

    for d in (5, 7):
        n = d // 2
        for k in range(1, n + 1):
            if gcd(k, d) != 1:
                continue
            expect = (
                math.sin(math.pi / d)
                * math.sin(n * math.pi / d)
                / math.sin(k * math.pi / d) ** 2
            )
            assert abs(exgraph.s_k_length(d, k).to_float() - expect) < 1e-12


def test_quotient_census_d5():
    census, triples = exgraph.quotient_census(graph(5, 12))
    assert triples == exgraph.gcd_one_triples(5) == {(1, 1, 3), (1, 2, 2)}
    for cls, tags in census.items():
        assert sorted(tags) == [-1, 1]
        assert all(v == 1 for v in tags.values())


def test_gcd_one_triples():
    assert exgraph.gcd_one_triples(9) == {
        (1, 1, 7),
        (1, 2, 6),
        (1, 3, 5),
        (2, 3, 4),
        (1, 4, 4),
        (2, 2, 5),
    }
    assert (3, 3, 3) not in exgraph.gcd_one_triples(9)


def test_belt_subgraph_check():
    g = graph(5, 12)
    zero = initial_seed(5).chart.belt.e.scale(0)
    assert exgraph.belt_subgraph_check(g, zero, steps=5)
    e = initial_seed(5).chart.belt.e
    for k in (1, 2):
        w = e.scale(exgraph.s_k_length(5, k))
        assert exgraph.belt_subgraph_check(g, w, steps=5)
    # a translation by half a generator misses the graph entirely
    assert not exgraph.belt_subgraph_check(
        g, e.scale(exgraph.s_k_length(5, 1) * Fraction(1, 2)), steps=5
    )


def test_exports_are_deterministic_and_well_formed():
    g = graph(3, 6)
    dot = exgraph.export_dot(g)
    assert dot.startswith("graph exchange {")
    assert dot.count(" -- ") == g.size()
    assert dot == exgraph.export_dot(g)
    svg = exgraph.export_svg(g)
    assert svg.startswith("<svg") and "line" in svg
    data = json.loads(exgraph.export_json(g))
    assert len(data["vertices"]) == g.order()
    assert len(data["edges"]) == g.size()


def test_empty_like_graph_exports():
    g = exgraph.bfs(initial_seed(3), depth_limit=0)
    assert g.order() == 1 and g.size() == 0
    assert "s0" in exgraph.export_dot(g)


def test_dot_of_40_seed_graph_has_60_edges():
    rng = random.Random(12)
    B = spherical_matrix(Fraction(1, 5), Fraction(2, 5))
    _, g = exgraph.compatible_spherical_graph(B, rng, vertex_cap=56)
    dot = exgraph.export_dot(g)
    assert dot.count(" -- ") == 60
    assert g.order() == 40


def test_graph_isomorphism_checker():
    g1 = graph(3, 5)
    g2 = exgraph.bfs(initial_seed(3), depth_limit=5)
    assert exgraph.graphs_isomorphic(g1, g2)
    g3 = exgraph.bfs(initial_seed(5), depth_limit=5)
    assert not exgraph.graphs_isomorphic(g1, g3)
    # same order and size, and isomorphic as bare graphs, but the same
    # mutation words do not lead to corresponding seeds
    belt = exgraph.acyclic_belt(initial_seed(3), 3)
    g4 = exgraph.bfs(belt[1], depth_limit=5)
    g5 = exgraph.bfs(belt[3], depth_limit=5)
    assert (g4.order(), g4.size()) == (g5.order(), g5.size()) == (30, 40)
    assert not exgraph.graphs_isomorphic(g4, g5)


@pytest.mark.parametrize("pair", SPHERICAL_PAIRS)
def test_two_compatible_draws_correspond(pair):
    rng = random.Random(3)
    B = spherical_matrix(*pair)
    _, g1 = exgraph.compatible_spherical_graph(B, rng)
    _, g2 = exgraph.compatible_spherical_graph(B, rng)
    assert g1.vertices.keys() != g2.vertices.keys()
    assert exgraph.graphs_isomorphic(g1, g2) and exgraph.graphs_isomorphic(g2, g1)
