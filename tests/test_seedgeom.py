import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from quiverbelt import exgraph
from quiverbelt.cycfield import FieldElem, cos_multiple, sin_product, units_up_to_half
from quiverbelt.exmatrix import (
    PERMS3,
    ExchangeMatrix,
    _lift_matrix,
    affine_normal_form,
    classify,
    is_acyclic,
    mutate,
    mutation_class,
    sources_and_sinks,
)
from quiverbelt.planegeom import (
    cross_q,
    dot,
    foot_of_perpendicular,
    length_along,
    line_intersect,
    planar_zero,
    reflect_point,
    unit_dir,
)
from quiverbelt.seedgeom import (
    DegeneratePositivity,
    PlanarSeed,
    UnsupportedRegion,
    _cyclic_orientation,
    _feet_on_belt,
    _least_serial,
    _orientation_tag,
    _source_sink,
    _t_invariant,
    _witness_signs,
    cyclic_orientation,
    designated_feet,
    feet_on_belt,
    initial_seed,
    orientation_tag,
    planar_mutate,
    positivity,
    reflect_across_belt,
    side_length,
    t_invariant,
    translate_relabelled,
    translation_between,
    translation_class,
)
from test_planegeom import from_rationals


def test_initial_seed_odd():
    s = initial_seed(5)
    assert s.kind == "triangle"
    assert sorted(s.angle_triple()) == [1, 2, 2]
    assert s.is_acute()
    src, snk = _source_sink(s.B)
    assert src is not None and snk is not None
    # unit d1: the two larger sides have length one
    lengths = sorted(side_length(s, k).to_float() for k in range(3))
    assert abs(lengths[1] - 1) < 1e-12 and abs(lengths[2] - 1) < 1e-12


def test_initial_seed_even():
    s = initial_seed(6)
    assert sorted(s.angle_triple()) == [1, 2, 3]
    s8 = initial_seed(8)
    assert sorted(s8.angle_triple()) == [1, 3, 4]


def test_initial_seed_d3_is_equilateral():
    s = initial_seed(3)
    assert s.angle_triple() == (1, 1, 1)
    assert all(side_length(s, k) == 1 for k in range(3))


def test_t_invariant_definition_and_symmetry():
    for d in (5, 7, 9):
        s = initial_seed(d)
        n = d // 2
        assert s.chart.t0 == sin_product(d, 1, n)
        assert t_invariant(s) == s.chart.t0


def test_t_invariant_numeric_oracle():
    # a_1 sin(A_2) sin(A_3) with d1 = 1 against floating point
    d = 5
    s = initial_seed(d)
    expect = math.sin(math.pi / 5) * math.sin(2 * math.pi / 5)
    assert abs(t_invariant(s).to_float() - expect) < 1e-12


def test_t_conserved_and_involution_along_random_walks():
    rng = random.Random(9)
    for d in (5, 6, 7):
        s0 = initial_seed(d)
        s = s0
        for _ in range(25):
            k = rng.randrange(3)
            s2 = planar_mutate(s, k)
            assert t_invariant(s2) == s0.chart.t0
            assert planar_mutate(s2, k) == s
            s = s2


def _direction_class(d, v):
    """The m with v parallel to angle m*pi/d, or None: a search over the
    direction classes, for the oracles below."""
    for m in range(d):
        if cross_q(unit_dir(d, m), v).is_zero():
            return m
    return None


def _foot(d, vertices, side_dirs, idx):
    return foot_of_perpendicular(
        d, vertices[idx], vertices[(idx + 1) % 3], side_dirs[idx]
    )


def _walked_belt(s):
    """The belt of an initial seed found by search: the feet on the source
    and sink sides, then (when both sit on one point, as at a right angle)
    those of the seeds reached by up to four source reflections, the
    direction class of the first two distinct feet, and the orientation
    that makes the source side positive and the sink side negative.
    Returns (base, class, e); the oracle for the belt initial_seed names."""
    d, vertices, side_dirs = s.d, s.vertices, s.side_dirs
    source, sink = _source_sink(s.B)
    points = [_foot(d, vertices, side_dirs, i) for i in (source, sink)]
    cur_v, cur_d, cur_B = list(vertices), list(side_dirs), s.B
    for _ in range(4):
        if any(p != points[0] for p in points):
            break
        src, _ = _source_sink(cur_B)
        if src is None:
            break
        base_pt = cur_v[(src + 1) % 3]
        mirror = cur_d[src]
        cur_v[src] = reflect_point(d, cur_v[src], base_pt, mirror)
        for i in range(3):
            if i != src:
                cur_d[i] = (2 * mirror - cur_d[i]) % d
        cur_B = mutate(cur_B, src)
        for i in _source_sink(cur_B):
            if i is not None:
                points.append(_foot(d, cur_v, cur_d, i))
    base = points[0]
    other = next(p for p in points if p != base)
    m = _direction_class(d, other - base)
    centroid = (vertices[0] + vertices[1] + vertices[2]).scale(Fraction(1, 3))
    src_out, snk_out = _witness_signs(
        d,
        [vertices[(i + 1) % 3] for i in (source, sink)],
        [side_dirs[i] for i in (source, sink)],
        centroid,
    )
    for e in (unit_dir(d, m), -unit_dir(d, m)):
        src_val = (src_out * cross_q(unit_dir(d, side_dirs[source]), e)).sign()
        snk_val = (snk_out * cross_q(unit_dir(d, side_dirs[sink]), e)).sign()
        if src_val < 0 and snk_val > 0:
            return base, m, e
    raise AssertionError("no orientation makes the source positive")


@pytest.mark.parametrize("d", range(3, 61))
def test_named_belt_matches_the_walked_belt(d):
    s = initial_seed(d)
    base, m, e = _walked_belt(s)
    belt = s.chart.belt
    assert (belt.base, belt.dir_class, belt.e) == (base, m, e)
    assert s.chart.belt_cross_signs == tuple(
        cross_q(unit_dir(d, j), e).sign() for j in range(d)
    )


@pytest.mark.parametrize("d", range(3, 41))
def test_designated_feet_of_the_depth3_window_lie_on_the_belt(d):
    graph = exgraph.bfs(initial_seed(d), depth_limit=3)
    for s in graph.vertices.values():
        for foot in designated_feet(s):
            assert s.chart.belt.contains(foot)
        assert feet_on_belt(s)


def test_positivity_signs_at_the_initial_seed():
    for d in range(3, 61):
        s = initial_seed(d)
        src, snk = _source_sink(s.B)
        assert positivity(s, src) == 1
        assert positivity(s, snk) == -1


def test_source_mutations_reproduce_the_belt_figure():
    # the first six source mutations are reflections: triangle moves, stays
    # acute, keeps two vertices each time
    s = initial_seed(5)
    for _ in range(6):
        src, _ = _source_sink(s.B)
        s2 = planar_mutate(s, src)
        shared = sum(1 for v in s2.vertices if v in s.vertices)
        assert s2.kind == "triangle" and shared == 2
        assert s2.is_acute()
        s = s2


def test_translation_between():
    s = initial_seed(5)
    assert translation_between(s, s).is_zero()
    w = s.chart.belt.e.scale(Fraction(3, 2))
    assert translation_between(s, s.translate(w)) is not None
    other = planar_mutate(s, 0)
    assert translation_between(s, other) is None
    # a translate off the belt direction trips the parallelism assertion
    with pytest.raises(RuntimeError):
        translation_between(s, s.translate(from_rationals(5, 0, 1)))


def test_hand_shifted_triangle_leaves_the_belt():
    s = initial_seed(5)
    off = s.translate(from_rationals(5, 0, 1))
    assert not feet_on_belt(off)


def test_reflect_across_belt_preserves_structure():
    for d in (5, 7):
        s = initial_seed(d)
        r = reflect_across_belt(s)
        assert sorted(r.angle_triple()) == sorted(s.angle_triple())
        assert t_invariant(r) == t_invariant(s)
        assert feet_on_belt(r)
        assert orientation_tag(r) == -orientation_tag(s)


@pytest.mark.parametrize("d", range(3, 13))
def test_initial_seed_lies_in_the_affine_class_of_its_level(d):
    # `enumerate --entries` realises every affine class by
    # initial_seed(level): that matrix must classify as affine at its own
    # level and lie in the class of affine_normal_form(d)
    B = initial_seed(d).B
    result = classify(B)
    assert result.kind == "affine" and result.level == d
    members, _ = mutation_class(affine_normal_form(d))
    level = math.lcm(B.level, *(m.level for m in members.values()))
    assert _lift_matrix(B, level).canonical_key() in {
        _lift_matrix(m, level).canonical_key() for m in members.values()
    }


def test_decomposable_classes_have_no_realisation():
    # vertex 1 has no arrows; the rank-2 factor on {0, 2} has weight 2cos(pi/7)
    w = cos_multiple(7, 1)
    B = ExchangeMatrix(FieldElem.zero(7), -w, FieldElem.zero(7))
    result = classify(B)
    assert result.kind == "decomposable" and result.weight == w
    assert str(result) == "Decomposable(weight=cos(1/7))"


def test_regions_appear_and_translate():
    g = exgraph.bfs(initial_seed(5), depth_limit=6)
    regions = [s for s in g.vertices.values() if s.kind == "region"]
    assert regions
    for region in regions[:4]:
        f = region.finite_side_index()
        assert region.side_dirs[f] == region.chart.belt.dir_class
        k = region.transversal_multiple()
        assert 1 <= k < 5
        # mutation at a parallel side translates the region along its
        # finite side by exactly s_k
        for side in range(3):
            if side == f:
                continue
            image = planar_mutate(region, side)
            if image.kind != "region":
                continue
            w = translation_between(region, image)
            if w is None or w.is_zero():
                continue
            length = length_along(5, w, region.chart.belt.dir_class)
            assert length == exgraph.s_k_length(5, k)


def test_exactness_closure_under_random_mutation():
    rng = random.Random(17)
    s = initial_seed(7)
    for _ in range(40):
        s = planar_mutate(s, rng.randrange(3))
        for v in s.vertices:
            if v is not None:
                assert v.x.level == 7 and v.y.level == 7


def _angle_multiple_between(d, u, v):
    """The angle between two grid vectors as a multiple of pi/d, found by
    searching each vector's direction class: the reference for angles read
    off the side classes."""
    mu = _direction_class(d, u)
    mv = _direction_class(d, v)
    if mu is None or mv is None:
        raise ValueError("vector is not parallel to a grid direction")
    delta = (mu - mv) % d
    lo, hi = min(delta, d - delta), max(delta, d - delta)
    sgn = dot(d, u, v).sign()
    if sgn > 0:
        return lo
    if sgn < 0:
        return hi
    if d % 2 != 0:
        raise ValueError("perpendicular grid vectors need an even level")
    return d // 2


def _searched_angle_triple(s):
    d = s.d
    if s.kind == "triangle":
        return tuple(
            _angle_multiple_between(
                d,
                s.vertices[(i + 1) % 3] - s.vertices[i],
                s.vertices[(i + 2) % 3] - s.vertices[i],
            )
            for i in range(3)
        )
    f = s.finite_side_index()
    out = [0, 0, 0]
    for i in range(3):
        if i != f:
            other = next(j for j in range(3) if j not in (i, f))
            out[i] = _angle_multiple_between(
                d, s.vertices[other] - s.vertices[i], s.ray
            )
    return tuple(out)


@lru_cache(maxsize=None)
def _window(d, offset):
    """The depth-8 window grown from entry 6*offset of the initial acyclic
    belt: the initial seed translated by offset * 4T."""
    steps = 6 * abs(offset)
    start = exgraph.acyclic_belt(initial_seed(d), steps)[steps + 6 * offset]
    return tuple(exgraph.bfs(start, depth_limit=8).vertices.values())


@pytest.mark.parametrize("d", range(3, 13))
def test_angles_from_side_classes_match_the_direction_search(d):
    kinds = set()
    for seed in _window(d, 0):
        for s in (seed, reflect_across_belt(seed)):
            kinds.add(s.kind)
            expected = _searched_angle_triple(s)
            assert s.angle_triple() == expected
            if s.kind == "region":
                finite = [a for a in expected if a]
                assert s.transversal_multiple() == min(finite)
    assert kinds == {"triangle", "region"}


def _fields(s):
    return s.chart, s.kind, s.vertices, s.side_dirs, s.ray, s.B


def _witness_outward(s):
    """Outward sign of each side, read off the interior witness."""
    w = s.interior_witness()
    signs = []
    for i in range(3):
        val = cross_q(unit_dir(s.d, s.side_dirs[i]), w - s.side_base(i)).sign()
        if val == 0:
            raise UnsupportedRegion("interior witness landed on a side")
        signs.append(-val)
    return tuple(signs)


def _recomputed_positivity(s, k, outward):
    sigma = outward[k]
    u = unit_dir(s.d, s.side_dirs[k])
    val = (sigma * cross_q(u, s.chart.belt.e)).sign()
    if val != 0:
        return -val
    off = (sigma * cross_q(u, s.chart.belt.base - s.side_base(k))).sign()
    if off == 0:
        raise DegeneratePositivity("side lies on the belt line")
    return -off


def _recomputed_mutate(s, k):
    """Planar mutation recomputed from scratch: witness signs for every
    side, positivity by a cross product with the belt, all three lines
    intersected again.  The reference for `planar_mutate`, which derives
    the child from its parent."""
    d = s.d
    outward = _witness_outward(s)
    pos = _recomputed_positivity(s, k, outward) > 0
    reflect = {}
    for i in range(3):
        if i != k:
            sb = s.B[i, k].sign()
            reflect[i] = (sb < 0) if pos else (sb > 0)
    new_B = mutate(s.B, k)
    mk = s.side_dirs[k]
    base_k = s.side_base(k)
    lines, inner = {}, {}
    for t in range(3):
        base_t, m_t, inner_t = s.side_base(t), s.side_dirs[t], -outward[t]
        if t == k:
            lines[t], inner[t] = (base_t, m_t), -inner_t
        elif reflect[t]:
            raw = 2 * mk - m_t
            eps = 1 if raw % (2 * d) == raw % d else -1
            lines[t] = (reflect_point(d, base_t, base_k, mk), raw % d)
            inner[t] = -eps * inner_t
        else:
            lines[t], inner[t] = (base_t, m_t), inner_t
    dirs = tuple(lines[t][1] for t in range(3))
    parallel = [(i, j) for i in range(3) for j in range(i + 1, 3) if dirs[i] == dirs[j]]

    def meet(a, b):
        return line_intersect(d, lines[a][0], lines[a][1], lines[b][0], lines[b][1])

    if not parallel:
        verts = [meet(*[x for x in range(3) if x != t]) for t in range(3)]
        if None in verts:
            raise UnsupportedRegion("unexpected parallel sides")
        for t in range(3):
            if cross_q(unit_dir(d, dirs[t]), verts[t] - lines[t][0]).sign() != inner[t]:
                raise UnsupportedRegion("half-planes bound an unbounded cell")
        return PlanarSeed(s.chart, "triangle", tuple(verts), dirs, None, new_B)
    if len(parallel) > 1:
        raise UnsupportedRegion("degenerate line arrangement")
    p, q = parallel[0]
    f = 3 - p - q
    u_par = unit_dir(d, dirs[p])
    if cross_q(u_par, lines[q][0] - lines[p][0]).sign() != inner[p]:
        raise UnsupportedRegion("half-planes bound a wedge, not a strip")
    if cross_q(u_par, lines[p][0] - lines[q][0]).sign() != inner[q]:
        raise UnsupportedRegion("half-planes bound a wedge, not a strip")
    verts = [None, None, None]
    verts[p], verts[q] = meet(f, q), meet(f, p)
    if verts[p] is None or verts[q] is None:
        raise UnsupportedRegion("finite side parallel to the strip")
    rho = inner[f] * cross_q(unit_dir(d, dirs[f]), u_par).sign()
    if rho == 0:
        raise UnsupportedRegion("ray direction degenerate")
    ray = u_par.scale(rho)
    return PlanarSeed(s.chart, "region", tuple(verts), dirs, ray, new_B)


@pytest.mark.parametrize("d", range(3, 13))
def test_planar_mutation_matches_the_full_recompute(d):
    """Field by field, outward signs included, on every seed of the
    depth-8 windows from two belt offsets and on each seed's mirror."""
    compared = 0
    for offset in (0, 1):
        for seed in _window(d, offset):
            for s in (seed, reflect_across_belt(seed)):
                for k in range(3):
                    try:
                        expected = _recomputed_mutate(s, k)
                    except (DegeneratePositivity, UnsupportedRegion) as exc:
                        with pytest.raises(type(exc)):
                            planar_mutate(s, k)
                        continue
                    image = planar_mutate(s, k)
                    assert _fields(image) == _fields(expected)
                    assert image.outward_signs() == _witness_outward(expected)
                    compared += 1
    assert compared


@pytest.mark.parametrize("d", range(3, 13))
def test_window_seeds_have_no_side_that_reflects_nothing(d):
    """planar_mutate reflects no side exactly at a positive sink or a
    negative source; no seed of the window or its belt mirror has one.
    Sources are positive and sinks negative, and a region's quiver is
    cyclic (so it has neither) with +-2 on its parallel pair."""
    regions = 0
    for seed in _window(d, 0):
        for s in (seed, reflect_across_belt(seed)):
            sources, sinks = sources_and_sinks(s.B)
            assert all(positivity(s, i) == 1 for i in sources)
            assert all(positivity(s, i) == -1 for i in sinks)
            if s.kind == "region":
                regions += 1
                p, q = (i for i in range(3) if i != s.finite_side_index())
                assert s.side_dirs[p] == s.side_dirs[q]
                assert not is_acyclic(s.B)
                assert s.B[p, q].abs() == 2
    assert regions


def _branched_side_base(s, i):
    """`PlanarSeed.side_base` with a branch per kind of seed: the reference
    for the one side rule."""
    if s.kind == "triangle":
        return s.vertices[(i + 1) % 3]
    f = s.finite_side_index()
    if i == f:
        return next(v for v in s.vertices if v is not None)
    other = next(j for j in range(3) if j != i and j != f)
    return s.vertices[other]


def _branched_endpoints_of_side(s, i):
    """`PlanarSeed.endpoints_of_side` with a branch per kind of seed."""
    if s.kind == "triangle":
        return s.vertices[(i + 1) % 3], s.vertices[(i + 2) % 3]
    if i != s.finite_side_index():
        raise ValueError("side is infinite")
    ends = [v for v in s.vertices if v is not None]
    return ends[0], ends[1]


@pytest.mark.parametrize("d", range(3, 13))
def test_one_side_rule_matches_the_branch_per_kind(d):
    """On the depth-8 window, its belt mirrors and the six relabellings of
    each, so that regions have their infinite slot at every index.  The
    rule differs only on the finite side of a region whose infinite slot
    is 1: side_base picks vertex 2, on the same line as the old vertex 0,
    and endpoints_of_side lists the same two vertices from slot 2 on."""
    zero = planar_zero(d)
    slots = set()
    for seed in _window(d, 0):
        for mirrored in (seed, reflect_across_belt(seed)):
            for r in range(6):
                s = translate_relabelled(mirrored, r, zero)
                f = s.finite_side_index()
                slots.add(f)
                for i in range(3):
                    new, old = s.side_base(i), _branched_side_base(s, i)
                    moved = f == 1 and i == 1
                    if moved:
                        u = unit_dir(d, s.side_dirs[i])
                        assert new != old and cross_q(u, new - old).is_zero()
                    else:
                        assert new == old
                    try:
                        ends = _branched_endpoints_of_side(s, i)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=str(exc)):
                            s.endpoints_of_side(i)
                        continue
                    assert s.endpoints_of_side(i) == (ends[::-1] if moved else ends)
    assert slots == {None, 0, 1, 2}


def _negated(s):
    """The seed's region with every arrow reversed."""
    B = ExchangeMatrix(-s.B[0, 1], -s.B[0, 2], -s.B[1, 2])
    return PlanarSeed(s.chart, s.kind, s.vertices, s.side_dirs, s.ray, B)


@pytest.mark.parametrize("d", (3, 4, 5, 7))
def test_a_side_that_reflects_nothing_is_unsupported(d):
    """Negating an acyclic triangle's arrows makes its sources sinks and
    its sinks sources with their positivity unchanged: mutation there
    reflects no side, and planar_mutate refuses it."""
    refused = 0
    for seed in _window(d, 0):
        if seed.kind != "triangle":
            continue
        s = _negated(seed)
        sources, sinks = sources_and_sinks(s.B)
        for k in sources + sinks:
            if positivity(s, k) == (1 if k in sinks else -1):
                with pytest.raises(UnsupportedRegion):
                    planar_mutate(s, k)
                refused += 1
    assert refused


def _searched_translation(s1, s2):
    """The w with s2 = w + s1 up to relabelling, or None, found by trying
    the six relabellings field by field: the reference for the anchored
    translation classes behind translation_between."""
    if s1.kind != s2.kind or s1.chart.d != s2.chart.d:
        return None
    for p in PERMS3:
        if any(
            (s1.vertices[p[i]] is None) != (s2.vertices[i] is None) for i in range(3)
        ):
            continue
        if any(s1.side_dirs[p[i]] != s2.side_dirs[i] for i in range(3)):
            continue
        if any(
            s1.B[p[i], p[j]] != s2.B[i, j]
            for i in range(3)
            for j in range(3)
            if i != j
        ):
            continue
        if s1.kind == "region" and s1.ray != s2.ray:
            continue
        diffs = [
            s2.vertices[i] - s1.vertices[p[i]]
            for i in range(3)
            if s1.vertices[p[i]] is not None
        ]
        if any(diff != diffs[0] for diff in diffs[1:]):
            continue
        w = diffs[0]
        if not w.is_zero() and not cross_q(s1.chart.belt.e, w).is_zero():
            raise RuntimeError("translation witness not parallel to the belt")
        return w
    return None


def _anchored_key(seed):
    """Canonical key of the seed translated so its coordinatewise-smallest
    vertex sits at the origin: the shape key the lattice report and the
    quotient census used before translation_class."""
    verts = [v for v in seed.vertices if v is not None]
    anchor = verts[0]
    for v in verts[1:]:
        s = (v.x - anchor.x).sign()
        if s < 0 or (s == 0 and (v.y - anchor.y).sign() < 0):
            anchor = v
    return seed.translate(-anchor).canonical_key()


def _same_translation(s1, s2):
    """Both answers for the pair, raising alike when either raises."""
    try:
        expected = _searched_translation(s1, s2)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            translation_between(s1, s2)
        return "raised"
    w = translation_between(s1, s2)
    assert (w is None) == (expected is None)
    assert w is None or w == expected
    return w


@pytest.mark.parametrize("d", range(3, 9))
def test_translation_between_matches_the_relabelling_search(d):
    """On the depth-8 window and its belt mirrors: every pair inside a
    translation class, a seeded sample of pairs across classes, and each
    seed against a translate off the belt."""
    seeds = [t for seed in _window(d, 0) for t in (seed, reflect_across_belt(seed))]
    classes = {}
    for s in seeds:
        classes.setdefault(_anchored_key(s), []).append(s)
    assert all(translation_class(m[0])[0] == key for key, m in classes.items())
    translated = 0
    for members in classes.values():
        for a in members:
            for b in members:
                w = _same_translation(a, b)
                assert w is not None
                translated += not w.is_zero()
    assert translated
    rng = random.Random(d)
    results = [_same_translation(*rng.sample(seeds, 2)) for _ in range(400)]
    assert 0 < results.count(None) < len(results)
    belt = seeds[0].chart.belt
    off = from_rationals(d, 0, 1)
    assert not cross_q(belt.e, off).is_zero()
    for s in rng.sample(seeds, 20):
        assert _same_translation(s, s.translate(off)) == "raised"
        assert _same_translation(s.translate(off), s) == "raised"


@lru_cache(maxsize=None)
def _deep_window(d):
    return exgraph.bfs(initial_seed(d), depth_limit=10)


def _searched_census(graph):
    """quotient_census with its shapes read from the anchored key and
    its class, triple and orientation tag from every seed, the tag by the
    unmemoised body."""
    census, triples = {}, set()
    for seed in graph.vertices.values():
        if seed.kind != "triangle":
            continue
        angle = seed.angle_triple()
        signs = seed.B.sign_pattern()
        cls = min(
            (
                tuple(angle[p[i]] for i in range(3)),
                tuple(signs[p[i]][p[j]] for i in range(3) for j in range(3) if i != j),
            )
            for p in PERMS3
        )
        triples.add(tuple(sorted(angle)))
        tags = census.setdefault(cls, {})
        tags.setdefault(_orientation_tag(seed), set()).add(_anchored_key(seed))
    counts = {
        cls: {tag: len(shapes) for tag, shapes in tags.items()}
        for cls, tags in census.items()
    }
    return counts, triples


@pytest.mark.parametrize("d", (3, 4, 5, 7, 8))
def test_lattice_report_and_census_match_the_relabelling_search(d):
    """The observed lengths and the census of the depth-10 window, against
    anchored-key groups witnessed by the relabelling search."""
    graph = _deep_window(d)
    groups = {}
    for s in graph.vertices.values():
        groups.setdefault(_anchored_key(s), []).append(s)
    belt_class = graph.vertices[graph.initial_key].chart.belt.dir_class
    expected, seen = [], set()
    lengths = [
        length_along(d, _searched_translation(base, other), belt_class)
        for base, *others in groups.values()
        for other in others
    ]
    lengths += [exgraph.s_k_length(d, k) for k in units_up_to_half(d)]
    for L in lengths:
        if L.key() not in seen:
            seen.add(L.key())
            expected.append(L)
    report = exgraph.lattice_report(graph, d)
    assert [L.key() for L in report.observed_lengths] == [L.key() for L in expected]
    try:
        census = _searched_census(graph)
    except UnsupportedRegion:
        # an orientation tag degenerates (d = 4), before any shape is read
        with pytest.raises(UnsupportedRegion):
            exgraph.quotient_census(graph)
        return
    assert exgraph.quotient_census(graph) == census


# each memoised predicate with its direct body
PREDICATES = (
    (t_invariant, _t_invariant),
    (feet_on_belt, _feet_on_belt),
    (orientation_tag, _orientation_tag),
)


def _outcome(fn, s):
    try:
        return fn(s)
    except UnsupportedRegion as exc:
        return type(exc)


def _assert_memo_matches_direct(seeds):
    """Every predicate on every seed; the cyclic orientation, defined for
    triangles with a cyclic quiver, on those.  Returns how many of them
    there were."""
    cyclic = 0
    for s in seeds:
        for memoised, direct in PREDICATES:
            assert _outcome(memoised, s) == _outcome(direct, s)
        if s.kind == "triangle" and not is_acyclic(s.B):
            assert cyclic_orientation(s) == _cyclic_orientation(s)
            cyclic += 1
    return cyclic


@pytest.mark.parametrize("d", range(3, 9))
@pytest.mark.parametrize("offset", (0, 1))
def test_memoised_predicates_match_the_direct_ones(d, offset):
    """t_invariant, feet_on_belt, orientation_tag and cyclic_orientation
    read the chart's memo per translation class (and belt offset); every
    answer must be the direct one: on a fresh window, on fresh copies with
    no cached class, on belt mirrors, and on translates moved off the belt
    to either side, which share their shape with a window seed but not its
    offset."""
    steps = 6 * offset
    start = exgraph.acyclic_belt(initial_seed(d), steps)[steps + 6 * offset]
    seeds = list(exgraph.bfs(start, depth_limit=8).vertices.values())
    memo = start.chart._memo
    assert not memo
    # the d = 3 and d = 4 windows hold no triangle with a cyclic quiver
    assert (_assert_memo_matches_direct(seeds) > 0) is (d >= 5)
    # the memo answered most seeds: one entry per class, not per seed
    assert 0 < len(memo) < len(seeds)
    filled = len(memo)
    copies = [PlanarSeed(*_fields(s)) for s in seeds]
    _assert_memo_matches_direct(copies)
    assert len(memo) == filled
    _assert_memo_matches_direct(reflect_across_belt(s) for s in seeds)
    off = from_rationals(d, 0, 100)
    assert not cross_q(start.chart.belt.e, off).is_zero()
    moved = random.Random(d).sample(seeds, 12)
    translates = [s.translate(w) for s in moved for w in (off, -off)]
    _assert_memo_matches_direct(translates)
    assert not any(map(feet_on_belt, translates))
    assert {orientation_tag(t) for t in translates} == {-1, 1}


def test_memo_keeps_no_exception():
    # the d = 4 window holds a triangle whose orientation tag degenerates;
    # asking twice must raise twice, and nothing is stored for it
    seeds = exgraph.bfs(initial_seed(4), depth_limit=6).vertices.values()
    bad = next(s for s in seeds if _outcome(_orientation_tag, s) is UnsupportedRegion)
    for _ in range(2):
        with pytest.raises(UnsupportedRegion):
            orientation_tag(bad)
    assert _orientation_tag not in {key[0] for key in bad.chart._memo}


# -- one angle rule ------------------------------------------------------------


def _branched_angle_multiple(s, i):
    """`PlanarSeed.angle_multiple` with a branch per kind of seed: the
    betweenness test on the three side classes for a triangle, the dot
    product along the ray for a region, which has no angle at its
    infinite slot."""
    d = s.d
    if s.kind == "triangle":
        mi, mj, mk = (s.side_dirs[(i + t) % 3] for t in range(3))
        delta = abs(mj - mk)
        return d - delta if min(mj, mk) < mi < max(mj, mk) else delta
    f = s.finite_side_index()
    if i == f:
        raise ValueError("no finite vertex opposite the finite side")
    j = next(j for j in range(3) if j != i and j != f)
    lo = s.transversal_multiple()
    along = dot(d, s.vertices[j] - s.vertices[i], s.ray).sign()
    return lo if along > 0 else d - lo


def _branched_t_invariant(s):
    """`_t_invariant` with a branch per kind of seed: side 0 of a triangle
    with the sines of its end angles, the finite side of a region with
    the squared sine of its transversal multiple."""
    d = s.d
    if s.kind == "triangle":
        vj, vk = s.endpoints_of_side(0)
        length = length_along(d, vk - vj, s.side_dirs[0])
        return length * sin_product(
            d, _branched_angle_multiple(s, 1), _branched_angle_multiple(s, 2)
        )
    f = s.finite_side_index()
    e1, e2 = s.endpoints_of_side(f)
    k = s.transversal_multiple()
    return length_along(d, e2 - e1, s.side_dirs[f]) * sin_product(d, k, k)


def _branched_designated_feet(s):
    """`designated_feet` with a branch per kind of seed: a region drops
    one foot from its acute finite-side endpoint onto the parallel side
    through the obtuse one."""
    d = s.d

    def foot(i):
        return foot_of_perpendicular(d, s.vertices[i], s.side_base(i), s.side_dirs[i])

    if s.kind == "triangle":
        sources, sinks = sources_and_sinks(s.B)
        if sources or sinks:
            idxs = sorted(set(sources) | set(sinks))
        else:
            obtuse = next(
                i for i in range(3) if 2 * _branched_angle_multiple(s, i) > d
            )
            idxs = [i for i in range(3) if i != obtuse]
        return [foot(i) for i in idxs]
    f = s.finite_side_index()
    first, second = [i for i in range(3) if i != f]
    obtuse_first = 2 * _branched_angle_multiple(s, first) > d
    return [foot(second if obtuse_first else first)]


def _assert_one_rule_matches_the_branches(seeds):
    """Angles, T and the designated feet of every seed against the branch
    per kind; the infinite slot of a region reads 0.  Returns the kinds
    seen."""
    kinds = set()
    for s in seeds:
        kinds.add(s.kind)
        f = s.finite_side_index()
        for i in range(3):
            if i == f:
                with pytest.raises(ValueError):
                    _branched_angle_multiple(s, i)
                assert s.angle_multiple(i) == 0
            else:
                assert s.angle_multiple(i) == _branched_angle_multiple(s, i)
        T = _t_invariant(s)
        assert T == _branched_t_invariant(s)
        assert T.key() == _branched_t_invariant(s).key()
        assert designated_feet(s) == _branched_designated_feet(s)
    return kinds


@pytest.mark.parametrize("d", range(3, 13))
@pytest.mark.parametrize("offset", (0, 1))
def test_one_angle_rule_matches_the_branch_per_kind(d, offset):
    """On the inputs of the memo test: a window grown from the belt at
    the offset, fresh copies whose outward signs come from the interior
    witness, belt mirrors, and translates moved off the belt to either
    side."""
    steps = 6 * offset
    start = exgraph.acyclic_belt(initial_seed(d), steps)[steps + 6 * offset]
    seeds = list(exgraph.bfs(start, depth_limit=8).vertices.values())
    copies = [PlanarSeed(*_fields(s)) for s in seeds]
    assert not any("outward" in c._cache for c in copies)
    mirrors = [reflect_across_belt(s) for s in seeds]
    off = from_rationals(d, 0, 100)
    translates = [s.translate(w) for s in seeds for w in (off, -off)]
    for group in (seeds, copies, mirrors, translates):
        assert _assert_one_rule_matches_the_branches(group) == {"triangle", "region"}


@pytest.mark.parametrize("d", range(3, 21))
def test_window_regions_have_one_obtuse_vertex_and_no_angle_at_infinity(d):
    """The premise of the one rule for feet: no window region is
    perpendicular, so each has exactly one obtuse finite vertex, and
    its infinite slot reads 0."""
    regions = [s for s in _window(d, 0) if s.kind == "region"]
    assert regions
    for s in regions:
        f = s.finite_side_index()
        assert s.angle_multiple(f) == 0
        assert math.gcd(s.transversal_multiple(), d) == 1
        obtuse = [i for i in range(3) if i != f and 2 * s.angle_multiple(i) > d]
        assert len(obtuse) == 1
        assert sum(s.angle_triple()) == d


# -- canonical keys ------------------------------------------------------------


def six_serial_key(s):
    """(canonical key, key_perm) of a planar seed as the least of all six
    serialisations: the reference for the key built from slot order."""
    verts = ["inf" if v is None else v.key() for v in s.vertices]
    dirs = [str(m) for m in s.side_dirs]
    ray = s.ray.key() if s.ray is not None else "-"
    arrows = s.B.entry_keys()
    serials = [
        ";".join(
            [s.kind]
            + [verts[p[i]] for i in range(3)]
            + [dirs[p[i]] for i in range(3)]
            + [ray]
            + [arrows[p[i], p[j]] for i, j in arrows]
        )
        for p in PERMS3
    ]
    key = min(serials)
    return key, serials.index(key)


def _built_key(s):
    return s.canonical_key(), s.key_perm()


@pytest.mark.parametrize("d", range(3, 13))
def test_planar_keys_match_the_six_serial_minimum(d):
    """On the depth-8 window, fresh copies of its seeds, their translation
    class shapes and their belt mirrors."""
    for seed in _window(d, 0):
        for s in (PlanarSeed(*_fields(seed)), reflect_across_belt(seed)):
            assert _built_key(s) == six_serial_key(s)
            shape, anchor, perm = translation_class(s)
            assert (shape, perm) == six_serial_key(s.translate(-anchor))


def test_planar_key_with_two_equal_slots_takes_the_fallback():
    """Two vertex slots hold one point, so the side classes decide, and
    not always for the identity."""
    s = next(t for t in _window(5, 0) if t.kind == "triangle")
    a, b, _ = s.vertices
    perms = set()
    for verts in ((a, b, a), (b, a, a), (a, a, b)):
        tied = PlanarSeed(s.chart, "triangle", verts, s.side_dirs, None, s.B)
        expected = six_serial_key(tied)
        assert _built_key(tied) == expected
        perms.add(expected[1])
    assert perms != {0}


def test_least_serial_sorts_slots_with_the_separator_appended():
    """Against the six-way minimum on random slot strings over the
    characters that element keys use: one serialisation is built when the
    slots differ, six on a tie."""
    rng = random.Random(24)
    alphabet = "0167/,-|"
    built = []

    def serial_of(slots):
        def serial(p):
            built.append(p)
            return ";".join(["prefix"] + [slots[i] for i in p] + ["1", "0", "2", "tail"])

        return serial

    for _ in range(3000):
        slots = ["".join(rng.choices(alphabet, k=rng.randint(1, 3))) for _ in range(3)]
        serials = [serial_of(slots)(p) for p in PERMS3]
        built.clear()
        key, r = _least_serial(slots, serial_of(slots))
        assert (key, r) == (min(serials), serials.index(min(serials)))
        assert len(built) == (1 if len(set(slots)) == 3 else 6)
    # "a/6" sorts after "a/67": ";" follows every digit
    assert _least_serial(["a/6", "a/67", "b"], serial_of(["a/6", "a/67", "b"]))[1] == 2
