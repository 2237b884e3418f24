"""Exchange-graph enumeration: BFS over seeds, growth tables, acyclic
belts, translation-lattice reports, quotient censuses, and exports.

The BFS runs over planar or spherical seeds or the matrices of a mutation
class, three directions each, and identifies them by canonical keys.
Vertex order is the deterministic BFS discovery order; edges are
unordered key pairs of distinct vertices labelled by the mutation index.
Per vertex and direction the graph also keeps the neighbour's key and the
relabelling that carries the mutation onto the stored neighbour, so walks
along the graph follow labelled seeds without mutating again.

Whether two planar seeds are translates, and by which vector, is decided
by `seedgeom.translation_class` alone: lattice reports, the reflection
witness and the quotient census group seeds by its shape.  A lattice report
checks each class's members to lie on one line parallel to the belt by
their `seedgeom.belt_offset` and reads each translation off one coordinate.

The planar BFS runs on (shape, lambda) states: the shape of a seed's
translation class and its anchor's coordinate along the belt, measured from
the shape's first vertex.  It mutates once per shape and canonical direction,
the key of its table; each entry's voltage is checked once to be parallel to
the belt, so every seed of a shape is a translate along the belt of every
other, which keeps each positivity, and every other seed's mutation is the
table entry translated (see `_planar_steps`).  `tests/test_exgraph.py` keeps
the plain BFS that mutates every vertex as the oracle.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from typing import Callable, Optional

from quiverbelt.cycfield import (
    FieldElem,
    inv_sin_sq,
    rational_rank,
    sin_product,
    units_up_to_half,
)
from quiverbelt.exmatrix import (
    PERM_COMPOSE,
    PERM_INVERSE,
    PERMS3,
    entry_cosine_form,
    mutate,
    sources_and_sinks,
)
from quiverbelt.intpoly import euler_totient
from quiverbelt.planegeom import PlanarPoint, cross_q, dot, length_along
from quiverbelt.seedgeom import (
    DegeneratePositivity,
    NotAcyclic,
    PlanarSeed,
    SphericalSeed,
    belt_offset,
    orientation_tag,
    planar_mutate,
    positivity,
    reflect_across_belt,
    seed_mutate,
    spherical_seed,
    translate_relabelled,
    translation_between,
    translation_class,
)


@dataclass
class ExchangeGraphData:
    """An exchange graph as `bfs` enumerated it (of seeds or of matrices).

    `links[key][k]` is `(nkey, t)` for the stored seed X of `key`: mu_k(X)
    has key `nkey`, and `t` indexes the p in PERMS3 with mu_k(X)'s slot a
    equal to slot p[a] of the stored seed of `nkey` (0 is the identity).
    Entries stay None where a limit kept them out of the graph."""

    vertices: dict  # key -> seed
    edges: dict  # frozenset({k1, k2}) -> mutation index
    depth: dict  # key -> BFS distance from the initial seed
    closed: bool
    initial_key: str
    links: dict  # key -> [(neighbour key, relabelling index) or None] * 3

    def order(self) -> int:
        return len(self.vertices)

    def size(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict:
        adj = {k: [] for k in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def to_json(self):
        keys = list(self.vertices)
        return {
            "vertices": keys,
            "edges": sorted(
                [sorted(pair) + [label] for pair, label in self.edges.items()]
            ),
            "depth": dict(sorted(self.depth.items())),
            "closed": self.closed,
        }


def bfs(
    initial,
    depth_limit: Optional[int] = None,
    vertex_limit: Optional[int] = None,
    admit: Optional[Callable] = None,
) -> ExchangeGraphData:
    """Breadth-first closure of the exchange graph from an initial planar or
    spherical seed, or of the mutation class of an `ExchangeMatrix`.

    A limit of None means unbounded.  The result's `closed` flag is True
    only if the frontier ran out; a depth limit or a vertex limit gives
    the window reached so far with `closed=False`.  Vertices at the depth
    limit look up their neighbours too, but only record edges to vertices
    already known, so depth-limited graphs are honest induced subgraphs.
    A vertex limit stops the BFS where the next new vertex would pass it.
    `admit`, if given, is asked about each new seed as it is built (not
    the initial one); a seed it refuses is not stored, and the BFS stops
    there with `closed=False`, as at a vertex limit.  A closed graph is
    then one whose every new seed was admitted.

    Each edge is found once.  Setting X's link at k to (Y, t) also sets
    Y's link at p[k], p = PERMS3[t], to (X, p^-1) if it is empty: mutation
    is an involution and commutes with relabelling, so mu_{p[k]}(Y) is X
    relabelled by p^-1.  A direction whose link is set is not looked up
    again.

    Each open direction asks a step function for the neighbour: either
    the link (key, relabelling) of a stored vertex, or a function that
    builds the new seed (`_mutation_steps` for spherical seeds and
    matrices).  Planar seeds are the states (shape, lambda) of
    `_planar_steps`: the shape of `translation_class(s)` and the anchor's
    coordinate along the belt.  They are mutated once per table key (shape,
    canonical slot of k), and every other seed under that key takes the
    stored mutation translated, found at lambda plus the entry's step.
    That is exact: each entry's voltage is checked to be parallel to the
    belt, so seeds of one shape differ by translations along it, which keep
    every positivity; mutation reads nothing else a translation changes,
    and every point it builds moves with the seed.  The plain BFS that
    mutates every vertex stays in `tests/test_exgraph.py` as the oracle for
    both."""
    key0 = initial.canonical_key()
    vertices = {key0: initial}
    if isinstance(initial, PlanarSeed):
        step = _planar_steps(initial)
    else:
        # both names are read per call: tests and the benchmark tracer replace them
        mutation = seed_mutate if isinstance(initial, SphericalSeed) else mutate
        step = _mutation_steps(vertices, mutation)
    depth = {key0: 0}
    links = {key0: [None, None, None]}
    edges: dict = {}
    closed = True
    queue = deque([initial])
    while queue:
        seed = queue.popleft()
        key = seed.canonical_key()
        level = depth[key]
        at_limit = depth_limit is not None and level >= depth_limit
        if at_limit:
            closed = False
        out = links[key]
        for k in range(3):
            if out[k] is not None:  # found from the other end
                continue
            link, build = step(seed, k)
            if link is None:
                if at_limit:
                    continue
                if vertex_limit is not None and len(vertices) >= vertex_limit:
                    return ExchangeGraphData(vertices, edges, depth, False, key0, links)
                nxt = build()
                if admit is not None and not admit(nxt):
                    return ExchangeGraphData(vertices, edges, depth, False, key0, links)
                nkey = nxt.canonical_key()
                vertices[nkey] = nxt
                depth[nkey] = level + 1
                links[nkey] = [None, None, None]
                queue.append(nxt)
                link = (nkey, 0)
            out[k] = link
            nkey, t = link
            j = PERMS3[t][k]
            if links[nkey][j] is None:
                links[nkey][j] = (key, PERM_INVERSE[t])
            if nkey != key:
                edges.setdefault(frozenset((key, nkey)), k)
    return ExchangeGraphData(vertices, edges, depth, closed, key0, links)


def _mutation_steps(vertices: dict, mutation: Callable):
    """The BFS step for spherical seeds and matrices: mutate by `mutation`
    and look the key up.  A stored neighbour's relabelling comes from the
    two keys' attaining permutations: q on mu_k(X) and p on the stored
    seed Y give mu_k(X)'s slot a = Y's slot p[q^-1[a]]."""

    def step(seed, k):
        nxt = mutation(seed, k)
        nkey = nxt.canonical_key()
        stored = vertices.get(nkey)
        if stored is None:
            return None, lambda: nxt
        return (nkey, PERM_COMPOSE[stored.key_perm()][PERM_INVERSE[nxt.key_perm()]]), None

    return step


def _planar_steps(initial: PlanarSeed):
    """The BFS step for planar seeds: one `planar_mutate` per translation
    class and canonical direction, on (shape, lambda) states.

    Every stored vertex is the state (shape, lambda): `shape` is that of
    `translation_class`, and its anchor is rep[shape] + lambda * e, where
    e is the belt's unit direction (dot(e, e) == 1) and rep[shape] is the
    anchor of the shape's first vertex, at lambda 0.  Lambda is kept per
    vertex key in this closure, relative to this BFS's representatives.

    The table is keyed by (shape, canonical slot p^-1[k]) and holds the
    first mutation made under its key: the child, that parent's class perm
    and anchor, the child's class shape and perm, and d_lambda, the child's
    lambda minus the parent's.  When an entry is made, the child's voltage
    v = anchor(child) - rep[child shape] must be parallel to the belt
    (cross_q(e, v) == 0, else RuntimeError, as in `translation_between`);
    then the child's lambda is dot(v, e), and a new shape takes the child's
    anchor as its rep.  A step reads the entry and looks (child shape,
    lambda + d_lambda) up in the index, with no positivity, no point
    arithmetic and no point key.  A stored neighbour's relabelling is
    composed from the class perms.  Only a new vertex is built, as the
    table child relabelled and translated by w (`translate_relabelled`).

    Exactness: by induction every stored vertex lies on its shape's line
    through rep parallel to the belt, so two seeds of one shape differ by
    a translation along the belt.  That translation keeps each side's
    offset across the belt, so it keeps every `positivity`.
    `planar_mutate(s, k)` reads the side directions, the matrix, the
    outward signs and differences of points, all unchanged by a
    translation, plus that positivity.  Every point it builds (the kept
    vertices, `reflect_point`, `line_intersect`) moves with the seed, and
    every check that bounds the new region compares differences.  So if
    s = X + w with slot p[i] of s matching slot p'[i] of X (p and p' their
    class perms), and k' = p'[p^-1[k]], then mu_k(s) and mu_{k'}(X) + w
    match slot for slot in the same way, field by field; and where
    mu_{k'}(X) raised, X's mutation stopped the BFS before s was reached.
    The voltage check costs one cross product per table entry."""
    d, e = initial.d, initial.chart.belt.e
    shape0, anchor0, perm0 = translation_class(initial)
    key0, zero = initial.canonical_key(), FieldElem.zero(d)
    # (shape, slot) -> (child, parent perm, parent anchor, cshape, cperm, d_lam)
    children = {}
    reps = {shape0: anchor0}  # shape -> anchor of the shape's first vertex
    lam = {key0: zero}  # vertex key -> lambda
    # (shape, lambda's num, lambda's den) -> (vertex key, class perm)
    index = {(shape0, zero.num, zero.den): (key0, perm0)}

    def step(seed, k):
        shape, anchor, perm = translation_class(seed)
        inverse = PERM_INVERSE[perm]
        at = lam[seed.canonical_key()]
        table_key = (shape, PERMS3[inverse][k])
        entry = children.get(table_key)
        if entry is None:
            child = planar_mutate(seed, k)
            cshape, canchor, cperm = translation_class(child)
            v = canchor - reps.setdefault(cshape, canchor)
            if not cross_q(e, v).is_zero():
                raise RuntimeError("translation voltage not parallel to the belt")
            d_lam = dot(d, v, e) - at
            entry = children[table_key] = (child, perm, anchor, cshape, cperm, d_lam)
        child, rep_perm, rep_anchor, cshape, cperm, d_lam = entry
        # slot a of mu_k(seed) is slot r[a] of the stored child, moved by w
        r = PERM_COMPOSE[rep_perm][inverse]
        to = at + d_lam
        target = (cshape, to.num, to.den)
        found = index.get(target)
        if found is not None:
            # slot r[a] of the child is slot nperm[cperm^-1[r[a]]] of nkey's seed
            nkey, nperm = found
            return (nkey, PERM_COMPOSE[PERM_COMPOSE[nperm][PERM_INVERSE[cperm]]][r]), None

        def build():
            w = anchor - rep_anchor  # zero only for the seed that made the entry
            nxt = child if w.is_zero() else translate_relabelled(child, r, w)
            nkey = nxt.canonical_key()
            lam[nkey] = to
            index[target] = (nkey, translation_class(nxt)[2])
            return nxt

        return None, build

    return step


@dataclass
class GrowthTable:
    entries: list[tuple[int, int]]

    def loglog_slope(self, n_min: int, n_max: int) -> float:
        pts = [
            (log(n), log(g)) for n, g in self.entries if n_min <= n <= n_max and n > 0
        ]
        return _lsq_slope(pts)

    def degree_estimate(self, n_min: int, n_max: int) -> float:
        """Polynomial-degree estimate from the growth increments: the
        log-log slope of gr(n) - gr(n-1) plus one.  Differencing cancels
        the additive quasi-isometry constants that inflate the plain
        ball-count slope at small n."""
        values = dict(self.entries)
        pts = [
            (log(n), log(values[n] - values[n - 1]))
            for n in range(max(n_min, 1), n_max + 1)
            if n in values and n - 1 in values and values[n] > values[n - 1]
        ]
        return _lsq_slope(pts) + 1.0


def _lsq_slope(pts) -> float:
    if len(pts) < 2:
        raise ValueError("not enough growth points")
    mean_x = sum(x for x, _ in pts) / len(pts)
    mean_y = sum(y for _, y in pts) / len(pts)
    num = sum((x - mean_x) * (y - mean_y) for x, y in pts)
    den = sum((x - mean_x) ** 2 for x, _ in pts)
    return num / den


def growth(initial, n_max: int) -> GrowthTable:
    """gr(n) for n = 0..n_max via the BFS depth map."""
    graph = bfs(initial, depth_limit=n_max)
    counts = [0] * (n_max + 1)
    for level in graph.depth.values():
        if level <= n_max:
            counts[level] += 1
    running = 0
    table = []
    for n in range(n_max + 1):
        running += counts[n]
        table.append((n, running))
    return GrowthTable(table)


def acyclic_belt(initial: PlanarSeed, steps: int) -> tuple[PlanarSeed, ...]:
    """The initial acyclic belt truncated to [-steps, steps]; entry `steps`
    is the initial seed, later entries follow source mutations, earlier
    ones sink mutations.  The belt is memoised on `initial` per `steps`,
    and it is a tuple, so no caller can change what the next one reads.
    Each step reads only the seed before it, so a shorter belt is the
    middle of a longer one: when `initial` holds a belt of N > steps
    steps, the entries N - steps .. N + steps are returned and nothing is
    mutated."""
    belt = initial._cache.get(("belt", steps))
    if belt is not None:
        return belt
    n = max((key[1] for key in initial._cache if key[0] == "belt"), default=steps)
    if n > steps:
        belt = initial._cache["belt", n][n - steps : n + steps + 1]
        initial._cache["belt", steps] = belt
        return belt
    sources, sinks = sources_and_sinks(initial.B)
    if not sources or not sinks:
        raise NotAcyclic("belt requires an acyclic seed")

    def step(seed, forward: bool):
        srcs, snks = sources_and_sinks(seed.B)
        pool = srcs if forward else snks
        want = 1 if forward else -1
        picks = [i for i in sorted(pool) if positivity(seed, i) == want]
        if not picks:
            raise NotAcyclic("belt walk found no mutable source/sink")
        return planar_mutate(seed, picks[0])

    fwd = [initial]
    for _ in range(steps):
        fwd.append(step(fwd[-1], True))
    bwd = []
    cur = initial
    for _ in range(steps):
        cur = step(cur, False)
        bwd.append(cur)
    belt = initial._cache["belt", steps] = tuple(reversed(bwd)) + tuple(fwd)
    return belt


@dataclass
class LatticeReport:
    level: int
    generator_lengths: list[FieldElem]  # the s_k lengths of R, witnessed
    observed_lengths: list[FieldElem]  # all translation lengths seen
    rank_r: int
    rank_observed: int
    predicted_rank_r: int
    predicted_l_ranks: tuple[int, ...]
    reflection_witness: bool
    common_denominator: int

    def summary(self) -> str:
        return (
            f"d={self.level}: rank R = {self.rank_r} "
            f"(predicted {self.predicted_rank_r}), observed L-rank = "
            f"{self.rank_observed} (allowed {self.predicted_l_ranks})"
        )


def s_k_length(d: int, k: int) -> FieldElem:
    """The translation length contributed by an infinite region with
    transversal angle k*pi/d (unit d1)."""
    n = d // 2
    return sin_product(d, 1, n) * inv_sin_sq(d, k)


def lattice_report(graph: ExchangeGraphData, d: int) -> LatticeReport:
    """Collect translation witnesses among enumerated seeds, witness the
    infinite-region generators of R, and compute exact Q-ranks.  `d` must
    be the graph's level; any other raises ValueError before any work.

    Distinct vertices of one translation class differ by a nonzero
    translation w between their anchors, which must be parallel to the
    belt direction e: each member's `belt_offset` must equal the first
    member's, else RuntimeError, as in `translation_between`.  Then
    w = t*e with dot(e, e) == 1, so its length along the belt is
    |t| = |w.x| * |1/e.x| (y when e.x is zero): one cross product per
    seed, its offset, and one inverse per report."""
    level = graph.vertices[graph.initial_key].d
    if d != level:
        raise ValueError(f"lattice report at d={d} for a graph of level {level}")
    units = units_up_to_half(d)
    seeds = list(graph.vertices.values())
    e = seeds[0].chart.belt.e
    pick = (lambda p: p.x) if not e.x.is_zero() else (lambda p: p.y)
    per_unit = pick(e).inv().abs()

    # group by translation class and collect the witnesses of each group's
    # first seed to the others
    groups: dict[str, list[PlanarSeed]] = {}
    for s in seeds:
        groups.setdefault(translation_class(s)[0], []).append(s)
    observed: list[FieldElem] = []
    seen = set()
    seen_steps = set()  # keys of the coordinate differences already read
    for base, *others in groups.values():
        offset = belt_offset(base)
        at = pick(translation_class(base)[1])
        for other in others:
            if belt_offset(other) != offset:
                raise RuntimeError("translation witness not parallel to the belt")
            step = pick(translation_class(other)[1]) - at
            if step.key() in seen_steps:
                continue
            seen_steps.add(step.key())
            L = step.abs() * per_unit
            if L.key() not in seen:
                seen.add(L.key())
                observed.append(L)

    # witness each s_k by an explicit infinite-region mutation; an s_k
    # that no enumerated region witnesses is left out
    generator_lengths = []
    for k in units:
        witness = witness_region_translation(graph, d, k)
        if witness is None:
            continue
        if witness != s_k_length(d, k):
            raise RuntimeError("region translation does not match s_k")
        generator_lengths.append(witness)
        if witness.key() not in seen:
            seen.add(witness.key())
            observed.append(witness)

    # some seed's mirror across the belt is enumerated too, up to a
    # lattice translation
    reflection_witness = any(
        translation_class(reflect_across_belt(s))[0] in groups for s in seeds
    )

    rank_r = rational_rank(generator_lengths) if generator_lengths else 0
    rank_obs = rational_rank(observed) if observed else 0
    predicted_r = euler_totient(d) // 2
    predicted_l = (
        (predicted_r,) if d % 2 == 1 else (predicted_r, euler_totient(d))
    )
    return LatticeReport(
        level=d,
        generator_lengths=generator_lengths,
        observed_lengths=observed,
        rank_r=rank_r,
        rank_observed=rank_obs,
        predicted_rank_r=predicted_r,
        predicted_l_ranks=predicted_l,
        reflection_witness=reflection_witness,
        common_denominator=_common_denominator(observed),
    )


def _common_denominator(lengths) -> int:
    den = 1
    for L in lengths:
        for c in L.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
    return den


def witness_region_translation(
    graph: ExchangeGraphData, d: int, k: int
) -> Optional[FieldElem]:
    """Mutate an enumerated region with transversal angle k*pi/d at one of
    its parallel sides and return the exact translation length."""
    for seed in graph.vertices.values():
        if seed.kind != "region" or seed.transversal_multiple() != k:
            continue
        f = seed.finite_side_index()
        for side in range(3):
            if side == f:
                continue
            image = planar_mutate(seed, side)
            if image.kind != "region":
                continue
            w = translation_between(seed, image)
            if w is not None and not w.is_zero():
                return length_along(d, w, seed.chart.belt.dir_class)
    return None


def quotient_census(graph: ExchangeGraphData):
    """Group enumerated seeds into (angles, quiver) classes and count the
    congruence classes modulo translations inside each.

    Returns (census, angle_triples) where census maps the canonical
    (angles, quiver-sign) class to the number of translation-congruence
    classes per belt side, and angle_triples is the set of occurring
    unordered triples.  Both the class and the triple are functions of a
    seed's `translation_class` shape, so they are read once per shape;
    `orientation_tag` is memoised per shape and `belt_offset`."""
    census: dict = {}
    triples = set()
    classes: dict = {}  # shape -> (angles, quiver-sign) class
    for seed in graph.vertices.values():
        if seed.kind != "triangle":
            continue
        shape = translation_class(seed)[0]
        cls = classes.get(shape)
        if cls is None:
            angle = seed.angle_triple()
            signs = seed.B.sign_pattern()
            cls = classes[shape] = min(
                (
                    tuple(angle[p[i]] for i in range(3)),
                    tuple(signs[p[i]][p[j]] for i in range(3) for j in range(3) if i != j),
                )
                for p in PERMS3
            )
            triples.add(tuple(sorted(angle)))
        tag = orientation_tag(seed)
        bucket = census.setdefault(cls, {})
        bucket.setdefault(tag, set()).add(shape)
    result = {}
    for cls, tags in census.items():
        result[cls] = {tag: len(shapes) for tag, shapes in tags.items()}
    return result, triples


def gcd_one_triples(d: int) -> set:
    """Unordered positive triples summing to d with coprime entries."""
    out = set()
    for a in range(1, d - 1):
        for b in range(a, (d - a) // 2 + 1):
            c = d - a - b
            if c < b:
                continue
            if gcd(a, gcd(b, c)) == 1:
                out.add((a, b, c))
    return out


def belt_subgraph_check(
    graph: ExchangeGraphData, w: PlanarPoint, steps: int
) -> Optional[bool]:
    """Whether the w-translate of the initial acyclic belt sits in the
    enumerated window as a full subgraph: translated belt seeds present
    with consecutive edges and no chords.  None when no translated seed
    is in the window, so that nothing was checked."""
    initial = graph.vertices[graph.initial_key]
    belt = acyclic_belt(initial, steps)
    keys = [s.translate(w).canonical_key() for s in belt]
    if not any(k in graph.vertices for k in keys):
        return None
    for a in range(len(keys) - 1):
        if keys[a] in graph.vertices and keys[a + 1] in graph.vertices:
            if frozenset((keys[a], keys[a + 1])) not in graph.edges:
                return False
    for a in range(len(keys)):
        for b in range(a + 2, len(keys)):
            if keys[a] == keys[b]:
                continue
            if keys[a] in graph.vertices and keys[b] in graph.vertices:
                if frozenset((keys[a], keys[b])) in graph.edges:
                    return False
    return True


# -- spherical enumeration with compatible reference points --------------------


def expected_short_period(entry: FieldElem) -> int:
    """Short alternating period for a rank-2 pair of the given weight."""
    k, l = entry_cosine_form(entry)
    return l + 2 * k


def alternating_period(seed: SphericalSeed, i: int, j: int, cap: int = 64):
    """Steps of mu_i, mu_j, ..., each mutating afresh, until the full seed
    returns, or None within the cap: the direct oracle of `_orbits_short`."""
    s = seed
    for n in range(1, cap + 1):
        s = seed_mutate(s, i if n % 2 == 1 else j)
        if s == seed:
            return n
    return None


def _link_step(links: dict, x: str, r: int, label: int):
    """One mutation of a walk along a graph's links, or None where a depth
    limit left the link out.

    The walk holds the current vertex x and the relabelling r (an index
    into PERMS3) from walk labels to the labels of x's stored seed.
    Mutation commutes with relabelling, so the walk's mu_label is the
    stored seed's mu_{r[label]}, whose link (y, t) moves the walk to y with
    relabelling t after r."""
    link = links[x][PERMS3[r][label]]
    if link is None:
        return None
    y, t = link
    return y, PERM_COMPOSE[t][r]


def _orbits_short(seed: SphericalSeed) -> bool:
    """Whether every rank-2 orbit mu_i, mu_j, ... of `seed` closes at its
    short period l + 2k, |b_ij| = 2cos(pi k/l); b_ij = 0 commutes, period 4.
    Mutation at i or j moves v_i, v_j and b_ij by these alone, so on their
    plane the walk is rank2's swap-mutation orbit of the sector seed with
    positive upper entry, (first, second) = (v_i, v_j) or (v_j, v_i) as
    b_ij > 0 or < 0.  Its `period_formula` value is 3l - 2a when the first
    vector is negative and the second positive (v is positive when
    (v, u) < 0), else l + 2a, with a = k when (v_i, v_j) < 0 and a = l - k
    otherwise; as 2k != l (k/l = 0/1 included) that is l + 2k exactly when
    the two conditions differ, so the rule reads three signs and no k or l.
    The oracle tests pin what is not derived here: the third vector and
    b_im, b_jm return with the pair.  A zero (v, u) raises, as in mutation."""
    signs = [p.sign() for p in seed.ref_pairings]
    if 0 in signs:
        raise DegeneratePositivity("reference point orthogonal to a vector")
    for i, j in ((0, 1), (0, 2), (1, 2)):
        b = seed.B[i, j].sign()
        if b == 0:
            continue
        first, second = (i, j) if b > 0 else (j, i)
        if (seed.pairing(i, j).sign() < 0) == (signs[first] > 0 > signs[second]):
            return False
    return True


def all_periods_short(graph: ExchangeGraphData) -> bool:
    """Compatibility: `_orbits_short` holds at every seed of the closed
    graph.  Graphs from `compatible_spherical_graph` hold it by
    construction, since its BFS admits only such seeds; the tests and
    `check_finite_type_counts` confirm it on them with this."""
    if not graph.closed:
        raise ValueError("rank-2 periods need a closed exchange graph")
    return all(_orbits_short(seed) for seed in graph.vertices.values())


SPHERICAL_ATTEMPTS = 64  # reference-point draws before giving up


def compatible_spherical_graph(B, rng, vertex_cap: int = 256):
    """Sample reference points until the exchange graph closes with every
    rank-2 orbit short; returns (seed, graph).

    Compatible reference points fill chamber interiors of the reflection
    arrangement, so rejection sampling over a rational box converges in a
    handful of draws.

    Compatibility is one sign rule per seed (`_orbits_short`).  A draw is
    rejected as soon as a seed with a long rank-2 orbit turns up: the
    initial seed is checked before the BFS, and the BFS admits only new
    seeds that pass (`bfs(admit=...)`) and stops open at the first that
    does not.  A closed graph is therefore compatible.  An incompatible
    draw can have an infinite graph, so the BFS also stops at `vertex_cap`
    vertices, and a draw whose graph is open is rejected.  The final
    RuntimeError names the last draw's rejection."""
    last = None
    for _ in range(SPHERICAL_ATTEMPTS):
        lam = tuple(
            Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(3)
        )
        if any(x == 0 for x in lam):
            last = "zero reference weight"
            continue
        try:
            seed = spherical_seed(B, lam)
            if not _orbits_short(seed):
                last = "long rank-2 orbit at the initial seed"
                continue
            graph = bfs(seed, vertex_limit=vertex_cap, admit=_orbits_short)
        except DegeneratePositivity as exc:
            last = repr(exc)
            continue
        if graph.closed:
            return seed, graph
        if graph.order() < vertex_cap:
            last = "long rank-2 orbit"
        else:
            last = f"vertex limit {vertex_cap} reached"
    raise RuntimeError(f"no compatible reference point found: {last}")


# -- correspondence (for reference-point independence checks) -----------------


def graphs_isomorphic(g1: ExchangeGraphData, g2: ExchangeGraphData) -> bool:
    """Whether the same mutation words lead from the two initial seeds to
    corresponding vertices: a bijection f of vertices such that a word
    reaching x in g1 reaches f(x) in g2.

    Meant for two graphs grown from the same exchange matrix, such as two
    draws of a compatible reference point, where this is what independence
    of the reference point means.  The walk follows the links of both
    graphs at once (see `_link_step`) and stops at a link present on one
    side only or at a vertex paired with two partners.  A True result is
    an isomorphism that maps the initial seed to the initial seed."""
    if g1.order() != g2.order() or g1.size() != g2.size():
        return False
    forward = {g1.initial_key: g2.initial_key}
    backward = {g2.initial_key: g1.initial_key}
    queue = deque([(g1.initial_key, 0, g2.initial_key, 0)])
    while queue:
        x1, r1, x2, r2 = queue.popleft()
        for label in range(3):
            step1 = _link_step(g1.links, x1, r1, label)
            step2 = _link_step(g2.links, x2, r2, label)
            if step1 is None and step2 is None:
                continue
            if step1 is None or step2 is None:
                return False
            (y1, s1), (y2, s2) = step1, step2
            if y1 not in forward:
                if y2 in backward:
                    return False
                forward[y1], backward[y2] = y2, y1
                queue.append((y1, s1, y2, s2))
            elif forward[y1] != y2:
                return False
    return len(forward) == g1.order()


# -- exports --------------------------------------------------------------------


def export_dot(graph: ExchangeGraphData) -> str:
    """Deterministic Graphviz DOT with seed keys as node ids and mutation
    indices as edge labels."""
    lines = ["graph exchange {"]
    ids = {key: f"s{i}" for i, key in enumerate(graph.vertices)}
    for key, node in ids.items():
        lines.append(f'  {node} [tooltip="{_dot_escape(key)}"];')
    for pair, label in sorted(
        graph.edges.items(), key=lambda kv: sorted(kv[0])
    ):
        a, b = sorted(pair)
        lines.append(f'  {ids[a]} -- {ids[b]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace('"', "'")[:120]


def export_json(graph: ExchangeGraphData) -> str:
    return json.dumps(graph.to_json(), indent=1, sort_keys=True)


SVG_SIZE = 640  # width and height of an SVG export, in pixels


def export_svg(graph: ExchangeGraphData) -> str:
    """SVG render: planar seeds are drawn geometrically with the belt line;
    other seed types fall back to a circular graph layout."""
    seeds = list(graph.vertices.values())
    if seeds and isinstance(seeds[0], PlanarSeed):
        return _svg_planar(graph)
    return _svg_circle(graph)


def _svg_planar(graph: ExchangeGraphData) -> str:
    d = next(iter(graph.vertices.values())).chart.d
    shapes = []
    pts = []
    for seed in graph.vertices.values():
        if seed.kind == "triangle":
            coords = [v.to_floats(d) for v in seed.vertices]
            pts.extend(coords)
            shapes.append(("polygon", coords, seed.is_acute()))
        else:
            ends = [v.to_floats(d) for v in seed.vertices if v is not None]
            ray = seed.ray.to_floats(d)
            coords = [
                (ends[0][0] + ray[0], ends[0][1] + ray[1]),
                ends[0],
                ends[1],
                (ends[1][0] + ray[0], ends[1][1] + ray[1]),
            ]
            pts.extend(ends)
            shapes.append(("polyline", coords, False))
    if not pts:
        return _svg_document([])
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    initial = graph.vertices[graph.initial_key]
    belt = initial.chart.belt
    b0 = belt.base.to_floats(d)
    e = belt.e.to_floats(d)
    span = max(xs) - min(xs) + max(ys) - min(ys) + 1.0
    pts_belt = [
        (b0[0] - 2 * span * e[0], b0[1] - 2 * span * e[1]),
        (b0[0] + 2 * span * e[0], b0[1] + 2 * span * e[1]),
    ]
    xs.extend(p[0] for p in pts_belt)
    ys.extend(p[1] for p in pts_belt)
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    pad = 0.05 * max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    lo_x, hi_x, lo_y, hi_y = lo_x - pad, hi_x + pad, lo_y - pad, hi_y + pad
    scale = SVG_SIZE / max(hi_x - lo_x, hi_y - lo_y)

    def tx(p):
        return (
            round((p[0] - lo_x) * scale, 2),
            round(SVG_SIZE - (p[1] - lo_y) * scale, 2),
        )

    elements = []
    for kind, coords, acute in shapes:
        path = " ".join(f"{tx(c)[0]},{tx(c)[1]}" for c in coords)
        colour = "#3b6ea5" if acute else "#a0a0a0"
        elements.append(
            f'<{kind} points="{path}" fill="none" stroke="{colour}" stroke-width="1"/>'
        )
    b1, b2 = tx(pts_belt[0]), tx(pts_belt[1])
    elements.append(
        f'<line x1="{b1[0]}" y1="{b1[1]}" x2="{b2[0]}" y2="{b2[1]}" '
        'stroke="#c0392b" stroke-width="1.5" stroke-dasharray="6,3"/>'
    )
    return _svg_document(elements)


def _svg_circle(graph: ExchangeGraphData) -> str:
    from math import cos, pi, sin

    keys = list(graph.vertices)
    n = len(keys)
    c = SVG_SIZE / 2
    r = c - 20
    pos = {
        key: (
            round(c + r * cos(2 * pi * i / max(n, 1)), 2),
            round(c + r * sin(2 * pi * i / max(n, 1)), 2),
        )
        for i, key in enumerate(keys)
    }
    elements = []
    for pair in sorted(graph.edges, key=lambda p: sorted(p)):
        a, b = sorted(pair)
        elements.append(
            f'<line x1="{pos[a][0]}" y1="{pos[a][1]}" x2="{pos[b][0]}" '
            f'y2="{pos[b][1]}" stroke="#888" stroke-width="0.7"/>'
        )
    for key in keys:
        elements.append(
            f'<circle cx="{pos[key][0]}" cy="{pos[key][1]}" r="3" fill="#3b6ea5"/>'
        )
    return _svg_document(elements)


def _svg_document(elements) -> str:
    body = "\n".join(f"  {e}" for e in elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n{body}\n</svg>\n'
    )
