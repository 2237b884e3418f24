"""Geometric rank-3 seeds and their mutation by partial reflections.

Affine case: a seed is an exact triangle or infinite region in the plane
(module coordinates over F_d, see planegeom) together with its exchange
matrix.  The reference point sits infinitely far along the belt line b, the
line through the altitude feet of the initial triangle's source and sink
sides, which initial_seed names in closed form for both initial triangles;
a side is positive when the belt direction points against its outward
normal.  A mutation at side k keeps side k's line, reflects across
it every other side whose matrix entry matches the positivity branch, and
rebuilds the region on the far side of k.

Spherical case (finite type): seeds are vector triples in a quadratic
space with a positive-definite quasi-Cartan Gram matrix; mutation is the
usual partial-reflection rule with positivity read off a fixed interior
reference point.  The vectors are roots of the class's finite reflection
group, so the roots, matrices and keys of a class live in its interned
QuadSpace, which every reference point shares, and a seed is a state
(root indices, matrix index) of it.

Vertex i is always opposite side i: it lies on every side but side i, so
side i's line holds the vertices in slots i+1 and i+2.  An infinite region
stores the two endpoints of its finite side in the vertex slots opposite
the parallel sides, None in the slot opposite the finite side, and the
unit ray direction of its parallel sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from quiverbelt.cycfield import (
    FieldElem,
    cos_multiple,
    cos_value,
    sin_product,
)
from quiverbelt.exmatrix import (
    PERM_COMPOSE,
    PERM_INVERSE,
    PERMS3,
    ExchangeMatrix,
    is_acyclic,
    mutate,
    sources_and_sinks,
)
from quiverbelt.planegeom import (
    PlanarPoint,
    cross_q,
    foot_of_perpendicular,
    length_along,
    line_intersect,
    midpoint,
    planar_zero,
    reflect_point,
    reflect_vector,
    unit_dir,
)


class NotAcyclic(ValueError):
    """Operation requires an acyclic (acute-angled) seed."""


class DegeneratePositivity(ValueError):
    """The mutated side pairs to zero against the reference point."""


class UnsupportedRegion(RuntimeError):
    """Mutation produced a region outside the triangle/strip zoo."""


@dataclass(frozen=True)
class BeltLine:
    """The belt line: base point, direction class m, and the oriented unit
    direction e = -u_m towards the reference point (see initial_seed)."""

    base: PlanarPoint
    dir_class: int
    e: PlanarPoint

    def offset_sign(self, p: PlanarPoint) -> int:
        """Which side of the belt p lies on (0 on the line)."""
        return cross_q(self.e, p - self.base).sign()

    def contains(self, p: PlanarPoint) -> bool:
        return self.offset_sign(p) == 0


@dataclass(frozen=True)
class PlanarChart:
    """Ambient data shared by every seed of one realisation.

    `_memo` holds the translation-invariant predicates (`t_invariant`,
    `feet_on_belt`, `orientation_tag`) per translation class; see
    `_per_class`."""

    d: int
    belt: BeltLine
    t0: FieldElem
    _memo: dict = field(default_factory=dict, compare=False, hash=False, repr=False)

    @cached_property
    def belt_cross_signs(self) -> tuple[int, ...]:
        """The sign of cross_q(u_j, e) for each side class j in [0, d): the
        sign of j - m for the belt's class m (see initial_seed)."""
        m = self.belt.dir_class
        return tuple((j > m) - (j < m) for j in range(self.d))


@dataclass(frozen=True)
class PlanarSeed:
    chart: PlanarChart
    kind: str  # "triangle" | "region"
    vertices: tuple[Optional[PlanarPoint], ...]
    side_dirs: tuple[int, int, int]
    ray: Optional[PlanarPoint]
    B: ExchangeMatrix
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    # -- basic structure ---------------------------------------------------

    @property
    def d(self) -> int:
        return self.chart.d

    def finite_side_index(self) -> Optional[int]:
        if self.kind != "region":
            return None
        return next(i for i, v in enumerate(self.vertices) if v is None)

    def side_base(self, i: int) -> PlanarPoint:
        """A point on side i's line: the first finite one of the vertices
        in slots i+1 and i+2."""
        a = self.vertices[(i + 1) % 3]
        return a if a is not None else self.vertices[(i + 2) % 3]

    def interior_witness(self) -> PlanarPoint:
        w = self._cache.get("witness")
        if w is None:
            if self.kind == "triangle":
                a, b, c = self.vertices
                w = (a + b + c).scale(Fraction(1, 3))
            else:
                ends = [v for v in self.vertices if v is not None]
                w = midpoint(ends[0], ends[1]) + self.ray
            self._cache["witness"] = w
        return w

    def outward_signs(self) -> tuple[int, ...]:
        """Sign s_i with s_i*cross_q(u_{m_i}, x - base_i) < 0 for interior
        x, by side.  A mutated seed is built with its parent's signs
        carried over (see planar_mutate); any other seed reads them off an
        interior witness."""
        signs = self._cache.get("outward")
        if signs is None:
            signs = _witness_signs(
                self.d,
                [self.side_base(i) for i in range(3)],
                self.side_dirs,
                self.interior_witness(),
            )
            self._cache["outward"] = signs
        return signs

    def endpoints_of_side(self, i: int) -> tuple[PlanarPoint, PlanarPoint]:
        """Vertex slots i+1 and i+2: side i's endpoints when both are finite."""
        a, b = self.vertices[(i + 1) % 3], self.vertices[(i + 2) % 3]
        if a is None or b is None:
            raise ValueError("side is infinite")
        return a, b

    def angle_multiple(self, i: int) -> int:
        """Interior angle at vertex i as a multiple of pi/d, read off the
        direction classes m in [0, d) and the outward signs of the two
        sides through it, sides i+1 and i+2.

        The two lines cut four wedges, of angles delta = |m_{i+1} - m_{i+2}|
        and d - delta; the interior is the wedge on the inner side of both.
        It is delta when the outward signs differ and d - delta when they
        agree.  A region's infinite slot reads 0: its two parallel sides
        face each other, so their signs differ."""
        a, b = (i + 1) % 3, (i + 2) % 3
        delta = abs(self.side_dirs[a] - self.side_dirs[b])
        outward = self.outward_signs()
        return delta if outward[a] != outward[b] else self.d - delta

    def transversal_multiple(self) -> int:
        """Region only: the smaller of the two angles at the finite side,
        as a multiple of pi/d.  They are co-interior and sum to d, so it is
        the class difference of the finite and parallel sides folded into
        [0, d/2]."""
        f = self.finite_side_index()
        delta = (self.side_dirs[f] - self.side_dirs[(f + 1) % 3]) % self.d
        return min(delta, self.d - delta)

    def angle_triple(self) -> tuple[int, ...]:
        """Interior angle multiples by vertex slot; 0 marks the infinite
        slot of a region."""
        return tuple(self.angle_multiple(i) for i in range(3))

    def is_acute(self) -> bool:
        """Strictly acute triangle (every angle below pi/2)."""
        return self.kind == "triangle" and all(
            2 * a < self.d for a in self.angle_triple()
        )

    def is_obtuse(self) -> bool:
        return self.kind == "triangle" and any(
            2 * a > self.d for a in self.angle_triple()
        )

    # -- canonical form ------------------------------------------------------

    def canonical_key(self) -> str:
        """The least serialisation over index relabellings; `key_perm()`
        then names a relabelling that attains it.  The serialisation is the
        kind, then one string per vertex slot (its point's key, "inf" for
        the infinite slot), the side classes, the ray and the arrows, so
        `_least_serial` builds only the one that wins."""
        key = self._cache.get("key")
        if key is None:
            verts = ["inf" if v is None else v.key() for v in self.vertices]
            dirs = [str(m) for m in self.side_dirs]
            ray = self.ray.key() if self.ray is not None else "-"
            arrows = self.B.entry_keys()
            key, self._cache["perm"] = _least_serial(
                verts,
                lambda p: ";".join(
                    [self.kind]
                    + [verts[p[i]] for i in range(3)]
                    + [dirs[p[i]] for i in range(3)]
                    + [ray]
                    + [arrows[p[i], p[j]] for i, j in arrows]
                ),
            )
            self._cache["key"] = key
        return key

    def key_perm(self) -> int:
        """Index in PERMS3 of a p whose relabelling (slot i takes slot
        p[i]'s data) serialises to the canonical key, which must already
        be built."""
        return self._cache["perm"]

    def __eq__(self, other):
        return (
            isinstance(other, PlanarSeed)
            and other.chart.d == self.chart.d
            and other.canonical_key() == self.canonical_key()
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def translate(self, w: PlanarPoint) -> "PlanarSeed":
        verts = tuple(v + w if v is not None else None for v in self.vertices)
        return PlanarSeed(
            self.chart, self.kind, verts, self.side_dirs, self.ray, self.B
        )


def _least_serial(slots, serial) -> tuple[str, int]:
    """(key, r): the least of `serial(p)` over p in PERMS3, and the index r
    in PERMS3 of the first p that attains it.

    `serial(p)` must begin with a fixed prefix followed by slots[p[0]],
    slots[p[1]] and slots[p[2]], each ended by ";", and no slot string may
    contain ";".  Two serialisations then first differ inside the first
    slot where they differ, and compare as those slots do with ";"
    appended: "a/6" sorts after "a/67" because ";" follows the digits.  So
    when the three slot strings differ, the least serialisation is the
    relabelling that sorts them, and only that one is built.  When two
    slots tie, all six are built and compared."""
    a, b, c = (x + ";" for x in slots)
    if a == b or a == c or b == c:
        serials = [serial(p) for p in PERMS3]
        key = min(serials)
        return key, serials.index(key)
    if a < b:
        r = 0 if b < c else 1 if a < c else 4
    else:
        r = 2 if a < c else 3 if b < c else 5
    return serial(PERMS3[r]), r


# -- initial seeds --------------------------------------------------------------


def _source_sink(B: ExchangeMatrix) -> tuple[Optional[int], Optional[int]]:
    sources, sinks = sources_and_sinks(B)
    source = sources[0] if len(sources) == 1 else None
    sink = sinks[0] if len(sinks) == 1 else None
    return source, sink


def initial_seed(d: int) -> PlanarSeed:
    """The initial triangle with unit d1 side, base on the x-axis, and the
    standard acyclic quiver; with n = d // 2, odd d gives the isosceles
    (a, na, na) triangle, even d the (a, (n-1)a, na) right triangle.

    Its chart names the belt, the line through the altitude feet on the
    source and sink sides.  Put a = pi/d, m = (d - 1) // 2 and u_j for the
    unit vector at angle j*a; vertex 0 = (0, 0) is the source.
    - Odd d: the sink is vertex 2 = (cos a, sin a), and vertex 1 = (1, 0).
      As |p0 p1| = |p0 p2| = 1, the source side's foot is the midpoint of
      vertices 1 and 2, the base; the sink side's is (cos a, 0).  They
      differ by ((1 - cos a)/2, sin a / 2), a positive multiple of
      (sin(a/2), cos(a/2)), at angle pi/2 - a/2 = m*a.
    - Even d: the sink is vertex 1 = (1, tan a), and both feet sit at the
      right angle, vertex 2 = (1, 0), the base.  The source mutation
      reflects vertex 0 across x = 1 and makes vertex 2 the single source;
      its foot lies on the perpendicular from vertex 2 to the mirrored
      hypotenuse (at angle pi - a), at angle pi/2 - a = m*a.
    - e = -u_m, at angle m*a + pi, orients the belt towards the reference
      point: as 0 < m*a < pi/2, it makes an obtuse angle with the source
      side's outward normal (at angle a/2 for odd d, 0 for even d) and an
      acute one with the sink side's (at -pi/2), so the source side is
      positive and the sink side negative.
    So cross_q(u_j, e) = -sin((m - j) a) / sin a has the sign of j - m for
    every side class j in [0, d), as (j - m) a lies in (-pi, pi)."""
    if d < 3:
        raise ValueError("d must be at least 3")
    one = FieldElem.one(d)
    zero = FieldElem.zero(d)
    p0 = planar_zero(d)
    p1 = PlanarPoint(one, zero)
    n = d // 2
    m = (d - 1) // 2
    if d % 2 == 1:
        apex = PlanarPoint(cos_value(d, 1), one)
        vertices = (p0, p1, apex)
        side_dirs = (n + 1, 1, 0)
        B = ExchangeMatrix(cos_multiple(d, m), cos_multiple(d, m), cos_multiple(d, 1))
        base = midpoint(p1, apex)
    else:
        top = PlanarPoint(one, cos_value(d, 1).inv())
        vertices = (p0, top, p1)
        side_dirs = (n, 0, 1)
        B = ExchangeMatrix(zero, cos_multiple(d, m), -cos_multiple(d, 1))
        base = p1
    belt = BeltLine(base, m, -unit_dir(d, m))
    chart = PlanarChart(d, belt, sin_product(d, 1, n))
    return PlanarSeed(chart, "triangle", vertices, side_dirs, None, B)


def _witness_signs(d, bases, side_dirs, witness) -> tuple[int, ...]:
    """The outward sign of each side (base_i, m_i), read off a point
    strictly inside the region."""
    signs = []
    for base, m in zip(bases, side_dirs):
        s = cross_q(unit_dir(d, m), witness - base).sign()
        if s == 0:
            raise UnsupportedRegion("interior witness landed on a side")
        signs.append(-s)
    return tuple(signs)


# -- positivity and mutation ------------------------------------------------


def positivity(s: PlanarSeed, k: int) -> int:
    """+1 if side k is positive (the reference point at infinity along the
    belt lies in its inner half-plane), -1 otherwise."""
    sigma = s.outward_signs()[k]
    val = s.chart.belt_cross_signs[s.side_dirs[k]]
    if val != 0:
        return -sigma * val
    # side parallel to the belt: compare against the belt's own offset
    u = unit_dir(s.d, s.side_dirs[k])
    off = (sigma * cross_q(u, s.chart.belt.base - s.side_base(k))).sign()
    if off == 0:
        raise DegeneratePositivity("side lies on the belt line")
    return -off


def planar_mutate(s: PlanarSeed, k: int) -> PlanarSeed:
    """Mutation at side k: an involution on (region, quiver) seeds.

    Some side other than k is always reflected, so the region always moves
    across line k.  No side is reflected exactly when k is a positive sink
    or a negative source, and no seed of an affine exchange graph has one:
    - A region's quiver is cyclic.  Its parallel sides carry +-2, and an
      acyclic quiver with an entry +-2 reaches C = 4 only when its other
      two entries are 0, which makes it decomposable.
    - A cyclic triangle has no source and no sink.
    - Acyclic triangles follow the orientation rule that the
      affine-invariants check verifies: sources are positive and sinks
      are negative.
    A triangle handed such a side anyway (say, with B negated) keeps its
    vertex opposite k on the wrong side of the flipped line k, and
    `_rebuild`'s vertex-side check raises UnsupportedRegion.

    The child is derived from what the parent already holds.  Its side
    orientations are the parent's: side k's reverses because the region
    moves across it, a reflected side's reverses with the reflection (and
    once more when the class representative reverses the direction), and
    the others keep theirs; `_rebuild` certifies them and stores them in
    the child.

    Vertex t lies on the two lines other than line t (None where they are
    parallel).  For t != k one of them is line k, which stays.  The other,
    line j, either stays or is reflected across line k; the reflection
    fixes line k pointwise, so it maps the point line_j & line_k to itself,
    and it maps a line parallel to line k to a parallel line and a
    non-parallel one to a non-parallel one.  So every vertex slot t != k of
    the child, finite or not, holds the parent's vertex t, and only slot k
    needs a new intersection."""
    d = s.d
    pos = positivity(s, k) > 0
    others = [i for i in range(3) if i != k]
    reflect_flags = {}
    for i in others:
        sb = s.B[i, k].sign()
        reflect_flags[i] = (sb < 0) if pos else (sb > 0)
    new_B = mutate(s.B, k)
    outward = s.outward_signs()
    mk = s.side_dirs[k]
    base_k = s.side_base(k)
    lines = {}
    inner = {}
    for t in range(3):
        base_t = s.side_base(t)
        m_t = s.side_dirs[t]
        inner_t = -outward[t]
        if t == k:
            lines[t] = (base_t, m_t)
            inner[t] = -inner_t  # the region moves across the mutated side
        elif reflect_flags[t]:
            raw = 2 * mk - m_t
            m2 = raw % d
            # whether the class representative keeps the reflected direction
            eps = 1 if raw % (2 * d) == m2 else -1
            # vertex 3 - t - k is line_t & line_k: fixed by the reflection,
            # so when finite it lies on the reflected line
            meet = s.vertices[3 - t - k]
            base = meet if meet is not None else reflect_point(d, base_t, base_k, mk)
            lines[t] = (base, m2)
            inner[t] = -eps * inner_t  # reflections reverse cross products
        else:
            lines[t] = (base_t, m_t)
            inner[t] = inner_t
    return _rebuild(s.chart, lines, inner, new_B, s.vertices, k)


def _rebuild(chart, lines, inner, B, kept, k) -> PlanarSeed:
    """Assemble the seed bounded by three oriented lines; the inner sign of
    line t is the cross_q sign of interior points relative to (base, m).
    Vertex slots other than k hold `kept[t]` (see planar_mutate); slot k
    gets the intersection of the other two lines.  The checks below hold
    every vertex to the inner signs, which the seed then keeps as its
    outward signs (negated)."""
    d = chart.d
    dirs = tuple(lines[t][1] for t in range(3))
    a, b = [t for t in range(3) if t != k]
    verts = list(kept)
    verts[k] = line_intersect(d, lines[a][0], lines[a][1], lines[b][0], lines[b][1])
    cache = {"outward": tuple(-inner[t] for t in range(3))}
    parallel_pairs = [
        (i, j) for i in range(3) for j in range(i + 1, 3) if dirs[i] == dirs[j]
    ]
    if not parallel_pairs:
        if None in verts:
            raise UnsupportedRegion("unexpected parallel sides")
        for t in range(3):
            side = cross_q(unit_dir(d, dirs[t]), verts[t] - lines[t][0]).sign()
            if side != inner[t]:
                raise UnsupportedRegion("half-planes bound an unbounded cell")
        return PlanarSeed(chart, "triangle", tuple(verts), dirs, None, B, _cache=cache)
    if len(parallel_pairs) > 1:
        raise UnsupportedRegion("degenerate line arrangement")
    p, q = parallel_pairs[0]
    f = next(t for t in range(3) if t not in (p, q))
    u_par = unit_dir(d, dirs[p])
    # strip consistency: each parallel line on the inner side of the other
    if cross_q(u_par, lines[q][0] - lines[p][0]).sign() != inner[p]:
        raise UnsupportedRegion("half-planes bound a wedge, not a strip")
    if cross_q(u_par, lines[p][0] - lines[q][0]).sign() != inner[q]:
        raise UnsupportedRegion("half-planes bound a wedge, not a strip")
    if verts[p] is None or verts[q] is None:
        raise UnsupportedRegion("finite side parallel to the strip")
    rho = inner[f] * cross_q(unit_dir(d, dirs[f]), u_par).sign()
    if rho == 0:
        raise UnsupportedRegion("ray direction degenerate")
    ray = u_par.scale(rho)
    return PlanarSeed(chart, "region", tuple(verts), dirs, ray, B, _cache=cache)


# -- invariants ----------------------------------------------------------------


def _per_class(s: PlanarSeed, compute, across: bool):
    """compute(s), memoised on the chart per translation class.

    Two seeds of one chart whose `translation_class` shapes agree are
    translates up to relabelling, so a value that neither a translation
    nor a relabelling changes is one per shape.  With `across`, the key
    also holds `belt_offset`, which names the line parallel to the belt
    that the anchor lies on: for values that read where the seed lies
    relative to the belt.  Seeds with one shape and one offset differ by
    a translation along the belt, which maps the belt onto itself.  An
    exception propagates and nothing is stored."""
    shape = translation_class(s)[0]
    key = (compute, shape, belt_offset(s)) if across else (compute, shape)
    memo = s.chart._memo
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute(s)
    return value


def belt_offset(s: PlanarSeed) -> FieldElem:
    """cross_q(e, anchor) for the anchor of `translation_class(s)` and the
    belt direction e; cached on the seed.  It differs from the anchor's
    offset across the belt line by the constant cross_q(e, base), so two
    anchors have equal values exactly when they differ by a multiple of
    e: cross_q(e, a) - cross_q(e, b) = cross_q(e, a - b)."""
    offset = s._cache.get("offset")
    if offset is None:
        offset = s._cache["offset"] = cross_q(s.chart.belt.e, translation_class(s)[1])
    return offset


def t_invariant(s: PlanarSeed) -> FieldElem:
    """The conserved quantity: finite side length times the sines of its two
    adjacent angles.  It reads only side lengths and angles, so it is
    computed once per translation class of the chart (`_per_class`)."""
    return _per_class(s, _t_invariant, across=False)


def _t_invariant(s: PlanarSeed) -> FieldElem:
    """`t_invariant` computed from s itself: the length of side f times
    the sines of the angles at its ends, for f the finite side of a region
    and side 0 of a triangle.  For a triangle that is 2R sin A sin B sin C
    by the law of sines, whichever side is side 0; a region's end angles
    are k and d - k, whose sines agree."""
    f = s.finite_side_index() or 0
    return side_length(s, f) * sin_product(
        s.d, s.angle_multiple((f + 1) % 3), s.angle_multiple((f + 2) % 3)
    )


def side_length(s: PlanarSeed, k: int) -> FieldElem:
    """Exact Euclidean length of a finite side."""
    a, b = s.endpoints_of_side(k)
    return length_along(s.d, b - a, s.side_dirs[k])


def designated_feet(s: PlanarSeed) -> list[PlanarPoint]:
    """The altitude feet that the belt is required to contain: those on
    the source and sink sides of an acyclic quiver, and otherwise those on
    the two sides of the obtuse angle.  A region's quiver is cyclic, and
    the foot whose opposite vertex is at infinity recedes along the finite
    side and is left out (`_feet_on_belt` asks instead that the finite
    side be parallel to the belt)."""
    d = s.d
    sources, sinks = sources_and_sinks(s.B)
    if sources or sinks:
        # a right angle makes one of the lists ambiguous; all named feet
        # lie on the belt
        idxs = sorted(set(sources) | set(sinks))
    else:
        obtuse = next(i for i in range(3) if 2 * s.angle_multiple(i) > d)
        idxs = [i for i in range(3) if i != obtuse]
    return [
        foot_of_perpendicular(d, s.vertices[i], s.side_base(i), s.side_dirs[i])
        for i in idxs
        if s.vertices[i] is not None
    ]


def feet_on_belt(s: PlanarSeed) -> bool:
    """Whether every designated altitude foot lies exactly on the belt; for
    regions the finite side must also be parallel to it.  Computed once
    per translation class and offset across the belt (`_per_class`): a
    translation along the belt moves the feet along it, and the feet
    ignore relabelling."""
    return _per_class(s, _feet_on_belt, across=True)


def _feet_on_belt(s: PlanarSeed) -> bool:
    """`feet_on_belt` computed from s itself."""
    belt = s.chart.belt
    if s.kind == "region":
        f = s.finite_side_index()
        if (s.side_dirs[f] - belt.dir_class) % s.d != 0:
            return False
    return all(belt.contains(p) for p in designated_feet(s))


def translation_class(s: PlanarSeed) -> tuple[str, PlanarPoint, int]:
    """(shape, anchor, perm): the anchor is the lexicographically smallest
    finite vertex, and the shape is the canonical key of the seed translated
    so its anchor sits at the origin; perm indexes the p in PERMS3 that
    attains it, so slot i of the shape holds slot p[i] of s.  The anchor
    moves with a translation and ignores relabelling, so two seeds of one
    level are translates exactly when their shapes agree, by the difference
    of their anchors, and p[i] of one and p[i] of the other are then
    corresponding slots."""
    cls = s._cache.get("class")
    if cls is None:
        verts = [v for v in s.vertices if v is not None]
        anchor = verts[0]
        for v in verts[1:]:
            sx = (v.x - anchor.x).sign()
            if sx < 0 or (sx == 0 and (v.y - anchor.y).sign() < 0):
                anchor = v
        moved = s.translate(-anchor)
        cls = s._cache["class"] = (moved.canonical_key(), anchor, moved.key_perm())
    return cls


def translate_relabelled(s: PlanarSeed, r: int, w: PlanarPoint) -> PlanarSeed:
    """s relabelled by p = PERMS3[r] (slot a takes slot p[a]'s data) and
    translated by w.  Outward signs and the translation class are carried
    over, not recomputed: a translation keeps both, and the class's perm
    becomes p^-1 after it.  The relabelled matrix does not depend on w, so
    it is built once per seed and relabelling and shared."""
    p = PERMS3[r]
    shape, anchor, perm = translation_class(s)
    matrices = s._cache.setdefault("relabelled", {0: s.B})
    B = matrices.get(r)
    if B is None:
        B = matrices[r] = ExchangeMatrix(s.B[p[0], p[1]], s.B[p[0], p[2]], s.B[p[1], p[2]])
    kept = [s.vertices[p[a]] for a in range(3)]
    verts = tuple(None if v is None else v + w for v in kept)
    # the anchor is one of the vertices, so it moved with them
    moved_anchor = next(verts[a] for a in range(3) if kept[a] is anchor)
    outward = s.outward_signs()
    cache = {
        "outward": tuple(outward[p[a]] for a in range(3)),
        "class": (shape, moved_anchor, PERM_COMPOSE[PERM_INVERSE[r]][perm]),
    }
    dirs = tuple(s.side_dirs[p[a]] for a in range(3))
    return PlanarSeed(s.chart, s.kind, verts, dirs, s.ray, B, _cache=cache)


def translation_between(s1: PlanarSeed, s2: PlanarSeed) -> Optional[PlanarPoint]:
    """The unique w with s2 = w + s1 (up to relabelling), or None: the
    difference of the anchors when the translation classes' shapes agree.
    A found w is checked to be parallel to the belt."""
    if s1.d != s2.d:
        return None
    shape1, a1, _ = translation_class(s1)
    shape2, a2, _ = translation_class(s2)
    if shape1 != shape2:
        return None
    w = a2 - a1
    if not w.is_zero() and not cross_q(s1.chart.belt.e, w).is_zero():
        raise RuntimeError("translation witness not parallel to the belt")
    return w


def reflect_across_belt(s: PlanarSeed) -> PlanarSeed:
    """The mirror seed across the belt line (same quiver data)."""
    belt = s.chart.belt
    d = s.d
    verts = tuple(
        None if v is None else reflect_point(d, v, belt.base, belt.dir_class)
        for v in s.vertices
    )
    dirs = tuple((2 * belt.dir_class - m) % d for m in s.side_dirs)
    ray = None if s.ray is None else reflect_vector(d, s.ray, belt.dir_class)
    return PlanarSeed(s.chart, s.kind, verts, dirs, ray, s.B)


def orientation_tag(s: PlanarSeed) -> int:
    """Which side of the belt the seed's distinguishing data lies on.

    Acyclic triangles are tagged by their middle side's midpoint, obtuse
    triangles by the centroid, regions by the finite side (falling back to
    a point pushed along the rays when the side lies on the belt).
    Computed once per translation class and offset across the belt
    (`_per_class`), as for `feet_on_belt`."""
    return _per_class(s, _orientation_tag, across=True)


def _orientation_tag(s: PlanarSeed) -> int:
    """`orientation_tag` computed from s itself."""
    belt = s.chart.belt
    if s.kind == "triangle":
        source, sink = _source_sink(s.B)
        if source is not None and sink is not None:
            middle = next(i for i in range(3) if i not in (source, sink))
            a, b = s.endpoints_of_side(middle)
            tag = belt.offset_sign(midpoint(a, b))
            if tag == 0:
                tag = belt.offset_sign(s.interior_witness())
        else:
            tag = belt.offset_sign(s.interior_witness())
    else:
        f = s.finite_side_index()
        a, b = s.endpoints_of_side(f)
        tag = belt.offset_sign(midpoint(a, b))
        if tag == 0:
            tag = belt.offset_sign(midpoint(a, b) + s.ray)
    if tag == 0:
        raise UnsupportedRegion("orientation tag degenerate")
    return tag


def cyclic_orientation(s: PlanarSeed) -> int:
    """Geometric orientation of a triangle with a cyclic quiver: the arrow
    cycle traced through side midpoints, as a signed area.  It reads only
    differences of midpoints, and a relabelling moves the arrows with the
    sides, so the cycle only starts at another side; it is computed once
    per translation class of the chart (`_per_class`)."""
    return _per_class(s, _cyclic_orientation, across=False)


def _cyclic_orientation(s: PlanarSeed) -> int:
    """`cyclic_orientation` computed from s itself."""
    signs = s.B.sign_pattern()
    succ = {}
    for i in range(3):
        for j in range(3):
            if i != j and signs[i][j] > 0:
                succ[i] = j
    order = [0, succ[0], succ[succ[0]]]
    mids = []
    for i in order:
        a, b = s.endpoints_of_side(i)
        mids.append(midpoint(a, b))
    return cross_q(mids[1] - mids[0], mids[2] - mids[0]).sign()


# -- quadratic-space (spherical) seeds ------------------------------------------


def _memo(factory):
    """A field of a class's table: filled on use, never compared or shown."""
    return field(default_factory=factory, compare=False, repr=False)


@dataclass(frozen=True)
class QuadSpace:
    """Symmetric bilinear form in the basis of the initial vectors, and the
    lazily filled table of the spherical class whose Gram form it is.
    `spherical_seed` interns one space per Gram form, so every draw of a
    reference point shares it.

    Every vector of a spherical seed is a root of the class's finite
    reflection group (12, 18 or 30 signed roots for A3, B3 and H3), and a
    seed's matrix is one of the class's few matrices, so a seed is a state
    (root indices, matrix index) of its space.  The table holds:
      - each root interned by value (`root`), with its slot string (its
        three coordinate keys) and its negation;
      - the reflection t = r - (r, s) s of each pair of roots asked for,
        and t reflected across -s, which is r again;
      - the pairings ((v_0, v_1), (v_0, v_2), (v_1, v_2)) of each root
        triple;
      - each matrix interned by value (`matrix`), and mu_k of each,
        recorded both ways as mutation is an involution;
      - (canonical key, key_perm) of each state.
    Entries are made on first use, never as a closure up front, so the
    table is bounded by the roots and states that the class's seeds reach.

    Each entry is a function of the Gram form and of roots and matrices
    compared by value, never of a draw's reference point: the carried
    (v_i, u) stay on the seeds.  A seed reads its pairings here, and
    `spherical_seed` and `seed_mutate` record those of its root triple
    first, so they are those of its vectors."""

    gram: tuple[tuple[FieldElem, ...], ...]
    roots: list = _memo(list)  # root index -> coordinate tuple
    slots: list = _memo(list)  # root index -> ";"-joined coordinate keys
    _negations: list = _memo(list)  # root index -> index of -root, or None
    _root_index: dict = _memo(dict)  # coordinate tuple -> root index
    _reflections: dict = _memo(dict)  # (r, s) -> index of r - (r, s) s
    pairings: dict = _memo(dict)  # (r0, r1, r2) -> pairings
    matrices: list = _memo(list)  # matrix index -> ExchangeMatrix
    _matrix_index: dict = _memo(dict)  # ExchangeMatrix -> matrix index
    _mutations: dict = _memo(dict)  # (m, k) -> matrix index of mu_k
    _keys: dict = _memo(dict)  # (r0, r1, r2, m) -> (canonical key, key_perm)

    def pair(self, x, y) -> FieldElem:
        total = None
        for i in range(3):
            if x[i].is_zero():
                continue
            for j in range(3):
                if y[j].is_zero():
                    continue
                term = x[i] * self.gram[i][j] * y[j]
                total = term if total is None else total + term
        if total is None:
            return FieldElem.zero(self.gram[0][0].level)
        return total

    @cached_property
    def basis(self) -> tuple[int, int, int]:
        """The root indices of the basis vectors, the roots of every initial
        seed, with their pairings recorded."""
        level = self.gram[0][0].level
        zero, one = FieldElem.zero(level), FieldElem.one(level)
        basis = [tuple(one if t == i else zero for t in range(3)) for i in range(3)]
        pairings = tuple(
            self.pair(basis[i], basis[j]) for i, j in ((0, 1), (0, 2), (1, 2))
        )
        roots = tuple(self.root(v) for v in basis)
        self.pairings.setdefault(roots, pairings)
        return roots

    def root(self, v: tuple) -> int:
        """The index of the root with coordinate tuple `v`, interned if new."""
        r = self._root_index.get(v)
        if r is None:
            r = self._root_index[v] = len(self.roots)
            self.roots.append(v)
            self.slots.append(";".join([c.key() for c in v]))
            self._negations.append(None)
        return r

    def negation(self, r: int) -> int:
        n = self._negations[r]
        if n is None:
            n = self.root(tuple([-c for c in self.roots[r]]))
            self._negations[r], self._negations[n] = n, r
        return n

    def reflection(self, r: int, s: int, a: FieldElem) -> int:
        """The index of r - a s, where a = (r, s) and (s, s) = 2."""
        t = self._reflections.get((r, s))
        if t is None:
            v, w = self.roots[r], self.roots[s]
            t = self.root(tuple([v[i] - a * w[i] for i in range(3)]))
            self._reflections[r, s] = t
            # mu_k twice: t reflected across -s is t + a s = r
            self._reflections[t, self.negation(s)] = r
        return t

    def matrix(self, B: ExchangeMatrix) -> int:
        """The index of the matrix equal to `B`, interned if new."""
        m = self._matrix_index.get(B)
        if m is None:
            m = self._matrix_index[B] = len(self.matrices)
            self.matrices.append(B)
        return m

    def mutation(self, m: int, k: int) -> int:
        n = self._mutations.get((m, k))
        if n is None:
            n = self.matrix(mutate(self.matrices[m], k))
            self._mutations[m, k] = n
            self._mutations[n, k] = m
        return n

    def key(self, roots: tuple, m: int) -> tuple[str, int]:
        """(canonical key, key_perm) of the state (roots, m): one string per
        slot (its root's slot string) and then the arrows, so
        `_least_serial` builds only the one that wins."""
        state = (*roots, m)
        found = self._keys.get(state)
        if found is None:
            slots = [self.slots[r] for r in roots]
            arrows = self.matrices[m].entry_keys()
            found = self._keys[state] = _least_serial(
                slots,
                lambda p: ";".join(
                    [slots[p[0]], slots[p[1]], slots[p[2]]]
                    + [arrows[p[i], p[j]] for i, j in arrows]
                ),
            )
        return found


@dataclass(frozen=True)
class SphericalSeed:
    """A state of its class's `QuadSpace` (three root indices and a matrix
    index) and the draw's pairings with its reference point.

    `ref_pairings[i]` is (v_i, u) for the reference point u, and
    `pairings[i + j - 1]` is (v_i, v_j) for i != j (see `pairing`).
    Mutation at k reflects each v_i it moves, v_i' = v_i - a_i v_k with
    a_i = (v_i, v_k), and negates v_k.  As (v_k, v_k) = 2:
      (v_k', u) = -(v_k, u);
      (v_i', u) = (v_i, u) - a_i (v_k, u) for a reflected i;
      (v_i', v_k') = -(v_i, v_k) + a_i (v_k, v_k) = a_i for a reflected i,
      and (v_i, v_k') = -a_i for an unreflected i;
      (v_i', v_j) = (v_i, v_j) - a_i a_j when only i is reflected, and
      (v_i', v_j') = (v_i, v_j) - 2 a_i a_j + a_i a_j (v_k, v_k)
      = (v_i, v_j) when both are.
    The (v_i, u) belong to the draw and are carried so, with at most two
    products per mutation.  The roots, the matrix, the pairings and the key
    belong to the class and are read from its space's table; the pairings
    are carried by the rules above only where the table has no entry yet.
    The compatibility rule reads their signs without computing any."""

    space: QuadSpace
    roots: tuple[int, int, int]  # indices into space.roots
    matrix: int  # index into space.matrices
    ref_pairings: tuple[FieldElem, FieldElem, FieldElem]  # (v_i, u)

    @property
    def vectors(self) -> tuple[tuple[FieldElem, ...], ...]:
        """The coordinate tuples of the seed's roots."""
        roots = self.space.roots
        return tuple([roots[r] for r in self.roots])

    @property
    def B(self) -> ExchangeMatrix:
        return self.space.matrices[self.matrix]

    @property
    def pairings(self) -> tuple[FieldElem, FieldElem, FieldElem]:
        """(v_0, v_1), (v_0, v_2), (v_1, v_2), read from the space's table."""
        return self.space.pairings[self.roots]

    def pairing(self, i: int, j: int) -> FieldElem:
        """(v_i, v_j) for i != j."""
        return self.pairings[i + j - 1]

    def canonical_key(self) -> str:
        """The least serialisation over index relabellings; `key_perm()`
        then names a relabelling that attains it.  The serialisation is one
        string per slot (its vector's three coordinate keys) and then the
        arrows.  It is read from the space's memo for the seed's state
        (`QuadSpace.key`), built there on first use."""
        return self.space.key(self.roots, self.matrix)[0]

    def key_perm(self) -> int:
        """Index in PERMS3 of a p whose relabelling (slot i takes slot
        p[i]'s data) serialises to the canonical key."""
        return self.space.key(self.roots, self.matrix)[1]

    @property
    def _key(self) -> Optional[tuple[str, int]]:
        """The space's (canonical key, key_perm) for the state, or None; never
        builds it, so perfbench's tracer can tell a memoised key from a new one."""
        return self.space._keys.get((*self.roots, self.matrix))

    def __eq__(self, other):
        return (
            isinstance(other, SphericalSeed)
            and other.canonical_key() == self.canonical_key()
        )

    def __hash__(self):
        return hash(self.canonical_key())


def gram_invariants_ok(s: SphericalSeed) -> bool:
    """Def. of geometric realisations: unit diagonal pairings (value 2),
    matching absolute pairings, and the sign-parity condition."""
    g = s.space
    pairings = {}
    for i in range(3):
        if g.pair(s.vectors[i], s.vectors[i]) != 2:
            return False
        for j in range(i + 1, 3):
            pairings[(i, j)] = g.pair(s.vectors[i], s.vectors[j])
            lhs = pairings[(i, j)]
            rhs = s.B[i, j]
            if not (lhs * lhs - rhs * rhs).is_zero():
                return False
    if all(not p.is_zero() for p in pairings.values()):
        positives = sum(1 for p in pairings.values() if p.sign() > 0)
        if is_acyclic(s.B):
            if positives % 2 != 0:
                return False
        elif positives % 2 != 1:
            return False
    return True


# (level, upper Gram entries) -> the QuadSpace of that spherical class
_SPACES: dict = {}


def _class_space(B: ExchangeMatrix) -> QuadSpace:
    """The interned quadratic space of B's quasi-Cartan Gram form: 2 on the
    diagonal and -|b_ij| off it, with one pairing flipped on a cyclic
    triangle so that the positive count is odd."""
    level = B.level
    upper = [-B[i, j].abs() for i, j in ((0, 1), (0, 2), (1, 2))]
    if not is_acyclic(B) and not any(e.is_zero() for e in upper):
        upper[0] = -upper[0]
    key = (level, tuple(upper))
    space = _SPACES.get(key)
    if space is None:
        two = FieldElem.from_rational(level, 2)
        g01, g02, g12 = upper
        gram = ((two, g01, g02), (g01, two, g12), (g02, g12, two))
        space = _SPACES[key] = QuadSpace(gram)
    return space


def spherical_seed(B: ExchangeMatrix, reference) -> SphericalSeed:
    """Quasi-Cartan realisation of a finite-type matrix whose reference
    point u pairs with the basis vectors as (v_i, u) = -reference[i].

    The space is interned per Gram form, and its basis and basis pairings
    are built once per class (`QuadSpace.basis`), so a draw adds only its
    three (v_i, u) and interns B."""
    ref = tuple(Fraction(x) for x in reference)
    if len(ref) != 3:
        raise ValueError(f"expected 3 reference weights, got {len(ref)}")
    if all(x == 0 for x in ref):
        raise ValueError("reference weights must not all vanish")
    space = _class_space(B)
    ref_pairings = tuple(FieldElem.from_rational(B.level, -x) for x in ref)
    return SphericalSeed(space, space.basis, space.matrix(B), ref_pairings)


def seed_mutate(s: SphericalSeed, k: int) -> SphericalSeed:
    """Partial-reflection mutation of a spherical seed, on its state alone.
    Positivity and the carried (v_i, u) are the draw's; the new root and
    matrix indices and the new pairings are read from the space's table
    and computed only where it has no entry yet, the pairings by the rules
    in `SphericalSeed`'s docstring."""
    pairing = s.ref_pairings[k]
    sgn = pairing.sign()
    if sgn == 0:
        raise DegeneratePositivity("reference point orthogonal to the vector")
    positive = sgn < 0
    space, B = s.space, s.B
    roots = list(s.roots)
    ref_pairings = list(s.ref_pairings)
    ref_pairings[k] = -pairing
    reflected = []
    for i in range(3):
        if i == k:
            continue
        b_sign = B[i, k].sign()
        if (b_sign < 0) if positive else (b_sign > 0):
            a = s.pairing(i, k)
            roots[i] = space.reflection(roots[i], roots[k], a)
            ref_pairings[i] = ref_pairings[i] - a * pairing
            reflected.append(i)
    roots[k] = space.negation(roots[k])
    roots = tuple(roots)
    if roots not in space.pairings:
        space.pairings[roots] = _carried_pairings(s, k, reflected)
    return SphericalSeed(
        space, roots, space.mutation(s.matrix, k), tuple(ref_pairings)
    )


def _carried_pairings(s: SphericalSeed, k: int, reflected: list) -> tuple:
    """The pairings of mu_k(s) from those of s by `SphericalSeed`'s rules,
    `reflected` naming the indices that mu_k reflects: (v_i, v_k) stays
    a_i for a reflected i and turns to -a_i otherwise, and the pair without
    k moves only when exactly one of it is reflected."""
    pairings = list(s.pairings)
    i, j = (x for x in range(3) if x != k)
    a_i, a_j = s.pairing(i, k), s.pairing(j, k)
    for x, a in ((i, a_i), (j, a_j)):
        if x not in reflected:
            pairings[x + k - 1] = -a
    if len(reflected) == 1 and not (a_i.is_zero() or a_j.is_zero()):
        pairings[i + j - 1] = pairings[i + j - 1] - a_i * a_j
    return tuple(pairings)
