"""Skew-symmetric rank-3 exchange matrices with cosine weights and their
mutation.

Matrices are 3x3 and store exact field elements lifted to a common level.
Mutation resolves the absolute values in the exchange rule through
certified signs; `sources_and_sinks` reads the sources and sinks of the
sign digraph for every caller.  Classification walks the mutation class
(up to simultaneous index permutation) until it closes or meets an entry
that is not +-2cos(pi k/l), which certifies an infinite class; a closed
class is then named by its Markov constant and acyclic members.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional

from quiverbelt.cycfield import FieldElem, cos_multiple

PERMS3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
# Relabellings as indices into PERMS3 (0 is the identity): PERM_COMPOSE[a][b]
# is the index of i -> PERMS3[a][PERMS3[b][i]] and PERM_INVERSE[a] that of
# the inverse of PERMS3[a], so relabellings compose by table lookups.
PERM_COMPOSE = tuple(
    tuple(PERMS3.index(tuple(a[b[i]] for i in range(3))) for b in PERMS3)
    for a in PERMS3
)
PERM_INVERSE = tuple(PERMS3.index(tuple(a.index(i) for i in range(3))) for a in PERMS3)


class NotCosineForm(ValueError):
    """An entry is not of the form +-2cos(pi k / l)."""


class ExchangeMatrix:
    """Immutable skew-symmetric 3x3 matrix of FieldElems.

    `_mutated[k]` memoises `mutate(self, k)` and `_entry_keys` the result
    of `entry_keys()`: the entries never change, so both are exact."""

    __slots__ = ("level", "entries", "_key", "_entry_keys", "_mutated")
    rank = 3

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("entries must form a 3x3 matrix")
        level = 1
        for r in rows:
            for e in r:
                if isinstance(e, FieldElem):
                    level = lcm(level, e.level)
        if level == 1:
            level = 2
        lifted = []
        for r in rows:
            out = []
            for e in r:
                if isinstance(e, FieldElem):
                    out.append(e.lift(level))
                else:
                    out.append(FieldElem.from_rational(level, e))
            lifted.append(tuple(out))
        for i in range(3):
            if not lifted[i][i].is_zero():
                raise ValueError("diagonal entries must vanish")
            for j in range(i + 1, 3):
                if not (lifted[i][j] + lifted[j][i]).is_zero():
                    raise ValueError("matrix must be skew-symmetric")
        self.level = level
        self.entries = tuple(lifted)
        self._key: Optional[str] = None
        self._entry_keys: Optional[dict] = None
        self._mutated: list = [None] * 3

    @staticmethod
    def from_upper(b12, b13, b23) -> "ExchangeMatrix":
        """Build from the upper-triangle entries b12, b13, b23."""
        return ExchangeMatrix(
            [
                [0, b12, b13],
                [_neg(b12), 0, b23],
                [_neg(b13), _neg(b23), 0],
            ]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, ExchangeMatrix)
            and other.level == self.level
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.level, self.entries))

    def __repr__(self):
        return f"ExchangeMatrix(rank={self.rank}, level={self.level})"

    def entry_keys(self) -> dict:
        """Key of each off-diagonal entry by index pair, in row-major order.
        The dict is built once per matrix and shared: do not modify it."""
        if self._entry_keys is None:
            self._entry_keys = {
                (i, j): e.key()
                for i, row in enumerate(self.entries)
                for j, e in enumerate(row)
                if i != j
            }
        return self._entry_keys

    def canonical_key(self) -> str:
        """Lexicographically minimal serialisation over simultaneous
        permutations; identifies matrices up to reordering of indices."""
        if self._key is None:
            keys = self.entry_keys()
            self._key = min(
                ";".join(keys[p[i], p[j]] for i, j in keys) for p in PERMS3
            )
        return self._key

    def sign_pattern(self):
        return tuple(
            tuple(e.sign() for e in row) for row in self.entries
        )

    def to_float(self):
        return [[e.to_float() for e in row] for row in self.entries]


def _neg(x):
    if isinstance(x, FieldElem):
        return -x
    return -Fraction(x)


def mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at direction k (0-based); an involution.

    The result is memoised on B.  The memo is forward only: mu_k(B) is not
    told that its own mutation at k is B."""
    if not 0 <= k < 3:
        raise IndexError("mutation index out of range")
    done = B._mutated[k]
    if done is not None:
        return done
    e = B.entries
    new = [list(row) for row in e]
    # the upper triangle, mirrored: -b_ij is the stored b_ji
    for i in range(3):
        for j in range(i + 1, 3):
            if i == k or j == k:
                new[i][j], new[j][i] = e[j][i], e[i][j]
                continue
            # (b_ik|b_kj| + |b_ik|b_kj)/2 is sign(b_ik) b_ik b_kj when the
            # two signs agree and 0 otherwise
            s = e[i][k].sign()
            if s != 0 and s == e[k][j].sign():
                prod = e[i][k] * e[k][j]
                new[i][j] = e[i][j] + prod if s > 0 else e[i][j] - prod
                new[j][i] = -new[i][j]
    done = B._mutated[k] = ExchangeMatrix(new)
    return done


def is_acyclic(B: ExchangeMatrix) -> bool:
    """True iff the sign digraph (arrow i->j when b_ij > 0) has no oriented
    cycle."""
    s = B.sign_pattern()
    cycle_a = s[0][1] > 0 and s[1][2] > 0 and s[2][0] > 0
    cycle_b = s[0][1] < 0 and s[1][2] < 0 and s[2][0] < 0
    return not (cycle_a or cycle_b)


def sources_and_sinks(B: ExchangeMatrix) -> tuple[list[int], list[int]]:
    """The sources (every arrow out, b_ij >= 0 with one > 0) and the sinks
    (every arrow in) of the sign digraph, in index order."""
    signs = B.sign_pattern()
    sources = [
        i
        for i in range(3)
        if all(signs[i][j] >= 0 for j in range(3))
        and any(signs[i][j] > 0 for j in range(3))
    ]
    sinks = [
        i
        for i in range(3)
        if all(signs[i][j] <= 0 for j in range(3))
        and any(signs[i][j] < 0 for j in range(3))
    ]
    return sources, sinks


def markov_constant(B: ExchangeMatrix) -> FieldElem:
    """C(B): sum of squared off-diagonal entries, plus or minus the absolute
    triple product according to acyclicity."""
    b12, b13, b23 = B[0, 1], B[0, 2], B[1, 2]
    squares = b12 * b12 + b13 * b13 + b23 * b23
    triple = (b12 * b23 * b13).abs()
    if is_acyclic(B):
        return squares + triple
    return squares - triple


def entry_cosine_form(e: FieldElem) -> tuple[int, int]:
    """Match |e| against 2cos(pi k / l); returns (k, l) in lowest terms or
    raises NotCosineForm.  Rational values are settled by Niven's theorem
    (2cos of a rational angle is rational only for 0, +-1, +-2).  An
    irrational 2cos(pi k/l) with gcd(k, l) = 1 generates the real subfield
    of Q(zeta_2l), whose conductor is 2l for even l and l for odd l.  It
    lies in the entry's field F_d, inside Q(zeta_2d), only if that
    conductor divides 2d, that is only if l divides d; then pi k/l is a
    multiple of pi/d, and comparing against 2cos(pi j/d) for j = 1..d
    settles it."""
    return _cosine_form_cached(e.abs())


def weight_label(w: FieldElem) -> str:
    """|w| in the CLI's entry syntax: "0", "2", or "cos(k/l)" for 2cos(pi k/l)."""
    if w.is_zero():
        return "0"
    k, l = entry_cosine_form(w)
    return "2" if k == 0 else f"cos({k}/{l})"


@lru_cache(maxsize=None)
def _cosine_form_cached(a: FieldElem) -> tuple[int, int]:
    if a.is_zero():
        return (1, 2)  # 0 = 2cos(pi/2)
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
    raise NotCosineForm(f"entry {a!r} is not of the form 2cos(pi k/l)")


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of the finite-mutation-type trichotomy."""

    # "finite" | "affine" | "markov" | "mutation_infinite" | "decomposable"
    kind: str
    markov: Optional[FieldElem] = None
    pair: Optional[tuple[Fraction, Fraction]] = None  # finite type (t1, t2)
    level: Optional[int] = None  # affine: the common denominator d
    class_size: Optional[int] = None
    closed: bool = False
    weight: Optional[FieldElem] = None  # decomposable: |b| of the rank-2 factor

    def __str__(self):
        if self.kind == "finite":
            return f"FiniteType(t1={self.pair[0]}, t2={self.pair[1]})"
        if self.kind == "decomposable":
            return f"Decomposable(weight={weight_label(self.weight)})"
        if self.kind == "affine":
            return f"Affine(d={self.level})"
        if self.kind == "markov":
            return "MarkovClass"
        return "MutationInfinite"


SPHERICAL_PAIRS = (
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(1, 4)),
    (Fraction(1, 3), Fraction(1, 5)),
    (Fraction(1, 3), Fraction(2, 5)),
    (Fraction(1, 5), Fraction(2, 5)),
)


def spherical_matrix(t1: Fraction, t2: Fraction) -> ExchangeMatrix:
    """Path-quiver normal form with weights 2cos(pi t1), 2cos(pi t2)."""
    level = lcm(t1.denominator, t2.denominator)
    w1 = cos_multiple(level, t1.numerator * (level // t1.denominator))
    w2 = cos_multiple(level, t2.numerator * (level // t2.denominator))
    return ExchangeMatrix.from_upper(w1, FieldElem.zero(level), w2)


def markov_matrix() -> ExchangeMatrix:
    two = FieldElem.from_rational(2, 2)
    return ExchangeMatrix.from_upper(two, -two, two)


def affine_normal_form(d: int) -> ExchangeMatrix:
    """The cyclically-ordered affine representative: two parallel lines and a
    transversal meeting them at angle pi/d."""
    two = FieldElem.from_rational(d, 2)
    w = cos_multiple(d, 1)
    return ExchangeMatrix.from_upper(two, -w, w)


def mutation_class(B: ExchangeMatrix):
    """Breadth-first walk of the mutation class up to simultaneous
    permutation, checking each member's entries with `entry_cosine_form`.

    Returns (members, witness): members maps canonical key to a
    representative in BFS order.  The walk stops at the first member with
    an entry that is not +-2cos(pi k/l) and returns that entry as the
    witness; a class that closes without one has witness None.  `classify`
    derives why the walk always ends and why a witness certifies an
    infinite class.
    """
    members: dict[str, ExchangeMatrix] = {}
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


def classify(B: ExchangeMatrix) -> ClassificationResult:
    """Finite-mutation-type trichotomy for rank-3 matrices.

    A quiver with an isolated vertex is `decomposable`, a rank-1 factor
    next to a rank-2 factor whose weight is reported (and must be
    +-2cos(pi k/l)); no walk runs.  For the others `mutation_class` walks
    the class.  A witness, an entry of B or of a later member that is not
    +-2cos(pi k/l), makes it `mutation_infinite`.  A class that closes
    without an acyclic member is the Markov class.  Otherwise the Markov
    constant C, a mutation invariant read off B, decides: C = 4 is affine,
    with d the least common denominator of B's entry angles, and C < 4 is
    the spherical pair whose normal form lies in the class.

    Termination.  Mutation keeps the entries in F_L, L = B.level: each
    changed entry gains a product of two entries or nothing.  By the
    conductor argument in `entry_cosine_form`, an irrational +-2cos(pi k/l)
    with gcd(k, l) = 1 lies in F_L only if l divides L, and by Niven's
    theorem the rational ones are 0, +-1, +-2.  So F_L holds finitely many
    such values, finitely many matrices have only such entries, and the
    walk, which visits each at most once up to permutation, either closes
    or meets a witness.

    Soundness.  In a mutation-finite class every entry of every member is
    +-2cos(pi k/l).  An integer class has |b_ij| <= 2, and 0, 1, 2 are
    2cos(pi/2), 2cos(pi/3), 2cos(0).  A non-integer class is realised by
    partial reflections (Felikson-Tumarkin).  For finite type the entries
    pair roots of a finite reflection group on the sphere; the product of
    two of its reflections has finite order m, so they pair to
    +-2cos(pi k/m).  For affine type they pair lines in the plane at
    multiples of pi/d: lines at angle pi k/d pair to +-2cos(pi k/d), and
    parallel lines to +-2.  So a witness certifies an infinite class, a
    closed class is mutation-finite, and by the same classification an
    acyclic one has C <= 4.
    """
    for v in range(3):
        j, k = (x for x in range(3) if x != v)
        if B[v, j].is_zero() and B[v, k].is_zero():
            # mutation keeps a vertex isolated and the other pair's weight
            # up to sign, and rank 2 is always mutation-finite
            entry_cosine_form(B[j, k])
            return ClassificationResult(kind="decomposable", weight=B[j, k].abs())

    members, witness = mutation_class(B)
    c = markov_constant(B)
    if witness is not None:
        return ClassificationResult(
            kind="mutation_infinite", markov=c, class_size=len(members)
        )
    if not any(is_acyclic(m) for m in members.values()):
        return ClassificationResult(
            kind="markov", markov=c, class_size=len(members), closed=True
        )
    comparison = (c - 4).sign()
    if comparison > 0:
        raise RuntimeError("closed acyclic class with C > 4")
    if comparison == 0:
        upper = (B[0, 1], B[0, 2], B[1, 2])
        level = lcm(*(entry_cosine_form(e)[1] for e in upper))
        if level == 1:
            level = 3  # all entries in {0, +-2}: the equilateral class
        return ClassificationResult(
            kind="affine",
            markov=c,
            level=level,
            class_size=len(members),
            closed=True,
        )
    for t1, t2 in SPHERICAL_PAIRS:
        candidate = spherical_matrix(t1, t2)
        target_level = lcm(candidate.level, B.level)
        cand_key = _lift_matrix(candidate, target_level).canonical_key()
        if any(
            _lift_matrix(m, target_level).canonical_key() == cand_key
            for m in members.values()
        ):
            return ClassificationResult(
                kind="finite",
                markov=c,
                pair=(t1, t2),
                class_size=len(members),
                closed=True,
            )
    raise NotCosineForm("closed class with C < 4 matches no spherical normal form")


def _lift_matrix(B: ExchangeMatrix, level: int) -> ExchangeMatrix:
    if B.level == level:
        return B
    return ExchangeMatrix([[e.lift(level) for e in row] for row in B.entries])
