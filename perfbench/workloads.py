"""The four benchmark workloads.

Each workload is a class with the same four steps, which the worker runs
in this order inside one fresh process:

  levels(seed)     levels whose LevelContext belongs to set-up (setup_s)
  prepare(seed)    inputs generated from the seed, outside the timed region
  run(inputs)      the timed calls into quiverbelt; one result per unit group
  check(inputs, results) -> (attempted, failed, messages), untimed

A unit group that raises is recorded as a failure and the run carries on.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import gcd, lcm

from quiverbelt import cycfield, exgraph, intpoly, seedgeom, verification
from quiverbelt.cycfield import FieldElem, GaloisMap
from quiverbelt.exmatrix import SPHERICAL_PAIRS
from quiverbelt.planegeom import length_along

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def _attempt(fn, *args):
    """Run one unit group; an exception becomes its recorded result."""
    try:
        return fn(*args)
    except Exception as exc:  # a failing unit must not stop the run
        return exc


def belt_translate(d: int, k: int):
    """Entry 6k of the initial acyclic belt: the initial seed translated by
    k * 4T along the belt, so every window grown from it has the same
    shape (offsets that are not multiples of 6 change counts at even d)."""
    steps = 6 * abs(k)
    belt = exgraph.acyclic_belt(seedgeom.initial_seed(d), steps)
    return belt[steps + 6 * k]


def depth_profile(graph) -> list[int]:
    counts = [0] * (max(graph.depth.values()) + 1)
    for level in graph.depth.values():
        counts[level] += 1
    return counts


class AffineEnumerate:
    """Depth-limited BFS windows of the affine exchange graphs at d=5 and
    d=7 (fields of degree 2 and 3): the mutation path behind
    `enumerate --affine` and `growth`.  Unit: seeds enumerated."""

    name = "affine-enumerate"
    unit = "seeds"
    belt_offsets = range(-3, 4)
    windows = ((5, 9), (7, 8))

    def levels(self, seed):
        return [d for d, _ in self.windows]

    def prepare(self, seed):
        k = random.Random(seed).choice(self.belt_offsets)
        return [(d, depth, belt_translate(d, k)) for d, depth in self.windows]

    def run(self, inputs):
        return [
            _attempt(exgraph.bfs, start, depth) for _, depth, start in inputs
        ]

    def check(self, inputs, results):
        reference = load_reference()
        attempted = failed = 0
        messages = []
        for (d, depth, start), graph in zip(inputs, results):
            ref = reference[f"d{d}-depth{depth}"]
            attempted += ref["vertices"]
            if isinstance(graph, Exception):
                failed += ref["vertices"]
                messages.append(f"d={d}: raised {graph!r}")
                continue
            profile = depth_profile(graph)
            if profile != ref["profile"] or graph.size() != ref["edges"]:
                failed += ref["vertices"]
                messages.append(
                    f"d={d}: profile {profile} / {graph.size()} edges != reference"
                )
                continue
            t0 = start.chart.t0
            broken = sum(
                1 for s in graph.vertices.values() if seedgeom.t_invariant(s) != t0
            )
            if broken:
                failed += broken
                messages.append(f"d={d}: T broken on {broken} seeds")
        return attempted, failed, messages


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["affine-enumerate"]


class FiniteClosure:
    """`verification.check_finite_type_counts` with the workload seed:
    sampled compatible reference points, spherical BFS closure of the five
    finite-type classes twice, isomorphism and the float oracle.  Unit:
    closed seeds, 2 x 154 per call."""

    name = "finite-closure"
    unit = "seeds"

    def levels(self, seed):
        return sorted({lcm(a.denominator, b.denominator) for a, b in SPHERICAL_PAIRS})

    def prepare(self, seed):
        return seed

    def run(self, inputs):
        return [_attempt(verification.check_finite_type_counts, inputs)]

    def check(self, inputs, results):
        units = 2 * sum(verification.FINITE_TYPE_COUNTS.values())
        result = results[0]
        if isinstance(result, Exception):
            return units, units, [f"raised {result!r}"]
        if not result.passed:
            return units, units, [result.detail]
        return units, 0, []


class CyclotomicField:
    """Exact arithmetic at degree 8 to 30 with no geometry: field laws on
    seeded random elements, signs of elements within 2^-64 of zero (which
    force the sign oracle to escalate), Verlinde sums, Dedekind
    determinants and Q-ranks.  Unit: identities checked."""

    name = "cyclotomic-field"
    unit = "identities"
    # degrees 8, 10, 15, 16, 20, 26: fixed so the seed moves the elements,
    # not the cost of a unit
    fields, elements = (17, 25, 31, 32, 41, 53), 3
    verlinde_n, dedekind_n = range(1, 25), range(1, 10)

    def levels(self, seed):
        odd = {2 * n + 1 for n in self.verlinde_n} | {2 * n + 1 for n in self.dedekind_n}
        return sorted(odd | set(self.fields))

    def prepare(self, seed):
        rng = random.Random(seed)
        tasks = []
        for d in self.fields:
            deg = cycfield.level_context(d).deg
            multiplier = rng.choice([m for m in range(3, 2 * d) if gcd(m, 2 * d) == 1])
            for _ in range(self.elements):
                x, y = _random_elem(rng, d, deg), _random_elem(rng, d, deg)
                tasks.append(("inverse", x))
                tasks.append(("galois", GaloisMap(d, multiplier), x, y))
                tasks.append(("sign", x, _float_sign(x)))
                tasks.append(("sign", y, _float_sign(y)))
            lo, hi = _root_bracket(d, rng.randint(80, 200))
            scale = Fraction(rng.randint(1, 999), rng.randint(1, 999))
            tasks.append(("sign", FieldElem.from_coeffs(d, [-lo, 1]) * scale, 1))
            tasks.append(("sign", FieldElem.from_coeffs(d, [-hi, 1]) * scale, -1))
            if d % 2:
                tasks.append(("rank", d))
        tasks.extend(("verlinde", n) for n in self.verlinde_n)
        tasks.extend(("dedekind", n) for n in self.dedekind_n)
        return tasks

    def run(self, inputs):
        return [_attempt(_identity, task) for task in inputs]

    def check(self, inputs, results):
        failed = 0
        messages = []
        for task, ok in zip(inputs, results):
            if ok is not True:
                failed += 1
                messages.append(f"{task[0]} {task[1:]!r:.60}: {ok!r}")
        return len(inputs), failed, messages


def _identity(task) -> bool:
    kind = task[0]
    if kind == "inverse":
        x = task[1]
        return x * x.inv() == 1
    if kind == "galois":
        g, x, y = task[1:]
        return g.apply(x * y) == g.apply(x) * g.apply(y)
    if kind == "sign":
        return task[1].sign() == task[2]
    if kind == "rank":
        d = task[1]
        family = [cycfield.inv_sin_sq(d, k) for k in cycfield.units_up_to_half(d)]
        return cycfield.rational_rank(family) == intpoly.euler_totient(d) // 2
    if kind == "verlinde":
        n = task[1]
        return cycfield.verlinde_sum(n) == Fraction(2 * n * (n + 1), 3)
    if kind == "dedekind":
        return not cycfield.dedekind_det(task[1]).is_zero()
    raise ValueError(f"unknown identity {kind}")


def _random_elem(rng, d, deg):
    """A nonzero element whose float value is far from 0 relative to the
    float error bound, so that its sign can be read from to_float()."""
    c = abs(cycfield.level_context(d).c_float)
    while True:
        num = [rng.randint(-9, 9) for _ in range(deg)]
        elem = FieldElem(d, num, rng.randint(1, 9))
        magnitude = sum(abs(n) * c**i for i, n in enumerate(num)) / elem.den
        if abs(elem.to_float()) > 1e-6 * magnitude:
            return elem


def _float_sign(elem) -> int:
    v = elem.to_float()
    return (v > 0) - (v < 0)


def _root_bracket(d: int, bits: int):
    """Dyadic lo < 2cos(pi/d) < hi with hi - lo = 2^-bits, by exact
    bisection on the minimal polynomial (the benchmark's own, independent
    of the sign oracle it tests).  Both c - lo and c - hi are then within
    2^-bits of zero with known signs."""
    mu = intpoly.real_min_poly(d).coeffs

    def f(x):
        acc = Fraction(0)
        for a in reversed(mu):
            acc = acc * x + a
        return acc

    center = Fraction(cycfield.level_context(d).c_float)
    # other roots of mu are at distance >= 32/d^2 > 2^-10 for d <= 128
    lo, hi = center - Fraction(1, 1 << 20), center + Fraction(1, 1 << 20)
    flo = f(lo)
    if flo == 0 or (flo > 0) == (f(hi) > 0):
        raise RuntimeError(f"bracket misses 2cos(pi/{d})")
    while hi - lo > Fraction(1, 1 << bits):
        mid = (lo + hi) / 2
        fmid = f(mid)  # never 0: mu is irreducible of degree >= 2
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo, hi


class AffineAnalysis:
    """The read side over pre-built windows: lattice reports (d = 4, 6, 8
    for the L-rank pairs), quotient census (odd d), a per-vertex sweep,
    belt periodicity and translated-belt subgraph checks.  It shares the
    FieldElem and key layers with affine-enumerate but translates, re-keys
    and compares instead of mutating.  Unit: seeds analysed."""

    name = "affine-analysis"
    unit = "seeds"
    belt_offsets = range(-3, 4)
    levels_ = (4, 6, 8, 5, 7)
    depth = 7  # the shallowest window on which every predicate holds

    def levels(self, seed):
        return list(self.levels_)

    def prepare(self, seed):
        k = random.Random(seed).choice(self.belt_offsets)
        out = []
        for d in self.levels_:
            start = belt_translate(d, k)
            out.append((d, start, exgraph.bfs(start, self.depth)))
        return out

    def run(self, inputs):
        return [_attempt(_analyse, d, start, graph) for d, start, graph in inputs]

    def check(self, inputs, results):
        attempted = failed = 0
        messages = []
        for (d, start, graph), result in zip(inputs, results):
            n = graph.order()
            attempted += n
            if isinstance(result, Exception):
                failed += n
                messages.append(f"d={d}: raised {result!r}")
                continue
            problems, bad_vertices = _judge(d, start, result)
            if problems:
                failed += n
                messages.extend(f"d={d}: {p}" for p in problems)
            elif bad_vertices:
                failed += bad_vertices
                messages.append(f"d={d}: {bad_vertices} seeds break T or the feet")
        return attempted, failed, messages


def _analyse(d, start, graph):
    out = {"report": exgraph.lattice_report(graph, d)}
    if d % 2:
        out["census"] = exgraph.quotient_census(graph)
    t0 = start.chart.t0
    out["bad_vertices"] = sum(
        1
        for s in graph.vertices.values()
        if seedgeom.t_invariant(s) != t0 or not seedgeom.feet_on_belt(s)
    )
    # orientation tags are defined on obtuse triangles at every level and
    # on all triangles at odd levels (the census classes)
    out["tags"] = {
        seedgeom.orientation_tag(s)
        for s in graph.vertices.values()
        if s.kind == "triangle" and (d % 2 or s.is_obtuse())
    }
    if d % 2:
        # |I_n -> I_{n+6}| = 4T holds along the belt at odd levels
        belt = exgraph.acyclic_belt(start, 9)
        lengths = []
        for n in range(len(belt) - 6):
            w = seedgeom.translation_between(belt[n], belt[n + 6])
            lengths.append(
                None if w is None else length_along(d, w, start.chart.belt.dir_class)
            )
        out["belt_lengths"] = lengths
    e = start.chart.belt.e
    out["subgraphs"] = [
        exgraph.belt_subgraph_check(graph, e.scale(exgraph.s_k_length(d, k)), steps=6)
        for k in range(1, d // 2 + 1)
        if gcd(k, d) == 1
    ]
    return out


def _judge(d, start, out):
    problems = []
    report = out["report"]
    if report.rank_r != report.predicted_rank_r:
        problems.append(f"rank R {report.rank_r} != {report.predicted_rank_r}")
    if report.rank_observed not in report.predicted_l_ranks:
        problems.append(f"L-rank {report.rank_observed} not in {report.predicted_l_ranks}")
    if "census" in out:
        census, triples = out["census"]
        if triples != exgraph.gcd_one_triples(d):
            problems.append(f"angle triples {sorted(triples)}")
        if any(sorted(t) != [-1, 1] or set(t.values()) != {1} for t in census.values()):
            problems.append("a census class does not split into two")
    if not out["tags"] <= {-1, 1}:
        problems.append(f"orientation tags {out['tags']}")
    if "belt_lengths" in out:
        target = 4 * start.chart.t0
        if any(length != target for length in out["belt_lengths"]):
            problems.append("|I_n -> I_n+6| != 4T")
    if not all(out["subgraphs"]):
        problems.append(f"belt subgraph checks {out['subgraphs']}")
    return problems, out["bad_vertices"]


WORKLOADS = {
    cls.name: cls
    for cls in (AffineEnumerate, FiniteClosure, CyclotomicField, AffineAnalysis)
}
