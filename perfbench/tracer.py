"""Per-layer tracing by wrapping quiverbelt's functions at module boundaries.

Wrappers replace a function under every name it is looked up by: the
defining module, each module that bound it with `from ... import name`,
and class attributes (FieldElem operators, aliases such as __radd__
included).  `kernels.mul_reduce` is patched in `quiverbelt.kernels`, which
cycfield reads at call time; `_kernels_py` is left alone so that the
kernels' internal calls are not counted twice.

Coarse boundaries record spans (name, start, end, parent span).  Hot leaves
(FieldElem operators, kernels, sign, plane-geometry primitives, matrix
construction) only aggregate calls and time.  Every wrapped call, span or
leaf, takes part in self time: its duration minus the time of the wrapped
calls nested inside it.  Tracing is installed around the timed region
only and removed afterwards.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import wraps

from quiverbelt import (
    cycfield,
    exgraph,
    exmatrix,
    kernels,
    planegeom,
    seedgeom,
    verification,
)

# modules searched for by-name bindings of a patched function
MODULES = (kernels, cycfield, exmatrix, planegeom, seedgeom, exgraph, verification)

_FE = cycfield.FieldElem

# (stat name, owner, attribute, is_span).  A module owner is scanned for the
# function under every module in MODULES; a class owner for aliases.
PATCHES = (
    ("kernels.mul_reduce", kernels, "mul_reduce", False),
    ("kernels.content", kernels, "content", False),
    ("kernels.reduce_tail", kernels, "reduce_tail", False),
    ("cycfield.new", _FE, "__init__", False),
    ("cycfield.mul", _FE, "__mul__", False),
    ("cycfield.addsub", _FE, "__add__", False),
    ("cycfield.addsub", _FE, "__sub__", False),
    ("cycfield.addsub", _FE, "__rsub__", False),
    ("cycfield.key", _FE, "key", False),
    ("cycfield.sign", _FE, "sign", False),
    ("cycfield.enclosure", cycfield.LevelContext, "enclosure", False),
    ("cycfield.inv", _FE, "inv", True),
    ("cycfield.det", cycfield, "field_det", True),
    ("cycfield.galois", cycfield.GaloisMap, "apply", True),
    ("cycfield.rank", cycfield, "rational_rank", True),
    ("planegeom.cross_q", planegeom, "cross_q", False),
    ("planegeom.dot", planegeom, "dot", False),
    ("planegeom.reflect_point", planegeom, "reflect_point", False),
    ("planegeom.line_intersect", planegeom, "line_intersect", False),
    ("planegeom.foot", planegeom, "foot_of_perpendicular", False),
    ("exmatrix.mutate", exmatrix, "mutate", True),
    ("exmatrix.new", exmatrix.ExchangeMatrix, "__init__", False),
    ("seedgeom.planar_mutate", seedgeom, "planar_mutate", True),
    ("seedgeom.positivity", seedgeom, "positivity", False),
    ("seedgeom.seed_mutate", seedgeom, "seed_mutate", True),
    ("seedgeom.quad_pair", seedgeom.QuadSpace, "pair", False),
    ("seedgeom.spherical_seed", seedgeom, "spherical_seed", False),
    ("seedgeom.key", seedgeom.PlanarSeed, "canonical_key", True),
    ("seedgeom.key", seedgeom.SphericalSeed, "canonical_key", True),
    ("seedgeom.translate", seedgeom.PlanarSeed, "translate", False),
    ("seedgeom.translation_between", seedgeom, "translation_between", True),
    ("seedgeom.t_invariant", seedgeom, "t_invariant", True),
    ("exgraph.bfs", exgraph, "bfs", True),
    ("exgraph.compatible_spherical_graph", exgraph, "compatible_spherical_graph", True),
    ("exgraph.periods", exgraph, "all_periods_short", True),
    ("exgraph.isomorphic", exgraph, "graphs_isomorphic", True),
    ("exgraph.lattice_report", exgraph, "lattice_report", True),
    ("exgraph.quotient_census", exgraph, "quotient_census", True),
    ("exgraph.belt_checks", exgraph, "acyclic_belt", True),
    ("exgraph.belt_checks", exgraph, "belt_subgraph_check", True),
)

CACHES = {
    "cycfield": (
        cycfield.level_context,
        cycfield.cos_multiple,
        cycfield.sin_quotient,
        cycfield.sin_product,
        cycfield.cos_value,
        cycfield.inv_sin_sq,
        cycfield._integral_basis_matrix,
    ),
    "planegeom": (planegeom.sin_sq, planegeom.unit_dir, planegeom._dir_cross_inv),
}

# Per-layer metrics of a traced run, in report order: (name, unit).
PER_LAYER = (
    ("kernels.mul_reduce.calls", "count"),
    ("kernels.mul_reduce.self_s", "s"),
    ("kernels.content.calls", "count"),
    ("kernels.content.self_s", "s"),
    ("kernels.coef_mults", "count"),
    ("cycfield.new.calls", "count"),
    ("cycfield.new.self_s", "s"),
    ("cycfield.mul.calls", "count"),
    ("cycfield.mul.self_s", "s"),
    ("cycfield.addsub.calls", "count"),
    ("cycfield.addsub.self_s", "s"),
    ("cycfield.key.calls", "count"),
    ("mutations", "count"),
    ("mul_per_mutation", "ratio"),
    ("new_per_mutation", "ratio"),
    ("cycfield.inv.calls", "count"),
    ("cycfield.inv.self_s", "s"),
    ("cycfield.det.self_s", "s"),
    ("cycfield.galois.calls", "count"),
    ("cycfield.galois.self_s", "s"),
    ("cycfield.rank.self_s", "s"),
    ("cycfield.sign.calls", "count"),
    ("cycfield.sign.self_s", "s"),
    ("cycfield.sign.memo_hits", "count"),
    ("cycfield.sign.memo_ratio", "ratio"),
    ("cycfield.sign.escalations", "count"),
    ("cycfield.sign.max_bits", "bits"),
    ("sign_per_mutation", "ratio"),
    ("cycfield.cache.hits", "count"),
    ("cycfield.cache.lookups", "count"),
    ("cycfield.cache.hit_ratio", "ratio"),
    ("cycfield.cache.entries", "count"),
    ("planegeom.cache.hits", "count"),
    ("planegeom.cache.lookups", "count"),
    ("planegeom.cache.hit_ratio", "ratio"),
    ("planegeom.cross_q.calls", "count"),
    ("planegeom.dot.calls", "count"),
    ("planegeom.reflect_point.calls", "count"),
    ("planegeom.line_intersect.calls", "count"),
    ("planegeom.foot.calls", "count"),
    ("planegeom.self_s", "s"),
    ("exmatrix.mutate.calls", "count"),
    ("exmatrix.mutate.self_s", "s"),
    ("exmatrix.new.calls", "count"),
    ("exmatrix.new.self_s", "s"),
    ("seedgeom.planar_mutate.calls", "count"),
    ("seedgeom.planar_mutate.self_s", "s"),
    ("seedgeom.planar_mutate.lazy", "count"),
    ("seedgeom.planar_mutate.lazy_ratio", "ratio"),
    ("seedgeom.positivity.calls", "count"),
    ("seedgeom.positivity.self_s", "s"),
    ("seedgeom.seed_mutate.calls", "count"),
    ("seedgeom.seed_mutate.self_s", "s"),
    ("seedgeom.quad_pair.calls", "count"),
    ("exgraph.sph_accepted", "count"),
    ("exgraph.sph_attempts", "count"),
    ("exgraph.sph_accept_ratio", "ratio"),
    ("exgraph.periods.self_s", "s"),
    ("exgraph.isomorphic.self_s", "s"),
    ("seedgeom.key.built", "count"),
    ("seedgeom.key.memo_hits", "count"),
    ("seedgeom.key.memo_ratio", "ratio"),
    ("seedgeom.key.self_s", "s"),
    ("seedgeom.translate.calls", "count"),
    ("seedgeom.translation_between.calls", "count"),
    ("seedgeom.translation_between.self_s", "s"),
    ("seedgeom.t_invariant.self_s", "s"),
    ("exgraph.lattice_report.self_s", "s"),
    ("exgraph.quotient_census.self_s", "s"),
    ("exgraph.belt_checks.self_s", "s"),
    ("exgraph.bfs.self_s", "s"),
    ("exgraph.bfs.vertices", "count"),
    ("exgraph.bfs.edges", "count"),
    ("exgraph.bfs.new_vertices", "count"),
    ("exgraph.bfs.mutations", "count"),
    ("exgraph.bfs.new_per_mutation", "ratio"),
    ("exgraph.bfs.max_layer", "count"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# metrics that must repeat exactly between two traced runs with one seed
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bits"))


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def is_wrapped(obj) -> bool:
    return hasattr(obj, "__perfbench_stat__")


class Tracer:
    """Collects spans and per-name statistics while installed."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.max_bits = 0
        self.initial_bits = cycfield._initial_sign_bits()
        self._restore: list = []
        self._time_stack = [0.0]  # time of wrapped calls nested in each frame
        self._span_stack = [-1]
        self._cache_before: dict = {}
        self._cache_after: dict = {}
        self._bfs_marks: list = []
        # vertices, edges, new vertices, seed mutations, largest layer
        self.bfs_totals = (0, 0, 0, 0, 0)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self._cache_before = _cache_totals()
        for name, owner, attr, is_span in PATCHES:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrapper(name, original, is_span)
            owners = [owner] if isinstance(owner, type) else MODULES
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)
        self._cache_after = _cache_totals()

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, name, fn, is_span):
        stat = self.stats.setdefault(name, Stat())
        if name == "cycfield.enclosure":
            wrapper = self._enclosure_wrapper(fn, stat)
        elif name == "seedgeom.key":
            wrapper = self._key_wrapper(fn, self._timed(name, fn, stat, is_span))
        else:
            wrapper = self._timed(name, fn, stat, is_span)
        wrapper.__perfbench_stat__ = stat
        return wrapper

    def _timed(self, name, fn, stat, is_span):
        clock = time.perf_counter
        times = self._time_stack
        before = _HOOKS.get(name)
        after = _RESULT_HOOKS.get(name)

        if not (is_span or before or after):

            @wraps(fn)
            def leaf(*args, **kwargs):
                stat.calls += 1
                times.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat.self_s += elapsed - times.pop()
                    times[-1] += elapsed

            return leaf

        spans = self.spans
        span_stack = self._span_stack
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            if before:
                before(tracer, stat, args)
            if is_span:
                index = len(spans)
                spans.append(None)
                parent = span_stack[-1]
                span_stack.append(index)
            times.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stat.self_s += end - start - times.pop()
                times[-1] += end - start
                if is_span:
                    span_stack.pop()
                    spans[index] = (name, start, end, parent)
            if after:
                after(tracer, stat, args, result)
            return result

        return traced

    def _enclosure_wrapper(self, fn, stat):
        """Counts precision requests; its time stays in the sign oracle's."""
        tracer = self

        @wraps(fn)
        def enclosure(ctx, bits):
            stat.calls += 1
            if bits > tracer.initial_bits:
                stat.extra += 1
            tracer.max_bits = max(tracer.max_bits, bits)
            return fn(ctx, bits)

        return enclosure

    def _key_wrapper(self, fn, build):
        """A memoised key is counted as a hit; building one is a span."""
        memo = self.stats.setdefault("seedgeom.key.memo", Stat())

        @wraps(fn)
        def canonical_key(seed):
            if isinstance(seed, seedgeom.SphericalSeed):
                memoised = bool(seed._key)
            else:
                memoised = "key" in seed._cache
            if memoised:
                memo.calls += 1
                return fn(seed)
            return build(seed)

        return canonical_key

    # -- results -------------------------------------------------------------

    def count(self, name) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def self_s(self, *names) -> float:
        return sum(self.stats[n].self_s for n in names if n in self.stats)

    def extra(self, name) -> int:
        stat = self.stats.get(name)
        return stat.extra if stat else 0

    def metrics(self) -> dict:
        """Every per-layer metric except the trace.* ones, which compare a
        traced process with an untraced one."""
        c, s, x = self.count, self.self_s, self.extra
        mutations = _seed_mutations(self)
        # hits and lookups inside the timed region; entries at its end
        cache = {
            layer: (after[0] - before[0], after[1] - before[1], after[2])
            for layer, before, after in (
                (k, self._cache_before[k], self._cache_after[k]) for k in CACHES
            )
        }
        key_hits = c("seedgeom.key.memo")
        out = {
            "kernels.mul_reduce.calls": c("kernels.mul_reduce"),
            "kernels.mul_reduce.self_s": s("kernels.mul_reduce"),
            "kernels.content.calls": c("kernels.content"),
            "kernels.content.self_s": s("kernels.content"),
            "kernels.coef_mults": x("kernels.mul_reduce") + x("kernels.reduce_tail"),
            "cycfield.new.calls": c("cycfield.new"),
            "cycfield.new.self_s": s("cycfield.new"),
            "cycfield.mul.calls": c("cycfield.mul"),
            "cycfield.mul.self_s": s("cycfield.mul"),
            "cycfield.addsub.calls": c("cycfield.addsub"),
            "cycfield.addsub.self_s": s("cycfield.addsub"),
            "cycfield.key.calls": c("cycfield.key"),
            "mutations": mutations,
            "mul_per_mutation": _ratio(c("cycfield.mul"), mutations),
            "new_per_mutation": _ratio(c("cycfield.new"), mutations),
            "cycfield.inv.calls": c("cycfield.inv"),
            "cycfield.inv.self_s": s("cycfield.inv"),
            "cycfield.det.self_s": s("cycfield.det"),
            "cycfield.galois.calls": c("cycfield.galois"),
            "cycfield.galois.self_s": s("cycfield.galois"),
            "cycfield.rank.self_s": s("cycfield.rank"),
            "cycfield.sign.calls": c("cycfield.sign"),
            "cycfield.sign.self_s": s("cycfield.sign"),
            "cycfield.sign.memo_hits": x("cycfield.sign"),
            "cycfield.sign.memo_ratio": _ratio(x("cycfield.sign"), c("cycfield.sign")),
            "cycfield.sign.escalations": x("cycfield.enclosure"),
            "cycfield.sign.max_bits": self.max_bits,
            "sign_per_mutation": _ratio(c("cycfield.sign"), mutations),
            "cycfield.cache.hits": cache["cycfield"][0],
            "cycfield.cache.lookups": cache["cycfield"][1],
            "cycfield.cache.hit_ratio": _ratio(cache["cycfield"][0], cache["cycfield"][1]),
            "cycfield.cache.entries": cache["cycfield"][2],
            "planegeom.cache.hits": cache["planegeom"][0],
            "planegeom.cache.lookups": cache["planegeom"][1],
            "planegeom.cache.hit_ratio": _ratio(cache["planegeom"][0], cache["planegeom"][1]),
            "planegeom.cross_q.calls": c("planegeom.cross_q"),
            "planegeom.dot.calls": c("planegeom.dot"),
            "planegeom.reflect_point.calls": c("planegeom.reflect_point"),
            "planegeom.line_intersect.calls": c("planegeom.line_intersect"),
            "planegeom.foot.calls": c("planegeom.foot"),
            "planegeom.self_s": s(
                "planegeom.cross_q", "planegeom.dot", "planegeom.reflect_point",
                "planegeom.line_intersect", "planegeom.foot",
            ),
            "exmatrix.mutate.calls": c("exmatrix.mutate"),
            "exmatrix.mutate.self_s": s("exmatrix.mutate"),
            "exmatrix.new.calls": c("exmatrix.new"),
            "exmatrix.new.self_s": s("exmatrix.new"),
            "seedgeom.planar_mutate.calls": c("seedgeom.planar_mutate"),
            "seedgeom.planar_mutate.self_s": s("seedgeom.planar_mutate"),
            "seedgeom.planar_mutate.lazy": x("seedgeom.planar_mutate"),
            "seedgeom.planar_mutate.lazy_ratio": _ratio(
                x("seedgeom.planar_mutate"), c("seedgeom.planar_mutate")
            ),
            "seedgeom.positivity.calls": c("seedgeom.positivity"),
            "seedgeom.positivity.self_s": s("seedgeom.positivity"),
            "seedgeom.seed_mutate.calls": c("seedgeom.seed_mutate"),
            "seedgeom.seed_mutate.self_s": s("seedgeom.seed_mutate"),
            "seedgeom.quad_pair.calls": c("seedgeom.quad_pair"),
            "exgraph.sph_accepted": x("exgraph.compatible_spherical_graph"),
            "exgraph.sph_attempts": c("seedgeom.spherical_seed"),
            "exgraph.sph_accept_ratio": _ratio(
                x("exgraph.compatible_spherical_graph"), c("seedgeom.spherical_seed")
            ),
            "exgraph.periods.self_s": s("exgraph.periods"),
            "exgraph.isomorphic.self_s": s("exgraph.isomorphic"),
            "seedgeom.key.built": c("seedgeom.key"),
            "seedgeom.key.memo_hits": key_hits,
            "seedgeom.key.memo_ratio": _ratio(key_hits, key_hits + c("seedgeom.key")),
            "seedgeom.key.self_s": s("seedgeom.key"),
            "seedgeom.translate.calls": c("seedgeom.translate"),
            "seedgeom.translation_between.calls": c("seedgeom.translation_between"),
            "seedgeom.translation_between.self_s": s("seedgeom.translation_between"),
            "seedgeom.t_invariant.self_s": s("seedgeom.t_invariant"),
            "exgraph.lattice_report.self_s": s("exgraph.lattice_report"),
            "exgraph.quotient_census.self_s": s("exgraph.quotient_census"),
            "exgraph.belt_checks.self_s": s("exgraph.belt_checks"),
            "exgraph.bfs.self_s": s("exgraph.bfs"),
            "exgraph.bfs.vertices": self.bfs_totals[0],
            "exgraph.bfs.edges": self.bfs_totals[1],
            "exgraph.bfs.new_vertices": self.bfs_totals[2],
            "exgraph.bfs.mutations": self.bfs_totals[3],
            "exgraph.bfs.new_per_mutation": _ratio(self.bfs_totals[2], self.bfs_totals[3]),
            "exgraph.bfs.max_layer": self.bfs_totals[4],
        }
        return out

    def span_records(self) -> dict:
        """Spans as compact rows [name index, start us, end us, parent]."""
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round((a - origin) * 1e6, 1), round((b - origin) * 1e6, 1), p]
            for n, a, b, p in self.spans
        ]
        return {"names": names, "columns": ["name", "start_us", "end_us", "parent"], "rows": rows}


def _cache_totals() -> dict:
    out = {}
    for layer, fns in CACHES.items():
        hits = lookups = entries = 0
        for fn in fns:
            info = fn.cache_info()
            hits += info.hits
            lookups += info.hits + info.misses
            entries += info.currsize
        out[layer] = (hits, lookups, entries)
    return out


# -- hooks: extra counts recorded in Stat.extra ---------------------------------


def _coef_mults(tracer, stat, args):
    a, b, _, deg = args
    stat.extra += len(a) * len(b) + (len(a) + len(b) - 1 - deg) * deg


def _tail_mults(tracer, stat, args):
    prod, _, deg = args
    stat.extra += max(len(prod) - deg, 0) * deg


def _sign_memo(tracer, stat, args):
    if args[0]._sign is not None:
        stat.extra += 1


def _seed_mutations(tracer) -> int:
    return tracer.count("seedgeom.planar_mutate") + tracer.count("seedgeom.seed_mutate")


def _bfs_enter(tracer, stat, args):
    tracer._bfs_marks.append(_seed_mutations(tracer))


_HOOKS = {
    "kernels.mul_reduce": _coef_mults,
    "kernels.reduce_tail": _tail_mults,
    "cycfield.sign": _sign_memo,
    "exgraph.bfs": _bfs_enter,
}


def _lazy(tracer, stat, args, result):
    if result.vertices is args[0].vertices:
        stat.extra += 1


def _accepted(tracer, stat, args, result):
    stat.extra += 1


def _bfs_exit(tracer, stat, args, graph):
    mutations = _seed_mutations(tracer) - tracer._bfs_marks.pop()
    widest = max(Counter(graph.depth.values()).values())
    v, e, new, m, peak = tracer.bfs_totals
    tracer.bfs_totals = (
        v + graph.order(),
        e + graph.size(),
        new + graph.order() - 1,
        m + mutations,
        max(peak, widest),
    )


_RESULT_HOOKS = {
    "seedgeom.planar_mutate": _lazy,
    "exgraph.compatible_spherical_graph": _accepted,
    "exgraph.bfs": _bfs_exit,
}
