"""The benchmark's own tests: determinism of traced counts, no wrappers in
untraced runs, and per-layer coverage.

Each workload runs at the benchmark's own sizes through run.collect()
with no time budget, which takes a single round: one untraced and one
traced worker process per run, two runs per workload with one seed.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
ENUM, CLOSURE, CYCLO, ANALYSIS = (
    "affine-enumerate", "finite-closure", "cyclotomic-field", "affine-analysis"
)
ALL = (ENUM, CLOSURE, CYCLO, ANALYSIS)

# Where each per-layer metric must be non-zero: the workloads that should
# move it.  Where a row moves several workloads but a metric's mechanism
# only runs on some of them, the narrower set is given and the reason noted.
MOVES = {
    **dict.fromkeys(
        ("kernels.mul_reduce.calls", "kernels.mul_reduce.self_s",
         "kernels.content.calls", "kernels.content.self_s", "kernels.coef_mults"),
        (ENUM, CLOSURE, CYCLO)),
    **dict.fromkeys(
        ("cycfield.new.calls", "cycfield.new.self_s", "cycfield.mul.calls",
         "cycfield.mul.self_s", "cycfield.addsub.calls", "cycfield.addsub.self_s",
         "cycfield.key.calls", "mutations", "mul_per_mutation", "new_per_mutation"),
        (ENUM, CLOSURE, ANALYSIS)),
    **dict.fromkeys(
        ("cycfield.inv.calls", "cycfield.inv.self_s", "cycfield.det.self_s",
         "cycfield.galois.calls", "cycfield.galois.self_s", "cycfield.rank.self_s"),
        (CYCLO,)),
    # positivity signs on the BFS, escalation on near-zero elements only
    **dict.fromkeys(("cycfield.sign.calls", "cycfield.sign.self_s",
                     "cycfield.sign.max_bits"), (ENUM, CYCLO)),
    **dict.fromkeys(("cycfield.sign.memo_hits", "cycfield.sign.memo_ratio",
                     "sign_per_mutation"), (ENUM,)),
    "cycfield.sign.escalations": (CYCLO,),
    **dict.fromkeys(("cycfield.cache.hits", "cycfield.cache.lookups",
                     "cycfield.cache.hit_ratio", "cycfield.cache.entries"), ALL),
    **dict.fromkeys(("planegeom.cache.hits", "planegeom.cache.lookups",
                     "planegeom.cache.hit_ratio"), (ENUM, ANALYSIS)),
    **dict.fromkeys(("planegeom.cross_q.calls", "planegeom.reflect_point.calls",
                     "planegeom.line_intersect.calls", "planegeom.self_s"),
                    (ENUM, ANALYSIS)),
    # dot products and altitude feet belong to the read side, not to mutation
    **dict.fromkeys(("planegeom.dot.calls", "planegeom.foot.calls"), (ANALYSIS,)),
    **dict.fromkeys(("exmatrix.mutate.calls", "exmatrix.mutate.self_s",
                     "exmatrix.new.calls", "exmatrix.new.self_s"), (ENUM, CLOSURE)),
    **dict.fromkeys(("seedgeom.planar_mutate.calls", "seedgeom.planar_mutate.self_s",
                     "seedgeom.positivity.calls", "seedgeom.positivity.self_s"), (ENUM,)),
    # neither of the benchmark's BFS windows (d=5 to depth 9, d=7 to depth 8)
    # takes planar_mutate's lazy branch; the count is kept so that a change
    # that does shows
    **dict.fromkeys(("seedgeom.planar_mutate.lazy", "seedgeom.planar_mutate.lazy_ratio"), ()),
    **dict.fromkeys(("seedgeom.seed_mutate.calls", "seedgeom.seed_mutate.self_s",
                     "seedgeom.quad_pair.calls", "exgraph.sph_accepted",
                     "exgraph.sph_attempts", "exgraph.sph_accept_ratio",
                     "exgraph.periods.self_s", "exgraph.isomorphic.self_s"), (CLOSURE,)),
    **dict.fromkeys(("seedgeom.key.built", "seedgeom.key.self_s"), (ENUM, CLOSURE, ANALYSIS)),
    # the read side keys fresh translates, so its keys are never memoised
    **dict.fromkeys(("seedgeom.key.memo_hits", "seedgeom.key.memo_ratio"), (ENUM, CLOSURE)),
    # only the read side translates seeds
    "seedgeom.translate.calls": (ANALYSIS,),
    **dict.fromkeys(("seedgeom.translation_between.calls",
                     "seedgeom.translation_between.self_s", "seedgeom.t_invariant.self_s",
                     "exgraph.lattice_report.self_s", "exgraph.quotient_census.self_s",
                     "exgraph.belt_checks.self_s"), (ANALYSIS,)),
    **dict.fromkeys(("exgraph.bfs.self_s", "exgraph.bfs.vertices", "exgraph.bfs.edges",
                     "exgraph.bfs.new_vertices", "exgraph.bfs.mutations",
                     "exgraph.bfs.new_per_mutation", "exgraph.bfs.max_layer"), (ENUM,)),
    **dict.fromkeys(("trace.traced_s", "trace.untraced_s", "trace.overhead_ratio"), ALL),
}

# Metrics whose layer the workload never calls: they must read zero.
NEVER = {
    **{m: (CLOSURE, CYCLO) for m in MOVES if m.startswith("planegeom.")},
    **dict.fromkeys(("seedgeom.translation_between.calls",
                     "seedgeom.translation_between.self_s", "seedgeom.t_invariant.self_s",
                     "exgraph.lattice_report.self_s", "exgraph.quotient_census.self_s",
                     "exgraph.belt_checks.self_s"), (ENUM,)),
}


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload with one seed."""
    return {
        name: [
            run.summarise(name, SEED, run.collect(name, SEED, 0, trace=True), True)
            for _ in range(2)
        ]
        for name in ALL
    }


def _values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ALL)
def test_traced_runs_are_correct_and_clean(traced_runs, workload):
    for result in traced_runs[workload]:
        assert result["correct"], result["messages"]
        assert result["attempted"] > 0
        assert not result["wrappers_left"]
        assert all(s["unwrapped"] for s in result["samples"])
        assert set(result["metrics"]) == {name for name, _ in tracer.PER_LAYER}


@pytest.mark.parametrize("workload", ALL)
def test_counts_repeat_across_traced_runs(traced_runs, workload):
    first, second = (_values(r) for r in traced_runs[workload])
    diff = {n: (first[n], second[n]) for n in tracer.COUNT_METRICS if first[n] != second[n]}
    assert not diff


@pytest.mark.parametrize("workload", ALL)
def test_per_layer_coverage(traced_runs, workload):
    values = _values(traced_runs[workload][0])
    silent = [m for m, moves in MOVES.items() if workload in moves and not values[m]]
    called = [m for m, never in NEVER.items() if workload in never and values[m]]
    assert not silent, f"zero where the layer should work: {silent}"
    assert not called, f"non-zero where the layer is never called: {called}"


def test_every_per_layer_metric_has_an_expectation():
    assert set(MOVES) == {name for name, _ in tracer.PER_LAYER}


def test_install_and_uninstall_restore_every_name():
    from quiverbelt import _kernels_py, cycfield, kernels, seedgeom

    originals = (kernels.mul_reduce, cycfield.FieldElem.__dict__["__radd__"],
                 seedgeom.cross_q, seedgeom.mutate)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.is_wrapped(kernels.mul_reduce)
        assert tracer.is_wrapped(cycfield.FieldElem.__dict__["__radd__"])
        assert tracer.is_wrapped(seedgeom.cross_q)  # bound by name from planegeom
        assert tracer.is_wrapped(seedgeom.mutate)  # bound by name from exmatrix
        x = cycfield.FieldElem(5, [1, 2])
        assert x * x == x * x
    finally:
        tr.uninstall()
    assert (kernels.mul_reduce, cycfield.FieldElem.__dict__["__radd__"],
            seedgeom.cross_q, seedgeom.mutate) == originals
    if kernels.BACKEND == "pure":
        assert kernels.mul_reduce is _kernels_py.mul_reduce
    assert tr.count("cycfield.mul") == 2


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"work_per_s", "setup_s", "peak_rss_mb"}
