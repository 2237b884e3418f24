"""quiverbelt benchmark: seeded workloads, each sample a fresh process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

For --seconds (by default BENCHMARK.json's run_seconds) it starts worker processes one after another (never two at
once), each a cold single-threaded interpreter that imports quiverbelt,
builds the workload's inputs from the seed and times the calls into
quiverbelt from outside.  Untraced (--trace 0) it reports work_per_s (units
completed over the summed timed seconds), the median over the samples of
setup_s and of peak_rss_mb, and the fail ratio of the output checks.  Both
times are in reference seconds: scaled by a calibration loop timed in the
same worker (see README.md).  Traced (--trace 1) it alternates untraced and traced
samples on identical inputs and reports the per-layer metrics of
tracer.PER_LAYER, including trace.overhead_ratio.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with every
sample and the settings that change the measured program, goes to
perfbench/out/; a traced run also writes its spans there.  The exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

from worker import CALIB_REF_S, import_quiverbelt  # noqa: E402

import_quiverbelt()

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 120
RUN_LIMIT_S = 150  # a run must end within 180 s whatever --seconds says


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def sample(workload, seed, trace=False, trace_file=None) -> dict:
    """Run one worker process to completion and return its record."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.time()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {SAMPLE_TIMEOUT_S}s", "wall_s": time.time() - spawned}
    wall_s = time.time() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": f"exit {proc.returncode}: {' | '.join(tail)}", "wall_s": wall_s}
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready_at"] - spawned
    record["wall_s"] = wall_s
    return record


def sample_seed(seed: int, index: int) -> int:
    """Inputs of a run's index-th round (index < 1000).  Each round gets its
    own inputs, so a run averages over inputs as well as over time; the run
    seed fixes them all."""
    return seed * 1000 + index


def collect(workload, seed, seconds, trace=False, trace_file=None):
    """Rounds for `seconds`: one untraced sample each, plus a traced sample
    on the same inputs when tracing.  No round starts when the last one
    would overrun."""
    rounds = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        inputs = sample_seed(seed, len(rounds))
        rnd = [sample(workload, inputs)]
        if trace:
            first = not rounds
            rnd.append(sample(workload, inputs, True, trace_file if first else None))
        rnd_s = time.monotonic() - t0
        rounds.append(rnd)
        elapsed = time.monotonic() - started
        if elapsed + rnd_s > seconds and len(rounds) >= (1 if trace else MIN_SAMPLES):
            break
        if elapsed + rnd_s > RUN_LIMIT_S:
            break
    return [s for rnd in rounds for s in rnd]


def _median(values):
    return statistics.median(values) if values else 0.0


def _speed(sample) -> float:
    """Reference seconds per measured second in this sample."""
    return CALIB_REF_S / sample["calib_s"]


def summarise(workload, seed, samples, trace) -> dict:
    good = [s for s in samples if "crashed" not in s]
    attempted = sum(s["attempted"] for s in good) + len(samples) - len(good)
    failed = sum(s["failed"] for s in good) + len(samples) - len(good)
    plain = [s for s in good if "metrics" not in s]
    traced = [s for s in good if "metrics" in s]
    metrics = {}
    wall = {}
    if trace:
        for name, unit in tracer.PER_LAYER:
            if name.startswith("trace."):
                continue
            values = [s["metrics"][name] for s in traced]
            # counts come from the first round, whose inputs the run seed
            # fixes; times are medians over the rounds
            value = values[0] if values and name in tracer.COUNT_METRICS else _median(values)
            metrics[name] = (value, unit, len(traced))
        untraced_s = _median([s["timed_s"] for s in plain])
        traced_s = _median([s["timed_s"] for s in traced])
        metrics["trace.traced_s"] = (traced_s, "s", len(traced))
        metrics["trace.untraced_s"] = (untraced_s, "s", len(plain))
        metrics["trace.overhead_ratio"] = (
            traced_s / untraced_s if untraced_s else 0.0, "ratio", len(traced))
    else:
        # Times are in reference seconds: each sample's seconds scaled by
        # CALIB_REF_S / calib_s, its calibration loop's time against the
        # loop's time on an uncontended core.  This machine's speed drifts
        # by up to 70 % over minutes; the scaling removes the drift that
        # the calibration sees (finite-closure, eight 25 s runs: range of
        # work_per_s 0.28 raw, 0.14 scaled; setup_s spread 0.24 raw, 0.08
        # scaled).  work_per_s is units over the summed scaled seconds.
        done = sum(s["attempted"] - s["failed"] for s in plain)
        ref_timed = sum(s["timed_s"] * _speed(s) for s in plain)
        metrics["work_per_s"] = (done / ref_timed if ref_timed else 0.0, "1/s", len(plain))
        metrics["setup_s"] = (
            _median([s["setup_s"] * _speed(s) for s in plain]), "s", len(plain))
        metrics["peak_rss_mb"] = (
            _median([s["peak_rss_mb"] for s in plain]), "MB", len(plain))
        wall_timed = sum(s["timed_s"] for s in plain)
        wall = {
            "work_per_s": done / wall_timed if wall_timed else 0.0,
            "setup_s": _median([s["setup_s"] for s in plain]),
            "speed": _median([_speed(s) for s in plain]),
        }
    settings = dict(good[0]["settings"]) if good else {}
    settings.update(git_commit=git_commit(), PYTHONHASHSEED="0")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "settings": settings,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "wall": wall,
        "wrappers_left": [i for i, s in enumerate(good) if not s["unwrapped"]],
        "messages": sorted({m for s in good for m in s["messages"]}
                           | {s["crashed"] for s in samples if "crashed" in s}),
        "samples": samples,
    }


def report(result) -> None:
    w = result["workload"]
    s = result["settings"]
    print(f"== {w}  seed={result['seed']}  trace={result['trace']}  "
          f"backend={s.get('backend')}  QUIVERBELT_PURE={s.get('QUIVERBELT_PURE')}  "
          f"QUIVERBELT_PRECISION_BITS={s.get('QUIVERBELT_PRECISION_BITS')}  "
          f"python={s.get('python')}  nproc={s.get('nproc')}  commit={s.get('git_commit')}")
    for name, m in result["metrics"].items():
        unit = workloads.WORKLOADS[w].unit + "/s" if name == "work_per_s" else m["unit"]
        print(f"  {name:<40} {m['value']:>14.6g} {unit:<14} samples={m['samples']}")
    if result["wall"]:
        wall = result["wall"]
        print(f"  unscaled: work_per_s {wall['work_per_s']:.6g}, setup_s "
              f"{wall['setup_s']:.6g}; reference s per measured s {wall['speed']:.4g}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  {'fail_ratio':<40} {ratio:>14.6g} {'ratio':<14} "
          f"({result['failed']}/{result['attempted']} units)")
    for msg in result["messages"][:8]:
        print(f"  FAILED: {msg}")
    if result["wrappers_left"]:
        print(f"  tracing wrappers left in samples {result['wrappers_left']}")


def run_workload(workload, seed, seconds, trace) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    trace_file = os.path.join(OUT_DIR, f"spans-{stem}.json") if trace else None
    samples = collect(workload, seed, seconds, trace, trace_file)
    result = summarise(workload, seed, samples, trace)
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def run_seconds() -> float:
    """The run length that BENCHMARK.json fixes and its bounds were set for."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        report(result)
    ok = all(r["correct"] and not r["wrappers_left"] for r in results)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
            for r in results for k, m in r["metrics"].items()
        },
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
