"""One benchmark sample: a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]
        [--trace-file PATH]

Prints one JSON line: the time at which the process was ready (set-up
done), the timed-region seconds, the calibration seconds measured around
the timed region, the output check, peak RSS, the settings that change
the measured program and, with --trace, the per-layer metrics.
run.py starts these one at a time and aggregates them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_quiverbelt():
    """Import quiverbelt from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import quiverbelt
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import quiverbelt from {SRC}: {exc}")
    if not os.path.abspath(quiverbelt.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: quiverbelt imported from {quiverbelt.__file__}, not {SRC}")
    return quiverbelt


# calibrate()'s time on an uncontended core of the 2-vCPU machine the
# benchmark was tuned on: the reference of the machine-speed normalisation
CALIB_REF_S = 0.125


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop in the style of the field
    kernels (small-integer convolutions, tuple keys, Fractions) that uses
    no quiverbelt code.  Run next to the timed region, it measures how fast
    the machine is at that moment."""
    start = time.perf_counter()
    a, b = (3, -1, 4, 1, -5), (2, 7, -1, 8, 2)
    table: dict = {}
    acc = Fraction(0)
    for i in range(30000):
        out = [0] * 9
        for x, ax in enumerate(a):
            for y, by in enumerate(b):
                out[x + y] += ax * by * (i % 7 + 1)
        key = tuple(out[:5])
        table[key] = table.get(key, 0) + 1
        if i % 16 == 0:
            acc += Fraction(out[0], out[1] or 1)
    return time.perf_counter() - start


def settings() -> dict:
    """Everything outside the inputs that changes the measured program."""
    from quiverbelt import kernels

    return {
        "backend": kernels.BACKEND,
        "QUIVERBELT_PURE": os.environ.get("QUIVERBELT_PURE"),
        "QUIVERBELT_PRECISION_BITS": os.environ.get("QUIVERBELT_PRECISION_BITS"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def unwrapped() -> bool:
    """True when no tracing wrapper is left in any patched namespace."""
    from quiverbelt import _kernels_py, kernels

    import tracer

    if kernels.BACKEND == "pure" and kernels.mul_reduce is not _kernels_py.mul_reduce:
        return False
    owners = {owner for _, owner, _, _ in tracer.PATCHES if isinstance(owner, type)}
    owners.update(tracer.MODULES)
    return not any(tracer.is_wrapped(v) for o in owners for v in vars(o).values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    import_quiverbelt()
    from quiverbelt.cycfield import level_context

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    for d in workload.levels(args.seed):
        level_context(d)
    ready_at = time.time()

    inputs = workload.prepare(args.seed)
    calib_before = calibrate()
    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install()
    start = time.perf_counter()
    try:
        results = workload.run(inputs)
    finally:
        timed_s = time.perf_counter() - start
        if tr is not None:
            tr.uninstall()
    calib_s = (calib_before + calibrate()) / 2
    attempted, failed, messages = workload.check(inputs, results)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ready_at": ready_at,
        "timed_s": timed_s,
        "calib_s": calib_s,
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "settings": settings(),
        "unwrapped": unwrapped(),
    }
    if tr is not None:
        out["metrics"] = tr.metrics()
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": tr.span_records(), "metrics": out["metrics"]}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
