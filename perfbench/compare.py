"""Compare two benchmark results of the same workload.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The files are the result-*.json files run.py writes to perfbench/out/.
Results whose kernel backend or QUIVERBELT_* settings differ measure
different programs: they are refused with exit code 2.
"""

from __future__ import annotations

import json
import sys

PROGRAM_SETTINGS = ("backend", "QUIVERBELT_PURE", "QUIVERBELT_PRECISION_BITS", "PYTHONHASHSEED")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path) as fh:
            results.append(json.load(fh))
    before, after = results
    differ = [k for k in PROGRAM_SETTINGS if before["settings"].get(k) != after["settings"].get(k)]
    if differ:
        print(f"refused: settings differ: {', '.join(differ)}", file=sys.stderr)
        return 2
    if (before["workload"], before["trace"]) != (after["workload"], after["trace"]):
        print("refused: different workloads or trace modes", file=sys.stderr)
        return 2
    print(f"{before['workload']} trace={before['trace']}: "
          f"{before['settings'].get('git_commit')} -> {after['settings'].get('git_commit')}")
    for name, b in before["metrics"].items():
        a = after["metrics"][name]
        change = f"{a['value'] / b['value'] - 1:+.1%}" if b["value"] else "n/a"
        print(f"  {name:<40} {b['value']:>14.6g} {a['value']:>14.6g} {b['unit']:<6} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
