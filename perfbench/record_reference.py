"""Record affine-enumerate's reference profiles into reference.json.

    python3 perfbench/record_reference.py

For every window it runs the BFS from each belt offset the workload can
draw and requires identical per-depth vertex counts and edge counts before
writing them: translation along the belt by multiples of 6 steps must not
change a window's shape.
"""

from __future__ import annotations

import json
import sys

from worker import import_quiverbelt

import_quiverbelt()

from quiverbelt import exgraph  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    profiles = {}
    offsets = list(workloads.AffineEnumerate.belt_offsets)
    for d, depth in workloads.AffineEnumerate.windows:
        seen = {}
        for k in offsets:
            graph = exgraph.bfs(workloads.belt_translate(d, k), depth)
            seen[k] = (workloads.depth_profile(graph), graph.size())
        if len(set(map(repr, seen.values()))) != 1:
            sys.exit(f"d={d} depth {depth}: profiles differ between belt offsets: {seen}")
        profile, edges = seen[offsets[0]]
        profiles[f"d{d}-depth{depth}"] = {
            "profile": profile,
            "vertices": sum(profile),
            "edges": edges,
            "confirmed_belt_offsets": offsets,
        }
        print(f"d={d} depth {depth}: {sum(profile)} vertices, {edges} edges, "
              f"identical for belt offsets {offsets}")
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump({"affine-enumerate": profiles}, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
