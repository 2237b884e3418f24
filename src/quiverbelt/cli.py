"""Command-line front end.

Subcommands:
  classify    classify a rank-3 exchange matrix
  enumerate   export the exchange graph of a finite or affine class
  rank2       periods of the rank-2 sector orbits as CSV
  verify      run the named verification suites

A run takes one matrix source: --sph, --affine, --matrix or --entries.
Matrix shorthand: entries are given as "cos(a/b)" meaning 2cos(a*pi/b),
optionally signed, or as exact rationals ("3/2", "-1"); --entries lists
the upper triangle of the rank-3 matrix row-major as "b12,b13,b23", and
a --matrix file as a JSON list, one entry per element.

A spec whose first entry is negative must be attached with "=", as in
--entries=-2,0,0: argparse reads a separate "-2,0,0" as an option.

enumerate realises finite-type classes on the sphere, always closed, and
affine classes in the plane, as a window that --depth and --max-vertices
bound.  Every other class (mutation-infinite, Markov or decomposable) has
no such realisation, and enumerate rejects it.

Bad input (an unparsable entry or matrix file, or more than one matrix
source), unknown check names and classes that enumerate cannot realise
end the run with one line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from math import isfinite

from quiverbelt import exgraph, verification
from quiverbelt.cycfield import FieldElem, cos_multiple
from quiverbelt.exmatrix import (
    ExchangeMatrix,
    classify,
    spherical_matrix,
    weight_label,
)
from quiverbelt.rank2 import period_grid
from quiverbelt.seedgeom import initial_seed


class ParseError(ValueError):
    pass


_COS_RE = re.compile(r"^(-?)\s*cos\(\s*(\d+)\s*/\s*(\d+)\s*\)$")


def parse_entry(text: str) -> FieldElem | Fraction:
    text = text.strip()
    m = _COS_RE.match(text)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        k, l = int(m.group(2)), int(m.group(3))
        if l < 1:
            raise ParseError(f"bad cosine denominator in {text!r}")
        if l == 1:
            # 2cos(k*pi) = 2(-1)^k; field levels start at 2
            return Fraction(2 * sign * (-1) ** k)
        return cos_multiple(l, k) * sign
    return _parse_rational(text, "entry")


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise ParseError(f"cannot parse {what} {text!r}") from exc
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in {what} {text!r}") from exc


def _parse_sph_pair(text: str) -> tuple[Fraction, Fraction]:
    """The finite-type pair 't1,t2' of --sph."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"--sph needs exactly two values t1,t2, got {text!r}")
    return tuple(_parse_rational(p.strip(), "--sph value") for p in parts)


def parse_matrix_spec(text: str) -> ExchangeMatrix:
    """Upper-triangle spec 'b12,b13,b23' of a rank-3 matrix."""
    entries = [parse_entry(p) for p in text.split(",") if p.strip()]
    if len(entries) != 3:
        raise ParseError("matrix spec needs 3 upper-triangle entries")
    return ExchangeMatrix(*entries)


def load_matrix(path: str) -> ExchangeMatrix:
    """The matrix of a --matrix file: a JSON list of the three
    upper-triangle entries, each a number or a string parsed as one entry."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    if not isinstance(data, list) or len(data) != 3:
        raise ParseError(
            f"unrecognised matrix file format in {path}: need a JSON list of "
            "three entries"
        )
    for x in data:
        # JSON true/false load as bool, which is an int subclass
        if isinstance(x, bool) or not isinstance(x, (int, float, str)):
            raise ParseError(
                f"matrix file {path}: entry {json.dumps(x)} is not a number or a string"
            )
    return ExchangeMatrix(*(parse_entry(str(x)) for x in data))


_SOURCES = ("sph", "affine", "matrix", "entries")


def _matrix_source(args) -> str:
    """The one matrix option of the run: 'sph', 'affine', 'matrix' or
    'entries'."""
    given = [name for name in _SOURCES if getattr(args, name) is not None]
    if not given:
        raise ParseError("no matrix given: use --sph, --affine, --matrix or --entries")
    if len(given) > 1:
        raise ParseError(
            "give one matrix source, got " + " and ".join("--" + n for n in given)
        )
    return given[0]


def _matrix_from_args(args) -> ExchangeMatrix:
    source = _matrix_source(args)
    value = getattr(args, source)
    if source == "sph":
        return spherical_matrix(*_parse_sph_pair(value))
    if source == "affine":
        return initial_seed(value).B
    if source == "matrix":
        return load_matrix(value)
    return parse_matrix_spec(value)


def _write_out(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_classify(args) -> int:
    result = classify(_matrix_from_args(args))
    markov = result.markov  # 0 is falsy: compare with None
    value = None if markov is None else markov.to_float()
    payload = {
        "class": str(result),
        "kind": result.kind,
        "markov_constant": None if markov is None else markov.to_json(),
        "markov_constant_float": value if value is not None and isfinite(value) else None,
        "class_size": result.class_size,
        "closed": result.closed,
    }
    if result.pair:
        payload["pair"] = [str(t) for t in result.pair]
    if result.level:
        payload["denominator"] = result.level
    if result.weight is not None:
        payload["weight"] = weight_label(result.weight)
    if args.format == "json":
        _write_out(args, json.dumps(payload, indent=1) + "\n")
    else:
        lines = [f"class: {payload['class']}"]
        if markov is not None:
            lines.append(f"markov constant: {value:.6f}")
        if result.weight is not None:
            lines.append(f"rank-2 factor weight: {payload['weight']}")
        else:
            lines.append(f"mutation class size: {result.class_size}")
        _write_out(args, "\n".join(lines) + "\n")
    return 0


def cmd_enumerate(args) -> int:
    if _matrix_source(args) == "affine":
        # the level names the class: no classification needed
        result, level = None, args.affine
    else:
        B = _matrix_from_args(args)
        result = classify(B)
        if result.kind not in ("finite", "affine"):
            raise ParseError(
                f"{result} has no exchange graph to enumerate: only finite "
                "and affine classes are realised"
            )
        level = result.level
    depth = None
    if result is not None and result.kind == "finite":
        # the compatibility check needs the closed graph: no window of it
        if args.depth is not None or args.max_vertices is not None:
            raise ParseError(
                "--depth and --max-vertices do not apply to finite-type "
                "classes, whose graph is always the full closure"
            )
        _, graph = exgraph.compatible_spherical_graph(B, random.Random(args.seed))
    else:
        seed = initial_seed(level)
        depth = args.depth
        if depth is None:
            depth = 14 if level <= 7 else 10
        graph = exgraph.bfs(
            seed, depth_limit=depth, vertex_limit=args.max_vertices or None
        )
    summary = {
        "vertices": graph.order(),
        "edges": graph.size(),
        "closed": graph.closed,
    }
    if depth is not None:
        summary["depth"] = depth
    if result is not None:
        summary["class"] = str(result)
    if args.format == "dot":
        _write_out(args, exgraph.export_dot(graph))
    elif args.format == "svg":
        _write_out(args, exgraph.export_svg(graph))
    elif args.format == "json":
        _write_out(args, exgraph.export_json(graph) + "\n")
    else:
        _write_out(args, json.dumps(summary) + "\n")
    print(
        f"enumerated {summary['vertices']} seeds, {summary['edges']} edges, "
        f"closed={summary['closed']}",
        file=sys.stderr,
    )
    return 0


def cmd_rank2(args) -> int:
    rows = period_grid(args.max_b)
    lines = ["a,b,u_halfsteps,period"]
    lines.extend(f"{a},{b},{u},{p}" for a, b, u, p in rows)
    _write_out(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    # an empty value would read as "not given" and run every default
    for option, value in (("--levels", args.levels), ("--checks", args.checks)):
        if value == "":
            raise ParseError(f"{option} must not be empty")
    try:
        levels = [int(x) for x in args.levels.split(",")] if args.levels else None
    except ValueError:
        raise ParseError(
            f"--levels needs comma-separated integers, got {args.levels!r}"
        ) from None
    names = args.checks.split(",") if args.checks else None
    results = verification.run_checks(names=names, levels=levels, seed=args.seed)
    worst = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} ({res.elapsed:.2f}s): {res.detail}")
        if not res.passed:
            worst = 1
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverbelt",
        description="Exact mutation of rank-2/3 quivers with cosine weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_opts(p):
        p = p.add_argument_group("matrix source", "give exactly one of these")
        p.add_argument("--sph", help="finite-type pair t1,t2 (e.g. 1/3,2/5)")
        p.add_argument("--affine", type=int, help="affine level d")
        p.add_argument(
            "--matrix",
            help="path to a JSON file listing the three upper-triangle entries, "
            'e.g. ["2", "-cos(1/5)", "cos(1/5)"]',
        )
        p.add_argument(
            "--entries",
            help="inline upper-triangle spec, e.g. 'cos(1/3),0,cos(2/5)'; attach "
            "a spec with a negative first entry by '=', as in --entries=-2,0,0",
        )

    pc = sub.add_parser("classify", help="classify an exchange matrix")
    add_matrix_opts(pc)
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_classify)

    pe = sub.add_parser(
        "enumerate",
        help="enumerate the exchange graph of a finite or affine class",
        description="Export the exchange graph of a finite-type class (its "
        "closure) or of an affine class (a window of it).  Mutation-infinite, "
        "Markov and decomposable classes have none and exit with status 2.",
    )
    add_matrix_opts(pe)
    pe.add_argument(
        "--depth",
        type=int,
        help="depth of an affine window; 0 gives the initial seed alone (default: "
        "14 for affine d <= 7, 10 for larger d; rejected for classes of finite "
        "type, which are always closed)",
    )
    pe.add_argument(
        "--max-vertices",
        type=int,
        help="vertex limit of an affine window; 0 (the default) means no "
        "limit (rejected for classes of finite type, which are always closed)",
    )
    pe.add_argument(
        "--format", choices=("text", "json", "dot", "svg"), default="text"
    )
    pe.add_argument("--out")
    pe.add_argument("--seed", type=int, default=2024)
    pe.set_defaults(func=cmd_enumerate)

    pr = sub.add_parser("rank2", help="rank-2 sector orbit periods as CSV")
    pr.add_argument("--max-b", type=int, default=12)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_rank2)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument(
        "--levels",
        help="comma-separated affine levels for every selected check that takes "
        "levels (default: each check's own)",
    )
    pv.add_argument("--checks", help="comma-separated check names (default all)")
    pv.add_argument("--seed", type=int, default=2024)
    pv.set_defaults(func=cmd_verify)
    return parser


def _check_counts(args) -> None:
    """Depths and caps are counts: a negative one is bad input."""
    for name in ("depth", "max_vertices", "max_b"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            option = "--" + name.replace("_", "-")
            raise ParseError(f"{option} must not be negative, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ValueError covers ParseError, NotCosineForm and the other
        # bad-input errors of the library
        print(f"quiverbelt {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
