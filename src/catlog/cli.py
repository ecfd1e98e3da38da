"""Command-line front end.

Subcommands: coeff (coefficient tables), enumerate (JSONL structure
dumps), verify (identity suites with meaningful exit codes), map
(structure-to-structure conversion), render (text pictures).

Structures travel as JSON on stdin/stdout so the bijections compose in
shell pipelines; --input/--output switch to files. Exit codes: 0 on
success, 1 when a verification suite fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys

from . import catalan, multisets, paths, render, serialize, trees, verify
from .arith import format_rational
from .errors import DEFAULT_MAX_ENUMERATION, ResourceCapError

# enumerable structures: name -> (k, n, max_count) -> the structures, one at a time
_ENUMERATORS = {
    "paths": lambda k, n, cap: paths._labeled_paths(k, range(1, n + 1), cap, False),
    "minimal-paths": lambda k, n, cap: paths._labeled_paths(k, range(1, n + 1), cap, True),
    "ornaments": paths._ornaments,
    "trees": lambda k, n, cap: trees._trees(k, range(1, n + 1), cap),
    "minimal-trees": lambda k, n, cap: filter(
        trees.is_root_minimal, trees._trees(k, range(1, n + 1), cap)),
    "cycle-trees": trees._cycle_rooted,
    "multisets": multisets._multisets,
    "rooted-multisets": lambda k, n, cap: filter(
        multisets.root_vertices, multisets._multisets(k, n, cap)),
}
STRUCTURES = tuple(_ENUMERATORS)

# one-step conversions; map routes along the shortest chain of these
_CONVERSIONS = {
    ("path", "field"): paths.decompose,
    ("field", "path"): paths.recompose,
    ("path", "ornament"): paths.to_ornament,
    ("ornament", "path"): lambda o: o.rep,
    ("ornament", "multiset"): multisets.ornament_to_multiset,
    ("multiset", "ornament"): multisets.multiset_to_ornament,
    ("cycle-tree", "multiset"): multisets.cycle_tree_to_multiset,
    ("multiset", "cycle-tree"): multisets.multiset_to_cycle_tree,
    ("tree", "forest"): trees.tree_to_forest,
    ("forest", "tree"): trees.forest_to_tree,
    ("tree", "cycle-tree"): trees.to_cycle_rooted,
    ("cycle-tree", "tree"): trees.to_root_minimal,
}

_TARGET_ALIASES = {"minimal-field": "field", "minimal-forest": "forest"}


def _route(source: str, target: str) -> list:
    """Shortest chain of conversions from one kind to another."""
    if source == target:
        return []
    frontier = [(source, [])]
    seen = {source}
    while frontier:
        kind, chain = frontier.pop(0)
        for (a, b), fn in _CONVERSIONS.items():
            if a == kind and b not in seen:
                if b == target:
                    return chain + [fn]
                seen.add(b)
                frontier.append((b, chain + [fn]))
    raise ValueError(f"no conversion from {source!r} to {target!r}")


def _read_input(args) -> str:
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


def _sink(args):
    """The --output file opened for writing, or stdout left open."""
    if getattr(args, "output", None):
        return open(args.output, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _emit(text: str, args) -> None:
    with _sink(args) as out:
        out.write(text)


def cmd_coeff(args) -> int:
    table = catalan.coeff_table(args.k, args.max_n, args.power, args.check)
    if args.format == "json":
        _emit(json.dumps(catalan.table_to_json(table)) + "\n", args)
    elif args.format == "csv":
        _emit(catalan.table_to_csv(table), args)
    else:
        lines = [f"k={table.k} power={table.power}"]
        header = f"{'n':>4}  {'closed_form':>20}"
        if args.check:
            header += f"  {'series_value':>20}  match"
        lines.append(header)
        for row in table.rows:
            line = f"{row.n:>4}  {str(row.closed_form):>20}"
            if args.check:
                line += f"  {str(row.series_value):>20}  {'yes' if row.match else 'NO'}"
            lines.append(line)
        _emit("\n".join(lines) + "\n", args)
    return 1 if any(row.match is False for row in table.rows) else 0


def cmd_enumerate(args) -> int:
    max_count = None if args.force else DEFAULT_MAX_ENUMERATION
    items = iter(_ENUMERATORS[args.structure](args.k, args.n, max_count))
    # a refused enumeration raises on the first pull, before any output
    head = list(itertools.islice(items, 1))
    with _sink(args) as out:
        count = 0
        for count, x in enumerate(itertools.chain(head, items), 1):
            out.write(serialize.dumps(x) + "\n")
        summary = {"kind": "summary", "structure": args.structure, "k": args.k,
                   "n": args.n, "count": count}
        out.write(json.dumps(summary, separators=(",", ":")) + "\n")
    return 0


def cmd_verify(args) -> int:
    try:
        ks = [int(part) for part in str(args.k).split(",") if part != ""]
    except ValueError:
        raise ValueError(f"--k wants an integer or comma list, got {args.k!r}")
    max_count = None if args.force else DEFAULT_MAX_ENUMERATION
    report = verify.run_suite(args.suite, ks, args.max_n, max_count)
    if args.format == "json":
        _emit(json.dumps(report.to_json()) + "\n", args)
    else:
        _emit(report.to_text() + "\n", args)
    return 0 if report.overall else 1


def cmd_map(args) -> int:
    structure = serialize.loads(_read_input(args))
    source = serialize.KINDS[type(structure)]
    target = _TARGET_ALIASES.get(args.target, args.target)
    for step in _route(source, target):
        structure = step(structure)
    _emit(serialize.dumps(structure) + "\n", args)
    return 0


def cmd_render(args) -> int:
    structure = serialize.loads(_read_input(args))
    _emit(render.render(structure) + "\n", args)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later `main` call in the process (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="catlog",
        description="Exact combinatorics of the log of generalized Catalan "
        "generating functions: coefficient tables, structure enumeration, "
        "bijection and identity verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("coeff", help="tabulate log-power coefficients")
    c.add_argument("--k", type=int, default=2)
    c.add_argument("--max-n", type=int, default=10)
    c.add_argument("--power", type=int, default=1)
    c.add_argument("--check", action="store_true",
                   help="also expand the series and compare")
    c.add_argument("--format", choices=("table", "csv", "json"), default="table")
    c.add_argument("--output")
    c.set_defaults(func=cmd_coeff)

    e = sub.add_parser("enumerate", help="dump structures as JSONL")
    e.add_argument("--structure", choices=STRUCTURES, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--force", action="store_true",
                   help="ignore the enumeration size cap")
    e.add_argument("--format", choices=("jsonl",), default="jsonl")
    e.add_argument("--output")
    e.set_defaults(func=cmd_enumerate)

    v = sub.add_parser("verify", help="run an identity suite")
    v.add_argument("--suite", choices=verify.SUITES + ("all",), required=True)
    v.add_argument("--k", default="2,3", help="comma list of k values")
    v.add_argument("--max-n", type=int, default=4)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--force", action="store_true",
                   help="ignore the enumeration size cap")
    v.add_argument("--output")
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("map", help="convert a structure to another kind")
    m.add_argument("--target", required=True,
                   choices=tuple(serialize.KINDS.values()) + tuple(_TARGET_ALIASES))
    m.add_argument("--input", help="read JSON from a file instead of stdin")
    m.add_argument("--output")
    m.set_defaults(func=cmd_map)

    r = sub.add_parser("render", help="draw a structure as text")
    r.add_argument("--input", help="read JSON from a file instead of stdin")
    r.add_argument("--output")
    r.set_defaults(func=cmd_render)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ResourceCapError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
