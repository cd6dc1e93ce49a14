"""Command-line surface: check, tree, oracle, demo, random.

Exit codes: 0 all checks pass, 2 a property check failed, 3 a
certification failed, 4 input error.  Reports printed by ``check`` are
byte-identical across runs for the same input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .errors import IoError, ParseError, TrackTreeError
from .instances import Expectations, InstanceSpec, corpus, load_instance
from .oracles import random_nested_family
from .pipeline import run_instance
from .reports import dot_document, report_document, write_atomic


def _error_line(exc: TrackTreeError, path: Optional[str] = None) -> str:
    kind = ("input error" if isinstance(exc, ParseError)
            else "io error" if isinstance(exc, IoError) else "error")
    return f"{kind}: {path}: {exc}" if path else f"{kind}: {exc}"


def _emit(text: str, out: Optional[str]):
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    # a file that cannot be loaded or run is named on stderr; the others still report
    docs, code = [], 0
    for path in args.spec:
        try:
            result = run_instance(load_instance(path), radius=args.radius, margin=args.margin)
        except TrackTreeError as exc:
            sys.stderr.write(f"{_error_line(exc, path)}\n")
            code = 4
            continue
        docs.append(report_document(result.report, include_timings=args.timings))
        code = max(code, result.report.exit_code())
    _emit("".join(docs), args.out)
    return code


def _cmd_tree(args) -> int:
    spec = load_instance(args.spec)
    result = run_instance(spec, radius=args.radius, margin=args.margin)
    if result.tree is None:
        sys.stderr.write("no tree was built: " + result.report.status + "\n")
        sys.stderr.write(report_document(result.report))
        return result.report.exit_code() or 2
    _emit(dot_document(result.tree, spec.name), args.out)
    return result.report.exit_code()


def _cmd_oracle(args) -> int:
    spec = load_instance(args.spec)
    result = run_instance(spec, radius=args.radius, margin=args.margin)
    doc: dict = {"instance": spec.name, "status": result.report.status}
    # the run's own oracle results; a mismatch has already failed the report
    if result.tree is not None:
        if result.orientations_skipped is not None:
            doc["orientations_skipped"] = result.orientations_skipped
        else:
            doc["orientations_match"] = result.orientations_match
            doc["oracle_vertices"] = len(result.orientations.vertex_flips)
        if result.labelings_skipped is not None:
            doc["labelings_skipped"] = result.labelings_skipped
        else:
            lab, verdict = result.labelings, result.labeling_verdict
            doc["labelings"] = lab.count
            doc["labelings_expected"] = lab.expected_count
            doc["canonical_is_valid"] = verdict.canonical_is_valid
            doc["all_within_class"] = verdict.all_within_class
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return result.report.exit_code()


def _cmd_demo(args) -> int:
    instances = corpus()
    if args.name not in instances:
        sys.stderr.write(f"unknown demo instance {args.name!r}; choose from {sorted(instances)}\n")
        return 4
    result = run_instance(instances[args.name], radius=args.radius, margin=args.margin)
    text = report_document(result.report, include_timings=args.timings)
    if result.tree is not None:
        text += dot_document(result.tree, args.name)
    _emit(text, args.out)
    return result.report.exit_code()


def _cmd_random(args) -> int:
    if args.classes is not None and args.classes < 1:
        raise ParseError(f"--classes must be at least 1, got {args.classes}")
    family, info = random_nested_family(args.seed, exact_classes=args.classes)
    spec = InstanceSpec(
        name=f"random-{args.seed}", mode="explicit",
        universe=tuple(family.universe),
        explicit_vertices=tuple((v.name, tuple(family.keys_of(v.members))) for v in family.vertices),
        expectations=Expectations(
            nested=True, tree_vertices=info.tree_vertex_count,
            tree_edges=info.tree_edge_count,
            class_sizes=tuple(sorted(info.class_sizes))),
    ).validate()
    result = run_instance(spec)
    _emit(report_document(result.report, include_timings=args.timings), args.out)
    return result.report.exit_code()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tracktree",
        description="Build and verify coset-labelled track systems and their dual trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, timings=True):
        p.add_argument("--radius", type=int, default=None, help="override the window radius")
        p.add_argument("--margin", type=int, default=None, help="override the window margin")
        if timings:  # only the commands that print a report read it
            p.add_argument("--timings", action="store_true", help="include wall-clock timings")
        p.add_argument("--out", default=None, help="write the document to a file")

    p = sub.add_parser("check", help="run every check on instance files")
    p.add_argument("spec", nargs="+", help="instance file(s)")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("tree", help="emit the dual tree of an instance")
    p.add_argument("spec", help="instance file")
    common(p, timings=False)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("oracle", help="compare construction against brute-force oracles")
    p.add_argument("spec", help="instance file")
    common(p, timings=False)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("demo", help="run a built-in instance (E1..E4)")
    p.add_argument("name", help="E1, E2, E3 or E4")
    common(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("random", help="check a random nested family")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--classes", type=int, default=None, help="force the number of parallel classes")
    common(p)
    p.set_defaults(func=_cmd_random)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrackTreeError as exc:
        sys.stderr.write(f"{_error_line(exc)}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
