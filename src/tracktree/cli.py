"""Command-line surface: check, tree, oracle, demo, random.

Exit codes: 0 all checks pass, 2 a property check failed, 3 a
certification failed, 4 input error.  Reports printed by ``check`` are
byte-identical across runs for the same input.

``COMMANDS`` lists each command once: its help, the function that adds its
arguments, and its handler.  A run that names a command is parsed by that
command's parser alone (``command_parser``), since argparse pays for every
argument it adds; the full parser (``build_parser``) is built from the same
table only to print help and usage errors, so those read as they always have.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .errors import IoError, ParseError, TrackTreeError
from .instances import Expectations, corpus, load_instance
from .oracles import random_nested_family
from .pipeline import run_family, run_instance
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
    result = run_family(f"random-{args.seed}", family, Expectations(
        nested=True, tree_vertices=info.tree_vertex_count, tree_edges=info.tree_edge_count,
        class_sizes=tuple(sorted(info.class_sizes))))
    _emit(report_document(result.report, include_timings=args.timings), args.out)
    return result.report.exit_code()


def _options(p, window=True, timings=True):
    if window:  # an explicit family, random's, has no window
        p.add_argument("--radius", type=int, default=None, help="override the window radius")
        p.add_argument("--margin", type=int, default=None, help="override the window margin")
    if timings:  # only the commands that print a report read it
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.add_argument("--out", default=None, help="write the document to a file")


def _check_arguments(p):
    p.add_argument("spec", nargs="+", help="instance file(s)")
    _options(p)


def _file_arguments(p):
    p.add_argument("spec", help="instance file")
    _options(p, timings=False)


def _demo_arguments(p):
    p.add_argument("name", help="E1, E2, E3 or E4")
    _options(p)


def _random_arguments(p):
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--classes", type=int, default=None, help="force the number of parallel classes")
    _options(p, window=False)


# name -> (help, argument builder, handler), in the order the full parser lists them
COMMANDS = {
    "check": ("run every check on instance files", _check_arguments, _cmd_check),
    "tree": ("emit the dual tree of an instance", _file_arguments, _cmd_tree),
    "oracle": ("compare construction against brute-force oracles", _file_arguments, _cmd_oracle),
    "demo": ("run a built-in instance (E1..E4)", _demo_arguments, _cmd_demo),
    "random": ("check a random nested family", _random_arguments, _cmd_random),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, built once per process; parsing leaves it unchanged.

    It prints every help text and usage error, so `main` builds it only for those.
    """
    parser = argparse.ArgumentParser(
        prog="tracktree",
        description="Build and verify coset-labelled track systems and their dual trees.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


class _Unparsed(Exception):
    """What a command parser raises in place of printing an error and exiting."""


class _CommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Unparsed


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """A parser with only command ``name``'s arguments, built once per process.

    It reads what the full parser hands that command's subparser, but has no
    ``--help`` and prints nothing: help, an error or an argument it leaves
    over sends `main` to `build_parser`, so their output is the full parser's.
    """
    _, add_arguments, handler = COMMANDS[name]
    parser = _CommandParser(prog=f"tracktree {name}", add_help=False)
    add_arguments(parser)
    parser.set_defaults(command=name, func=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in COMMANDS:
        try:
            args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
            if not rest:
                return args
        except _Unparsed:
            pass
    return build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except TrackTreeError as exc:
        sys.stderr.write(f"{_error_line(exc)}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
