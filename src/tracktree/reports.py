"""Machine-readable verdicts and the DOT/report output documents.

Emitted documents are byte-stable for a fixed input: every list is emitted
in a deterministic order and the timing field is zeroed unless timings are
explicitly requested (wall-clock values would break reproducibility).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from .errors import IoError
from .groups import display_word
from .trees import DualTree

PASS = "pass"
FAIL = "fail"
UNCERTIFIED = "uncertified"

_SEVERITY = {PASS: 0, FAIL: 1, UNCERTIFIED: 2}


class CheckResult:
    __slots__ = ("name", "status", "witness")

    def __init__(self, name: str, status: str, witness: Optional[str] = None):
        self.name = name
        self.status = status
        self.witness = witness


class Report:
    __slots__ = ("instance", "checks", "counts", "timing_ms")

    def __init__(self, instance: str, checks: Optional[list[CheckResult]] = None,
                 counts: Optional[dict[str, int]] = None, timing_ms: float = 0.0):
        self.instance = instance
        self.checks = [] if checks is None else checks
        self.counts = {} if counts is None else counts
        self.timing_ms = timing_ms

    def add(self, name: str, status: str, witness: Optional[str] = None) -> CheckResult:
        if status == FAIL and witness is None:
            raise ValueError(f"check {name!r} failed without a witness")
        result = CheckResult(name, status, witness)
        self.checks.append(result)
        return result

    def verdict(self, name: str, witness: Optional[str]) -> CheckResult:
        """A check that passes when its witness is None and fails with it otherwise."""
        return self.add(name, PASS if witness is None else FAIL, witness)

    @property
    def status(self) -> str:
        worst = PASS
        for check in self.checks:
            if _SEVERITY[check.status] > _SEVERITY[worst]:
                worst = check.status
        return worst

    @property
    def witnesses(self) -> list[str]:
        return [c.witness for c in self.checks if c.witness]

    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 2, UNCERTIFIED: 3}[self.status]


def _block(open_: str, items: list[str], close: str) -> str:
    """A JSON object or array at depth 1 from its items, one per line."""
    return f"{open_}\n" + ",\n".join(items) + f"\n  {close}" if items else open_ + close


def report_document(report: Report, include_timings: bool = False) -> str:
    """The report as JSON: instance, status, counts in key order, checks,
    witnesses and timing_ms.  The bytes are those of ``json.dumps`` with
    indent=2, plus a newline, written directly: strings through json's ASCII
    escaping, numbers by ``repr``."""
    quoted = encode_basestring_ascii
    counts = [f"    {quoted(k)}: {report.counts[k]!r}" for k in sorted(report.counts)]
    checks = [f'    {{\n      "name": {quoted(c.name)},\n      "status": {quoted(c.status)},\n'
              f'      "witness": {"null" if c.witness is None else quoted(c.witness)}\n    }}'
              for c in report.checks]
    witnesses = [f"    {quoted(w)}" for w in report.witnesses]
    timing = round(report.timing_ms, 3) if include_timings else 0
    return (f'{{\n  "instance": {quoted(report.instance)},\n'
            f'  "status": {quoted(report.status)},\n'
            f'  "counts": {_block("{", counts, "}")},\n'
            f'  "checks": {_block("[", checks, "]")},\n'
            f'  "witnesses": {_block("[", witnesses, "]")},\n'
            f'  "timing_ms": {timing!r}\n}}\n')


def _quoted(text: str) -> str:
    """text as a quoted DOT ID: its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_document(tree: DualTree, title: str) -> str:
    """Graphviz rendering: vertices labelled by their flip set relative to
    the base vertex, edges by coset key, base vertex doubly circled.  The
    title and every label are quoted DOT IDs."""
    family = tree.system.family
    lines = [f"graph {_quoted(title)} {{", "  node [shape=circle];"]
    lines.append(f'  B{tree.base_index} [label="o", shape=doublecircle];')
    for i, flips in enumerate(tree.flips[1:], start=1):
        keys = ",".join(display_word(w) for w in family.keys_of(flips))
        lines.append(f"  B{i} [label={_quoted('{' + keys + '}')}];")
    for i, j, label in tree.edges:
        lines.append(f"  B{i} -- B{j} [label={_quoted(display_word(family.universe[label]))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_atomic(path: str | Path, content: str):
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(content)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
