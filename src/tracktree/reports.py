"""Machine-readable verdicts and the DOT/report output documents.

Emitted documents are byte-stable for a fixed input: every list is emitted
in a deterministic order and the timing field is zeroed unless timings are
explicitly requested (wall-clock values would break reproducibility).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import IoError
from .groups import display_word
from .trees import DualTree

PASS = "pass"
FAIL = "fail"
UNCERTIFIED = "uncertified"

_SEVERITY = {PASS: 0, FAIL: 1, UNCERTIFIED: 2}


@dataclass
class CheckResult:
    name: str
    status: str
    witness: Optional[str] = None


@dataclass
class Report:
    instance: str
    checks: list[CheckResult] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    timing_ms: float = 0.0

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


def report_document(report: Report, include_timings: bool = False) -> str:
    doc = {
        "instance": report.instance,
        "status": report.status,
        "counts": {k: report.counts[k] for k in sorted(report.counts)},
        "checks": [
            {"name": c.name, "status": c.status, "witness": c.witness}
            for c in report.checks
        ],
        "witnesses": report.witnesses,
        "timing_ms": round(report.timing_ms, 3) if include_timings else 0,
    }
    return json.dumps(doc, indent=2) + "\n"


def _quoted(text: str) -> str:
    """text as a quoted DOT ID: its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_document(tree: DualTree, title: str) -> str:
    """Graphviz rendering: vertices labelled by their flip set relative to
    the base vertex, edges by coset key, base vertex doubly circled.  The
    title and every label are quoted DOT IDs."""
    family = tree.system.family
    lines = [f"graph {_quoted(title)} {{", "  node [shape=circle];"]
    for v in tree.vertices:
        if v.index == tree.base_index:
            lines.append(f'  B{v.index} [label="o", shape=doublecircle];')
        else:
            flips = ",".join(display_word(w) for w in family.keys_of(v.flips))
            lines.append(f"  B{v.index} [label={_quoted('{' + flips + '}')}];")
    for i, j, label in sorted(tree.edges):
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
