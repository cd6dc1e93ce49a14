"""What each report must say, derived without running the program.

Every check of the benchmark carries a Facts record.  The facts for the
group instances come from counting cosets by hand; those for explicit
families come from the tree each family was generated from (see
families.py).  A report that disagrees with its facts counts as a failed
check, exactly like a check that printed no report.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Optional

from families import Family

_CROSSING = re.compile(r"^cosets (\S+) and (\S+) cross; quadrant vertices (\(.*\))$")
# the order in which a nestedness witness lists its quadrant vertices:
# (in first key, in second key)
_QUADRANT_ORDER = ((False, False), (False, True), (True, False), (True, True))


@dataclass(frozen=True)
class Facts:
    statuses: tuple[str, ...] = ("pass",)
    counts: dict[str, int] = field(default_factory=dict)
    # checks that must be present with one of the given statuses
    checks: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # grafted families: the benchmark's own copy, to re-verify the crossing witness
    crossing_family: Optional[Family] = None


def ladder_facts(omega: int, core: Optional[int] = None) -> Facts:
    """A group instance that passes, with a known coset count."""
    expected = {"omega": omega}
    if core is not None:
        expected["core_keys"] = core
    return Facts(counts=expected, checks={"expectations": ("pass",)})


def cyclic_product_facts(radius: int) -> Facts:
    """Z2 * Z2 * Z2 = <s, t, u> over H = <st>, base set: keys starting with s.

    Worked by hand: multiplying on the left by st or ts shortens a word
    that starts with ts or st and turns t w into s w, so the coset keys are
    1, s and the reduced words that start with u or su.  There are
    3 * 2^(k - 2) of length k >= 2, hence |omega| = 3 * 2^(radius - 1).
    A*u = A and A*t = A*s, so the family has 2 vertices, one class {1, s}
    of size 2, and the tree is a path of 3 vertices and 2 edges.
    """
    return Facts(counts={"omega": 3 * 2 ** (radius - 1), "family_vertices": 2, "classes": 1,
                         "tracks": 2, "tree_vertices": 3, "tree_edges": 2})


def family_facts(family: Family, oracles: tuple[str, ...] = ()) -> Facts:
    """A generated family: nested ones pass with the generator's tree, grafted ones fail."""
    if not family.nested:
        return Facts(statuses=("fail",),
                     checks={"nestedness": ("fail",), "expectations": ("pass",)},
                     crossing_family=family)
    counts = {"family_vertices": len(family.vertices), "classes": len(family.class_sizes),
              "tracks": sum(family.class_sizes), "tree_vertices": family.tree_vertices,
              "tree_edges": family.tree_edges}
    checks = {"expectations": ("pass",)}
    checks.update((name, ("pass",)) for name in oracles)
    return Facts(counts=counts, checks=checks)


def budget_facts(family: Family) -> Facts:
    """The labeling-budget family: a report with the right tree, oracle pass or uncertified."""
    facts = family_facts(family)
    allowed = ("pass", "uncertified")
    return Facts(statuses=allowed, counts=facts.counts,
                 checks={"expectations": ("pass",), "labeling_oracle": allowed})


def verify(report: Optional[dict], facts: Facts) -> list[str]:
    """Every way the report disagrees with the facts; empty when it agrees."""
    if report is None:
        return ["no report"]
    problems = []
    if report.get("status") not in facts.statuses:
        problems.append(f"status {report.get('status')!r}, expected one of {facts.statuses}")
    counts = report.get("counts", {})
    for name, want in facts.counts.items():
        if counts.get(name) != want:
            problems.append(f"count {name} = {counts.get(name)!r}, expected {want}")
    by_name = {c["name"]: c for c in report.get("checks", [])}
    for name, allowed in facts.checks.items():
        got = by_name.get(name, {}).get("status")
        if got not in allowed:
            problems.append(f"check {name} is {got!r}, expected one of {allowed}")
    if facts.crossing_family is not None:
        problems += _verify_crossing(by_name.get("nestedness", {}).get("witness"),
                                     facts.crossing_family)
    return problems


def _verify_crossing(witness: Optional[str], family: Family) -> list[str]:
    """The named keys must cross in the benchmark's copy, at the named vertices."""
    match = _CROSSING.match(witness or "")
    if match is None:
        return [f"nestedness witness {witness!r} names no crossing"]
    c1, c2, quadrant_text = match.groups()
    try:
        named = ast.literal_eval(quadrant_text)
    except (ValueError, SyntaxError):
        return [f"nestedness witness {witness!r} lists no quadrant vertices"]
    members = dict(family.vertices)
    if not isinstance(named, tuple) or len(named) != 4:
        return [f"nestedness witness {witness!r} does not name four quadrant vertices"]
    problems = []
    for vertex, (in1, in2) in zip(named, _QUADRANT_ORDER):
        held = members.get(vertex)
        if held is None:
            problems.append(f"quadrant vertex {vertex!r} is not in the family")
        elif ((c1 in held), (c2 in held)) != (in1, in2):
            problems.append(f"vertex {vertex!r} is not in quadrant {(in1, in2)} of {c1}, {c2}")
    return problems
