"""Explicit vertex families for the benchmark, generated from a seed.

A nested family is read off a random tree: every tree edge splits the
vertices in two, and the keys of that edge belong to every vertex on its
far side from vertex 0.  An edge with several keys becomes a parallel class
of that size.  Keys that every vertex, or no vertex, holds are constant and
label no track.  Because the family is built from the tree, the answer is
known without running the program:

    tree vertices = n + sum(s_i - 1),  tree edges = sum(s_i),

where n is the number of family vertices and s_i the class sizes.  A
grafted family adds two keys that cross, and records the vertex that sits
in each of their four quadrants.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

# keys added by a graft; shorter than every other key, so they come first in ShortLex order
GRAFT_KEYS = ("g0", "g1")


@dataclass(frozen=True)
class Family:
    name: str
    universe: tuple[str, ...]
    vertices: tuple[tuple[str, frozenset[str]], ...]
    nested: bool
    class_sizes: tuple[int, ...] = ()
    tree_vertices: int = 0
    tree_edges: int = 0
    # grafted families: the two crossing keys, and for each quadrant
    # (in first key, in second key) the vertex placed there
    crossing: Optional[tuple[str, str]] = None
    quadrants: Optional[dict[tuple[bool, bool], str]] = None

    def to_text(self) -> str:
        lines = ["[instance]", f"name = {self.name}", "mode = explicit", "",
                 "[universe]", "keys = " + " ".join(self.universe), "", "[vertices]"]
        for name, members in self.vertices:
            lines.append(f"vertex = {name} : " + " ".join(sorted(members)))
        lines += ["", "[expectations]", f"nested = {'true' if self.nested else 'false'}"]
        if self.nested:
            lines += [f"tree_vertices = {self.tree_vertices}",
                      f"tree_edges = {self.tree_edges}",
                      "class_sizes = " + ",".join(str(s) for s in self.class_sizes)]
        return "\n".join(lines) + "\n"


def tree_family(rng: random.Random, name: str, vertices: int, sizes: list[int],
                constants: int) -> Family:
    """Nested family on a random tree with the given class size per tree edge."""
    if len(sizes) != vertices - 1 or min(sizes, default=1) < 1:
        raise ValueError("need one class size of at least 1 per tree edge")
    parent = [rng.randrange(child) for child in range(1, vertices)]
    # below[e]: the vertices on the far side of edge e (child e + 1 and its subtree);
    # children have larger numbers than their parents, so walk downwards
    below = [{child} for child in range(1, vertices)]
    for child in range(vertices - 1, 1, -1):
        if parent[child - 1]:
            below[parent[child - 1] - 1] |= below[child - 1]
    keys: list[list[str]] = []
    counter = 0
    for s in sizes:
        keys.append([f"c{counter + k:03d}" for k in range(s)])
        counter += s
    constant_keys = [f"z{k:02d}" for k in range(constants)]
    held = [z for z in constant_keys if rng.random() < 0.5]
    members = []
    for v in range(vertices):
        inside = {c for e, group in enumerate(keys) if v in below[e] for c in group}
        members.append((f"v{v:02d}", frozenset(inside.union(held))))
    universe = tuple(c for group in keys for c in group) + tuple(constant_keys)
    return Family(name, universe, tuple(members), True,
                  class_sizes=tuple(sorted(sizes)),
                  tree_vertices=vertices + sum(s - 1 for s in sizes),
                  tree_edges=sum(sizes))


def graft_crossing(rng: random.Random, family: Family, name: str) -> Family:
    """Copy of a family with two new keys whose four quadrants are all inhabited."""
    both, first, second, neither = rng.sample([v for v, _ in family.vertices], 4)
    g0, g1 = GRAFT_KEYS
    add = {both: {g0, g1}, first: {g0}, second: {g1}}
    vertices = tuple((v, m | add.get(v, set())) for v, m in family.vertices)
    quadrants = {(True, True): both, (True, False): first,
                 (False, True): second, (False, False): neither}
    return Family(name, family.universe + GRAFT_KEYS, vertices, False,
                  crossing=GRAFT_KEYS, quadrants=quadrants)


def random_sizes(rng: random.Random, classes: int, extra: int) -> list[int]:
    sizes = [1] * classes
    for _ in range(extra):
        sizes[rng.randrange(classes)] += 1
    return sizes


def mean_distance(family: Family) -> float:
    """Mean size of the symmetric difference over all pairs of vertices."""
    members = [m for _, m in family.vertices]
    pairs = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
    return sum(len(a ^ b) for a, b in pairs) / len(pairs)


def nested_family(rng: random.Random, name: str, classes: int,
                  distance: tuple[float, float]) -> Family:
    """A family at the pattern layer's size: classes + 1 vertices, 3 extra keys in thick classes.

    The pattern layer's work grows with the distances between vertices, so
    the number of keys is fixed and trees are drawn until the mean distance
    lies in the given range: families of one size then cost about the same
    on every seed.
    """
    for _ in range(10_000):
        family = tree_family(rng, name, classes + 1, random_sizes(rng, classes, 3),
                             rng.randint(0, 2))
        if distance[0] <= mean_distance(family) <= distance[1]:
            return family
    raise RuntimeError(f"no nested family with a mean distance in {distance}")


def orientation_family(rng: random.Random, name: str, classes: int) -> Family:
    """Too many keys for the labeling oracle; classes <= 12 keeps the orientation oracle on."""
    return tree_family(rng, name, classes + 1, random_sizes(rng, classes, 1), rng.randint(0, 2))


def labeling_search_size(family: Family) -> int:
    """Steps of an edge-by-edge search over label orders, as the labeling oracle runs it.

    The search takes the edges (i, j), i < j, in order and tries every
    order of each edge's labels against the edges chosen before it.  On a
    tree family the edges (0, j) come first; an order of (0, j) survives
    when it repeats, read from vertex 0, the classes it shares with earlier
    edges, so after the edges (0, 1) .. (0, j - 1) the survivors number the
    product of s! over the classes met so far.  Every later edge (i, j) is
    then fixed by its corners, and all prod(s!) survivors try each of its
    orders.  The formula is the benchmark's own; it keeps every generated
    family well inside the oracle's step budget.
    """
    members = [m for _, m in family.vertices]
    constant = frozenset.intersection(*members)
    by_side: dict[tuple[bool, ...], int] = {}
    for key in frozenset.union(*members) - constant:
        side = tuple((key in m) != (key in members[0]) for m in members)
        by_side[side] = by_side.get(side, 0) + 1
    classes = list(by_side.items())

    def labels(i: int, j: int) -> int:
        return sum(s for side, s in classes if side[i] != side[j])

    n = len(members)
    total, survivors, met = 0, 1, set()
    for j in range(1, n):
        total += survivors * math.factorial(labels(0, j))
        for k, (side, s) in enumerate(classes):
            if side[j] and k not in met:
                met.add(k)
                survivors *= math.factorial(s)
    for i in range(1, n):
        for j in range(i + 1, n):
            total += survivors * math.factorial(labels(i, j))
    return total


def labeling_family(rng: random.Random, name: str, steps: tuple[int, int]) -> Family:
    """7 keys on 4 vertices, in thick classes, for the labeling oracle.

    With 7 keys no edge has more than 7! label orders, so the memory the
    oracle takes is set by the labeling-budget family, the same on every
    seed.  Draws until the search size falls in the given range, so that every
    family costs the oracle about the same and none reaches its budget.
    """
    for _ in range(10_000):
        family = tree_family(rng, name, 4, random_sizes(rng, 3, 4), rng.randint(0, 2))
        if steps[0] <= labeling_search_size(family) <= steps[1]:
            return family
    raise RuntimeError(f"no labeling family with a search size in {steps}")


def labeling_budget_family() -> Family:
    """Path v00 - v01 - v02 whose two classes have 6 and 2 keys: 8 labels in all.

    It is inside the labeling oracle's caps, but the enumeration tries every
    order of the 8 labels on edge (v00, v02) for each of the 720 orders of
    edge (v00, v01), and runs out of its step budget.
    """
    six = frozenset(f"c{k:03d}" for k in range(6))
    two = frozenset(f"c{k:03d}" for k in range(6, 8))
    return Family("labeling-budget", tuple(sorted(six | two)),
                  (("v00", frozenset()), ("v01", six), ("v02", six | two)), True,
                  class_sizes=(2, 6), tree_vertices=3 + 5 + 1, tree_edges=8)
