"""Metric, parity, corner/square analysis, crossing, parallel classes and labelling.

Vertices are subsets of a finite coset universe; the metric is the size of
the symmetric difference.  Tracks are represented purely by their coset
labels and per-vertex indicator bits (no geometry is materialised): a
coset's indicator is its membership bit across the vertex family, and two
cosets are parallel when their indicators agree everywhere or disagree
everywhere.  The per-edge label order sorts parallel classes by the
closer-to-the-tail relation and breaks ties inside a class by ShortLex,
which is one of the valid choices since labels within a parallel class may
be permuted freely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .errors import NegativeCorner, NonNestedSquare, NotTotal, ParityViolation, TooLarge, TrackTreeError
from .windows import VertexFamily

DEFAULT_MAX_VERTICES = 16


class MetricTable:
    """Complete pairwise symmetric-difference table over a vertex family."""

    def __init__(self, family: VertexFamily):
        self.family = family
        self.n = len(family.vertices)
        self.names = [v.name for v in family.vertices]
        self.base_index = family.base_index
        self.sort_key = family.sort_key
        self._diffs = {
            (i, j): family.diff(i, j)
            for i in range(self.n) for j in range(i + 1, self.n)
        }

    def diff(self, i: int, j: int) -> frozenset[str]:
        if i == j:
            return frozenset()
        return self._diffs[(min(i, j), max(i, j))]

    def d(self, i: int, j: int) -> int:
        return len(self.diff(i, j))


def metric(family: VertexFamily) -> MetricTable:
    return MetricTable(family)


class TrackSystem:
    """Coset-labelled tracks over a vertex family.

    ``labels`` is the ShortLex-sorted union of all pairwise differences
    (cosets with constant indicator label no track meeting the family and
    are excluded).  ``classes`` partitions the labels into parallel
    classes, listed by their ShortLex-least representative.
    """

    def __init__(self, family: VertexFamily, max_vertices: int = DEFAULT_MAX_VERTICES):
        if len(family.vertices) > max_vertices:
            raise TooLarge(
                f"family of {len(family.vertices)} vertices exceeds the cap {max_vertices}")
        self.family = family
        self.table = MetricTable(family)
        self.n = self.table.n
        self.base_index = family.base_index
        self.sort_key = family.sort_key

        seen: set[str] = set()
        for (i, j), diff in self.table._diffs.items():
            if diff != family.vertices[i].members ^ family.vertices[j].members:
                raise TrackTreeError(
                    f"certified difference of pair ({i}, {j}) disagrees with the member sets")
            seen |= diff
        self.labels: list[str] = sorted(seen, key=self.sort_key)

        self.mask: dict[str, int] = {}
        for c in self.labels:
            m = 0
            for i, v in enumerate(family.vertices):
                if c in v.members:
                    m |= 1 << i
            self.mask[c] = m
        self._full = (1 << self.n) - 1

        # indicators normalised to vanish at the base vertex
        base_bit = 1 << self.base_index
        self.norm_mask: dict[str, int] = {
            c: (m ^ self._full) if (m & base_bit) else m
            for c, m in self.mask.items()
        }

        by_norm: dict[int, list[str]] = {}
        for c in self.labels:
            by_norm.setdefault(self.norm_mask[c], []).append(c)
        classes = [tuple(sorted(v, key=self.sort_key)) for v in by_norm.values()]
        classes.sort(key=lambda cls: self.sort_key(cls[0]))
        self.classes: list[tuple[str, ...]] = classes
        self.class_of: dict[str, int] = {
            c: idx for idx, cls in enumerate(classes) for c in cls
        }

        self.crossings: dict[tuple[str, str], bool] = {}
        for a in range(len(self.labels)):
            for b in range(a + 1, len(self.labels)):
                c1, c2 = self.labels[a], self.labels[b]
                self.crossings[(c1, c2)] = self._cross(c1, c2)

        self._order_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def _cross(self, c1: str, c2: str) -> bool:
        m1, m2 = self.mask[c1], self.mask[c2]
        full = self._full
        return all(q != 0 for q in (m1 & m2, m1 & ~m2 & full, ~m1 & m2 & full, ~m1 & ~m2 & full))

    def indicator(self, c: str, i: int) -> int:
        return (self.mask[c] >> i) & 1

    def separates(self, c: str, i: int, j: int) -> bool:
        return self.indicator(c, i) != self.indicator(c, j)

    def class_norm_mask(self, cls_index: int) -> int:
        return self.norm_mask[self.classes[cls_index][0]]


def build_track_system(family: VertexFamily, max_vertices: int = DEFAULT_MAX_VERTICES) -> TrackSystem:
    return TrackSystem(family, max_vertices=max_vertices)


# --------------------------------------------------------------------------
# parity and colouring


def parity_and_coloring(table: MetricTable) -> list[int]:
    """Two-colouring by parity of the distance to the base vertex.

    Every triangle perimeter is even for a symmetric-difference metric, so
    an odd one is raised as corruption rather than returned.
    """
    n = table.n
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(v + 1, n):
                if (table.d(u, v) + table.d(v, w) + table.d(w, u)) % 2:
                    raise ParityViolation(table.names[u], table.names[v], table.names[w])
    colors = [table.d(table.base_index, v) % 2 for v in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if (colors[u] != colors[v]) != (table.d(u, v) % 2 == 1):
                raise ParityViolation(table.names[u], table.names[v], table.names[v])
    return colors


# --------------------------------------------------------------------------
# corners


@dataclass(frozen=True)
class Corner:
    vertex: int
    count: int
    cosets: frozenset[str]


def corner_analysis(table: MetricTable, u: int, v: int, w: int) -> tuple[Corner, Corner, Corner]:
    """Lines across each corner of the triangle (u, v, w).

    The count at corner u is (d(u,v) + d(u,w) - d(v,w)) / 2 and must equal
    the size of diff(u,v) & diff(u,w); the three corner sets partition each
    edge's label set.
    """
    if len({u, v, w}) != 3:
        raise ValueError("corner analysis needs three distinct vertices")
    out = []
    for a, b, c in ((u, v, w), (v, u, w), (w, u, v)):
        twice = table.d(a, b) + table.d(a, c) - table.d(b, c)
        if twice < 0:
            raise NegativeCorner(table.names[u], table.names[v], table.names[w])
        cosets = table.diff(a, b) & table.diff(a, c)
        count = twice // 2
        if twice % 2 or count != len(cosets):
            raise ParityViolation(table.names[u], table.names[v], table.names[w])
        out.append(Corner(a, count, cosets))
    corner_u, corner_v, corner_w = out
    for a, b, ca, cb in ((u, v, corner_u, corner_v), (u, w, corner_u, corner_w), (v, w, corner_v, corner_w)):
        if ca.cosets | cb.cosets != table.diff(a, b) or ca.cosets & cb.cosets:
            raise ParityViolation(table.names[u], table.names[v], table.names[w])
    return corner_u, corner_v, corner_w


# --------------------------------------------------------------------------
# squares


@dataclass(frozen=True)
class SquareReport:
    vertices: tuple[int, int, int, int]
    sum_sides: int        # d(u,v) + d(w,z)
    sum_opposite: int     # d(u,w) + d(v,z)
    comparable: str       # "sides", "opposite" or "equal"
    crossing_count: int
    crossing_cosets: frozenset[str]
    disjoint: bool


def square_analysis(table: MetricTable, u: int, v: int, w: int, z: int) -> SquareReport:
    """Decompose the square with side pairs {uv, wz} and {uw, vz}.

    When one side-pair sum strictly dominates, the other pair's label sets
    must be disjoint; the dominating pair then carries |V - U| crossing
    lines, where U and V are the label-set unions of the two pairs.  The
    count is recomputed through both diagonals, which must agree.
    """
    if len({u, v, w, z}) != 4:
        raise ValueError("square analysis needs four distinct vertices")
    s_sides = table.d(u, v) + table.d(w, z)
    s_opp = table.d(u, w) + table.d(v, z)
    if s_sides == s_opp:
        return SquareReport((u, v, w, z), s_sides, s_opp, "equal", 0, frozenset(), True)
    if s_sides > s_opp:
        comparable = "sides"
        big = table.diff(u, v) | table.diff(w, z)
        small_a, small_b = table.diff(u, w), table.diff(v, z)
    else:
        comparable = "opposite"
        big = table.diff(u, w) | table.diff(v, z)
        small_a, small_b = table.diff(u, v), table.diff(w, z)
    overlap = small_a & small_b
    if overlap:
        raise NonNestedSquare(overlap, tuple(table.names[i] for i in (u, v, w, z)))
    crossing = big - (small_a | small_b)
    diag1 = table.diff(u, z)
    diag2 = table.diff(v, w)
    expected = abs(s_sides - s_opp) // 2
    via_diag1 = big & diag1 - (small_a | small_b)
    via_diag2 = big & diag2 - (small_a | small_b)
    if not (len(crossing) == expected and crossing == via_diag1 == via_diag2):
        raise NonNestedSquare(crossing ^ via_diag1 ^ via_diag2 or crossing,
                              tuple(table.names[i] for i in (u, v, w, z)))
    return SquareReport((u, v, w, z), s_sides, s_opp, comparable, len(crossing), crossing, True)


# --------------------------------------------------------------------------
# crossing and nestedness


def crossing_test(system: TrackSystem, c1: str, c2: str) -> bool:
    """True iff all four side-intersection quadrants contain a family vertex."""
    if c1 == c2:
        raise ValueError("crossing test needs two distinct cosets")
    a, b = sorted((c1, c2), key=system.sort_key)
    return system.crossings[(a, b)]


@dataclass(frozen=True)
class NestednessResult:
    ok: bool
    witness: Optional[tuple[str, str, tuple[str, str, str, str]]] = None


def nestedness_check(system: TrackSystem) -> NestednessResult:
    """Search every label pair for an inhabited four-quadrant configuration."""
    full = system._full
    for (c1, c2), crossed in system.crossings.items():
        if not crossed:
            continue
        m1, m2 = system.mask[c1], system.mask[c2]
        quadrants = (~m1 & ~m2 & full, ~m1 & m2 & full, m1 & ~m2 & full, m1 & m2 & full)
        corners = tuple(
            system.table.names[(q & -q).bit_length() - 1] for q in quadrants
        )
        return NestednessResult(False, (c1, c2, corners))
    return NestednessResult(True)


# --------------------------------------------------------------------------
# parallel classes and per-edge orders


def parallel_classes(system: TrackSystem) -> list[tuple[str, ...]]:
    """Partition of the labels by indicator equality up to complement."""
    return list(system.classes)


def class_order(system: TrackSystem, u: int, v: int) -> list[int]:
    """Total order of the parallel classes meeting diff(u, v), nearest to u first.

    Class X precedes class Y when every vertex separated from u together
    with Y is also separated together with X.  On nested systems this is a
    strict total order; an incomparable pair is raised as a falsification
    witness.
    """
    cached = system._order_cache.get((u, v))
    if cached is not None:
        return list(cached)
    edge = system.table.diff(u, v)
    present = sorted(
        {system.class_of[c] for c in edge},
        key=lambda idx: system.sort_key(system.classes[idx][0]))

    def le(x: int, y: int) -> bool:
        cx = system.classes[x][0]
        cy = system.classes[y][0]
        for w in range(system.n):
            if w in (u, v):
                continue
            if system.separates(cy, u, w) and not system.separates(cx, u, w):
                return False
        return True

    for a in range(len(present)):
        for b in range(a + 1, len(present)):
            x, y = present[a], present[b]
            fwd, back = le(x, y), le(y, x)
            if fwd and back:
                raise TrackTreeError(
                    f"distinct classes {system.classes[x]} and {system.classes[y]} "
                    "compare equal; corrupted system")
            if not fwd and not back:
                raise NotTotal(system.classes[x][0], system.classes[y][0],
                               (system.table.names[u], system.table.names[v]))

    ordered = sorted(present, key=functools.cmp_to_key(lambda x, y: -1 if le(x, y) else 1))
    # transitivity safety net: ranks must be strictly increasing under le
    for a in range(len(ordered) - 1):
        if not le(ordered[a], ordered[a + 1]):
            raise NotTotal(system.classes[ordered[a]][0], system.classes[ordered[a + 1]][0],
                           (system.table.names[u], system.table.names[v]))
    system._order_cache[(u, v)] = tuple(ordered)
    return ordered


def _class_labels_from(system: TrackSystem, cls_index: int, tail: int) -> list[str]:
    """Labels of one class in crossing order walking away from the tail vertex."""
    labels = sorted(system.classes[cls_index], key=system.sort_key)
    g = system.class_norm_mask(cls_index)
    ascending = ((g >> tail) & 1) == 0
    return labels if ascending else list(reversed(labels))


def assign_labels(system: TrackSystem) -> dict[tuple[int, int], tuple[str, ...]]:
    """Canonical ordered label list for every edge, keyed by (i, j) with i < j.

    Classes appear in the order given by class_order; inside a class the
    ShortLex order is used, read in the direction that walks away from the
    class's base side, so the same class is traversed consistently on every
    edge.
    """
    out: dict[tuple[int, int], tuple[str, ...]] = {}
    for i in range(system.n):
        for j in range(i + 1, system.n):
            edge = system.table.diff(i, j)
            if not edge:
                continue
            seq: list[str] = []
            for cls_index in class_order(system, i, j):
                seq.extend(_class_labels_from(system, cls_index, i))
            if len(seq) != system.table.d(i, j) or set(seq) != edge:
                raise TrackTreeError(f"label assignment lost cosets on edge ({i}, {j})")
            out[(i, j)] = tuple(seq)
    return out
