"""Parity, corner/square analysis, crossing, parallel classes and labelling.

Vertices are subsets of a finite coset universe, held as int bitsets over
it; the metric is the size of the symmetric difference, the XOR of two
member sets, and every set operation below is one on ints.  Tracks are
represented purely by their labels, the universe positions of their cosets,
and per-vertex indicator bits (no geometry is materialised): a coset's
indicator is its membership bit across the vertex family, and two cosets
are parallel when their indicators agree everywhere or disagree
everywhere.  The per-edge label order sorts parallel classes by the
closer-to-the-tail relation and breaks ties inside a class by ShortLex,
which is one of the valid choices since labels within a parallel class may
be permuted freely.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .errors import NegativeCorner, NonNestedSquare, NotTotal, ParityViolation, TooLarge
from .windows import VertexFamily, bit_positions

DEFAULT_MAX_VERTICES = 16


class TrackSystem:
    """Coset-labelled tracks over a vertex family.

    A label is its position in the family's universe.  ``label_bits`` is the
    union of all pairwise differences (cosets with constant indicator label
    no track meeting the family), and ``indicator`` maps each label to its
    membership bits across the vertices.  Class k of parallel labels is
    ``class_bits[k]`` over the universe, listed by least position, and
    ``class_norm[k]`` is its indicator made 0 at the base vertex.
    ``nestedness`` holds the system's nestedness result once
    ``nestedness_check`` has decided it, and None before.
    """

    def __init__(self, family: VertexFamily):
        if len(family.vertices) > DEFAULT_MAX_VERTICES:
            raise TooLarge(
                f"family of {len(family.vertices)} vertices exceeds the cap {DEFAULT_MAX_VERTICES}")
        self.family = family
        self.n = len(family.vertices)
        self.base_index = family.base_index
        vertices = family.vertices

        # every pairwise difference lies in the union of the differences from one vertex
        union = 0
        for v in vertices:
            union |= v.members ^ vertices[0].members
        self.label_bits = union

        # indicators, by universe position of the label, in one pass over the vertices
        self.indicator: dict[int, int] = dict.fromkeys(bit_positions(union), 0)
        indicator = self.indicator
        for i, v in enumerate(vertices):
            bit, members = 1 << i, v.members & union
            while members:
                low = members & -members
                indicator[low.bit_length() - 1] |= bit
                members ^= low
        self._full = (1 << self.n) - 1

        # labels grouped by their indicator normalised to vanish at the base
        # vertex; positions ascend, so classes come by least representative
        base_bit = 1 << self.base_index
        by_norm: dict[int, int] = {}
        for k, m in self.indicator.items():
            norm = m ^ self._full if m & base_bit else m
            by_norm[norm] = by_norm.get(norm, 0) | 1 << k
        self.class_norm: list[int] = list(by_norm)
        self.class_bits: list[int] = list(by_norm.values())
        self.nestedness: Optional[NestednessResult] = None  # set by nestedness_check


def build_track_system(family: VertexFamily) -> TrackSystem:
    return TrackSystem(family)


# --------------------------------------------------------------------------
# parity and colouring


def _names(family: VertexFamily, *indices: int) -> tuple[str, ...]:
    return tuple(family.vertices[i].name for i in indices)


def parity_and_coloring(family: VertexFamily) -> list[int]:
    """Two-colouring by parity of the distance to the base vertex.

    Every triangle perimeter is even for a symmetric-difference metric, so
    an odd one is raised as corruption rather than returned.  Even triangles
    (base, u, v) make d(u, v) and d(base, u) + d(base, v) agree mod 2, so
    the colours then differ exactly across odd distances.
    """
    n, d = len(family), family.distance
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(v + 1, n):
                if (d(u, v) + d(v, w) + d(w, u)) % 2:
                    raise ParityViolation(*_names(family, u, v, w))
    return [d(family.base_index, v) % 2 for v in range(n)]


# --------------------------------------------------------------------------
# corners


class Corner(NamedTuple):
    vertex: int
    count: int
    cosets: int  # bitset over the family's universe


def corner_analysis(family: VertexFamily, u: int, v: int, w: int) -> tuple[Corner, Corner, Corner]:
    """Lines across each corner of the triangle (u, v, w).

    The count at corner u is (d(u,v) + d(u,w) - d(v,w)) / 2 and must equal
    the size of diff(u,v) & diff(u,w); the three corner sets partition each
    edge's label set.
    """
    if len({u, v, w}) != 3:
        raise ValueError("corner analysis needs three distinct vertices")
    d, diff = family.distance, family.diff
    out = []
    for a, b, c in ((u, v, w), (v, u, w), (w, u, v)):
        twice = d(a, b) + d(a, c) - d(b, c)
        if twice < 0:
            raise NegativeCorner(*_names(family, u, v, w))
        cosets = diff(a, b) & diff(a, c)
        count = twice // 2
        if twice % 2 or count != cosets.bit_count():
            raise ParityViolation(*_names(family, u, v, w))
        out.append(Corner(a, count, cosets))
    corner_u, corner_v, corner_w = out
    for a, b, ca, cb in ((u, v, corner_u, corner_v), (u, w, corner_u, corner_w), (v, w, corner_v, corner_w)):
        if ca.cosets | cb.cosets != diff(a, b) or ca.cosets & cb.cosets:
            raise ParityViolation(*_names(family, u, v, w))
    return corner_u, corner_v, corner_w


# --------------------------------------------------------------------------
# squares


class SquareReport(NamedTuple):
    vertices: tuple[int, int, int, int]
    sum_sides: int        # d(u,v) + d(w,z)
    sum_opposite: int     # d(u,w) + d(v,z)
    comparable: str       # "sides", "opposite" or "equal"
    crossing_count: int
    crossing_cosets: int  # bitset over the family's universe


def square_analysis(family: VertexFamily, u: int, v: int, w: int, z: int) -> SquareReport:
    """Decompose the square with side pairs {uv, wz} and {uw, vz}.

    When one side-pair sum strictly dominates, the other pair's label sets
    must be disjoint; the dominating pair then carries |V - U| crossing
    lines, where U and V are the label-set unions of the two pairs.  Once
    the overlap is empty, each crossing label splits {u, w} from {v, z}
    (sides dominant): it lies in both diagonals and adds 2 to the dominant
    sum and 0 to the other, while every other label adds the same to both
    sums, so the crossing lines number half the difference of the sums.
    """
    if len({u, v, w, z}) != 4:
        raise ValueError("square analysis needs four distinct vertices")
    d, diff = family.distance, family.diff
    s_sides = d(u, v) + d(w, z)
    s_opp = d(u, w) + d(v, z)
    if s_sides == s_opp:
        return SquareReport((u, v, w, z), s_sides, s_opp, "equal", 0, 0)
    if s_sides > s_opp:
        comparable = "sides"
        big = diff(u, v) | diff(w, z)
        small_a, small_b = diff(u, w), diff(v, z)
    else:
        comparable = "opposite"
        big = diff(u, w) | diff(v, z)
        small_a, small_b = diff(u, v), diff(w, z)
    overlap = small_a & small_b
    if overlap:
        raise NonNestedSquare(family.keys_of(overlap), _names(family, u, v, w, z))
    crossing = big & ~(small_a | small_b)
    return SquareReport((u, v, w, z), s_sides, s_opp, comparable, crossing.bit_count(), crossing)


# --------------------------------------------------------------------------
# crossing and nestedness


def _least(mask: int) -> int:
    """Position of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


def _quadrants(m1: int, m2: int, full: int) -> tuple[int, int, int, int]:
    """Vertex masks of the four sides-intersections of two indicator masks,
    ordered (out, out), (out, in), (in, out), (in, in)."""
    return (~m1 & ~m2 & full, ~m1 & m2 & full, m1 & ~m2 & full, m1 & m2)


def crossing_test(system: TrackSystem, p1: int, p2: int) -> bool:
    """True iff all four side-intersection quadrants of the labels at
    universe positions p1 and p2 contain a family vertex."""
    if p1 == p2:
        raise ValueError("crossing test needs two distinct cosets")
    return all(_quadrants(system.indicator[p1], system.indicator[p2], system._full))


class NestednessResult(NamedTuple):
    ok: bool
    witness: Optional[tuple[str, str, tuple[str, str, str, str]]] = None


def nestedness_check(system: TrackSystem) -> NestednessResult:
    """Search every class pair for an inhabited four-quadrant configuration.

    Parallel labels never cross and crossing is a property of classes, so
    the pairs of least representatives, in universe (ShortLex) order, meet
    the ShortLex-first crossing label pair first.  The witness names the
    two labels by their keys.  Decided once per system: the result is kept
    on it, and later calls return it.
    """
    if system.nestedness is None:
        system.nestedness = _nestedness(system)
    return system.nestedness


def _nestedness(system: TrackSystem) -> NestednessResult:
    reps = [_least(bits) for bits in system.class_bits]
    masks = [system.indicator[p] for p in reps]
    full = system._full
    for a, (p1, m1) in enumerate(zip(reps, masks)):
        for p2, m2 in zip(reps[a + 1:], masks[a + 1:]):
            # the four quadrants of _quadrants, tested without building them
            if m1 & m2 and m1 & ~m2 and m2 & ~m1 and (m1 | m2) != full:
                quadrants = _quadrants(m1, m2, full)
                corners = _names(system.family, *map(_least, quadrants))
                universe = system.family.universe
                return NestednessResult(False, (universe[p1], universe[p2], corners))
    return NestednessResult(True)


# --------------------------------------------------------------------------
# per-edge orders and labels


def class_order(system: TrackSystem, u: int, v: int) -> list[int]:
    """Total order of the parallel classes meeting diff(u, v), nearest to u first.

    Class X precedes class Y when every vertex separated from u together
    with Y is also separated together with X: as vertex masks outside
    {u, v}, side(Y) is a subset of side(X).  On nested systems this is a
    strict total order.  An incomparable pair, raised as NotTotal naming both
    classes by the keys of their least labels, is a crossing pair: both hold
    v and not u, so their sides nest unless they cross.  The pipeline orders
    classes only once nestedness has passed.  Two distinct classes meeting
    the edge cannot have equal sides, since both are 0 at u and 1 at v once
    normalised.
    """
    full = system._full
    outside = full & ~(1 << u | 1 << v)
    edge = system.family.diff(u, v)
    present = [k for k, bits in enumerate(system.class_bits) if bits & edge]
    side = {}
    for k in present:
        g = system.class_norm[k]
        side[k] = (g ^ full if (g >> u) & 1 else g) & outside

    for a, x in enumerate(present):
        for y in present[a + 1:]:
            if side[y] & ~side[x] and side[x] & ~side[y]:
                universe, bits = system.family.universe, system.class_bits
                raise NotTotal(universe[_least(bits[x])], universe[_least(bits[y])],
                               _names(system.family, u, v))
    # the sides form a chain under inclusion, so size orders them
    return sorted(present, key=lambda k: -side[k].bit_count())


def assign_labels(system: TrackSystem) -> dict[tuple[int, int], tuple[int, ...]]:
    """Canonical ordered label positions for every edge, keyed by (i, j) with i < j.

    Classes appear in the order given by class_order; inside a class the
    universe (ShortLex) order is used, read in the direction that walks away
    from the class's base side, so the same class is traversed consistently
    on every edge.  NotTotal when an edge's class order is not total: exactly
    when the system is not nested, so never in the pipeline.

    One order per edge suffices: from j, each class's side outside {i, j} is
    the complement of its side from i, so the order from j is the reversed
    chain and an incomparable pair is incomparable from both ends.  The
    classes on the edge are those meeting diff(i, j), and a class's labels
    share one indicator up to complement, so together they make up diff(i, j).
    """
    positions = [bit_positions(bits) for bits in system.class_bits]
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, j in itertools.combinations(range(system.n), 2):
        if not system.family.diff(i, j):
            continue
        # each class read walking away from its base side
        labels: list[int] = []
        for k in class_order(system, i, j):
            cls = positions[k]
            labels += cls[::-1] if (system.class_norm[k] >> i) & 1 else cls
        out[(i, j)] = tuple(labels)
    return out
