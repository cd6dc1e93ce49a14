"""Independent brute-force routes to the dual tree and the label assignment.

These deliberately avoid the construction paths they check: orientations
are found by an exhaustive search over the side choices, pruned by the
pairwise definition of consistency and by nothing else, instead of being
read off the laminar order, and labelings are enumerated edge by edge
against the corner-matching constraints instead of being derived from the
class order.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple, Optional

from .errors import SearchBudgetExceeded, TooLarge
from .patterns import TrackSystem
# orientation_consistent is the definition the search's pruning is exact for;
# the search never calls it, and the bench tracer counts calls to this binding
from .trees import DualTree, orientation_consistent  # noqa: F401
from .windows import VertexFamily, bit_positions, explicit_family

MAX_ORACLE_CLASSES = 12
MAX_ORACLE_LABELS = 8
MAX_ORACLE_VERTICES = 8
DFS_BUDGET = 2_000_000


class OrientationOracle(NamedTuple):
    vertex_flips: frozenset[int]              # flip sets, bitsets over the universe
    edges: frozenset[tuple[int, int, int]]    # (lesser flips, greater flips, label)


def oracle_orientations(system: TrackSystem) -> OrientationOracle:
    """All consistent class-side choices, expanded by band cuts.

    Searches the side choices exhaustively, class by class: a prefix is
    extended by a side of the next class only when that side is non-empty
    and meets each side already chosen.  Consistency is a conjunction over
    pairs of classes, so this pruning is exact: it drops exactly the
    prefixes that no choice of the later sides could make consistent, and
    every choice that survives to the last class is consistent by
    construction, with no second test by ``orientation_consistent``.  Each
    prefix carries its flip set, the union of the classes it flips.
    Adjacent pairs (differing in a single class) are subdivided by the
    class's labels in universe (ShortLex) order.
    """
    m = len(system.class_bits)
    if m > MAX_ORACLE_CLASSES:
        raise TooLarge(f"{m} classes exceed the oracle cap {MAX_ORACLE_CLASSES}")

    # table[k]: per non-empty side s of class k (0 kept, 1 flipped), the
    # orientation bit it sets (s << k), the labels it adds to the flip set,
    # the earlier classes whose flipped side misses it, and the earlier
    # classes whose kept side misses it
    full = system._full
    sides = [(~g & full, g) for g in system.class_norm]
    table = []
    for k, (pair, bits) in enumerate(zip(sides, system.class_bits)):
        row = []
        for s, side in enumerate(pair):
            if not side:
                continue
            flipped = kept = 0
            for j in range(k):
                if not sides[j][1] & side:
                    flipped |= 1 << j
                if not sides[j][0] & side:
                    kept |= 1 << j
            row.append((s << k, bits if s else 0, flipped, kept))
        table.append(row)

    # each prefix is (orientation, flip set), the flip set grown with it
    prefixes = [(0, 0)]
    for row in table:
        prefixes = [(p | bit, f | adds) for p, f in prefixes for bit, adds, flipped, kept in row
                    if not (p & flipped or ~p & kept)]
    flips = dict(prefixes)

    vertices: set[int] = set(flips.values())
    edges: set[tuple[int, int, int]] = set()
    for tail, tail_flips in flips.items():
        for k, bits in enumerate(system.class_bits):
            head = tail | 1 << k
            if head == tail or head not in flips:
                continue
            prev = tail_flips
            *inner, last = bit_positions(bits)
            for label in inner:
                nxt = prev | 1 << label
                vertices.add(nxt)
                edges.add((prev, nxt, label))
                prev = nxt
            edges.add((prev, flips[head], last))

    return OrientationOracle(frozenset(vertices), frozenset(edges))


def tree_matches_oracle(tree: DualTree, oracle: OrientationOracle) -> bool:
    """Compare the tree's flip sets and edges with the oracle's."""
    # a parent edge's lesser end is its parent, so (flips[i], flips[j]) is
    # the oracle's (tail, head)
    flips = tree.flips
    edges = {(flips[i], flips[j], label) for i, j, label in tree.edges}
    return frozenset(flips) == oracle.vertex_flips and edges == oracle.edges


# --------------------------------------------------------------------------
# labelings


class LabelingOracle(NamedTuple):
    edges: list[tuple[int, int]]
    labelings: list[tuple[tuple[int, ...], ...]]  # per edge, its label positions in order
    count: int
    expected_count: int


def oracle_labelings(system: TrackSystem) -> LabelingOracle:
    """Enumerate every per-edge label order consistent with corner matching.

    A labeling is valid when, in every triangle and at every corner, the
    sequences read away from the corner agree on the corner's line count.
    The two-triangle condition for disjoint edge pairs follows from the
    corner condition, so it is not enforced separately.

    Each corner with an earlier edge pins a prefix of an edge's order (or a
    suffix, read from its end) to a slice of the earlier order.  Before the
    search each edge gets a plan: its longest prefix cut and the part of its
    longest suffix cut that the prefix leaves form the frame, and every
    other cut, the longest suffix cut too where the two overlap, is compared
    with the frame.  The search runs edge by edge, extending every partial
    labeling in turn by each order of the edge that holds the frame at its
    ends and its other labels, in every order, in the middle; a frame that
    covers the edge is its one order.  Each order is one budget step, so the
    labelings, their order and the steps are those of a depth-first search
    over the edges.  TooLarge over the label or vertex cap, before any work;
    SearchBudgetExceeded when the steps exceed ``DFS_BUDGET``.
    """
    tracks = system.label_bits.bit_count()
    if tracks > MAX_ORACLE_LABELS:
        raise TooLarge(f"{tracks} labels exceed the oracle cap {MAX_ORACLE_LABELS}")
    if system.n > MAX_ORACLE_VERTICES:
        raise TooLarge(f"{system.n} vertices exceed the oracle cap {MAX_ORACLE_VERTICES}")

    family = system.family
    edges, diffs = [], []
    for i, j in itertools.combinations(range(system.n), 2):
        diff = family.diff(i, j)
        if diff:
            edges.append((i, j))
            diffs.append(diff)

    # each edge's plan.  A cut is (earlier edge, whether it meets the corner
    # at its second end, whether this edge does, the corner's line count).
    # The frame is the longest prefix cut and what the longest suffix cut
    # adds to it, each as (earlier edge, slice of its order), the slice None
    # when the cut adds nothing; every other cut is a check, (earlier edge,
    # slice, the slice of the frame it must equal), and so is the longest
    # suffix cut where it overlaps the prefix
    plans = []
    incident: list[list[tuple[int, bool]]] = [[] for _ in range(system.n)]
    for k, ((i, j), diff) in enumerate(zip(edges, diffs)):
        cuts = [(other, rev_other, rev_self, count)
                for a, rev_self in ((i, False), (j, True)) for other, rev_other in incident[a]
                if (count := (diffs[other] & diff).bit_count())]
        incident[i].append((k, False))
        incident[j].append((k, True))
        prefix = suffix = (None, False, False, 0)
        for cut in cuts:
            if cut[2]:
                if cut[3] > suffix[3]:
                    suffix = cut
            elif cut[3] > prefix[3]:
                prefix = cut
        labels = bit_positions(diff)  # ShortLex order
        head, tail = prefix[3], min(suffix[3], len(labels) - prefix[3])
        checks = [(cut[0], _ends(cut[3], cut[1], cut[1] != cut[2]), _ends(cut[3], cut[2], False))
                  for cut in cuts if cut is not prefix and (cut is not suffix or tail < suffix[3])]
        plans.append((labels, set(labels),
                      prefix[0], _ends(head, prefix[1], prefix[1]) if head else None,
                      suffix[0], _ends(tail, suffix[1], not suffix[1]) if tail else None, checks))

    left = DFS_BUDGET
    found: list[tuple[tuple[int, ...], ...]] = [()]
    for labels, label_set, pre_edge, pre_cut, suf_edge, suf_cut, checks in plans:
        size = len(labels)
        grown = []
        for partial in found:
            pre = partial[pre_edge][pre_cut] if pre_cut else ()
            suf = partial[suf_edge][suf_cut] if suf_cut else ()
            frame = pre + suf
            for other, cut, own in checks:
                if partial[other][cut] != frame[own]:
                    break
            else:
                used = set(frame)
                held = len(frame)
                if len(used) < held or not used <= label_set:
                    continue
                if held == size:
                    grown.append(partial + (frame,))
                    left -= 1
                else:
                    before = len(grown)
                    middles = itertools.permutations(sorted(label_set - used))
                    grown += [partial + (pre + mid + suf,)
                              for mid in itertools.islice(middles, left + 1)]
                    left -= len(grown) - before
                if left < 0:
                    raise SearchBudgetExceeded("labeling enumeration exceeded its budget")
        found = grown
    expected = 1
    for bits in system.class_bits:
        expected *= math.factorial(bits.bit_count())
    return LabelingOracle(edges, found, len(found), expected)


def _ends(count: int, at_end: bool, reverse: bool) -> slice:
    """The slice of an order that reads its first ``count`` labels (its last
    when ``at_end``), in reverse when ``reverse``; ``count`` is positive."""
    if at_end:
        return slice(None, -count - 1, -1) if reverse else slice(-count, None)
    return slice(count - 1, None, -1) if reverse else slice(None, count)


class LabelingVerdict(NamedTuple):
    canonical_is_valid: bool   # the canonical labeling is among the enumerated ones
    all_within_class: bool     # every enumerated one is it up to a within-class permutation
    count_matches: bool        # as many as the product of the class-size factorials


def labeling_verdict(system: TrackSystem, canonical: dict[tuple[int, int], tuple[int, ...]],
                     oracle: LabelingOracle) -> LabelingVerdict:
    """The labeling oracle's checks of the canonical labels; all hold on a
    nested system.

    A labeling is the canonical one up to a within-class permutation when
    its edges have the canonical lengths and one map sigma, from canonical
    labels to its labels, reads every position: each position holds the
    label found where its canonical label first occurs, and sigma, read at
    those first occurrences, is injective and keeps each label's class key
    (parallel labels have indicators equal or complementary, so the lesser
    of the two is the key).  The labelings are read a column at a time,
    one tuple per label position of what every labeling holds there, by
    strict zips that refuse a count of edges or an order's length that
    differs: a position agrees with its label's first occurrence when
    their columns are equal, the keys are one set per first-occurrence
    column, and sigma is injective on each labeling when its row of the
    first-occurrence columns has no repeat; only those columns are kept."""
    want = tuple(canonical[e] for e in oracle.edges)
    labelings = oracle.labelings
    return LabelingVerdict(
        want in labelings,
        not labelings or _within_class(system, want, labelings),
        oracle.count == oracle.expected_count)


def _within_class(system: TrackSystem, want: tuple[tuple[int, ...], ...],
                  labelings: list[tuple[tuple[int, ...], ...]]) -> bool:
    heads: dict[int, tuple[int, ...]] = {}  # each canonical label's first-occurrence column
    try:  # a strict zip raises when a count of edges or an order's length differs
        by_edge = list(zip(*labelings, strict=True))  # per edge, its order in every labeling
        for orders, order in zip(by_edge, want, strict=True):
            for label, column in zip(order, zip(*orders, strict=True), strict=True):
                if heads.setdefault(label, column) != column:
                    return False
    except ValueError:
        return False
    full = system._full
    key = {label: min(ind, ind ^ full) for label, ind in system.indicator.items()}
    return (all(set(map(key.__getitem__, set(column))) == {key[label]}
                for label, column in heads.items())
            and all(len(set(row)) == len(row) for row in zip(*heads.values())))


# --------------------------------------------------------------------------
# random nested families


class RandomFamilyInfo(NamedTuple):
    seed: int
    vertex_count: int
    class_sizes: tuple[int, ...]
    track_count: int
    tree_vertex_count: int
    tree_edge_count: int


def random_nested_family(seed: int, max_vertices: int = 12,
                         max_extra_cosets: int = 4,
                         max_constants: int = 2,
                         exact_classes: Optional[int] = None) -> tuple[VertexFamily, RandomFamilyInfo]:
    """Grow a random tree, read its edge bipartitions as tracks, and thicken
    some tracks into parallel classes.  Nested by construction."""
    rng = random.Random(seed)
    if exact_classes is not None:
        if exact_classes < 1:
            raise ValueError("need at least one class")
        n = exact_classes + 1
    else:
        n = rng.randint(2, max_vertices)
    parent = [rng.randrange(i) for i in range(1, n)]

    sizes = [1] * (n - 1)
    for _ in range(rng.randint(0, max_extra_cosets)):
        sizes[rng.randrange(n - 1)] += 1

    labels: list[list[str]] = []
    counter = 0
    for s in sizes:
        group = []
        for _ in range(s):
            group.append(f"c{counter:02d}")
            counter += 1
        labels.append(group)

    constants = [f"z{i}" for i in range(rng.randint(0, max_constants))]
    constant_side = {z: rng.random() < 0.5 for z in constants}

    # vertex v holds the labels of the edges on its path from vertex 0; a
    # parent comes before its child, so its path is known
    path = [frozenset(z for z in constants if constant_side[z])]
    for v in range(1, n):
        path.append(path[parent[v - 1]].union(labels[v - 1]))
    subsets = [(f"v{v}", members) for v, members in enumerate(path)]

    universe = [c for group in labels for c in group] + constants
    family = explicit_family(universe, subsets, base_index=0)
    info = RandomFamilyInfo(
        seed, n, tuple(sizes), sum(sizes),
        n + sum(s - 1 for s in sizes), sum(sizes))
    return family, info
