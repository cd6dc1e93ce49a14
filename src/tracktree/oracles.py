"""Independent brute-force routes to the dual tree and the label assignment.

These deliberately avoid the construction paths they check: orientations
are found by an exhaustive search over the side choices, pruned only by the
pairwise definition of consistency, instead of being read off the laminar
order, and labelings are enumerated edge by edge against the
corner-matching constraints instead of being derived from the class order.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import SearchBudgetExceeded, TooLarge
from .patterns import TrackSystem
from .trees import DualTree, orientation_consistent
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
    prefixes that no choice of the later sides could make consistent.
    Each choice that survives to the last class is confirmed by
    ``orientation_consistent``, the definition.  Adjacent pairs (differing
    in a single class) are subdivided by the class's labels in universe
    (ShortLex) order.
    """
    m = len(system.class_bits)
    if m > MAX_ORACLE_CLASSES:
        raise TooLarge(f"{m} classes exceed the oracle cap {MAX_ORACLE_CLASSES}")

    # table[k][s] = (side s of class k as a vertex bitset (0 kept, 1 flipped),
    #                the earlier classes whose flipped side misses it,
    #                the earlier classes whose kept side misses it)
    full = system._full
    sides = [(~g & full, g) for g in system.class_norm]
    table = []
    for k, pair in enumerate(sides):
        row = []
        for side in pair:
            flipped = kept = 0
            for j in range(k):
                if not sides[j][1] & side:
                    flipped |= 1 << j
                if not sides[j][0] & side:
                    kept |= 1 << j
            row.append((side, flipped, kept))
        table.append(row)

    prefixes = [0]
    for k, row in enumerate(table):
        prefixes = [p | s << k for p in prefixes for s, (side, flipped, kept) in enumerate(row)
                    if side and not (p & flipped or ~p & kept)]
    flips = {}
    for o in prefixes:
        if orientation_consistent(system, o):
            out = 0
            for k, bits in enumerate(system.class_bits):
                if (o >> k) & 1:
                    out |= bits
            flips[o] = out

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
    corner condition, so it is not enforced separately.  TooLarge over the
    label or vertex cap, before any work; SearchBudgetExceeded when the
    enumeration runs out of its step budget.
    """
    tracks = system.label_bits.bit_count()
    if tracks > MAX_ORACLE_LABELS:
        raise TooLarge(f"{tracks} labels exceed the oracle cap {MAX_ORACLE_LABELS}")
    if system.n > MAX_ORACLE_VERTICES:
        raise TooLarge(f"{system.n} vertices exceed the oracle cap {MAX_ORACLE_VERTICES}")

    family = system.family
    edge_diff = {}
    for i, j in itertools.combinations(range(system.n), 2):
        diff = family.diff(i, j)
        if diff:
            edge_diff[(i, j)] = diff
    edges = list(edge_diff)
    edge_index = {e: k for k, e in enumerate(edges)}
    corner_checks: dict[int, list[tuple[int, bool, bool, int]]] = {k: [] for k in range(len(edges))}
    # for each unordered edge pair sharing a vertex, record the corner constraint
    for (e1, e2) in itertools.combinations(edges, 2):
        shared = set(e1) & set(e2)
        if not shared:
            continue
        a = shared.pop()
        count = (edge_diff[e1] & edge_diff[e2]).bit_count()
        if count == 0:
            continue
        k1, k2 = edge_index[e1], edge_index[e2]
        corner_checks[max(k1, k2)].append(
            (min(k1, k2), e1[0] != a, e2[0] != a, count)
            if k1 < k2 else (min(k1, k2), e2[0] != a, e1[0] != a, count))

    labels_per_edge = [bit_positions(diff) for diff in edge_diff.values()]  # ShortLex order
    label_sets = [set(labels) for labels in labels_per_edge]

    budget = [DFS_BUDGET]
    chosen: list[tuple[int, ...]] = []
    found: list[tuple[tuple[int, ...], ...]] = []

    def orders(k: int):
        """Every order of edge k's labels that matches its corners with the
        edges already chosen.  Each corner reads ``count`` labels of an
        earlier edge away from the shared vertex, which pin a prefix of this
        edge's order (or a suffix, read from its end).  The longest prefix
        and suffix are kept, each shorter one must agree with them, and they
        must agree where they overlap.  The remaining labels fill the middle
        in every order, generated on each visit rather than stored (an
        8-label edge has 8!)."""
        labels = labels_per_edge[k]
        size = len(labels)
        pre = back = ()  # back is the suffix read from the edge's end
        for other, rev_other, rev_self, count in corner_checks[k]:
            seq = chosen[other]
            cut = seq[:-count - 1:-1] if rev_other else seq[:count]
            held = back if rev_self else pre
            if count > len(held):
                if cut[:len(held)] != held:
                    return
                if rev_self:
                    back = cut
                else:
                    pre = cut
            elif held[:count] != cut:
                return
        suf = back[::-1]
        overlap = len(pre) + len(suf) - size
        if overlap > 0:
            if pre[-overlap:] != suf[:overlap]:
                return
            suf = suf[overlap:]
        used = set(pre + suf)
        if len(used) != len(pre) + len(suf) or not used <= label_sets[k]:
            return
        if len(used) == size:  # pinned whole by its corners: nothing to permute
            yield pre + suf
            return
        for filling in itertools.permutations([c for c in labels if c not in used]):
            yield pre + filling + suf

    def dfs(k: int):
        if k == len(edges):
            found.append(tuple(chosen))
            return
        for order in orders(k):
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchBudgetExceeded("labeling enumeration exceeded its budget")
            chosen.append(order)
            dfs(k + 1)
            chosen.pop()

    dfs(0)
    expected = 1
    for bits in system.class_bits:
        expected *= math.factorial(bits.bit_count())
    return LabelingOracle(edges, found, len(found), expected)


class LabelingVerdict(NamedTuple):
    canonical_is_valid: bool   # the canonical labeling is among the enumerated ones
    all_within_class: bool     # every enumerated one is it up to a within-class permutation
    count_matches: bool        # as many as the product of the class-size factorials


def _tuple_gather(ids: list[int]):
    """A function taking seq to the tuple of seq[i] for each i in ids."""
    # itemgetter of one id returns the item itself, not a 1-tuple, and of none raises
    if len(ids) > 1:
        return itemgetter(*ids)
    return lambda seq: tuple(seq[i] for i in ids)


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
    of the two is the key).  Both reads are gathers over the flattened
    labeling, set up once from the canonical labeling."""
    edges = oracle.edges
    want = tuple(canonical[e] for e in edges)
    lengths = list(map(len, want))
    flat = list(itertools.chain.from_iterable(want))
    first: dict[int, int] = {}
    for i, label in enumerate(flat):
        first.setdefault(label, i)
    same = _tuple_gather([first[label] for label in flat])
    sigma = _tuple_gather(list(first.values()))
    full = system._full
    key = {label: min(ind, ind ^ full) for label, ind in system.indicator.items()}
    source_keys = [key[label] for label in first]
    image_keys = key.__getitem__

    def within_class(labeling: tuple[tuple[int, ...], ...]) -> bool:
        # lists and sum(): tuple() of an iterator sizes its result by resizing,
        # and the resized tuples pile up in the interpreter's tuple free lists
        if list(map(len, labeling)) != lengths:
            return False
        seq = sum(labeling, ())
        if same(seq) != seq:
            return False
        images = sigma(seq)
        return (list(map(image_keys, images)) == source_keys
                and len(set(images)) == len(images))

    return LabelingVerdict(
        want in oracle.labelings,
        all(map(within_class, oracle.labelings)),
        oracle.count == oracle.expected_count)


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
