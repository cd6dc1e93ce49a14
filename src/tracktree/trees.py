"""Dual tree of a nested track system, its metric, and the windowed group action.

Components of the pattern complement are modelled as consistent
orientations: one side choice per parallel class, a choice being
consistent when every pair of chosen half-spaces shares a family vertex.
The reduced tree is Dunwoody's tree of the nested classes ("Accessibility
and groups of cohomological dimension one", 1979): the far sides of the
classes from the base vertex form a laminar family, and each class gives
one vertex and one edge, read off the containment order.  ``median`` and
``median_closure`` build the same vertices as the median closure of the
family's own orientations; the pipeline no longer calls them, and they stay
as the reference that the tests and the benchmark's tracing hooks read.
Each reduced edge is subdivided by band vertices which flip the class's
cosets one at a time in ShortLex order away from the base side.  The tree
hangs from the base vertex: every other vertex has one parent edge.  A
vertex B = A + F is its finite flip set F, an int bitset over the family's
universe, and every edge is labelled by the universe position of the one
coset it flips.  An element g sends
B = A + F to A*g + F*g = A + (d_g + F*g): d_g is the ``moved`` set of the
window's translate by g, and F*g walks each label's id by g, where the
engine's ``known`` mask keeps the walk in the window.  ``act`` is the one
place this map is computed, one label image per parent edge down from d_g,
and it returns the vertex map itself; the window stabilizers are read off
it.  The base stabilizer check against the expected K and the class-union
check each give their witness, None when they hold.  The class union walks
``GroupModel.successors`` from H one level at a time toward the identity's
class, not the whole ball.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .errors import (
    DisconnectedTree,
    NotNested,
    OutsideCertifiedDomain,
    TrackTreeError,
)
from .groups import GroupElement, SubgroupModel, compose, display_word, invert
from .patterns import TrackSystem, nestedness_check
from .windows import Window, bit_positions


_SWAP = str.maketrans("01", "10")


def median(o1: int, o2: int, o3: int) -> int:
    """Per-class majority vote of three orientations."""
    return (o1 & o2) | (o1 & o3) | (o2 & o3)


def orientation_consistent(system: TrackSystem, orientation: int) -> bool:
    """True when every pair of chosen class half-spaces meets the family."""
    m = len(system.class_norm)
    full = system._full
    sides = []
    for k, g in enumerate(system.class_norm):
        sides.append(g if (orientation >> k) & 1 else ~g & full)
    for a in range(m):
        if not sides[a]:
            return False
        for b in range(a + 1, m):
            if not sides[a] & sides[b]:
                return False
    return True


def median_closure(system: TrackSystem, seeds: Sequence[int]) -> set[int]:
    """Close the seeds under medians; orientations are m-bit ints, so the
    closure holds at most 2^m of them.  The reference for ``build_tree``'s
    vertices, which the tests compare."""
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        fresh = set()
        pool = sorted(closed)
        for trio in itertools.combinations(pool, 3):
            med = median(*trio)
            if med not in closed:
                fresh.add(med)
        closed |= fresh
        frontier = list(fresh)
    return closed


class DualTree:
    """The flip sets of the vertices in ShortLex order, the edges (i, j,
    label), and ``family_vertex[k]``, the vertex where family vertex k sits;
    a label is the universe position of the one coset the edge flips.  The
    tree hangs from the base, vertex 0, which flips nothing: every other
    vertex j is the larger end of exactly one edge (i, j, label), its parent
    edge, with i < j and flips[j] = flips[i] | 1 << label for a label not in
    flips[i].  So the sorted edges reach each vertex before they leave it;
    ``_assert_tree`` checks this."""

    base_index = 0

    def __init__(self, system: TrackSystem, flips: list[int],
                 edges: list[tuple[int, int, int]], family_vertex: list[int]):
        self.system = system
        self.flips = flips
        self.edges = edges
        self.family_vertex = family_vertex

    @cached_property
    def flip_index(self) -> dict[int, int]:
        """The vertex of each flip set; ``build_tree`` hands over the one it
        numbers the edges by."""
        return {f: i for i, f in enumerate(self.flips)}

    @cached_property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """(neighbour, label) pairs per vertex, for the reference path search."""
        adjacency: list[list[tuple[int, int]]] = [[] for _ in self.flips]
        for i, j, label in self.edges:
            adjacency[i].append((j, label))
            adjacency[j].append((i, label))
        return adjacency

    @property
    def vertex_count(self) -> int:
        return len(self.flips)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_tree(system: TrackSystem) -> DualTree:
    """Dunwoody's tree of the nested classes, plus band subdivision; asserts
    the tree axioms.

    Class k's far side F_k, the family vertices with ``class_norm[k]`` set,
    excludes the base vertex.  Nestedness leaves one of the other three
    quadrants of two classes empty, so any two far sides are disjoint or one
    holds the other: they form a laminar family (Dunwoody 1979).  The
    reduced tree has the base vertex plus one vertex per class, which flips
    the classes whose far sides hold F_k, and one edge per class, from the
    vertex of the smallest far side strictly holding F_k (or the base vertex)
    to k's own.  A family vertex sits at the vertex of the smallest far side
    holding it.  These are exactly the median closure of the family's
    orientations and its one-class edges, which the tests check.

    The parent of k is one lookup: the home of F_k's least vertex x, once
    the larger classes are placed.  Far sides are distinct, one per class,
    and the placed ones are at least as large as F_k, so a placed side that
    holds x meets F_k and, by laminarity, holds F_k; the sides holding x
    form a chain placed largest first, so x's home is the vertex of the
    smallest placed side holding x, and thus of the smallest holding F_k.
    """
    nested = nestedness_check(system)
    if not nested.ok:
        raise NotNested(f"crossing witness {nested.witness}")

    # classes by far side, largest first, so the far sides holding F_k are
    # placed before k, and each placed class sets the home of its side's vertices
    home = [0] * system.n  # per family vertex, the flip set of the tree vertex it sits at
    vertices = {0}
    raw_edges: list[tuple[int, int, int]] = []
    classes = zip(system.class_norm, system.class_bits)
    for side, bits in sorted(classes, key=lambda c: -c[0].bit_count()):
        prev = home[(side & -side).bit_length() - 1]
        # the band walks away from the base side through the labels in ShortLex order
        while bits:
            low = bits & -bits
            nxt = prev | low
            vertices.add(nxt)
            raw_edges.append((prev, nxt, low.bit_length() - 1))
            prev = nxt
            bits ^= low
        while side:
            low = side & -side
            home[low.bit_length() - 1] = prev
            side ^= low

    # ShortLex order of the flip sets (bit positions run in ShortLex order of the
    # keys): by size, then as the bit strings read lowest bit first with 0 and 1
    # swapped, which order two sets of one size as their position lists do
    order = sorted(vertices, key=lambda f: (f.bit_count(), bin(f)[:1:-1].translate(_SWAP)))
    index_of = {flips: i for i, flips in enumerate(order)}
    # each raw edge adds its label to a's flips, so a comes first in ShortLex
    edges = sorted((index_of[a], index_of[b], label) for a, b, label in raw_edges)
    tree = DualTree(system, order, edges, [index_of[f] for f in home])
    tree.flip_index = index_of
    _assert_tree(tree)
    return tree


def _assert_tree(tree: DualTree):
    """The shape ``DualTree`` states, in one pass over the edges.  Each of
    vertices 1..n-1 is reached once, from a lesser vertex already reached, so
    parent edges lead every vertex down to vertex 0: the graph is a tree."""
    n, e = tree.vertex_count, tree.edge_count
    if e != n - 1:
        raise TrackTreeError(f"{e} edges on {n} vertices is not a tree")
    flips, reached = tree.flips, [True] + [False] * e
    if flips[0]:
        raise TrackTreeError("base vertex 0 has flips")
    for i, j, label in tree.edges:
        if not (0 <= i < j < n and reached[i]) or reached[j]:
            raise DisconnectedTree(f"edge ({i}, {j}) is not the one edge from a reached vertex to {j}")
        # one added label per edge also makes the colours |flips| mod 2 alternate
        if flips[i] >> label & 1 or flips[j] != flips[i] | 1 << label:
            raise TrackTreeError(f"edge ({i}, {j}) does not add label {label}")
        reached[j] = True


# --------------------------------------------------------------------------
# paths and separation


class PathReport(NamedTuple):
    length: int
    labels: tuple[int, ...]   # universe positions, in path order


def tree_metric_and_separation(tree: DualTree, a: int, b: int) -> PathReport:
    """Unique path between two tree vertices; its labels must be B_a + B_b."""
    if a == b:
        return PathReport(0, ())
    prev: dict[int, tuple[int, int]] = {a: (a, -1)}
    queue = [a]
    while queue:
        nxt = []
        for x in queue:
            for y, label in tree.adjacency[x]:
                if y not in prev:
                    prev[y] = (x, label)
                    nxt.append(y)
        queue = nxt
    if b not in prev:
        raise DisconnectedTree(f"no path from {a} to {b}")
    labels = []
    x = b
    while x != a:
        x, label = prev[x]
        labels.append(label)
    labels.reverse()
    # each edge flips exactly the bit of its label (checked when the tree is
    # built), and the path's flips XOR to the difference: so its labels are
    # distinct and make up the difference iff they are as many as its bits
    expected = tree.flips[a] ^ tree.flips[b]
    if len(labels) != expected.bit_count():
        universe = tree.system.family.universe
        raise TrackTreeError(
            f"path labels {[universe[p] for p in labels]} do not realise the flip difference")
    return PathReport(len(labels), tuple(labels))


def separation_witness(tree: DualTree) -> Optional[str]:
    """Why some tree path is not geodesic or a family vertex sits at the wrong
    tree vertex; None when every path carries exactly the labels of B_a + B_b.

    Each edge flips exactly its label's bit (checked when the tree is
    built), and any two edges lie on one path, so every path is geodesic
    iff no label is on two edges (Buneman 1971): then the distance of two
    vertices is the size of the XOR of their flip sets, and two family
    vertices, each at the tree vertex with its members, are as far apart.
    """
    family = tree.system.family
    edge_of: dict[int, tuple[int, int]] = {}
    for i, j, label in tree.edges:
        if label in edge_of:
            return (f"label {display_word(family.universe[label])} "
                    f"is on edges {edge_of[label]} and {(i, j)}")
        edge_of[label] = (i, j)
    base = family.vertices[family.base_index].members
    for i, (v, at) in enumerate(zip(family.vertices, tree.family_vertex)):
        if tree.flips[at] != v.members ^ base:
            return f"family vertex {i} sits at tree vertex {at}, whose members differ"
    return None


# --------------------------------------------------------------------------
# windowed group action


def _window_of(tree: DualTree) -> Window:
    window = tree.system.family.window
    if window is None or tree.system.family.base_set is None:
        raise OutsideCertifiedDomain("the family was not built over a group window")
    return window


def translate_flips(tree: DualTree, g: GroupElement) -> int:
    """Certified symmetric difference between the base set and its g-translate,
    a bitset over the family's universe."""
    window = _window_of(tree)
    moved, unknown = window.translate(tree.system.family.base_set, g)
    if unknown & window.core_mask:
        raise OutsideCertifiedDomain(f"translate by {g!r} undecided inside the core")
    if moved & window.shell_mask:
        raise OutsideCertifiedDomain(f"translate by {g!r} shifts the boundary shell")
    return moved


def _label_images(tree: DualTree, g: GroupElement) -> dict[int, int]:
    """Per label position p, the id of H*k*g for p's key k, walked from p by g;
    -1 where k*g is longer than the radius, so every walk stays in the window."""
    window = _window_of(tree)
    labels = bit_positions(tree.system.label_bits)
    # |k*g| <= |k| + |g| for every kind: when the longest label key plus |g|
    # is within the radius, every walk is known
    longest = bisect_right(window.graph.level_end, labels[-1]) if labels else 0
    known = window.sub.engine.known(window, g.word) if longest + len(g.word) > window.radius else -1
    return {p: window.walk_from(p, g.word) if known >> p & 1 else -1 for p in labels}


def act(tree: DualTree, g: GroupElement) -> list[Optional[int]]:
    """The vertex map of g: the index of B*g per vertex B, None where the image
    is not a tree vertex.  The base's image flips d_g, and as an edge adds its
    label to i's flips, j's image adds the label's image, distinct from the
    others'; below a label whose k*g leaves the window, the images are None."""
    d_g = translate_flips(tree, g)
    images = _label_images(tree, g)
    flips: list[Optional[int]] = [d_g] + [None] * (tree.vertex_count - 1)
    for i, j, label in tree.edges:
        if flips[i] is not None and images[label] >= 0:
            flips[j] = flips[i] ^ 1 << images[label]
    return [tree.flip_index.get(f) for f in flips]


# --------------------------------------------------------------------------
# window stabilizers


class ClassUnionReport(NamedTuple):
    """The identity coset's class, whose size is H's index in its union, and
    why the union is not a subgroup, or None."""
    class_size: int
    witness: Optional[str]


class StabilizerReport(NamedTuple):
    vertex_stabilizers: list[tuple[str, ...]]
    # why the base stabilizer misses an expected element, or holds an
    # unexpected one when K is declared exact; None when it agrees with K
    base_witness: Optional[str]
    edge_stabilizers: list[tuple[str, ...]]
    edge_witnesses: list[Optional[str]]  # per edge, a conjugate of H its stabilizer misses
    class_union: Optional[ClassUnionReport]  # None when no class holds the identity coset


def stabilizer_analysis(tree: DualTree, ball: Sequence[GroupElement],
                        expected_k: Optional[SubgroupModel] = None,
                        expected_k_exact: bool = False) -> StabilizerReport:
    """Window stabilizers of every tree vertex and edge, plus the subgroup
    formed by the parallel class of the identity coset.

    Each ball element acts once, through ``act``; elements whose action
    cannot be certified are left out.  g fixes
    edge (i, j) when it maps i to i and j to j: label images are injective,
    so g then also fixes the label, and no g swaps the two ends.
    """
    window = _window_of(tree)

    # (g, its vertex map) per element whose action is certified
    certified: list[tuple[GroupElement, list[Optional[int]]]] = []
    for g in ball:
        try:
            certified.append((g, act(tree, g)))
        except OutsideCertifiedDomain:
            continue
    # an edge's witness is the first missing conjugate of H's ball elements in the ball's order
    h_ball = [g for g, _ in certified if window.sub.member(g)]
    certified.sort(key=lambda c: c[0].sort_key())

    vertex_stabs = [tuple(display_word(g.word) for g, image in certified if image[v] == v)
                    for v in range(tree.vertex_count)]

    base_witness = None
    if expected_k is not None:
        base_stab = set(vertex_stabs[tree.base_index])
        expected_words = {
            display_word(g.word) for g, _ in certified if expected_k.member(g)
        }
        missing = expected_words - base_stab
        extra = base_stab - expected_words if expected_k_exact else set()
        if missing:
            base_witness = f"expected stabilizer element {sorted(missing)[0]} moves the base vertex"
        elif extra:
            base_witness = f"unexpected base stabilizer element {sorted(extra)[0]}"

    certified_words = {display_word(g.word) for g, _ in certified}
    edge_stabs: list[tuple[str, ...]] = []
    edge_witnesses: list[Optional[str]] = []
    for i, j, label in tree.edges:
        # g never swaps an edge's ends: it fixes the edge only when its label
        # coset k has k*g = k, and right translation keeps membership (V holds
        # k iff V*g holds k*g = k), so g keeps each side of the edge
        edge_stabs.append(tuple(display_word(g.word) for g, image in certified
                                if (image[i], image[j]) == (i, j)))
        # the subgroup conjugated by the label's key fixes the edge, as far as the ball sees
        rep = GroupElement(window.model, tree.system.family.universe[label])
        outside = certified_words.difference(edge_stabs[-1])
        conjugates = (display_word(compose(compose(invert(rep), h), rep).word) for h in h_ball)
        missing = next((c for c in conjugates if c in outside), None)
        edge_witnesses.append(None if missing is None else
                              f"stabilizer of edge ({i}, {j}) labelled {display_word(rep.word)} "
                              f"misses the conjugate subgroup element {missing}")

    return StabilizerReport(vertex_stabs, base_witness, edge_stabs, edge_witnesses,
                            _class_union_report(tree))


def _class_union_report(tree: DualTree) -> Optional[ClassUnionReport]:
    """The identity coset's class, and why the union of its cosets, as far as
    ball(radius // 2) sees it, is not closed under inverses and products."""
    window = _window_of(tree)
    # the identity coset H is key id 0, bit 0 of the universe
    identity_class = [bits for bits in tree.system.class_bits if bits & 1]
    if not identity_class:
        return None
    cls = set(bit_positions(identity_class[0]))
    graph, model = window.graph, window.model
    # past the engine's tail_fp (the Stallings core of a free group) a
    # canonical word's walk only moves down its hanging tree, so a word that
    # reaches a coset there is extended only when the coset is in the class
    # or an ancestor of one
    toward: set[int] = set()
    for c in cls:
        while c >= 0 and c not in toward:
            toward.add(c)
            c = graph.parent[c]
    tail_fp, fps = window.sub.engine.tail_fp, graph.fps
    # the elements of ball(radius // 2) whose cosets are in the class, as
    # (word, coset id) in ShortLex order, each child one step from its parent
    union: list[tuple[str, int]] = []
    level = [("", 0)]
    for length in range(window.radius // 2 + 1):
        union += [(w, c) for w, c in level if c in cls]
        if length < window.radius // 2:
            level = [(w + ch, graph.step(c, ch)) for w, c in level
                     if tail_fp is None or fps[c] < tail_fp or c in toward
                     for ch in model.successors(w)]
    checked: set[int] = set()  # cosets He1 whose products with the union stay in the class
    for w1, c1 in union:
        # e1 is at most radius // 2 long, and so its inverse is located
        if window.locate(invert(GroupElement(model, w1))) not in cls:
            return ClassUnionReport(
                len(cls), f"inverse of {display_word(w1)} escapes the class union")
        if c1 in checked:
            continue  # He1*e2 depends on He1 only
        for w2, _ in union:
            # He1's key and e2 are at most radius // 2 long: a walk in the window
            if window.walk_from(c1, w2) not in cls:
                return ClassUnionReport(
                    len(cls), f"product {display_word(w1)} * {display_word(w2)} "
                              "escapes the class union")
        checked.add(c1)
    return ClassUnionReport(len(cls), None)
