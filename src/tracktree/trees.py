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
cosets one at a time in ShortLex order away from the base side.  Every
vertex carries the finite flip set F and the set B = A + F it represents,
both int bitsets over the family's universe, and every edge is labelled by
the universe position of the one coset it flips.  An element g sends
B = A + F to A*g + F*g = A + (d_g + F*g): d_g is the ``moved`` set of the
window's translate by g, and F*g sends each label coset through
``Window.locate`` of its key times g.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

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


def base_orientation(system: TrackSystem, vertex: int) -> int:
    """Class-side choice of a family vertex, as a bitmask of flipped classes."""
    o = 0
    for k, g in enumerate(system.class_norm):
        if (g >> vertex) & 1:
            o |= 1 << k
    return o


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


@dataclass(frozen=True)
class TreeVertex:
    index: int
    flips: int                 # cosets flipped relative to the base vertex, a bitset
    members: int               # B = A + F, a bitset over the family's universe
    kind: str                  # "family", "band" or "branch"
    family_index: Optional[int]


class DualTree:
    """Vertices and edges (i, j, label) with i < j; a label is the universe
    position of the one coset the edge flips."""

    def __init__(self, system: TrackSystem, vertices: list[TreeVertex],
                 edges: list[tuple[int, int, int]], base_index: int):
        self.system = system
        self.vertices = vertices
        self.edges = edges
        self.base_index = base_index
        self.adjacency: dict[int, list[tuple[int, int]]] = {v.index: [] for v in vertices}
        for i, j, label in edges:
            self.adjacency[i].append((j, label))
            self.adjacency[j].append((i, label))
        self.flip_index: dict[int, int] = {v.flips: v.index for v in vertices}
        self.family_vertex: dict[int, int] = {
            v.family_index: v.index for v in vertices if v.family_index is not None
        }

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def colors(self) -> list[int]:
        return [v.flips.bit_count() % 2 for v in self.vertices]


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
    """
    nested = nestedness_check(system)
    if not nested.ok:
        raise NotNested(f"crossing witness {nested.witness}")

    # classes by far side, largest first, so the far sides holding F_k are
    # placed before k; they form a chain, and the last placed is the smallest
    placed: list[tuple[int, int]] = []  # (far side, flip set of its class's vertex)
    home = [0] * system.n  # per family vertex, the flip set of the tree vertex it sits at
    raw_vertices: dict[int, tuple[str, Optional[int]]] = {}
    raw_edges: list[tuple[int, int, int]] = []
    classes = zip(system.class_norm, system.class_bits)
    for side, bits in sorted(classes, key=lambda c: -c[0].bit_count()):
        prev = next((flips for held, flips in reversed(placed) if side & held == side), 0)
        # the band walks away from the base side through the labels in ShortLex order
        for label in bit_positions(bits):
            nxt = prev | 1 << label
            raw_vertices[nxt] = ("band", None)
            raw_edges.append((prev, nxt, label))
            prev = nxt
        placed.append((side, prev))
        raw_vertices[prev] = ("branch", None)
        for i in bit_positions(side):
            home[i] = prev
    for i, flips in enumerate(home):
        raw_vertices[flips] = ("family", i)

    # ShortLex order of the flip sets (bit positions run in ShortLex order of the
    # keys): by size, then as the bit strings read lowest bit first with 0 and 1
    # swapped, which order two sets of one size as their position lists do
    order = sorted(raw_vertices, key=lambda f: (f.bit_count(), bin(f)[:1:-1].translate(_SWAP)))
    index_of = {flips: i for i, flips in enumerate(order)}
    base_members = system.family.vertices[system.base_index].members
    vertices = [
        TreeVertex(i, flips, base_members ^ flips, *raw_vertices[flips])
        for i, flips in enumerate(order)
    ]
    edges = sorted(
        (
            (min(index_of[a], index_of[b]), max(index_of[a], index_of[b]), label)
            for a, b, label in raw_edges
        ),
    )
    tree = DualTree(system, vertices, edges, index_of[0])
    _assert_tree(tree)
    return tree


def _assert_tree(tree: DualTree):
    n, e = tree.vertex_count, tree.edge_count
    if e != n - 1:
        raise TrackTreeError(f"{e} edges on {n} vertices is not a tree")
    seen = {tree.base_index}
    stack = [tree.base_index]
    while stack:
        x = stack.pop()
        for y, _ in tree.adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != n:
        raise DisconnectedTree(f"reached {len(seen)} of {n} vertices")
    # one flipped label per edge also makes the colours |flips| mod 2 alternate
    for i, j, label in tree.edges:
        if tree.vertices[i].flips ^ tree.vertices[j].flips != 1 << label:
            raise TrackTreeError(f"edge ({i}, {j}) does not flip exactly label {label}")


# --------------------------------------------------------------------------
# paths and separation


@dataclass(frozen=True)
class PathReport:
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
    expected = tree.vertices[a].flips ^ tree.vertices[b].flips
    if len(labels) != expected.bit_count():
        universe = tree.system.family.universe
        raise TrackTreeError(
            f"path labels {[universe[p] for p in labels]} do not realise the flip difference")
    return PathReport(len(labels), tuple(labels))


def separation_witness(tree: DualTree) -> Optional[str]:
    """Why some tree path is not geodesic or a family pair is at the wrong
    distance; None when every path carries exactly the labels of B_a + B_b.

    Each edge flips exactly its label's bit (checked when the tree is
    built), and any two edges lie on one path, so every path is geodesic
    iff no label is on two edges (Buneman 1971): then the distance of two
    vertices is the size of the XOR of their flip sets.
    """
    family = tree.system.family
    edge_of: dict[int, tuple[int, int]] = {}
    for i, j, label in tree.edges:
        if label in edge_of:
            return (f"label {display_word(family.universe[label])} "
                    f"is on edges {edge_of[label]} and {(i, j)}")
        edge_of[label] = (i, j)
    flips = [tree.vertices[tree.family_vertex[i]].flips for i in range(len(family))]
    members = [v.members for v in family.vertices]
    for i, j in itertools.combinations(range(len(family)), 2):
        if (flips[i] ^ flips[j]).bit_count() != (members[i] ^ members[j]).bit_count():
            return f"family pair ({i}, {j}) has wrong tree distance"
    return None


# --------------------------------------------------------------------------
# windowed group action


@dataclass
class ActionReport:
    element: str
    vertex_map: list[Optional[int]]
    base_image: Optional[int]
    mapped_vertices: int


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
    """Per label position p of the tree, the id of the coset H*k*g for the key
    k of p, or -1 when that coset's key is longer than the radius."""
    window = _window_of(tree)
    return {p: window.locate(compose(GroupElement(window.model, window.omega[p]), g))
            for p in bit_positions(tree.system.label_bits)}


def _image_flips(flips: int, images: dict[int, int], d_g: int) -> Optional[int]:
    """The flip set of B*g, for B = A + flips: flips*g + d_g, where images are
    the tree's label images under g; None when a flipped coset leaves the window."""
    moved = 0
    while flips:
        low = flips & -flips
        j = images[low.bit_length() - 1]
        if j < 0:
            return None
        moved |= 1 << j
        flips ^= low
    return moved ^ d_g


def act(tree: DualTree, g: GroupElement) -> ActionReport:
    """Map every vertex B to B*g; None where the image is not a tree vertex."""
    d_g = translate_flips(tree, g)
    images = _label_images(tree, g)
    vertex_map: list[Optional[int]] = [
        tree.flip_index.get(_image_flips(v.flips, images, d_g)) for v in tree.vertices]
    return ActionReport(display_word(g.word), vertex_map, tree.flip_index.get(d_g),
                        sum(1 for x in vertex_map if x is not None))


# --------------------------------------------------------------------------
# window stabilizers


@dataclass
class ClassUnionReport:
    applicable: bool
    class_size: int = 0
    union_size: int = 0
    subgroup_size: int = 0
    closed: bool = True
    inverse_closed: bool = True
    contains_subgroup: bool = True
    index: int = 0
    witness: Optional[str] = None


@dataclass
class StabilizerReport:
    ball_words: list[str]
    vertex_stabilizers: list[tuple[str, ...]]
    base_contains_expected: bool
    base_equals_expected: Optional[bool]
    base_witness: Optional[str]
    edge_stabilizers: list[tuple[str, ...]]
    edge_conjugates_ok: list[bool]
    class_union: ClassUnionReport
    uncertified: list[str] = field(default_factory=list)


def stabilizer_analysis(tree: DualTree, ball: Sequence[GroupElement],
                        expected_k: Optional[SubgroupModel] = None,
                        expected_k_exact: bool = False) -> StabilizerReport:
    """Window stabilizers of every tree vertex and edge, plus the subgroup
    formed by the parallel class of the identity coset.

    All verdicts are restricted to the supplied action ball; elements whose
    translate cannot be certified are listed as uncertified and excluded.
    """
    window = _window_of(tree)
    sub = window.sub

    # (g, d_g, the label images under g) per element whose translate is certified
    certified: list[tuple[GroupElement, int, dict[int, int]]] = []
    uncertified: list[str] = []
    for g in ball:
        try:
            d_g = translate_flips(tree, g)
        except OutsideCertifiedDomain:
            uncertified.append(display_word(g.word))
            continue
        certified.append((g, d_g, _label_images(tree, g)))

    vertex_stabs: list[tuple[str, ...]] = []
    for v in tree.vertices:
        stab = [
            g for g, d_g, images in certified
            if _image_flips(v.flips, images, d_g) == v.flips
        ]
        vertex_stabs.append(tuple(display_word(g.word) for g in sorted(stab, key=lambda e: e.sort_key())))

    base_stab = set(vertex_stabs[tree.base_index])
    base_contains = True
    base_equals: Optional[bool] = None
    base_witness = None
    if expected_k is not None:
        expected_words = {
            display_word(g.word) for g, _, _ in certified if expected_k.member(g)
        }
        missing = expected_words - base_stab
        if missing:
            base_contains = False
            base_witness = f"expected stabilizer element {sorted(missing)[0]} moves the base vertex"
        if expected_k_exact:
            extra = base_stab - expected_words
            base_equals = not missing and not extra
            if extra and base_witness is None:
                base_witness = f"unexpected base stabilizer element {sorted(extra)[0]}"

    edge_stabs: list[tuple[str, ...]] = []
    edge_conj_ok: list[bool] = []
    h_ball = [g for g, _, _ in certified if sub.member(g)]
    certified_words = {g.word for g, _, _ in certified}
    for i, j, label in tree.edges:
        fi, fj = tree.vertices[i].flips, tree.vertices[j].flips
        stab = []
        for g, d_g, images in certified:
            if images[label] != label:
                continue
            imgs = {_image_flips(fi, images, d_g), _image_flips(fj, images, d_g)}
            if imgs == {fi, fj}:
                stab.append(g)
        edge_stabs.append(tuple(display_word(g.word) for g in sorted(stab, key=lambda e: e.sort_key())))

        # conjugate of the subgroup by the edge label representative
        rep = GroupElement(window.model, window.omega[label])
        ok = True
        stab_words = set(edge_stabs[-1])
        for h in h_ball:
            conj = compose(compose(invert(rep), h), rep)
            if conj.word not in certified_words:
                continue
            if display_word(conj.word) not in stab_words:
                ok = False
                break
        edge_conj_ok.append(ok)

    class_union = _class_union_report(tree)
    return StabilizerReport(
        [display_word(e.word) for e in ball],
        vertex_stabs, base_contains, base_equals, base_witness,
        edge_stabs, edge_conj_ok, class_union, uncertified)


def _class_union_report(tree: DualTree) -> ClassUnionReport:
    window = _window_of(tree)
    # the identity coset H is key id 0, bit 0 of the universe
    identity_class = [bits for bits in tree.system.class_bits if bits & 1]
    if not identity_class:
        return ClassUnionReport(applicable=False)
    cls = set(bit_positions(identity_class[0]))
    pool = window.model.ball(window.radius // 2, max_radius=window.radius)
    coset = {e.word: window.locate(e) for e in pool}
    union = [e for e in pool if coset[e.word] in cls]
    sub_elems = [e for e in pool if coset[e.word] == 0]

    report = ClassUnionReport(
        applicable=True, class_size=len(cls), union_size=len(union),
        subgroup_size=len(sub_elems), index=len(cls))
    for h in sub_elems:
        if coset[h.word] not in cls:
            report.contains_subgroup = False
            report.witness = f"subgroup element {h!r} escapes the class union"
            return report
    for e1 in union:
        inv = window.locate(invert(e1))
        if inv >= 0 and inv not in cls:
            report.inverse_closed = False
            report.witness = f"inverse of {e1!r} escapes the class union"
            return report
        for e2 in union:
            prod = window.locate(compose(e1, e2))
            if prod >= 0 and prod not in cls:
                report.closed = False
                report.witness = f"product {e1!r} * {e2!r} escapes the class union"
                return report
    return report
