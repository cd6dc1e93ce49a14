"""Dual tree construction, separation, geodesics, action, stabilizers."""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracktree import (
    GroupElement,
    InstanceSpec,
    act,
    build_track_system,
    build_tree,
    compose,
    corpus,
    explicit_family,
    fig1_exhibit,
    free_group,
    instance_to_text,
    run_instance,
    separation_witness,
    stabilizer_analysis,
    subgroup,
)
from tracktree.cli import main
from tracktree.errors import NotNested, OutsideCertifiedDomain, TrackTreeError
from tracktree.oracles import random_nested_family
from tracktree.trees import (
    DualTree,
    _assert_tree,
    median,
    median_closure,
    orientation_consistent,
    translate_flips,
    tree_metric_and_separation,
)
from tracktree.windows import bit_positions
from tree_reference import base_orientation, tree_colors

Z = free_group(1, "t")
INSTANCE_DIR = Path(__file__).resolve().parent.parent / "demos" / "instances"


def run(name):
    return run_instance(corpus()[name])


def star_system():
    fam = explicit_family(
        ["a", "b", "c"],
        [("va", frozenset(["a"])), ("vb", frozenset(["b"])), ("vc", frozenset(["c"]))])
    return build_track_system(fam)


def crossing_system():
    fam = explicit_family(
        ["a", "b"],
        [("e", frozenset()), ("va", frozenset(["a"])),
         ("vb", frozenset(["b"])), ("vab", frozenset(["a", "b"]))])
    return build_track_system(fam)


# --------------------------------------------------------------------------
# orientations and medians


def test_base_orientation_of_base_vertex_is_empty():
    system = run("E1").system
    assert base_orientation(system, system.base_index) == 0


def test_base_orientation_flip_set():
    result = run("E1")
    tree = result.tree
    # the translate one step right flips exactly the identity coset
    idx = [i for i, v in enumerate(result.family.vertices) if v.element.word == "t"][0]
    assert result.family.keys_of(tree.flips[tree.family_vertex[idx]]) == [""]


def test_median_majority():
    assert median(0b0101, 0b0101, 0b0011) == 0b0101
    system = run("E1").system
    o = [base_orientation(system, i) for i in range(system.n)]
    assert median(o[1], o[2], o[3]) == o[2]


def test_median_closure_star_adds_center():
    system = star_system()
    seeds = [base_orientation(system, i) for i in range(3)]
    closed = median_closure(system, seeds)
    assert len(closed) == 4
    extra = closed - set(seeds)
    assert len(extra) == 1
    assert orientation_consistent(system, extra.pop())


# --------------------------------------------------------------------------
# tree construction


def role(tree, i):
    """Tree vertex i's role, read off the tree: it holds a family vertex, or
    it is inside a band (degree 2), or it branches."""
    if i in tree.family_vertex:
        return "family"
    return "band" if len(tree.adjacency[i]) == 2 else "branch"


def test_single_track_tree():
    fam = explicit_family(["a"], [("e", frozenset()), ("va", frozenset(["a"]))])
    tree = build_tree(build_track_system(fam))
    assert tree.vertex_count == 2 and tree.edge_count == 1


def test_band_subdivision():
    fam = explicit_family(["a", "b"], [("e", frozenset()), ("vab", frozenset(["a", "b"]))])
    tree = build_tree(build_track_system(fam))
    flips = sorted(sorted(fam.keys_of(f)) for f in tree.flips)
    assert flips == [[], ["a"], ["a", "b"]]
    kinds = {tuple(sorted(fam.keys_of(f))): role(tree, i) for i, f in enumerate(tree.flips)}
    assert kinds[("a",)] == "band"


def test_half_line_tree_is_path_without_extras():
    tree = run("E1").tree
    assert tree.vertex_count == 5 and tree.edge_count == 4
    assert all(role(tree, i) == "family" for i in range(tree.vertex_count))
    degrees = sorted(len(neighbours) for neighbours in tree.adjacency)
    assert degrees == [1, 1, 2, 2, 2]


def test_star_tree_center_is_branch_vertex():
    tree = build_tree(star_system())
    assert tree.vertex_count == 4 and tree.edge_count == 3
    center = [i for i in range(tree.vertex_count) if role(tree, i) == "branch"]
    assert len(center) == 1
    assert len(tree.adjacency[center[0]]) == 3


def test_build_tree_rejects_crossings():
    with pytest.raises(NotNested):
        build_tree(crossing_system())


def reference_tree(system):
    """The dual tree as the median closure of the family's orientations, with
    an edge for each closed pair that differs in one class: the construction
    the laminar build replaced, as (flip sets, edges, family vertex map)."""
    family_orients = [base_orientation(system, i) for i in range(system.n)]
    closed = median_closure(system, family_orients)

    def flips_of(orientation):
        out = 0
        for k, bits in enumerate(system.class_bits):
            if (orientation >> k) & 1:
                out |= bits
        return out

    raw_vertices = {flips_of(o) for o in closed}
    raw_edges = []
    ordered = sorted(closed)
    for a_i, b_i in itertools.combinations(range(len(ordered)), 2):
        x = ordered[a_i] ^ ordered[b_i]
        if x & (x - 1):
            continue
        k = x.bit_length() - 1
        tail, head = ordered[a_i], ordered[b_i]
        if (tail >> k) & 1:
            tail, head = head, tail
        labels = bit_positions(system.class_bits[k])
        prev = flips_of(tail)
        for step, label in enumerate(labels):
            nxt = prev | 1 << label if step < len(labels) - 1 else flips_of(head)
            raw_vertices.add(nxt)
            raw_edges.append((prev, nxt, label))
            prev = nxt

    order = sorted(raw_vertices, key=lambda flips: (flips.bit_count(), bit_positions(flips)))
    index_of = {flips: i for i, flips in enumerate(order)}
    edges = sorted((min(index_of[a], index_of[b]), max(index_of[a], index_of[b]), label)
                   for a, b, label in raw_edges)
    return order, edges, [index_of[flips_of(o)] for o in family_orients]


def assert_matches_reference(family):
    system = build_track_system(family)
    tree = build_tree(system)
    assert (tree.flips, tree.edges, tree.family_vertex) == reference_tree(system)


@st.composite
def tree_families(draw, min_vertices=2, max_vertices=16, drop=False):
    """A nested family read off a random tree: each tree edge is a class of
    one to four keys, held by the vertices on its far side from vertex 0, and
    up to three constant keys.  With ``drop``, some tree vertices are left
    out of the family, so the tree needs branch vertices the family lacks.
    The base vertex is drawn among the family's vertices."""
    n = draw(st.integers(min_vertices, max_vertices))
    parent = [draw(st.integers(0, child - 1)) for child in range(1, n)]
    sizes = draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
    below = [{child} for child in range(1, n)]
    for child in range(n - 1, 1, -1):
        if parent[child - 1]:
            below[parent[child - 1] - 1] |= below[child - 1]
    keys = [[f"c{e:02d}{k}" for k in range(s)] for e, s in enumerate(sizes)]
    constants = [f"z{k}" for k in range(draw(st.integers(0, 3)))]
    held = frozenset(draw(st.sets(st.sampled_from(constants))) if constants else ())
    kept = range(n)
    if drop:
        kept = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=16)))
    subsets = [(f"v{v:02d}", frozenset(c for e, group in enumerate(keys) if v in below[e]
                                       for c in group) | held) for v in kept]
    universe = [c for group in keys for c in group] + constants
    return explicit_family(universe, subsets, base_index=draw(st.integers(0, len(subsets) - 1)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_laminar_tree_matches_median_closure_on_random_nested_families(seed):
    assert_matches_reference(random_nested_family(seed)[0])


@settings(max_examples=60, deadline=None)
@given(tree_families(min_vertices=13))
def test_laminar_tree_matches_median_closure_on_thick_tree_families(family):
    assert_matches_reference(family)


@settings(max_examples=150, deadline=None)
@given(tree_families(max_vertices=20, drop=True))
def test_laminar_tree_matches_median_closure_with_branch_vertices(family):
    assert_matches_reference(family)


def test_laminar_tree_of_one_vertex_and_no_classes():
    family = explicit_family(["a"], [("v", frozenset("a"))])
    assert build_track_system(family).class_bits == []
    assert_matches_reference(family)
    assert build_tree(build_track_system(family)).vertex_count == 1


def test_check_never_calls_the_median_closure(tmp_path, monkeypatch, capsys):
    family, _ = random_nested_family(1, max_extra_cosets=4, exact_classes=14)
    spec = InstanceSpec(name="nested-14", mode="explicit", universe=tuple(family.universe),
                        explicit_vertices=tuple((v.name, tuple(family.keys_of(v.members)))
                                                for v in family.vertices))
    nested = tmp_path / "nested-14.ini"
    nested.write_text(instance_to_text(spec))
    paths = [*sorted(INSTANCE_DIR.glob("*.ini")), nested]

    def reports():
        out = []
        for path in paths:
            code = main(["check", str(path)])
            out.append((code, capsys.readouterr()))
        return out

    before = reports()

    def refuse(*args):
        raise AssertionError("the median closure was called")

    from tracktree import trees
    monkeypatch.setattr(trees, "median_closure", refuse)
    monkeypatch.setattr(trees, "median", refuse)
    assert reports() == before


def test_nestedness_is_decided_once_per_system(monkeypatch):
    from tracktree import patterns
    decided = []
    search = patterns._nestedness
    monkeypatch.setattr(patterns, "_nestedness",
                        lambda system: decided.append(system) or search(system))
    # the pipeline decides it, and the tree build reads the same result
    result = run("E1")
    assert result.tree is not None and decided == [result.system]
    # a crossing system still raises on a direct build, decided once as well
    system = crossing_system()
    for _ in range(2):
        with pytest.raises(NotNested):
            build_tree(system)
    assert decided == [result.system, system]


def test_tree_axioms_on_corpus():
    for name in ("E1", "E2", "E3", "E4"):
        result = run(name)
        tree = result.tree
        assert tree.edge_count == tree.vertex_count - 1
        colors = tree_colors(tree)
        for i, j, label in tree.edges:
            assert tree.flips[i] ^ tree.flips[j] == 1 << label
            assert colors[i] != colors[j]
        assert tree.flips[tree.base_index] == 0


def test_every_vertex_is_base_plus_finite_flip():
    result = run("E4")
    tree = result.tree
    fam = result.family
    base_keys = set(fam.keys_of(fam.vertices[fam.base_index].members))
    for v, at in zip(fam.vertices, tree.family_vertex):
        assert set(fam.keys_of(v.members)) == base_keys ^ set(fam.keys_of(tree.flips[at]))
    for flips in tree.flips:
        assert len(fam.keys_of(flips)) <= result.system.label_bits.bit_count()


# --------------------------------------------------------------------------
# separation and geodesics


def test_path_trivial_and_band():
    fam = explicit_family(["a", "b"], [("e", frozenset()), ("vab", frozenset(["a", "b"]))])
    tree = build_tree(build_track_system(fam))
    assert tree_metric_and_separation(tree, 1, 1).length == 0
    ends = sorted(tree.flip_index[f] for f in (0, 0b11))  # {} and {a, b}
    report = tree_metric_and_separation(tree, ends[0], ends[1])
    assert [fam.universe[p] for p in report.labels] == ["a", "b"]


def test_separation_property_on_corpus():
    for name in ("E1", "E2", "E3", "E4"):
        result = run(name)
        tree, system = result.tree, result.system
        for i in range(system.n):
            for j in range(i + 1, system.n):
                path = tree_metric_and_separation(
                    tree, tree.family_vertex[i], tree.family_vertex[j])
                assert set(path.labels) == set(bit_positions(system.family.diff(i, j)))
                assert path.length == system.family.distance(i, j)


def test_geodesic_for_all_tree_vertex_pairs():
    result = run("E4")
    tree = result.tree
    for a in range(tree.vertex_count):
        for b in range(tree.vertex_count):
            expected = len(result.family.keys_of(tree.flips[a] ^ tree.flips[b]))
            assert tree_metric_and_separation(tree, a, b).length == expected


def test_path_class_blocks_follow_class_order():
    # walking away from a family vertex crosses whole classes consecutively
    result = run("E4")
    tree, system = result.tree, result.system
    path = tree_metric_and_separation(
        tree, tree.family_vertex[0], tree.family_vertex[2])
    classes_seen = [next(k for k, bits in enumerate(system.class_bits) if bits >> p & 1)
                    for p in path.labels]
    blocks = [k for i, k in enumerate(classes_seen) if i == 0 or classes_seen[i - 1] != k]
    assert len(blocks) == len(set(blocks))


def all_pairs_separation(tree):
    """The separation verdict by one path search per pair of tree vertices."""
    try:
        for a, b in itertools.combinations(range(tree.vertex_count), 2):
            tree_metric_and_separation(tree, a, b)
    except TrackTreeError:
        return False
    fam = tree.system.family
    return all(
        tree_metric_and_separation(tree, tree.family_vertex[i], tree.family_vertex[j]).length
        == fam.distance(i, j)
        for i, j in itertools.combinations(range(len(fam)), 2))


E, VA, VB, VAB = (("e", frozenset()), ("va", frozenset("a")), ("vb", frozenset("b")),
                  ("vab", frozenset("ab")))

# trees that pass the tree axioms but not separation: (family, edges, tree
# vertex of each family vertex, witness); tree vertex i flips family vertex
# i's members, and an edge label is a universe position: a is 0 and b is 1
BAD_TREES = [
    # the path va - e - vb - vab: each edge adds its label, but a is on two edges
    ([E, VA, VB, VAB], [(0, 1, 0), (0, 2, 1), (2, 3, 0)], [0, 1, 2, 3],
     "label a is on edges (0, 1) and (2, 3)"),
    # the path e - va - vab with the family vertices of e and va swapped
    ([E, VA, VAB], [(0, 1, 0), (1, 2, 1)], [1, 0, 2],
     "family vertex 0 sits at tree vertex 1, whose members differ"),
]


def hand_built_tree(subsets, edges, family_vertex):
    system = build_track_system(explicit_family(["a", "b"], subsets))
    tree = DualTree(system, [v.members for v in system.family.vertices], edges, list(family_vertex))
    _assert_tree(tree)
    return tree


@pytest.mark.parametrize("subsets, edges, family_index, witness", BAD_TREES)
def test_separation_witness_on_hand_built_trees(subsets, edges, family_index, witness):
    tree = hand_built_tree(subsets, edges, family_index)
    assert separation_witness(tree) == witness
    assert not all_pairs_separation(tree)


# graphs that are not trees hanging from the base by parent edges: (family,
# edges, the start of the error), as in BAD_TREES
NOT_ROOTED = [
    # the path e - va - vab - vb: vertex 3 has two lower edges, vertex 2 none
    ([E, VA, VB, VAB], [(0, 1, 0), (1, 3, 1), (2, 3, 0)],
     "edge (2, 3) is not the one edge from a reached vertex to 3"),
    # the path e - va - vab, its edges out of order: vertex 1 is left before it is reached
    ([E, VA, VAB], [(1, 2, 1), (0, 1, 0)],
     "edge (1, 2) is not the one edge from a reached vertex to 2"),
    # vertex 0, the base, flips a
    ([VA, E], [(0, 1, 0)], "base vertex 0 has flips"),
    # the path e - va - vab - vb in that order: the last edge removes a
    ([E, VA, VAB, VB], [(0, 1, 0), (1, 2, 1), (2, 3, 0)], "edge (2, 3) does not add label 0"),
    # an edge down to a smaller vertex
    ([E, VA], [(1, 0, 0)], "edge (1, 0) is not the one edge from a reached vertex to 0"),
    # a cycle has as many edges as vertices
    ([E, VA, VB, VAB], [(0, 1, 0), (0, 2, 1), (1, 3, 1), (2, 3, 0)],
     "4 edges on 4 vertices is not a tree"),
]


@pytest.mark.parametrize("subsets, edges, error", NOT_ROOTED)
def test_assert_tree_rejects_graphs_not_rooted_at_the_base(subsets, edges, error):
    with pytest.raises(TrackTreeError, match=re.escape(error)):
        hand_built_tree(subsets, edges, range(len(subsets)))


@pytest.mark.parametrize("seed", range(12))
def test_separation_witness_matches_all_pairs_search(seed):
    trees = [build_tree(build_track_system(random_nested_family(seed)[0]))]
    if seed == 0:
        trees += [run_instance(spec).tree for spec in (*corpus().values(), fig1_exhibit())]
        trees += [hand_built_tree(*bad[:3]) for bad in BAD_TREES]
    for tree in trees:
        assert (separation_witness(tree) is None) == all_pairs_separation(tree)


# --------------------------------------------------------------------------
# group action


def test_act_identity():
    result = run("E1")
    vertex_map = act(result.tree, Z.identity())
    assert vertex_map == list(range(result.tree.vertex_count))


def test_act_shift_on_half_line():
    result = run("E1")
    tree = result.tree
    vertex_map = act(tree, Z.normalize("t"))
    assert sum(x is not None for x in vertex_map) == tree.vertex_count - 1
    # base maps to the vertex of the right-shifted half line
    t_index = [i for i, v in enumerate(result.family.vertices) if v.element.word == "t"][0]
    assert vertex_map[tree.base_index] == tree.family_vertex[t_index]


def test_act_maps_the_base_vertex_to_the_translate_flips():
    # the base vertex flips nothing, so g sends it to the vertex flipping d_g
    for name in ("E1", "E2", "E3", "E4"):
        result = run(name)
        tree = result.tree
        for v in result.family.vertices:
            assert act(tree, v.element)[tree.base_index] == tree.flip_index.get(
                translate_flips(tree, v.element)), (name, v.name)


def test_act_subgroup_element_fixes_everything():
    result = run("E2")
    window = result.family.window
    vertex_map = act(result.tree, window.model.normalize("x"))
    assert vertex_map[result.tree.base_index] == result.tree.base_index
    x = window.model.normalize("x")
    assert all(window.locate(compose(GroupElement(window.model, window.omega[p]), x)) == p
               for p in bit_positions(result.system.label_bits))


def test_act_outside_certified_domain():
    result = run("E1")
    with pytest.raises(OutsideCertifiedDomain):
        act(result.tree, Z.normalize("t" * 8))


# --------------------------------------------------------------------------
# stabilizers


def test_stabilizers_half_line():
    result = run("E1")
    st = stabilizer_analysis(result.tree, Z.ball(2),
                             expected_k=subgroup(Z, []), expected_k_exact=True)
    assert st.vertex_stabilizers[result.tree.base_index] == ("1",)
    assert st.base_witness is None
    assert all(s == ("1",) for s in st.edge_stabilizers)
    assert not any(st.edge_witnesses)
    assert st.class_union is not None and st.class_union.class_size == 1


def test_stabilizers_rows():
    result = run("E2")
    window = result.family.window
    model, sub = window.model, window.sub
    ball = model.ball(2)
    st = stabilizer_analysis(result.tree, ball, expected_k=sub, expected_k_exact=True)
    h_ball = tuple(sorted((e.word or "1" for e in ball if sub.member(e)),
                          key=lambda w: model.sort_key("" if w == "1" else w)))
    for stab in st.edge_stabilizers:
        assert stab == h_ball
    assert st.base_witness is None
    assert st.class_union.class_size == 1 and st.class_union.witness is None


def test_stabilizers_alternate_on_dihedral_line():
    result = run("E4")
    tree = result.tree
    model = result.family.window.model
    st = stabilizer_analysis(result.tree, model.ball(3),
                             expected_k=subgroup(model, ["t"]), expected_k_exact=True)
    by_flips = {tuple(sorted(result.family.keys_of(f))): st.vertex_stabilizers[i]
                for i, f in enumerate(tree.flips)}
    assert by_flips[()] == ("1", "t")
    assert by_flips[("",)] == ("1", "s")            # midpoint fixed by s
    assert by_flips[("", "s")] == ("1", "sts")      # next vertex: conjugate of t
    assert by_flips[("t",)] == ("1", "tst")         # other midpoint: conjugate of s
    assert st.base_witness is None
    # union of the identity-coset class is the order-two subgroup on s
    assert st.class_union.class_size == 2
    assert st.class_union.witness is None


def test_stabilizer_analysis_requires_window():
    tree = build_tree(star_system())
    with pytest.raises(OutsideCertifiedDomain):
        stabilizer_analysis(tree, [])


def test_stabilizers_free_group_over_letter_subgroup():
    result = run("E3")
    window = result.family.window
    model, sub = window.model, window.sub
    st = stabilizer_analysis(result.tree, model.ball(2), expected_k=sub, expected_k_exact=True)
    base_stab = st.vertex_stabilizers[result.tree.base_index]
    assert base_stab == ("1", "a", "A", "aa", "AA")
    assert st.base_witness is None
    assert not any(st.edge_witnesses)
    # the identity-coset class is a singleton, so its union in the window
    # is the subgroup itself
    assert st.class_union.class_size == 1
    assert st.class_union.witness is None
