"""Every dual tree the package builds passes the independent certificate
checker, and every hand-built bad tree fails it; every vertex map the action
certifies passes the independent action checker, and hand-made bad maps
fail it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracktree import (
    act,
    build_track_system,
    build_tree,
    corpus,
    fig1_exhibit,
    parse_instance_text,
    run_instance,
)
from tracktree import patterns
from tracktree.errors import NotNested, OutsideCertifiedDomain
from tracktree.oracles import random_nested_family
from tracktree.trees import translate_flips

import test_instances
import test_patterns
import test_trees
from tree_certificate import action_witness, certificate_witness


def family_tree(family):
    return build_tree(build_track_system(family))


def test_certificate_holds_on_the_corpus_and_fig1():
    trees = [run_instance(spec).tree for spec in (*corpus().values(), fig1_exhibit())]
    trees = [tree for tree in trees if tree is not None]
    assert len(trees) >= 5
    for tree in trees:
        assert certificate_witness(tree) is None


@pytest.mark.parametrize("classes", range(1, 49))
def test_certificate_holds_on_random_nested_families(classes, monkeypatch):
    # past 15 classes the family has more vertices than the pattern layer's cap
    monkeypatch.setattr(patterns, "DEFAULT_MAX_VERTICES", 49)
    for seed in range(3):
        family, _ = random_nested_family(seed, exact_classes=classes)
        tree = family_tree(family)
        assert tree.edge_count >= classes
        assert certificate_witness(tree) is None


@settings(max_examples=150, deadline=None)
@given(st.one_of(test_patterns.families, test_patterns.grafted_families_at_the_cap(),
                 test_trees.tree_families(), test_trees.tree_families(max_vertices=20, drop=True)))
def test_certificate_holds_on_the_pattern_test_families(family):
    try:
        tree = family_tree(family)
    except NotNested:
        return
    assert certificate_witness(tree) is None


@pytest.mark.parametrize("subsets, edges, family_index, witness", test_trees.BAD_TREES)
def test_certificate_rejects_the_bad_trees(subsets, edges, family_index, witness):
    assert certificate_witness(test_trees.hand_built_tree(subsets, edges, family_index))


def certified_actions(result):
    """(d_g, vertex map) of each element of the run's action ball whose action is certified."""
    tree, spec = result.tree, result.spec
    radius = spec.action_radius if spec.action_radius is not None else spec.margin
    out = []
    for g in tree.system.family.window.model.ball(radius):
        try:
            vertex_map = act(tree, g)
        except OutsideCertifiedDomain:
            continue
        out.append((translate_flips(tree, g), vertex_map))
    return out


def action_runs():
    corpus_specs = corpus()
    c = parse_instance_text(test_instances.FREE_PRODUCT_C)
    runs = [run_instance(spec) for spec in corpus_specs.values()]
    runs += [run_instance(corpus_specs["E3"], radius=r) for r in range(6, 11)]
    runs += [run_instance(c, radius=r) for r in (5, 6, 8)]
    return runs


def test_action_certificate_holds_on_every_certified_ball_element():
    maps = 0
    for result in action_runs():
        assert result.report.status == "pass", result.spec.name
        tree = result.tree
        actions = certified_actions(result)
        assert actions, result.spec.name
        for d_g, vertex_map in actions:
            assert action_witness(tree.flips, tree.edges, vertex_map, d_g) is None
        maps += len(actions)
    assert maps == 157


def test_action_certificate_rejects_hand_made_maps():
    tree = run_instance(corpus()["E4"]).tree
    flips, edges, n = tree.flips, tree.edges, tree.vertex_count
    identity = list(range(n))
    assert action_witness(flips, edges, identity, 0) is None
    # the base must go to the vertex flipping d_g
    assert action_witness(flips, edges, identity, flips[1]) == (
        "the base goes to 0, not to the vertex flipping d_g")
    # two vertices go to one
    assert action_witness(flips, edges, [0, 0, *identity[2:]], 0) == "two vertices go to one"
    # swap a neighbour u of the base with a vertex v that is not one: the edge
    # (0, u) goes to (0, v)
    u = next(j for i, j, _ in edges if i == 0)
    v = next(x for x in range(1, n) if (0, x) not in {(i, j) for i, j, _ in edges})
    swapped = identity.copy()
    swapped[u], swapped[v] = v, u
    assert action_witness(flips, edges, swapped, 0).endswith("which is not an edge")
