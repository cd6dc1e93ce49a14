"""Every dual tree the package builds passes the independent certificate
checker, and every hand-built bad tree fails it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracktree import build_track_system, build_tree, corpus, fig1_exhibit, run_instance
from tracktree import patterns
from tracktree.errors import NotNested
from tracktree.oracles import random_nested_family

import test_patterns
import test_trees
from tree_certificate import certificate_witness


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
