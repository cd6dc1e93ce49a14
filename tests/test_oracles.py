"""Brute-force oracles and the random nested family generator."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracktree import (
    assign_labels,
    build_track_system,
    build_tree,
    explicit_family,
    nestedness_check,
    oracle_labelings,
    oracle_orientations,
    random_nested_family,
    run_instance,
    tree_matches_oracle,
)
import tracktree.oracles
from tracktree.errors import SearchBudgetExceeded, TooLarge
from tracktree.oracles import (
    MAX_ORACLE_CLASSES,
    OrientationOracle,
    labeling_verdict,
)
from tracktree.trees import orientation_consistent
from tracktree.windows import bit_positions

from labeling_reference import (
    labeling_matches_canonical,
    reference_oracle_labelings,
    reference_verdict,
)
from shipped_instances import group_instances


def band_system():
    return build_track_system(explicit_family(
        ["a", "b"], [("e", frozenset()), ("vab", frozenset(["a", "b"]))]))


# --------------------------------------------------------------------------
# orientation oracle


def test_oracle_band_family():
    system = band_system()
    oracle = oracle_orientations(system)
    assert sorted(system.family.keys_of(f) for f in oracle.vertex_flips) == [[], ["a"], ["a", "b"]]
    # flip sets and labels over the universe: a is position 0 and b is 1
    assert oracle.edges == {(0b00, 0b01, 0), (0b01, 0b11, 1)}


def test_oracle_half_line():
    result = run_instance(group_instances()["E1"])
    oracle = oracle_orientations(result.system)
    assert len(oracle.vertex_flips) == 5
    assert tree_matches_oracle(result.tree, oracle)


def test_oracle_empty_track_set():
    fam = explicit_family(["a"], [("v", frozenset(["a"]))])
    oracle = oracle_orientations(build_track_system(fam))
    assert len(oracle.vertex_flips) == 1 and not oracle.edges


def test_oracle_rejects_large_systems():
    fam, _ = random_nested_family(0, exact_classes=13 - 1 + 1)  # 13 classes
    system = build_track_system(fam)
    with pytest.raises(TooLarge):
        oracle_orientations(system)


def test_oracle_matches_tree_on_corpus():
    for name, spec in group_instances().items():
        result = run_instance(spec)
        assert tree_matches_oracle(result.tree, oracle_orientations(result.system)), name


def test_oracle_matches_tree_on_random_families():
    for seed in range(100):
        family, info = random_nested_family(seed)
        system = build_track_system(family)
        tree = build_tree(system)
        assert tree_matches_oracle(tree, oracle_orientations(system)), seed
        assert tree.vertex_count == info.tree_vertex_count
        assert tree.edge_count == info.tree_edge_count


def reference_orientations(system):
    """The orientation oracle by its definition: every one of the 2^classes
    side choices is tested for consistency, and each pair of consistent
    choices that differ in a single class is subdivided by the class's
    labels in universe order."""
    m = len(system.class_bits)
    consistent = [o for o in range(1 << m) if orientation_consistent(system, o)]

    def flips_of(orientation):
        out = 0
        for k in range(m):
            if (orientation >> k) & 1:
                out |= system.class_bits[k]
        return out

    vertices = {flips_of(o) for o in consistent}
    edges = set()
    for a, b in itertools.combinations(consistent, 2):
        x = a ^ b
        if x & (x - 1):
            continue
        k = x.bit_length() - 1
        tail = a if not (a >> k) & 1 else b
        labels = bit_positions(system.class_bits[k])
        prev = flips_of(tail)
        for step, label in enumerate(labels):
            nxt = prev | 1 << label
            if step == len(labels) - 1:
                nxt = flips_of(tail) | system.class_bits[k]
            vertices.add(nxt)
            edges.add((min(prev, nxt), max(prev, nxt), label))
            prev = nxt
    return OrientationOracle(frozenset(vertices), frozenset(edges)), len(consistent)


def assert_matches_reference_orientations(family):
    system = build_track_system(family)
    assert len(system.class_bits) <= MAX_ORACLE_CLASSES
    assert oracle_orientations(system) == reference_orientations(system)[0]


@st.composite
def grafted_families(draw, max_classes=10, max_extra_cosets=4):
    """A random nested family of three to ten classes with two keys g0, g1
    added so that four of its vertices sit in the four quadrants of the
    pair: the family crosses, and has at most 12 classes."""
    family, _ = random_nested_family(draw(st.integers(0, 2**32)),
                                     max_extra_cosets=max_extra_cosets,
                                     exact_classes=draw(st.integers(3, max_classes)))
    n = len(family)
    quadrant = draw(st.permutations(range(n)))[:4]
    held = {v: draw(st.sets(st.sampled_from(["g0", "g1"]))) for v in range(n)}
    for v, keys in zip(quadrant, ([], ["g0"], ["g1"], ["g0", "g1"])):
        held[v] = set(keys)
    subsets = [(v.name, frozenset(family.keys_of(v.members)) | held[i])
               for i, v in enumerate(family.vertices)]
    return explicit_family([*family.universe, "g0", "g1"], subsets)


@st.composite
def subset_families(draw, max_keys=12, max_vertices=10):
    """Two to ten distinct random subsets of a universe of at most twelve
    keys, so at most twelve classes; most of them cross."""
    universe = [f"k{i:02d}" for i in range(draw(st.integers(1, max_keys)))]
    members = draw(st.lists(st.frozensets(st.sampled_from(universe)),
                            min_size=2, max_size=max_vertices, unique=True))
    return explicit_family(universe, [(f"v{i}", m) for i, m in enumerate(members)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_oracle_search_matches_definition_on_random_nested_families(seed):
    assert_matches_reference_orientations(random_nested_family(seed)[0])


@settings(max_examples=100, deadline=None)
@given(grafted_families())
def test_oracle_search_matches_definition_on_grafted_families(family):
    assert_matches_reference_orientations(family)


@settings(max_examples=150, deadline=None)
@given(subset_families())
def test_oracle_search_matches_definition_on_random_subset_families(family):
    assert_matches_reference_orientations(family)


def test_oracle_confirms_only_the_surviving_orientations(monkeypatch):
    calls = [0]

    def counted(system, orientation):
        calls[0] += 1
        return orientation_consistent(system, orientation)

    system = run_instance(group_instances()["E1"]).system
    monkeypatch.setattr(tracktree.oracles, "orientation_consistent", counted)
    oracle_orientations(system)
    assert calls[0] == 5
    for seed in range(100):
        system = build_track_system(random_nested_family(seed)[0])
        calls[0] = 0
        oracle_orientations(system)
        _, consistent = reference_orientations(system)
        assert calls[0] == consistent == len(system.class_bits) + 1, seed


# --------------------------------------------------------------------------
# labeling oracle


def test_labelings_band_family():
    oracle = oracle_labelings(band_system())
    assert oracle.count == 2 and oracle.expected_count == 2


def test_labelings_all_singletons():
    result = run_instance(group_instances()["E1"])
    oracle = oracle_labelings(result.system)
    assert oracle.count == 1 == oracle.expected_count


def test_labelings_crafted_two_three():
    fam = explicit_family(
        ["a", "b", "c", "d", "e"],
        [("v0", frozenset()), ("v1", frozenset(["a", "b"])),
         ("v2", frozenset(["a", "b", "c", "d", "e"]))])
    oracle = oracle_labelings(build_track_system(fam))
    assert oracle.count == 12 == oracle.expected_count


def test_labelings_within_class_structure():
    fam = explicit_family(
        ["c1", "c2", "c3", "c4", "c5", "c6", "c7"],
        [("u", frozenset(["c1", "c2", "c3"])), ("v", frozenset(["c4", "c5"])),
         ("w", frozenset(["c6", "c7"]))])
    system = build_track_system(fam)
    oracle = oracle_labelings(system)
    assert oracle.count == 24 == oracle.expected_count
    canonical = assign_labels(system)
    assert tuple(canonical[e] for e in oracle.edges) in oracle.labelings
    for labeling in oracle.labelings:
        assert labeling_matches_canonical(system, canonical, labeling, oracle.edges)
    assert labeling_verdict(system, canonical, oracle) == (True, True, True)
    # read backwards, an edge's labels no longer match its corners
    edge = oracle.edges[0]
    broken = {**canonical, edge: canonical[edge][::-1]}
    verdict = labeling_verdict(system, broken, oracle)
    assert not verdict.canonical_is_valid and verdict.count_matches


def reference_labelings(system, edges):
    """Every labeling, edge by edge: each order of an edge's labels is kept
    when it agrees, at every shared vertex, with each earlier edge on as
    many labels as the two edges share."""
    fam = system.family
    found = []

    def read_from(order, edge, vertex):
        return order if edge[0] == vertex else order[::-1]

    def labels(edge):
        return bit_positions(fam.diff(*edge))

    def agrees(order, edge, prev, e):
        count = len(set(labels(e)) & set(labels(edge)))
        return all(read_from(order, edge, a)[:count] == read_from(prev, e, a)[:count]
                   for a in set(e) & set(edge))

    def extend(chosen):
        k = len(chosen)
        if k == len(edges):
            found.append(tuple(chosen))
            return
        for order in itertools.permutations(labels(edges[k])):
            if all(agrees(order, edges[k], prev, e) for e, prev in zip(edges, chosen)):
                extend(chosen + [order])

    extend([])
    return set(found)


def small_families():
    for seed in range(12):
        yield random_nested_family(seed, max_vertices=5, max_extra_cosets=2, max_constants=1)[0]
    for seed in range(12):
        rng = random.Random(seed)
        universe = [f"k{i}" for i in range(rng.randint(2, 4))]
        subsets = list({frozenset(k for k in universe if rng.random() < 0.5)
                        for _ in range(rng.randint(2, 5))})
        if len(subsets) > 1:
            yield explicit_family(universe, [(f"v{i}", m) for i, m in enumerate(subsets)])


@pytest.mark.parametrize("fam", list(small_families()), ids=lambda fam: str(len(fam)))
def test_labelings_match_exhaustive_reference(fam):
    system = build_track_system(fam)
    oracle = oracle_labelings(system)
    assert len(oracle.labelings) == len(set(oracle.labelings)) == oracle.count
    assert set(oracle.labelings) == reference_labelings(system, oracle.edges)


def test_labelings_cap():
    fam, _ = random_nested_family(1, exact_classes=9)
    with pytest.raises(TooLarge):
        oracle_labelings(build_track_system(fam))


def test_labelings_budget_steps_are_pinned():
    # path v0 - v1 - v2 with classes of 6 and 2 keys: 6! orders of the first
    # edge, 2 fillings of the second after its 6-label prefix, and one forced
    # order of the third, one budget step each
    six = frozenset(f"c{k}" for k in range(6))
    system = build_track_system(explicit_family(
        [*sorted(six), "c6", "c7"],
        [("v0", frozenset()), ("v1", six), ("v2", six | {"c6", "c7"})]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracktree.oracles, "DFS_BUDGET", 720 + 2 * 1440)
        assert oracle_labelings(system).count == 1440
        mp.setattr(tracktree.oracles, "DFS_BUDGET", 720 + 2 * 1440 - 1)
        with pytest.raises(SearchBudgetExceeded):
            oracle_labelings(system)


def budget_system():
    """The family of ``test_labelings_budget_steps_are_pinned``: its edges are
    (v0, v1), (v0, v2) and (v1, v2), with 720, 1 440 and 1 440 steps."""
    six = frozenset(f"c{k}" for k in range(6))
    return build_track_system(explicit_family(
        [*sorted(six), "c6", "c7"],
        [("v0", frozenset()), ("v1", six), ("v2", six | {"c6", "c7"})]))


@pytest.mark.parametrize("budget", [720 + 100, 720 + 1440 + 100], ids=["(v0, v2)", "(v1, v2)"])
def test_labelings_budget_runs_out_inside_an_edge(budget):
    system = budget_system()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracktree.oracles, "DFS_BUDGET", budget)
        for search in (oracle_labelings, reference_oracle_labelings):
            with pytest.raises(SearchBudgetExceeded):
                search(system)


def test_labelings_budget_covers_every_edge():
    system = budget_system()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracktree.oracles, "DFS_BUDGET", 720 + 2 * 1440)
        oracle = oracle_labelings(system)
        want, steps = reference_oracle_labelings(system)
    assert oracle.edges == [(0, 1), (0, 2), (1, 2)] and steps == 720 + 2 * 1440
    assert oracle.count == len(oracle.labelings) == 1440
    assert oracle.labelings == want.labelings


def altered_lists(system, labelings):
    """No labelings, and the oracle's labelings with the last one altered:
    an edge reversed, cut short or grown by a label, the least labels of two
    classes swapped throughout, or an edge's first label repeated in place
    of its last."""
    yield []
    *kept, last = labelings
    for k, order in enumerate(last):
        for altered in (order[::-1], order[:-1], order + order[:1], order[:-1] + order[:1]):
            if altered != order:
                yield [*kept, last[:k] + (altered,) + last[k + 1:]]
    if len(system.class_bits) > 1:
        a, b = (bit_positions(bits)[0] for bits in system.class_bits[:2])
        swap = {a: b, b: a}
        yield [*kept, tuple(tuple(swap.get(x, x) for x in order) for order in last)]


@pytest.mark.parametrize("family", [
    band_system().family,  # a single edge
    budget_system().family,
    *(random_nested_family(seed, max_vertices=5, max_extra_cosets=2)[0] for seed in range(6)),
], ids=lambda family: f"{len(family)} vertices")
def test_labeling_verdict_on_altered_oracle_lists(family):
    system = build_track_system(family)
    oracle = oracle_labelings(system)
    candidates = [dict(zip(oracle.edges, oracle.labelings[0]))]
    if nestedness_check(system).ok:
        candidates.append(assign_labels(system))
    verdicts = set()
    for labelings in altered_lists(system, oracle.labelings):
        altered = oracle._replace(labelings=labelings)
        for canonical in candidates:
            verdict = labeling_verdict(system, canonical, altered)
            assert verdict == reference_verdict(system, canonical, altered)
            verdicts.add(verdict.all_within_class)
    assert verdicts == {True, False}
    # a labeling with an edge too few or too many: the verdict and the
    # reference both refuse it
    *kept, last = oracle.labelings
    for labeling in (last[:-1], last + last[-1:]):
        altered = oracle._replace(labelings=[*kept, labeling])
        verdict = labeling_verdict(system, candidates[0], altered)
        assert verdict == reference_verdict(system, candidates[0], altered)
        assert not verdict.all_within_class


def broken_labelings(system, canonical, oracle):
    """The canonical labeling, one reversed copy and one copy cut short per
    edge, a copy with the last label of the first edge moved to the front of
    the second (the same labels in the same flat order), and a copy with the
    least labels of two classes swapped on every edge."""
    yield canonical
    for edge in oracle.edges:
        yield {**canonical, edge: canonical[edge][::-1]}
        yield {**canonical, edge: canonical[edge][:-1]}
    if len(oracle.edges) > 1:
        e0, e1 = oracle.edges[:2]
        yield {**canonical, e0: canonical[e0][:-1], e1: canonical[e0][-1:] + canonical[e1]}
    if len(system.class_bits) > 1:
        a, b = (bit_positions(bits)[0] for bits in system.class_bits[:2])
        swap = {a: b, b: a}
        yield {e: tuple(swap.get(x, x) for x in seq) for e, seq in canonical.items()}


def assert_labelings_match_reference(family):
    system = build_track_system(family)
    assert system.label_bits.bit_count() <= 8 and system.n <= 8
    want, steps = reference_oracle_labelings(system)
    with pytest.MonkeyPatch.context() as mp:
        # the same budget steps: enough at the reference's count, short one below it
        mp.setattr(tracktree.oracles, "DFS_BUDGET", steps)
        oracle = oracle_labelings(system)
        if steps:
            mp.setattr(tracktree.oracles, "DFS_BUDGET", steps - 1)
            with pytest.raises(SearchBudgetExceeded):
                oracle_labelings(system)
    assert oracle.edges == want.edges
    assert oracle.labelings == want.labelings
    assert (oracle.count, oracle.expected_count) == (want.count, want.expected_count)
    # nested systems carry the canonical labels; any enumerated labeling
    # serves as the candidate on the others
    candidates = [dict(zip(oracle.edges, lab)) for lab in oracle.labelings[:1] + oracle.labelings[-1:]]
    if nestedness_check(system).ok:
        candidates.append(assign_labels(system))
    for candidate in candidates:
        for labels in broken_labelings(system, candidate, oracle):
            assert labeling_verdict(system, labels, oracle) == reference_verdict(system, labels, oracle)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_labelings_match_the_dict_reference_on_random_nested_families(seed):
    assert_labelings_match_reference(random_nested_family(
        seed, max_vertices=7, max_extra_cosets=2)[0])


@settings(max_examples=60, deadline=None)
@given(grafted_families(max_classes=5, max_extra_cosets=1))
def test_labelings_match_the_dict_reference_on_grafted_families(family):
    assert_labelings_match_reference(family)


@settings(max_examples=100, deadline=None)
@given(subset_families(max_keys=8, max_vertices=8))
def test_labelings_match_the_dict_reference_on_random_subset_families(family):
    assert_labelings_match_reference(family)


# --------------------------------------------------------------------------
# random generator


def test_random_family_deterministic():
    fam1, info1 = random_nested_family(42)
    fam2, info2 = random_nested_family(42)
    assert info1 == info2
    assert [v.members for v in fam1.vertices] == [v.members for v in fam2.vertices]


def test_random_family_info_consistent():
    for seed in range(20):
        family, info = random_nested_family(seed)
        assert len(family) == info.vertex_count <= 12
        assert info.track_count == sum(info.class_sizes)
        system = build_track_system(family)
        assert system.label_bits.bit_count() == info.track_count
        assert sorted(bits.bit_count() for bits in system.class_bits) == sorted(info.class_sizes)


def test_random_family_exact_classes():
    family, info = random_nested_family(3, exact_classes=5)
    assert len(info.class_sizes) == 5
    assert info.vertex_count == 6
