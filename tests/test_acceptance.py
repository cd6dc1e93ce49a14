"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All tolerances are exact; the only numeric budget is the 10 s per-instance
runtime bound on the parity/corner scans.
"""

import functools
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import tracktree
from tracktree import (
    assign_labels,
    build_track_system,
    build_tree,
    corpus,
    crossing_exhibit,
    fig1_exhibit,
    nestedness_check,
    oracle_labelings,
    oracle_orientations,
    radius_stability_report,
    random_nested_family,
    run_instance,
    stabilizer_analysis,
    subgroup,
    tree_matches_oracle,
)
from tracktree.instances import make_base_spec, make_model, token_word
from tracktree.patterns import corner_analysis, parity_and_coloring
from tracktree.trees import tree_metric_and_separation
from tracktree.windows import bit_positions

from labeling_reference import labeling_matches_canonical
from tree_reference import tree_colors

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "demos" / "instances"
# the directory the package was imported from, for subprocesses with a bare environment
PACKAGE_PATH = str(Path(tracktree.__file__).resolve().parent.parent)
RANDOM_SEEDS = range(100)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")
        return run
    return wrap


@functools.lru_cache(maxsize=None)
def corpus_results():
    return {name: run_instance(spec) for name, spec in corpus().items()}


@functools.lru_cache(maxsize=None)
def random_systems():
    out = []
    for seed in RANDOM_SEEDS:
        family, info = random_nested_family(seed)
        out.append((build_track_system(family), info))
    return out


def scan_parity_and_corners(system):
    fam = system.family
    parity_and_coloring(fam)
    for u, v, w in itertools.combinations(range(system.n), 3):
        assert (fam.distance(u, v) + fam.distance(v, w) + fam.distance(u, w)) % 2 == 0
        for corner in corner_analysis(fam, u, v, w):
            assert corner.count >= 0
            assert corner.count == corner.cosets.bit_count()


@criterion("parity & corners: corpus, 100 random families, Fig-1 vector, <10s each")
def test_parity_and_corners():
    for name, result in corpus_results().items():
        start = time.perf_counter()
        scan_parity_and_corners(result.system)
        assert time.perf_counter() - start < 10.0, name
    for system, info in random_systems():
        assert system.n <= 12 and len(system.family.universe) <= 64
        start = time.perf_counter()
        scan_parity_and_corners(system)
        assert time.perf_counter() - start < 10.0, info.seed
    fig1 = run_instance(fig1_exhibit())
    fam = fig1.system.family
    corners = corner_analysis(fam, 0, 1, 2)
    assert [c.count for c in corners] == [3, 2, 2]
    weights = (fam.distance(0, 1), fam.distance(0, 2), fam.distance(1, 2))
    assert weights == (5, 5, 4)
    assert sum(weights) == 14


@criterion("nestedness: corpus certified nested, crossing family rejected with witness")
def test_nestedness():
    for name, result in corpus_results().items():
        assert result.report.status == "pass", name
        assert nestedness_check(result.system).ok, name
    witnessed = nestedness_check(build_track_system(
        run_instance(crossing_exhibit()).family))
    assert not witnessed.ok
    c1, c2, quadrant = witnessed.witness
    assert {c1, c2} == {"a", "b"}
    assert len(quadrant) == 4 and len(set(quadrant)) == 4


@criterion("labelling uniqueness: count = prod(class size)!, all within-class, exact")
def test_labelling_uniqueness():
    systems = [result.system for result in corpus_results().values()]
    systems.append(run_instance(fig1_exhibit()).system)
    for system, _ in random_systems():
        if system.label_bits.bit_count() <= 8 and system.n <= 8:
            systems.append(system)
    checked = 0
    for system in systems:
        if system.label_bits.bit_count() > 8 or system.n > 8:
            continue
        oracle = oracle_labelings(system)
        expected = 1
        for bits in system.class_bits:
            for k in range(2, bits.bit_count() + 1):
                expected *= k
        assert oracle.count == expected == oracle.expected_count
        canonical = assign_labels(system)
        assert tuple(canonical[e] for e in oracle.edges) in oracle.labelings
        for labeling in oracle.labelings:
            assert labeling_matches_canonical(system, canonical, labeling, oracle.edges)
        checked += 1
    assert checked >= 5


@criterion("tree-ness & oracle equivalence: corpus and 100 random families, exact")
def test_treeness_and_oracle_equivalence():
    def verify(system, tree):
        assert tree.edge_count == tree.vertex_count - 1
        colors = tree_colors(tree)
        seen = {tree.base_index}
        stack = [tree.base_index]
        while stack:
            x = stack.pop()
            for y, _ in tree.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert len(seen) == tree.vertex_count
        for i, j, label in tree.edges:
            assert tree.flips[i] ^ tree.flips[j] == 1 << label
            assert colors[i] != colors[j]
        assert tree_matches_oracle(tree, oracle_orientations(system))

    for name, result in corpus_results().items():
        verify(result.system, result.tree)
    for system, info in random_systems():
        tree = build_tree(system)
        verify(system, tree)
        assert tree.vertex_count == info.tree_vertex_count
        assert tree.edge_count == info.tree_edge_count


@criterion("separation & geodesics: path labels = B_u + B_v for all tree pairs, exact")
def test_separation_and_geodesics():
    trees = [(r.system, r.tree) for r in corpus_results().values()]
    for system, _ in random_systems()[:20]:
        trees.append((system, build_tree(system)))
    for system, tree in trees:
        for a in range(tree.vertex_count):
            for b in range(a, tree.vertex_count):
                path = tree_metric_and_separation(tree, a, b)
                expected = set(bit_positions(tree.flips[a] ^ tree.flips[b]))
                assert path.length == len(expected)
                assert set(path.labels) == expected
                assert len(path.labels) == len(set(path.labels))
        for i in range(system.n):
            for j in range(i + 1, system.n):
                ti, tj = tree.family_vertex[i], tree.family_vertex[j]
                assert tree_metric_and_separation(tree, ti, tj).length == system.family.distance(i, j)


@criterion("G-action & stabilizers: E1/E2 exact in the ball, class-union index = class size")
def test_action_and_stabilizers():
    results = corpus_results()

    e1 = results["E1"]
    model = e1.family.window.model
    degrees = sorted(len(neighbours) for neighbours in e1.tree.adjacency)
    assert degrees == [1, 1, 2, 2, 2]  # a path
    st1 = stabilizer_analysis(e1.tree, model.ball(2),
                              expected_k=subgroup(model, []), expected_k_exact=True)
    assert st1.vertex_stabilizers[e1.tree.base_index] == ("1",)
    assert st1.base_witness is None
    assert all(s == ("1",) for s in st1.edge_stabilizers)

    e2 = results["E2"]
    window = e2.family.window
    ball = window.model.ball(2)
    st2 = stabilizer_analysis(e2.tree, ball, expected_k=window.sub, expected_k_exact=True)
    h_ball = tuple(sorted(
        ((e.word or "1") for e in ball if window.sub.member(e)),
        key=lambda w: window.model.sort_key("" if w == "1" else w)))
    for stab in st2.edge_stabilizers:
        assert stab == h_ball
    expected = {(e.word or "1") for e in ball if window.sub.member(e)}
    assert expected <= set(st2.vertex_stabilizers[e2.tree.base_index])

    for name, result in results.items():
        action_radius = result.spec.action_radius or result.spec.margin
        st = stabilizer_analysis(result.tree, result.family.window.model.ball(action_radius))
        cu = st.class_union
        assert cu is not None, name
        assert cu.witness is None, name
        # H is coset id 0, in the class: the class size is H's index in the union
        assert cu.class_size == {"E1": 1, "E2": 1, "E3": 1, "E4": 2}[name], name
        assert not any(st.edge_witnesses), name


@criterion("certification soundness: witness sets stable under radius+2 recomputation")
def test_certification_soundness():
    for name, spec in corpus().items():
        model = make_model(spec)
        sub = subgroup(model, [token_word(w) for w in spec.subgroup_generators])
        window_result = corpus_results()[name]
        window = window_result.family.window
        base_spec = make_base_spec(model, spec)
        translations = [model.normalize(token_word(w)) for w in spec.translations]
        changed = radius_stability_report(window, base_spec, translations, window_result.family)
        assert changed is None, (name, changed)
        assert any(c.name == "witness_stability" and c.status == "pass"
                   for c in window_result.report.checks), name


@criterion("determinism: byte-identical reports for repeated checks")
def test_determinism():
    for name in ("E1", "E2", "E3", "E4", "crossing", "fig1"):
        path = INSTANCE_DIR / f"{name}.ini"
        outputs = []
        for seed in ("101", "202"):
            proc = subprocess.run(
                [sys.executable, "-m", "tracktree.cli", "check", str(path)],
                capture_output=True, env={"PYTHONHASHSEED": seed, "PATH": "", "PYTHONPATH": PACKAGE_PATH})
            outputs.append(proc.stdout)
            assert proc.returncode in (0, 2), (name, proc.stderr)
        assert outputs[0] == outputs[1], name
        json.loads(outputs[0])
