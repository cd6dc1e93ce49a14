"""Base sets, properness, tree flips, the windowed action and stabilizers
against the frozenset-of-strings reference they were computed with before
they became int bitsets, and family differences against the window's
certified differences they replaced.

The reference keeps its sets as frozensets of coset keys and maps keys
through string dicts; it reads the window only through ``omega``,
``core``, ``margin``, ``radius`` and ``locate`` (which is tested against
the ball reference in test_windows.py), and moves a key k by g as the
coset of ``compose(k, g)``, not through the walk that ``translate`` makes.
"""

import ast
import itertools
import re
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracktree import (
    BaseSetSpec,
    InstanceSpec,
    act,
    build_base_set,
    build_family,
    build_track_system,
    build_tree,
    build_window,
    compose,
    corpus,
    display_word,
    free_product_of_cyclics,
    hypothesis_report,
    invert,
    run_instance,
    stabilizer_analysis,
    subgroup,
)
from tracktree import trees, windows
from tracktree.errors import CertificationFailure, NotNested, OutsideCertifiedDomain, ParseError
from tracktree.groups import GroupElement
from tracktree.instances import (
    make_base_spec,
    make_model,
    make_subgroup,
    parse_instance_text,
    token_word,
)
from tracktree.trees import ClassUnionReport, StabilizerReport, translate_flips
from test_instances import FAR_RULE, WITNESS_GOLDEN, group_specs


# --------------------------------------------------------------------------
# the reference


def ref_base_set(window, spec):
    return frozenset(k for k in window.omega if spec.decide(k))


def ref_properness(window, inside):
    """Why the shell-meeting heuristic fails on a set of keys, or None."""
    if not inside:
        return "base set is empty"
    if len(inside) == len(window.omega):
        return "complement is empty"
    populated = 0
    for level in range(window.margin, window.radius - window.margin + 1):
        shell_keys = [k for k in window.omega if len(k) == level]
        if not shell_keys:
            continue
        populated += 1
        hit_in = any(k in inside for k in shell_keys)
        hit_out = any(k not in inside for k in shell_keys)
        if not hit_in or not hit_out:
            side = "base set" if not hit_in else "complement"
            return f"{side} misses the distance-{level} shell"
    if populated == 0:
        return "no populated shells in the heuristic range"
    return None


def ref_act_key(window, key: str, g) -> Optional[str]:
    """The key of the coset H*key*g, or None when its word is longer than the radius."""
    j = window.locate(compose(GroupElement(window.model, key), g))
    return window.omega[j] if j >= 0 else None


def ref_translate(window, base_keys: frozenset, g):
    """(known_in, unknown) key sets of the g-translate of a set of keys."""
    ginv = invert(g)
    known_in, unknown = set(), set()
    for k in window.omega:
        pulled = ref_act_key(window, k, ginv)
        if pulled is None:
            unknown.add(k)
        elif pulled in base_keys:
            known_in.add(k)
    return known_in, unknown


class StringTree:
    """A dual tree with frozensets of keys for flip sets, over the window it was built on."""

    def __init__(self, tree):
        family = tree.system.family
        self.tree = tree
        self.system = tree.system
        self.window = family.window
        self.base_set = frozenset(self.window.keys_of(family.base_set))
        self.flips = [frozenset(family.keys_of(f)) for f in tree.flips]
        self.flip_index = {f: i for i, f in enumerate(self.flips)}
        self.id_of = {k: i for i, k in enumerate(self.window.omega)}
        self.core = frozenset(self.window.core)
        self.labels = family.keys_of(tree.system.label_bits)
        # edges labelled by keys, and the classes as key sets
        self.edges = [(i, j, family.universe[label]) for i, j, label in tree.edges]
        self.classes = [frozenset(family.keys_of(bits)) for bits in tree.system.class_bits]

    def translate_flips(self, g) -> frozenset:
        known_in, unknown = ref_translate(self.window, self.base_set, g)
        if unknown & self.core:
            raise OutsideCertifiedDomain(f"translate by {g!r} undecided inside the core")
        diff = (self.base_set ^ known_in) - unknown
        if diff - self.core:
            raise OutsideCertifiedDomain(f"translate by {g!r} shifts the boundary shell")
        return frozenset(diff)

    def act(self, g):
        d_g = self.translate_flips(g)
        label_map = {c: ref_act_key(self.window, c, g) for c in self.labels}
        vertex_map = []
        for flips in self.flips:
            moved = {label_map[c] for c in flips}
            vertex_map.append(None if None in moved else self.flip_index.get(frozenset(moved) ^ d_g))
        return vertex_map

    def stabilizer_analysis(self, ball, expected_k=None, expected_k_exact=False):
        certified = []
        for g in ball:
            try:
                d_g = self.translate_flips(g)
            except OutsideCertifiedDomain:
                continue
            certified.append((g, d_g, {c: ref_act_key(self.window, c, g) for c in self.labels}))

        def image(flips, d_g, label_map):
            moved = {label_map[c] for c in flips}
            return None if None in moved else frozenset(moved) ^ d_g

        def words(elements):
            return tuple(display_word(g.word) for g in sorted(elements, key=lambda e: e.sort_key()))

        vertex_stabs = [words(g for g, d_g, lm in certified if image(f, d_g, lm) == f)
                        for f in self.flips]
        base_stab = set(vertex_stabs[self.tree.base_index])
        base_witness = None
        if expected_k is not None:
            expected_words = {display_word(g.word) for g, _, _ in certified if expected_k.member(g)}
            missing = expected_words - base_stab
            if missing:
                base_witness = f"expected stabilizer element {sorted(missing)[0]} moves the base vertex"
            if expected_k_exact:
                extra = base_stab - expected_words
                if extra and base_witness is None:
                    base_witness = f"unexpected base stabilizer element {sorted(extra)[0]}"

        edge_stabs, edge_witnesses = [], []
        h_ball = [g for g, _, _ in certified if self.window.sub.member(g)]
        certified_words = {g.word for g, _, _ in certified}
        for i, j, label in self.edges:
            fi, fj = self.flips[i], self.flips[j]
            edge_stabs.append(words(
                g for g, d_g, lm in certified
                if lm[label] == label and {image(fi, d_g, lm), image(fj, d_g, lm)} == {fi, fj}))
            rep = GroupElement(self.window.model, label)
            stab_words = set(edge_stabs[-1])
            conjugates = (compose(compose(invert(rep), h), rep) for h in h_ball)
            missing = [c for c in conjugates
                       if c.word in certified_words and display_word(c.word) not in stab_words]
            edge_witnesses.append(
                f"stabilizer of edge ({i}, {j}) labelled {display_word(label)} misses the "
                f"conjugate subgroup element {display_word(missing[0].word)}" if missing else None)
        return StabilizerReport(vertex_stabs, base_witness, edge_stabs, edge_witnesses,
                                self.class_union())

    def class_union(self):
        window = self.window
        identity_class = [c for c in self.classes if window.omega[0] in c]
        if not identity_class:
            return None
        cls = {self.id_of[c] for c in identity_class[0]}
        pool = window.model.ball(window.radius // 2)
        coset = {e.word: window.locate(e) for e in pool}
        union = [e for e in pool if coset[e.word] in cls]
        for e1 in union:
            inv = window.locate(invert(e1))
            if inv >= 0 and inv not in cls:
                return ClassUnionReport(len(cls), f"inverse of {e1!r} escapes the class union")
            for e2 in union:
                prod = window.locate(compose(e1, e2))
                if prod >= 0 and prod not in cls:
                    return ClassUnionReport(len(cls), f"product {e1!r} * {e2!r} escapes the class union")
        return ClassUnionReport(len(cls), None)


# --------------------------------------------------------------------------
# cases: E1-E4 and the free-product instance C


def instance(name):
    """(model, subgroup, radius, margin, base spec, translations, expected K, exact)."""
    if name == "C":
        model = free_product_of_cyclics([2, 2, 2])
        return (model, subgroup(model, ["st"]), 5, 2, BaseSetSpec(rules=(("s", True),)),
                [model.normalize(w) for w in ("", "s", "t", "u")], subgroup(model, ["st"]), False)
    spec = corpus()[name]
    model = make_model(spec)
    return (model, make_subgroup(model, spec.subgroup_generators), spec.radius, spec.margin,
            make_base_spec(model, spec), [model.normalize(token_word(w)) for w in spec.translations],
            make_subgroup(model, spec.expected_k_generators), spec.expected_k_exact)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except OutsideCertifiedDomain as exc:
        return ("OutsideCertifiedDomain", str(exc))


def compare(name, base_spec=None, elements=None, seen=None):
    """Compare every bitset result with the reference on one case; record
    in seen which branches it reached."""
    seen = set() if seen is None else seen
    model, sub, radius, margin, spec, translations, expected_k, exact = instance(name)
    spec = spec if base_spec is None else base_spec
    window = build_window(model, sub, radius, margin)

    base = build_base_set(window, spec)
    assert isinstance(base, int)
    ref = ref_base_set(window, spec)
    assert window.keys_of(base) == [k for k in window.omega if k in ref]
    properness, _, _ = hypothesis_report(window, base, expected_k)
    assert properness == ref_properness(window, ref)
    seen.add(f"properness {properness is None}")

    try:
        family = build_family(window, base, translations)
    except CertificationFailure as exc:
        seen.add(type(exc).__name__)
        return seen
    # the family's differences are XORs of member sets: the certified differences
    translates = {v.element.word: ref_translate(window, ref, v.element) for v in family.vertices}
    for (i, u), (j, v) in itertools.combinations(enumerate(family.vertices), 2):
        (in_u, unknown_u), (in_v, unknown_v) = translates[u.element.word], translates[v.element.word]
        assert set(family.keys_of(family.diff(i, j))) == (in_u ^ in_v) - unknown_u - unknown_v
    try:
        tree = build_tree(build_track_system(family))
    except NotNested as exc:
        seen.add(type(exc).__name__)
        return seen
    assert isinstance(family.base_set, int)
    ref_tree = StringTree(tree)
    base_members = frozenset(family.keys_of(family.vertices[family.base_index].members))
    assert all(isinstance(f, int) for f in tree.flips)
    for v, at in zip(family.vertices, tree.family_vertex):
        assert frozenset(family.keys_of(v.members)) == base_members ^ ref_tree.flips[at]

    elements = model.ball(margin + 1) if elements is None else elements
    for g in elements:
        got, want = outcome(translate_flips, tree, g), outcome(ref_tree.translate_flips, g)
        if got[0] == "ok":
            assert isinstance(got[1], int)
            got = ("ok", frozenset(family.keys_of(got[1])))
        assert got == want
        got, want = outcome(act, tree, g), outcome(ref_tree.act, g)
        assert got == want
        seen.add(want[0] if want[0] != "ok" else
                 f"base image {want[1][tree.base_index] is not None}")
    stab = stabilizer_analysis(tree, elements, expected_k=expected_k, expected_k_exact=exact)
    assert stab == ref_tree.stabilizer_analysis(elements, expected_k, exact)
    seen.add(f"identity class {stab.class_union is not None}")
    seen.add(f"conjugates ok {not any(stab.edge_witnesses)}")
    for kind, stabs in (("vertex", stab.vertex_stabilizers), ("edge", stab.edge_stabilizers)):
        if any(set(words) - {"1"} for words in stabs):
            seen.add(f"{kind} stabilizer beyond 1")
    return seen


@st.composite
def cases(draw):
    """A case with hypothesis-drawn ball elements and, half the time, a drawn base set."""
    name = draw(st.sampled_from(["E1", "E2", "E3", "E4", "C"]))
    model, sub, radius, margin = instance(name)[:4]
    base_spec = None
    if draw(st.booleans()):
        keys = build_window(model, sub, radius, margin).omega
        prefixes = st.sampled_from([k for k in keys if 0 < len(k) <= 2])
        rules = draw(st.lists(st.tuples(prefixes, st.booleans()), max_size=3,
                              unique_by=lambda r: r[0]))
        includes = draw(st.frozensets(st.sampled_from(keys), max_size=3))
        excludes = draw(st.frozensets(st.sampled_from(keys), max_size=3)) - includes
        base_spec = BaseSetSpec(rules=tuple(rules), includes=includes, excludes=excludes,
                                default_in=draw(st.booleans()))
    pool = model.ball(margin + 2)
    elements = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8,
                             unique_by=lambda e: e.word))
    return name, base_spec, elements


@settings(max_examples=150, deadline=None)
@given(cases())
def test_bitsets_match_string_reference(case):
    compare(*case)


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "C"])
def test_bitsets_match_string_reference_on_instances(name):
    assert "base image True" in compare(name)


def test_string_reference_cases_reach_every_branch():
    seen = set()

    @settings(max_examples=80, deadline=None, database=None)
    @given(cases())
    def collect(case):
        compare(*case, seen=seen)

    collect()
    for name in ("E1", "E2", "E3", "E4", "C"):
        compare(name, seen=seen)
    assert {"properness True", "properness False", "OutsideCertifiedDomain",
            "base image True", "identity class True",
            "identity class False", "vertex stabilizer beyond 1",
            "edge stabilizer beyond 1"} <= seen, seen


# --------------------------------------------------------------------------
# no element swaps the two ends of an edge


def case_tree(name, base_spec=None):
    """The dual tree of a case; None where its family is uncertified or not nested."""
    model, sub, radius, margin, spec, translations = instance(name)[:6]
    window = build_window(model, sub, radius, margin)
    base = build_base_set(window, spec if base_spec is None else base_spec)
    try:
        return build_tree(build_track_system(build_family(window, base, translations)))
    except (CertificationFailure, NotNested):
        return None


@settings(max_examples=100, deadline=None)
@given(cases())
@example(("E1", None, None))
@example(("E2", None, None))
@example(("E3", None, None))
@example(("E4", None, None))
@example(("C", None, None))
def test_no_certified_element_swaps_an_edge(case):
    # an edge fixed by g has a label coset k with k*g = k, and V*g holds k
    # iff V does: g keeps each end of the edge on its own side
    name, base_spec, elements = case
    tree = case_tree(name, base_spec)
    if tree is None:
        return
    if elements is None:
        model, _, _, margin = instance(name)[:4]
        elements = model.ball(margin + 2)
    for g in elements:
        try:
            image = act(tree, g)
        except OutsideCertifiedDomain:
            continue
        assert all((image[i], image[j]) != (j, i) for i, j, _ in tree.edges), g


# --------------------------------------------------------------------------
# the action and the class union move cosets by id


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "C"])
def test_action_and_class_union_compose_no_elements(name, monkeypatch):
    # act walks each label's id by g, and the class union walks each product
    # from its first factor's coset id: neither composes elements, and both
    # agree with the reference, which composes keys and locates the result.
    # The elements are the action ball (radius = margin) and one layer more
    model, _, _, margin = instance(name)[:4]
    tree = case_tree(name)
    assert tree is not None
    ref_tree = StringTree(tree)
    elements = model.ball(margin + 1)
    want = [outcome(ref_tree.act, g) for g in elements], ref_tree.class_union()
    calls = []
    compose_elements = trees.compose
    monkeypatch.setattr(trees, "compose", lambda *args: calls.append(args) or compose_elements(*args))
    acted = [outcome(act, tree, g) for g in elements]
    union = trees._class_union_report(tree)
    assert calls == []
    assert (acted, union) == want
    assert any(kind == "ok" for kind, _ in acted)


# --------------------------------------------------------------------------
# the class union walks only toward its class


@pytest.mark.parametrize("rule, keys, witness", [
    ("t", ["", "t"], "inverse of t escapes the class union"),
    # ttt hangs below t and tt, which are not in the class: the walk reaches
    # it only because the ancestors of a class coset are extended
    ("tt", ["", "ttt"], "inverse of ttt escapes the class union"),
])
def test_class_union_walks_past_the_core_toward_its_class(rule, keys, witness):
    # E1 with translations 1, tt and the one rule "rule in": H is trivial in
    # Z, so every coset but H lies past the Stallings core
    spec = corpus()["E1"]._replace(translations=("1", "tt"), base_rules=((rule, True),))
    tree = run_instance(spec).tree
    family = tree.system.family
    assert [family.keys_of(bits) for bits in tree.system.class_bits if bits & 1] == [keys]
    union = trees._class_union_report(tree)
    assert union == ClassUnionReport(2, witness)
    assert union == StringTree(tree).class_union()


def test_class_union_steps_only_toward_its_class(monkeypatch):
    # E3 at radius 10: H = <a> and a one-key class, so past the core the walk
    # stops at once; ball(5) would locate 485 elements
    tree = run_instance(corpus()["E3"], radius=10).tree
    want = StringTree(tree).class_union()
    calls = []
    step = windows._CosetGraph.step
    monkeypatch.setattr(windows._CosetGraph, "step",
                        lambda graph, *args: calls.append(args) or step(graph, *args))
    assert trees._class_union_report(tree) == want == ClassUnionReport(1, None)
    assert 0 < len(calls) <= 100


# --------------------------------------------------------------------------
# the shell witness against the reference


SHELL_WITNESS = re.compile(r"uncertified difference for \(1, (.+)\): "
                           r"symmetric difference touches the boundary shell; enlarge radius")


@settings(max_examples=150, deadline=None)
@given(group_specs())
# raised by the family at the radius, and by the one at radius + 2
@example(InstanceSpec("shell-core", rank=1, radius=4, margin=2, base_rules=(("aaaa", True),),
                      translations=("1", "aa")))
@example(InstanceSpec("stability-shell", **WITNESS_GOLDEN["stability-shell"][0]))
def test_shell_witness_reverifies_on_its_own(spec):
    # a witness (1, g) says that A + A*g holds a shell key of the window it
    # was raised at: the reference shows it from the instance alone
    try:
        report = run_instance(spec).report
    except ParseError:
        return
    for check in report.checks:
        match = SHELL_WITNESS.fullmatch(check.witness or "")
        if match is None:
            continue
        model = make_model(spec)
        window = build_window(model, make_subgroup(model, spec.subgroup_generators),
                              spec.radius, spec.margin)
        if check.name == "witness_stability":
            window = window.extended(2)
        else:
            assert check.name == "family_certification"
        base = ref_base_set(window, make_base_spec(model, spec))
        known_in, unknown = ref_translate(window, base, model.normalize(token_word(match[1])))
        moved = (base ^ known_in) - unknown
        assert any(len(k) > window.radius - window.margin for k in moved), check.witness


CHANGED_WITNESS = re.compile(r"difference for \(1, (.+)\) changed at radius \+ 2: (\[.*\]) vs (\[.*\])")
UNDECIDED_WITNESS = re.compile(r"uncertified difference for \(1, (.+)\): "
                               r"translate undecided inside the core; .+")


@settings(max_examples=150, deadline=None)
@given(group_specs())
# a changed difference, one that changes which translates merge, and a
# translate undecided at the radius and at radius + 2
@example(parse_instance_text(FAR_RULE))
@example(InstanceSpec("stability-changed", **WITNESS_GOLDEN["stability-changed"][0]))
@example(InstanceSpec("stability-merged", **WITNESS_GOLDEN["stability-merged"][0]))
@example(corpus()["E3"]._replace(translations=("1", "b", "B", "bbb", "a")))
@example(InstanceSpec("stability-undecided", **WITNESS_GOLDEN["stability-undecided"][0]))
def test_stability_witnesses_reverify_on_their_own(spec):
    # a witness "difference for (1, g) changed at radius + 2: X vs Y" says
    # that A + A*g is X at the radius and Y at radius + 2, and an undecided
    # (1, g) that some core key's pull-back by g is longer than the radius of
    # the window it was raised at: the reference shows both from the
    # instance alone
    try:
        report = run_instance(spec).report
    except ParseError:
        return
    for check in report.checks:
        changed = CHANGED_WITNESS.fullmatch(check.witness or "")
        undecided = UNDECIDED_WITNESS.fullmatch(check.witness or "")
        if changed is None and undecided is None:
            continue
        model = make_model(spec)
        window = build_window(model, make_subgroup(model, spec.subgroup_generators),
                              spec.radius, spec.margin)
        g = model.normalize(token_word((changed or undecided)[1]))
        if changed is not None:
            assert check.name == "witness_stability"
            for at, keys in ((window, changed[2]), (window.extended(2), changed[3])):
                base = ref_base_set(at, make_base_spec(model, spec))
                known_in, unknown = ref_translate(at, base, g)
                moved = sorted((base ^ known_in) - unknown, key=model.sort_key)
                assert moved == ast.literal_eval(keys), check.witness
            continue
        if check.name == "witness_stability":
            window = window.extended(2)
        else:
            assert check.name == "family_certification"
        ginv = invert(g)
        assert any(len(compose(GroupElement(model, k), ginv).word) > window.radius
                   for k in window.core), check.witness
