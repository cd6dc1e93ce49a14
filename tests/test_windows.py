"""Windows, base sets, translate families, hypothesis checks, stability."""

import ast
import functools
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from tracktree import (
    BaseSetSpec,
    GroupElement,
    Window,
    build_base_set,
    build_family,
    build_window,
    compose,
    corpus,
    display_word,
    free_abelian_group,
    free_group,
    free_product_of_cyclics,
    hypothesis_report,
    invert,
    radius_stability_report,
    report_document,
    run_instance,
    stabilizer_analysis,
    subgroup,
)
from tracktree import trees, windows
from tracktree.errors import CertificationFailure, ConflictingRule, RadiusTooLarge
from tracktree.groups import CosetTable, _FreeEngine, _word_to_syllables
from tracktree.instances import (
    InstanceSpec,
    make_base_spec,
    make_model,
    make_subgroup,
    parse_instance_text,
    token_word,
)
from tracktree.windows import (
    _CosetGraph,
    _core_bound,
    _decided_depth,
    _regrowth_report,
)
from test_instances import FAR_RULE, WITNESS_GOLDEN

Z = free_group(1, "t")
TRIVIAL_Z = subgroup(Z, [])
F2 = free_group(2)
LATTICE = free_abelian_group(2)


# an include key hidden in the unknown zone of the translate by tt is
# invisible at radius 6 but surfaces at radius 8
FRAGILE = BaseSetSpec(rules=(("t", True),), includes=frozenset(["", "TTTTT"]))


def half_line_window(radius=8, margin=2):
    window = build_window(Z, TRIVIAL_Z, radius, margin)
    spec = BaseSetSpec(rules=(("t", True),), includes=frozenset([""]))
    return window, spec, build_base_set(window, spec)


# --------------------------------------------------------------------------
# windows


def test_window_universe_sizes():
    window = build_window(Z, TRIVIAL_Z, 10, 2)
    assert len(window.omega) == 21
    sub_a = subgroup(F2, ["a"])
    window = build_window(F2, sub_a, 4, 2)
    keys_in_radius_3 = [k for k in window.omega if len(k) <= 3]
    assert len(keys_in_radius_3) == 27
    rows = subgroup(LATTICE, ["x"])
    window = build_window(LATTICE, rows, 4, 2)
    assert len(window.omega) == 9
    assert all(set(k) <= {"y", "Y"} for k in window.omega)


def test_window_shell_split():
    window = build_window(Z, TRIVIAL_Z, 6, 2)
    assert all(len(k) <= 4 for k in window.core)
    shell = window.keys_of(window.shell_mask)
    assert all(len(k) > 4 for k in shell)
    assert len(window.core) + len(shell) == len(window.omega)


def test_window_parameter_validation():
    with pytest.raises(ValueError):
        build_window(Z, TRIVIAL_Z, 3, 2)  # radius < 2 * margin
    with pytest.raises(ValueError):
        build_window(Z, TRIVIAL_Z, 4, 0)


def test_partial_action_on_keys():
    window, _, _ = half_line_window()
    t = Z.normalize("t")

    def image(key):
        j = window.locate(compose(GroupElement(Z, key), t))
        return window.omega[j] if j >= 0 else None

    assert image("t") == "tt"
    assert image("t" * 8) is None  # leaves the ball


# --------------------------------------------------------------------------
# base sets


def test_base_set_half_line():
    window, _, base = half_line_window()
    keys = window.keys_of(base)
    assert "" in keys
    assert "ttt" in keys
    assert "T" not in keys


def test_base_set_longest_prefix_wins():
    window, _, _ = half_line_window()
    spec = BaseSetSpec(rules=(("t", True), ("tt", False)), default_in=False)
    base = window.keys_of(build_base_set(window, spec))
    assert "t" in base
    assert "tt" not in base and "ttt" not in base


def test_base_set_rule_precedes_includes():
    window, _, _ = half_line_window()
    spec = BaseSetSpec(rules=(("t", True),), excludes=frozenset(["tt"]))
    base = window.keys_of(build_base_set(window, spec))
    # the rule decides "tt" before the exclude list is consulted
    assert "tt" in base


def test_base_set_conflicts():
    with pytest.raises(ConflictingRule):
        BaseSetSpec(rules=(("t", True), ("t", False)))
    with pytest.raises(ConflictingRule):
        BaseSetSpec(includes=frozenset(["t"]), excludes=frozenset(["t"]))


# --------------------------------------------------------------------------
# families


def test_family_half_line_translates():
    window, _, base = half_line_window()
    fam = build_family(window, base, [Z.normalize(w) for w in ["T", "", "t"]])
    assert len(fam) == 3
    members = [set(fam.keys_of(v.members)) for v in fam.vertices]
    assert members[0] > members[1] > members[2]  # nested half lines
    assert "T" in members[0] and "T" not in members[1]
    assert "" in members[1] and "" not in members[2]
    assert fam.base_index == 1


def test_identity_merged_into_an_earlier_translate_is_the_base_vertex():
    # an empty base set has one translate: the identity's merges into the first
    window = build_window(Z, TRIVIAL_Z, 8, 2)
    fam = build_family(window, 0, [Z.normalize("tt"), Z.identity(), Z.normalize("t")])
    assert [v.name for v in fam.vertices] == ["A*tt"] and fam.base_index == 0
    # x fixes the half-plane of rows: the identity merges into A*x, not the last kept
    rows = subgroup(LATTICE, ["x"])
    window = build_window(LATTICE, rows, 6, 2)
    base = build_base_set(window, BaseSetSpec(rules=(("y", True),), includes=frozenset([""])))
    fam = build_family(window, base, [LATTICE.normalize(w) for w in ["x", "Y", ""]])
    assert [v.name for v in fam.vertices] == ["A*x", "A*Y"] and fam.base_index == 0


def test_family_lattice_half_planes():
    rows = subgroup(LATTICE, ["x"])
    window = build_window(LATTICE, rows, 6, 2)
    base = build_base_set(window, BaseSetSpec(rules=(("y", True),), includes=frozenset([""])))
    fam = build_family(window, base, [LATTICE.normalize(w) for w in ["Y", "", "y"]])
    assert len(fam) == 3
    assert fam.distance(0, 2) == 2


def test_family_identity_only():
    window, _, base = half_line_window()
    fam = build_family(window, base, [Z.identity()])
    assert len(fam) == 1


def test_family_requires_identity():
    window, _, base = half_line_window()
    with pytest.raises(ValueError):
        build_family(window, base, [Z.normalize("t")])


def test_family_merges_duplicates():
    sub_a = subgroup(F2, ["a"])
    window = build_window(F2, sub_a, 6, 2)
    base = build_base_set(window, BaseSetSpec(rules=(("b", True),)))
    fam = build_family(window, base, [F2.normalize(w) for w in ["", "b", "a"]])
    assert len(fam) == 2


def test_family_certification_failure():
    window = build_window(Z, TRIVIAL_Z, 4, 1)
    base = build_base_set(window, BaseSetSpec(rules=(("t", True),), includes=frozenset([""])))
    with pytest.raises(CertificationFailure):
        build_family(window, base, [Z.identity(), Z.normalize("tttt")])


def test_family_metric_axioms():
    window, _, base = half_line_window()
    fam = build_family(window, base, [Z.normalize(w) for w in ["TT", "T", "", "t", "tt"]])
    n = len(fam)
    for i in range(n):
        for j in range(i + 1, n):
            assert fam.distance(i, j) >= 1
            assert fam.distance(i, j) == fam.distance(j, i)
            for k in range(n):
                if k in (i, j):
                    continue
                assert fam.distance(i, j) <= fam.distance(i, k) + fam.distance(k, j)


# --------------------------------------------------------------------------
# hypothesis checks


def test_hypothesis_half_line_witnesses():
    window, _, base = half_line_window()
    assert hypothesis_report(window, base, TRIVIAL_Z) == (None, None, None)
    # each almost-invariance witness is its translate's certified moved set
    family = build_family(window, base, [Z.normalize(w) for w in ["", "t"]])
    assert len(family) == 2
    assert window.keys_of(window.translate(base, Z.normalize("t"))[0]) == [""]
    # the identity moves no key: A + A*1 is empty
    assert window.translate(base, Z.identity()) == (0, 0)


def test_hypothesis_row_witness():
    rows = subgroup(LATTICE, ["x"])
    window = build_window(LATTICE, rows, 6, 2)
    base = build_base_set(window, BaseSetSpec(rules=(("y", True),), includes=frozenset([""])))
    assert window.keys_of(window.translate(base, LATTICE.normalize("y"))[0]) == [""]
    # the whole row subgroup fixes the base set
    assert hypothesis_report(window, base, rows)[1:] == (None, None)


def test_hypothesis_properness_fails_on_full_universe():
    window, _, _ = half_line_window()
    properness, _, _ = hypothesis_report(window, (1 << len(window.omega)) - 1, None)
    assert "complement" in properness


def test_hypothesis_expected_k_flags_moving_element():
    window, _, base = half_line_window()
    moving = subgroup(Z, ["t"])
    assert hypothesis_report(window, base, moving)[1:] == (None, "t")


# --------------------------------------------------------------------------
# stability


def test_witness_stability_half_line():
    window, spec, base = half_line_window()
    translations = [Z.normalize(w) for w in ["T", "", "t"]]
    assert radius_stability_report(window, spec, translations,
                                   build_family(window, base, translations)) is None


def test_witness_stability_detects_radius_dependence():
    # FRAGILE's far include key surfaces only at radius + 2: exactly what
    # the re-check exists for
    window = build_window(Z, TRIVIAL_Z, 6, 2)
    translations = [Z.identity(), Z.normalize("tt")]
    family = build_family(window, build_base_set(window, FRAGILE), translations)
    changed = radius_stability_report(window, FRAGILE, translations, family)
    assert changed == ("difference for (1, tt) changed at radius + 2: "
                       "['', 't', 'TTT'] vs ['', 't', 'TTT', 'TTTTT']")


# --------------------------------------------------------------------------
# the coset graph against the ball reference


def reference_translate(table, base, g):
    """(moved, unknown) of base * g by composing every key with g^-1 in the ball:
    the known keys whose membership the translate changes, and the rest."""
    ginv = invert(g)
    moved, unknown = set(), set()
    for k in table.keys:
        kk = table.key_of.get(compose(GroupElement(g.model, k), ginv).word)
        if kk is None:
            unknown.add(k)
        elif (kk in base) != (k in base):
            moved.add(k)
    return moved, unknown


def assert_window_matches_reference(window, rng, samples=6, spec=None):
    """The window's keys and the translates of a base set by sampled
    elements of ball(radius + 1) against the ball reference: a random mask,
    or the base set spec decides over the window."""
    model, sub, radius = window.model, window.sub, window.radius
    ball = model.ball(radius, max_radius=radius)
    table = CosetTable(sub, ball)
    cut = radius - window.margin
    assert window.omega == table.keys
    assert window.core == [k for k in table.keys if len(k) <= cut]
    assert window.keys_of(window.shell_mask) == [k for k in table.keys if len(k) > cut]
    for e in ball:
        assert window.omega[window.locate(e)] == table.key_of[e.word]

    if spec is None:
        base_keys = frozenset(k for k in window.omega if rng.random() < 0.5)
        base = sum(1 << i for i, k in enumerate(window.omega) if k in base_keys)
    else:
        base_keys = frozenset(k for k in table.keys if spec.decide(k))
        base = build_base_set(window, spec)
        assert set(window.keys_of(base)) == base_keys
    # k * 1 = k, so the identity translate is fully decided and moves nothing
    assert window.translate(base, model.identity()) == (0, 0)
    outer = model.ball(radius + 1, max_radius=radius + 1)
    assert_translates_match_reference(window, table, base_keys, base,
                                      rng.sample(outer, min(samples, len(outer))))
    return base


def assert_translates_match_reference(window, table, base_keys, base, elements):
    for g in elements:
        moved, unknown = window.translate(base, g)
        ref_moved, ref_unknown = reference_translate(table, base_keys, g)
        assert set(window.keys_of(moved)) == ref_moved, g
        assert set(window.keys_of(unknown)) == ref_unknown, g


@st.composite
def group_windows(draw):
    kind = draw(st.sampled_from(["free", "free_abelian", "free_product_cyclic"]))
    if kind == "free":
        model = free_group(draw(st.integers(1, 2)))
    elif kind == "free_abelian":
        model = free_abelian_group(draw(st.integers(1, 3)))
    else:
        model = free_product_of_cyclics(draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)))
    letters = [ch for g in model.letters for ch in (g, g.upper())]
    word = st.text(alphabet=letters, min_size=1, max_size=4)
    if kind != "free_product_cyclic":
        gens = draw(st.lists(word, max_size=2))
    else:
        shape = draw(st.sampled_from(["trivial", "factor", "cyclic"]))
        if shape == "trivial":
            gens = []
        elif shape == "factor":
            ch = draw(st.sampled_from(model.letters))
            gens = [ch * e for e in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))]
        else:
            gens = [draw(word)]
    sub = subgroup(model, gens)
    margin = draw(st.integers(1, 2))
    top = {"free": 6 if model.rank == 1 else 4, "free_abelian": 5}.get(kind, 5)
    radius = draw(st.integers(2 * margin, max(2 * margin, top)))
    return build_window(model, sub, radius, margin)


@settings(max_examples=60, deadline=None)
@given(group_windows(), st.randoms(use_true_random=False))
def test_coset_graph_matches_ball_reference(window, rng):
    assert_window_matches_reference(window, rng)


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "C"])
def test_coset_graph_matches_ball_reference_on_corpus(name):
    if name == "C":
        model = free_product_of_cyclics([2, 2, 2])
        window = build_window(model, subgroup(model, ["st"]), 5, 2)
        base_spec = BaseSetSpec(rules=(("s", True),))
    else:
        spec = corpus()[name]
        model = make_model(spec)
        window = build_window(model, make_subgroup(model, spec.subgroup_generators),
                              spec.radius, spec.margin)
        base_spec = make_base_spec(model, spec)
    rng = random.Random(name)
    # the instance's own base set, whose translates the settled depth bounds
    # for free groups, and a random mask, whose translates walk every key
    assert_window_matches_reference(window, rng, samples=12, spec=base_spec)
    base = assert_window_matches_reference(window, rng)

    # radius + 2 grows the same graph: it matches a fresh window, and the
    # smaller window over the grown graph still answers as before
    before = {g.word: window.translate(base, g) for g in model.ball(2)}
    big = window.extended(2)
    fresh = Window(model, window.sub, window.radius + 2, window.margin)
    assert big.omega == fresh.omega and big.core == fresh.core
    assert big.shell_mask == fresh.shell_mask
    window._translates.clear()
    for g in model.ball(2):
        assert window.translate(base, g) == before[g.word]
        assert big.translate(base, g) == fresh.translate(base, g)
    assert_window_matches_reference(big, rng, samples=3)


@pytest.mark.parametrize("model, gens, size", [
    (F2, ["a", "b"], 1),                    # H = G: a walk gathers one id
    (Z, ["tt"], 2),                         # <tt> in <t>
    (F2, ["aa", "ab", "ba", "bb"], 2),      # the words of even length
])
def test_translates_over_finite_index_subgroups(model, gens, size):
    window = build_window(model, subgroup(model, gens), 4, 2)
    assert window.size == len(window.omega) == size
    assert_window_matches_reference(window, random.Random(size), samples=20)


def ref_known(window, word):
    """The known keys of a walk of word by the per-key definition: the
    canonical word of k * word is at most radius long."""
    w = GroupElement(window.model, word)
    return sum(1 << i for i, k in enumerate(window.omega)
               if len(compose(GroupElement(window.model, k), w).word) <= window.radius)


@st.composite
def free_windows(draw):
    """A free group of rank 1 or 2 over a non-trivial subgroup, so that keys
    end at core states as well as on hanging tails."""
    model = free_group(draw(st.integers(1, 2)))
    letters = [ch for g in model.letters for ch in (g, g.upper())]
    gens = draw(st.lists(st.text(alphabet=letters, min_size=1, max_size=4), min_size=1, max_size=2))
    sub = subgroup(model, gens)
    assume(sub.generators)
    margin = draw(st.integers(1, 2))
    radius = draw(st.integers(2 * margin, max(2 * margin, 6 if model.rank == 1 else 4)))
    return build_window(model, sub, radius, margin)


@st.composite
def known_cases(draw):
    """A window of any kind, or a free-group window over a non-trivial
    subgroup, and up to six words of length at most radius + 1 to walk."""
    window = draw(st.one_of(free_windows(), group_windows()))
    outer = [e.word for e in window.model.ball(window.radius + 1)]
    return window, draw(st.lists(st.sampled_from(outer), min_size=1, max_size=6))


@settings(max_examples=100, deadline=None)
@given(known_cases())
def test_known_masks_match_the_per_key_definition(case):
    window, words = case
    known = window.sub.engine.known
    small = {w: known(window, w) for w in words}
    assert small == {w: ref_known(window, w) for w in words}
    endings = dict(window._endings)
    big = window.extended(2)
    for w in words:
        assert known(big, w) == ref_known(big, w), w
    # the small window's masks are the same over the grown graph
    window._letters.clear()
    window._endings.clear()
    if hasattr(window.sub.engine, "columns"):
        window.sub.engine.columns = [[0] for _ in window.model.letters]
    assert {w: known(window, w) for w in words} == small
    assert window._endings == endings


def syllable_meetings(window, words):
    """How each key's last syllable meets each word's first in a free
    product: "cancel" where they cancel whole, in a factor of order at least
    3, and "merge" where their exponents add up past the order n, so that
    the product drops n letters."""
    model, seen = window.model, set()
    if model.kind != "free_product_cyclic":
        return seen
    for k, w in itertools.product(window.omega, words):
        ks, ws = _word_to_syllables(model, k), _word_to_syllables(model, w)
        if ks and ws and ks[-1][0] == ws[0][0]:
            n, total = model.orders[ws[0][0]], ks[-1][1] + ws[0][1]
            if total == n >= 3:
                seen.add("cancel")
            elif total > n:
                seen.add("merge")
    return seen


def test_known_cases_reach_cancellation_and_merge():
    for meeting in ("cancel", "merge"):
        find(known_cases(), lambda case, meeting=meeting: meeting in syllable_meetings(*case),
             settings=settings(database=None, max_examples=500, phases=[Phase.generate]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(free_windows(), group_windows()))
# under <a> every coset but H is past the core: each layer after the first grows in bulk
@example(build_window(F2, subgroup(F2, ["a"]), 4, 2))
def test_engine_answers_for_the_coset_graph(window):
    engine, model, radius = window.sub.engine, window.model, window.radius
    graph = _CosetGraph(window.sub)
    assert list(graph.arrays) == engine.steps
    for e in model.ball(radius):
        parts = engine.split(e.word)
        assert "".join(parts) == e.word and all(part in graph.arrays for part in parts), e
    # the parents whose children _grow_tails grows are exactly the cosets
    # past the engine's tail_fp: for free groups the fingerprints from
    # states on, past the Stallings core, and for the other kinds none
    grown = []
    grow_tails = graph._grow_tails
    graph._grow_tails = lambda lo, hi, size: grown.extend(range(lo, hi)) or grow_tails(lo, hi, size)
    graph.grow(radius)
    tail_fp = engine.tail_fp
    assert tail_fp == (engine.states if model.kind == "free" else None)
    parents = graph.fps[:graph.level_end[radius - 1]]
    assert grown == [i for i, fp in enumerate(parents) if tail_fp is not None and fp >= tail_fp]


def test_windows_and_trees_leave_the_group_kind_to_the_engine():
    # subgroup() picks the engine, the one place past the group arithmetic
    # that knows the kind: windows.py and trees.py name no kind constant and
    # read no .kind
    constants = {"FREE", "FREE_ABELIAN", "FREE_PRODUCT_CYCLIC"}
    for module in (windows, trees):
        source = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(source):
            if isinstance(node, ast.ImportFrom):
                assert not constants & {alias.name for alias in node.names}, module.__name__
            elif isinstance(node, ast.Attribute):
                assert node.attr != "kind" and node.attr not in constants, (module.__name__, node.lineno)
            elif isinstance(node, ast.Name):
                assert node.id not in constants, (module.__name__, node.lineno)


@st.composite
def decided_cases(draw):
    """A free-group window over a non-trivial subgroup, a spec of 1-3 prefix
    rules 1-3 letters long and explicit keys at most 2 long over its keys,
    and up to six elements of ball(radius + 1) to translate by."""
    window = draw(free_windows())
    keys = window.omega
    prefixes = [k for k in keys if 0 < len(k) <= 3] or keys
    rules = draw(st.lists(st.tuples(st.sampled_from(prefixes), st.booleans()),
                          min_size=1, max_size=3, unique_by=lambda r: r[0]))
    short = st.sampled_from([k for k in keys if len(k) <= 2])
    includes = draw(st.frozensets(short, max_size=2))
    excludes = draw(st.frozensets(short, max_size=2)) - includes
    spec = BaseSetSpec(rules=tuple(rules), includes=includes, excludes=excludes,
                       default_in=draw(st.booleans()))
    outer = window.model.ball(window.radius + 1)
    return window, spec, draw(st.lists(st.sampled_from(outer), min_size=1, max_size=6))


def cut_applies(window, base, g):
    """Whether the translate of base by g walks fewer keys than the window
    holds: base has a settled depth S and S + |g| < radius."""
    settled = window._settled.get(base)
    return settled is not None and settled + len(g.word) < window.radius


@settings(max_examples=100, deadline=None)
@given(decided_cases())
# under <a>, b out and bb in give D = 0 and d = 2: S = 1, and bb moves under B
@example((build_window(F2, subgroup(F2, ["a"]), 4, 2),
          BaseSetSpec(rules=(("b", False), ("bb", True))),
          [F2.normalize(w) for w in ["B", "b", "bA", "BB"]]))
# under <aaaa, ba>, D = 2 > d - 1 = 0: aaB is a core key and moves under AB
@example((build_window(F2, subgroup(F2, ["aaaa", "ba"]), 4, 2),
          BaseSetSpec(rules=(("a", False),), default_in=True), [F2.normalize("AB")]))
def test_bounded_translates_match_the_reference(case):
    window, spec, elements = case
    table = CosetTable(window.sub, window.model.ball(window.radius, max_radius=window.radius))
    base_keys = frozenset(k for k in table.keys if spec.decide(k))
    base = build_base_set(window, spec)
    assert set(window.keys_of(base)) == base_keys
    assert_translates_match_reference(window, table, base_keys, base, elements)


def test_decided_cases_reach_the_cut():
    def reached(case):
        window, spec, elements = case
        base = build_base_set(window, spec)
        return any(cut_applies(window, base, g) for g in elements)

    find(decided_cases(), reached,
         settings=settings(database=None, max_examples=500, phases=[Phase.generate]))


@settings(max_examples=40, deadline=None)
@given(st.one_of(free_windows(), group_windows()))
def test_endings_from_the_last_letters_match_the_key_strings(window):
    # the t = 1 row is the graph's last letters, the others go through the
    # parent ids; the key strings are the ball reference's
    radius = window.radius
    keys = CosetTable(window.sub, window.model.ball(radius, max_radius=radius)).keys
    assert window.omega == keys
    for t in range(1, radius + 1):
        for x in window.graph.letters:
            want = sum(1 << i for i, k in enumerate(keys) if len(k) >= t and k[-t] == x)
            assert window.ending(t, x) == want, (t, x)


@settings(max_examples=40, deadline=None)
@given(group_windows().filter(lambda window: window.model.kind == "free_abelian"))
def test_exponent_columns_match_the_key_strings(window):
    for g, column in zip(window.model.letters, window.sub.engine._columns(window)):
        assert column == [k.count(g) - k.count(g.upper()) for k in window.omega], g


def ref_base_set(window, spec):
    """The base set by the per-key definition: spec.decide on every key."""
    return sum(1 << i for i, k in enumerate(window.omega) if spec.decide(k))


@settings(max_examples=60, deadline=None)
@given(group_windows(), st.data())
def test_inherited_decisions_match_the_per_key_definition(window, data):
    big = window.extended(2)
    spec = data.draw(base_specs(big.omega))
    assert build_base_set(window, spec) == ref_base_set(window, spec)
    assert build_base_set(big, spec) == ref_base_set(big, spec)


def per_key_decide(window, spec, flags):
    """The flags of the window's keys, by spec.decide on the keys at most the
    spec's depth long and then one key at a time as flags[parent[i]]; flags
    holds the decisions of the shorter keys already made."""
    parent = window.graph.parent
    for length in range(window.radius + 1):
        lo, hi = window.level(length)
        if lo < len(flags):
            continue
        if length <= spec.depth:
            flags += bytes(map(spec.decide, window.graph.key_strings(lo, hi)))
        else:
            flags += bytes(flags[parent[i]] for i in range(lo, hi))
    return flags


@st.composite
def shallow_and_deep_specs(draw, keys):
    """Rules that are 1-2 letters long or any key of the list, and explicit
    keys of both kinds, so that the spec's depth falls anywhere from 0 to
    past the keys' length."""
    short = [k for k in keys if 0 < len(k) <= 2] or keys
    key = st.one_of(st.sampled_from(short), st.sampled_from(keys))
    rules = draw(st.lists(st.tuples(key, st.booleans()), max_size=3, unique_by=lambda r: r[0]))
    includes = draw(st.frozensets(key, max_size=3))
    excludes = draw(st.frozensets(key, max_size=3)) - includes
    return BaseSetSpec(rules=tuple(rules), includes=includes, excludes=excludes,
                       default_in=draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(st.one_of(free_windows(), group_windows()), st.data())
def test_run_decisions_match_the_per_key_reference(window, data):
    big = window.extended(2)
    spec = data.draw(shallow_and_deep_specs(big.omega))
    flags = bytearray()
    base = windows._decide(window, spec, flags)
    assert flags == per_key_decide(window, spec, bytearray())
    assert window.keys_of(base) == [k for k, f in zip(window.omega, flags) if f]
    # the regrowth path: the radius + 2 window seeded with the window's flags
    seeded = bytearray(flags)
    windows._decide(big, spec, seeded)
    assert seeded == per_key_decide(big, spec, bytearray(flags))


def test_translate_walks_again_where_a_known_walk_meets_no_link(monkeypatch):
    # free abelian walks take the word's letters in order: from YYY, the word
    # Xy first steps out to XYYY, past the radius, though YYY * Xy = XYY is known
    rows = subgroup(LATTICE, [])
    window = build_window(LATTICE, rows, 3, 1)
    walked_again = []
    walk_from = Window.walk_from

    def counting(self, i, word):
        walked_again.append((self.omega[i], word))
        return walk_from(self, i, word)

    monkeypatch.setattr(Window, "walk_from", counting)
    table = CosetTable(rows, LATTICE.ball(3))
    rng = random.Random(7)
    for g in (LATTICE.normalize(w) for w in ["xY", "Yx", "xxY", "XyY", "XYY"]):
        base_keys = frozenset(k for k in window.omega if rng.random() < 0.5)
        base = sum(1 << i for i, k in enumerate(window.omega) if k in base_keys)
        moved, unknown = window.translate(base, g)
        ref_moved, ref_unknown = reference_translate(table, base_keys, g)
        assert set(window.keys_of(moved)) == ref_moved, g
        assert set(window.keys_of(unknown)) == ref_unknown, g
    assert ("YYY", "Xy") in walked_again


def test_certified_diff_is_the_family_difference():
    window, _, base = half_line_window()
    trans = [Z.normalize(w) for w in ["T", "", "t"]]
    fam = build_family(window, base, trans)
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            (m_i, u_i), (m_j, u_j) = window.translate(base, trans[i]), window.translate(base, trans[j])
            diff = (m_i ^ m_j) & ~(u_i | u_j)
            assert diff == fam.diff(i, j)
            assert window.keys_of(diff) == fam.keys_of(diff)
    assert window.keys_of(window.translate(base, trans[2])[0]) == [""]


def test_witness_stability_over_the_element_cap():
    # b^10 is out while its parent b^9 is in, so the keys are decided as
    # their parents only past length 10: the core bound misses
    # (B = 9 > radius - margin) and the radius + 2 re-check would need the
    # radius 12 ball
    window = build_window(F2, subgroup(F2, ["a"]), 10, 2)
    spec = BaseSetSpec(rules=(("b", True), ("b" * 10, False)))
    translations = [F2.identity()]
    base = build_base_set(window, spec)
    assert _core_bound(window, spec, base, translations) is None
    family = build_family(window, base, translations)
    with pytest.raises(RadiusTooLarge, match="element cap"):
        radius_stability_report(window, spec, translations, family)


# --------------------------------------------------------------------------
# the radius + 2 re-check against the frozenset-of-strings reference


def reference_stability(model, sub, radius, margin, base_spec, translations):
    """The re-check on frozensets of keys, from the ball reference at both
    radii: the witness text of the first translation, in translation order,
    whose difference A + A*g changes, or None when none does; "uncertified"
    when a translate is undecided inside the core or moves a shell key at
    either radius."""
    per_radius = []
    for r in (radius, radius + 2):
        table = CosetTable(sub, model.ball(r, max_radius=r))
        base = frozenset(k for k in table.keys if base_spec.decide(k))
        core = frozenset(k for k in table.keys if len(k) <= r - margin)
        moved = []
        for g in translations:
            moved_g, unknown = reference_translate(table, base, g)
            if unknown & core or moved_g - core:
                return "uncertified"
            moved.append(sorted(moved_g, key=model.sort_key))
        per_radius.append(moved)
    for g, small, large in zip(translations, *per_radius):
        if small != large:
            return (f"difference for (1, {display_word(g.word)}) changed at radius + 2: "
                    f"{small} vs {large}")
    return None


def stability_outcome(window, base_spec, translations):
    """The re-check on the family built over the window; "uncertified" when
    a translate is not certified at the radius or at radius + 2."""
    try:
        family = build_family(window, build_base_set(window, base_spec), translations)
        return radius_stability_report(window, base_spec, translations, family)
    except CertificationFailure:
        return "uncertified"


def instance_case(spec):
    """An instance's model, subgroup, radius, margin, base set spec and translations."""
    model = make_model(spec)
    return (model, make_subgroup(model, spec.subgroup_generators), spec.radius, spec.margin,
            make_base_spec(model, spec), [model.normalize(token_word(w)) for w in spec.translations])


def assert_stability_matches_reference(model, sub, radius, margin, base_spec, translations):
    window = build_window(model, sub, radius, margin)
    want = reference_stability(model, sub, radius, margin, base_spec, translations)
    assert stability_outcome(window, base_spec, translations) == want
    return want


@st.composite
def base_specs(draw, keys):
    """Rules of 1-3 letters and explicit keys over a key list; half the explicit
    keys are at most 3 letters long, so that rules are longer than some
    explicit keys and shorter than others."""
    short = [k for k in keys if 0 < len(k) <= 3] or keys
    rules = draw(st.lists(st.tuples(st.sampled_from(short), st.booleans()),
                          max_size=3, unique_by=lambda r: r[0]))
    explicit = st.one_of(st.sampled_from(short), st.sampled_from(keys))
    includes = draw(st.frozensets(explicit, max_size=3))
    excludes = draw(st.frozensets(explicit, max_size=3)) - includes
    return BaseSetSpec(rules=tuple(rules), includes=includes, excludes=excludes,
                       default_in=draw(st.booleans()))


def free_product_case():
    """Instance C: orders 2, 2, 2 over stu, subgroup <st>, margin 2, translations 1, s, t, u."""
    model = free_product_of_cyclics([2, 2, 2])
    return model, subgroup(model, ["st"]), 2, [model.normalize(w) for w in ["", "s", "t", "u"]]


@st.composite
def stability_cases(draw):
    """A corpus group or the free-product window C and its translations, at a
    radius up to 6, with a random base set over the radius + 2 window's keys,
    so that some explicit keys lie beyond the radius."""
    name = draw(st.sampled_from(["E1", "E2", "E3", "E4", "C"]))
    if name == "C":
        model, sub, margin, translations = free_product_case()
    else:
        model, sub, _, margin, _, translations = instance_case(corpus()[name])
    radius = draw(st.integers(2 * margin, max(2 * margin, 6)))
    base_spec = draw(base_specs(build_window(model, sub, radius + 2, margin).omega))
    return model, sub, radius, margin, base_spec, translations


@settings(max_examples=60, deadline=None)
@given(stability_cases())
# the drawn cases rarely change at radius + 2: a changed difference, and one
# that changes which translates merge
@example((Z, TRIVIAL_Z, 6, 2, FRAGILE, [Z.identity(), Z.normalize("tt")]))
@example(instance_case(parse_instance_text(FAR_RULE)))
@example(instance_case(InstanceSpec("merged", **WITNESS_GOLDEN["stability-merged"][0])))
def test_stability_matches_string_reference(case):
    assert_stability_matches_reference(*case)


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4"])
def test_stability_matches_string_reference_on_corpus(name):
    assert assert_stability_matches_reference(*instance_case(corpus()[name])) is None


def test_unstable_witness_matches_string_reference():
    want = assert_stability_matches_reference(Z, TRIVIAL_Z, 6, 2, FRAGILE,
                                              [Z.identity(), Z.normalize("tt")])
    assert want.startswith("difference for (1, tt) changed at radius + 2")


def test_stability_sweep_over_half_lines_reaches_every_outcome():
    # the drawn cases almost never change at radius + 2: here a rule adds the
    # left half-line from T^b, just past the core, so the translate by t^k
    # moves T^(b-k), ..., T^(b-1); a shell key among them is unknown at the
    # radius when its walk by t^-k leaves the window, and radius + 2 decides it
    outcomes = set()
    for radius, margin in ((6, 2), (7, 2), (8, 3)):
        for b in (radius - margin + 1, radius - margin + 2):
            spec = BaseSetSpec(rules=(("t", True), ("T" * b, True)), includes=frozenset([""]))
            for k in range(1, margin + 3):
                want = assert_stability_matches_reference(
                    Z, TRIVIAL_Z, radius, margin, spec, [Z.identity(), Z.normalize("t" * k)])
                outcomes.add(want if want in (None, "uncertified") else
                             want.startswith(f"difference for (1, {'t' * k}) changed"))
    assert outcomes == {None, "uncertified", True}


# --------------------------------------------------------------------------
# the Stallings core bound against the radius + 2 regrowth it replaces


def uncapped_window(model, sub, radius, margin):
    """The window at a radius whose ball is over the element cap, its graph
    grown as ``Window.extended`` grows one."""
    window = object.__new__(Window)
    window._setup(model, sub, radius, margin, _CosetGraph(sub).grow(radius))
    return window


@st.composite
def stallings_cases(draw):
    """An F2 instance: up to two subgroup generators of length at most 4,
    1-3 prefix rules of length at most 3, the identity and 1-4 translations
    of length at most 3, and a radius of 5-8 (margin 2)."""
    def words(size):
        return st.text(alphabet="abAB", max_size=size).map(lambda w: F2.normalize(w).word)

    gens = draw(st.lists(words(4).filter(bool), max_size=2))
    rules = draw(st.lists(st.tuples(words(3), st.booleans()), min_size=1, max_size=3,
                          unique_by=lambda rule: rule[0]))
    spec = BaseSetSpec(rules=tuple(rules), default_in=draw(st.booleans()))
    moves = draw(st.lists(words(3).filter(bool), min_size=1, max_size=4, unique=True))
    translations = [F2.identity(), *map(F2.normalize, moves)]
    return subgroup(F2, gens), spec, translations, draw(st.integers(5, 8))


def family_and_bound(case):
    """The family built over the case's window and its core bound; None for
    the family when it is uncertified, as a check then stops before the re-check."""
    sub, spec, translations, radius = case
    window = build_window(F2, sub, radius, 2)
    base = build_base_set(window, spec)
    try:
        family = build_family(window, base, translations)
    except CertificationFailure:
        family = None
    return window, family, _core_bound(window, spec, base, translations)


@settings(max_examples=50, deadline=None)
@given(stallings_cases())
@example((subgroup(F2, ["a"]), BaseSetSpec(rules=(("b", True),)),
          [F2.normalize(w) for w in ["", "b", "B", "bb", "a"]], 8))
def test_core_bound_matches_the_regrowth(case):
    sub, spec, translations, radius = case
    window, family, bound = family_and_bound(case)
    if family is None or bound is None:
        return
    assert radius_stability_report(window, spec, translations, family) is None
    # nothing was grown, and every difference lies in the keys at most B long
    assert window.graph.radius == radius
    assert all(len(k) <= bound for a, b in itertools.combinations(range(len(family)), 2)
               for k in family.keys_of(family.diff(a, b)))
    # the regrowth, called directly, finds no pair changed either
    assert _regrowth_report(window, spec, translations, family) is None
    # and so does a family built at radius + 4
    far = uncapped_window(F2, sub, radius + 4, 2)
    large = build_family(far, build_base_set(far, spec), translations)
    assert [v.element.word for v in large.vertices] == [v.element.word for v in family.vertices]
    for a, b in itertools.combinations(range(len(family)), 2):
        assert large.keys_of(large.diff(a, b)) == family.keys_of(family.diff(a, b))


def test_stallings_cases_reach_the_bound_and_the_fallback():
    # a certified family each way: one the bound covers, one it misses
    def path(case):
        _, family, bound = family_and_bound(case)
        return None if family is None else bound is not None

    for covered in (True, False):
        find(stallings_cases(), lambda case, covered=covered: path(case) is covered,
             settings=settings(database=None, max_examples=500, phases=[Phase.generate]))


def test_core_bound_counts_only_live_states():
    # <a> folds its one-letter loop onto the base: two states, one of them
    # merged away, so the core is H alone and E3's bound is B = 0 + 2
    sub = subgroup(F2, ["a"])
    assert sub.engine.states == 2 and sub.engine.next[1] == {}
    window = build_window(F2, sub, 6, 2)
    spec = BaseSetSpec(rules=(("b", True),))
    translations = [F2.normalize(w) for w in ["", "b", "B", "bb", "a"]]
    base = build_base_set(window, spec)
    assert _core_bound(window, spec, base, translations) == 2
    family = build_family(window, base, translations)
    assert radius_stability_report(window, spec, translations, family) is None
    assert window.graph.radius == 6


def test_core_bound_is_none_unless_every_condition_holds():
    # <b^20> is a 20-cycle whose farthest coset has the key b^10: at radius 6
    # the core is not all in the window, so the re-check regrows
    sub = subgroup(F2, ["b" * 20])
    spec = BaseSetSpec(rules=(("a", True),))
    translations = [F2.identity(), F2.normalize("a")]
    window = build_window(F2, sub, 6, 2)
    assert bound_of(window, spec, translations) is None
    family = build_family(window, build_base_set(window, spec), translations)
    assert radius_stability_report(window, spec, translations, family) is None
    assert window.graph.radius == 8
    # with the whole core inside, B = 10 + 1 is still past radius - margin
    assert bound_of(build_window(F2, sub, 10, 2), spec, translations) is None
    # <b^4>'s core is in the window at radius 6, and B = 2 + 1
    assert bound_of(build_window(F2, subgroup(F2, ["bbbb"]), 6, 2), spec, translations) == 3
    # B = 0 + 3 under <a> is in the core at radius 5, but a walk of bbb from
    # it may leave the window: the bound needs radius >= B + L = 6 as well
    spec, translations = BaseSetSpec(rules=(("b", True),)), [F2.identity(), F2.normalize("bbb")]
    for radius, bound in ((5, None), (6, 3)):
        window = build_window(F2, subgroup(F2, ["a"]), radius, 2)
        assert bound_of(window, spec, translations) == bound
    # the bound is for free groups only
    model, c_sub, margin, c_translations = free_product_case()
    c_window = build_window(model, c_sub, 8, margin)
    assert bound_of(c_window, BaseSetSpec(rules=(("s", True),)), c_translations) is None


def bound_of(window, spec, translations):
    """``_core_bound`` of the base set the spec decides over the window."""
    return _core_bound(window, spec, build_base_set(window, spec), translations)


def test_core_bound_reads_the_depth_off_the_decisions():
    # under <a>, b in and b^10 out decide the keys unlike their parents at
    # lengths 1 and 10; a redundant b^10 in only at length 1: B = 0 + 2
    sub, translations = subgroup(F2, ["a"]), [F2.identity(), F2.normalize("bb")]
    window = build_window(F2, sub, 10, 2)
    for rule, depth in ((("b" * 10, False), 10), (("b" * 10, True), 1)):
        spec = BaseSetSpec(rules=(("b", True), rule))
        assert spec.depth == 10
        assert _decided_depth(window, spec, build_base_set(window, spec)) == depth
    assert bound_of(window, spec, translations) == 2
    # a rule past the radius cannot be checked against every key: its length counts
    spec = BaseSetSpec(rules=(("b", True), ("b" * 11, True)))
    assert _decided_depth(window, spec, build_base_set(window, spec)) == 11
    # a spec that decides nothing unlike a parent has depth 0
    spec = BaseSetSpec(rules=(("a", True), ("b", True)), default_in=True)
    assert _decided_depth(window, spec, build_base_set(window, spec)) == 0


def recorded_walks(monkeypatch):
    """Per translate from now on, its element and the number of ids each of
    its gathers reads."""
    walks = []
    translate, gather = Window.translate, windows._gather

    def translating(self, base_set, g):
        walks.append((g, []))
        return translate(self, base_set, g)

    def gathering(seq, ids):
        walks[-1][1].append(len(ids))
        return gather(seq, ids)

    monkeypatch.setattr(Window, "translate", translating)
    monkeypatch.setattr(windows, "_gather", gathering)
    return walks


def test_settled_translates_gather_only_the_short_keys(monkeypatch):
    # E3 at radius 10 has S = max(D, d - 1) = 0: the action's translate by g
    # gathers the keys at most |g| long, not the window's 59 049
    result = run_instance(corpus()["E3"], radius=10)
    window, base = result.family.window, result.family.base_set
    assert window._settled[base] == 0 and window.size == 59049
    window._translates.clear()
    walks = recorded_walks(monkeypatch)
    stabilizer_analysis(result.tree, window.model.ball(2))
    ends = window.graph.level_end
    assert any(counts for _, counts in walks)
    assert all(n <= ends[len(g.word)] for g, counts in walks for n in counts)


@pytest.mark.parametrize("name", ["E2", "C", "random mask"])
def test_unsettled_translates_gather_every_key(name, monkeypatch):
    # a free-abelian or free-product window, or a mask the window did not
    # decide, has no settled depth: every walk starts from every key
    if name == "C":
        model, sub, margin, _ = free_product_case()
        window = build_window(model, sub, 5, margin)
        base = build_base_set(window, BaseSetSpec(rules=(("s", True),)))
    else:
        spec = corpus()["E2" if name == "E2" else "E3"]
        model = make_model(spec)
        window = build_window(model, make_subgroup(model, spec.subgroup_generators),
                              spec.radius, spec.margin)
        base = build_base_set(window, make_base_spec(model, spec))
        if name == "random mask":
            base = random.Random(name).getrandbits(window.size)
    walks = recorded_walks(monkeypatch)
    ball = model.ball(2)
    for g in ball:
        window.translate(base, g)
    assert len(walks) == len(ball)
    assert all(n == window.size for g, counts in walks if not g.is_identity() for n in counts)
    assert all(counts for g, counts in walks if not g.is_identity())


# --------------------------------------------------------------------------
# bulk growth past the Stallings core against the per-step reference


def reference_grow(sub, radius):
    """The free-group coset graph grown one (parent, letter) step at a time,
    each unlinked step advanced and looked up, with a key string per coset."""
    model, advance = sub.model, sub.engine.advance
    letters = sorted((ch for g in model.letters for ch in (g, g.upper())), key=model.letter_rank)
    arrays = {s: [-1, -1] for s in letters}
    keys, fps, parent = [""], [sub.fingerprint(model.identity())], [-1]
    index, level_end = {fps[0]: 0}, [1]
    while len(level_end) <= radius:
        lo, hi = level_end[-2] if len(level_end) > 1 else 0, len(keys)
        for a in arrays.values():
            a.extend(itertools.repeat(-1, (hi - lo) * len(letters)))
        size = hi
        for i in range(lo, hi):
            for step in letters:
                forward, back = arrays[step], arrays[step.swapcase()]
                if forward[i] < 0:
                    fp = advance(fps[i], step)
                    j = index.setdefault(fp, size)
                    if j == size:
                        keys.append(keys[i] + step)
                        fps.append(fp)
                        parent.append(i)
                        size += 1
                    forward[i] = j
                    back[j] = i
        for a in arrays.values():
            del a[size + 1:]
        level_end.append(size)
    last = bytearray(1) + "".join(k[-1] for k in keys[1:]).encode()
    return dict(arrays=arrays, keys=keys, fps=fps, parent=parent, last=last,
                index=index, level_end=level_end)


@st.composite
def free_subgroups(draw):
    """A free group of rank 1-3, a subgroup of it and a radius: the trivial
    subgroup (no core but H), finite-index ones (no tails), or generators
    long enough that core and tail parents interleave within a layer."""
    rank = draw(st.integers(1, 3))
    model = free_group(rank)
    letters = [ch for g in model.letters for ch in (g, g.upper())]
    shape = draw(st.sampled_from(["trivial", "finite index", "long", "short"]))
    if shape == "trivial":
        gens = []
    elif shape == "finite index":
        powers = [[model.letters[0] * draw(st.integers(2, 4))]] if rank == 1 else []
        gens = draw(st.sampled_from([list(model.letters),
                                     [x + y for x in model.letters for y in model.letters],
                                     *powers]))
    else:
        lengths = (5, 8) if shape == "long" else (1, 4)
        gens = draw(st.lists(st.text(alphabet=letters, min_size=lengths[0], max_size=lengths[1]),
                             min_size=1, max_size=2))
    radius = draw(st.integers(2, {1: 10, 2: 6, 3: 4}[rank]))
    return subgroup(model, gens), radius


@settings(max_examples=80, deadline=None)
@given(free_subgroups())
@example((subgroup(F2, ["abaab"]), 6))
def test_bulk_growth_matches_the_per_step_reference(case):
    sub, radius = case
    ref = reference_grow(sub, radius)
    states, advance = sub.engine.states, sub.engine.advance
    # H and the cosets found by stepping from a core parent: the core and the tail roots
    stepped = [j for j, i in enumerate(ref["parent"]) if i < 0 or ref["fps"][i] < states]
    for radii in ([radius], [radius - 2, radius]):
        # one graph for the steps and one for the walks, each linked only by them
        stepping, walking = _CosetGraph(sub), _CosetGraph(sub)
        for graph in (stepping, walking):
            for r in radii:
                graph.grow(r)
        graph = stepping
        for name in ("parent", "last", "level_end"):
            assert getattr(graph, name) == ref[name], name
        assert graph.key_strings(0, len(graph.fps)) == ref["keys"]
        # only stepped cosets carry a fingerprint and an index entry; the
        # rest hold a value that reads past the core exactly where theirs does
        assert [graph.fps[j] for j in stepped] == [ref["fps"][j] for j in stepped]
        assert graph.index == {ref["fps"][j]: j for j in stepped}
        assert [fp >= states for fp in graph.fps] == [fp >= states for fp in ref["fps"]]
        # a step is the reference's link, or its lookup where the link is
        # unset; past the core it writes the pending links it reads first
        for i, fp in enumerate(ref["fps"]):
            for s, links in ref["arrays"].items():
                want = links[i] if links[i] >= 0 else ref["index"].get(advance(fp, s), -1)
                assert graph.step(i, s) == want, (i, s)
        # every coset is found by walking its key from H
        for j, key in enumerate(ref["keys"]):
            assert functools.reduce(walking.step, key, 0) == j, key
        # linked through the last id, the links are the reference's (the
        # stepping graph also holds the links its lookups found)
        walking.link(len(walking.fps))
        assert walking.arrays == ref["arrays"]


@st.composite
def lazy_link_cases(draw):
    """A free subgroup and radius (``free_subgroups``), a margin, a base spec
    of prefix rules and explicit keys at most 3 long, and up to six words at
    most 3 long to translate by."""
    sub, radius = draw(free_subgroups())
    letters = [ch for g in sub.model.letters for ch in (g, g.upper())]
    key = st.text(alphabet=letters, max_size=3)
    rules = draw(st.lists(st.tuples(key, st.booleans()), max_size=3, unique_by=lambda r: r[0]))
    includes = draw(st.frozensets(key, max_size=2))
    spec = BaseSetSpec(rules=tuple(rules), includes=includes,
                       excludes=draw(st.frozensets(key, max_size=2)) - includes,
                       default_in=draw(st.booleans()))
    words = draw(st.lists(key, min_size=1, max_size=6))
    return sub, radius, draw(st.integers(1, radius // 2)), spec, words


@settings(max_examples=80, deadline=None)
@given(lazy_link_cases())
@example((subgroup(F2, ["abaab"]), 6, 2, BaseSetSpec(rules=(("a", True), ("ab", False))),
          ["b", "aB", "abA"]))
def test_lazily_linked_translates_match_a_fully_linked_graph(case):
    sub, radius, margin, spec, words = case
    model = sub.model
    elements = [model.normalize(w) for w in words]
    lazy, full = (build_window(model, sub, radius, margin) for _ in range(2))
    full.graph.link(len(full.graph.fps))
    bases = [build_base_set(w, spec) for w in (lazy, full)]
    assert bases[0] == bases[1]

    def answers(window, base):
        # a walk from H links part of a run first; then the translates
        return ([window.locate(g) for g in elements],
                [window.translate(base, g) for g in elements])

    small = answers(lazy, bases[0])
    assert small == answers(full, bases[1])
    # radius + 2 grows the same graph and keeps its pending links
    big_lazy, big_full = lazy.extended(2), full.extended(2)
    assert big_lazy.graph is lazy.graph
    big_full.graph.link(len(big_full.graph.fps))
    big_bases = [build_base_set(w, spec) for w in (big_lazy, big_full)]
    assert answers(big_lazy, big_bases[0]) == answers(big_full, big_bases[1])
    # the small window over its grown graph answers as before
    lazy._translates.clear()
    assert answers(lazy, bases[0]) == small


def test_a_check_links_only_what_its_walks_read():
    # E3 at radius 10 (S = 0): the translates and walks of a check read links
    # a few letters deep, so no coset at level 6 or deeper links to a child
    window = run_instance(corpus()["E3"], radius=10).family.window
    graph = window.graph
    lo = graph.level_end[5]
    assert graph.radius == 10 and len(graph.fps) == 59049
    for s, links in graph.arrays.items():
        assert all(j < 0 or j == graph.parent[i] for i, j in enumerate(links[lo:-1], lo)), s


def test_interleaved_layer_takes_both_paths():
    # <abaab> folds to a 5-cycle: its layers mix core parents, stepped one
    # letter at a time, with runs of parents past the core, grown in bulk
    sub = subgroup(F2, ["abaab"])
    graph = _CosetGraph(sub).grow(3)
    lo, hi = graph.level_end[1], graph.level_end[2]
    past_core = [fp >= sub.engine.states for fp in graph.fps[lo:hi]]
    assert any(past_core) and not all(past_core)
    assert any(a != b for a, b in zip(past_core, past_core[1:]))


def test_no_fingerprint_past_the_core_is_ever_advanced(monkeypatch):
    # E1 has no core but H; <abaab>'s layers mix core and tail parents
    e3 = corpus()["E3"]
    cases = [(corpus()["E1"], None), *((e3, r) for r in (6, 7, 8)),
             (e3._replace(subgroup_generators=("abaab",)), 8)]
    want = [report_document(run_instance(spec, radius=r).report) for spec, r in cases]
    advance = _FreeEngine.advance

    def guarded(self, fp, step):
        if fp >= self.states:
            raise AssertionError(f"advanced the fingerprint {fp} past the core")
        return advance(self, fp, step)

    def fingerprint(self, e):
        # a whole word's fingerprint (membership, the graph's root) still reads its tail
        return functools.reduce(functools.partial(advance, self), e.word, 0)

    monkeypatch.setattr(_FreeEngine, "advance", guarded)
    monkeypatch.setattr(_FreeEngine, "fingerprint", fingerprint)
    results = [run_instance(spec, radius=r) for spec, r in cases]
    assert [report_document(result.report) for result in results] == want
    # every unlinked step out of the outermost layer: a core coset's is
    # looked up, a tail coset's is not
    graph = results[-1].family.window.graph
    for i in range(graph.level_end[-2], graph.level_end[-1]):
        for s in graph.letters:
            graph.step(i, s)


def test_check_builds_only_the_key_strings_it_reads():
    # E3 at radius 8: the core bound certifies the differences, so the graph
    # is never grown past the window's 3^8 cosets, and only the keys of its
    # core, the 3^6 at most 6 long, are spelled out; they are the ball's
    spec = corpus()["E3"]
    result = run_instance(spec, radius=8)
    report_document(result.report)
    window = result.family.window
    graph = window.graph
    assert graph.radius == 8 and len(graph.fps) == 3 ** 8 == 6561
    # past the core no coset is indexed: the entries are H, b and B
    assert len(graph.index) == 3
    assert len(graph.keys) == 3 ** 6 == 729
    table = CosetTable(window.sub, window.model.ball(8, max_radius=8))
    assert graph.keys == table.keys[:729]
    # E2 (free abelian) and E4 (a free product) build their largest family
    # at radius + 2, in the stability re-check: no key past its core is spelled
    for name in ("E2", "E4"):
        spec = corpus()[name]
        result = run_instance(spec)
        report_document(result.report)
        assert result.report.status == "pass", name
        graph = result.family.window.graph
        assert graph.radius == spec.radius + 2, name
        assert len(graph.keys) <= graph.level_end[graph.radius - spec.margin] < len(graph.fps), name
