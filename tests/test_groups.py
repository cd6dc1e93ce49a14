"""Group arithmetic: normal forms, balls, membership engines, coset keys."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracktree import (
    compose,
    free_abelian_group,
    free_group,
    free_product_of_cyclics,
    invert,
    subgroup,
)
from tracktree import groups
from tracktree.groups import CosetTable
from tracktree.errors import (
    ModelMismatch,
    RadiusTooLarge,
    UnknownLetter,
)

from cyclic_reference import full_power_loop, reference_subgroup

F2 = free_group(2)
Z = free_group(1, "t")
Z2 = free_abelian_group(2)
Z2Z2 = free_product_of_cyclics([2, 2])
Z2Z3 = free_product_of_cyclics([2, 3])
Z2Z2Z2 = free_product_of_cyclics([2, 2, 2])


def words(model, max_len=6):
    letters = [ch for g in model.letters for ch in (g, g.upper())]
    return st.text(alphabet=letters, max_size=max_len)


# --------------------------------------------------------------------------
# normal forms


def test_normalize_free_reduction():
    assert F2.normalize("aAb").word == "b"
    assert F2.normalize("abBA").word == ""
    assert F2.normalize("").word == ""


def test_normalize_abelian_sorted_exponents():
    assert Z2.normalize("xyx").word == "xxy"
    assert Z2.normalize("xX").word == ""
    assert Z2.normalize("yXx").word == "y"


def test_normalize_cyclic_orders():
    assert Z2Z3.normalize("ssttt").word == ""
    assert Z2Z3.normalize("T").word == "tt"
    assert Z2Z2.normalize("ss").word == ""


def test_normalize_unknown_letter():
    with pytest.raises(UnknownLetter):
        F2.normalize("ac")


def test_letter_lookups_share_one_rank_table():
    for model in (F2, Z2, Z2Z3):
        alphabet = [ch for g in model.letters for ch in (g, g.upper())]
        assert [model.letter_rank(ch) for ch in alphabet] == list(range(len(alphabet)))
        assert [model.letter_index(ch) for ch in alphabet] == [i // 2 for i in range(len(alphabet))]
        assert model.sort_key("".join(alphabet)) == (len(alphabet), tuple(range(len(alphabet))))
    for bad in ("c", "C", "1", "", "ab", "\u212a"):
        with pytest.raises(UnknownLetter):
            F2.letter_index(bad)
        with pytest.raises(UnknownLetter):
            F2.letter_rank(bad)
    for bad in ("ac", "Ca", "a1"):
        with pytest.raises(UnknownLetter):
            F2.sort_key(bad)


@settings(max_examples=200)
@given(words(F2))
def test_normalize_idempotent_free(raw):
    once = F2.normalize(raw)
    assert F2.normalize(once.word) == once


@settings(max_examples=200)
@given(words(Z2Z3))
def test_normalize_idempotent_cyclic(raw):
    once = Z2Z3.normalize(raw)
    assert Z2Z3.normalize(once.word) == once


@settings(max_examples=200)
@given(words(Z2))
def test_normalize_idempotent_abelian(raw):
    once = Z2.normalize(raw)
    assert Z2.normalize(once.word) == once


# --------------------------------------------------------------------------
# composition and inversion


def test_compose_examples():
    assert compose(F2.normalize("ab"), F2.normalize("B")).word == "a"
    assert compose(Z2.normalize("x"), Z2.normalize("y")).word == "xy"
    assert compose(Z2Z2.normalize("st"), Z2Z2.normalize("ts")).word == ""


def test_compose_identity_neutral():
    for model, word in ((F2, "aB"), (Z2, "xxY"), (Z2Z3, "sttst")):
        e = model.normalize(word)
        assert compose(e, model.identity()) == e
        assert compose(model.identity(), e) == e


@settings(max_examples=300)
@given(words(F2, 12), words(F2, 12))
def test_free_compose_matches_the_reduced_concatenation(raw1, raw2):
    # compose starts its reduction from the left word; normalize reduces from scratch
    e1, e2 = F2.normalize(raw1), F2.normalize(raw2)
    assert compose(e1, e2) == F2.normalize(raw1 + raw2) == F2.normalize(e1.word + e2.word)


def test_compose_model_mismatch():
    with pytest.raises(ModelMismatch):
        compose(F2.normalize("a"), Z.normalize("t"))


def test_invert_examples():
    assert invert(F2.normalize("ab")).word == "BA"
    assert invert(Z2.normalize("xxY")).word == "XXy"
    assert invert(Z2Z3.normalize("st")).word == "tts"


def test_compose_associative_random_triples():
    rng = random.Random(20240811)
    models = (F2, Z2, Z2Z3)
    for _ in range(10_000):
        model = models[rng.randrange(3)]
        letters = [ch for g in model.letters for ch in (g, g.upper())]
        a, b, c = (
            model.normalize("".join(rng.choice(letters) for _ in range(rng.randint(0, 5))))
            for _ in range(3)
        )
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, invert(a)).is_identity()


# --------------------------------------------------------------------------
# balls


def test_ball_examples():
    assert [e.word for e in F2.ball(1)] == ["", "a", "A", "b", "B"]
    assert len(Z.ball(3)) == 7
    assert [e.word for e in Z2Z2.ball(2)] == ["", "s", "t", "st", "ts"]


def test_ball_nested_and_closed_form():
    for model in (F2, Z, Z2, Z2Z3):
        smaller = {e.word for e in model.ball(3)}
        larger = {e.word for e in model.ball(4)}
        assert smaller < larger
    # free group of rank r: 1 + sum 2r (2r-1)^(k-1)
    for r, radius in ((1, 5), (2, 4), (3, 3)):
        model = free_group(r)
        expected = 1 + sum(2 * r * (2 * r - 1) ** (k - 1) for k in range(1, radius + 1))
        assert len(model.ball(radius)) == expected
    # free abelian rank r: lattice points of L1 norm <= radius
    for r, radius in ((1, 6), (2, 5), (3, 3)):
        model = free_abelian_group(r)
        count = 0
        span = range(-radius, radius + 1)
        for vec in itertools.product(span, repeat=r):
            if sum(abs(x) for x in vec) <= radius:
                count += 1
        assert len(model.ball(radius)) == count


BALL_MODELS = [
    Z, F2, free_group(3), free_abelian_group(1), Z2, free_abelian_group(3),
    Z2Z2, Z2Z3, free_product_of_cyclics([3, 4, 5]),
]


@pytest.mark.parametrize("model", BALL_MODELS)
def test_ball_size_closed_form(model):
    for radius in range(7):
        assert model.ball_size(radius) == len(model.ball(radius))


@pytest.mark.parametrize("model", BALL_MODELS)
def test_ball_is_every_short_normal_form(model):
    # the breadth-first ball against the normal forms of all raw words
    letters = [ch for g in model.letters for ch in (g, g.upper())]
    forms = set()
    for radius in range(5):
        forms.update(model.normalize("".join(raw)).word
                     for raw in itertools.product(letters, repeat=radius))
        ball = model.ball(radius)
        assert [e.word for e in ball] == sorted(
            (w for w in forms if len(w) <= radius), key=model.sort_key)
    for e in ball:
        assert compose(e, invert(e)).is_identity()
        assert compose(invert(e), e).is_identity()
        assert invert(invert(e)) == e


@pytest.mark.parametrize("model", BALL_MODELS)
def test_successors_are_the_canonical_extensions(model):
    # the class union walks the successor rule without going through ball,
    # so the rule is checked against the normal form on its own
    letters = [ch for g in model.letters for ch in (g, g.upper())]
    for e in model.ball(4):
        successors = model.successors(e.word)
        for ch in letters:
            canonical = model.normalize(e.word + ch).word == e.word + ch
            assert (ch in successors) == canonical, (e, ch)
        assert list(successors) == sorted(successors, key=model.letter_rank), e


def test_ball_cap_applies_to_closed_form_size(monkeypatch):
    with pytest.raises(RadiusTooLarge):
        F2.require_ball(12)  # 1 062 881 elements, refused without enumerating them
    monkeypatch.setattr(groups, "DEFAULT_MAX_ELEMENTS", 17)
    assert len(F2.ball(2)) == 17
    monkeypatch.setattr(groups, "DEFAULT_MAX_ELEMENTS", 16)
    with pytest.raises(RadiusTooLarge):
        F2.ball(2)


def test_ball_radius_limits(monkeypatch):
    with pytest.raises(RadiusTooLarge):
        F2.ball(13)
    assert len(Z.ball(13, max_radius=13)) == 27
    monkeypatch.setattr(groups, "DEFAULT_MAX_ELEMENTS", 50)
    with pytest.raises(RadiusTooLarge):
        F2.ball(6)


# --------------------------------------------------------------------------
# membership


def brute_force_members(model, generator_words, length_cap, work_cap):
    """Closure of the generators under multiplication, up to a length cap."""
    gens = [model.normalize(w) for w in generator_words]
    gens = gens + [invert(g) for g in gens]
    seen = {model.identity().word}
    frontier = [model.identity()]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = compose(e, g)
                if len(prod.word) <= work_cap and prod.word not in seen:
                    seen.add(prod.word)
                    nxt.append(prod)
        frontier = nxt
    return {w for w in seen if len(w) <= length_cap}


@pytest.mark.parametrize("gens", [
    # folding automata
    (F2, ["a"]), (F2, ["ab"]), (F2, ["aa", "b"]), (F2, ["ab", "Ab"]), (F2, ["aba", "bb"]),
    (F2, ["aa", "ab"]),
    # lattices, trivial subgroups, a subgroup of one factor, finite <sts> = s<t>s^-1,
    # infinite <st> and <tst> = t<stt>t^-1
    (Z2, ["xxy"]), (Z2, ["xx", "yy"]), (F2, []), (Z2Z3, []),
    (free_product_of_cyclics([2, 6]), ["tt"]), (Z2Z2, ["sts"]), (Z2Z3, ["st"]), (Z2Z3, ["tst"]),
    # several generators in one factor: <t^4, t^3> = <t> and <t^4, t^2> = <tt> in Z6
    (free_product_of_cyclics([2, 6]), ["tttt", "ttt"]),
    (free_product_of_cyclics([2, 6]), ["tttt", "tt"]),
    # several words in no one factor: index 2 in Z2*Z2*Z2, the orbit closures
    # of <st, ts> in Z3*Z3 and of <sts, tt> = <t, sts> in Z2*Z3, and deeper cores
    (Z2Z2Z2, ["st", "tu"]), (free_product_of_cyclics([3, 3]), ["st", "ts"]), (Z2Z3, ["sts", "tt"]),
    (free_product_of_cyclics([2, 4]), ["tstt", "stts"]), (free_product_of_cyclics([3, 4]), ["stt", "tst"]),
    (Z2Z3, ["stst", "tstt"]),
])
def test_folding_automaton_vs_brute_force(gens):
    """Every engine's membership against the closure of the generators."""
    model, words = gens
    sub = subgroup(model, words)
    expected = brute_force_members(model, words, 6, 14)
    for e in model.ball(6):
        assert sub.member(e) == (e.word in expected), e.word


def test_member_examples():
    h_a = subgroup(F2, ["a"])
    assert h_a.member(F2.normalize("aaa"))
    assert not h_a.member(F2.normalize("baB"))
    h_ab = subgroup(F2, ["ab"])
    assert h_ab.member(F2.normalize("abab"))


def test_member_generators_and_identity():
    for model, gens in ((F2, ["ab", "ba"]), (Z2, ["xy", "xY"]), (Z2Z3, ["tt"])):
        sub = subgroup(model, gens)
        assert sub.member(model.identity())
        for g in sub.generators:
            assert sub.member(g)


def test_lattice_membership():
    sub = subgroup(Z2, ["xxy"])  # lattice spanned by (2, 1)
    assert sub.member(Z2.normalize("xxy"))
    assert sub.member(Z2.normalize("xxxxyy"))
    assert not sub.member(Z2.normalize("x"))
    sub2 = subgroup(Z2, ["xx", "yy"])
    assert sub2.member(Z2.normalize("xxyy"))
    assert not sub2.member(Z2.normalize("xy"))
    # brute force: integer combinations with small coefficients
    vecs = [(2, 0), (0, 2)]
    combos = {
        (a * vecs[0][0] + b * vecs[1][0], a * vecs[0][1] + b * vecs[1][1])
        for a in range(-6, 7) for b in range(-6, 7)
    }
    for e in Z2.ball(5):
        vec = tuple(
            e.word.count(ch) - e.word.count(ch.upper()) for ch in Z2.letters
        )
        assert sub2.member(e) == (vec in combos)


def test_cyclic_factor_membership():
    z2z6 = free_product_of_cyclics([2, 6])
    sub = subgroup(z2z6, ["tt"])
    assert sub.member(z2z6.normalize("tttt"))
    assert not sub.member(z2z6.normalize("ttt"))
    assert not sub.member(z2z6.normalize("s"))


def test_cyclic_infinite_membership():
    sub = subgroup(Z2Z3, ["st"])
    e = Z2Z3.identity()
    g = Z2Z3.normalize("st")
    for _ in range(4):
        assert sub.member(e)
        e = compose(e, g)
    assert sub.member(invert(g))
    assert not sub.member(Z2Z3.normalize("ts"))
    assert not sub.member(Z2Z3.normalize("s"))


def test_cyclic_conjugate_membership():
    sub = subgroup(Z2Z2, ["sts"])  # conjugate of t, so order two
    assert sub.member(Z2Z2.normalize("sts"))
    assert sub.member(Z2Z2.identity())
    assert not sub.member(Z2Z2.normalize("st"))
    assert not sub.member(Z2Z2.normalize("t"))


@st.composite
def subgroups(draw):
    """A subgroup of a group of each kind, on up to two words (free and free
    abelian groups) or one to three words (free products)."""
    kind = draw(st.sampled_from(["free", "free_abelian", "free_product_cyclic"]))
    if kind == "free":
        model = free_group(draw(st.integers(1, 2)))
    elif kind == "free_abelian":
        model = free_abelian_group(draw(st.integers(1, 3)))
    else:
        model = free_product_of_cyclics(draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)))
    product = kind == "free_product_cyclic"
    return subgroup(model, draw(st.lists(words(model, 5), min_size=int(product),
                                         max_size=3 if product else 2)))


def steps(model):
    """The steps of the coset graph: letters and inverses, or syllables of a factor."""
    if model.kind == "free_product_cyclic":
        return [g * e for g, n in zip(model.letters, model.orders) for e in range(1, n)]
    return [ch for g in model.letters for ch in (g, g.upper())]


@settings(max_examples=200, deadline=None)
@given(subgroups(), st.data())
def test_advance_is_the_fingerprint_of_the_product(sub, data):
    model = sub.model
    e = model.normalize(data.draw(words(model, 8)))
    step = data.draw(st.sampled_from(steps(model)))
    assert sub.engine.advance(sub.fingerprint(e), step) == sub.fingerprint(model.normalize(e.word + step))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=2, max_size=3), st.data())
def test_cyclic_fingerprint_stops_where_powers_only_grow(orders, data):
    model = free_product_of_cyclics(orders)
    sub = reference_subgroup(model, [data.draw(words(model, 6))])
    assume(sub.engine.v is not None)
    e = model.normalize(data.draw(words(model, 10)))
    assert sub.fingerprint(e) == full_power_loop(sub.engine, e)


@st.composite
def reference_subgroups(draw):
    """A subgroup the cyclic reference covers: in one factor, or cyclic on one word."""
    model = free_product_of_cyclics(draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)))
    if draw(st.booleans()):
        ch = draw(st.sampled_from(model.letters))
        return model, [ch * e for e in draw(st.lists(st.integers(1, 3), max_size=3))]
    return model, draw(st.lists(words(model, 6), max_size=1))


@settings(max_examples=150, deadline=None)
@given(reference_subgroups(), st.integers(4, 5))
def test_folding_partitions_the_ball_as_the_cyclic_reference(gens, radius):
    model, generator_words = gens
    sub, ref = subgroup(model, generator_words), reference_subgroup(model, generator_words)
    ball = model.ball(radius)
    cosets, ref_cosets = {}, {}
    for e in ball:
        cosets.setdefault(sub.fingerprint(e), []).append(e.word)
        ref_cosets.setdefault(ref.fingerprint(e), []).append(e.word)
    assert sorted(cosets.values()) == sorted(ref_cosets.values())


def test_free_product_subgroups_of_several_words():
    # <st, ts> in Z2*Z3 lies in no factor and is not cyclic
    sub = subgroup(Z2Z3, ["st", "ts"])
    expected = brute_force_members(Z2Z3, ["st", "ts"], 6, 14)
    for e in Z2Z3.ball(6):
        assert sub.member(e) == (e.word in expected), e.word
    # (ut)^-1 utuu = uu, so u, then t and s, lie in <ut, utuu, tuus>: it is all
    # of G, and the folding closes to one live state, the base, with a loop
    # for every letter (the other states were merged away)
    model = free_product_of_cyclics([2, 2, 3])
    sub = subgroup(model, ["ut", "utuu", "tuus"])
    assert not any(sub.engine.next[1:])
    assert sub.engine.next[0] == {ch: 0 for g in model.letters for ch in (g, g.upper())}
    assert all(sub.member(e) for e in model.ball(5))


# --------------------------------------------------------------------------
# coset keys


def test_coset_key_examples():
    sub = subgroup(F2, ["a"])
    table = CosetTable(sub, F2.ball(4))
    assert table.key(F2.normalize("aab")) == "b"
    assert table.key(F2.normalize("aaa")) == ""
    trivial = subgroup(Z, [])
    t_table = CosetTable(trivial, Z.ball(5))
    for e in Z.ball(5):
        assert t_table.key(e) == e.word


@pytest.mark.parametrize(
    "model,gens,radius",
    [(F2, ["a"], 4), (Z2, ["x"], 4), (Z2Z3, ["t"], 4),
     # cyclic subgroups of free products: infinite <st>, infinite <tst> = t<stt>t^-1,
     # and finite <sts> = s<t>s^-1
     (Z2Z2Z2, ["st"], 4), (Z2Z3, ["tst"], 4), (Z2Z3, ["sts"], 4)],
)
def test_coset_key_iff_membership(model, gens, radius):
    sub = subgroup(model, gens)
    ball = model.ball(radius)
    table = CosetTable(sub, ball)
    for e1 in ball:
        for e2 in ball:
            same = table.key(e1) == table.key(e2)
            assert same == sub.member(compose(e1, invert(e2)))


def test_coset_key_left_stable_and_minimal():
    sub = subgroup(F2, ["a"])
    ball = F2.ball(4)
    table = CosetTable(sub, ball)
    h_elements = [F2.normalize(w) for w in ["a", "aa", "A"]]
    for e in ball:
        key = table.key(e)
        assert len(key) <= len(e.word)
        for h in h_elements:
            moved = compose(h, e)
            if moved.word in table.key_of:
                assert table.key(moved) == key


def test_coset_table_key_guards():
    from tracktree.errors import SearchBudgetExceeded

    sub = subgroup(F2, ["a"])
    table = CosetTable(sub, F2.ball(3))
    assert table.key(F2.normalize("aab")) == "b"
    with pytest.raises(SearchBudgetExceeded):
        table.key(F2.normalize("bbbb"))  # outside the tabulated ball
