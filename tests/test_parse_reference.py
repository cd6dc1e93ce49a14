"""The instance parser against the parser it replaced, and its error messages.

The reference is the earlier ``parse_instance_text``, kept here verbatim
but for ``dataclasses.replace`` calls written as ``_replace``, since the
spec became a NamedTuple: it files each section's lines in a list, scans
the list once per key, and rebuilds the spec for every key it reads.
The parser in ``tracktree.instances`` must give an equal spec, or a
``ParseError``, on exactly the texts where the reference does, except for
four deliberate changes:

* a repeated ``default`` in ``[base_set]`` is an error (the reference
  checked every value and kept the last);
* a single-integer key whose value is not exactly one integer is an
  error (the reference read the first, and raised ``IndexError`` on none);
* where several lines are at fault, which one the message names;
* a ``#`` after a tab, not only after a space, starts an inline comment
  (no text here has one, so the two parsers still agree on all of them).
"""

import ast
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracktree import (
    InstanceSpec,
    instance_to_text,
    parse_instance_text,
)
from tracktree.errors import ParseError
from tracktree.instances import Expectations, _ints, _parse_bool, _tokens
from tracktree.oracles import random_nested_family

from shipped_instances import INSTANCE_DIR, group_instances, shipped


# --------------------------------------------------------------------------
# the reference


def ref_parse_instance_text(text: str) -> InstanceSpec:
    sections: dict[str, list[tuple[str, str]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(" #", 1)[0].strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ParseError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        sections[current].append((key.strip().lower(), value.strip()))

    def section(name: str) -> list[tuple[str, str]]:
        return sections.get(name, [])

    def single(name: str, key: str, default: Optional[str] = None) -> Optional[str]:
        hits = [v for k, v in section(name) if k == key]
        if not hits:
            return default
        if len(hits) > 1:
            raise ParseError(f"key {key!r} repeated in [{name}]")
        return hits[0]

    spec = InstanceSpec(name=single("instance", "name", "unnamed") or "unnamed")
    spec = spec._replace(mode=(single("instance", "mode", "group") or "group").lower())

    if spec.mode == "group":
        kind = single("group", "kind")
        if kind is None:
            raise ParseError("group mode needs a [group] section with a kind")
        spec = spec._replace(kind=kind.lower())
        rank = single("group", "rank")
        if rank is not None:
            spec = spec._replace(rank=_ints(rank, "rank")[0])
        orders = single("group", "orders")
        if orders is not None:
            spec = spec._replace(orders=tuple(_ints(orders, "orders")),
                                 rank=len(_ints(orders, "orders")))
        letters = single("group", "letters")
        if letters is not None:
            spec = spec._replace(letters=letters)

        radius = single("window", "radius")
        margin = single("window", "margin")
        action = single("window", "action_radius")
        if radius is not None:
            spec = spec._replace(radius=_ints(radius, "radius")[0])
        if margin is not None:
            spec = spec._replace(margin=_ints(margin, "margin")[0])
        if action is not None:
            spec = spec._replace(action_radius=_ints(action, "action_radius")[0])

        gens = single("subgroup", "generators", "")
        spec = spec._replace(subgroup_generators=tuple(_tokens(gens or "")))

        rules = []
        includes: list[str] = []
        excludes: list[str] = []
        default_in = False
        for key, value in section("base_set"):
            if key == "rule":
                parts = _tokens(value)
                if len(parts) != 2 or parts[1].lower() not in ("in", "out"):
                    raise ParseError(f"rule must be '<prefix> in|out', got {value!r}")
                rules.append((parts[0], parts[1].lower() == "in"))
            elif key == "include":
                includes.extend(_tokens(value))
            elif key == "exclude":
                excludes.extend(_tokens(value))
            elif key == "default":
                if value.lower() not in ("in", "out"):
                    raise ParseError(f"default must be 'in' or 'out', got {value!r}")
                default_in = value.lower() == "in"
            else:
                raise ParseError(f"unknown base_set key {key!r}")
        spec = spec._replace(base_rules=tuple(rules), base_includes=tuple(includes),
                             base_excludes=tuple(excludes), base_default_in=default_in)

        elements = single("translations", "elements")
        if elements is not None:
            spec = spec._replace(translations=tuple(_tokens(elements)))

        kgens = single("expected_k", "generators", "")
        spec = spec._replace(expected_k_generators=tuple(_tokens(kgens or "")))
        exact = single("expected_k", "exact")
        if exact is not None:
            spec = spec._replace(expected_k_exact=_parse_bool(exact, "expected_k.exact"))
    else:
        keys = single("universe", "keys", "")
        spec = spec._replace(universe=tuple(_tokens(keys or "")))
        vertices = []
        for key, value in section("vertices"):
            if key != "vertex":
                raise ParseError(f"unknown vertices key {key!r}")
            if ":" not in value:
                raise ParseError(f"vertex must be '<name> : <keys>', got {value!r}")
            name, members = value.split(":", 1)
            vertices.append((name.strip(), tuple(_tokens(members))))
        spec = spec._replace(explicit_vertices=tuple(vertices))

    exp = Expectations()
    nested = single("expectations", "nested")
    if nested is not None:
        exp = exp._replace(nested=_parse_bool(nested, "expectations.nested"))
    tv = single("expectations", "tree_vertices")
    if tv is not None:
        exp = exp._replace(tree_vertices=_ints(tv, "tree_vertices")[0])
    te = single("expectations", "tree_edges")
    if te is not None:
        exp = exp._replace(tree_edges=_ints(te, "tree_edges")[0])
    cs = single("expectations", "class_sizes")
    if cs is not None:
        exp = exp._replace(class_sizes=tuple(sorted(_ints(cs, "class_sizes"))))
    spec = spec._replace(expectations=exp)
    return spec.validate()


# --------------------------------------------------------------------------
# inputs


def nested_family_text(seed: int) -> str:
    """An explicit family in the shape of the benchmark's: vertices and every expectation."""
    family, info = random_nested_family(seed, max_vertices=16)
    return instance_to_text(InstanceSpec(
        name=f"nested-{seed:02d}", mode="explicit",
        universe=tuple(family.universe),
        explicit_vertices=tuple((v.name, tuple(family.keys_of(v.members)))
                                for v in family.vertices),
        expectations=Expectations(nested=True, tree_vertices=info.tree_vertex_count,
                                  tree_edges=info.tree_edge_count,
                                  class_sizes=tuple(sorted(info.class_sizes)))))


TEXTS = ([instance_to_text(s) for s in (*group_instances().values(), shipped()["crossing"], shipped()["fig1"])]
         + [p.read_text() for p in sorted(INSTANCE_DIR.glob("*.ini"))]
         + [nested_family_text(seed) for seed in range(8)])

# lines a mutation may insert: every line of the texts, and lines that are at fault
# or that move a key into another section or mode
EXTRA_LINES = [
    "garbage", "= 1", "[unknown]", "[group]", "[window]", "[base_set]", "[vertices]",
    "[expectations]", "[instance]", "# comment", "; comment", "frob = 1",
    "mode = explicit", "mode = group", "mode = other", "kind = free", "kind =",
    "rank =", "rank = 1 2", "rank = x", "radius = 9", "margin = 0", "action_radius = 1",
    "action_radius =", "action_radius = 1 2", "orders = 2, 3", "orders =", "letters =",
    "default = in", "default = out", "default = sideways", "rule = b", "rule = b in",
    "include = 1", "exclude = a", "exact = maybe", "nested = true", "tree_vertices =",
    "tree_edges = 1 1", "class_sizes = x", "vertex = q", "vertex = q : a", "vertex = v0 :",
    "keys =", "elements = t", "generators = a",
]
POOL = sorted({line for text in TEXTS for line in text.splitlines()} | set(EXTRA_LINES))


def outcome(parse, text):
    try:
        return "spec", parse(text)
    except ParseError as exc:
        return "error", str(exc)
    except IndexError:
        return "crash", None


def deliberately_rejected(message: str) -> bool:
    """Whether a text the reference accepts is refused by one of the deliberate changes."""
    if message == "key 'default' repeated in [base_set]":
        return True
    if message.startswith("expected one integer for "):
        value = ast.literal_eval(message.split(", got ", 1)[1])
        return len(_tokens(value)) != 1
    return False


@st.composite
def mutated_texts(draw):
    lines = draw(st.sampled_from(TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("drop", "duplicate", "insert")))
        if op != "insert" and lines:
            at = draw(st.integers(0, len(lines) - 1))
            if op == "drop":
                del lines[at]
            else:
                lines.insert(at, lines[at])
        else:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(POOL)))
    return "\n".join(lines) + "\n"


@settings(max_examples=600, deadline=None)
@given(mutated_texts())
def test_parser_agrees_with_the_reference(text):
    ref, new = outcome(ref_parse_instance_text, text), outcome(parse_instance_text, text)
    assert new[0] != "crash"
    if ref[0] == "spec" and new[0] == "spec":
        assert new[1] == ref[1]
    elif ref[0] == "spec":
        assert deliberately_rejected(new[1]), new[1]
    else:
        assert new[0] == "error", (ref, new)


def test_parser_agrees_with_the_reference_on_every_text():
    for text in TEXTS:
        assert parse_instance_text(text) == ref_parse_instance_text(text)


# --------------------------------------------------------------------------
# one fault each, with its exact message

E3 = (INSTANCE_DIR / "E3.ini").read_text()
CROSSING = (INSTANCE_DIR / "crossing.ini").read_text()

SINGLE_FAULTS = [
    (E3.replace("[window]", "window"), "line 9: expected 'key = value', got 'window'"),
    ("name = E3\n" + E3, "line 1: key outside any [section]"),
    (E3.replace("rank = 2", "rank = 2\nrank = 2"), "key 'rank' repeated in [group]"),
    (E3.replace("name = E3", "name = E3\nname = E4"), "key 'name' repeated in [instance]"),
    (CROSSING.replace("nested = false", "nested = false\nnested = true"),
     "key 'nested' repeated in [expectations]"),
    (E3.replace("kind = free\n", ""), "group mode needs a [group] section with a kind"),
    (E3.replace("rank = 2", "rank = two"), "expected integers for rank, got 'two'"),
    (E3.replace("rank = 2", "orders = 2, x"),
     "expected integers for orders, got '2, x'"),
    (E3.replace("radius = 6", "radius = 6.0"), "expected integers for radius, got '6.0'"),
    (E3.replace("class_sizes = 1,1,1", "class_sizes = 1,1,a"),
     "expected integers for class_sizes, got '1,1,a'"),
    (E3.replace("exact = false", "exact = maybe"),
     "expected a boolean for expected_k.exact, got 'maybe'"),
    (E3.replace("nested = true", "nested = 1"),
     "expected a boolean for expectations.nested, got '1'"),
    (E3.replace("rule = b in", "rule = b sideways"),
     "rule must be '<prefix> in|out', got 'b sideways'"),
    (E3.replace("rule = b in", "rule = b"), "rule must be '<prefix> in|out', got 'b'"),
    (E3.replace("default = out", "default = maybe"),
     "default must be 'in' or 'out', got 'maybe'"),
    (E3.replace("rule = b in", "rule = b in\nprefix = b"), "unknown base_set key 'prefix'"),
    (CROSSING.replace("vertex = va : a", "vertex = va : a\nnode = vc : a"),
     "unknown vertices key 'node'"),
    (CROSSING.replace("vertex = va : a", "vertex = va a"),
     "vertex must be '<name> : <keys>', got 'va a'"),
    (E3.replace("name = E3", "name = E3\nmode = Other"), "unknown mode 'other'"),
    (CROSSING.replace("vertex = ", "# vertex = "), "explicit mode needs at least one vertex"),
    (E3.replace("margin = 2", "margin = 0"), "margin must be at least 1"),
    (E3.replace("radius = 6", "radius = 3"), "radius 3 must be at least twice the margin 2"),
    (E3.replace("margin = 2", "margin = 2\naction_radius = 3"),
     "action radius cannot exceed the margin"),
    (E3.replace("margin = 2", "margin = 2\naction_radius = -1"),
     "action radius must not be negative"),
    (E3.replace("1, b, B", "b, B"), "translations must contain the identity token '1'"),
    (E3.replace("kind = free\nrank = 2", "kind = free_product_cyclic"),
     "free_product_cyclic needs factor orders"),
]

# faults the reference let through or crashed on
NEW_FAULTS = [
    (E3.replace("default = out", "default = out\ndefault = in"),
     "key 'default' repeated in [base_set]"),
    (E3.replace("rank = 2", "rank = 2 3"), "expected one integer for rank, got '2 3'"),
    (E3.replace("rank = 2", "rank ="), "expected one integer for rank, got ''"),
    (E3.replace("radius = 6", "radius ="), "expected one integer for radius, got ''"),
    (E3.replace("margin = 2", "margin = 2, 2"), "expected one integer for margin, got '2, 2'"),
    (E3.replace("margin = 2", "margin = 2\naction_radius ="),
     "expected one integer for action_radius, got ''"),
    (E3.replace("tree_vertices = 4", "tree_vertices ="),
     "expected one integer for tree_vertices, got ''"),
    (E3.replace("tree_edges = 3", "tree_edges = 3 4"),
     "expected one integer for tree_edges, got '3 4'"),
]


@pytest.mark.parametrize("text, message", SINGLE_FAULTS, ids=[m for _, m in SINGLE_FAULTS])
def test_single_fault_message(text, message):
    for parse in (parse_instance_text, ref_parse_instance_text):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message


@pytest.mark.parametrize("text, message", NEW_FAULTS, ids=[m for _, m in NEW_FAULTS])
def test_faults_the_reference_missed(text, message):
    with pytest.raises(ParseError) as exc:
        parse_instance_text(text)
    assert str(exc.value) == message
    assert outcome(ref_parse_instance_text, text)[0] != "error"


@pytest.mark.parametrize("extra", [
    "[universe]\nkeys = a b", "[vertices]\nvertex = e :", "[unknown]\nfrob = 1",
    "[group]\nfrob = 1", "[window]\nfrob = 1", "[expectations]\nfrob = 1",
    "[instance]\nfrob = 1",
])
def test_ignored_keys(extra):
    assert parse_instance_text(E3 + extra + "\n") == parse_instance_text(E3)


@pytest.mark.parametrize("extra", [
    "[group]\nkind = free\nkind = free", "[base_set]\nfrob = 1", "[base_set]\ndefault = in",
    "[window]\nradius = 1", "[expected_k]\nexact = maybe",
])
def test_other_mode_keys_are_ignored(extra):
    assert parse_instance_text(CROSSING + extra + "\n") == shipped()["crossing"]


def test_repeatable_keys_keep_file_order():
    text = E3.replace("rule = b in", "include = 1, b\nrule = b in\nexclude = bb\n"
                                     "rule = B out\ninclude = ab\nexclude = BB")
    spec = parse_instance_text(text)
    assert spec.base_rules == (("b", True), ("B", False))
    assert spec.base_includes == ("1", "b", "ab")
    assert spec.base_excludes == ("bb", "BB")


def test_unknown_key_is_named_by_its_first_occurrence():
    text = CROSSING.replace("vertex = e :", "node = x : a\nvertex = e :\nedge = y : b")
    with pytest.raises(ParseError, match="unknown vertices key 'node'"):
        parse_instance_text(text)
