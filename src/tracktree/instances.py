"""Instance documents: the flat text format and validation.

An instance file is a flat structured-text document with ``[section]``
headers, ``key = value`` lines and comments: a line whose first non-blank
character is ``#`` or ``;``, and the rest of a line from a ``#`` that
follows whitespace.  Words use the letter syntax of the group models, with
``1`` standing for the empty word.
Explicit mode bypasses the group machinery and lists the universe and the
vertex subsets directly, which is how falsification families (e.g.
crossing configurations) are injected.

Keys, with defaults in parentheses; ``*`` marks a repeatable key, read in file order:
* both modes: [instance] name (unnamed), mode (group | explicit); [expectations]
  nested, tree_vertices, tree_edges, class_sizes (each unchecked when absent);
* group: [group] kind (required), rank (1), orders (sets the rank), letters;
  [window] radius (8), margin (2), action_radius (the margin); [subgroup] generators
  (none); [base_set] default (out), rule* = <prefix> in|out, include*, exclude*;
  [translations] elements (1); [expected_k] generators (none), exact (false);
* explicit: [universe] keys (distinct); [vertices] vertex* = <name> : <keys>, names distinct.
Any other key may appear once.  An unknown key in [base_set] or [vertices] is an
error; unknown sections, other unknown keys and the other mode's sections are ignored.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .errors import ParseError
from .groups import (
    GroupModel,
    SubgroupModel,
    free_abelian_group,
    free_group,
    free_product_of_cyclics,
    subgroup,
)
from .windows import BaseSetSpec

IDENTITY_TOKEN = "1"


class Expectations(NamedTuple):
    nested: Optional[bool] = None
    tree_vertices: Optional[int] = None
    tree_edges: Optional[int] = None
    class_sizes: Optional[tuple[int, ...]] = None


class InstanceSpec(NamedTuple):
    name: str
    mode: str = "group"  # "group" or "explicit"
    kind: str = "free"
    rank: int = 1
    orders: tuple[int, ...] = ()
    letters: Optional[str] = None
    radius: int = 8
    margin: int = 2
    action_radius: Optional[int] = None
    subgroup_generators: tuple[str, ...] = ()
    base_rules: tuple[tuple[str, bool], ...] = ()
    base_includes: tuple[str, ...] = ()
    base_excludes: tuple[str, ...] = ()
    base_default_in: bool = False
    translations: tuple[str, ...] = (IDENTITY_TOKEN,)
    expected_k_generators: tuple[str, ...] = ()
    expected_k_exact: bool = False
    universe: tuple[str, ...] = ()
    explicit_vertices: tuple[tuple[str, tuple[str, ...]], ...] = ()
    expectations: Expectations = Expectations()

    def validate(self) -> "InstanceSpec":
        if self.mode not in ("group", "explicit"):
            raise ParseError(f"unknown mode {self.mode!r}")
        if self.mode == "explicit":
            if not self.explicit_vertices:
                raise ParseError("explicit mode needs at least one vertex")
            return self
        if self.margin < 1:
            raise ParseError("margin must be at least 1")
        if self.radius < 2 * self.margin:
            raise ParseError(
                f"radius {self.radius} must be at least twice the margin {self.margin}")
        if self.action_radius is not None and self.action_radius > self.margin:
            raise ParseError("action radius cannot exceed the margin")
        if self.action_radius is not None and self.action_radius < 0:
            raise ParseError("action radius must not be negative")
        if IDENTITY_TOKEN not in self.translations:
            raise ParseError("translations must contain the identity token '1'")
        if self.kind == "free_product_cyclic" and not self.orders:
            raise ParseError("free_product_cyclic needs factor orders")
        return self


def token_word(token: str) -> str:
    return "" if token == IDENTITY_TOKEN else token


def make_model(spec: InstanceSpec) -> GroupModel:
    if spec.kind == "free":
        return free_group(spec.rank, spec.letters)
    if spec.kind == "free_abelian":
        return free_abelian_group(spec.rank, spec.letters)
    if spec.kind == "free_product_cyclic":
        return free_product_of_cyclics(spec.orders, spec.letters)
    raise ParseError(f"unknown group kind {spec.kind!r}")


def make_subgroup(model: GroupModel, words: Sequence[str]) -> SubgroupModel:
    return subgroup(model, [token_word(w) for w in words])


def make_base_spec(model: GroupModel, spec: InstanceSpec) -> BaseSetSpec:
    includes = frozenset(model.normalize(token_word(w)).word for w in spec.base_includes)
    excludes = frozenset(model.normalize(token_word(w)).word for w in spec.base_excludes)
    for prefix, _ in spec.base_rules:
        for ch in token_word(prefix):
            model.letter_index(ch)
    rules = tuple((token_word(p), side) for p, side in spec.base_rules)
    return BaseSetSpec(rules=rules, includes=includes, excludes=excludes,
                       default_in=spec.base_default_in)


# --------------------------------------------------------------------------
# text format


def _parse_bool(value: str, where: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    raise ParseError(f"expected a boolean for {where}, got {value!r}")


def _tokens(value: str) -> list[str]:
    return [t for chunk in value.split(",") for t in chunk.split()]


def _ints(value: str, where: str) -> list[int]:
    try:
        return [int(t) for t in _tokens(value)]
    except ValueError:
        raise ParseError(f"expected integers for {where}, got {value!r}") from None


def _int(value: str, where: str) -> int:
    ints = _ints(value, where)
    if len(ints) != 1:
        raise ParseError(f"expected one integer for {where}, got {value!r}")
    return ints[0]


def _default(value: str) -> bool:
    if value.lower() not in ("in", "out"):
        raise ParseError(f"default must be 'in' or 'out', got {value!r}")
    return value.lower() == "in"


def _rule(value: str) -> tuple[str, bool]:
    parts = _tokens(value)
    if len(parts) != 2 or parts[1].lower() not in ("in", "out"):
        raise ParseError(f"rule must be '<prefix> in|out', got {value!r}")
    return parts[0], parts[1].lower() == "in"


def _vertex(value: str) -> tuple[str, tuple[str, ...]]:
    if ":" not in value:
        raise ParseError(f"vertex must be '<name> : <keys>', got {value!r}")
    name, members = value.split(":", 1)
    return name.strip(), tuple(_tokens(members))


def _words(value: str) -> tuple[str, ...]:
    return tuple(_tokens(value))


# single-valued keys: (section, key) -> (mode reading it or None for both, field, reader);
# [instance] comes first, so the mode is known before any key of a mode is read
_SINGLE = {
    ("instance", "name"): (None, "name", lambda v: v or "unnamed"),
    ("instance", "mode"): (None, "mode", lambda v: (v or "group").lower()),
    ("group", "kind"): ("group", "kind", str.lower),
    ("group", "rank"): ("group", "rank", lambda v: _int(v, "rank")),
    ("group", "orders"): ("group", "orders", lambda v: tuple(_ints(v, "orders"))),
    ("group", "letters"): ("group", "letters", str),
    ("window", "radius"): ("group", "radius", lambda v: _int(v, "radius")),
    ("window", "margin"): ("group", "margin", lambda v: _int(v, "margin")),
    ("window", "action_radius"): ("group", "action_radius", lambda v: _int(v, "action_radius")),
    ("subgroup", "generators"): ("group", "subgroup_generators", _words),
    ("base_set", "default"): ("group", "base_default_in", _default),
    ("translations", "elements"): ("group", "translations", _words),
    ("expected_k", "generators"): ("group", "expected_k_generators", _words),
    ("expected_k", "exact"):
        ("group", "expected_k_exact", lambda v: _parse_bool(v, "expected_k.exact")),
    ("universe", "keys"): ("explicit", "universe", _words),
    ("expectations", "nested"): (None, "nested", lambda v: _parse_bool(v, "expectations.nested")),
    ("expectations", "tree_vertices"): (None, "tree_vertices", lambda v: _int(v, "tree_vertices")),
    ("expectations", "tree_edges"): (None, "tree_edges", lambda v: _int(v, "tree_edges")),
    ("expectations", "class_sizes"):
        (None, "class_sizes", lambda v: tuple(sorted(_ints(v, "class_sizes")))),
}
# the sections where an unknown key is an error: the mode that reads them, their repeatable keys
_LISTED = {"base_set": ("group", ("rule", "include", "exclude")),
           "vertices": ("explicit", ("vertex",))}


# an inline comment starts at a "#" that follows whitespace
_COMMENT = re.compile(r"\s#")


def parse_instance_text(text: str) -> InstanceSpec:
    index: dict[tuple[str, str], list[str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # the regex is skipped on lines without a "#", which are most of them
        line = (_COMMENT.split(raw, 1)[0] if "#" in raw else raw).strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ParseError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        index.setdefault((current, key.strip().lower()), []).append(value.strip())

    fields: dict = {"name": "unnamed"}
    expected: dict = {}
    for (section, key), (owner, name, read) in _SINGLE.items():
        mode = "group" if fields.get("mode", "group") == "group" else "explicit"
        values = index.get((section, key))
        if values and owner in (None, mode):
            if len(values) > 1:
                raise ParseError(f"key {key!r} repeated in [{section}]")
            (expected if section == "expectations" else fields)[name] = read(values[0])
    for section, key in index:
        owner, repeatable = _LISTED.get(section, (None, ()))
        if owner == mode and key not in repeatable and (section, key) not in _SINGLE:
            raise ParseError(f"unknown {section} key {key!r}")
    if mode == "group":
        if "kind" not in fields:
            raise ParseError("group mode needs a [group] section with a kind")
        if "orders" in fields:
            fields["rank"] = len(fields["orders"])
        base = {key: index.get(("base_set", key), ()) for key in ("rule", "include", "exclude")}
        fields.update(base_rules=tuple(map(_rule, base["rule"])),
                      base_includes=_words(",".join(base["include"])),
                      base_excludes=_words(",".join(base["exclude"])))
    else:
        fields["explicit_vertices"] = tuple(map(_vertex, index.get(("vertices", "vertex"), ())))
    return InstanceSpec(**fields, expectations=Expectations(**expected)).validate()


def load_instance(path: str | Path) -> InstanceSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read instance file {path}: {exc}") from exc
    return parse_instance_text(text)


def instance_to_text(spec: InstanceSpec) -> str:
    lines = ["[instance]", f"name = {spec.name}"]
    if spec.mode != "group":
        lines.append(f"mode = {spec.mode}")
        lines += ["", "[universe]", f"keys = {' '.join(spec.universe)}"]
        lines += ["", "[vertices]"]
        for name, members in spec.explicit_vertices:
            lines.append(f"vertex = {name} : {' '.join(members)}")
    else:
        lines += ["", "[group]", f"kind = {spec.kind}"]
        if spec.kind == "free_product_cyclic":
            lines.append(f"orders = {','.join(str(n) for n in spec.orders)}")
        else:
            lines.append(f"rank = {spec.rank}")
        if spec.letters:
            lines.append(f"letters = {spec.letters}")
        lines += ["", "[window]", f"radius = {spec.radius}", f"margin = {spec.margin}"]
        if spec.action_radius is not None:
            lines.append(f"action_radius = {spec.action_radius}")
        lines += ["", "[subgroup]", f"generators = {', '.join(spec.subgroup_generators)}"]
        lines += ["", "[base_set]", f"default = {'in' if spec.base_default_in else 'out'}"]
        for prefix, side in spec.base_rules:
            lines.append(f"rule = {prefix} {'in' if side else 'out'}")
        if spec.base_includes:
            lines.append(f"include = {', '.join(spec.base_includes)}")
        if spec.base_excludes:
            lines.append(f"exclude = {', '.join(spec.base_excludes)}")
        lines += ["", "[translations]", f"elements = {', '.join(spec.translations)}"]
        lines += ["", "[expected_k]", f"generators = {', '.join(spec.expected_k_generators)}",
                  f"exact = {'true' if spec.expected_k_exact else 'false'}"]
    exp = spec.expectations
    if any(v is not None for v in (exp.nested, exp.tree_vertices, exp.tree_edges, exp.class_sizes)):
        lines += ["", "[expectations]"]
        if exp.nested is not None:
            lines.append(f"nested = {'true' if exp.nested else 'false'}")
        if exp.tree_vertices is not None:
            lines.append(f"tree_vertices = {exp.tree_vertices}")
        if exp.tree_edges is not None:
            lines.append(f"tree_edges = {exp.tree_edges}")
        if exp.class_sizes is not None:
            lines.append(f"class_sizes = {','.join(str(s) for s in exp.class_sizes)}")
    return "\n".join(lines) + "\n"

