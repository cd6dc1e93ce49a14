"""Instance documents: the flat text format, validation, and the built-in corpus.

An instance file is a flat structured-text document with ``[section]``
headers and ``key = value`` lines; keys may repeat to build lists.  Words
use the letter syntax of the group models, with ``1`` standing for the
empty word.  Explicit mode bypasses the group machinery and lists the
universe and the vertex subsets directly, which is how falsification
families (e.g. crossing configurations) are injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class Expectations:
    nested: Optional[bool] = None
    tree_vertices: Optional[int] = None
    tree_edges: Optional[int] = None
    class_sizes: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class InstanceSpec:
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
    expectations: Expectations = field(default_factory=Expectations)

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


def parse_instance_text(text: str) -> InstanceSpec:
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
    spec = replace(spec, mode=(single("instance", "mode", "group") or "group").lower())

    if spec.mode == "group":
        kind = single("group", "kind")
        if kind is None:
            raise ParseError("group mode needs a [group] section with a kind")
        spec = replace(spec, kind=kind.lower())
        rank = single("group", "rank")
        if rank is not None:
            spec = replace(spec, rank=_ints(rank, "rank")[0])
        orders = single("group", "orders")
        if orders is not None:
            spec = replace(spec, orders=tuple(_ints(orders, "orders")),
                           rank=len(_ints(orders, "orders")))
        letters = single("group", "letters")
        if letters is not None:
            spec = replace(spec, letters=letters)

        radius = single("window", "radius")
        margin = single("window", "margin")
        action = single("window", "action_radius")
        if radius is not None:
            spec = replace(spec, radius=_ints(radius, "radius")[0])
        if margin is not None:
            spec = replace(spec, margin=_ints(margin, "margin")[0])
        if action is not None:
            spec = replace(spec, action_radius=_ints(action, "action_radius")[0])

        gens = single("subgroup", "generators", "")
        spec = replace(spec, subgroup_generators=tuple(_tokens(gens or "")))

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
        spec = replace(spec, base_rules=tuple(rules), base_includes=tuple(includes),
                       base_excludes=tuple(excludes), base_default_in=default_in)

        elements = single("translations", "elements")
        if elements is not None:
            spec = replace(spec, translations=tuple(_tokens(elements)))

        kgens = single("expected_k", "generators", "")
        spec = replace(spec, expected_k_generators=tuple(_tokens(kgens or "")))
        exact = single("expected_k", "exact")
        if exact is not None:
            spec = replace(spec, expected_k_exact=_parse_bool(exact, "expected_k.exact"))
    else:
        keys = single("universe", "keys", "")
        spec = replace(spec, universe=tuple(_tokens(keys or "")))
        vertices = []
        for key, value in section("vertices"):
            if key != "vertex":
                raise ParseError(f"unknown vertices key {key!r}")
            if ":" not in value:
                raise ParseError(f"vertex must be '<name> : <keys>', got {value!r}")
            name, members = value.split(":", 1)
            vertices.append((name.strip(), tuple(_tokens(members))))
        spec = replace(spec, explicit_vertices=tuple(vertices))

    exp = Expectations()
    nested = single("expectations", "nested")
    if nested is not None:
        exp = replace(exp, nested=_parse_bool(nested, "expectations.nested"))
    tv = single("expectations", "tree_vertices")
    if tv is not None:
        exp = replace(exp, tree_vertices=_ints(tv, "tree_vertices")[0])
    te = single("expectations", "tree_edges")
    if te is not None:
        exp = replace(exp, tree_edges=_ints(te, "tree_edges")[0])
    cs = single("expectations", "class_sizes")
    if cs is not None:
        exp = replace(exp, class_sizes=tuple(sorted(_ints(cs, "class_sizes"))))
    spec = replace(spec, expectations=exp)
    return spec.validate()


def load_instance(path: str | Path) -> InstanceSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
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


# --------------------------------------------------------------------------
# built-in corpus


def corpus() -> dict[str, InstanceSpec]:
    """The four shipped instances.

    E1: the integers over the trivial subgroup with a half-line base set.
    E2: the rank-2 lattice over its first factor with a half-plane of rows.
    E3: the rank-2 free group over the cyclic subgroup on its first letter,
        base set the cosets whose key starts with the second letter.
    E4: the infinite dihedral group (order-2 free factors) over the trivial
        subgroup, base set the elements starting with the first letter.
    """
    e1 = InstanceSpec(
        name="E1", kind="free", rank=1, letters="t", radius=8, margin=2,
        base_rules=(("t", True),), base_includes=("1",),
        translations=("TT", "T", "1", "t", "tt"),
        expected_k_generators=(), expected_k_exact=True,
        expectations=Expectations(nested=True, tree_vertices=5, tree_edges=4,
                                  class_sizes=(1, 1, 1, 1)),
    ).validate()
    e2 = InstanceSpec(
        name="E2", kind="free_abelian", rank=2, letters="xy", radius=6, margin=2,
        subgroup_generators=("x",),
        base_rules=(("y", True),), base_includes=("1",),
        translations=("Y", "1", "y"),
        expected_k_generators=("x",), expected_k_exact=True,
        expectations=Expectations(nested=True, tree_vertices=3, tree_edges=2,
                                  class_sizes=(1, 1)),
    ).validate()
    e3 = InstanceSpec(
        name="E3", kind="free", rank=2, letters="ab", radius=6, margin=2,
        subgroup_generators=("a",),
        base_rules=(("b", True),),
        translations=("1", "b", "B", "bb", "a"),
        expected_k_generators=("a",),
        expectations=Expectations(nested=True, tree_vertices=4, tree_edges=3,
                                  class_sizes=(1, 1, 1)),
    ).validate()
    e4 = InstanceSpec(
        name="E4", kind="free_product_cyclic", orders=(2, 2), rank=2, letters="st",
        radius=8, margin=3,
        base_rules=(("s", True),),
        translations=("1", "s", "t", "st"),
        expected_k_generators=("t",), expected_k_exact=True,
        expectations=Expectations(nested=True, tree_vertices=5, tree_edges=4,
                                  class_sizes=(2, 2)),
    ).validate()
    return {"E1": e1, "E2": e2, "E3": e3, "E4": e4}


def crossing_exhibit() -> InstanceSpec:
    """Explicit four-quadrant family; rejected with a crossing witness."""
    return InstanceSpec(
        name="crossing-exhibit", mode="explicit",
        universe=("a", "b"),
        explicit_vertices=(
            ("e", ()), ("va", ("a",)), ("vb", ("b",)), ("vab", ("a", "b")),
        ),
        expectations=Expectations(nested=False),
    ).validate()


def fig1_exhibit() -> InstanceSpec:
    """Three vertices with corner counts (3, 2, 2), hence edge weights (5, 5, 4)."""
    return InstanceSpec(
        name="fig1-exhibit", mode="explicit",
        universe=("c1", "c2", "c3", "c4", "c5", "c6", "c7"),
        explicit_vertices=(
            ("u", ("c1", "c2", "c3")), ("v", ("c4", "c5")), ("w", ("c6", "c7")),
        ),
        expectations=Expectations(nested=True, tree_vertices=8, tree_edges=7,
                                  class_sizes=(2, 2, 3)),
    ).validate()
