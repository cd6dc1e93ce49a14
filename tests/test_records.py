"""The record types: which are dataclasses, and what callers read of them.

Records are NamedTuples or slotted classes, because creating a dataclass
class generates and runs code at import time; only the two instance specs,
which callers rebuild with ``dataclasses.replace``, stay dataclasses.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import tracktree
from tracktree.errors import ConflictingRule
from tracktree.groups import GroupElement, free_abelian_group, free_group
from tracktree.oracles import LabelingOracle, OrientationOracle, RandomFamilyInfo
from tracktree.patterns import Corner, NestednessResult, SquareReport
from tracktree.trees import ClassUnionReport, PathReport, StabilizerReport
from tracktree.windows import BaseSetSpec, FamilyVertex


def test_only_the_instance_specs_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(tracktree.__path__, "tracktree."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and dataclasses.is_dataclass(cls):
                found.add(f"{info.name}.{name}")
    assert found == {"tracktree.instances.InstanceSpec", "tracktree.instances.Expectations"}


def test_group_models_compare_by_kind_letters_and_orders():
    f2, again = free_group(2), free_group(2)
    f2.ball(2)
    again.letter_rank("B")
    assert f2 is not again
    assert f2 == again and hash(f2) == hash(again)
    assert f2 != free_group(2, "xy")
    assert f2 != free_abelian_group(2, "ab")


def test_group_elements_are_keys_by_model_and_word():
    f2 = free_group(2)
    table = {f2.normalize("ab"): 1}
    assert table[free_group(2).normalize("aBbb")] == 1
    assert GroupElement(free_group(2), "ab") in set(table)
    assert free_abelian_group(2, "ab").normalize("ab") not in table
    assert f2.normalize("ba") not in table
    assert repr(f2.identity()) == "1" and repr(f2.normalize("aB")) == "aB"


@pytest.mark.parametrize("record, field", [
    (free_group(2), "kind"),
    (free_group(2).normalize("a"), "word"),
    (BaseSetSpec(), "rules"),
    (FamilyVertex(None, 0, "v"), "members"),
], ids=["GroupModel", "GroupElement", "BaseSetSpec", "FamilyVertex"])
def test_frozen_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


# the field order of each NamedTuple record, which positional construction relies on
FIELDS = {
    FamilyVertex: ("element", "members", "name"),
    NestednessResult: ("ok", "witness"),
    OrientationOracle: ("vertex_flips", "edges"),
    LabelingOracle: ("edges", "labelings", "count", "expected_count"),
    RandomFamilyInfo: ("seed", "vertex_count", "class_sizes", "track_count",
                       "tree_vertex_count", "tree_edge_count"),
    ClassUnionReport: ("class_size", "witness"),
    StabilizerReport: ("vertex_stabilizers", "base_witness", "edge_stabilizers",
                       "edge_witnesses", "class_union"),
    Corner: ("vertex", "count", "cosets"),
    SquareReport: ("vertices", "sum_sides", "sum_opposite", "comparable", "crossing_count",
                   "crossing_cosets"),
    PathReport: ("length", "labels"),
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_named_tuple_fields_keep_their_order(record):
    assert record._fields == FIELDS[record]


def test_base_set_spec_refuses_conflicts_when_constructed():
    spec = BaseSetSpec((("t", True),), frozenset(["a"]), frozenset(["b"]), True)
    assert (spec.rules, spec.includes, spec.excludes, spec.default_in) == (
        (("t", True),), frozenset(["a"]), frozenset(["b"]), True)
    with pytest.raises(ConflictingRule):
        BaseSetSpec((), frozenset(["a"]), frozenset(["a"]))
