"""The record types: none is a dataclass, and what callers read of them.

Records are NamedTuples or slotted classes: creating a dataclass class
generates and runs code at import time, and importing ``dataclasses``
imports ``inspect``.  The instance specs are NamedTuples too, which callers
rebuild with ``_replace``.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracktree
from tracktree.errors import ConflictingRule
from tracktree.groups import GroupElement, free_abelian_group, free_group
from tracktree.instances import Expectations, InstanceSpec
from tracktree.oracles import LabelingOracle, OrientationOracle, RandomFamilyInfo
from tracktree.patterns import Corner, NestednessResult, SquareReport
from tracktree.trees import ClassUnionReport, PathReport, StabilizerReport
from tracktree.windows import BaseSetSpec, FamilyVertex

# the directory the package was imported from, for a subprocess without site packages
PACKAGE_PATH = str(Path(tracktree.__file__).resolve().parent.parent)


def test_no_record_is_a_dataclass():
    found = set()
    for info in pkgutil.iter_modules(tracktree.__path__, "tracktree."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and dataclasses.is_dataclass(cls):
                found.add(f"{info.name}.{name}")
    assert found == set()


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracktree.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, PACKAGE_PATH],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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
    (InstanceSpec("spec"), "radius"),
], ids=["GroupModel", "GroupElement", "BaseSetSpec", "FamilyVertex", "InstanceSpec"])
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
    Expectations: ("nested", "tree_vertices", "tree_edges", "class_sizes"),
    InstanceSpec: ("name", "mode", "kind", "rank", "orders", "letters", "radius", "margin",
                   "action_radius", "subgroup_generators", "base_rules", "base_includes",
                   "base_excludes", "base_default_in", "translations", "expected_k_generators",
                   "expected_k_exact", "universe", "explicit_vertices", "expectations"),
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
