"""The names the benchmark's tracer wraps exist, and the traced pass runs.

bench/tracing.py replaces public functions and methods of the package by
name; a rename or deletion there would break the benchmark's traced pass.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from tracktree.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def bindings(tracing):
    """Every (owner, attribute) a hook patches, with what it holds now."""
    out = {}
    for hook in tracing.HOOKS:
        importlib.import_module(hook.module)
        targets, _ = tracing._resolve(hook)
        assert targets, hook.name
        for owner, attr in targets:
            out[(id(owner), attr)] = (hook.name, vars(owner)[attr])
    return out


def traced_check(tracer, name, code):
    """The per-layer metrics of one traced `check` of a corpus instance file."""
    tracer.reset()
    assert main(["check", str(ROOT / "demos" / "instances" / f"{name}.ini")]) == code
    return tracer.pass_metrics()


def test_tracer_hooks_resolve_and_restore(monkeypatch, capsys):
    tracing = load_tracing(monkeypatch)
    before = bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings(tracing)
        assert during.keys() == before.keys()
        for key, (name, held) in during.items():
            assert held is not before[key][1], name
        metrics = traced_check(tracer, "E4", 0)
        nested = traced_check(tracer, "E1", 0)
        crossing = traced_check(tracer, "crossing", 2)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert bindings(tracing) == before
    # the pass reached the layers down to the action and the stabilizers;
    # the tree is no longer built by medians, so trees.median_calls reads 0
    for name in ("windows.translate_calls", "trees.translate_flips_calls",
                 "patterns.class_order_calls"):
        assert metrics[name] > 0, name
    for name in ("windows.build_window_s", "trees.build_tree_s", "trees.act_s",
                 "trees.stabilizer_s"):
        assert metrics[name] > 0, name
    # squares are checked only on a crossing family: E1's five vertices give
    # squares, but E1 is nested
    assert nested["patterns.nestedness_s"] > 0 and nested["patterns.square_calls"] == 0
    assert crossing["patterns.square_calls"] > 0
