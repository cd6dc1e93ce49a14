"""Spans and counters around tracktree's public functions, recorded from outside.

The program is left as it is.  While a Tracer is installed, each traced
function is replaced by a wrapper in every module of the package that
holds it (a name imported into another module is a binding of its own
there), and each traced method is replaced on its class.  A span records
its name, start, end and the span that was open when it began.  Spans
stay in memory until the pass ends; then they are reduced to self times,
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


def _ball(counts, args, result):
    counts["groups.ball_elements"] += len(result)


def _translate(counts, args, result):
    window = args[0]
    counts["windows.omega_keys"] += len(window.omega)
    counts["windows.core_keys"] += len(window.core)


def _closure(counts, args, result):
    counts["trees.closure_new"] += len(result) - len(set(args[1]))


def _labelings(counts, args, result):
    counts["oracles.labelings_found"] += result.count


@dataclass(frozen=True)
class Hook:
    module: str                   # the module that defines the name
    name: str                     # "function" or "Class.method"
    span: Optional[str] = None    # span name; None records no span
    count: Optional[str] = None   # counter bumped on every call
    on_result: Optional[Callable] = None  # (counts, args, result) after a call returns
    only_in: Optional[str] = None  # patch only this module's binding


HOOKS = (
    Hook("tracktree.cli", "main", "cli.self"),
    Hook("tracktree.instances", "load_instance", "instances.load"),
    Hook("tracktree.pipeline", "run_instance", "pipeline.self"),
    Hook("tracktree.reports", "report_document", "reports.document"),
    Hook("tracktree.groups", "GroupModel.ball", "groups.ball", on_result=_ball),
    Hook("tracktree.groups", "CosetTable.__init__", "groups.coset_table"),
    Hook("tracktree.groups", "SubgroupModel.member", count="groups.member_calls"),
    Hook("tracktree.groups", "compose", count="groups.compose_calls"),
    Hook("tracktree.windows", "Window.__init__", "windows.build_window"),
    Hook("tracktree.windows", "Window.translate", "windows.translate",
         "windows.translate_calls", _translate),
    Hook("tracktree.windows", "build_family", "windows.build_family", "windows.build_family_calls"),
    Hook("tracktree.windows", "hypothesis_report", "windows.hypothesis"),
    Hook("tracktree.windows", "radius_stability_report", "windows.stability"),
    Hook("tracktree.patterns", "build_track_system", "patterns.track_system"),
    Hook("tracktree.patterns", "parity_and_coloring", "patterns.parity"),
    Hook("tracktree.patterns", "corner_analysis", "patterns.corners", "patterns.corner_calls"),
    Hook("tracktree.patterns", "square_analysis", "patterns.squares", "patterns.square_calls"),
    Hook("tracktree.patterns", "nestedness_check", "patterns.nestedness"),
    Hook("tracktree.patterns", "class_order", "patterns.class_order", "patterns.class_order_calls"),
    Hook("tracktree.patterns", "assign_labels", "patterns.assign_labels",
         "patterns.assign_labels_calls"),
    Hook("tracktree.trees", "build_tree", "trees.build_tree"),
    Hook("tracktree.trees", "median", count="trees.median_calls"),
    Hook("tracktree.trees", "median_closure", on_result=_closure),
    Hook("tracktree.trees", "tree_metric_and_separation", "trees.geodesic", "trees.geodesic_calls"),
    Hook("tracktree.trees", "act", "trees.act"),
    Hook("tracktree.trees", "stabilizer_analysis", "trees.stabilizer"),
    Hook("tracktree.trees", "translate_flips", count="trees.translate_flips_calls"),
    Hook("tracktree.oracles", "oracle_orientations", "oracles.orientations"),
    # the tree build checks its own orientations too; count only the oracle's calls
    Hook("tracktree.trees", "orientation_consistent", count="oracles.consistency_calls",
         only_in="tracktree.oracles"),
    Hook("tracktree.oracles", "oracle_labelings", "oracles.labelings", on_result=_labelings),
)

SPAN_NAMES = tuple(dict.fromkeys(h.span for h in HOOKS if h.span))

# (metric, unit, better): self times of every span, then counts and ratios
PER_LAYER = tuple((f"{name}_s", "s", "lower") for name in SPAN_NAMES) + (
    ("groups.ball_elements", "count", "lower"),
    ("groups.member_calls", "count", "lower"),
    ("groups.compose_calls", "count", "lower"),
    ("windows.omega_keys", "count", "lower"),
    ("windows.core_keys", "count", "lower"),
    ("windows.core_share", "ratio", "higher"),
    ("windows.translate_calls", "count", "lower"),
    ("windows.build_family_calls", "count", "lower"),
    ("patterns.corner_calls", "count", "lower"),
    ("patterns.square_calls", "count", "lower"),
    ("patterns.class_order_calls", "count", "lower"),
    ("patterns.assign_labels_calls", "count", "lower"),
    ("trees.median_calls", "count", "lower"),
    ("trees.closure_yield", "ratio", "higher"),
    ("trees.geodesic_calls", "count", "lower"),
    ("trees.translate_flips_calls", "count", "lower"),
    ("oracles.consistency_calls", "count", "lower"),
    ("oracles.labelings_found", "count", "higher"),
    ("tracing.overhead_s", "s", "lower"),
)


def _resolve(hook: Hook):
    """(owner, attribute) pairs to patch for a hook, and the original callable."""
    module = sys.modules[hook.module]
    if "." in hook.name:
        cls_name, attr = hook.name.split(".")
        owner = getattr(module, cls_name)
        return [(owner, attr)], vars(owner)[attr]
    original = getattr(module, hook.name)
    if hook.only_in is not None:
        return [(sys.modules[hook.only_in], hook.name)], original
    holders = [m for name, m in sorted(sys.modules.items())
               if (name == "tracktree" or name.startswith("tracktree."))
               and vars(m).get(hook.name) is original]
    return [(m, hook.name) for m in holders], original


class Tracer:
    """Installs the hooks, records one pass at a time, and restores the originals."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()

    def install(self):
        for hook in HOOKS:
            targets, original = _resolve(hook)
            wrapper = self._wrap(original, hook)
            for owner, attr in targets:
                self._undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, hook: Hook):
        count, on_result = hook.count, hook.on_result
        tracer = self
        if hook.span is None:
            def counted(*args, **kwargs):
                if count:
                    tracer.counts[count] += 1
                result = fn(*args, **kwargs)
                if on_result:
                    on_result(tracer.counts, args, result)
                return result
            return functools.wraps(fn)(counted)

        span_id = self._ids[hook.span]
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            index = len(tracer.starts)
            tracer.names.append(span_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                tracer.starts[index] = start
                stack.pop()
            if on_result:
                on_result(tracer.counts, args, result)
            return result
        return functools.wraps(fn)(spanned)

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed time not covered by direct child spans."""
        children = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.ends[i] - self.starts[i]
        totals = [0.0] * len(SPAN_NAMES)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - children[i]
        return dict(zip(SPAN_NAMES, totals))

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the pass recorded since the last reset."""
        c = self.counts
        out: dict[str, float] = {f"{name}_s": t for name, t in self.self_times().items()}
        for metric, unit, _ in PER_LAYER:
            if unit == "count":
                out[metric] = c[metric]
        out["windows.core_share"] = (c["windows.core_keys"] / c["windows.omega_keys"]
                                     if c["windows.omega_keys"] else 0.0)
        out["trees.closure_yield"] = (c["trees.closure_new"] / c["trees.median_calls"]
                                      if c["trees.median_calls"] else 0.0)
        return out
