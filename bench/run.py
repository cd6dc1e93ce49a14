"""Benchmark of `tracktree check`, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload group-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation is one `check` of one instance file through
tracktree.cli.main, in this process, with no threads.  A pass runs every
check of the workload once; passes repeat until --seconds are used up.
Every report is compared with facts derived apart from the program
(checker.py); a check with no report, or a report that disagrees, counts
as failed.  Times are wall times scaled to a reference speed (speed.py),
because the speed of the machine this was written on drifts by up to 2x
within minutes.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 untraced and traced
passes alternate and it holds the per-layer metrics (tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checker
import families
import tracing
from checker import Facts
from speed import ReferenceClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PER_PASS = 2
MIN_PASSES = 2
NESTED_CLASSES = (13, 14, 15)
NESTED_PER_SIZE = 20
NESTED_DISTANCE = (3.7, 4.3)  # the middle of the range for random trees of 14-16 vertices
GRAFT_EVERY = 4           # one grafted copy per this many nested families
ORIENTATION_CLASSES = (10, 11, 12)
ORIENTATION_PER_SIZE = 4
LABELING_FAMILIES = 8
LABELING_STEPS = (240_000, 290_000)


@dataclass(frozen=True)
class Check:
    name: str
    text: str                 # the instance file
    options: tuple[str, ...]  # extra `check` options
    facts: Facts


def _group_text(name: str, group: list[str], radius: int, margin: int, subgroup: str,
                base: list[str], translations: str, expected_k: str, exact: bool,
                expectations: list[str] = ()) -> str:
    lines = ["[instance]", f"name = {name}", "", "[group]", *group, "",
             "[window]", f"radius = {radius}", f"margin = {margin}", "",
             "[subgroup]", f"generators = {subgroup}", "", "[base_set]", *base, "",
             "[translations]", f"elements = {translations}", "",
             "[expected_k]", f"generators = {expected_k}", f"exact = {str(exact).lower()}"]
    if expectations:
        lines += ["", "[expectations]", *expectations]
    return "\n".join(lines) + "\n"


def group_ladder(rng: random.Random) -> list[Check]:
    """The shipped E1, E2, E4 instances, E3 at radius 6, 7, 8, and C at radius 5.

    The instance texts are those of demos/instances, copied so that the
    benchmark's inputs stay fixed.  The seed only orders the checks.
    """
    e1 = _group_text("E1", ["kind = free", "rank = 1", "letters = t"], 8, 2, "",
                     ["default = out", "rule = t in", "include = 1"], "TT, T, 1, t, tt", "", True,
                     ["nested = true", "tree_vertices = 5", "tree_edges = 4",
                      "class_sizes = 1,1,1,1"])
    e2 = _group_text("E2", ["kind = free_abelian", "rank = 2", "letters = xy"], 6, 2, "x",
                     ["default = out", "rule = y in", "include = 1"], "Y, 1, y", "x", True,
                     ["nested = true", "tree_vertices = 3", "tree_edges = 2", "class_sizes = 1,1"])
    e3 = _group_text("E3", ["kind = free", "rank = 2", "letters = ab"], 6, 2, "a",
                     ["default = out", "rule = b in"], "1, b, B, bb, a", "a", True,
                     ["nested = true", "tree_vertices = 4", "tree_edges = 3",
                      "class_sizes = 1,1,1"])
    e4 = _group_text("E4", ["kind = free_product_cyclic", "orders = 2,2", "letters = st"], 8, 3,
                     "", ["default = out", "rule = s in"], "1, s, t, st", "t", True,
                     ["nested = true", "tree_vertices = 5", "tree_edges = 4",
                      "class_sizes = 2,2"])
    c = _group_text("C", ["kind = free_product_cyclic", "orders = 2,2,2", "letters = stu"], 5, 2,
                    "st", ["default = out", "rule = s in"], "1, s, t, u", "st", False)
    checks = [
        # |omega| = 2r + 1: the coset keys are the words of length <= r in one letter
        Check("E1", e1, (), checker.ladder_facts(17)),
        Check("E2", e2, (), checker.ladder_facts(13)),
        Check("E4", e4, (), checker.ladder_facts(17)),
        Check("C-r5", c, (), checker.cyclic_product_facts(5)),
    ]
    for radius in (6, 7, 8):
        # keys are the reduced words that do not start with a or A: 3^r of length <= r
        checks.append(Check(f"E3-r{radius}", e3, ("--radius", str(radius)),
                            checker.ladder_facts(3 ** radius, 3 ** (radius - 2))))
    rng.shuffle(checks)
    return checks


def nested_families(rng: random.Random) -> list[Check]:
    """Families of 13-15 classes at the 16-vertex cap, and grafted copies of some."""
    checks = []
    for k in range(NESTED_PER_SIZE * len(NESTED_CLASSES)):
        classes = NESTED_CLASSES[k % len(NESTED_CLASSES)]
        family = families.nested_family(rng, f"nested-{k:02d}", classes, NESTED_DISTANCE)
        checks.append(Check(family.name, family.to_text(), (), checker.family_facts(family)))
        if k % GRAFT_EVERY == 0:
            grafted = families.graft_crossing(rng, family, f"grafted-{k:02d}")
            checks.append(Check(grafted.name, grafted.to_text(), (),
                                checker.family_facts(grafted)))
    rng.shuffle(checks)
    return checks


def oracle_families(rng: random.Random) -> list[Check]:
    """Families small enough for the oracles, and the labeling-budget family."""
    checks = []
    for k in range(ORIENTATION_PER_SIZE * len(ORIENTATION_CLASSES)):
        classes = ORIENTATION_CLASSES[k % len(ORIENTATION_CLASSES)]
        family = families.orientation_family(rng, f"orientations-{k:02d}", classes)
        checks.append(Check(family.name, family.to_text(), (),
                            checker.family_facts(family, ("tree_oracle",))))
    for k in range(LABELING_FAMILIES):
        family = families.labeling_family(rng, f"labelings-{k:02d}", LABELING_STEPS)
        checks.append(Check(family.name, family.to_text(), (),
                            checker.family_facts(family, ("tree_oracle", "labeling_oracle"))))
    budget = families.labeling_budget_family()
    checks.append(Check(budget.name, budget.to_text(), (), checker.budget_facts(budget)))
    rng.shuffle(checks)
    return checks


WORKLOADS = {
    "group-ladder": group_ladder,
    "nested-families": nested_families,
    "oracle-families": oracle_families,
}

END_TO_END = (("pass_s", "s"), ("max_check_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _import_tracktree():
    """Import the package afresh from the checkout's src/ and return its cli module."""
    for name in [n for n in sys.modules if n == "tracktree" or n.startswith("tracktree.")]:
        del sys.modules[name]
    cli = importlib.import_module("tracktree.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tracktree was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, work: Path):
    """Import tracktree, generate and write the instance files, and load each once."""
    cli = _import_tracktree()
    checks = WORKLOADS[workload](random.Random(seed))
    paths = []
    for i, check in enumerate(checks):
        path = work / f"{i:03d}-{check.name}.ini"
        path.write_text(check.text)
        paths.append(str(path.relative_to(ROOT)))
    load = sys.modules["tracktree.instances"].load_instance
    for path in paths:
        load(path)
    return cli, checks, paths


def run_pass(cli, checks: list[Check], paths: list[str], clock: ReferenceClock,
             sample_inside: bool = True) -> dict:
    """One `check` per instance; returns when each ran and the checks that failed."""
    spans, failed = [], []
    for check, path in zip(checks, paths):
        out, err = io.StringIO(), io.StringIO()
        inside = 0.0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if sample_inside:
                clock.arm()
            start = time.perf_counter()
            try:
                cli.main(["check", path, *check.options])
            except Exception:  # a crash is one failed check; the pass goes on
                traceback.print_exc()
            end = time.perf_counter()
            if sample_inside:
                inside = clock.disarm()
        # each check starts on a clean heap, as it would in a process of its own:
        # reference cycles left by one check would otherwise raise a later one's peak
        gc.collect()
        clock.sample()
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            report = None
        problems = checker.verify(report, check.facts)
        if problems:
            failed.append((check.name, report is not None,
                           problems + [err.getvalue().strip()] * bool(err.getvalue())))
        spans.append((start, end, inside, not problems))
    return {"spans": spans, "failed": failed}


def _scale_pass(result: dict, clock: ReferenceClock):
    result["times"] = [(clock.scale(start, end, inside), ok)
                       for start, end, inside, ok in result["spans"]]
    result["pass_s"] = sum(t for t, _ in result["times"])
    result["wall_s"] = sum(end - start - inside for start, end, inside, _ in result["spans"])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = BENCH_DIR / "_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    clock = ReferenceClock()
    setups, plain, traced = [], [], []
    try:
        start = time.perf_counter()
        while True:
            # set-up rounds are spread over the run, so they meet the same machine as the passes
            for _ in range(SETUP_PER_PASS):
                clock.arm()
                begin = time.perf_counter()
                cli, checks, paths = setup(workload, seed, work)
                end = time.perf_counter()
                setups.append((begin, end, clock.disarm()))
                clock.sample()
            plain.append(run_pass(cli, checks, paths, clock))
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    # no samples inside traced checks: they would land in some layer's self time
                    result = run_pass(cli, checks, paths, clock, sample_inside=False)
                finally:
                    tracer.uninstall()
                result["layers"] = tracer.pass_metrics()
                traced.append(result)
            elapsed = time.perf_counter() - start
            passes = len(plain)
            if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    runs = plain + traced
    for result in runs:
        _scale_pass(result, clock)
    failed = sum(len(r["failed"]) for r in runs)
    # a report that disagrees with its facts is a wrong answer, not only a failure
    correct = not any(has_report for r in runs for _, has_report, _ in r["failed"])

    if not trace:
        # the slowest check is the one whose median time over the passes is largest
        per_check = zip(*(r["times"] for r in plain))
        metrics = {
            "pass_s": statistics.median(r["pass_s"] for r in plain),
            "max_check_s": max((statistics.median(t for t, _ in samples) for samples in per_check
                                if all(ok for _, ok in samples)), default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(clock.scale(*setup_span) for setup_span in setups),
        }
        units = dict(END_TO_END)
    else:
        # self times are put on the pass's scale; counts repeat exactly from pass
        # to pass, and median_low keeps them whole
        for r in traced:
            speed = r["pass_s"] / r["wall_s"]
            r["layers"] = {name: value * speed if name.endswith("_s") else value
                           for name, value in r["layers"].items()}
        metrics = {name: (statistics.median_low if unit == "count" else statistics.median)(
                       r["layers"][name] for r in traced)
                   for name, unit, _ in tracing.PER_LAYER if name != "tracing.overhead_s"}
        metrics["tracing.overhead_s"] = (statistics.median(r["pass_s"] for r in traced)
                                         - statistics.median(r["pass_s"] for r in plain))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return {"correct": correct, "attempted": sum(len(r["spans"]) for r in runs), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
            "failures": plain[-1]["failed"],
            "wall_pass_s": statistics.median(r["wall_s"] for r in plain)}


def run_all(args) -> int:
    """Each workload in its own process, so that each has its own peak memory."""
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: exited {proc.returncode}")
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "tracktree" / "__init__.py").is_file():
        sys.stderr.write(f"no tracktree sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, _, problems in result.pop("failures"):
        print(f"failed check {name}: {'; '.join(problems)}")
    print(f"unscaled wall time of a pass {result.pop('wall_pass_s'):.6g} s")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
