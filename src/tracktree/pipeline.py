"""End-to-end pipeline: window -> family -> hypotheses -> patterns -> tree -> action.

Certification failures abort the run with status ``uncertified``; property
failures are recorded with a witness and the run continues where that is
meaningful.  All checks append to a single Report whose overall status is
the worst component status.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Optional

from .errors import (
    CertificationFailure,
    ConflictingRule,
    NonNestedSquare,
    OutsideCertifiedDomain,
    ParseError,
    RadiusTooLarge,
    SearchBudgetExceeded,
    TooLarge,
    UnknownLetter,
    UnsupportedSubgroup,
)
from .groups import display_word
from .instances import (
    InstanceSpec,
    make_base_spec,
    make_model,
    make_subgroup,
    token_word,
)
from .oracles import (
    LabelingOracle,
    LabelingVerdict,
    OrientationOracle,
    labeling_verdict,
    oracle_labelings,
    oracle_orientations,
    tree_matches_oracle,
)
from .patterns import (
    TrackSystem,
    assign_labels,
    build_track_system,
    nestedness_check,
    square_analysis,
)
from .reports import FAIL, PASS, UNCERTIFIED, Report
from .trees import DualTree, act, build_tree, separation_witness, stabilizer_analysis
from .windows import (
    VertexFamily,
    build_base_set,
    build_family,
    build_window,
    explicit_family,
    hypothesis_report,
    radius_stability_report,
)


@dataclass
class RunResult:
    report: Report
    spec: InstanceSpec
    family: Optional[VertexFamily] = None
    system: Optional[TrackSystem] = None
    # label positions per edge, computed for the labeling oracle; None when it gave no result
    labels: Optional[dict[tuple[int, int], tuple[int, ...]]] = None
    tree: Optional[DualTree] = None
    # once the tree is built, each oracle gives its result or why it was skipped
    orientations: Optional[OrientationOracle] = None
    orientations_match: Optional[bool] = None
    orientations_skipped: Optional[str] = None
    labelings: Optional[LabelingOracle] = None
    labeling_verdict: Optional[LabelingVerdict] = None
    labelings_skipped: Optional[str] = None


def run_instance(spec: InstanceSpec, radius: Optional[int] = None,
                 margin: Optional[int] = None) -> RunResult:
    if radius is not None or margin is not None:
        spec = replace(spec, radius=radius if radius is not None else spec.radius,
                       margin=margin if margin is not None else spec.margin)
    spec = spec.validate()
    start = time.perf_counter()
    report = Report(spec.name)
    result = RunResult(report, spec)
    try:
        if spec.mode == "group":
            _run_group(spec, report, result)
        else:
            family = explicit_family(list(spec.universe),
                                     [(n, frozenset(m)) for n, m in spec.explicit_vertices])
            result.family = family
            report.counts["universe"] = len(family.universe)
            report.counts["family_vertices"] = len(family)
            _run_patterns(spec, report, result)
    finally:
        report.timing_ms = (time.perf_counter() - start) * 1000.0
    return result


def _run_group(spec: InstanceSpec, report: Report, result: RunResult):
    try:
        model = make_model(spec)
        sub = make_subgroup(model, spec.subgroup_generators)
        base_spec = make_base_spec(model, spec)
        translations = [model.normalize(token_word(w)) for w in spec.translations]
        expected_k = make_subgroup(model, spec.expected_k_generators)
    except (UnknownLetter, UnsupportedSubgroup, ConflictingRule, ValueError) as exc:
        raise ParseError(str(exc)) from exc

    try:
        window = build_window(model, sub, spec.radius, spec.margin)
    except RadiusTooLarge as exc:
        report.add("window", UNCERTIFIED, str(exc))
        return
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    report.counts["omega"] = len(window.omega)
    report.counts["core_keys"] = len(window.core)
    report.add("window", PASS)

    base_set = build_base_set(window, base_spec)
    report.counts["base_set_keys"] = base_set.bit_count()
    report.add("base_set", PASS)

    try:
        family = build_family(window, base_set, translations)
    except CertificationFailure as exc:
        report.add("family_certification", UNCERTIFIED, str(exc))
        return
    result.family = family
    report.counts["family_vertices"] = len(family)
    report.add("family_certification", PASS)

    hypo = hypothesis_report(window, base_set, translations, expected_k)
    report.add("left_invariance", PASS)
    bad = [e.word for e in hypo.almost_invariance if not e.certified]
    if bad:
        report.add("almost_invariance", UNCERTIFIED,
                   f"uncertified witness for translate by {bad[0]}")
        return
    report.add("almost_invariance", PASS)
    report.add("properness", PASS if hypo.properness_ok else FAIL,
               None if hypo.properness_ok else hypo.properness_detail)
    bad_k = [e.word for e in hypo.expected_k if not e.certified]
    if bad_k:
        report.add("expected_stabilizer", UNCERTIFIED,
                   f"uncertified expected-stabilizer check for {bad_k[0]}")
        return
    moved = [e.word for e in hypo.expected_k if not e.fixes_base]
    report.add("expected_stabilizer", PASS if not moved else FAIL,
               None if not moved else f"expected stabilizer element {moved[0]} moves the base set")

    _run_patterns(spec, report, result)
    tree = result.tree
    if tree is None:
        return
    # an expected-K generator fixes A, and so the base vertex, or it has
    # failed expected_stabilizer already; only the translations are acted on
    try:
        bad_action = None
        for g in translations:
            if act(tree, g).base_image is None:
                bad_action = f"action by {display_word(g.word)}: base image missing"
                break
        report.add("action_equivariance", PASS if bad_action is None else FAIL, bad_action)
    except OutsideCertifiedDomain as exc:
        report.add("action_equivariance", UNCERTIFIED, str(exc))
        return

    action_radius = spec.action_radius if spec.action_radius is not None else spec.margin
    ball = model.ball(action_radius)
    stab = stabilizer_analysis(tree, ball, expected_k=expected_k,
                               expected_k_exact=spec.expected_k_exact)
    base_ok = stab.base_contains_expected and stab.base_equals_expected in (None, True)
    report.add("stabilizer_base", PASS if base_ok else FAIL,
               None if base_ok else (stab.base_witness or "base stabilizer mismatch"))
    conj_ok = all(stab.edge_conjugates_ok)
    report.add("stabilizer_edges", PASS if conj_ok else FAIL,
               None if conj_ok else "an edge stabilizer misses a conjugate subgroup element")
    cu = stab.class_union
    if cu.applicable:
        union_ok = cu.closed and cu.inverse_closed and cu.contains_subgroup
        report.add("stabilizer_class_union", PASS if union_ok else FAIL,
                   None if union_ok else (cu.witness or "class union not a subgroup"))
        report.counts["identity_class_size"] = cu.class_size

    try:
        stability = radius_stability_report(window, base_spec, translations, family)
    except RadiusTooLarge as exc:
        report.add("witness_stability", UNCERTIFIED, f"radius + 2 re-check not run: {exc}")
        return
    except CertificationFailure as exc:
        report.add("witness_stability", UNCERTIFIED, str(exc))
        return
    unstable = [e for e in stability if not e.stable]
    if unstable:
        e = unstable[0]
        report.add("witness_stability", UNCERTIFIED,
                   f"witness for pair {e.pair} changed at radius + 2: "
                   f"{list(e.diff_small)} vs {list(e.diff_large)}")
        return
    report.add("witness_stability", PASS)

    _check_expectations(spec, report, result)


def _run_patterns(spec: InstanceSpec, report: Report, result: RunResult):
    """Pattern and tree stages shared by group and explicit modes.

    ``result.tree`` is set when the instance is nested and the tree stages ran.
    """
    family = result.family
    try:
        system = build_track_system(family)
    except TooLarge as exc:
        report.add("track_system", UNCERTIFIED, str(exc))
        return
    result.system = system
    report.counts["tracks"] = system.label_bits.bit_count()
    report.counts["classes"] = len(system.class_bits)

    # every distance is |X + Y|, the XOR of two member sets, so for any family
    # |X + Y| + |Y + Z| + |Z + X| is even and the corner set (X + Y) & (X + Z)
    # has size (d(X, Y) + d(X, Z) - d(Y, Z)) / 2: parity and corners hold by
    # construction; test_parity_and_corners_hold_for_arbitrary_families checks both
    report.add("parity", PASS)
    report.add("corners", PASS)

    # nested tracks are pairwise compatible, so at most one quartet split on four
    # vertices carries labels and no square fails (the four-point condition); a
    # crossing family may pass every square, so there the loop still runs.
    # test_nestedness_decides_squares_and_class_orders checks this
    nested = nestedness_check(system)
    square_witness = None if nested.ok else _square_witness(family)
    report.add("squares", PASS if square_witness is None else FAIL, square_witness)
    if not nested.ok:
        c1, c2, quadrant = nested.witness
        report.add("nestedness", FAIL,
                   f"cosets {display_word(c1)} and {display_word(c2)} cross; "
                   f"quadrant vertices {quadrant}")
        _check_expectations(spec, report, result, nested_ok=False)
        return
    report.add("nestedness", PASS)

    # on a nested system every class order is total (see class_order), so
    # assign_labels cannot raise NotTotal; the labels are computed only for
    # the labeling oracle, the one reader of them
    report.add("class_orders", PASS)
    report.add("labelling", PASS)

    tree = build_tree(system)
    result.tree = tree
    report.counts["tree_vertices"] = tree.vertex_count
    report.counts["tree_edges"] = tree.edge_count
    report.add("tree", PASS)

    # an oracle over its cap is skipped without a report line
    try:
        oracle = result.orientations = oracle_orientations(system)
    except TooLarge as exc:
        result.orientations_skipped = str(exc)
    else:
        match = result.orientations_match = tree_matches_oracle(tree, oracle)
        report.add("tree_oracle", PASS if match else FAIL,
                   None if match else "dual tree differs from the orientation oracle")

    geo_witness = separation_witness(tree)
    report.add("separation_geodesic", PASS if geo_witness is None else FAIL, geo_witness)

    try:
        oracle = result.labelings = oracle_labelings(system)
    except TooLarge as exc:
        result.labelings_skipped = str(exc)
    except SearchBudgetExceeded as exc:
        result.labelings_skipped = str(exc)
        report.add("labeling_oracle", UNCERTIFIED, str(exc))
    else:
        result.labels = assign_labels(system)
        verdict = result.labeling_verdict = labeling_verdict(system, result.labels, oracle)
        ok = all(verdict)
        report.add("labeling_oracle", PASS if ok else FAIL,
                   None if ok else f"{oracle.count} labelings vs expected {oracle.expected_count}")

    if spec.mode == "explicit":
        _check_expectations(spec, report, result)


def _square_witness(family: VertexFamily) -> Optional[str]:
    """The first failing square, or None; two pairings decide all three per quartet."""
    for a, b, c, d in itertools.combinations(range(len(family)), 4):
        for quad in ((a, b, c, d), (a, b, d, c)):
            try:
                square_analysis(family, *quad)
            except NonNestedSquare as exc:
                return str(exc)
    return None


def _check_expectations(spec: InstanceSpec, report: Report, result: RunResult,
                        nested_ok: bool = True):
    exp = spec.expectations
    problems = []
    if exp.nested is not None and exp.nested != nested_ok:
        problems.append(f"nested: expected {exp.nested}, got {nested_ok}")
    if result.tree is not None:
        if exp.tree_vertices is not None and result.tree.vertex_count != exp.tree_vertices:
            problems.append(
                f"tree_vertices: expected {exp.tree_vertices}, got {result.tree.vertex_count}")
        if exp.tree_edges is not None and result.tree.edge_count != exp.tree_edges:
            problems.append(
                f"tree_edges: expected {exp.tree_edges}, got {result.tree.edge_count}")
    if result.system is not None and exp.class_sizes is not None:
        sizes = tuple(sorted(bits.bit_count() for bits in result.system.class_bits))
        if sizes != exp.class_sizes:
            problems.append(f"class_sizes: expected {exp.class_sizes}, got {sizes}")
    if any(v is not None for v in (exp.nested, exp.tree_vertices, exp.tree_edges, exp.class_sizes)):
        report.add("expectations", PASS if not problems else FAIL,
                   None if not problems else "; ".join(problems))
