"""End-to-end pipeline: window -> family -> hypotheses -> patterns -> tree -> action.

Certification failures abort the run with status ``uncertified``; property
failures are recorded with a witness and the run continues where that is
meaningful.  All checks append to a single Report whose overall status is
the worst component status.
"""

from __future__ import annotations

import time
from typing import Optional

from .errors import (
    CertificationFailure,
    ConflictingRule,
    NonNestedSquare,
    ParseError,
    RadiusTooLarge,
    SearchBudgetExceeded,
    TooLarge,
    TrackTreeError,
    UnknownLetter,
)
from .groups import display_word
from .instances import (
    Expectations,
    InstanceSpec,
    make_base_spec,
    make_model,
    make_subgroup,
    token_word,
)
from .oracles import labeling_verdict, oracle_labelings, oracle_orientations, tree_matches_oracle
from .patterns import (
    TrackSystem,
    assign_labels,
    build_track_system,
    nestedness_check,
    square_analysis,
)
from .reports import FAIL, PASS, UNCERTIFIED, Report
from .trees import DualTree, build_tree, separation_witness, stabilizer_analysis
from .windows import (
    VertexFamily,
    build_base_set,
    build_family,
    build_window,
    explicit_family,
    hypothesis_report,
    radius_stability_report,
)


class RunResult:
    __slots__ = ("report", "spec", "family", "system", "tree")

    def __init__(self, report: Report, spec: InstanceSpec,
                 family: Optional[VertexFamily] = None, system: Optional[TrackSystem] = None,
                 tree: Optional[DualTree] = None):
        self.report = report
        self.spec = spec
        self.family = family
        self.system = system
        self.tree = tree


def run_instance(spec: InstanceSpec, radius: Optional[int] = None,
                 margin: Optional[int] = None) -> RunResult:
    if radius is not None or margin is not None:
        spec = spec._replace(radius=radius if radius is not None else spec.radius,
                             margin=margin if margin is not None else spec.margin)
    return _run(spec.validate(), None)


def run_family(name: str, family: VertexFamily, expectations: Expectations) -> RunResult:
    """The explicit-mode run of a family built already, as ``run_instance``
    runs an explicit spec that lists the same vertices."""
    return _run(InstanceSpec(name, mode="explicit", expectations=expectations), family)


def _run(spec: InstanceSpec, family: Optional[VertexFamily]) -> RunResult:
    start = time.perf_counter()
    report = Report(spec.name)
    result = RunResult(report, spec)
    try:
        if spec.mode == "group":
            _run_group(spec, report, result)
        else:
            if family is None:
                try:
                    family = explicit_family(spec.universe, spec.explicit_vertices)
                except ValueError as exc:
                    raise ParseError(str(exc)) from exc
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
    except (UnknownLetter, ConflictingRule, ValueError) as exc:
        raise ParseError(str(exc)) from exc

    try:
        window = build_window(model, sub, spec.radius, spec.margin)
    except RadiusTooLarge as exc:
        report.add("window", UNCERTIFIED, str(exc))
        return
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    report.counts["omega"] = window.size
    report.counts["core_keys"] = window.core_mask.bit_length()
    report.add("window", PASS)

    # the base set is built from the spec's rules over the window and cannot fail
    base_set = build_base_set(window, base_spec)
    report.counts["base_set_keys"] = base_set.bit_count()

    try:
        family = build_family(window, base_set, translations)
    except CertificationFailure as exc:
        report.add("family_certification", UNCERTIFIED, str(exc))
        return
    result.family = family
    report.counts["family_vertices"] = len(family)
    report.add("family_certification", PASS)

    # the base set is a set of coset keys, so it is left invariant, and each
    # A + A*g is its translate's moved set, which build_family certified
    # clear of the shell or raised above: left and almost invariance hold by
    # construction; test_almost_invariance_holds_for_every_certified_family checks the latter
    properness, undecided, moving = hypothesis_report(window, base_set, expected_k)
    report.verdict("properness", properness)
    if undecided is not None:
        report.add("expected_stabilizer", UNCERTIFIED,
                   f"uncertified expected-stabilizer check for {undecided}")
        return
    report.verdict("expected_stabilizer", None if moving is None else
                   f"expected stabilizer element {moving} moves the base set")

    _run_patterns(spec, report, result)
    tree = result.tree
    if tree is None:
        return
    # a translation sends the base vertex to the vertex flipping d_g = A + A*g,
    # a family vertex that build_family certified, so the action is equivariant
    # by construction; test_translations_map_the_base_vertex_to_tree_vertices checks it
    action_radius = spec.action_radius if spec.action_radius is not None else spec.margin
    ball = model.ball(action_radius)
    stab = stabilizer_analysis(tree, ball, expected_k=expected_k,
                               expected_k_exact=spec.expected_k_exact)
    report.verdict("stabilizer_base", stab.base_witness)
    report.verdict("stabilizer_edges", next(filter(None, stab.edge_witnesses), None))
    if stab.class_union is not None:
        report.verdict("stabilizer_class_union", stab.class_union.witness)
        report.counts["identity_class_size"] = stab.class_union.class_size

    try:
        stability = radius_stability_report(window, base_spec, translations, family)
    except RadiusTooLarge as exc:
        report.add("witness_stability", UNCERTIFIED, f"radius + 2 re-check not run: {exc}")
        return
    except CertificationFailure as exc:
        report.add("witness_stability", UNCERTIFIED, str(exc))
        return
    if stability is not None:
        report.add("witness_stability", UNCERTIFIED, stability)
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

    # nested tracks are pairwise compatible, so at most one quartet split on four
    # vertices carries labels and no square fails (the four-point condition); a
    # crossing family may pass every square, so only there are the squares scanned
    # and reported.  test_nestedness_decides_squares_and_class_orders checks this
    nested = nestedness_check(system)
    if not nested.ok:
        report.verdict("squares", _square_witness(family))
        c1, c2, quadrant = nested.witness
        report.add("nestedness", FAIL,
                   f"cosets {display_word(c1)} and {display_word(c2)} cross; "
                   f"quadrant vertices {quadrant}")
        _check_expectations(spec, report, result, nested_ok=False)
        return
    report.add("nestedness", PASS)

    # on a nested system every class order is total (see class_order), so
    # assign_labels cannot raise NotTotal: class orders and the labelling hold
    # by construction; the labels are computed only for the labeling oracle,
    # the one reader of them

    # build_tree asserts the tree axioms and raises rather than return a
    # non-tree; tree_oracle below compares the tree with the orientations
    tree = build_tree(system)
    result.tree = tree
    report.counts["tree_vertices"] = tree.vertex_count
    report.counts["tree_edges"] = tree.edge_count

    # an oracle over its cap is skipped without a report line
    try:
        oracle = oracle_orientations(system)
    except TooLarge:
        pass
    else:
        report.verdict("tree_oracle", None if tree_matches_oracle(tree, oracle)
                       else "dual tree differs from the orientation oracle")

    report.verdict("separation_geodesic", separation_witness(tree))

    try:
        oracle = oracle_labelings(system)
    except TooLarge:
        pass
    except SearchBudgetExceeded as exc:
        report.add("labeling_oracle", UNCERTIFIED, str(exc))
    else:
        verdict = labeling_verdict(system, assign_labels(system), oracle)
        failed = [name for name, holds in zip(verdict._fields, verdict) if not holds]
        report.verdict("labeling_oracle",
                       f"{', '.join(failed)} failed: {oracle.count} labelings vs expected "
                       f"{oracle.expected_count}" if failed else None)

    if spec.mode == "explicit":
        _check_expectations(spec, report, result)


def _square_witness(family: VertexFamily) -> Optional[str]:
    """The first failing square, or None; two pairings decide all three per quartet.

    The square is picked from one table of the n x n differences and their
    sizes, in the order of a loop over ``square_analysis``: quartets
    a < b < c < d in lexicographic order, each read as (a, b, c, d) and then
    (a, b, d, c).  ``square_analysis`` raises exactly when one side-pair sum
    strictly dominates and the other pair's differences overlap, so the
    table scan tests that with int operations, and ``square_analysis`` runs
    once, on the pick, to confirm it and word the witness.
    """
    quad = _first_failing_square(family)
    if quad is None:
        return None
    try:
        square_analysis(family, *quad)
    except NonNestedSquare as exc:
        return str(exc)
    raise TrackTreeError(f"square {quad} fails by its differences but passes square_analysis")


def _first_failing_square(family: VertexFamily) -> Optional[tuple[int, int, int, int]]:
    members = [v.members for v in family.vertices]
    diff = [[m ^ o for o in members] for m in members]
    dist = [list(map(int.bit_count, row)) for row in diff]
    n = len(members)
    for a in range(n):
        xa, da = diff[a], dist[a]
        for b in range(a + 1, n):
            xb, db, xab, dab = diff[b], dist[b], xa[b], da[b]
            for c in range(b + 1, n):
                xc, dc, xac, xbc = diff[c], dist[c], xa[c], xb[c]
                dac, dbc = da[c], db[c]
                for d in range(c + 1, n):
                    # both pairings share the side pair {ab, cd}
                    sides = dab + dc[d]
                    # (a, b, c, d): against {ac, bd}
                    opposite = dac + db[d]
                    if (xac & xb[d] if sides > opposite else
                            sides < opposite and xab & xc[d]):
                        return a, b, c, d
                    # (a, b, d, c): against {ad, bc}
                    opposite = da[d] + dbc
                    if (xa[d] & xbc if sides > opposite else
                            sides < opposite and xab & xc[d]):
                        return a, b, d, c
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
        report.verdict("expectations", "; ".join(problems) if problems else None)
