"""The labeling oracle and its verdict as first written, kept as the reference
for the planned edge-by-edge search and the column verdict in
``tracktree.oracles``.

The search pins each cornered place of an edge's order in a dict, one
``setdefault`` per place, and the verdict builds a within-class map per
labeling, one dict entry per position.
"""

import itertools
import math

import tracktree.oracles
from tracktree.errors import SearchBudgetExceeded
from tracktree.oracles import LabelingOracle, LabelingVerdict
from tracktree.windows import bit_positions


def reference_oracle_labelings(system):
    """(the LabelingOracle, the budget steps it took) by the dict-based
    search; SearchBudgetExceeded past ``tracktree.oracles.DFS_BUDGET``."""
    family = system.family
    edge_diff = {}
    for i, j in itertools.combinations(range(system.n), 2):
        diff = family.diff(i, j)
        if diff:
            edge_diff[(i, j)] = diff
    edges = list(edge_diff)
    edge_index = {e: k for k, e in enumerate(edges)}
    corner_checks = {k: [] for k in range(len(edges))}
    for (e1, e2) in itertools.combinations(edges, 2):
        shared = set(e1) & set(e2)
        if not shared:
            continue
        a = shared.pop()
        count = (edge_diff[e1] & edge_diff[e2]).bit_count()
        if count == 0:
            continue
        k1, k2 = edge_index[e1], edge_index[e2]
        corner_checks[max(k1, k2)].append(
            (min(k1, k2), e1[0] != a, e2[0] != a, count)
            if k1 < k2 else (min(k1, k2), e2[0] != a, e1[0] != a, count))

    labels_per_edge = [bit_positions(diff) for diff in edge_diff.values()]

    budget = [tracktree.oracles.DFS_BUDGET]
    chosen = []
    found = []

    def orders(k):
        labels = labels_per_edge[k]
        size = len(labels)
        fixed = {}
        for other, rev_other, rev_self, count in corner_checks[k]:
            seq = chosen[other][::-1] if rev_other else chosen[other]
            for t in range(count):
                place = size - 1 - t if rev_self else t
                if fixed.setdefault(place, seq[t]) != seq[t]:
                    return
        used = set(fixed.values())
        if len(used) != len(fixed) or not used <= set(labels):
            return
        free_places = [p for p in range(size) if p not in fixed]
        order = [fixed.get(p) for p in range(size)]
        for filling in itertools.permutations([c for c in labels if c not in used]):
            for place, label in zip(free_places, filling):
                order[place] = label
            yield tuple(order)

    def dfs(k):
        if k == len(edges):
            found.append(tuple(chosen))
            return
        for order in orders(k):
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchBudgetExceeded("labeling enumeration exceeded its budget")
            chosen.append(order)
            dfs(k + 1)
            chosen.pop()

    dfs(0)
    expected = 1
    for bits in system.class_bits:
        expected *= math.factorial(bits.bit_count())
    steps = tracktree.oracles.DFS_BUDGET - budget[0]
    return LabelingOracle(edges, found, len(found), expected), steps


def labeling_matches_canonical(system, canonical, labeling, edges):
    """True when the labeling is the canonical one composed with a single
    within-class permutation applied consistently on every edge."""
    indicator, full = system.indicator, system._full
    mapping = {}
    for edge, seq in zip(edges, labeling):
        want = canonical[edge]
        if len(seq) != len(want):
            return False
        for a, b in zip(want, seq):
            # parallel labels: indicators agree everywhere or disagree everywhere
            if indicator[a] not in (indicator[b], indicator[b] ^ full):
                return False
            if mapping.setdefault(a, b) != b:
                return False
    image = list(mapping.values())
    return len(set(image)) == len(image)


def reference_verdict(system, canonical, oracle):
    """The labeling verdict with one ``labeling_matches_canonical`` per labeling."""
    return LabelingVerdict(
        tuple(canonical[e] for e in oracle.edges) in oracle.labelings,
        all(labeling_matches_canonical(system, canonical, lab, oracle.edges)
            for lab in oracle.labelings),
        oracle.count == oracle.expected_count)
