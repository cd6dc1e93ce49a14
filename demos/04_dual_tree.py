"""From a nested track system to its dual tree, checked against brute force.

The shipped infinite dihedral instance, instances/E4.ini, produces a path:
three translate vertices, two parallel classes of size two, and a band
vertex inside each class.  Every tree vertex carries the set B = A + F it
represents, and the unique path between two vertices realises exactly
their difference.
"""

from pathlib import Path

from tracktree import (
    dot_document,
    load_instance,
    oracle_orientations,
    run_instance,
    tree_matches_oracle,
)
from tracktree.trees import tree_metric_and_separation

INSTANCES = Path(__file__).resolve().parent / "instances"

result = run_instance(load_instance(INSTANCES / "E4.ini"))
system, tree, fam = result.system, result.tree, result.family

# labels are universe positions; keys_of and universe give their coset keys
print("instance E4:", result.report.status)
print("tracks:", [c or "1" for c in fam.keys_of(system.label_bits)])
print("parallel classes:", [tuple(fam.keys_of(bits)) for bits in system.class_bits])

print()
print("tree vertices (flip set relative to the base vertex o):")
# a vertex holds a family vertex, or is inside a band (degree 2), or branches
sits = set(tree.family_vertex)
for i, flips in enumerate(tree.flips):
    keys = "{" + ",".join(sorted(w or "1" for w in fam.keys_of(flips))) + "}"
    role = "family" if i in sits else "band" if len(tree.adjacency[i]) == 2 else "branch"
    print(f"  B{i}: {keys:12s} {role}")

print()
print("unique paths realise symmetric differences:")
for a, b in ((0, 4), (3, 4)):
    path = tree_metric_and_separation(tree, a, b)
    print(f"  path(B{a}, B{b}): length {path.length}, labels",
          [fam.universe[p] or "1" for p in path.labels])

oracle = oracle_orientations(system)
print()
print("orientation oracle agrees with the tree read off the laminar order:",
      tree_matches_oracle(tree, oracle))

print()
print(dot_document(tree, "E4"))
