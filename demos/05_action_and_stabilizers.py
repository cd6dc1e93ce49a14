"""The windowed right action on the tree and its stabilizer structure.

On the infinite dihedral instance the vertex stabilizers alternate along
the path between the two order-two subgroups and their conjugates, and the
union of the identity coset's parallel class is itself an order-two
subgroup: the classical splitting recovered from pure set arithmetic.
"""

from pathlib import Path

from tracktree import act, load_instance, run_instance, stabilizer_analysis, subgroup

INSTANCES = Path(__file__).resolve().parent / "instances"

result = run_instance(load_instance(INSTANCES / "E4.ini"))
tree = result.tree
model = result.family.window.model

print("shifting the whole picture by s:")
vertex_map = act(tree, model.normalize("s"))
print("  mapped", sum(x is not None for x in vertex_map), "of", tree.vertex_count, "vertices")
print("  base vertex o maps to B" + str(vertex_map[tree.base_index]))

stab = stabilizer_analysis(tree, model.ball(3),
                           expected_k=subgroup(model, ["t"]), expected_k_exact=True)
print()
print("vertex stabilizers inside the radius-3 ball (note the alternation):")
for i, flips in enumerate(tree.flips):
    keys = "{" + ",".join(sorted(w or "1" for w in tree.system.family.keys_of(flips))) + "}"
    print(f"  B{i} {keys:10s} -> {stab.vertex_stabilizers[i]}")
print("base stabilizer equals the declared one exactly:", stab.base_witness is None)

print()
print("edge stabilizers and conjugate containment:")
for (i, j, label), words, witness in zip(tree.edges, stab.edge_stabilizers, stab.edge_witnesses):
    key = result.family.universe[label]
    print(f"  edge B{i}--B{j} [{key or '1'}]: {words}, conjugate check {'FAILED' if witness else 'ok'}")

cu = stab.class_union
print()
print("the parallel class of the identity coset:", cu.class_size, "cosets")
print("its union is a subgroup (closed, inverse-closed):", cu.witness is None)
print("it contains the base subgroup with index", cu.class_size)

print()
print("the same checks on the lattice instance:")
e2 = run_instance(load_instance(INSTANCES / "E2.ini"))
window = e2.family.window
st2 = stabilizer_analysis(e2.tree, window.model.ball(2),
                          expected_k=window.sub, expected_k_exact=True)
print("  every edge stabilizer equals the row subgroup in the ball:",
      all(s == st2.edge_stabilizers[0] for s in st2.edge_stabilizers))
print("  edge stabilizer words:", st2.edge_stabilizers[0])
