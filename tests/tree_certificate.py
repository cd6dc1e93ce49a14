"""An independent checker of the dual tree's certificate.

The certificate is the tree, its edge labels and the map from family
vertices to tree vertices.  It holds when three things do: the edges form a
tree; each label of the family's union of differences is on exactly one
edge; and each family vertex's members are the base vertex's XOR the labels
on its path from the base.  A compatible split system has exactly one tree
that realises it (Buneman, 1971), so a tree whose certificate holds is the
dual tree.  The checker reads only the tree's vertices, edges and base and
the family's member sets: it imports nothing of the package, and its own
breadth-first search finds the paths.
"""

from collections import deque
from typing import Optional


def certificate_witness(tree) -> Optional[str]:
    """Why the tree's certificate fails, or None when it holds."""
    family = tree.system.family
    n = len(tree.vertices)
    if len(tree.edges) != n - 1:
        return f"{len(tree.edges)} edges on {n} vertices"
    neighbours = [[] for _ in range(n)]
    for i, j, label in tree.edges:
        if not (0 <= i < n and 0 <= j < n and i != j):
            return f"edge ({i}, {j}) does not join two vertices"
        neighbours[i].append((j, label))
        neighbours[j].append((i, label))
    # per vertex reached from the base, the XOR of the labels on its path
    path = {tree.base_index: 0}
    queue = deque([tree.base_index])
    while queue:
        x = queue.popleft()
        for y, label in neighbours[x]:
            if y not in path:
                path[y] = path[x] ^ 1 << label
                queue.append(y)
    if len(path) != n:
        return f"{n - len(path)} of {n} vertices are not joined to the base"

    base = family.vertices[family.base_index].members
    differences = 0
    for v in family.vertices:
        differences |= v.members ^ base
    labels = sorted(label for _, _, label in tree.edges)
    if labels != [p for p in range(differences.bit_length()) if differences >> p & 1]:
        return f"edge labels {labels} are not the differences' positions, one edge each"

    placed = sorted((v.family_index, x) for x, v in enumerate(tree.vertices)
                    if v.family_index is not None)
    if [k for k, _ in placed] != list(range(len(family.vertices))):
        return "the family vertices do not sit at one tree vertex each"
    for k, x in placed:
        if family.vertices[k].members != base ^ path[x]:
            return f"family vertex {k} at tree vertex {x} is not the base XOR its path's labels"
    return None
