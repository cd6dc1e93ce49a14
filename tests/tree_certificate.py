"""An independent checker of the dual tree's certificate.

The certificate is the tree, its edge labels and the map from family
vertices to tree vertices.  It holds when three things do: the edges form a
tree; each label of the family's union of differences is on exactly one
edge; and each family vertex's members are the base vertex's XOR the labels
on its path from the base.  A compatible split system has exactly one tree
that realises it (Buneman, 1971), so a tree whose certificate holds is the
dual tree.  The checker reads only the tree's flip sets, edges, base and
family vertex map and the family's member sets: it imports nothing of the
package, and its own breadth-first search finds the paths.

An element g acts on the tree by a vertex map.  ``action_witness`` checks
one: the base goes to the vertex flipping d_g, the difference of the base
set and its g-translate; no two vertices go to one; and every edge whose
ends are both mapped goes to an edge, distinct labels to distinct labels.
"""

from collections import deque
from typing import Optional


def certificate_witness(tree) -> Optional[str]:
    """Why the tree's certificate fails, or None when it holds."""
    family = tree.system.family
    n = len(tree.flips)
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

    if len(tree.family_vertex) != len(family.vertices):
        return "the family vertices do not sit at one tree vertex each"
    for k, x in enumerate(tree.family_vertex):
        if x not in path or family.vertices[k].members != base ^ path[x]:
            return f"family vertex {k} at tree vertex {x} is not the base XOR its path's labels"
    return None


def action_witness(flips, edges, vertex_map, d_g) -> Optional[str]:
    """Why the vertex map, None where a vertex's image is not in the tree, is
    not the action of an element whose base translate differs by d_g; None
    when it is.  The tree hangs from vertex 0, which flips nothing."""
    index = {f: i for i, f in enumerate(flips)}
    if vertex_map[0] != index.get(d_g):
        return f"the base goes to {vertex_map[0]}, not to the vertex flipping d_g"
    mapped = [x for x in vertex_map if x is not None]
    if len(set(mapped)) != len(mapped):
        return "two vertices go to one"
    label_of = {frozenset((i, j)): label for i, j, label in edges}
    images = {}
    for i, j, label in edges:
        x, y = vertex_map[i], vertex_map[j]
        if x is None or y is None:
            continue
        image = label_of.get(frozenset((x, y)))
        if image is None or flips[x] ^ flips[y] != 1 << image:
            return f"edge ({i}, {j}) goes to ({x}, {y}), which is not an edge"
        images[label] = image
    if len(set(images.values())) != len(images):
        return "two labels go to one"
    return None
