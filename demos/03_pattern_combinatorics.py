"""Triangle and square combinatorics of the coset-difference metric.

Distances are sizes of symmetric differences, so every triangle has even
perimeter and splits into corner lines; a four-vertex square decomposes
into corners plus parallel crossing lines unless two tracks genuinely
cross, which is exactly what the nestedness check reports.
"""

from tracktree import (
    build_track_system,
    explicit_family,
    nestedness_check,
    square_analysis,
)
from tracktree.patterns import corner_analysis, crossing_test, parity_and_coloring

# three vertices with corner counts 3, 2, 2: edge weights 5, 5, 4
fig1 = explicit_family(
    ["c1", "c2", "c3", "c4", "c5", "c6", "c7"],
    [("u", frozenset(["c1", "c2", "c3"])),
     ("v", frozenset(["c4", "c5"])),
     ("w", frozenset(["c6", "c7"]))])
d = fig1.distance

print("== triangle ==")
print("edge weights:", d(0, 1), d(0, 2), d(1, 2))
print("perimeter:   ", d(0, 1) + d(0, 2) + d(1, 2), "(always even)")
print("two-colouring by distance parity from u:", parity_and_coloring(fig1))
for corner in corner_analysis(fig1, 0, 1, 2):
    print(f"corner {fig1.vertices[corner.vertex].name}: {corner.count} lines, labels {fig1.keys_of(corner.cosets)}")

print()
print("== square ==")
square = explicit_family(
    ["1", "2", "3"],
    [("u", frozenset()), ("v", frozenset(["1", "2"])),
     ("w", frozenset(["1"])), ("z", frozenset(["1", "2", "3"]))])
report = square_analysis(square, 0, 1, 2, 3)
print("side-pair sums:", report.sum_sides, "vs", report.sum_opposite)
print("crossing lines between the dominant sides:", report.crossing_count,
      square.keys_of(report.crossing_cosets))

print()
print("== parallel classes ==")
system = build_track_system(fig1)
print("classes:", [tuple(fig1.keys_of(bits)) for bits in system.class_bits])
# a track is named by the universe position of its coset
c1, c2 = fig1.universe.index("c1"), fig1.universe.index("c2")
print("tracks c1 and c2 parallel -> never cross:", not crossing_test(system, c1, c2))

print()
print("== a genuine crossing ==")
bad = explicit_family(
    ["a", "b"],
    [("e", frozenset()), ("va", frozenset(["a"])),
     ("vb", frozenset(["b"])), ("vab", frozenset(["a", "b"]))])
verdict = nestedness_check(build_track_system(bad))
print("nested:", verdict.ok)
c1, c2, quadrant = verdict.witness
print(f"witness: tracks {c1} and {c2} cross; one vertex in each quadrant: {quadrant}")
