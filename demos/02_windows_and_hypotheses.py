"""Certified windows: truncating the coset space without lying about it.

The running example is the rank-2 lattice over its first factor, so the
coset universe is the set of rows.  The base set is the upper half plane;
translating it up or down moves the boundary row, and the finite witness
sets are certified by staying clear of the window's boundary shell.
"""

from tracktree import (
    BaseSetSpec,
    build_base_set,
    build_family,
    build_window,
    display_word,
    free_abelian_group,
    hypothesis_report,
    radius_stability_report,
    subgroup,
)

L = free_abelian_group(2)          # generators x (within a row) and y (across rows)
H = subgroup(L, ["x"])             # the subgroup is the x-axis
window = build_window(L, H, radius=6, margin=2)

print("universe (row keys):", [k or "1" for k in window.omega])
print("boundary shell:     ", window.keys_of(window.shell_mask))

spec = BaseSetSpec(rules=(("y", True),), includes=frozenset([""]))
base = build_base_set(window, spec)
print("base set = rows >= 0:", sorted((k or "1" for k in window.keys_of(base)), key=len))

translations = [L.normalize(w) for w in ["Y", "", "y"]]
family = build_family(window, base, translations)
print()
print("translate family (all pairwise differences certified):")
for v in family.vertices:
    print(f"  {v.name:6s} rows:", [k or "1" for k in family.keys_of(v.members)])
print("d(A*Y, A*y) =", family.distance(0, 2), "- the two boundary rows")

properness, _, moving = hypothesis_report(window, base, H)
print()
print("hypothesis checks:")
print("  left invariance: pass (structural: the set is made of cosets)")
for g in translations:
    # the certified A + A*g: the keys the translate moves, none of them in the shell
    moved, unknown = window.translate(base, g)
    certified = not (unknown & window.core_mask or moved & window.shell_mask)
    print(f"  A + A*{display_word(g.word)} =", [w or "1" for w in window.keys_of(moved)],
          "certified" if certified else "UNCERTIFIED")
print("  properness heuristic:", "pass" if properness is None else "fail",
      "-", properness or "base set and complement meet every populated shell")
print("  expected stabilizer fixes the base set:", moving is None)

stability = radius_stability_report(window, spec, translations, family)
print()
print("radius+2 stability: all witness sets unchanged ->", stability is None)
