"""Words, normal forms and coset keys in the three supported group families.

Lowercase letters are generators, uppercase their inverses, and the
identity prints as "1".  Every element is kept in a canonical normal form,
which is what makes coset arithmetic decidable.
"""

from tracktree import (
    compose,
    free_abelian_group,
    free_group,
    free_product_of_cyclics,
    invert,
    subgroup,
)
from tracktree.groups import CosetTable

F = free_group(2)                       # free on a, b
L = free_abelian_group(2)               # integer lattice on x, y
D = free_product_of_cyclics([2, 2])     # infinite dihedral: s^2 = t^2 = 1

print("== normal forms ==")
print("free      aAb      ->", F.normalize("aAb"))
print("lattice   xyx      ->", L.normalize("xyx"), "   (sorted exponent form)")
print("dihedral  ss       ->", D.normalize("ss"))
print("Z2*Z3     T        ->", free_product_of_cyclics([2, 3]).normalize("T"),
      "  (inverse of an order-3 letter is its square)")

print()
print("== composition and inversion ==")
print("ab * B   ->", compose(F.normalize("ab"), F.normalize("B")))
print("st * ts  ->", compose(D.normalize("st"), D.normalize("ts")))
print("(ab)^-1  ->", invert(F.normalize("ab")))

print()
print("== balls in ShortLex order ==")
print("free rank 2, radius 1:", [repr(e) for e in F.ball(1)])
print("dihedral, radius 3:   ", [repr(e) for e in D.ball(3)])

print()
print("== subgroup membership ==")
H = subgroup(F, ["a"])
for word in ("aaa", "baB", "ab"):
    print(f"{word} in <a>:", H.member(F.normalize(word)))

print()
print("== right-coset keys (ShortLex-least representatives) ==")
table = CosetTable(H, F.ball(4))
for word in ("aab", "aaa", "ba"):
    e = F.normalize(word)
    print(f"key of <a>*{word} ->", table.key(e) or "1")
print("distinct cosets in the radius-4 ball:", len(set(table.key_of.values())))
