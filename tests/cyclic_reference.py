"""The subgroup engine of free products of cyclics as first written, kept as
the reference for the folding automaton's reader ``tracktree.groups._ProductEngine``
on the subgroups it covered: the trivial subgroup, a subgroup of one factor,
and a cyclic subgroup on one word.

A cyclic <w> is read through the cyclic reduction w = u v u^-1: a finite
<v> fingerprints a coset by the residue of its leading power of v's letter,
and an infinite <v> by the ShortLex-least element of the coset, found by a
search over the powers of v.
"""

import math

from tracktree.groups import (
    GroupElement,
    SubgroupModel,
    _render_syllables,
    _word_to_syllables,
    compose,
    invert,
)


class CyclicEngine:
    """Cyclic subgroup <w> of a free product, via cyclic reduction w = u v u^-1."""

    def __init__(self, model, generator):
        self.model = model
        u = model.identity()
        v = generator
        while True:
            syl = _word_to_syllables(model, v.word)
            if len(syl) < 2 or syl[0][0] != syl[-1][0]:
                break
            head = GroupElement(model, _render_syllables(model, [syl[0]]))
            u = compose(u, head)
            v = compose(compose(invert(head), v), head)
        self.u_inv = invert(u)
        syl = _word_to_syllables(model, v.word)
        if len(syl) <= 1:
            # finite order: <v> is generated by v's letter to the gcd of v's
            # exponent and the letter's order (no letter when v = 1)
            self.v = None
            self.letter, exponent = syl[0] if syl else (None, 0)
            self.step = math.gcd(model.orders[self.letter], exponent) if syl else 1
        else:
            self.v, self.v_inv = v, invert(v)

    def fingerprint(self, e):
        """A canonical value of u^-1 He = <v>z: for finite <v>, the residue of
        z's leading power of v's letter and the rest of z; else its least element."""
        if self.v is None:
            return self._residue(self.u_inv.word + e.word)
        return self._least(compose(self.u_inv, e))

    def advance(self, fp, step):
        """Fingerprint of He*step, given fp, the fingerprint of He."""
        if self.v is None:
            residue, rest = fp
            power = self.model.letters[self.letter] * residue if residue else ""
            return self._residue(power + rest + step)
        return self._least(compose(GroupElement(self.model, fp), GroupElement(self.model, step)))

    def _residue(self, word):
        """(residue of the leading power of v's letter, the rest) of the normal form of word."""
        syl = _word_to_syllables(self.model, word)
        residue = syl.pop(0)[1] % self.step if syl and syl[0][0] == self.letter else 0
        return (residue, _render_syllables(self.model, syl))

    def _least(self, z):
        """The ShortLex-least element of <v>z, v of infinite order."""
        # The least element v^n z is no longer than z, and |v^n| <= |v^n z| +
        # |z^-1|, so |v^n| <= |z| + |z^-1|; powers of the cyclically reduced v
        # concatenate, so |v^n| = |n| |v| (and |v^-n| = |n| |v^-1|, which may
        # differ from |n| |v|).
        reach = len(z.word) + len(invert(z).word)
        best = z
        for step in (self.v, self.v_inv):
            last = step.word[-1]
            moved = z
            for _ in range(reach // len(step.word) + 1):
                if not moved.word.startswith(last):
                    # step * moved merges nothing and starts with step's first
                    # letter, not its last (v is cyclically reduced), so every
                    # further power is longer than moved, and best <= moved
                    break
                moved = compose(step, moved)
                if moved.sort_key() < best.sort_key():
                    best = moved
        return best.word


def reference_subgroup(model, generator_words):
    """The subgroup on the reference engine; ValueError unless it is trivial,
    lies in one factor or is cyclic on one word."""
    gens = tuple(g for g in (model.normalize(w) for w in generator_words) if not g.is_identity())
    generator = gens[0] if len(gens) == 1 else model.identity()
    if len(gens) > 1:
        syllables = [_word_to_syllables(model, g.word) for g in gens]
        letter = syllables[0][0][0]
        if any(len(syl) != 1 or syl[0][0] != letter for syl in syllables):
            raise ValueError("the reference covers one factor or one generator")
        # powers of one letter generate its power by their gcd with the letter's order
        step = math.gcd(model.orders[letter], *(syl[0][1] for syl in syllables))
        generator = model.normalize(model.letters[letter] * step)
    return SubgroupModel(model, gens, CyclicEngine(model, generator))


def full_power_loop(engine, e):
    """The least element of <v>(u^-1 e), v of infinite order, stepping every
    power of v and v^-1 up to the length bound."""
    z = compose(engine.u_inv, e)
    reach = len(z.word) + len(invert(z).word)
    best = z
    for step in (engine.v, engine.v_inv):
        moved = z
        for _ in range(reach // len(step.word) + 1):
            moved = compose(step, moved)
            if moved.sort_key() < best.sort_key():
                best = moved
    return best.word
