"""Exact arithmetic for the supported group families.

Three kinds of group are supported, all with a bit-exact word syntax in
which lowercase letters are generators and the matching uppercase letter
is the inverse.  Word arithmetic goes through one normal form per kind:

* ``free(rank)``           -- canonical form: freely reduced words.
* ``free_abelian(rank)``   -- canonical form: exponent vectors rendered as
                              sorted letter runs (``(2, -1)`` over x,y is
                              ``"xxY"``).
* ``free_product_cyclic``  -- free products of finite cyclic factors;
                              canonical form alternates factors with
                              exponents in ``[1, order - 1]`` written as
                              repeated lowercase letters.

The identity is the empty word everywhere and is displayed as ``"1"``.
``compose`` is the normal form of the concatenated words, and ``invert``
that of the reversed word with its case swapped.  Canonical words are
closed under prefixes, and ``GroupModel.successors`` gives the letters
that extend one to another, in ShortLex order, from its last letter (and
for free products its last run) alone; ``GroupModel.ball`` grows the
canonical words breadth first by that rule, with no normal form and no
sort, and the class union of ``trees`` walks the same rule.
Subgroup engines: one folding automaton for free groups and free products
(Stallings folding, then for free products the closure of every orbit of a
finite-order letter), read past its core as a hanging tail, and integer
lattice reduction (free_abelian).  Each engine gives every right coset a
canonical fingerprint, and ``advance`` takes the fingerprint of He to that
of He*step from the fingerprint alone: e lies in H exactly when He = H, so
``SubgroupModel.member`` compares the fingerprint of e with that of the
identity.  ``subgroup()`` picks the engine, and the engine answers every
kind's question of the coset graph and the windows of ``windows``: its
``steps`` (letters and inverses, or every syllable of a factor),
``split(word)`` into them, ``tail_fp`` (the fingerprint from which on a
coset's children follow from its last letter, or None), ``known(window,
word)`` (the keys k with k*word within the radius) and ``walk_order(window,
i, word)`` (the steps of word in an order that keeps a known walk within
the radius).  ``CosetTable`` groups a ball by fingerprint into
ShortLex-least coset keys, the reference for the coset graph of
``windows.Window``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, groupby
from operator import add
from typing import Optional, Sequence

from .errors import (
    ModelMismatch,
    RadiusTooLarge,
    SearchBudgetExceeded,
    UnknownLetter,
)

DEFAULT_MAX_RADIUS = 12
DEFAULT_MAX_ELEMENTS = 200_000

FREE = "free"
FREE_ABELIAN = "free_abelian"
FREE_PRODUCT_CYCLIC = "free_product_cyclic"

_DEFAULT_LETTERS = {
    FREE: "abcdefgh",
    FREE_ABELIAN: "xyzuvw",
    FREE_PRODUCT_CYCLIC: "stuvwxyz",
}


class Frozen:
    """Base of the slotted records whose fields are set once, in ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"


class GroupModel(Frozen):
    """A group family plus its generator alphabet.

    Models are equal when kind, letters and orders are; the ShortLex ranks
    in ``_rank`` and the successor table in ``_after`` are caches.
    """

    __slots__ = ("kind", "letters", "orders", "_rank", "_after")

    def __init__(self, kind: str, letters: tuple[str, ...], orders: tuple[int, ...] = ()):
        if kind not in (FREE, FREE_ABELIAN, FREE_PRODUCT_CYCLIC):
            raise ValueError(f"unknown group kind {kind!r}")
        if not letters:
            raise ValueError("rank must be at least 1")
        seen = set()
        for ch in letters:
            if len(ch) != 1 or not ch.isalpha() or not ch.islower():
                raise ValueError(f"generator letters must be single lowercase letters, got {ch!r}")
            if ch in seen:
                raise ValueError(f"duplicate generator letter {ch!r}")
            seen.add(ch)
        if kind == FREE_PRODUCT_CYCLIC:
            if len(orders) != len(letters):
                raise ValueError("one factor order per generator letter is required")
            for n in orders:
                if n < 2:
                    raise ValueError(f"cyclic factor orders must be at least 2, got {n}")
        elif orders:
            raise ValueError("orders are only meaningful for free_product_cyclic")
        # ShortLex rank of every declared letter and inverse letter: a < A < b < B < ...
        rank = {}
        for i, g in enumerate(letters):
            rank[g], rank[g.upper()] = 2 * i, 2 * i + 1
        # the successors of a canonical word by its last letter, "" for the
        # identity; for free products, of a word whose last run is full
        alphabet = "".join(rank)
        if kind == FREE:
            after = {ch: alphabet.replace(ch.swapcase(), "") for ch in alphabet}
        elif kind == FREE_ABELIAN:
            after = {ch: ch + alphabet[(rank[ch] | 1) + 1:] for ch in alphabet}
        else:
            alphabet = "".join(letters)
            after = {x: alphabet.replace(x, "") for x in alphabet}
        after[""] = alphabet
        for name, value in (("kind", kind), ("letters", letters), ("orders", orders),
                            ("_rank", rank), ("_after", after)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not GroupModel:
            return NotImplemented
        return (self.kind, self.letters, self.orders) == (other.kind, other.letters, other.orders)

    def __hash__(self):
        return hash((self.kind, self.letters, self.orders))

    # -- alphabet helpers --

    @property
    def rank(self) -> int:
        return len(self.letters)

    def letter_index(self, ch: str) -> int:
        try:
            return self._rank[ch] >> 1
        except KeyError:
            raise _unknown_letter(ch) from None

    def letter_rank(self, ch: str) -> int:
        try:
            return self._rank[ch]
        except KeyError:
            raise _unknown_letter(ch) from None

    def sort_key(self, word: str):
        try:
            return (len(word), tuple(map(self._rank.__getitem__, word)))
        except KeyError as exc:
            raise _unknown_letter(exc.args[0]) from None

    # -- element constructors --

    def identity(self) -> "GroupElement":
        return GroupElement(self, "")

    def normalize(self, raw: str) -> "GroupElement":
        """Canonical form of a raw word; idempotent by construction."""
        for ch in raw:
            self.letter_index(ch)  # raises UnknownLetter
        return GroupElement(self, _normal_form(self, raw))

    # -- balls --

    def successors(self, word: str) -> str:
        """The letters ch, in ShortLex order, for which word + ch is canonical,
        word being canonical.

        Free: every letter but the inverse of the last one.  Free abelian:
        the last letter, or any letter of a later generator.  Free products
        of cyclics: any generator letter, the last one only while its run is
        shorter than its order - 1.
        """
        last = word[-1:]
        if last and self.kind == FREE_PRODUCT_CYCLIC:
            if not word.endswith(last * (self.orders[self._rank[last] >> 1] - 1)):
                return self._after[""]
        return self._after[last]

    def ball(self, radius: int, max_radius: int = DEFAULT_MAX_RADIUS) -> list["GroupElement"]:
        """All canonical elements of word length <= radius, in ShortLex order."""
        self.require_ball(radius, max_radius)
        # canonical words are closed under prefixes, so each one of length
        # l + 1 is one of length l followed by a successor; grown from a level
        # in ShortLex order, the next level is in ShortLex order too
        level = [""]
        words = [""]
        for _ in range(radius):
            level = [w + ch for w in level for ch in self.successors(w)]
            words += level
        return [GroupElement(self, w) for w in words]

    def require_ball(self, radius: int, max_radius: int = DEFAULT_MAX_RADIUS):
        """RadiusTooLarge when the ball of this radius is over a limit, judged
        by its closed-form size before anything is enumerated."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if radius > max_radius:
            raise RadiusTooLarge(f"radius {radius} exceeds the configured maximum {max_radius}")
        size = self.ball_size(radius)
        if size > DEFAULT_MAX_ELEMENTS:
            raise RadiusTooLarge(f"ball of radius {radius} has {size} elements, "
                                 f"over the element cap {DEFAULT_MAX_ELEMENTS}")

    def ball_size(self, radius: int) -> int:
        """Number of canonical elements of word length <= radius, in closed form."""
        n = self.rank
        if self.kind == FREE:
            if n == 1:
                return 2 * radius + 1
            return 1 + 2 * n * ((2 * n - 1) ** radius - 1) // (2 * n - 2)
        if self.kind == FREE_ABELIAN:
            # k nonzero coordinates with signs, absolute values a composition of <= radius
            return sum(2 ** k * math.comb(n, k) * math.comb(radius, k)
                       for k in range(min(n, radius) + 1))
        # ending[length][i]: canonical words of this length whose last syllable is in factor i
        ending = [[0] * n for _ in range(radius + 1)]
        for length in range(1, radius + 1):
            for i, order in enumerate(self.orders):
                for e in range(1, min(order - 1, length) + 1):
                    rest = ending[length - e]
                    ending[length][i] += sum(rest) - rest[i] if length > e else 1
        return 1 + sum(map(sum, ending))


def _unknown_letter(ch: str) -> UnknownLetter:
    return UnknownLetter(f"letter {ch!r} is not declared in this model")


def free_group(rank: int, letters: Optional[str] = None) -> GroupModel:
    return GroupModel(FREE, _pick_letters(FREE, rank, letters))


def free_abelian_group(rank: int, letters: Optional[str] = None) -> GroupModel:
    return GroupModel(FREE_ABELIAN, _pick_letters(FREE_ABELIAN, rank, letters))


def free_product_of_cyclics(orders: Sequence[int], letters: Optional[str] = None) -> GroupModel:
    return GroupModel(
        FREE_PRODUCT_CYCLIC,
        _pick_letters(FREE_PRODUCT_CYCLIC, len(orders), letters),
        tuple(orders),
    )


def _pick_letters(kind: str, rank: int, letters: Optional[str]) -> tuple[str, ...]:
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if letters is None:
        pool = _DEFAULT_LETTERS[kind]
        if rank > len(pool):
            raise ValueError(f"provide explicit letters for rank {rank}")
        return tuple(pool[:rank])
    if len(letters) != rank:
        raise ValueError("number of letters must match the rank")
    return tuple(letters)


class GroupElement(Frozen):
    """An element in canonical normal form.  Construct via GroupModel methods.

    Elements are equal when their models and words are."""

    __slots__ = ("model", "word")

    def __init__(self, model: GroupModel, word: str):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "word", word)

    def __eq__(self, other):
        if other.__class__ is not GroupElement:
            return NotImplemented
        return self.word == other.word and self.model == other.model

    def __hash__(self):
        return hash((self.model, self.word))

    def __len__(self) -> int:
        return len(self.word)

    def __repr__(self) -> str:
        return self.word if self.word else "1"

    def is_identity(self) -> bool:
        return not self.word

    def sort_key(self):
        return self.model.sort_key(self.word)


# --------------------------------------------------------------------------
# normal forms, composition and inversion


def _normal_form(model: GroupModel, word: str, reduced: int = 0) -> str:
    """Canonical word of a word whose letters the model declares; its first
    ``reduced`` letters are known to form a canonical word already."""
    if model.kind == FREE:
        stack = list(word[:reduced])
        for ch in word[reduced:]:
            if stack and stack[-1] == ch.swapcase():
                stack.pop()
            else:
                stack.append(ch)
        return "".join(stack)
    if model.kind == FREE_ABELIAN:
        return _render_vector(model, _word_to_vector(model, word))
    return _render_syllables(model, _word_to_syllables(model, word))


def compose(e1: GroupElement, e2: GroupElement) -> GroupElement:
    if e1.model != e2.model:
        raise ModelMismatch("elements live in different group models")
    return GroupElement(e1.model, _normal_form(e1.model, e1.word + e2.word, len(e1.word)))


def invert(e: GroupElement) -> GroupElement:
    return GroupElement(e.model, _normal_form(e.model, e.word[::-1].swapcase()))


# free abelian words are exponent vectors rendered as sorted letter runs


def _word_to_vector(model: GroupModel, raw: str) -> tuple[int, ...]:
    vec = [0] * model.rank
    for ch in raw:
        vec[model.letter_index(ch)] += -1 if ch.isupper() else 1
    return tuple(vec)


def _render_vector(model: GroupModel, vec: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(vec):
        if e > 0:
            parts.append(model.letters[i] * e)
        elif e < 0:
            parts.append(model.letters[i].upper() * (-e))
    return "".join(parts)


# free products of cyclic factors; syllables are (letter_index, exponent)


def _word_to_syllables(model: GroupModel, raw: str) -> list[list[int]]:
    stack: list[list[int]] = []
    for ch in raw:
        i = model.letter_index(ch)
        n = model.orders[i]
        delta = -1 if ch.isupper() else 1
        if stack and stack[-1][0] == i:
            stack[-1][1] = (stack[-1][1] + delta) % n
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([i, delta % n])
    return stack


def _render_syllables(model: GroupModel, syllables: Sequence[Sequence[int]]) -> str:
    # exponents from _word_to_syllables already lie in [1, order - 1]
    return "".join(model.letters[i] * e for i, e in syllables)


# --------------------------------------------------------------------------
# subgroup engines


class FoldingAutomaton:
    """Folded core graph of a finitely generated subgroup H of a free group
    or of a free product of cyclics.

    States are integers with 0 the base state; transitions carry single
    letters and always exist in inverse pairs.  A wedge of generator loops
    is folded as Stallings does, which keeps every state on a loop through
    the base.  Then each x-orbit of a letter x of finite order n is closed:
    an x-cycle of length c shrinks to gcd(c, n), an x-path of more than n
    states has its states n apart merged, and one of exactly n states gets
    its closing x-edge; folding and closing repeat until nothing merges.
    No step adds a state or reads a loop outside H, so the automaton is the
    core of the Schreier graph of H\\G, every x-orbit a cycle of length
    dividing n or a path of fewer than n states; past it hang regular trees
    (free groups) or trees of full x-cycles (free products).
    """

    def __init__(self, model: GroupModel, generators: Sequence[GroupElement]):
        next_: list[dict[str, int]] = [{}]
        pending: list[tuple[int, int]] = []

        for g in generators:
            state = 0
            for ch in g.word:
                t = next_[state].get(ch)
                if t is None:
                    next_.append({})
                    t = len(next_) - 1
                    next_[state][ch] = t
                    next_[t][ch.swapcase()] = state
                state = t
            pending.append((state, 0))

        orders = dict(zip(model.letters, model.orders))
        while pending:
            next_ = _fold(next_, pending)
            # close the orbits of the letters of finite order: merge or add an edge
            for x, n in orders.items():
                for orbit in _orbits(next_, x):
                    if x in next_[orbit[-1]]:
                        pending += zip(orbit, orbit[math.gcd(len(orbit), n):])
                    elif len(orbit) == n:
                        next_[orbit[-1]][x], next_[orbit[0]][x.upper()] = orbit[0], orbit[-1]
                    else:
                        pending += zip(orbit, orbit[n:])
        self.next = next_


def _fold(next_: list[dict[str, int]], pending: list[tuple[int, int]]) -> list[dict[str, int]]:
    """The transitions after merging each pending pair of states and folding;
    pending is used up."""
    parent = list(range(len(next_)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    while pending:
        a, b = pending.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        # keep the base state alive, otherwise keep the larger dict
        if b == 0 or (a != 0 and len(next_[b]) > len(next_[a])):
            a, b = b, a
        parent[b] = a
        for ch, t in next_[b].items():
            if ch in next_[a]:
                pending.append((next_[a][ch], t))
            else:
                next_[a][ch] = t
        next_[b] = {}

    # the union-find roots are the states; merged states keep no transitions
    return [{ch: find(t) for ch, t in out.items()} for out in next_]


def _orbits(next_: list[dict[str, int]], x: str):
    """The x-orbits of a folded automaton, each the list of its states in x
    order: from the start of an x-path, or round an x-cycle."""
    back = x.upper()
    seen: set[int] = set()
    for s in range(len(next_)):
        if s not in seen:
            start = s
            # back to the start of the path, or round the cycle to the state after s
            while next_[start].get(back, s) != s:
                start = next_[start][back]
            orbit = [start]
            while next_[orbit[-1]].get(x, start) != start:
                orbit.append(next_[orbit[-1]][x])
            seen.update(orbit)
            yield orbit


class _FoldedEngine:
    """A reader of the folded automaton: a coset's fingerprint is one int,
    the core state its key reaches plus ``states`` times its hanging tail."""

    tail_fp: Optional[int] = None
    split = staticmethod(list)

    def __init__(self, model: GroupModel, generators: Sequence[GroupElement]):
        self.next = FoldingAutomaton(model, generators).next
        self.states = len(self.next)
        self.steps = list(model._rank)  # every letter and its inverse

    def fingerprint(self, e: GroupElement) -> int:
        fp = 0
        for ch in e.word:
            fp = self.advance(fp, ch)
        return fp

    def known(self, window, word: str) -> int:
        """Bitset of the window's keys k for which the canonical word of
        k*word is at most radius long.

        One rule for free groups and free products: k*w drops letters only
        where k ends in whole steps of w^-1, read from its end.  A step s of
        w meets k's ending s^-1, and k's own syllable there either cancels it
        or merges with it into one shorter by the factor's order: either way
        k*w drops |s| + |s^-1| letters, 2 for a letter of a free group.  So a
        key of length l is known when it ends in the last letters of w^-1 up
        to the first step end where the drops reach l + |w| - radius, an AND
        of the window's cached ``ending`` masks.  No drop is needed for a key
        at most radius - |w| long: those keys are one prefix of the ids, and
        only the top |w| levels are read one at a time.
        """
        r, steps = window.radius, self.split(word)
        undo = list(map(window.graph.inverse.__getitem__, steps))
        # w^-1 read from its end, and at each of its step ends the number of
        # letters up to there and the letters k*w drops where k ends in them
        tail = "".join(undo)
        suffixes = list(accumulate(map(len, undo), initial=0))
        drops = list(accumulate(map(len, map(add, steps, undo)), initial=0))
        short = r - len(word)
        known = (1 << window.level(short)[1]) - 1 if short >= 0 else 0
        t, ending = 0, (1 << window.size) - 1
        for length in range(max(short + 1, 0), r + 1):
            cut = bisect_left(drops, length + len(word) - r)
            if cut == len(drops):
                break
            suffix = suffixes[cut]
            if suffix > length:
                continue
            while t < suffix:
                t += 1
                ending &= window.ending(t, tail[t - 1])
            lo, hi = window.level(length)
            known |= ending & ((1 << hi) - (1 << lo))
        return known

    def walk_order(self, window, i: int, word: str) -> list[str]:
        return self.split(word)


class _FreeEngine(_FoldedEngine):
    """Free groups: the tail is the letters that leave the core, read as
    base-(2n + 1) digits 1..2n with the last letter lowest.  Past the core
    the coset graph is a forest of regular trees, so from ``tail_fp`` =
    ``states`` on a coset's children follow from its last letter."""

    def __init__(self, model: GroupModel, generators: Sequence[GroupElement]):
        super().__init__(model, generators)
        self.tail_fp = self.states
        self.base = 2 * model.rank + 1
        # step -> (its digit, the digit of its inverse); the step of rank r has digit r + 1
        self.digits = {s: (model._rank[s] + 1, model._rank[s.swapcase()] + 1) for s in self.steps}

    def advance(self, fp: int, step: str) -> int:
        """Fingerprint of He*step, given fp, the fingerprint of He."""
        tail, state = divmod(fp, self.states)
        digit, undo = self.digits[step]
        if tail:
            tail = tail // self.base if tail % self.base == undo else tail * self.base + digit
            return state + self.states * tail
        t = self.next[state].get(step)
        return state + self.states * digit if t is None else t


class _ProductEngine(_FoldedEngine):
    """Free products of cyclics: a syllable x^e from position p of an x-path
    of m states lands at position (p + e) mod n of the full x-cycle; past
    the path's end it leaves the core, and the coset is named from the
    path's last state, the exit state, by the syllable x^k (k <= n - m) that
    reaches it.  The tail is that syllable and the ones after it, as base-B
    digits 1..B-1 with the last syllable lowest."""

    def __init__(self, model: GroupModel, generators: Sequence[GroupElement]):
        super().__init__(model, generators)
        states = self.states
        self.orders = dict(zip(model.letters, model.orders))
        self.steps = [x * e for x, n in self.orders.items() for e in range(1, n)]
        # per digit its syllable (letter, exponent); the digit of x^e is x's offset plus e
        self.syllable_of = [("", 0)] + [(s[0], len(s)) for s in self.steps]
        self.offset = {x: self.syllable_of.index((x, 1)) - 1 for x in self.orders}
        self.base = len(self.syllable_of)
        # moves[x][e][s]: the fingerprint of state s times x^e, for e in 0..n-1
        self.moves: dict[str, list[list[int]]] = {}
        for x, n in self.orders.items():
            moves = self.moves[x] = [[0] * states for _ in range(n)]
            for orbit in _orbits(self.next, x):
                m, cycle = len(orbit), x in self.next[orbit[-1]]
                for p, s in enumerate(orbit):
                    for e in range(n):
                        q = (p + e) % n
                        moves[e][s] = (orbit[q % m] if cycle or q < m else
                                       orbit[-1] + states * (self.offset[x] + q - m + 1))

    @staticmethod
    def split(word: str) -> list[str]:
        # the syllables of a canonical word are its runs of one letter
        return ["".join(run) for _, run in groupby(word)]

    def advance(self, fp: int, step: str) -> int:
        """Fingerprint of He*step, given fp, the fingerprint of He; step is a syllable."""
        tail, state = divmod(fp, self.states)
        x, e = step[0], len(step)
        y, f = self.syllable_of[tail % self.base]
        if y == x:
            # step merges with the tail's last syllable; from a one-syllable
            # tail, the exit state steps by the summed exponent
            tail, e = tail // self.base, (f + e) % self.orders[x]
        if not tail:
            return self.moves[x][e][state]
        return state + self.states * (tail * self.base + self.offset[x] + e if e else tail)


class IntegerLattice:
    """Sublattice of Z^n in row echelon form with positive pivots."""

    def __init__(self, rank: int, rows: Sequence[Sequence[int]]):
        self.rank = rank
        work = [list(r) for r in rows if any(r)]
        basis: list[list[int]] = []
        for col in range(rank):
            active = [r for r in work if r[col] != 0]
            rest = [r for r in work if r[col] == 0]
            while len(active) > 1:
                active.sort(key=lambda r: abs(r[col]))
                p = active[0]
                if p[col] < 0:
                    p = [-a for a in p]
                survivors = [p]
                for r in active[1:]:
                    q = r[col] // p[col]
                    r2 = [a - q * b for a, b in zip(r, p)]
                    if r2[col] != 0:
                        survivors.append(r2)
                    elif any(r2):
                        rest.append(r2)
                active = survivors
            if active:
                p = active[0]
                if p[col] < 0:
                    p = [-a for a in p]
                basis.append(p)
            work = rest
        self.basis = basis
        self.pivots = [next(i for i, a in enumerate(row) if a) for row in basis]

    def reduce(self, vector: Sequence[int]) -> tuple[int, ...]:
        v = list(vector)
        for row, col in zip(self.basis, self.pivots):
            q = v[col] // row[col]
            v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)


class _LatticeEngine:
    """Free abelian groups: a coset's fingerprint is the exponent vector of
    a representative reduced by the lattice of H.  A key is an exponent
    vector too, so |k*w| is the sum over the generators of |k_i + w_i|."""

    tail_fp = None
    split = staticmethod(list)

    def __init__(self, model: GroupModel, generators: Sequence[GroupElement]):
        self.model = model
        self.lattice = IntegerLattice(model.rank, [_word_to_vector(model, g.word) for g in generators])
        self.steps = list(model._rank)  # every letter and its inverse
        self.columns: list[list[int]] = [[0] for _ in model.letters]

    def fingerprint(self, e: GroupElement):
        return self.lattice.reduce(_word_to_vector(self.model, e.word))

    def advance(self, fp, step: str):
        moved = list(fp)
        moved[self.model.letter_index(step)] += -1 if step.isupper() else 1
        return self.lattice.reduce(moved)

    def _columns(self, window) -> list[list[int]]:
        """Per generator, the exponent of each key id of the window at least:
        its parent's, plus 1 or -1 where its last letter is the generator or
        its inverse, one key length at a time.  Key ids run in ShortLex order
        of the keys in every window over H, so the columns grow with the
        largest window read and serve the smaller ones."""
        columns = self.columns
        if len(columns[0]) < window.size:
            parent, last = window.graph.parent, window.graph.last
            for g, column in zip(self.model.letters, columns):
                delta = [0] * 256
                delta[ord(g)], delta[ord(g.upper())] = 1, -1
                for length in range(1, window.radius + 1):
                    lo, hi = window.level(length)
                    if lo >= len(column):
                        column += map(add, map(column.__getitem__, parent[lo:hi]),
                                      map(delta.__getitem__, last[lo:hi]))
        return columns

    def known(self, window, word: str) -> int:
        """Bitset of the window's keys k with |k*word| <= radius, summed over
        the exponent columns."""
        size, r = window.size, window.radius
        lengths = map(sum, zip(*(map(abs, map(v.__add__, column[:size]))
                                 for column, v in zip(self._columns(window),
                                                      _word_to_vector(self.model, word)))))
        return int("".join(map("01".__getitem__, map(r.__ge__, lengths)))[::-1], 2)

    def walk_order(self, window, i: int, word: str) -> list[str]:
        """The letters of word, first those that cancel into key i's
        exponents: a walk that ends within the radius then stays within it."""
        rest = [column[i] for column in self._columns(window)]
        cancelling, lengthening = [], []
        for ch in word:
            g, sign = self.model.letter_index(ch), 1 if ch.islower() else -1
            if rest[g] * sign < 0:
                rest[g] += sign
                cancelling.append(ch)
            else:
                lengthening.append(ch)
        return cancelling + lengthening


class SubgroupModel:
    """A subgroup given by generators, with the engine that fingerprints its cosets.

    An engine has ``fingerprint(e)``, the canonical value of He, and
    ``advance(fp, step)``, the fingerprint of He*step from fp alone, plus
    the answers for the coset graph listed in the module docstring.
    """

    __slots__ = ("model", "generators", "engine", "_identity_fp")

    def __init__(self, model: GroupModel, generators: tuple[GroupElement, ...], engine: object):
        self.model = model
        self.generators = generators
        self.engine = engine
        self._identity_fp = engine.fingerprint(model.identity())

    def member(self, e: GroupElement) -> bool:
        """e lies in H exactly when He = H, that is when e fingerprints as 1 does."""
        if e.model != self.model:
            raise ModelMismatch("element belongs to a different group model")
        return self.engine.fingerprint(e) == self._identity_fp

    def fingerprint(self, e: GroupElement):
        """Canonical value shared by exactly the elements of the right coset He."""
        return self.engine.fingerprint(e)


def subgroup(model: GroupModel, generator_words: Sequence[str]) -> SubgroupModel:
    gens = tuple(g for g in (model.normalize(w) for w in generator_words) if not g.is_identity())
    engine = {FREE: _FreeEngine, FREE_ABELIAN: _LatticeEngine}.get(model.kind, _ProductEngine)
    return SubgroupModel(model, gens, engine(model, gens))


# --------------------------------------------------------------------------
# coset keys


class CosetTable:
    """Right-coset keys for every element of a ball, by grouping on fingerprints.

    The key of an element e is the ShortLex-least element of He inside the
    ball; scanning the ball in ShortLex order and grouping by the engine's
    coset fingerprint makes the first member of each coset its key.  This is
    the reference that the coset graph of ``windows.Window`` is tested
    against.
    """

    def __init__(self, sub: SubgroupModel, elements: Sequence[GroupElement]):
        self.sub = sub
        self.elements = list(elements)
        self.key_of: dict[str, str] = {}
        keys: list[str] = []
        by_fp: dict[object, str] = {}
        for e in self.elements:
            fp = sub.fingerprint(e)
            k = by_fp.get(fp)
            if k is None:
                by_fp[fp] = e.word
                k = e.word
                keys.append(k)
            self.key_of[e.word] = k
        self.keys = keys  # ShortLex order, inherited from the element scan

    def key(self, e: GroupElement) -> str:
        try:
            return self.key_of[e.word]
        except KeyError:
            raise SearchBudgetExceeded(f"element {e!r} lies outside the tabulated ball") from None


def display_word(word: str) -> str:
    return word if word else "1"
