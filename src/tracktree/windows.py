"""Finite certified windows over a coset universe, base sets, and translate families.

A window truncates the right-coset space H\\G to the cosets whose
ShortLex-least representative (the coset's key) has length at most the
radius.  It is the Schreier graph of H\\G on those cosets, found breadth
first from H, with key ids in ShortLex order and one right-action array per
step.  What depends on the group kind is answered by the subgroup engine
(see ``groups``): the steps and how a word splits into them, the
fingerprint ``tail_fp`` past which a coset's children follow from its last
letter, the mask of keys that a walk keeps within the radius, and the
order in which a walk takes its steps.  Past ``tail_fp`` (the Stallings
core of a free group) a run of parents grows its children in bulk, their
ids read off the parents' ids and last letters; a coset grown so keeps no
fingerprint and no index entry, since every coset it neighbours is its
parent or a child, and their links are written on first use, as deep as a
walk reads them.  A key is stored as its parent's id and its last letter;
key strings are spelled out only where they are read.  Each translate
carries a certificate: the window
decides it on every core key, and its difference from the base set stays
clear of the boundary shell (keys longer than radius - margin); a pairwise
difference is the sum of two such differences.  The differences are then
shown stable: for a free group whose live core cosets all lie in the
window, by the Stallings core bound of ``_core_bound`` (every difference
lies in the keys at most B = max(D, d - 1) + L long, so when
radius - margin >= B and radius >= B + L they are the true ones), with
nothing compared, and otherwise by certifying each translate again at
radius + 2 and comparing its difference with the one at the radius, the
one step that the element cap on the radius + 2 ball can refuse.  The
properness heuristic and the re-check each return their witness, the
failing detail or the first translate whose difference changed, and None
when they hold.
Vertex subsets are int bitsets over the core universe (shell removed), so
that downstream set arithmetic is exact wherever a certificate holds; the
universe reads the core's keys through the graph, spelling one where it is
read.

A translate by g is one pair of bitsets from one walk of g^-1: the
certified symmetric difference of the base set and its g-translate, and
the keys the window cannot decide; the family certifies that pair once per
translate, and the expected-K check and the tree's action read it.  The
walk starts from the keys at most S + |g| long, where S = max(D, d - 1) is
the settled depth recorded when a base set is decided over a window past
whose core hang trees (``tail_fp``), and from every key otherwise: a longer
key and its pull-back share a prefix more than S long, which hangs off the
core and is at least d long, so they are decided alike and the key moves
nothing.  Which keys a walk decides is read on the core and the walked
keys only, the ids every caller reads: all of them when none is longer
than radius - |g|, else the engine's ``known`` bitset, found in bulk, cut
to them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import cached_property, reduce
from itertools import repeat
from operator import add, itemgetter, or_
from typing import Collection, NamedTuple, Optional, Sequence

from .errors import CertificationFailure, ConflictingRule
from .groups import (
    Frozen,
    GroupElement,
    GroupModel,
    SubgroupModel,
    display_word,
    invert,
)

# flags (one byte 0 or 1 per key id) to and from int bitsets over key ids; a
# walk's flags read 2 where the walk ended at -1, which _mask reads as 0 and
# _mask(flags, _LOST) as the one set bit
_TO_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"010")
_LOST = bytes.maketrans(b"\x00\x01\x02", b"001")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _mask(flags: bytes, digits: bytes = _TO_DIGITS) -> int:
    return int(flags[::-1].translate(digits) or b"0", 2)


def _flags(mask: int) -> bytes:
    return bin(mask)[:1:-1].encode().translate(_FROM_DIGITS)


def _gather(seq: Sequence[int], ids: Sequence[int]) -> Sequence[int]:
    """seq[i] for each i in ids, in order."""
    # itemgetter of one id returns the item itself, not a 1-tuple
    return itemgetter(*ids)(seq) if len(ids) > 1 else [seq[i] for i in ids]


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of a mask, lowest first."""
    return [k for k, f in enumerate(_flags(mask)) if f]


class _CosetGraph:
    """Schreier graph of H\\G, grown breadth first from H one key length at a time.

    Each layer is one pass over (parent id, letter): parents in id order,
    letters in ShortLex order, every unlinked step advanced once and looked
    up once.  The path that first reaches a coset spells its ShortLex-least
    representative, so ids run in ShortLex order of the keys, ``parent[j]``
    is the id whose key is coset j's key less its last letter (-1 for H),
    and ``last[j]`` is that letter as a byte (0 for H).  ``arrays[step][i]``
    is the id of coset i times ``step``, or -1; each array ends in a -1
    sentinel, so that a walk from -1 stays at -1.  The steps are the
    engine's; the breadth-first search uses the one-letter ones.  ``fps[j]``
    is coset j's fingerprint and ``index`` maps it back to j, for every
    coset found by stepping.  A coset grown in bulk past the engine's
    ``tail_fp`` has no index entry, and ``fps`` holds ``tail_fp`` for it:
    all that is read of it is that it is past the core.  The links
    of such a run of parents to their children are written on first use: the
    run is pending until ``link`` is asked for ids past its first parent, as
    ``step`` does for the id it steps from and ``Window.translate`` for the
    keys its walks read.  A -1 out of the outermost layer, or for a longer
    syllable, may hide a discovered coset that was never looked up; ``step``
    looks it up, except from a coset past the core, whose every discovered
    neighbour is its parent or a child, linked once ``link`` has run.  Key
    strings are built from ``parent`` and ``last`` only where
    ``key_strings`` is asked for a run of them or ``key`` for one.  Growing
    the graph keeps every id, link and pending run, so windows built over it
    before stay valid.
    """

    def __init__(self, sub: SubgroupModel):
        model, steps = sub.model, sub.engine.steps
        self.sub = sub
        self.letters = sorted((s for s in steps if len(s) == 1), key=model.letter_rank)
        self.inverse = {s: invert(GroupElement(model, s)).word for s in steps}
        self.arrays: dict[str, list[int]] = {s: [-1, -1] for s in steps}
        self.keys = [""]  # the key strings of the first len(keys) ids, built on demand
        self.fps = [sub.fingerprint(model.identity())]
        self.parent = [-1]
        self.last = bytearray(1)
        self.index = {self.fps[0]: 0}
        self.level_end = [1]  # level_end[l]: number of keys of length <= l
        # (step, its byte, its array, the array of its inverse); one-letter steps in ShortLex order
        self._links = [(s, ord(s), self.arrays[s], self.arrays[self.inverse[s]])
                       for s in self.letters]
        # by the last letter of a parent past the engine's tail_fp, its
        # children's letters: the successors of its key
        self._children = {ord(s): model.successors(s).encode() for s in self.letters}
        # by child slot k, a bytes.translate table from such a parent's last
        # letter to its k-th child's; built from _children on the first bulk growth
        self._child_tables: Optional[list[bytearray]] = None
        # runs (lo, hi, first child id) of parents grown in bulk whose links
        # are not written yet, in id order
        self._pending: deque[tuple[int, int, int]] = deque()
        # the newest layer was grown wholly in bulk, so each of its cosets is past the core
        self._bulk = False

    @property
    def radius(self) -> int:
        return len(self.level_end) - 1

    def grow(self, radius: int) -> "_CosetGraph":
        """Discover every coset whose key is at most radius long.

        One pass per layer, over runs of parents.  A run of parents past the
        core (fingerprint at least the engine's ``tail_fp``) is grown in bulk
        by ``_grow_tails``, its links left pending.  Every other parent steps
        one letter at a time: each unlinked step is advanced from the
        parent's fingerprint and looked up with one ``index.setdefault``; a
        fingerprint not seen before becomes the next id, with the parent id
        it was reached from.  The arrays get
        a slot per new id in a layer with such a parent; a layer grown in
        bulk only gets its slots when its links are written.  A core coset's
        key passes through core cosets only, so no layer that steps follows
        one grown in bulk; and every coset of a layer grown wholly in bulk
        is past the core, so its children are grown in bulk without reading
        its fingerprints.
        """
        fps, tail_fp = self.fps, self.sub.engine.tail_fp
        arrays = list(self.arrays.values())
        while self.radius < radius:
            lo, hi = self.level_end[-2] if self.radius else 0, len(fps)
            size = hi
            if self._bulk:
                past_core = b"\x01" * (hi - lo)
            elif tail_fp is not None:
                past_core = bytes(map(tail_fp.__le__, fps[lo:hi]))
            else:
                past_core = bytes(hi - lo)
            # room for every new id of a layer that steps; the unused tail is cut off below
            stepping = 0 in past_core
            if stepping:
                self._fill(hi + (hi - lo) * len(self.letters))
            start = lo
            while start < hi:
                tail = past_core[start - lo]
                end = past_core.find(1 - tail, start - lo)
                end = hi if end < 0 else lo + end
                size = (self._grow_tails if tail else self._grow_steps)(start, end, size)
                start = end
            if stepping:
                for a in arrays:
                    del a[size + 1:]
            self._bulk = tail_fp is not None and not stepping
            self.level_end.append(size)
        return self

    def _grow_steps(self, lo: int, hi: int, size: int) -> int:
        """Step each parent lo..hi-1 by each letter; the number of ids after."""
        advance, fps, parent, last, index = (
            self.sub.engine.advance, self.fps, self.parent, self.last, self.index)
        for i in range(lo, hi):
            fp_i = fps[i]
            for step, code, forward, back in self._links:
                if forward[i] < 0:
                    fp = advance(fp_i, step)
                    j = index.setdefault(fp, size)
                    if j == size:
                        fps.append(fp)
                        parent.append(i)
                        last.append(code)
                        size += 1
                    forward[i] = j
                    back[j] = i
        return size

    def _grow_tails(self, lo: int, hi: int, size: int) -> int:
        """Grow a run of parents lo..hi-1 past the engine's ``tail_fp`` in
        bulk; the number of ids after.

        Past it the graph is a forest of regular trees (the Stallings core's
        hanging trees, free groups): every successor of a parent's key
        reaches a new coset, so parent i's 2n - 1 children take the next ids
        in ShortLex order of their letters.  A child's only neighbours are
        its parent and its own children, so no step ever looks it up: it gets
        no fingerprint and no index entry, only the shared past-core value in
        ``fps``.  The children's last letters are spelled one child slot at
        a time, by one ``bytes.translate`` of the parents' last letters.  The
        run's links are left to ``link``: a translate reads those of the
        short keys only.
        """
        width = len(self.letters) - 1
        count = (hi - lo) * width
        if self._child_tables is None:
            self._child_tables = [bytearray(256) for _ in range(width)]
            for code, children in self._children.items():
                for table, child in zip(self._child_tables, children):
                    table[code] = child
        parent_ids = list(range(lo, hi))
        last_letters = self.last[lo:hi]
        parents = [0] * count  # each parent's id, once per child
        tails = bytearray(count)  # each child's last letter
        for k, table in enumerate(self._child_tables):
            parents[k::width] = parent_ids
            tails[k::width] = last_letters.translate(table)
        self.fps += repeat(self.sub.engine.tail_fp, count)
        self.parent += parents
        self.last += tails
        self._pending.append((lo, hi, size))
        return size + count

    def link(self, upto: int) -> None:
        """Write the links of the pending parents below upto, oldest run
        first: each child's link from its parent by its last letter, and its
        link back, in slots the arrays get here.

        A parent's own link to its parent was written before, with the run
        that holds the parent's parent or when it was stepped to, so
        afterwards every coset below upto reads its links as an eager growth
        would have written them, and each of its children its link back.
        """
        pending, width = self._pending, len(self.letters) - 1
        arrays = {code: (forward, back) for _, code, forward, back in self._links}
        while pending and pending[0][0] < upto:
            lo, hi, first = pending.popleft()
            if hi > upto:
                # the parents from upto on stay pending, with their children
                pending.appendleft((upto, hi, first + (upto - lo) * width))
                hi = upto
            end = first + (hi - lo) * width
            self._fill(end)
            for j, i, code in zip(range(first, end), self.parent[first:end], self.last[first:end]):
                forward, back = arrays[code]
                forward[i] = j
                back[j] = i

    def _fill(self, size: int) -> None:
        """Give the arrays a -1 slot for each id below size, before their sentinel."""
        more = size + 1 - len(self.arrays[self.letters[0]])
        if more > 0:
            for a in self.arrays.values():
                a[-1:] = repeat(-1, more + 1)

    def key_strings(self, lo: int, hi: int) -> list[str]:
        """The keys of ids lo..hi-1, building from the parent ids the ones not built yet."""
        keys = self.keys
        while len(keys) < hi:
            # one layer at a time, so that every parent's key is built already
            start = len(keys)
            end = min(hi, self.level_end[bisect_right(self.level_end, start)])
            keys += map(add, map(keys.__getitem__, self.parent[start:end]),
                        self.last[start:end].decode())
        return keys[lo:hi]

    def key(self, i: int) -> str:
        """The key of id i alone, spelled back from it through the parent ids."""
        letters = bytearray()
        while i > 0:
            letters.append(self.last[i])
            i = self.parent[i]
        return letters[::-1].decode()

    def step(self, i: int, step: str) -> int:
        """Id of coset i times step, looked up if it is not linked; -1 when undiscovered.

        The pending links of the parents up to i are written first, which
        links i to its parent and its children.  A coset past the engine's
        ``tail_fp`` has no other neighbour, so from there an unlinked step is
        undiscovered and is not looked up.
        """
        if self._pending and i >= self._pending[0][0]:
            self.link(i + 1)
        j = self.arrays[step][i]
        if j < 0 <= i:
            fp, tail_fp = self.fps[i], self.sub.engine.tail_fp
            if tail_fp is not None and fp >= tail_fp:
                return j
            j = self.index.get(self.sub.engine.advance(fp, step), -1)
            if j >= 0:
                self.arrays[step][i] = j
                self.arrays[self.inverse[step]][j] = i
        return j


class Window:
    """The cosets of H\\G whose keys are at most radius long, as a Schreier graph.

    ``omega`` lists the keys in ShortLex order; a key's position is its id,
    and sets of keys are int bitsets over ids.  ``core`` is the prefix of
    keys at most radius - margin long; ``core_mask`` and ``shell_mask`` are
    the core's ids and the rest.  ``size`` is the number of keys.  The key
    strings of ``omega`` and ``core``, which no pipeline stage reads, are
    built from the graph's parent ids the first time they are read.
    """

    def __init__(self, model: GroupModel, sub: SubgroupModel, radius: int, margin: int):
        if margin < 1:
            raise ValueError("margin must be at least 1")
        if radius < 2 * margin:
            raise ValueError("radius must be at least twice the margin")
        model.require_ball(radius)
        self._setup(model, sub, radius, margin, _CosetGraph(sub).grow(radius))

    def _setup(self, model, sub, radius, margin, graph):
        self.model = model
        self.sub = sub
        self.radius = radius
        self.margin = margin
        self.graph = graph
        self.size = size = graph.level_end[radius]
        self._cut = cut = graph.level_end[radius - margin]
        self.core_mask = (1 << cut) - 1
        self.shell_mask = ((1 << size) - 1) ^ self.core_mask
        self._translates: dict[tuple[str, int], tuple[int, int]] = {}
        # per base set: its settled depth, for a base set decided over this
        # window (_decide), and its flag row (_row)
        self._settled: dict[int, int] = {}
        self._rows: dict[int, bytes] = {}
        self._letters: list[bytes] = []
        self._endings: dict[tuple[int, str], int] = {}

    @cached_property
    def omega(self) -> list[str]:
        return self.graph.key_strings(0, self.size)

    @cached_property
    def core(self) -> list[str]:
        return self.graph.key_strings(0, self._cut)

    @cached_property
    def _core_depth(self) -> Optional[int]:
        """D, the longest key of a live core coset when the engine grows
        hanging trees past its core (``tail_fp``, free groups): the base
        state, or a state of the folded automaton with transitions
        (``states`` also counts the states that folding merged away).  None
        when it grows none or a live core coset has no key in the window."""
        graph, size, engine = self.graph, self.size, self.sub.engine
        if engine.tail_fp is None:
            return None
        # ids run in ShortLex order, so the last live core coset has the longest key
        last = max(graph.index.get(s, size) for s, out in enumerate(engine.next) if out or s == 0)
        return None if last >= size else bisect_right(graph.level_end, last)

    def extended(self, extra: int) -> "Window":
        """This window at radius + extra, by growing its graph.

        The size of the larger ball is checked against the element cap first,
        in closed form; RadiusTooLarge when it is over.
        """
        radius = self.radius + extra
        self.model.require_ball(radius, max_radius=radius)
        big = object.__new__(Window)
        big._setup(self.model, self.sub, radius, self.margin, self.graph.grow(radius))
        return big

    def keys_of(self, mask: int) -> list[str]:
        """The keys of a bitset in ShortLex order, spelling its keys only."""
        return list(map(self.graph.key, bit_positions(mask)))

    def level(self, length: int) -> tuple[int, int]:
        """The ids lo..hi-1 of the keys of one length, a contiguous run."""
        ends = self.graph.level_end
        return ends[length - 1] if length else 0, ends[length]

    # -- walks --

    def walk_from(self, i: int, word: str) -> int:
        """Walk one key id through the arrays by word, in the engine's walk order."""
        for step in self.sub.engine.walk_order(self, i, word):
            i = self.graph.step(i, step)
        return i

    def ending(self, t: int, letter: str) -> int:
        """Bitset of the keys whose t-th letter from the end is letter.

        ``_letters[t - 1]`` holds that letter of every key as one byte per
        id, 0 for keys shorter than t, and a trailing 0 that id -1 reads:
        for t = 1 the graph's ``last``, else gathered from t - 1 through the
        parent ids.
        """
        mask = self._endings.get((t, letter))
        if mask is None:
            letters = self._letters
            if not letters:
                letters.append(bytes(self.graph.last[:self.size]) + b"\0")
            while len(letters) < t:
                parent = self.graph.parent[:self.size]
                letters.append(bytes(map(letters[-1].__getitem__, parent)) + b"\0")
            digits = bytearray(b"0" * 256)
            digits[ord(letter)] = ord("1")
            mask = self._endings[t, letter] = _mask(letters[t - 1][:-1], bytes(digits))
        return mask

    def locate(self, e: GroupElement) -> int:
        """Id of the coset He, or -1 when e is longer than the radius."""
        return self.walk_from(0, e.word) if len(e.word) <= self.radius else -1

    # -- translates --

    def known(self, word: str, top: int) -> int:
        """Bitset of the ids below top whose walk by word stays within the
        radius: every one when the key of id top - 1 is at most
        radius - |word| long (|k*w| <= |k| + |w| for every kind), else the
        engine's ``known`` mask cut to them."""
        short = self.radius - len(word)
        if short >= 0 and top <= self.graph.level_end[short]:
            return (1 << top) - 1
        return self.sub.engine.known(self, word) & ((1 << top) - 1)

    def translate(self, base_set: int, g: GroupElement) -> tuple[int, int]:
        """(moved, unknown) bitsets of base_set * g over the window's keys.

        base_set is a bitset over key ids.  A key k belongs to the translate
        iff the key of k * g^-1 belongs to the base set; keys whose
        pulled-back representative is longer than the radius are unknown.
        ``moved`` is the certified symmetric difference of the base set and
        its translate: the known keys whose membership the translate
        changes.  One bulk walk of the steps of g^-1, started from a slice
        of the first step's array and gathered through ``itemgetter``, reads
        the base set's flag at the end of each walked key; a known walk ends
        inside the window, so one that reads 2 (the flag of id -1) met a
        link not looked up or not written yet, or a step that the engine's
        walk order puts later, and ``walk_from`` walks it again.

        The walked keys are those at most S + |g| long, for a base set
        decided over this window with settled depth S (see
        ``_decide``), and every key otherwise.  The rest move nothing: a
        known key k longer than S + |g| and the key of k*g^-1 share k's
        first |k| - |g| letters, a prefix past the core and at least d
        long, and every key past d is decided as its parent.  Which keys
        are known is read (``known``) on the core and the walked keys only,
        the ids every caller reads, and ``unknown`` is the undecided keys
        among them: the whole window when there is no S.  The graph links on
        first use, so the walks link the keys they read first: those at
        most S + 2|g| long (a walk of |g| steps from a key at most S + |g|
        long reads no longer key), and every key of the window when there is
        no S.  Cached per word and base set.
        """
        cache_key = (g.word, base_set)
        hit = self._translates.get(cache_key)
        if hit is None:
            size = self.size
            if g.is_identity():
                hit = (0, 0)
            else:
                word = invert(g).word
                settled = self._settled.get(base_set)
                level_end, r = self.graph.level_end, self.radius
                if settled is None:
                    cut = reach = size
                else:
                    cut = level_end[min(settled + len(word), r)]
                    reach = level_end[min(settled + 2 * len(word), r)]
                # the core and the walked keys, the ids a caller reads
                top = max(cut, self._cut)
                known = self.known(word, top)
                self.graph.link(reach)
                row = self._row(base_set)
                first, *rest = self.sub.engine.split(word)
                ends = self.graph.arrays[first][:cut]
                for step in rest:
                    ends = _gather(self.graph.arrays[step], ends)
                read = bytearray(_gather(row, ends))
                for i in bit_positions(_mask(read, _LOST) & known):
                    read[i] = row[self.walk_from(i, word)]
                assert not _mask(read, _LOST) & known, "a known walk left the window"
                moved = ((base_set & ((1 << cut) - 1)) ^ _mask(read)) & known
                hit = (moved, ((1 << top) - 1) ^ known)
            self._translates[cache_key] = hit
        return hit

    def _row(self, base_set: int) -> bytes:
        """The base set's flag per id of the graph, then the 2 that id -1
        reads; keys past the window (a graph grown since) read 0.  Built
        once per base set, and padded again when the graph has grown."""
        width = len(self.graph.fps)
        row = self._rows.get(base_set)
        if row is None or len(row) <= width:
            flags = _flags(base_set)[:self.size] if row is None else row[:-1]
            row = self._rows[base_set] = flags.ljust(width, b"\0") + b"\2"
        return row


def build_window(model: GroupModel, sub: SubgroupModel, radius: int, margin: int) -> Window:
    return Window(model, sub, radius, margin)


# --------------------------------------------------------------------------
# base sets


class BaseSetSpec(Frozen):
    """Prefix rules plus explicit include/exclude lists over coset keys.

    Membership of a key is decided by the longest matching prefix rule,
    then by the explicit lists, then by the default side.
    """

    __slots__ = ("rules", "includes", "excludes", "default_in")

    def __init__(self, rules: tuple[tuple[str, bool], ...] = (),
                 includes: frozenset[str] = frozenset(),
                 excludes: frozenset[str] = frozenset(), default_in: bool = False):
        clash = includes & excludes
        if clash:
            raise ConflictingRule(f"keys both included and excluded: {sorted(clash)}")
        sides: dict[str, bool] = {}
        for prefix, side in rules:
            if sides.setdefault(prefix, side) != side:
                raise ConflictingRule(f"prefix {prefix!r} declared with both sides")
        for name, value in (("rules", rules), ("includes", includes), ("excludes", excludes),
                            ("default_in", default_in)):
            object.__setattr__(self, name, value)

    @property
    def depth(self) -> int:
        """Keys longer than this are decided as their parent, the key less its
        last letter, is: every rule that matches one matches its parent, and
        neither is an explicit key."""
        return max([len(prefix) for prefix, _ in self.rules]
                   + [len(key) + 1 for key in self.includes | self.excludes], default=0)

    def decide(self, key: str) -> bool:
        best: Optional[tuple[str, bool]] = None
        for prefix, side in self.rules:
            if key.startswith(prefix):
                if best is None or len(prefix) > len(best[0]):
                    best = (prefix, side)
        if best is not None:
            return best[1]
        if key in self.includes:
            return True
        if key in self.excludes:
            return False
        return self.default_in


def build_base_set(window: Window, spec: BaseSetSpec) -> int:
    """The keys the spec puts in, as a bitset over the window's key ids.

    ``spec.decide`` runs on the keys at most ``spec.depth`` long; every
    longer key inherits its parent's decision through the graph's parent
    ids, one level and one run of equal decisions at a time (``_decide``).
    """
    return _decide(window, spec, bytearray())


def _decide(window: Window, spec: BaseSetSpec, flags: bytearray) -> int:
    """The base set whose decisions on the window's keys of length below
    some l are flags, the rest decided by spec, as a bitset.

    Past the spec's depth a level copies its parents' decisions a run at a
    time: the ids of a level are ordered by their parent ids, so a run of
    equal flags over the parents p..q-1 owns the children from the first
    whose parent is p to the first whose parent is q, found by bisection.

    For a free group whose live core cosets all have keys in the window,
    the window records the base set's settled depth S = max(D, d - 1): D
    the longest key of a live core coset (``Window._core_depth``) and d the
    decided depth (``_decided_depth``).  A key longer than S hangs off the
    core and is decided as its prefix of length S + 1; ``Window.translate``
    and ``_core_bound`` read S.
    """
    graph, depth = window.graph, spec.depth
    parent = graph.parent
    for length in range(window.radius + 1):
        lo, hi = window.level(length)
        if lo < len(flags):
            continue
        if length <= depth:
            flags += bytes(map(spec.decide, graph.key_strings(lo, hi)))
            continue
        p, end = window.level(length - 1)
        while p < end:
            flag = flags[p]
            q = flags.find(1 - flag, p, end)
            q = end if q < 0 else q
            child = bisect_left(parent, q, lo, hi)
            flags += bytes((flag,)) * (child - lo)
            p, lo = q, child
    base_set = _mask(flags)
    core_depth = window._core_depth
    if core_depth is not None:
        window._settled[base_set] = max(core_depth, _decided_depth(window, spec, base_set) - 1)
    return base_set


# --------------------------------------------------------------------------
# translate families


class FamilyVertex(NamedTuple):
    element: Optional[GroupElement]  # the translation; None in explicit mode
    members: int                     # bitset over the family's universe
    name: str


class _KeyPrefix(Sequence[str]):
    """The keys of ids 0..n-1 of a coset graph, read-only: a key is spelled
    through the parent ids when it is read, and its length spells none."""

    __slots__ = ("graph", "n")

    def __init__(self, graph: _CosetGraph, n: int):
        self.graph = graph
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> str:
        if not -self.n <= i < self.n:
            raise IndexError("key id out of range")
        return self.graph.key(i % self.n)


class VertexFamily:
    """A deduplicated family of certified base-set translates.

    ``universe`` is the keys in ShortLex order, and vertex sets are int
    bitsets over it: bit k stands for ``universe[k]``.  An explicit family
    lists its keys; a family built over a window reads its core's through
    the window's graph, one key at a time.  The difference of two vertices
    is the XOR of their member sets; for a family built over a window that
    is their certified difference, since every translate was decided on
    the core and its ``moved`` set certified clear of the shell.
    """

    def __init__(self, universe: Sequence[str], vertices: Sequence[FamilyVertex],
                 base_index: int, window: Optional[Window] = None,
                 base_set: Optional[int] = None):
        self.universe = universe
        self.vertices = list(vertices)
        self.base_index = base_index
        self.window = window
        self.base_set = base_set

    def __len__(self) -> int:
        return len(self.vertices)

    def diff(self, i: int, j: int) -> int:
        return self.vertices[i].members ^ self.vertices[j].members

    def distance(self, i: int, j: int) -> int:
        return self.diff(i, j).bit_count()

    def keys_of(self, mask: int) -> list[str]:
        """The keys of a bitset over the universe, in ShortLex order."""
        return [self.universe[p] for p in bit_positions(mask)]


def explicit_family(universe: Sequence[str], subsets: Sequence[tuple[str, Collection[str]]],
                    base_index: int = 0) -> VertexFamily:
    """Family given directly as subsets of an abstract universe (test mode).

    Each subset is a vertex name and a collection of its keys, read as a
    set.  A repeated universe key or vertex name is an error: a witness
    names vertices and keys, so each name must mean one thing."""
    if len(set(universe)) < len(universe):
        repeated = sorted({k for k in universe if universe.count(k) > 1})
        raise ValueError(f"the universe repeats keys {repeated}")
    universe = sorted(universe, key=lambda word: (len(word), word))
    bit = {k: 1 << i for i, k in enumerate(universe)}
    vertices = []
    seen: dict[int, str] = {}
    names: set[str] = set()
    for name, members in subsets:
        if name in names:
            raise ValueError(f"vertex name {name!r} is used twice")
        names.add(name)
        try:
            mask = reduce(or_, map(bit.__getitem__, members), 0)  # a repeated key is one bit
        except KeyError:
            stray = sorted(set(members).difference(bit))
            raise ValueError(f"vertex {name!r} uses keys outside the universe: {stray}") from None
        if mask in seen:
            raise ValueError(f"vertex {name!r} duplicates vertex {seen[mask]!r}")
        seen[mask] = name
        vertices.append(FamilyVertex(None, mask, name))
    return VertexFamily(universe, vertices, base_index)


def _certified(window: Window, base_set: int,
               translations: Sequence[GroupElement]) -> list[int]:
    """Each translation's certified ``moved`` set, A + A*g, in translation
    order.

    A translate is certified when the window decides it on every core key
    and its ``moved`` set stays clear of the shell.  Every translate is
    checked for the first before any for the second; CertificationFailure
    names the first translation that fails.
    """
    translates = [(g, window.translate(base_set, g)) for g in translations]
    for g, (_, unknown) in translates:
        if unknown & window.core_mask:
            # a core key radius - margin long can walk g^-1 out to
            # radius - margin + |g^-1| letters: past the radius at every
            # radius while |g^-1| > margin (in a factor of order 3 or more,
            # g^-1 can be the longer word)
            inverse = invert(g).word
            if len(inverse) <= window.margin:
                fix = "enlarge radius"
            elif len(g.word) > window.margin:
                fix = f"translation longer than the margin {window.margin}; raise the margin"
            else:
                fix = (f"translation's inverse {display_word(inverse)} longer than the "
                       f"margin {window.margin}; raise the margin")
            raise CertificationFailure(display_word(g.word),
                                       f"translate undecided inside the core; {fix}")
    for g, (moved, _) in translates:
        if moved & window.shell_mask:
            raise CertificationFailure(
                display_word(g.word),
                "symmetric difference touches the boundary shell; enlarge radius")
    return [moved for _, (moved, _) in translates]


def build_family(window: Window, base_set: int,
                 translations: Sequence[GroupElement]) -> VertexFamily:
    """Translate the base set by each element, certify each translate, and
    merge duplicate translates.

    Each pairwise difference (A + A*g) + (A + A*h) is the sum of two
    translates' ``moved`` sets, so each translate is certified once
    (``_certified``).  A certified ``moved`` set lies in the core, so two
    translates are one vertex exactly when those sets are equal; the first
    of each in translation order is kept, and the base vertex is the one
    that moves nothing.  The universe is the window's core, the ShortLex
    prefix of its keys, so the window's bitsets over key ids are already
    bitsets over the universe; its keys are spelled only where they are read.
    """
    if not any(g.is_identity() for g in translations):
        raise ValueError("translations must contain the identity (the base vertex)")
    kept: dict[int, GroupElement] = {}
    for g, moved in zip(translations, _certified(window, base_set, translations)):
        kept.setdefault(moved, g)
    vertices = [FamilyVertex(g, (base_set ^ moved) & window.core_mask,
                             f"A*{display_word(g.word)}")
                for moved, g in kept.items()]
    return VertexFamily(_KeyPrefix(window.graph, window._cut), vertices, list(kept).index(0),
                        window=window, base_set=base_set)


# --------------------------------------------------------------------------
# hypothesis checks


def hypothesis_report(window: Window, base_set: int, expected_k: Optional[SubgroupModel] = None
                      ) -> tuple[Optional[str], Optional[str], Optional[str]]:
    """Check the standing hypotheses on the base set over the window that a
    certified family does not already show.

    Left invariance holds structurally (the base set is a set of coset
    keys), and almost invariance is each translate's certified ``moved``
    set, which ``build_family`` checked.  Returns the properness witness
    (a shell-meeting heuristic: evidence, never proof), then the first
    expected-K generator undecided inside the core and the first one that
    moves the base set, as display words; each None when there is none.
    """
    undecided = moving = None
    for k in expected_k.generators if expected_k is not None else ():
        moved, unknown = window.translate(base_set, k)
        if undecided is None and unknown & window.core_mask:
            undecided = display_word(k.word)
        if moving is None and moved:
            moving = display_word(k.word)
    return _properness(window, base_set), undecided, moving


def _properness(window: Window, base_set: int) -> Optional[str]:
    """Why the base set or its complement misses a populated shell at
    distance margin..radius - margin, or there is no such shell; None when
    both meet every one."""
    if not base_set:
        return "base set is empty"
    if base_set.bit_count() == window.size:
        return "complement is empty"
    populated = False
    for level in range(window.margin, window.radius - window.margin + 1):
        lo, hi = window.level(level)
        if lo == hi:
            continue
        populated = True
        run = (base_set >> lo) & ((1 << (hi - lo)) - 1)
        if not run:
            return f"base set misses the distance-{level} shell"
        if run.bit_count() == hi - lo:
            return f"complement misses the distance-{level} shell"
    return None if populated else "no populated shells in the heuristic range"


# --------------------------------------------------------------------------
# stability re-checks


def _decided_depth(window: Window, base_spec: BaseSetSpec, base_set: int) -> int:
    """The longest key length, at most the spec's depth, at which the base
    set decides a key unlike its parent, or 0: exact, as every key at most
    depth <= radius long is in the window; depth when it is past the radius."""
    depth = base_spec.depth
    if depth > window.radius:
        return depth
    # the keys at most depth long, a prefix of the ids
    top = window.graph.level_end[depth]
    flags, parent = _flags(base_set & ((1 << top) - 1)).ljust(top, b"\0"), window.graph.parent
    for length in range(depth, 0, -1):
        lo, hi = window.level(length)
        if flags[lo:hi] != bytes(map(flags.__getitem__, parent[lo:hi])):
            return length
    return 0


def _core_bound(window: Window, base_spec: BaseSetSpec, base_set: int,
                translations: Sequence[GroupElement]) -> Optional[int]:
    """B = S + L, a key length that bounds every pairwise difference of the
    family at every radius; None when the bound does not apply to this
    window.

    S = max(D, d - 1) is the settled depth that ``_decide`` recorded for the
    base set, and L the longest translation word.  A walk of length at most
    L from a key longer than B stays in its hanging tree, so the key of k*g
    is the free reduction of k*g and shares k's first |k| - L >= d letters,
    and keys past length d are decided as their prefix of length d: k and
    k*g are decided alike.  Every A + A*g, and so every pairwise
    difference, lies in the keys at most B long.  None when the window
    recorded no settled depth for the base set (the group is not free, a
    live core coset has no key in the window, or the base set was not
    decided over it), when a rule is past the radius, or unless
    radius - margin >= B (the bound's keys are in the core) and
    radius >= B + L (every walk from them is decided).
    """
    settled = window._settled.get(base_set)
    if settled is None or base_spec.depth > window.radius:
        return None
    longest_word = max(len(g.word) for g in translations)
    bound = settled + longest_word
    if window.radius - window.margin < bound or window.radius < bound + longest_word:
        return None
    return bound


def radius_stability_report(window: Window, base_spec: BaseSetSpec,
                            translations: Sequence[GroupElement],
                            family: VertexFamily) -> Optional[str]:
    """Why a translate's difference A + A*g changes at radius + 2: the first
    such translation and its difference at both radii; None when none does.

    ``family`` is the family built over the window from base_spec and
    translations.  When ``_core_bound`` applies (a free group whose live
    core cosets are all in the window, radius - margin >= B and
    radius >= B + L), every difference already is the one at every larger
    radius, so nothing is grown or compared.  Otherwise
    ``_regrowth_report`` certifies the translates again at radius + 2 and
    compares; only there can the element cap refuse the check, with
    RadiusTooLarge.
    """
    if _core_bound(window, base_spec, family.base_set, translations) is not None:
        return None
    return _regrowth_report(window, base_spec, translations, family)


def _regrowth_report(window: Window, base_spec: BaseSetSpec,
                     translations: Sequence[GroupElement],
                     family: VertexFamily) -> Optional[str]:
    """Certify each translate again at radius + 2; the witness of the first
    translation, in translation order, whose difference A + A*g changes, or
    None.

    Every pairwise difference is the sum of two translates' ``moved`` sets,
    and the identity moves nothing, so the pairwise differences, and which
    translates merge, agree at both radii exactly when every ``moved`` set
    does.  The radius + 2 window grows the window's own graph by two
    layers, so the window's key ids are a prefix of the larger window's,
    its base set keeps the window's decisions, and the two radii's
    ``moved`` sets compare as bitsets.  RadiusTooLarge, before any work,
    when the radius + 2 ball is over the element cap; CertificationFailure
    when a translate is not certified at radius + 2.
    """
    big = window.extended(2)
    size = window.size
    small = bytearray(_flags(family.base_set)[:size].ljust(size, b"\0"))
    big_set = _decide(big, base_spec, small)
    for g, large in zip(translations, _certified(big, big_set, translations)):
        moved = window.translate(family.base_set, g)[0]
        if moved != large:
            return (f"difference for (1, {display_word(g.word)}) changed at radius + 2: "
                    f"{window.keys_of(moved)} vs {big.keys_of(large)}")
    return None
