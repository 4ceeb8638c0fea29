"""Diagrams of boxes, standard fillings, reading words, and compatibility checks.

A box is a (column, row) pair with both coordinates at least 1; row 1 is the
bottom row.  A diagram fixes a finite box set together with a reading order,
and a standard tableau fills the boxes bijectively with 1..n.  Descents,
ascents, and attacking status are all computed from the reading word, with
family membership deciding whether a swap of consecutive entries stays legal.

A family is stored as its word array, one reading word per member in
reading-word order, with one descent mask per member, recorded by the
enumerator or read off the reading words of a caller's tableaux; its
tableaux are built off their words only when read (for display, ``rect``
and witnesses).
The family's word set records the basis order and, for every member and
generator, the descent and the swap, in four read-only arrays.  It depends
only on the set of reading words, so it is built once per word set and
shared by every family with those words; the module builders and the gate
read it, and the characteristics read the histogram of descent masks.
Everything else that the word set determines, both gate scans included,
is memoised on it weakly (:func:`word_set_memo`).
"""

from __future__ import annotations

import enum
import weakref
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import DomainError, integer

Box = tuple[int, int]  # (column, row)
_row_major = itemgetter(1, 0)  # sort key: row, then column


@dataclass(frozen=True)
class Diagram:
    """A finite set of boxes with a fixed reading order.

    ``boxes`` is kept sorted by (row, column); ``reading_order`` is a
    permutation of ``boxes``.  ``box_index`` maps each box to its index in
    ``boxes``, and ``reading_positions`` lists the index of the box read at
    each position.
    """

    boxes: tuple[Box, ...]
    reading_order: tuple[Box, ...]

    def __post_init__(self):
        boxes = tuple(sorted(set(self.boxes), key=_row_major))
        if len(boxes) != len(self.boxes):
            raise DomainError("duplicate boxes in diagram")
        for c, r in boxes:
            if c < 1 or r < 1:
                raise DomainError(f"box coordinates must be >= 1, got {(c, r)}")
        if sorted(self.reading_order, key=_row_major) != list(boxes):
            raise DomainError("reading order is not a permutation of the boxes")
        index = {b: i for i, b in enumerate(boxes)}
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "reading_order", tuple(self.reading_order))
        object.__setattr__(self, "box_index", index)
        object.__setattr__(self, "reading_positions", tuple(index[b] for b in self.reading_order))

    @property
    def n(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class StandardTableau:
    """A bijective filling of a diagram with 1..n.

    ``entries[i]`` is the entry of ``diagram.boxes[i]``, a Python int.
    """

    diagram: Diagram
    entries: tuple[int, ...]

    def __post_init__(self):
        entries, n = tuple(self.entries), self.diagram.n
        if set(map(type, entries)) - {int}:  # exact ints pass as they are
            entries = tuple(integer(e, f"entries {entries} are not integers in 1..{n}", 1, n) for e in entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise DomainError(f"entries {entries} are not a bijection onto 1..{n}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_box_map(cls, diagram: Diagram, mapping: dict[Box, int]) -> "StandardTableau":
        return cls(diagram, tuple(mapping[b] for b in diagram.boxes))

    @cached_property
    def reading_word(self) -> tuple[int, ...]:
        return tuple(self.entries[i] for i in self.diagram.reading_positions)

    def entry_at(self, box: Box) -> int:
        return self.entries[self.diagram.box_index[box]]

    def box_map(self) -> dict[Box, int]:
        return {b: e for b, e in zip(self.diagram.boxes, self.entries)}


def reading_word(tab: StandardTableau) -> tuple[int, ...]:
    """Entries listed along the diagram's reading order."""
    return tab.reading_word


def inversions(word: Sequence[int]) -> int:
    """Number of pairs read in decreasing order."""
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def word_descents(word: Sequence[int]) -> frozenset[int]:
    """Values i that appear after i+1 in the word."""
    pos = {v: p for p, v in enumerate(word)}
    return frozenset(i for i in range(1, len(word)) if pos[i] > pos[i + 1])


def descent_set_tab(tab: StandardTableau) -> frozenset[int]:
    """Values i that appear after i+1 in the reading word."""
    return word_descents(tab.reading_word)


def swap_values(seq: Sequence[int], i: int) -> tuple[int, ...]:
    """Exchange the values i and i+1; on a one-line permutation this is left
    multiplication by the transposition (i, i+1)."""
    out = list(seq)
    a, b = out.index(i), out.index(i + 1)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def swap_entries(tab: StandardTableau, i: int) -> StandardTableau:
    """Exchange the entries i and i+1."""
    n = tab.diagram.n
    i = integer(i, f"swap index {i!r} out of range for n={n}", 1, n - 1)
    return StandardTableau(tab.diagram, swap_values(tab.entries, i))


class AscentClass(enum.Enum):
    DESCENT = "descent"
    ATTACKING = "attacking"
    NONATTACKING = "nonattacking"


class Tableaux(Sequence):
    """Tableaux of one diagram whose reading words are the rows of an int array.

    ``words[k]`` is the reading word of element k, the tableau built from it
    when it is first read and kept (``built`` may supply some).  A view made
    by :meth:`reordered` lists the same tableaux in another order, reading
    them from its source.
    """

    __slots__ = ("diagram", "words", "order", "_source", "_built")

    def __init__(self, diagram: Diagram, words: np.ndarray, built=None):
        self.diagram = diagram
        self.words = words
        self.order = None
        self._source: Optional[Tableaux] = None
        self._built: Optional[dict[int, StandardTableau]] = built

    def reordered(self, order: np.ndarray) -> "Tableaux":
        """The view whose element j is element ``order[j]`` of this one."""
        view = Tableaux(self.diagram, self.words)
        view.order, view._source = order, self
        return view

    def __len__(self) -> int:
        return len(self.words if self.order is None else self.order)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self[k] for k in range(len(self))[j])
        row = range(len(self))[j]
        if self.order is not None:
            return self._source[int(self.order[row])]
        if self._built is None:
            self._built = {}
        tab = self._built.get(row)
        if tab is None:
            word = self.words[row].tolist()
            tab = StandardTableau.from_box_map(self.diagram, dict(zip(self.diagram.reading_order, word)))
            self._built[row] = tab
        return tab

    def __iter__(self) -> Iterator[StandardTableau]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class TableauFamily:
    """A set of standard fillings of one diagram, with a descriptive tag.

    Members are kept sorted by reading word, as the rows of the word array
    ``words``; a member's tableau is built only when it is read.
    ``descent_masks[k]`` has bit i-1 set when i is a descent of member k.
    A family comes by one of two routes.  Rows: a plain :class:`Tableaux`
    word array on the family's diagram with one descent mask per row,
    trusted to be distinct and in reading-word order, as ``build_family``
    makes them: by enumeration, by reading a sit, set or syct family
    backwards for srit, sret and syrt, or by complementing a syrt family
    for srct; rows out of order raise when the word set is first read.
    Tableaux: any fillings, sorted here, with each mask read off its
    reading word; a member listed twice raises.  Rows without masks, or
    masks with tableaux, raise :class:`DomainError`.
    Some permuted-variant constructions admit no fillings at all; the empty
    family is representable but rejected by the module builders.
    """

    diagram: Diagram
    members: Sequence[StandardTableau]
    family_tag: str
    kind: Optional[str] = None
    shape: Optional[tuple[int, ...]] = None
    sigma: Optional[tuple[int, ...]] = None
    descent_masks: tuple[int, ...] = field(default=None, repr=False)

    def __post_init__(self):
        masks = self.descent_masks
        if isinstance(self.members, Tableaux):
            if self.members.order is not None or self.members.diagram != self.diagram:
                raise DomainError("family rows must be a Tableaux array on the family's diagram")
            if masks is None:
                raise DomainError("family rows come with one descent mask per row")
            if len(masks) != len(self.members):
                raise DomainError(f"{len(masks)} descent masks for {len(self.members)} members")
        elif masks is not None:
            raise DomainError("descent masks come only with Tableaux rows")
        else:
            n = self.diagram.n
            members = sorted(self.members, key=lambda t: t.reading_word)
            for t in members:
                if t.diagram != self.diagram:
                    raise DomainError("family member on a different diagram")
            for t, u in zip(members, members[1:]):
                if t.reading_word == u.reading_word:
                    raise DomainError(f"repeated family member with reading word {t.reading_word}")
            words = np.array([t.reading_word for t in members], dtype=np.min_scalar_type(n))
            rows = Tableaux(self.diagram, words.reshape(len(members), n), built=dict(enumerate(members)))
            object.__setattr__(self, "members", rows)
            masks = tuple(sum(1 << (i - 1) for i in word_descents(t.reading_word)) for t in members)
            object.__setattr__(self, "descent_masks", masks)

    @property
    def words(self) -> np.ndarray:
        """The members' reading words, one per row."""
        return self.members.words

    @property
    def descent_histogram(self) -> Counter:
        """How many members have each descent mask.  Not cached: a Counter
        per cached family costs more memory than counting again."""
        return Counter(self.descent_masks)

    @cached_property
    def word_set(self) -> "WordSet":
        return _interned_word_set(self.words)

    @cached_property
    def basis(self) -> Tableaux:
        """The members in module-basis order."""
        return self.members.reordered(self.word_set.order)

    @cached_property
    def _basis_indices(self) -> dict[tuple[int, ...], int]:
        rows = self.words[self.word_set.order].tolist()
        return {tuple(row): t for t, row in enumerate(rows)}

    def basis_index(self, tab: StandardTableau) -> Optional[int]:
        """The basis index of a member, or None for anything else."""
        if not isinstance(tab, StandardTableau) or tab.diagram != self.diagram:
            return None
        return self._basis_indices.get(tab.reading_word)

    @property
    def n(self) -> int:
        return self.diagram.n

    def __contains__(self, tab: StandardTableau) -> bool:
        return self.basis_index(tab) is not None

    def __iter__(self) -> Iterator[StandardTableau]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def family_of(obj) -> TableauFamily:
    """A family, or the family of a module rep; DomainError for anything
    else."""
    family = obj if isinstance(obj, TableauFamily) else getattr(obj, "family", None)
    if not isinstance(family, TableauFamily):
        raise DomainError(f"{obj!r} is neither a tableau family nor a module of one")
    return family


class WordSet:
    """The word graph of a set of reading words, all arrays read-only.

    Basis element t is member ``order[t]``, and ``positions[t, v - 1]``, in
    the reading words' dtype, is the reading position, from 0, of its entry
    v.  For generator i, row i-1 of the (n - 1, members) bool ``descent``
    flags the basis elements with a descent at i, and row i-1 of the int32
    ``target`` holds the basis index of the word with i and i+1 exchanged,
    or -1 when that word is not in the set.  Families with the same reading
    words share one, so it hashes by identity; what it determines beyond
    these arrays is memoised on it weakly (:func:`word_set_memo`).
    """

    __slots__ = ("order", "positions", "descent", "target", "__weakref__")

    def __init__(self, order, positions, descent, target):
        for array in (order, positions, descent, target):
            array.flags.writeable = False
        self.order, self.positions, self.descent, self.target = order, positions, descent, target

    @property
    def n(self) -> int:
        return self.positions.shape[1]


def word_set_memo(function):
    """Memoise ``function(words, *key)`` per word set and key, holding each
    word set weakly: its entries go when the last family holding it does.
    As with an ``lru_cache``, ``cache_clear()`` empties the memo and
    ``__wrapped__`` is the plain function."""
    memo: "dict[tuple, weakref.WeakKeyDictionary[WordSet, object]]" = {}

    @wraps(function)
    def memoised(words: WordSet, *key):
        kept = memo.get(key)
        if kept is None:
            kept = memo[key] = weakref.WeakKeyDictionary()
        try:
            return kept[words]
        except KeyError:
            found = kept[words] = function(words, *key)
            return found

    memoised.cache_clear = memo.clear
    return memoised


# The word sets some family holds, keyed exactly by the reading-word array.
_word_sets: "weakref.WeakValueDictionary[tuple, WordSet]" = weakref.WeakValueDictionary()


def _interned_word_set(words: np.ndarray) -> WordSet:
    """The shared word set of a family's reading words, built on first use."""
    key = (*words.shape, words.dtype, words.tobytes())
    found = _word_sets.get(key)
    if found is None:
        found = _word_sets[key] = _word_set(words)
    return found


# Swap targets are searched a block of generators at a time, and reading
# positions compared a block of position pairs at a time, each block of at
# most this many cells (but at least one generator or pair).
_SEARCH_CELLS = 1 << 15


@lru_cache(maxsize=None)
def _reading_constants(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reading positions p < q of every pair, as two index arrays, and
    the place value n^(n-1-p) of each position p, in the key dtype; all
    read-only."""
    dtype = np.int64 if n**n < 2**63 else object
    constants = (*np.triu_indices(n, 1), np.array([n**p for p in range(n - 1, -1, -1)], dtype=dtype))
    for array in constants:
        array.flags.writeable = False
    return constants


def _word_set(words: np.ndarray) -> WordSet:
    """Read a set of words, one per row in increasing order, once: the basis
    order, the descents, and every swap target, found by a sorted search
    over exact integer keys.

    The basis order sorts by inversion count, descending, and the counts
    come from one comparison of the transposed words at the position pairs
    p < q, reduced in int32, a block of pairs at a time.  Each row is keyed
    by its reading word read in base n, first position most significant,
    digit ``w[p] - 1``: the rows come in reading-word order, so the keys are
    already increasing, which is checked once.  Exchanging the values i and
    i+1, at positions a and b, adds ``n^(n-1-a) - n^(n-1-b)``.  Each block
    of generators searches its probes in row order, nearly sorted, so each
    search starts near the last, and is written into basis order, a miss as
    -1.  A key is below n^n: an int64 when that fits and a Python integer
    otherwise, never rounded or hashed.  The positions are kept in the
    words' dtype, which holds 0..n-1: the word set's key already costs a
    copy of the words.
    """
    m, n = words.shape
    # Module-basis order: inversion count of the reading word descending,
    # ties by the word itself, which is the order of the rows.
    columns = np.ascontiguousarray(words.T)
    earlier, later, radix = _reading_constants(n)
    inversion_counts = np.zeros(m, dtype=np.int32)
    block = max(1, _SEARCH_CELLS // max(m, 1))
    for first in range(0, len(earlier), block):
        pairs = slice(first, first + block)
        higher = columns.take(earlier[pairs], axis=0) > columns.take(later[pairs], axis=0)
        inversion_counts += higher.sum(axis=0, dtype=np.int32)
    order = np.argsort(-inversion_counts, kind="stable")
    keys = (words - 1).astype(radix.dtype) @ radix
    if not (keys[1:] > keys[:-1]).all():
        raise DomainError("word set rows must be distinct and in reading-word order")
    # spots[v - 1, r]: the reading position of v in row r
    spots = np.empty((n, m), dtype=np.int16)
    spots[columns - 1, np.arange(m)] = np.arange(n, dtype=np.int16)[:, None]
    # rank[r]: the basis index of row r; rank[m] = -1 is a miss
    rank = np.empty(m + 1, dtype=np.int32)
    rank[order] = np.arange(m, dtype=np.int32)
    rank[m] = -1
    target = np.empty((n - 1, m), dtype=np.int32)
    for first in range(0, n - 1, block):
        weights = radix[spots[first : first + block + 1]]
        probes = weights[:-1] - weights[1:]
        probes += keys
        at = np.searchsorted(keys, probes)
        np.minimum(at, m - 1, out=at)
        at[keys.take(at) != probes] = m
        target[first : first + block] = rank.take(at.take(order, axis=1))
    spots = spots.take(order, axis=1)
    return WordSet(order, spots.T.astype(words.dtype, order="C"), spots[1:] < spots[:-1], target)


def classify_ascent(tab: StandardTableau, i: int, family: TableauFamily) -> AscentClass:
    """Descent / attacking ascent / nonattacking ascent of position i in tab.

    An ascent is attacking when exchanging i and i+1 exits the family.
    """
    if tab not in family:
        raise DomainError("tableau is not a member of the family")
    i = integer(i, f"index {i!r} out of range", 1, tab.diagram.n - 1)
    if i in descent_set_tab(tab):
        return AscentClass.DESCENT
    if swap_entries(tab, i) in family:
        return AscentClass.NONATTACKING
    return AscentClass.ATTACKING


def ascent_positions(tab: StandardTableau, i: int) -> tuple[int, int]:
    """1-based reading positions (r, s) of i and i+1 for an ascent i."""
    i = integer(i, f"index {i!r} out of range", 1, tab.diagram.n - 1)
    if i in descent_set_tab(tab):
        raise DomainError(f"{i} is a descent, not an ascent")
    word = tab.reading_word
    r = word.index(i) + 1
    s = word.index(i + 1) + 1
    return (r, s)


class CompatibilityResult(NamedTuple):
    ok: bool
    witness: Optional[tuple[StandardTableau, StandardTableau, int, int]]

    def __bool__(self) -> bool:
        return self.ok


# Every passing scan and verdict is the same, so they share one object.
_PASSES = (True, -1, -1, 0, 0)
_COMPATIBLE = CompatibilityResult(True, None)


def _compatibility(family: TableauFamily, mode: str) -> CompatibilityResult:
    """Shared scan for ascent- and descent-compatibility.

    The scan reads only the word set and runs once per word set and mode
    (see :func:`_gate_scan`); the witness tableaux come from this family's
    basis.
    """
    ok, earlier, later, r, s = _gate_scan(family.word_set, mode)
    if ok:
        return _COMPATIBLE
    basis = family.basis
    return CompatibilityResult(False, (basis[earlier], basis[later], r, s))


@word_set_memo
def _gate_scan(words: WordSet, mode: str) -> tuple[bool, int, int, int, int]:
    """``(ok, earlier, later, r, s)``, once per word set and mode: whether
    the word set passes the gate in the mode, and if not, the basis indices
    and 1-based reading positions of the witness.

    Members are visited in basis order, generators in increasing order
    within each; the witness reports the member that first recorded the
    reading positions (r, s) of the conflicting pair and the first member
    that disagrees with it on the attacking status.
    """
    n, pos = words.n, words.positions
    # each (member, generator) cell keyed by the reading positions of i and
    # i+1, lower * n + higher, in the narrowest dtype that holds n * n and
    # the positions
    keys = np.minimum(pos[:, :-1], pos[:, 1:]).astype(np.promote_types(pos.dtype, np.min_scalar_type(n * n)))
    keys *= n
    keys += np.maximum(pos[:, :-1], pos[:, 1:])
    # the scanned cells in scan order
    cells = np.flatnonzero((words.descent if mode == "descent" else ~words.descent).T)
    keys = keys.ravel()[cells]
    attacking = (words.target < 0).T.ravel()[cells]
    first = np.full(n * n, cells.size)
    np.minimum.at(first, keys, np.arange(cells.size))
    conflicts = np.flatnonzero(attacking != attacking[first[keys]])
    if not conflicts.size:
        return _PASSES
    k = conflicts[0]
    r, s = divmod(int(keys[k]), n)
    return False, int(cells[first[keys[k]]] // (n - 1)), int(cells[k] // (n - 1)), r + 1, s + 1


def is_ascent_compatible(family: TableauFamily) -> CompatibilityResult:
    """All members sharing an ascent at the same reading positions agree on
    its attacking status."""
    return _compatibility(family, "ascent")


def is_descent_compatible(family: TableauFamily) -> CompatibilityResult:
    """Same as ascent-compatibility with descents in place of ascents."""
    return _compatibility(family, "descent")


def render_tableau(tab: StandardTableau, marks: frozenset[int] = frozenset()) -> str:
    """ASCII rendering, top row first; marked entries carry a prime."""
    cells = {}
    width = 1
    for box, entry in zip(tab.diagram.boxes, tab.entries):
        text = str(entry) + ("'" if entry in marks else "")
        cells[box] = text
        width = max(width, len(text))
    max_col = max(c for c, _ in tab.diagram.boxes)
    max_row = max(r for _, r in tab.diagram.boxes)
    lines = []
    for r in range(max_row, 0, -1):
        row_cells = [cells.get((c, r), "").rjust(width) for c in range(1, max_col + 1)]
        lines.append(" ".join(row_cells).rstrip())
    return "\n".join(lines)


def tableau_to_record(tab: StandardTableau) -> dict:
    """Structured record: cell list plus the reading order."""
    return {
        "cells": [
            {"column": c, "row": r, "entry": e}
            for (c, r), e in zip(tab.diagram.boxes, tab.entries)
        ],
        "reading_order": [{"column": c, "row": r} for (c, r) in tab.diagram.reading_order],
    }


def tableau_from_record(record: dict) -> StandardTableau:
    boxes = tuple((cell["column"], cell["row"]) for cell in record["cells"])
    order = tuple((b["column"], b["row"]) for b in record["reading_order"])
    diagram = Diagram(boxes, order)
    mapping = {(cell["column"], cell["row"]): cell["entry"] for cell in record["cells"]}
    return StandardTableau.from_box_map(diagram, mapping)
