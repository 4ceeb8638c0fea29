"""Diagrams of boxes, standard fillings, reading words, and compatibility checks.

A box is a (column, row) pair with both coordinates at least 1; row 1 is the
bottom row.  A diagram fixes a finite box set together with a reading order,
and a standard tableau fills the boxes bijectively with 1..n.  Descents,
ascents, and attacking status are all computed from the reading word, with
family membership deciding whether a swap of consecutive entries stays legal.

A family is stored as an integer array, one row of entries per member in
reading-word order, with one descent mask per member; its tableaux are built
only when read (for display, ``rect`` and witnesses).  The family's word
graph records descents and swaps for every member and generator, once, from
the array; the compatibility gate and the module builders read it, the
gate's verdicts are kept on the family, and the characteristics read the
histogram of descent masks.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import DomainError

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

    ``entries[i]`` is the entry of ``diagram.boxes[i]``.
    """

    diagram: Diagram
    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        n = self.diagram.n
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
    if not 1 <= i <= n - 1:
        raise DomainError(f"swap index {i} out of range for n={n}")
    return StandardTableau(tab.diagram, swap_values(tab.entries, i))


class AscentClass(enum.Enum):
    DESCENT = "descent"
    ATTACKING = "attacking"
    NONATTACKING = "nonattacking"


class Tableaux(Sequence):
    """Tableaux of one diagram whose entries are the rows of an int array.

    ``entries[k, i]`` is the entry of ``diagram.boxes[i]`` in row k, and
    element k is the tableau of row k, built when it is first read and kept
    (``built`` may supply some).  A view made by :meth:`reordered` lists the
    same tableaux in another order, reading them from its source.
    """

    __slots__ = ("diagram", "entries", "order", "_source", "_built")

    def __init__(self, diagram: Diagram, entries: np.ndarray, built=None):
        self.diagram = diagram
        self.entries = entries
        self.order = None
        self._source: Optional[Tableaux] = None
        self._built: Optional[dict[int, StandardTableau]] = built

    def reordered(self, order: np.ndarray) -> "Tableaux":
        """The view whose element j is element ``order[j]`` of this one."""
        view = Tableaux(self.diagram, self.entries)
        view.order, view._source = order, self
        return view

    def __len__(self) -> int:
        return len(self.entries if self.order is None else self.order)

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
            tab = self._built[row] = StandardTableau(self.diagram, tuple(self.entries[row].tolist()))
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

    Members are kept sorted by reading word, as the rows of the entry array
    ``members.entries``; a member's tableau is built only when it is read.
    ``members`` may be given as tableaux or as :class:`Tableaux` rows already
    in that order.  ``descent_masks[k]``, recorded by the enumerator, has
    bit i-1 set when i is a descent of member k; a family built from
    tableaux has none, and its descent histogram is read from the entries.
    Some permuted-variant constructions admit no fillings at all; the empty
    family is representable but rejected by the module builders.
    """

    diagram: Diagram
    members: Sequence[StandardTableau]
    family_tag: str
    kind: Optional[str] = None
    shape: Optional[tuple[int, ...]] = None
    sigma: Optional[tuple[int, ...]] = None
    descent_masks: Optional[tuple[int, ...]] = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.members, Tableaux):
            n = self.diagram.n
            members = sorted(self.members, key=lambda t: t.reading_word)
            for t in members:
                if t.diagram != self.diagram:
                    raise DomainError("family member on a different diagram")
            entries = np.array([t.entries for t in members], dtype=np.min_scalar_type(n))
            rows = Tableaux(self.diagram, entries.reshape(len(members), n), built=dict(enumerate(members)))
            object.__setattr__(self, "members", rows)

    @property
    def words(self) -> np.ndarray:
        """The members' reading words, one per row."""
        return self.members.entries[:, self.diagram.reading_positions]

    @property
    def descent_histogram(self) -> Counter:
        """How many members have each descent mask.  Not cached: a Counter
        per cached family costs more memory than counting again."""
        masks = self.descent_masks
        if masks is None:
            positions = _positions(self.words)
            bits = np.packbits(positions[:, :-1] > positions[:, 1:], axis=1, bitorder="little")
            masks = (int.from_bytes(row.tobytes(), "little") for row in bits)
        return Counter(masks)

    @cached_property
    def word_graph(self) -> "WordGraph":
        return _word_graph(self)

    # The gate verdicts, computed once per family and mode; builders and
    # direct callers of the gate share them.
    @cached_property
    def _ascent_gate(self) -> "CompatibilityResult":
        return _compatibility(self, "ascent")

    @cached_property
    def _descent_gate(self) -> "CompatibilityResult":
        return _compatibility(self, "descent")

    @cached_property
    def _entry_rows(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(tuple, self.members.entries.tolist()))

    @property
    def n(self) -> int:
        return self.diagram.n

    def __contains__(self, tab: StandardTableau) -> bool:
        return tab.diagram == self.diagram and tab.entries in self._entry_rows

    def __iter__(self) -> Iterator[StandardTableau]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _positions(words: np.ndarray) -> np.ndarray:
    """``positions[t, v - 1]`` is the reading position of the entry v in row t."""
    m, n = words.shape
    positions = np.empty((m, n), dtype=np.int16)
    positions[np.arange(m)[:, None], words - 1] = np.arange(n, dtype=np.int16)
    return positions


class WordGraph(NamedTuple):
    """A family's members in basis order and the swaps between them.

    ``positions[t, v - 1]`` is the reading position, from 0, of the entry v
    of ``basis[t]``.  For generator i, row i-1 of ``descent`` flags the
    members with a descent at i, and row i-1 of ``target`` holds the basis
    index of the member with i and i+1 exchanged, or -1 when that word is
    not in the family.
    """

    basis: Tableaux
    positions: np.ndarray  # (members, n) int16
    descent: np.ndarray  # (n - 1, members) bool
    target: np.ndarray  # (n - 1, members) int32


def _word_graph(family: TableauFamily) -> WordGraph:
    """Read the family's words once: the basis order, the descents, and
    every swap target, found by one sorted search over exact integer keys.

    Members share one diagram, so their entry positions name them, and
    exchanging the entries i and i+1 exchanges two columns of positions.
    Row t of positions is keyed by the integer whose base-n digit j is
    ``positions[t, j]``, so the swap at i adds the key delta
    ``(p[i] - p[i-1]) * (n^(i-1) - n^i)``; each swapped key is looked up
    among the sorted keys.  A key is below n^n, so it is an int64 when
    that fits and a Python integer otherwise: never rounded or hashed.
    """
    words = family.words.astype(np.int16)
    m, n = words.shape
    # Module-basis order: inversion count of the reading word descending,
    # ties by the word itself, which is the order of the members.
    inversion_counts = sum((words[:, p, None] > words[:, p + 1 :]).sum(axis=1) for p in range(n))
    order = np.argsort(-inversion_counts, kind="stable")
    positions = _positions(words[order])
    dtype = np.int64 if n**n < 2**63 else object
    radix = np.array([n**j for j in range(n)], dtype=dtype)
    keys = positions.astype(dtype) @ radix
    key_order = keys.argsort()
    sorted_keys = keys[key_order]
    steps = np.ascontiguousarray(np.diff(positions, axis=1).T)  # (n - 1, m): p[i] - p[i-1]
    # in place where possible: these (n - 1, m) arrays are the graph's peak memory
    probes = steps.astype(dtype)
    probes *= (radix[:-1] - radix[1:])[:, None]
    probes += keys
    at = np.searchsorted(sorted_keys, probes)
    np.minimum(at, m - 1, out=at)
    target = key_order.astype(np.int32)[at]
    target[sorted_keys[at] != probes] = -1
    return WordGraph(family.members.reordered(order), positions, steps < 0, target)


def classify_ascent(tab: StandardTableau, i: int, family: TableauFamily) -> AscentClass:
    """Descent / attacking ascent / nonattacking ascent of position i in tab.

    An ascent is attacking when exchanging i and i+1 exits the family.
    """
    if tab not in family:
        raise DomainError("tableau is not a member of the family")
    if not 1 <= i <= tab.diagram.n - 1:
        raise DomainError(f"index {i} out of range")
    if i in descent_set_tab(tab):
        return AscentClass.DESCENT
    if swap_entries(tab, i) in family:
        return AscentClass.NONATTACKING
    return AscentClass.ATTACKING


def ascent_positions(tab: StandardTableau, i: int) -> tuple[int, int]:
    """1-based reading positions (r, s) of i and i+1 for an ascent i."""
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


def _compatibility(family: TableauFamily, mode: str) -> CompatibilityResult:
    """Shared scan for ascent- and descent-compatibility.

    Tableaux are visited in module-basis order, generators in increasing
    order within each; the witness reports the tableau that first recorded
    the reading positions of the conflicting pair and the first tableau that
    disagrees with it on the attacking status.
    """
    graph = family.word_graph
    n = family.n
    pos = graph.positions.astype(np.int32)
    low, high = np.minimum(pos[:, :-1], pos[:, 1:]), np.maximum(pos[:, :-1], pos[:, 1:])
    # the scanned (tableau, generator) cells in scan order, each keyed by the
    # reading positions of i and i+1
    cells = np.flatnonzero((graph.descent if mode == "descent" else ~graph.descent).T)
    keys = (low * n + high).ravel()[cells]
    attacking = (graph.target < 0).T.ravel()[cells]
    first = np.full(n * n, cells.size)
    np.minimum.at(first, keys, np.arange(cells.size))
    conflicts = np.flatnonzero(attacking != attacking[first[keys]])
    if not conflicts.size:
        return CompatibilityResult(True, None)
    k = conflicts[0]
    r, s = divmod(int(keys[k]), n)
    earlier, later = cells[first[keys[k]]] // (n - 1), cells[k] // (n - 1)
    return CompatibilityResult(False, (graph.basis[earlier], graph.basis[later], r + 1, s + 1))


def is_ascent_compatible(family: TableauFamily) -> CompatibilityResult:
    """All members sharing an ascent at the same reading positions agree on
    its attacking status.  The verdict is computed once per family."""
    return family._ascent_gate


def is_descent_compatible(family: TableauFamily) -> CompatibilityResult:
    """Same as ascent-compatibility with descents in place of ascents."""
    return family._descent_gate


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
