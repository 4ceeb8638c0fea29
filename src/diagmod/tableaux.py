"""Diagrams of boxes, standard fillings, reading words, and compatibility checks.

A box is a (column, row) pair with both coordinates at least 1; row 1 is the
bottom row.  A diagram fixes a finite box set together with a reading order,
and a standard tableau fills the boxes bijectively with 1..n.  Descents,
ascents, and attacking status are all computed from the reading word, with
family membership deciding whether a swap of consecutive entries stays legal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import DomainError

Box = tuple[int, int]  # (column, row)


@dataclass(frozen=True)
class Diagram:
    """A finite set of boxes with a fixed reading order.

    ``boxes`` is kept sorted by (row, column); ``reading_order`` is a
    permutation of ``boxes``.
    """

    boxes: tuple[Box, ...]
    reading_order: tuple[Box, ...]

    def __post_init__(self):
        boxes = tuple(sorted(set(self.boxes), key=lambda b: (b[1], b[0])))
        if len(boxes) != len(self.boxes):
            raise DomainError("duplicate boxes in diagram")
        for c, r in boxes:
            if c < 1 or r < 1:
                raise DomainError(f"box coordinates must be >= 1, got {(c, r)}")
        if sorted(self.reading_order, key=lambda b: (b[1], b[0])) != list(boxes):
            raise DomainError("reading order is not a permutation of the boxes")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "reading_order", tuple(self.reading_order))

    @property
    def n(self) -> int:
        return len(self.boxes)

    @cached_property
    def box_index(self) -> dict[Box, int]:
        return {b: i for i, b in enumerate(self.boxes)}

    @cached_property
    def reading_positions(self) -> tuple[int, ...]:
        """Index into ``boxes`` of the box read at each position."""
        return tuple(self.box_index[b] for b in self.reading_order)


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

    @cached_property
    def box_of(self) -> dict[int, Box]:
        return {e: b for b, e in zip(self.diagram.boxes, self.entries)}

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


def descent_set_tab(tab: StandardTableau) -> frozenset[int]:
    """Values i that appear after i+1 in the reading word."""
    word = tab.reading_word
    pos = {v: p for p, v in enumerate(word)}
    return frozenset(i for i in range(1, len(word)) if pos[i] > pos[i + 1])


def swap_entries(tab: StandardTableau, i: int) -> StandardTableau:
    """Exchange the entries i and i+1."""
    n = tab.diagram.n
    if not 1 <= i <= n - 1:
        raise DomainError(f"swap index {i} out of range for n={n}")
    entries = list(tab.entries)
    a, b = entries.index(i), entries.index(i + 1)
    entries[a], entries[b] = entries[b], entries[a]
    return StandardTableau(tab.diagram, tuple(entries))


class AscentClass(enum.Enum):
    DESCENT = "descent"
    ATTACKING = "attacking"
    NONATTACKING = "nonattacking"


@dataclass(frozen=True)
class TableauFamily:
    """A set of standard fillings of one diagram, with a descriptive tag.

    Members are kept sorted by reading word.  Some permuted-variant
    constructions admit no fillings at all; the empty family is representable
    but rejected by the module builders.
    """

    diagram: Diagram
    members: tuple[StandardTableau, ...]
    family_tag: str
    kind: Optional[str] = None
    shape: Optional[tuple[int, ...]] = None
    sigma: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        members = tuple(sorted(self.members, key=lambda t: t.reading_word))
        for t in members:
            if t.diagram != self.diagram:
                raise DomainError("family member on a different diagram")
        object.__setattr__(self, "members", members)

    @cached_property
    def member_set(self) -> frozenset[StandardTableau]:
        return frozenset(self.members)

    @property
    def n(self) -> int:
        return self.diagram.n

    def __contains__(self, tab: StandardTableau) -> bool:
        return tab in self.member_set

    def __iter__(self) -> Iterator[StandardTableau]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


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

    Tableaux are visited in module-basis order (inversion count of the
    reading word descending, ties by reading word); the witness reports the
    first recorded tableau and the first conflicting one.
    """
    statuses: dict[tuple[int, int], tuple[bool, StandardTableau]] = {}
    n = family.n
    scan = sorted(family.members, key=lambda t: (-inversions(t.reading_word), t.reading_word))
    for tab in scan:
        word = tab.reading_word
        pos = {v: p + 1 for p, v in enumerate(word)}
        des = descent_set_tab(tab)
        for i in range(1, n):
            is_descent = i in des
            if mode == "ascent" and is_descent:
                continue
            if mode == "descent" and not is_descent:
                continue
            pair = tuple(sorted((pos[i], pos[i + 1])))
            attacking = swap_entries(tab, i) not in family
            if pair in statuses:
                prev_attacking, prev_tab = statuses[pair]
                if prev_attacking != attacking:
                    return CompatibilityResult(False, (prev_tab, tab, pair[0], pair[1]))
            else:
                statuses[pair] = (attacking, tab)
    return CompatibilityResult(True, None)


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
