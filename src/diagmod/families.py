"""Constructors for the built-in tableau families.

Each family kind but the views bundles a diagram builder, a reading order,
and a membership rule: a box precedence order plus, for some kinds, the
triple or prefix-peak rules, compiled once per (kind, shape, sigma) to bit
masks over the boxes.  Enumeration places the entries 1..n one level at a
time over the mask of filled boxes, so only legal fillings are ever
generated.  The partial fillings that reach the same search state are
merged and extended together, as integers that carry each member's reading
word and descent mask.  A family comes out as an entry array sorted by
reading word with its descent masks; tableau objects are built only when a
member is read.  Reversing the reading order keeps the fillings, and i is
a descent of a word exactly when it is an ascent of the word reversed: so
the views srit, sret and syrt are their twins' rows re-sorted by the
reversed words, with the descent masks complemented.

Row 1 is the bottom row throughout.  Kinds:

    spct   rows of a peak composition; rows increase left-right, first column
           increases upward, and every prefix of entries occupies the diagram
           of a peak composition; read columns bottom-up, left to right.
    syct   composition rows; rows increase, first column increases upward,
           triple rule (an entry a with b strictly below-right of it forces
           the box right of a to exist and hold a value below b); read the
           first column top-down then later columns bottom-up, left to right.
    spyct  syct members whose entry prefixes occupy peak-composition diagrams.
    ssht   shifted rows of a strict partition; rows and columns increase;
           read rows left-right, top row first.
    syt    partition rows; rows and columns increase; read rows left-right,
           top row first.
    sit    composition rows; rows increase, first column increases; read rows
           left-right, top row first.
    srit   view: sit read backwards, rows right-left, bottom row first.
    set    composition rows; rows and all columns increase; read as sit.
    sret   view: set read backwards, as srit.
    syrt   view: syct read backwards, columns top-down from the rightmost
           column leftwards, first column last and bottom-up.
    srct   view: the syrt fillings of the reversed shape, entry e made n+1-e
           and row r made row l+1-r for l rows; read columns bottom-up from
           the rightmost column leftwards, first column last and top-down.
    rib    ribbon rows (each row starts above the end of the one below);
           rows increase left-right, columns increase downward; read rows
           left-right, bottom row first.

srct, syrt and syct admit permuted variants: the first-column entries follow
the relative order of a permutation sigma of the rows instead of increasing,
and the first column is read in sigma-rank order (reversed for srct/syct).
Some (shape, sigma) pairs admit no fillings; the resulting family is empty.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .compositions import (
    Composition,
    check_composition,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_peak_compositions,
    enumerate_strict_partitions,
    format_composition,
    is_partition,
    is_peak_composition,
    is_strict_partition,
)
from .errors import DomainError, integer
from .hecke import HAT, PI
from .tableaux import Box, Diagram, StandardTableau, TableauFamily, Tableaux


class FamilyKind(str, enum.Enum):
    SPCT = "spct"
    SYCT = "syct"
    SPYCT = "spyct"
    SSHT = "ssht"
    SYT = "syt"
    SIT = "sit"
    SRIT = "srit"
    SET = "set"
    SRET = "sret"
    SRCT = "srct"
    SYRT = "syrt"
    RIB = "rib"

    def __str__(self) -> str:
        return self.value


# Kinds whose module convention follows the sign-flipped generators.
NATIVE_CONVENTION: dict[FamilyKind, str] = {
    FamilyKind.SPCT: PI,
    FamilyKind.SYCT: PI,
    FamilyKind.SPYCT: PI,
    FamilyKind.SSHT: PI,
    FamilyKind.SYT: PI,
    FamilyKind.RIB: PI,
    FamilyKind.SIT: HAT,
    FamilyKind.SRIT: HAT,
    FamilyKind.SET: HAT,
    FamilyKind.SRET: HAT,
    FamilyKind.SRCT: HAT,
    FamilyKind.SYRT: HAT,
}

SIGMA_KINDS = frozenset({FamilyKind.SRCT, FamilyKind.SYRT, FamilyKind.SYCT})


# ---------------------------------------------------------------------------
# diagrams


@lru_cache(maxsize=None)
def composition_diagram(alpha: Composition) -> tuple[Box, ...]:
    """Left-justified rows: row r holds alpha[r-1] boxes starting in column 1."""
    return tuple((c, r) for r, part in enumerate(alpha, start=1) for c in range(1, part + 1))


@lru_cache(maxsize=None)
def shifted_diagram(lam: Composition) -> tuple[Box, ...]:
    """Row r shifted r-1 columns rightwards."""
    return tuple((c, r) for r, part in enumerate(lam, start=1) for c in range(r, r + part))


@lru_cache(maxsize=None)
def ribbon_diagram(alpha: Composition) -> tuple[Box, ...]:
    """Each row starts in the column where the row below ends."""
    boxes = []
    start = 1
    for r, part in enumerate(alpha, start=1):
        boxes.extend((c, r) for c in range(start, start + part))
        start = start + part - 1
    return tuple(boxes)


@lru_cache(maxsize=None)
def _diagram(boxes: tuple[Box, ...], reading: tuple[Box, ...]) -> Diagram:
    """The one diagram of its boxes and reading order, shared by every
    family built on them."""
    return Diagram(boxes, reading)


def single_row_diagram(n: int) -> Diagram:
    boxes = tuple((c, 1) for c in range(1, n + 1))
    return _diagram(boxes, boxes)


# ---------------------------------------------------------------------------
# reading orders


def _sigma_inverse(sigma: tuple[int, ...]) -> list[int]:
    inv = [0] * len(sigma)
    for row, rank in enumerate(sigma, start=1):
        inv[rank - 1] = row
    return inv


def _read_columns_lr_bottom_up(boxes: Iterable[Box], sigma=None) -> tuple[Box, ...]:
    return tuple(sorted(boxes, key=lambda b: (b[0], b[1])))


def _read_rows_top_down(boxes: Iterable[Box], sigma=None) -> tuple[Box, ...]:
    return tuple(sorted(boxes, key=lambda b: (-b[1], b[0])))


def _read_rows_bottom_up_lr(boxes: Iterable[Box], sigma=None) -> tuple[Box, ...]:
    return tuple(sorted(boxes, key=lambda b: (b[1], b[0])))


def _read_syct(boxes: Iterable[Box], sigma: tuple[int, ...]) -> tuple[Box, ...]:
    """The first column in decreasing sigma rank, then the later columns
    bottom-up, left to right, as the objects of ``boxes``."""
    first = {b[1]: b for b in boxes if b[0] == 1}
    rest = sorted((b for b in boxes if b[0] > 1), key=lambda b: (b[0], b[1]))
    return tuple([first[r] for r in reversed(_sigma_inverse(sigma))] + rest)


# ---------------------------------------------------------------------------
# membership rules: precedence edges plus the triple and prefix-shape rules


def _row_edges(boxes: tuple[Box, ...]) -> list[tuple[Box, Box]]:
    """Entries increase from left to right along each row; ``boxes`` runs
    through each row left to right."""
    return [(a, b) for a, b in zip(boxes, boxes[1:]) if a[1] == b[1] and a[0] + 1 == b[0]]


def _column_edges_up(boxes: tuple[Box, ...]) -> list[tuple[Box, Box]]:
    """Entries increase from bottom to top along each column (consecutive
    present boxes; columns may have gaps for general composition shapes)."""
    ordered = sorted(boxes)
    return [(a, b) for a, b in zip(ordered, ordered[1:]) if a[0] == b[0]]


def _column_edges_down(boxes: tuple[Box, ...]) -> list[tuple[Box, Box]]:
    """Entries increase from top to bottom along each column (ribbons)."""
    return [(b, a) for a, b in _column_edges_up(boxes)]


def _first_column_edges(nrows: int, sigma: tuple[int, ...]) -> list[tuple[Box, Box]]:
    """First-column entries follow the relative order of sigma, bottom to top."""
    inv = _sigma_inverse(sigma)
    return [((1, inv[p]), (1, inv[p + 1])) for p in range(nrows - 1)]


# The rules beyond the precedence order, each checked as an entry is placed.
# triple: an entry a with b strictly below-right of it forces the box right of
# a to exist and hold a value below b, so a box (c, r') may be filled only
# once each filled (c-1, r) with r > r' has (c, r) filled.
TRIPLE = "triple"
# prefix peak: after each placement the occupied row counts form the diagram
# of a peak composition, so a row may start only on a row below holding at
# least 2 entries.
PREFIX_PEAK = "prefix peak"


class _Rules(NamedTuple):
    """A kind's membership rules compiled for one (shape, sigma), on box
    indices into ``Diagram.boxes``, which run through the rows bottom to top
    and each row left to right, so the box right of box k is box k + 1.

    The precedence order is ``start``, the mask of the boxes with no
    predecessor, and ``unlocks[a]``, a (bit, predecessor mask) pair for each
    box with a among its predecessors: that box may be filled once its
    predecessor mask is.  For a box b = (c, r'):

    - ``triples[b]`` (triple rule) is the (trigger, required) masks of the
      boxes (c-1, r) and (c, r) with r > r'; b may be filled only if the
      right neighbour of each filled trigger is a filled required box;
    - ``rows[b]`` (prefix-peak rule) is the masks of b's row and the row
      below it;
    - ``reading_pos[b]`` is the reading position of b.

    Rules a kind does not use are None.
    """

    start: int
    unlocks: tuple[tuple[tuple[int, int], ...], ...]
    triples: tuple[Optional[tuple[int, int]], ...]
    rows: tuple[Optional[tuple[int, int]], ...]
    reading_pos: tuple[int, ...]


def _compile_rules(diagram: Diagram, edges, rules) -> _Rules:
    """A recipe's precedence edges and rule names, compiled on the diagram."""
    index = diagram.box_index
    preds = [0] * diagram.n
    for a, b in edges:
        preds[index[b]] |= 1 << index[a]
    unlocks: list[list[tuple[int, int]]] = [[] for _ in preds]
    for a, b in edges:
        unlocks[index[a]].append((1 << index[b], preds[index[b]]))
    start = sum(1 << b for b, mask in enumerate(preds) if not mask)
    reading_pos = [0] * diagram.n
    for p, b in enumerate(diagram.reading_positions):
        reading_pos[b] = p
    triples, rows = _box_rules(diagram.boxes, rules)
    return _Rules(start, tuple(map(tuple, unlocks)), triples, rows, tuple(reading_pos))


@lru_cache(maxsize=None)
def _box_rules(boxes: tuple[Box, ...], rules: tuple[str, ...]):
    """The triples and rows of :class:`_Rules`, which depend on the boxes
    (in ``Diagram.boxes`` order) and not on the reading order or the
    first-column permutation."""
    n = len(boxes)
    col: dict[int, int] = {}
    row: dict[int, int] = {}
    for k, (c, r) in enumerate(boxes):
        col[c] = col.get(c, 0) | 1 << k
        row[r] = row.get(r, 0) | 1 << k
    full = (1 << n) - 1
    # the boxes in rows above r: every index past the last box of row r
    above = {r: full >> mask.bit_length() << mask.bit_length() for r, mask in row.items()}
    triples = rows = (None,) * n
    if TRIPLE in rules:
        triples = tuple((col.get(c - 1, 0) & above[r], col[c] & above[r]) for c, r in boxes)
    if PREFIX_PEAK in rules:
        rows = tuple((row[r], row.get(r - 1, 0)) for c, r in boxes)
    return triples, rows


@lru_cache(maxsize=None)
def _row_layout(n: int) -> tuple[np.dtype, np.dtype, int, tuple[int, ...], int]:
    """How :func:`_enumerate` packs a member of size n into one integer: the
    reading word in fields of the entry dtype's width, first position most
    significant, above the descent mask, which fills whole fields.  Return
    the entry dtype, its big-endian form, the number of fields, the shift
    of each reading position's field, and the descent-mask bits."""
    dtype = np.min_scalar_type(n)
    width = 8 * dtype.itemsize
    low = -(-(n - 1) // width) * width
    shifts = tuple(range(low + width * (n - 1), low - 1, -width))
    return dtype, dtype.newbyteorder(">"), n + low // width, shifts, (1 << low) - 1


def _enumerate(diagram: Diagram, rules: _Rules) -> tuple[np.ndarray, tuple[int, ...]]:
    """Every legal filling as a row of an (m, n) entry array, indexed like
    ``diagram.boxes`` and sorted by reading word, with each member's descent
    mask (bit i-1 set when i is a descent).

    The entries 1..n are placed one level at a time, each in a box whose
    predecessors are all filled.  What a partial filling of 1..k may become
    depends only on its search state: the mask of filled boxes and the
    reading position of the box holding k.  The partial fillings that reach
    one state are merged into one list of rows and extended together.  A row
    is an integer laid out by :func:`_row_layout`.  Placing k at reading
    position p adds k to p's field, and makes k-1 a descent when p comes
    before the position of k-1: one constant per (state, box), or-ed into
    every row of the state.  The last level keys every state by the full
    mask alone, so all rows end in one list, whose sorted order is
    reading-word order.
    """
    n = diagram.n
    dtype, big_endian, fields, shifts, descents = _row_layout(n)
    boxes = tuple(zip(*rules[1:]))
    # key -> [filled mask, ready mask, position of k, rows, add]: the
    # state's rows are those of ``rows`` or-ed with ``add``, a list its
    # parent state may share; a merged state owns its rows, with add 0
    states = {0: [0, rules.start, -1, [0], 0]}
    for k in range(1, n + 1):
        reached: dict[int, list] = {}
        for filled, ready, last, rows, add in states.values():
            todo = ready
            while todo:
                bit = todo & -todo
                todo ^= bit
                unlocked, triple, own_rows, p = boxes[bit.bit_length() - 1]
                if triple:
                    trigger, required = triple
                    if (filled & trigger) << 1 & ~(filled & required):
                        continue
                if own_rows:
                    own, below = own_rows
                    if below and not filled & own and (filled & below).bit_count() < 2:
                        continue
                now = filled | bit
                key = now | p << n if k < n else now
                constant = add | k << shifts[p]
                if p < last:
                    constant |= 1 << (k - 2)
                state = reached.get(key)
                if state is None:
                    after = ready ^ bit
                    for later, preds in unlocked:
                        if preds & now == preds:
                            after |= later
                    reached[key] = [now, after, p, rows, constant]
                else:
                    if state[4]:
                        state[3], state[4] = list(map(state[4].__or__, state[3])), 0
                    state[3] += map(constant.__or__, rows)
        states = reached
    rows = []
    for *_, kept, add in states.values():  # the one state of the full mask
        rows = sorted(map(add.__or__, kept))
    size = fields * dtype.itemsize
    buffer = b"".join([row.to_bytes(size, "big") for row in rows])
    entries = np.ndarray((len(rows), fields), big_endian, buffer).take(rules.reading_pos, axis=1)
    return entries.astype(dtype, copy=False), tuple(map(descents.__and__, rows))


# ---------------------------------------------------------------------------
# kind table


def _validate_shape(kind: FamilyKind, shape: Composition) -> Composition:
    shape = check_composition(shape)
    if not shape:
        raise DomainError("shape must be nonempty")
    if kind in (FamilyKind.SPCT, FamilyKind.SPYCT) and not is_peak_composition(shape):
        raise DomainError(f"{kind} requires a peak composition, got {shape}")
    if kind is FamilyKind.SSHT and not is_strict_partition(shape):
        raise DomainError(f"ssht requires a strict partition, got {shape}")
    if kind is FamilyKind.SYT and not is_partition(shape):
        raise DomainError(f"syt requires a partition, got {shape}")
    return shape


# kind -> (diagram, column order, reading order, further rules); rows
# increase left-right, and the column order is "first" (the first column in
# sigma order), "up" or "down" (every column, entries increasing that way).
# The views have no recipe (:func:`_reversal`, :func:`_srct_from_syrt`).
_RECIPES = {
    FamilyKind.SPCT: (composition_diagram, "first", _read_columns_lr_bottom_up, (PREFIX_PEAK,)),
    FamilyKind.SYCT: (composition_diagram, "first", _read_syct, (TRIPLE,)),
    FamilyKind.SPYCT: (composition_diagram, "first", _read_syct, (TRIPLE, PREFIX_PEAK)),
    FamilyKind.SSHT: (shifted_diagram, "up", _read_rows_top_down, ()),
    FamilyKind.SYT: (composition_diagram, "up", _read_rows_top_down, ()),
    FamilyKind.SIT: (composition_diagram, "first", _read_rows_top_down, ()),
    FamilyKind.SET: (composition_diagram, "up", _read_rows_top_down, ()),
    FamilyKind.RIB: (ribbon_diagram, "down", _read_rows_bottom_up_lr, ()),
}

# kind -> the kind whose family, read backwards, is this kind's family
_REVERSED = {FamilyKind.SRIT: FamilyKind.SIT, FamilyKind.SRET: FamilyKind.SET, FamilyKind.SYRT: FamilyKind.SYCT}


@lru_cache(maxsize=None)
def _shape_recipe(kind: FamilyKind, shape: Composition):
    """The boxes and the precedence edges that do not depend on sigma."""
    diagram, columns, _, _ = _RECIPES[kind]
    boxes = diagram(shape)
    edges = _row_edges(boxes)
    if columns == "up":
        edges += _column_edges_up(boxes)
    elif columns == "down":
        edges += _column_edges_down(boxes)
    return boxes, tuple(edges)


def _kind_recipe(kind: FamilyKind, shape: Composition, sigma: tuple[int, ...]):
    """Return (boxes, reading_order, precedence edges, further rules)."""
    _, columns, read, rules = _RECIPES[kind]
    boxes, edges = _shape_recipe(kind, shape)
    if columns == "first":
        edges += tuple(_first_column_edges(len(shape), sigma))
    return boxes, read(boxes, sigma), edges, rules


def _family_tag(kind: FamilyKind, shape: Composition, sigma) -> str:
    tag = f"{kind.value}[{format_composition(shape)}]"
    if sigma is not None:
        tag += f" sigma={format_composition(sigma)}"
    return tag


def _reversal(twin: TableauFamily):
    """The diagram, entry array and descent masks of a twin family read
    backwards: its rows re-sorted by the reversed words, and each descent
    mask complemented over n-1 bits."""
    order = np.lexsort(twin.words.T)  # the last position is the primary key
    full = (1 << (twin.n - 1)) - 1
    masks = twin.descent_masks
    diagram = _diagram(twin.diagram.boxes, twin.diagram.reading_order[::-1])
    return diagram, twin.members.entries[order], tuple(full ^ masks[k] for k in order.tolist())


@lru_cache(maxsize=None)
def _complement_layout(shape: Composition) -> tuple[tuple[Box, ...], list[int], tuple[Box, ...]]:
    """The srct boxes of the shape; for each, the index of its syrt mirror
    box, row r made row l+1-r; and the srct box of each mirror box."""
    boxes = composition_diagram(shape)
    mirror = {b: k for k, b in enumerate(composition_diagram(shape[::-1]))}
    columns = [mirror[c, len(shape) + 1 - r] for c, r in boxes]
    return boxes, columns, tuple(boxes[k] for k in np.argsort(columns))


def _srct_from_syrt(shape: Composition, sigma: Optional[tuple[int, ...]]):
    """The diagram, entry array and descent masks of an srct family, read
    off its syrt mirror, the syrt family of the reversed shape with
    sigma'(r) = l+1-sigma(l+1-r): entry e becomes n+1-e and row r row
    l+1-r.  Reading positions correspond, so the words are complemented and
    come in reverse order.  i is a descent exactly when n-i is not a descent
    of the mirror word, so a descent mask becomes the bit-reversal, over n-1
    bits, of its complement."""
    n = sum(shape)
    mirror_sigma = sigma and tuple(len(shape) + 1 - rank for rank in reversed(sigma))
    mirror = _build_family_cached(FamilyKind.SYRT, shape[::-1], mirror_sigma)
    boxes, columns, images = _complement_layout(shape)
    diagram = _diagram(boxes, tuple(images[b] for b in mirror.diagram.reading_positions))
    entries = n - mirror.members.entries[::-1, columns] + 1  # n + 1 may not fit the dtype
    full = (1 << (n - 1)) - 1
    masks = tuple(int(f"{full & ~mask:0{n - 1}b}"[::-1], 2) for mask in reversed(mirror.descent_masks))
    return diagram, entries, masks


@lru_cache(maxsize=None)
def _build_family_cached(
    kind: FamilyKind, shape: Composition, sigma: Optional[tuple[int, ...]]
) -> TableauFamily:
    if kind is FamilyKind.SRCT:
        diagram, entries, masks = _srct_from_syrt(shape, sigma)
    elif kind in _REVERSED:
        diagram, entries, masks = _reversal(_build_family_cached(_REVERSED[kind], shape, sigma))
    else:
        effective_sigma = sigma or tuple(range(1, len(shape) + 1))
        boxes, reading, edges, rules = _kind_recipe(kind, shape, effective_sigma)
        diagram = _diagram(boxes, reading)
        entries, masks = _enumerate(diagram, _compile_rules(diagram, edges, rules))
    return TableauFamily(
        diagram=diagram,
        members=Tableaux(diagram, entries),
        family_tag=_family_tag(kind, shape, sigma),
        kind=kind.value,
        shape=shape,
        sigma=sigma,
        descent_masks=masks,
    )


def build_family(
    kind: FamilyKind | str,
    shape: Iterable[int],
    sigma: Optional[Iterable[int]] = None,
) -> TableauFamily:
    """Enumerate the family of the given kind over the given shape.

    ``sigma`` is only meaningful for srct, syrt, and syct; it must be a
    permutation of 1..len(shape) prescribing the relative order of the
    first-column entries from bottom to top.
    """
    kind = FamilyKind(kind)
    shape = _validate_shape(kind, tuple(shape))
    if sigma is not None:
        sigma = tuple(sigma)
        if kind not in SIGMA_KINDS:
            raise DomainError(f"{kind} does not take a sigma permutation")
        message = f"sigma {sigma} is not a permutation of 1..{len(shape)}"
        sigma = tuple(integer(rank, message) for rank in sigma)
        if sorted(sigma) != list(range(1, len(shape) + 1)):
            raise DomainError(message)
    return _build_family_cached(kind, shape, sigma)


def shapes_for(kind: FamilyKind | str, n: int) -> list[Composition]:
    """All valid shapes of size n for the kind."""
    kind = FamilyKind(kind)
    if kind in (FamilyKind.SPCT, FamilyKind.SPYCT):
        return list(enumerate_peak_compositions(n))
    if kind is FamilyKind.SSHT:
        return list(enumerate_strict_partitions(n))
    if kind is FamilyKind.SYT:
        return list(enumerate_partitions(n))
    return list(enumerate_compositions(n))


def family_instances(
    max_n: int, sigmas: bool = False
) -> Iterator[tuple[FamilyKind, Composition, Optional[tuple[int, ...]]]]:
    """Every (kind, shape, sigma) with shape size at most max_n, by kind, then
    size, then shape.  sigma is None; with ``sigmas``, each shape of a
    permuted-variant kind is followed by its non-identity row permutations."""
    for kind in FamilyKind:
        for n in range(1, max_n + 1):
            for shape in shapes_for(kind, n):
                yield kind, shape, None
                if sigmas and kind in SIGMA_KINDS:
                    identity = tuple(range(1, len(shape) + 1))
                    for sigma in itertools.permutations(identity):
                        if sigma != identity:
                            yield kind, shape, sigma


# ---------------------------------------------------------------------------
# special constructions


def source_tableau(alpha: Composition) -> StandardTableau:
    """The distinguished generator of the spct family of a peak composition.

    Column 1 takes the first len(alpha) odd numbers bottom to top; column 2
    takes the even numbers matching its box count; the remaining numbers fill
    later columns consecutively, bottom to top, left to right.
    """
    alpha = check_composition(alpha)
    if not alpha or not is_peak_composition(alpha):
        raise DomainError(f"{alpha} is not a peak composition")
    ell = len(alpha)
    mapping: dict[Box, int] = {}
    for r in range(1, ell + 1):
        mapping[(1, r)] = 2 * r - 1
    col2_rows = [r for r in range(1, ell + 1) if alpha[r - 1] >= 2]
    for idx, r in enumerate(col2_rows, start=1):
        mapping[(2, r)] = 2 * idx
    next_entry = ell + len(col2_rows) + 1
    max_part = max(alpha)
    for c in range(3, max_part + 1):
        for r in range(1, ell + 1):
            if alpha[r - 1] >= c:
                mapping[(c, r)] = next_entry
                next_entry += 1
    family = build_family(FamilyKind.SPCT, alpha)
    tab = StandardTableau.from_box_map(family.diagram, mapping)
    if tab not in family:
        raise DomainError(f"source construction left the family for {alpha}")  # pragma: no cover
    return tab


def rect(tab: StandardTableau) -> StandardTableau:
    """Slide row r of a standard shifted tableau r-1 columns leftwards.

    The result is a filling of the left-justified diagram of the same
    partition, carried on the syct reading order.
    """
    rows: dict[int, list[int]] = {}
    for c, r in tab.diagram.boxes:
        rows.setdefault(r, []).append(c)
    nrows = max(rows)
    lam = []
    for r in range(1, nrows + 1):
        cols = sorted(rows.get(r, []))
        if not cols or cols[0] != r or cols != list(range(r, r + len(cols))):
            raise DomainError("tableau is not of shifted shape")
        lam.append(len(cols))
    lam = tuple(lam)
    if not is_strict_partition(lam):
        raise DomainError(f"row lengths {lam} are not strictly decreasing")
    for (c, r) in tab.diagram.boxes:
        right = (c + 1, r)
        if right in tab.diagram.box_index and tab.entry_at(right) < tab.entry_at((c, r)):
            raise DomainError("rows do not increase; not a standard shifted tableau")
        up = (c, r + 1)
        if up in tab.diagram.box_index and tab.entry_at(up) < tab.entry_at((c, r)):
            raise DomainError("columns do not increase; not a standard shifted tableau")
    target = build_family(FamilyKind.SPYCT, lam)
    mapping = {
        (c - r + 1, r): e for (c, r), e in zip(tab.diagram.boxes, tab.entries)
    }
    return StandardTableau.from_box_map(target.diagram, mapping)


def demo_incompatible_family() -> TableauFamily:
    """Three fillings of a disconnected 3-box diagram (high box read first)
    whose swap statuses depend on the filling; fails ascent compatibility.

    The family is descent-compatible, and force-built it satisfies every
    relation in both conventions and in its supermodule: every member has
    an attacking ascent at 1, so pi_1 = 0.  Compatibility is sufficient for
    the construction, not necessary."""
    boxes = ((1, 1), (2, 1), (3, 2))
    reading = ((3, 2), (1, 1), (2, 1))
    diagram = Diagram(boxes, reading)
    fillings = [
        {(3, 2): 3, (1, 1): 1, (2, 1): 2},  # reading word 312
        {(3, 2): 1, (1, 1): 2, (2, 1): 3},  # reading word 123
        {(3, 2): 1, (1, 1): 3, (2, 1): 2},  # reading word 132
    ]
    members = tuple(StandardTableau.from_box_map(diagram, m) for m in fillings)
    return TableauFamily(diagram, members, "demo-incompatible")


def demo_compatible_family() -> TableauFamily:
    """Three fillings of a bent 3-box diagram (low box read first); it is
    ascent-compatible and one member has two nonattacking ascents."""
    boxes = ((2, 1), (1, 2), (2, 2))
    reading = ((2, 1), (1, 2), (2, 2))
    diagram = Diagram(boxes, reading)
    fillings = [
        {(1, 2): 1, (2, 2): 3, (2, 1): 2},  # reading word 213
        {(1, 2): 2, (2, 2): 3, (2, 1): 1},  # reading word 123
        {(1, 2): 3, (2, 2): 2, (2, 1): 1},  # reading word 132
    ]
    members = tuple(StandardTableau.from_box_map(diagram, m) for m in fillings)
    return TableauFamily(diagram, members, "demo-compatible")
