"""Constructors for the built-in tableau families.

Each family kind bundles a diagram builder, a reading order, and a
membership rule.  Enumeration inserts the entries 1..n one at a time
(backtracking over linear extensions of a box precedence order, with
incremental checks for the triple and prefix-shape rules), so only legal
fillings are ever generated.

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
    srit   same fillings as sit; read rows right-left, bottom row first.
    set    composition rows; rows and all columns increase; read as sit.
    sret   same fillings as set; read as srit.
    srct   composition rows; rows decrease left-right, first column increases
           upward, reversed triple rule; read columns bottom-up from the
           rightmost column leftwards, first column last and top-down.
    syrt   same fillings as syct; read columns top-down from the rightmost
           column leftwards, first column last and bottom-up.
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
from typing import Callable, Iterable, Iterator, Optional

from .compositions import (
    Composition,
    check_composition,
    composition_size,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_peak_compositions,
    enumerate_strict_partitions,
    format_composition,
    is_partition,
    is_peak_composition,
    is_strict_partition,
)
from .errors import DomainError
from .tableaux import Box, Diagram, StandardTableau, TableauFamily

PI = "pi"
HAT = "hat"


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


def composition_diagram(alpha: Composition) -> tuple[Box, ...]:
    """Left-justified rows: row r holds alpha[r-1] boxes starting in column 1."""
    return tuple((c, r) for r, part in enumerate(alpha, start=1) for c in range(1, part + 1))


def shifted_diagram(lam: Composition) -> tuple[Box, ...]:
    """Row r shifted r-1 columns rightwards."""
    return tuple((c, r) for r, part in enumerate(lam, start=1) for c in range(r, r + part))


def ribbon_diagram(alpha: Composition) -> tuple[Box, ...]:
    """Each row starts in the column where the row below ends."""
    boxes = []
    start = 1
    for r, part in enumerate(alpha, start=1):
        boxes.extend((c, r) for c in range(start, start + part))
        start = start + part - 1
    return tuple(boxes)


def single_row_diagram(n: int) -> Diagram:
    boxes = tuple((c, 1) for c in range(1, n + 1))
    return Diagram(boxes, boxes)


# ---------------------------------------------------------------------------
# reading orders


def _sigma_inverse(sigma: tuple[int, ...]) -> list[int]:
    inv = [0] * len(sigma)
    for row, rank in enumerate(sigma, start=1):
        inv[rank - 1] = row
    return inv


def _first_column_rows(sigma: tuple[int, ...], increasing: bool) -> list[int]:
    """Rows of the first column visited so entries appear increasing
    (or decreasing) in value."""
    inv = _sigma_inverse(sigma)
    return inv if increasing else inv[::-1]


def _read_columns_lr_bottom_up(boxes: Iterable[Box], sigma=None) -> tuple[Box, ...]:
    return tuple(sorted(boxes, key=lambda b: (b[0], b[1])))


def _read_rows_top_down(boxes: Iterable[Box], sigma=None) -> tuple[Box, ...]:
    return tuple(sorted(boxes, key=lambda b: (-b[1], b[0])))


def _read_rows_bottom_up_rl(boxes: Iterable[Box], sigma=None) -> tuple[Box, ...]:
    return tuple(sorted(boxes, key=lambda b: (b[1], -b[0])))


def _read_rows_bottom_up_lr(boxes: Iterable[Box], sigma=None) -> tuple[Box, ...]:
    return tuple(sorted(boxes, key=lambda b: (b[1], b[0])))


def _read_syct(boxes: Iterable[Box], sigma: tuple[int, ...]) -> tuple[Box, ...]:
    first = [(1, r) for r in _first_column_rows(sigma, increasing=False)]
    rest = sorted((b for b in boxes if b[0] > 1), key=lambda b: (b[0], b[1]))
    return tuple(first + rest)


def _read_srct(boxes: Iterable[Box], sigma: tuple[int, ...]) -> tuple[Box, ...]:
    rest = sorted((b for b in boxes if b[0] > 1), key=lambda b: (-b[0], b[1]))
    first = [(1, r) for r in _first_column_rows(sigma, increasing=False)]
    return tuple(rest + first)


def _read_syrt(boxes: Iterable[Box], sigma: tuple[int, ...]) -> tuple[Box, ...]:
    rest = sorted((b for b in boxes if b[0] > 1), key=lambda b: (-b[0], -b[1]))
    first = [(1, r) for r in _first_column_rows(sigma, increasing=True)]
    return tuple(rest + first)


# ---------------------------------------------------------------------------
# membership rules: precedence edges plus dynamic checks


def _row_edges(boxset: frozenset[Box], increasing: bool) -> list[tuple[Box, Box]]:
    edges = []
    for c, r in boxset:
        if (c + 1, r) in boxset:
            left, right = (c, r), (c + 1, r)
            edges.append((left, right) if increasing else (right, left))
    return edges


def _column_edges_up(boxset: frozenset[Box]) -> list[tuple[Box, Box]]:
    """Entries increase from bottom to top along each column (consecutive
    present boxes; columns may have gaps for general composition shapes)."""
    by_col: dict[int, list[int]] = {}
    for c, r in boxset:
        by_col.setdefault(c, []).append(r)
    edges = []
    for c, rows in by_col.items():
        rows.sort()
        for lo, hi in zip(rows, rows[1:]):
            edges.append(((c, lo), (c, hi)))
    return edges


def _column_edges_down(boxset: frozenset[Box]) -> list[tuple[Box, Box]]:
    """Entries increase from top to bottom along each column (ribbons)."""
    return [(b, a) for a, b in _column_edges_up(boxset)]


def _first_column_edges(nrows: int, sigma: tuple[int, ...]) -> list[tuple[Box, Box]]:
    """First-column entries follow the relative order of sigma, bottom to top."""
    inv = _sigma_inverse(sigma)
    return [((1, inv[p]), (1, inv[p + 1])) for p in range(nrows - 1)]


def _syct_triple_check(boxset: frozenset[Box]):
    """Placing an entry into box (c, r') finalizes every comparison against
    already-filled boxes (c-1, r) with r > r'; each such smaller neighbour
    forces the box to its right to exist and to be filled already."""
    rows_by_col: dict[int, list[int]] = {}
    for c, r in boxset:
        rows_by_col.setdefault(c, []).append(r)

    def check(filled: dict[Box, int], box: Box, entry: int) -> bool:
        cb, rb = box
        if cb < 2:
            return True
        for r in rows_by_col.get(cb - 1, ()):
            if r > rb and (cb - 1, r) in filled:
                if (cb, r) not in boxset or (cb, r) not in filled:
                    return False
        return True

    return check


def _srct_triple_check(boxset: frozenset[Box]):
    """Reversed triple rule: an entry a at (c, r) larger than b at (c+1, r')
    with r < r' forces (c+1, r) to exist and to exceed b.  All triggers fire
    when a is placed (b, being smaller, is already present)."""
    rows_by_col: dict[int, list[int]] = {}
    for c, r in boxset:
        rows_by_col.setdefault(c, []).append(r)

    def check(filled: dict[Box, int], box: Box, entry: int) -> bool:
        ca, ra = box
        right = (ca + 1, ra)
        for r in rows_by_col.get(ca + 1, ()):
            if r > ra:
                vb = filled.get((ca + 1, r))
                if vb is not None:
                    if right not in boxset:
                        return False
                    cv = filled.get(right)
                    if cv is not None and cv < vb:
                        return False
        return True

    return check


def _prefix_peak_check(nrows: int):
    """After each placement the occupied row counts must form the diagram of
    a peak composition: nonempty rows contiguous from the bottom, and every
    row below the topmost nonempty one holding at least 2 entries."""

    def check(filled: dict[Box, int], box: Box, entry: int) -> bool:
        counts = [0] * (nrows + 1)
        for (_, r) in filled:
            counts[r] += 1
        counts[box[1]] += 1
        top = max(r for r in range(1, nrows + 1) if counts[r]) if any(counts) else 0
        for r in range(1, top):
            if counts[r] < 2:
                return False
        return True

    return check


def _enumerate_fillings(
    boxes: tuple[Box, ...],
    edges: list[tuple[Box, Box]],
    checks: list[Callable[[dict[Box, int], Box, int], bool]],
) -> Iterator[dict[Box, int]]:
    """Backtracking insertion of 1..n: a box may receive the next entry once
    all its precedence predecessors are filled and the dynamic checks pass."""
    n = len(boxes)
    preds: dict[Box, tuple[Box, ...]] = {b: () for b in boxes}
    for a, b in edges:
        preds[b] = preds[b] + (a,)
    filled: dict[Box, int] = {}

    def rec(k: int) -> Iterator[dict[Box, int]]:
        if k > n:
            yield dict(filled)
            return
        for b in boxes:
            if b in filled:
                continue
            if any(p not in filled for p in preds[b]):
                continue
            if all(chk(filled, b, k) for chk in checks):
                filled[b] = k
                yield from rec(k + 1)
                del filled[b]

    yield from rec(1)


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


def _identity(nrows: int) -> tuple[int, ...]:
    return tuple(range(1, nrows + 1))


def _kind_recipe(kind: FamilyKind, shape: Composition, sigma: tuple[int, ...]):
    """Return (boxes, reading_order, edges, dynamic checks)."""
    nrows = len(shape)
    if kind is FamilyKind.SSHT:
        boxes = shifted_diagram(shape)
    elif kind is FamilyKind.RIB:
        boxes = ribbon_diagram(shape)
    else:
        boxes = composition_diagram(shape)
    boxset = frozenset(boxes)

    if kind is FamilyKind.SPCT:
        edges = _row_edges(boxset, True) + _first_column_edges(nrows, sigma)
        checks = [_prefix_peak_check(nrows)]
        reading = _read_columns_lr_bottom_up(boxes)
    elif kind is FamilyKind.SYCT:
        edges = _row_edges(boxset, True) + _first_column_edges(nrows, sigma)
        checks = [_syct_triple_check(boxset)]
        reading = _read_syct(boxes, sigma)
    elif kind is FamilyKind.SPYCT:
        edges = _row_edges(boxset, True) + _first_column_edges(nrows, sigma)
        checks = [_syct_triple_check(boxset), _prefix_peak_check(nrows)]
        reading = _read_syct(boxes, sigma)
    elif kind in (FamilyKind.SSHT, FamilyKind.SYT):
        edges = _row_edges(boxset, True) + _column_edges_up(boxset)
        checks = []
        reading = _read_rows_top_down(boxes)
    elif kind is FamilyKind.SIT:
        edges = _row_edges(boxset, True) + _first_column_edges(nrows, sigma)
        checks = []
        reading = _read_rows_top_down(boxes)
    elif kind is FamilyKind.SRIT:
        edges = _row_edges(boxset, True) + _first_column_edges(nrows, sigma)
        checks = []
        reading = _read_rows_bottom_up_rl(boxes)
    elif kind is FamilyKind.SET:
        edges = _row_edges(boxset, True) + _column_edges_up(boxset)
        checks = []
        reading = _read_rows_top_down(boxes)
    elif kind is FamilyKind.SRET:
        edges = _row_edges(boxset, True) + _column_edges_up(boxset)
        checks = []
        reading = _read_rows_bottom_up_rl(boxes)
    elif kind is FamilyKind.SRCT:
        edges = _row_edges(boxset, False) + _first_column_edges(nrows, sigma)
        checks = [_srct_triple_check(boxset)]
        reading = _read_srct(boxes, sigma)
    elif kind is FamilyKind.SYRT:
        edges = _row_edges(boxset, True) + _first_column_edges(nrows, sigma)
        checks = [_syct_triple_check(boxset)]
        reading = _read_syrt(boxes, sigma)
    elif kind is FamilyKind.RIB:
        edges = _row_edges(boxset, True) + _column_edges_down(boxset)
        checks = []
        reading = _read_rows_bottom_up_lr(boxes)
    else:  # pragma: no cover
        raise DomainError(f"unknown family kind {kind!r}")
    return boxes, reading, edges, checks


def _family_tag(kind: FamilyKind, shape: Composition, sigma) -> str:
    tag = f"{kind.value}[{format_composition(shape)}]"
    if sigma is not None:
        tag += f" sigma={format_composition(sigma)}"
    return tag


@lru_cache(maxsize=None)
def _build_family_cached(
    kind: FamilyKind, shape: Composition, sigma: Optional[tuple[int, ...]]
) -> TableauFamily:
    effective_sigma = sigma if sigma is not None else _identity(len(shape))
    boxes, reading, edges, checks = _kind_recipe(kind, shape, effective_sigma)
    diagram = Diagram(boxes, reading)
    members = tuple(
        StandardTableau.from_box_map(diagram, mapping)
        for mapping in _enumerate_fillings(boxes, edges, checks)
    )
    return TableauFamily(
        diagram=diagram,
        members=members,
        family_tag=_family_tag(kind, shape, sigma),
        kind=kind.value,
        shape=shape,
        sigma=sigma,
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
        if sorted(sigma) != list(range(1, len(shape) + 1)):
            raise DomainError(f"sigma {sigma} is not a permutation of 1..{len(shape)}")
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
