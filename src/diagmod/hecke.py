"""The 0-Hecke action on a tableau family, as signed partial maps.

Two generator conventions are supported.  In the pi convention, a generator
sends a tableau to minus itself on a descent, to zero on an attacking ascent,
and to the swapped tableau on a nonattacking ascent; the quadratic relation
is pi^2 = -pi.  The hat convention fixes tableaux on ascents, kills attacking
descents, and swaps nonattacking descents; the quadratic relation is
hat^2 = hat.  The commutation and braid relations are shared.

The basis is ordered by descending inversion count of the reading word (ties
by the word itself), so every swap image lands on an earlier basis element
and each generator matrix is triangular with diagonal entries in {-1, 0}
(pi) or {0, 1} (hat).  Each generator sends a basis element to plus or
minus one basis element or to zero, so it is stored as a signed partial map
read off the family's word set, in the sink-column encoding that the
supermodule blocks share (see :func:`sink_maps`).  A product of such maps is
a gather, :func:`compose_maps`, and a stack of them lists its entries one
way, :func:`canonical_entries`.  Reachability is one breadth-first walk
along the module's maps, :func:`support_walk`, which the supermodule's
closure reads as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IncompatibleFamilyError, integer
from .series import FUNDAMENTAL, FormalSum
from .compositions import mask_composition
from .tableaux import (
    StandardTableau,
    TableauFamily,
    Tableaux,
    WordSet,
    is_ascent_compatible,
    is_descent_compatible,
    word_set_memo,
)

PI = "pi"
HAT = "hat"


@dataclass(frozen=True)
class HeckeModuleRep:
    """A family's 0-Hecke module in a convention, its generators' signed
    partial maps read off the word set when first read (:func:`hecke_maps`)."""

    family: TableauFamily
    convention: str

    def __post_init__(self):
        if self.convention not in (PI, HAT):
            raise DomainError(f"unknown convention {self.convention!r}")

    @cached_property
    def _maps(self) -> tuple[np.ndarray, np.ndarray]:
        return hecke_maps(self.family.word_set, self.convention)

    targets = property(lambda self: self._maps[0])
    signs = property(lambda self: self._maps[1])

    @property
    def basis(self) -> Tableaux:
        return self.family.basis

    def generator_triples(self) -> list[tuple]:
        """``(convention, i, rows, cols, values)`` of each generator matrix,
        entry (r, c) being the coefficient of basis element r in the image of
        c, sorted by row, then column."""
        return [
            (self.convention, i, *row_major([canonical_entries((target[None], sign[None]))]))
            for i, (target, sign) in enumerate(zip(self.targets, self.signs), start=1)
        ]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _sink_arrays(k: int, d: int, target_dtype, sign_dtype) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised (k, d + 1) target and sign arrays whose column d is
    already the sink."""
    targets = np.empty((k, d + 1), dtype=target_dtype)
    signs = np.empty((k, d + 1), dtype=sign_dtype)
    targets[:, d] = d
    signs[:, d] = 0
    return targets, signs


def sink_maps(targets: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed partial maps on d columns, given as (k, d) arrays with sign 0
    for a zero image, in the sink-column encoding: (k, d + 1) arrays in which
    every zero image points at column d, a sink fixed with sign 0."""
    k, d = targets.shape
    sunk_targets, sunk_signs = _sink_arrays(k, d, targets.dtype, signs.dtype)
    sunk_targets[:, :d] = np.where(signs == 0, d, targets)
    sunk_signs[:, :d] = signs
    return sunk_targets, sunk_signs


def build_hecke_module(family: TableauFamily, convention: str = PI, force: bool = False) -> HeckeModuleRep:
    """The module of a family in the given convention.

    The compatibility gate rejects families on which the action is not
    guaranteed to satisfy the relations; ``force`` bypasses the gate (it
    exists only so tests can exhibit what the gate protects against).
    """
    rep = HeckeModuleRep(family, convention)
    if not family.members:
        raise DomainError(f"family {family.family_tag} is empty")
    if not force:
        mode = "ascent" if convention == PI else "descent"
        compat = is_ascent_compatible(family) if convention == PI else is_descent_compatible(family)
        if not compat.ok:
            raise IncompatibleFamilyError(mode, compat.witness)
    return rep


def hecke_maps(words: WordSet, convention: str) -> tuple[np.ndarray, np.ndarray]:
    """The read-only generator maps of a word set's module in the
    convention, as (n - 1, dim + 1) arrays in the sink-column encoding of
    :func:`sink_maps`: generator i sends basis element c to ``signs[i - 1,
    c]`` times basis element ``targets[i - 1, c]``."""
    k, d = words.target.shape
    targets, signs = _sink_arrays(k, d, np.intp, np.int8)
    # pi scales descents by -1, hat fixes ascents; the other case swaps
    # inside the family or dies, pointing at the sink.
    diagonal = words.descent if convention == PI else ~words.descent
    alive = words.target >= 0
    targets[:, :d] = np.where(diagonal, np.arange(d), np.where(alive, words.target, d))
    signs[:, :d] = np.where(diagonal, -1 if convention == PI else 1, alive)
    targets.flags.writeable = signs.flags.writeable = False
    return targets, signs


# Reports are kept per word set, so they carry no instance dict.
@dataclass(frozen=True, slots=True)
class RelationReport:
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return f"all {self.checked} relations hold"
        body = "; ".join(self.violations)
        return f"{len(self.violations)} of {self.checked} relations fail: {body}"


def zero_hecke_relations(k: int, convention: str) -> list[tuple]:
    """The quadratic, commutation, and braid relations on k generators of
    the convention, in report order, as (message, left word, right word,
    right sign) with the relation reading left word = right sign * right
    word.  A word lists 0-based generator indices, leftmost factor first;
    the messages name the generators by the convention."""
    label, quad_sign = convention, -1 if convention == PI else 1
    out = [
        (f"{label}[{i + 1}]^2 != {quad_sign:+d}*{label}[{i + 1}]", (i, i), (i,), quad_sign)
        for i in range(k)
    ]
    for i in range(k):
        for j in range(i + 2, k):
            out.append((f"{label}[{i + 1}] and {label}[{j + 1}] do not commute", (i, j), (j, i), 1))
    for i in range(k - 1):
        out.append(
            (f"braid fails at {label}[{i + 1}], {label}[{i + 2}]", (i, i + 1, i), (i + 1, i, i + 1), 1)
        )
    return out


def compose_maps(outer, inner) -> tuple[np.ndarray, np.ndarray]:
    """The product outer * inner of two stacks of signed partial maps.

    A stack is a pair ``(targets, signs)`` of int arrays of shape (k, d + 1)
    and stands for the sum of its k layers: layer l sends column c to
    ``signs[l, c]`` times row ``targets[l, c]``.  Column d is a sink that
    every zero image points to, fixed with sign 0.  The product has one
    layer per pair of layers, each a gather.
    """
    (outer_t, outer_s), (inner_t, inner_s) = outer, inner
    width = inner_t.shape[1]
    targets = outer_t.take(inner_t, axis=1).reshape(-1, width)
    return targets, (outer_s.take(inner_t, axis=1) * inner_s).reshape(-1, width)


def canonical_entries(op) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of a stack as int64 arrays ``(rows, cols,
    values)``, duplicates summed, sorted by column, then row; two stacks are
    the same operator iff their canonical entries are equal."""
    targets, signs = op
    width = targets.shape[1]
    keys = (np.arange(width, dtype=np.int64) * width + targets).ravel()
    values = signs.astype(np.int64).ravel()
    live = values != 0
    keys, values = keys[live], values[live]
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    if keys.size:
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys, values = keys[starts], np.add.reduceat(values, starts)
        keys, values = keys[values != 0], values[values != 0]
    return keys % width, keys // width, values


def row_major(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated ``(rows, cols, values)`` parts sorted by row, then column."""
    rows, cols, values = (np.concatenate(field) for field in zip(*parts))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], values[order]


class RelationTable(NamedTuple):
    """The relations of :func:`zero_hecke_relations` on k generators, with
    their words as arrays: ``lhs`` and ``rhs`` are (r, 3) arrays of generator
    indices, each word padded on the left with the index k of an identity
    generator, and ``signs`` is the (r, 1) column of right signs.  The
    relations come quadratic, commutation, braid, so at each factor position
    the padded rows come first: ``lhs_pads[c]`` rows of ``lhs`` hold k in
    column c, and likewise ``rhs_pads``."""

    relations: tuple[tuple, ...]
    lhs: np.ndarray
    rhs: np.ndarray
    signs: np.ndarray
    lhs_pads: tuple[int, ...]
    rhs_pads: tuple[int, ...]


@lru_cache(maxsize=None)
def relation_table(k: int, convention: str = PI) -> RelationTable:
    """The relation table of k generators in the convention, built once."""
    relations = tuple(zero_hecke_relations(k, convention))

    def padded(side: int) -> np.ndarray:
        words = [(k,) * (3 - len(rel[side])) + rel[side] for rel in relations]
        return np.array(words, dtype=np.intp).reshape(-1, 3)

    def pads(words: np.ndarray) -> tuple[int, ...]:
        return tuple(int(np.count_nonzero(column == k)) for column in words.T)

    lhs, rhs = padded(1), padded(2)
    signs = np.array([rel[3] for rel in relations], dtype=np.int8).reshape(-1, 1)
    return RelationTable(relations, lhs, rhs, signs, pads(lhs), pads(rhs))


# Relation words are composed in chunks of at most this many cells per array.
_RELATION_CELLS = 1 << 15


def _compose_words(targets, signs, words, pads) -> tuple[np.ndarray, np.ndarray]:
    """The images of every column under each row of ``words``, a (w, L)
    array of generator indices, leftmost factor first: one gather per
    factor for all the words together.  The first ``pads[c]`` rows hold the
    identity in column c and skip that factor."""
    width = targets.shape[1]
    cols, product = targets[words[:, -1]], signs[words[:, -1]]
    for g, live in zip(words.T[-2::-1], pads[-2::-1]):
        at = cols[live:]
        at += g[live:, None] * width  # flat indices into the maps
        product[live:] *= signs.take(at)
        cols[live:] = targets.take(at)
    return cols, product


def verify_hecke_relations(rep: HeckeModuleRep) -> RelationReport:
    """Check the quadratic, commutation, and braid relations exactly, once
    per word set and convention, which are all a module depends on."""
    return _module_relations(rep.family.word_set, rep.convention)


@word_set_memo
def _module_relations(words: WordSet, convention: str) -> RelationReport:
    """The relation report of a word set's module in the convention."""
    return _relation_report(*hecke_maps(words, convention), convention)


def _relation_report(targets: np.ndarray, signs: np.ndarray, convention: str) -> RelationReport:
    """The relation report of generator maps in the sink-column encoding.

    A product of signed partial maps is one again.  The words of the cached
    :func:`relation_table` are composed together: every left side in one
    batch of gathers, every right side in another, a chunk of relations at
    a time.  A relation holds when both sides send every column to the same
    target with the same sign.
    """
    k, width = targets.shape
    table = relation_table(k, convention)
    fails = []
    step = max(1, _RELATION_CELLS // width)
    for first in range(0, len(table.relations), step):
        rows = slice(first, first + step)
        left, left_sign = _compose_words(
            targets, signs, table.lhs[rows], [max(0, pad - first) for pad in table.lhs_pads]
        )
        right, right_sign = _compose_words(
            targets, signs, table.rhs[rows], [max(0, pad - first) for pad in table.rhs_pads]
        )
        right_sign *= table.signs[rows]
        fails.extend(((left != right) | (left_sign != right_sign)).any(axis=1).tolist())
    violations = tuple(rel[0] for rel, bad in zip(table.relations, fails) if bad)
    return RelationReport(len(table.relations), violations)


def qsym_characteristic(obj) -> FormalSum:
    """Sum of fundamental basis elements indexed by member descent sets, one
    term per distinct descent mask of the family."""
    family = obj if isinstance(obj, TableauFamily) else obj.family
    n = family.n
    terms = {mask_composition(mask, n): count for mask, count in family.descent_histogram.items()}
    return FormalSum(FUNDAMENTAL, n, terms)


def support_walk(rep: HeckeModuleRep, start: int) -> dict[int, tuple[int, ...]]:
    """Breadth-first walk from basis index ``start`` along the module's maps.

    Returns, for each basis index reached, one word (p_1, ..., p_r) of
    0-based generator positions, applied right to left, whose product has
    the index in the support of its image of ``start``.  Words carry no
    minimality promise.
    """
    start = integer(start, f"basis index {start!r} is not an integer in 0..{rep.dim - 1}", 0, rep.dim - 1)
    maps = list(enumerate(zip(rep.targets.tolist(), rep.signs.tolist())))
    words, queue = {start: ()}, [start]
    for c in queue:  # the queue grows as the walk reaches new indices
        for p, (targets, signs) in maps:
            r = targets[c]
            if signs[c] and r not in words:
                words[r] = (p,) + words[c]
                queue.append(r)
    return words


def reachability_closure(rep: HeckeModuleRep, seed: StandardTableau) -> frozenset[StandardTableau]:
    """All basis tableaux in the support of a generator word applied to the seed."""
    return frozenset(generating_words(rep, seed))


def generating_words(rep: HeckeModuleRep, seed: StandardTableau) -> dict[StandardTableau, tuple[int, ...]]:
    """For each reachable tableau, one generator word taking the seed to it.

    The word (i_1, ..., i_r) applies the generators right to left, so the
    target appears in the support of pi_{i_1} ... pi_{i_r} applied to the
    seed.  Words come from breadth-first search and carry no minimality
    promise.
    """
    start = rep.family.basis_index(seed)
    if start is None:
        raise DomainError("seed is not a basis tableau")
    return {rep.basis[c]: tuple(p + 1 for p in word) for c, word in support_walk(rep, start).items()}
