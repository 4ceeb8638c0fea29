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
read off the family's word graph, in the sink-column encoding that the
supermodule blocks share (see :func:`sink_maps`).  A product of such maps is
a gather, :func:`compose_maps`.  Reachability in either module is one
breadth-first walk over its generators' entries, :func:`support_walk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IncompatibleFamilyError
from .series import FUNDAMENTAL, FormalSum
from .compositions import mask_composition
from .tableaux import (
    StandardTableau,
    TableauFamily,
    Tableaux,
    is_ascent_compatible,
    is_descent_compatible,
)

PI = "pi"
HAT = "hat"


@dataclass(frozen=True)
class HeckeModuleRep:
    """A family's 0-Hecke module: its word graph's basis with one signed
    partial map per generator.

    ``targets`` and ``signs`` are (n - 1, dim + 1) arrays in the sink-column
    encoding of :func:`sink_maps`: generator i sends basis element c to
    ``signs[i - 1, c]`` times basis element ``targets[i - 1, c]``, and a
    zero image points at the sink column dim with sign 0.
    """

    family: TableauFamily
    convention: str
    targets: np.ndarray
    signs: np.ndarray

    @property
    def basis(self) -> Tableaux:
        return self.family.word_graph.basis

    @cached_property
    def index(self) -> dict[StandardTableau, int]:
        return {t: i for i, t in enumerate(self.basis)}

    def generator_triples(self) -> list[tuple]:
        """``(convention, i, rows, cols, values)`` of each generator matrix,
        entry (r, c) being the coefficient of basis element r in the image of
        c, sorted by row, then column."""
        out = []
        for i, (target, sign) in enumerate(zip(self.targets, self.signs), start=1):
            cols = np.flatnonzero(sign)
            order = np.lexsort((cols, target[cols]))
            cols = cols[order]
            out.append((self.convention, i, target[cols], cols, sign[cols]))
        return out

    @property
    def dim(self) -> int:
        return len(self.basis)


def sink_maps(targets: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed partial maps on d columns, given as (k, d) arrays with sign 0
    for a zero image, in the sink-column encoding: (k, d + 1) arrays in which
    every zero image points at column d, a sink fixed with sign 0."""
    k, d = targets.shape
    sink = np.full((k, 1), d, dtype=targets.dtype)
    return (
        np.concatenate((np.where(signs == 0, d, targets), sink), axis=1),
        np.concatenate((signs, np.zeros((k, 1), dtype=signs.dtype)), axis=1),
    )


def build_hecke_module(
    family: TableauFamily, convention: str = PI, force: bool = False
) -> HeckeModuleRep:
    """Build the generator maps for a family in the given convention.

    The compatibility gate rejects families on which the action is not
    guaranteed to satisfy the relations; ``force`` bypasses the gate (it
    exists only so tests can exhibit what the gate protects against).
    """
    if convention not in (PI, HAT):
        raise DomainError(f"unknown convention {convention!r}")
    if not family.members:
        raise DomainError(f"family {family.family_tag} is empty")
    if not force:
        mode = "ascent" if convention == PI else "descent"
        compat = is_ascent_compatible(family) if convention == PI else is_descent_compatible(family)
        if not compat.ok:
            raise IncompatibleFamilyError(mode, compat.witness)

    graph = family.word_graph
    # pi scales descents by -1, hat fixes ascents; the other case swaps
    # inside the family or dies.
    diagonal = graph.descent if convention == PI else ~graph.descent
    targets = np.where(diagonal, np.arange(len(graph.basis), dtype=np.intp), graph.target)
    signs = np.where(diagonal, -1 if convention == PI else 1, targets >= 0).astype(np.int8)
    return HeckeModuleRep(family, convention, *sink_maps(targets, signs))


@dataclass(frozen=True)
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


def zero_hecke_relations(k: int, quad_sign: int, label: str = "pi") -> list[tuple]:
    """The quadratic, commutation, and braid relations on k generators, in
    report order, as (message, left word, right word, right sign) with the
    relation reading left word = right sign * right word.  A word lists
    0-based generator indices, leftmost factor first."""
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


class RelationTable(NamedTuple):
    """The relations of :func:`zero_hecke_relations` on k generators, with
    their words as arrays: ``lhs`` and ``rhs`` are (r, 3) arrays of generator
    indices, each word padded on the left with the index k of an identity
    generator, and ``signs`` is the (r, 1) column of right signs."""

    relations: tuple[tuple, ...]
    lhs: np.ndarray
    rhs: np.ndarray
    signs: np.ndarray


@lru_cache(maxsize=None)
def relation_table(k: int, convention: str = PI) -> RelationTable:
    """The relation table of k generators in the convention, built once."""
    relations = tuple(zero_hecke_relations(k, -1 if convention == PI else 1, convention))

    def padded(side: int) -> np.ndarray:
        words = [(k,) * (3 - len(rel[side])) + rel[side] for rel in relations]
        return np.array(words, dtype=np.intp).reshape(-1, 3)

    signs = np.array([rel[3] for rel in relations], dtype=np.int8).reshape(-1, 1)
    return RelationTable(relations, padded(1), padded(2), signs)


# Relation words are composed in chunks of at most this many cells per array.
_RELATION_CELLS = 1 << 15


def _compose_words(targets, signs, words) -> tuple[np.ndarray, np.ndarray]:
    """The images of every column under each row of ``words``, a (w, L)
    array of generator indices, leftmost factor first: one gather per
    factor for all the words together."""
    width = targets.shape[1]
    cols, product = targets[words[:, -1]], signs[words[:, -1]]
    for g in words.T[-2::-1, :, None]:
        cols += g * width  # flat indices into the stacked maps
        product *= signs.take(cols)
        cols = targets.take(cols)
    return cols, product


def verify_hecke_relations(rep: HeckeModuleRep) -> RelationReport:
    """Check the quadratic, commutation, and braid relations exactly.

    A product of signed partial maps is one again.  The generators are
    stacked with an identity map on top, and the words of the cached
    :func:`relation_table`, padded with that identity to length 3, are
    composed together: every left side in one batch of gathers, every right
    side in another, a chunk of relations at a time.  A relation holds
    when both sides send every column to the same target with the same sign.
    """
    k, width = rep.targets.shape
    table = relation_table(k, rep.convention)
    # generator k is the identity: every column fixed with sign 1, the sink with 0
    columns = np.arange(width)
    targets = np.vstack((rep.targets, columns))
    signs = np.vstack((rep.signs, columns < width - 1)).astype(rep.signs.dtype, copy=False)
    fails = []
    step = max(1, _RELATION_CELLS // width)
    for first in range(0, len(table.relations), step):
        rows = slice(first, first + step)
        left, left_sign = _compose_words(targets, signs, table.lhs[rows])
        right, right_sign = _compose_words(targets, signs, table.rhs[rows])
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


def support_walk(rep, start: int) -> dict[int, tuple[int, ...]]:
    """Breadth-first walk from basis index ``start`` along the nonzero
    entries of a module's or supermodule's generators.

    Returns, for each basis index reached, one word (p_1, ..., p_r) of
    positions in ``rep.generator_triples()``, applied right to left, whose
    product has the index in the support of its image of ``start``.  Words
    carry no minimality promise.
    """
    # out-edges per column: generator position, then row, in triple order
    edges: list[list[tuple[int, int]]] = [[] for _ in range(rep.dim)]
    for p, (_, _, rows, cols, _) in enumerate(rep.generator_triples()):
        for r, c in zip(rows.tolist(), cols.tolist()):
            edges[c].append((p, r))
    words: dict[int, tuple[int, ...]] = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for p, r in edges[c]:
                if r not in words:
                    words[r] = (p,) + words[c]
                    nxt.append(r)
        frontier = nxt
    return words


def reachability_closure(rep: HeckeModuleRep, seed: StandardTableau) -> frozenset[StandardTableau]:
    """All basis tableaux in the support of any generator word applied to the
    seed."""
    return frozenset(generating_words(rep, seed))


def generating_words(
    rep: HeckeModuleRep, seed: StandardTableau
) -> dict[StandardTableau, tuple[int, ...]]:
    """For each reachable tableau, one generator word taking the seed to it.

    The word (i_1, ..., i_r) applies the generators right to left, so the
    target appears in the support of pi_{i_1} ... pi_{i_r} applied to the
    seed.  Words come from breadth-first search and carry no minimality
    promise.
    """
    if seed not in rep.index:
        raise DomainError("seed is not a basis tableau")
    return {
        rep.basis[c]: tuple(p + 1 for p in word)
        for c, word in support_walk(rep, rep.index[seed]).items()
    }
