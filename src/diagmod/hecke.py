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
read off the family's word graph.  A product of such maps is a gather, which
:func:`compose_maps` also does for the stacked maps of the supermodule blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, IncompatibleFamilyError
from .series import FUNDAMENTAL, FormalSum
from .compositions import comp_n
from .tableaux import (
    StandardTableau,
    TableauFamily,
    descent_set_tab,
    is_ascent_compatible,
    is_descent_compatible,
)

PI = "pi"
HAT = "hat"


@dataclass(frozen=True)
class HeckeModuleRep:
    """An ordered tableau basis with one signed partial map per generator.

    ``maps[i - 1]`` is the pair ``(target, sign)`` of arrays for generator i:
    basis element c goes to ``sign[c]`` times basis element ``target[c]``,
    or to zero when ``target[c]`` is -1 (and ``sign[c]`` is 0).
    """

    family: TableauFamily
    convention: str
    basis: tuple[StandardTableau, ...]
    maps: tuple[tuple[np.ndarray, np.ndarray], ...]

    @cached_property
    def index(self) -> dict[StandardTableau, int]:
        return {t: i for i, t in enumerate(self.basis)}

    def generator_triples(self) -> list[tuple]:
        """``(convention, i, rows, cols, values)`` of each generator matrix,
        entry (r, c) being the coefficient of basis element r in the image of
        c, sorted by row, then column."""
        out = []
        for i, (target, sign) in enumerate(self.maps, start=1):
            cols = np.flatnonzero((target >= 0) & (sign != 0))
            order = np.lexsort((cols, target[cols]))
            cols = cols[order]
            out.append((self.convention, i, target[cols], cols, sign[cols]))
        return out

    @property
    def dim(self) -> int:
        return len(self.basis)


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
    return HeckeModuleRep(family, convention, graph.basis, tuple(zip(targets, signs)))


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


def _word_map(maps, word) -> tuple[np.ndarray, np.ndarray]:
    """The one-layer stack of a nonempty generator word, leftmost factor
    first."""
    product = maps[word[0]]
    for g in word[1:]:
        product = compose_maps(product, maps[g])
    return product


def verify_hecke_relations(rep: HeckeModuleRep) -> RelationReport:
    """Check the quadratic, commutation, and braid relations exactly.

    A product of signed partial maps is one again, so each side of a
    relation is composed by gathers and the two are compared as arrays.
    """
    dim = rep.dim
    maps = [
        (np.append(np.where(target < 0, dim, target), dim)[None], np.append(sign, 0)[None])
        for target, sign in rep.maps
    ]
    quad_sign = -1 if rep.convention == PI else 1
    relations = zero_hecke_relations(len(maps), quad_sign, rep.convention)
    violations = []
    for message, lhs, rhs, sign in relations:
        (left, left_sign), (right, right_sign) = _word_map(maps, lhs), _word_map(maps, rhs)
        if not (np.array_equal(left, right) and np.array_equal(left_sign, sign * right_sign)):
            violations.append(message)
    return RelationReport(len(relations), tuple(violations))


def qsym_characteristic(obj) -> FormalSum:
    """Sum of fundamental basis elements indexed by member descent sets."""
    family = obj if isinstance(obj, TableauFamily) else obj.family
    n = family.n
    terms: dict[tuple[int, ...], int] = {}
    for tab in family:
        alpha = comp_n(descent_set_tab(tab), n)
        terms[alpha] = terms.get(alpha, 0) + 1
    return FormalSum(FUNDAMENTAL, n, terms)


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
    start = rep.index[seed]
    words: dict[int, tuple[int, ...]] = {start: ()}
    frontier = [start]
    targets = [target.tolist() for target, _ in rep.maps]
    while frontier:
        nxt = []
        for c in frontier:
            for gen, images in enumerate(targets, start=1):
                r = images[c]
                if r >= 0 and r not in words:
                    words[r] = (gen,) + words[c]
                    nxt.append(r)
        frontier = nxt
    return {rep.basis[i]: w for i, w in words.items()}
