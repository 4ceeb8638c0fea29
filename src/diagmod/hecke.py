"""Matrix representations of the 0-Hecke action on a tableau family.

Two generator conventions are supported.  In the pi convention, a generator
sends a tableau to minus itself on a descent, to zero on an attacking ascent,
and to the swapped tableau on a nonattacking ascent; the quadratic relation
is pi^2 = -pi.  The hat convention fixes tableaux on ascents, kills attacking
descents, and swaps nonattacking descents; the quadratic relation is
hat^2 = hat.  The commutation and braid relations are shared.

The basis is ordered by descending inversion count of the reading word (ties
by the word itself), so every swap image lands on an earlier basis element
and each generator matrix is triangular with diagonal entries in {-1, 0}
(pi) or {0, 1} (hat).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import DomainError, IncompatibleFamilyError
from .matrices import OperatorMatrix
from .series import FUNDAMENTAL, FormalSum
from .compositions import comp_n
from .tableaux import (
    StandardTableau,
    TableauFamily,
    descent_set_tab,
    inversions,
    is_ascent_compatible,
    is_descent_compatible,
    swap_entries,
)

PI = "pi"
HAT = "hat"


def basis_sort_key(tab: StandardTableau):
    return (-inversions(tab.reading_word), tab.reading_word)


@dataclass(frozen=True)
class HeckeModuleRep:
    """An ordered tableau basis with one matrix per generator."""

    family: TableauFamily
    convention: str
    basis: tuple[StandardTableau, ...]
    pi: tuple[OperatorMatrix, ...]

    @cached_property
    def index(self) -> dict[StandardTableau, int]:
        return {t: i for i, t in enumerate(self.basis)}

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_hecke_module(
    family: TableauFamily, convention: str = PI, force: bool = False
) -> HeckeModuleRep:
    """Build the generator matrices for a family in the given convention.

    The compatibility gate rejects families on which the action is not
    guaranteed to satisfy the relations; ``force`` bypasses the gate (it
    exists only so tests can exhibit what the gate protects against).
    """
    if convention not in (PI, HAT):
        raise DomainError(f"unknown convention {convention!r}")
    if not family.members:
        raise DomainError(f"family {family.family_tag} is empty")
    if not force:
        compat = (
            is_ascent_compatible(family)
            if convention == PI
            else is_descent_compatible(family)
        )
        if not compat.ok:
            mode = "ascent" if convention == PI else "descent"
            raise IncompatibleFamilyError(mode, compat.witness)

    basis = tuple(sorted(family.members, key=basis_sort_key))
    index = {t: i for i, t in enumerate(basis)}
    n = family.n
    mats = []
    for i in range(1, n):
        rows, cols, vals = [], [], []
        for c, tab in enumerate(basis):
            is_descent = i in descent_set_tab(tab)
            if convention == PI:
                if is_descent:
                    rows.append(c), cols.append(c), vals.append(-1)
                else:
                    swapped = swap_entries(tab, i)
                    if swapped in family:
                        rows.append(index[swapped]), cols.append(c), vals.append(1)
            else:
                if not is_descent:
                    rows.append(c), cols.append(c), vals.append(1)
                else:
                    swapped = swap_entries(tab, i)
                    if swapped in family:
                        rows.append(index[swapped]), cols.append(c), vals.append(1)
        mats.append(OperatorMatrix.from_triples(len(basis), rows, cols, vals))
    return HeckeModuleRep(family, convention, basis, tuple(mats))


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


def zero_hecke_violations(
    mats: tuple[OperatorMatrix, ...], quad_sign: int, label: str = "pi"
) -> tuple[int, list[str]]:
    """Check the quadratic, commutation, and braid relations by exact matrix
    products.  ``quad_sign`` is -1 for the pi convention, +1 for hat."""
    relations = zero_hecke_relations(len(mats), quad_sign, label)
    violations = []
    for message, lhs, rhs, sign in relations:
        left = reduce(operator.matmul, (mats[g] for g in lhs))
        right = reduce(operator.matmul, (mats[g] for g in rhs))
        if left != (right if sign == 1 else right.scaled(sign)):
            violations.append(message)
    return len(relations), violations


def verify_hecke_relations(rep: HeckeModuleRep) -> RelationReport:
    quad_sign = -1 if rep.convention == PI else 1
    checked, violations = zero_hecke_violations(rep.pi, quad_sign, rep.convention)
    return RelationReport(checked, tuple(violations))


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
    if seed not in rep.index:
        raise DomainError("seed is not a basis tableau")
    start = rep.index[seed]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for mat in rep.pi:
                for r in mat.column_support(c):
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return frozenset(rep.basis[i] for i in seen)


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
    while frontier:
        nxt = []
        for c in frontier:
            for gen, mat in enumerate(rep.pi, start=1):
                for r in mat.column_support(c):
                    if r not in words:
                        words[r] = (gen,) + words[c]
                        nxt.append(r)
        frontier = nxt
    return {rep.basis[i]: w for i, w in words.items()}
