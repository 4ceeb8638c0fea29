"""Supermodules over a tableau family: marked bases, signed mark generators,
and the induced action of the 0-Hecke generators.

A basis element is a tableau together with a subset X of marked entries,
encoded as (tableau index) * 2^n + mask, with bit j-1 of the mask set when
entry j is marked.  Mark generators act by toggling one mark with a sign
given by the parity of the smaller marked entries (an extra sign appears
when the toggled mark was already present, matching an exact square of -1).
Each 0-Hecke generator acts blockwise per tableau: descent and attacking
blocks stay on the tableau, nonattacking blocks add terms on the swapped
tableau.

A family supermodule is thus its Hecke graph (the case and swap target of
each generator on each tableau) tensored with fixed 2^n blocks that depend
only on n, i and the case.  It stores the graph; the relations and the
filtration quotients are checked on the cached blocks, and the |F| 2^n
matrices are built only when read.

The reference 2^n-dimensional supermodule attached to a single composition
(the action the filtration quotients must reproduce) is built by an
independent code path in :func:`build_M_alpha`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .compositions import (
    Composition,
    check_composition,
    comp_n,
    composition_size,
    descent_set,
    peak_set,
)
from .errors import DomainError, IncompatibleFamilyError
from .hecke import RelationReport, zero_hecke_relations
from .matrices import OperatorMatrix
from .series import PEAK, FormalSum
from .tableaux import (
    StandardTableau,
    TableauFamily,
    descent_set_tab,
    is_ascent_compatible,
    render_tableau,
)


@dataclass(frozen=True)
class MarkedTableau:
    """A tableau plus the set of marked entries."""

    tableau: StandardTableau
    marks: frozenset[int]

    def __post_init__(self):
        n = self.tableau.diagram.n
        marks = frozenset(self.marks)
        if any(not 1 <= j <= n for j in marks):
            raise DomainError(f"marks {sorted(marks)} out of range 1..{n}")
        object.__setattr__(self, "marks", marks)

    @property
    def parity(self) -> int:
        return len(self.marks) % 2

    def render(self) -> str:
        return render_tableau(self.tableau, self.marks)


def _mask_of(marks: frozenset[int]) -> int:
    mask = 0
    for j in marks:
        mask |= 1 << (j - 1)
    return mask


def _marks_of(mask: int) -> frozenset[int]:
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    size = 1 << n
    pc = np.zeros(size, dtype=np.int64)
    for m in range(1, size):
        pc[m] = pc[m >> 1] + (m & 1)
    return pc


# The three blocks of a 0-Hecke generator on one tableau's marked copies.
DESCENT, ATTACK, SWAP = 0, 1, 2


@lru_cache(maxsize=None)
def _hecke_mask_blocks(n: int, i: int):
    """Per-mask index/value arrays for the three generator cases at value i.

    Returns a dict keyed by DESCENT, ATTACK and SWAP; the ATTACK arrays are
    also the tableau-diagonal part of the nonattacking case, and SWAP is its
    part landing on the swapped tableau's block.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    bit_i = np.int64(1 << (i - 1))
    bit_j = np.int64(1 << i)
    has_i = (masks & bit_i) != 0
    has_j = (masks & bit_j) != 0

    rows_d = np.where(has_i & ~has_j, masks - bit_i + bit_j, masks)
    vals_d = np.where(has_i & has_j, np.int64(1), np.int64(-1))
    rows_d = np.where(has_i & has_j, masks - bit_i - bit_j, rows_d)
    descent = (rows_d, masks, vals_d)

    sel = has_j  # the two cases with the higher mark present
    att_cols = np.concatenate([masks[sel], masks[sel]])
    att_rows = np.concatenate(
        [masks[sel], np.where(has_i[sel], masks[sel] - bit_i - bit_j, masks[sel] - bit_j + bit_i)]
    )
    att_vals = np.concatenate(
        [np.full(sel.sum(), -1, dtype=np.int64), np.full(sel.sum(), 1, dtype=np.int64)]
    )
    attack = (att_rows, att_cols, att_vals)

    rows_s = masks.copy()
    rows_s = np.where(has_i & ~has_j, masks - bit_i + bit_j, rows_s)
    rows_s = np.where(~has_i & has_j, masks - bit_j + bit_i, rows_s)
    vals_s = np.where(has_i & has_j, np.int64(-1), np.int64(1))
    swap = (rows_s, masks, vals_s)
    return {DESCENT: descent, ATTACK: attack, SWAP: swap}


@lru_cache(maxsize=None)
def _mark_blocks(n: int, j: int):
    """Index/value arrays for toggling mark j on all masks."""
    masks = np.arange(1 << n, dtype=np.int64)
    bit = np.int64(1 << (j - 1))
    below = _popcounts(n)[masks & (bit - 1)]
    present = (masks & bit) != 0
    signs = np.where((below + present.astype(np.int64)) % 2 == 0, np.int64(1), np.int64(-1))
    return masks ^ bit, masks, signs


@lru_cache(maxsize=None)
def _hecke_block(n: int, i: int, case: int) -> OperatorMatrix:
    return OperatorMatrix.from_triples(1 << n, *_hecke_mask_blocks(n, i)[case])


@lru_cache(maxsize=None)
def _mark_block(n: int, j: int) -> OperatorMatrix:
    return OperatorMatrix.from_triples(1 << n, *_mark_blocks(n, j))


@dataclass(frozen=True)
class CliffordModuleRep:
    """Ordered marked basis plus the family's Hecke graph.

    ``hecke_graph[i - 1][t]`` is ``(case, target)`` for generator i on basis
    tableau t: ``case`` is DESCENT or ATTACK, naming the 2^n block of pi_i on
    the tableau's own marked copies, and ``target`` is the index of the
    tableau with i and i+1 swapped, which receives the SWAP block, or -1 when
    i is a descent or the swap leaves the family.  The generator matrices
    ``pi`` and ``c`` are built from the graph only when read.
    """

    family: TableauFamily
    basis_tableaux: tuple[StandardTableau, ...]
    hecke_graph: tuple[tuple[tuple[int, int], ...], ...]

    @cached_property
    def tableau_index(self) -> dict[StandardTableau, int]:
        return {t: i for i, t in enumerate(self.basis_tableaux)}

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def dim(self) -> int:
        return len(self.basis_tableaux) << self.n

    @cached_property
    def pi(self) -> tuple[OperatorMatrix, ...]:
        block = 1 << self.n
        mats = []
        for i, edges in enumerate(self.hecke_graph, start=1):
            blocks = _hecke_mask_blocks(self.n, i)
            rows, cols, vals = [], [], []
            for t, (case, target) in enumerate(edges):
                for part, u in ((case, t), (SWAP, target)):
                    if u >= 0:
                        r, c, v = blocks[part]
                        rows.append(r + u * block)
                        cols.append(c + t * block)
                        vals.append(v)
            mats.append(
                OperatorMatrix.from_triples(
                    self.dim, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
                )
            )
        return tuple(mats)

    @cached_property
    def c(self) -> tuple[OperatorMatrix, ...]:
        m, block = len(self.basis_tableaux), 1 << self.n
        offs = np.arange(m, dtype=np.int64) * block
        mats = []
        for j in range(1, self.n + 1):
            r, c, v = _mark_blocks(self.n, j)
            rows = (r[None, :] + offs[:, None]).ravel()
            cols = (c[None, :] + offs[:, None]).ravel()
            mats.append(OperatorMatrix.from_triples(self.dim, rows, cols, np.tile(v, m)))
        return tuple(mats)

    @cached_property
    def parity(self) -> np.ndarray:
        return np.tile(_popcounts(self.n) & 1, len(self.basis_tableaux))

    def index_of(self, element: MarkedTableau) -> int:
        t = self.tableau_index.get(element.tableau)
        if t is None:
            raise DomainError("tableau is not a basis tableau")
        return (t << self.n) + _mask_of(element.marks)

    def basis_element(self, index: int) -> MarkedTableau:
        t, mask = divmod(index, 1 << self.n)
        return MarkedTableau(self.basis_tableaux[t], _marks_of(mask))


def build_clifford_module(family: TableauFamily, force: bool = False) -> CliffordModuleRep:
    """Induce the supermodule on marked tableaux from the family's action."""
    if not family.members:
        raise DomainError(f"family {family.family_tag} is empty")
    if not force:
        compat = is_ascent_compatible(family)
        if not compat.ok:
            raise IncompatibleFamilyError("ascent", compat.witness)
    graph = family.word_graph
    cases = np.where(graph.descent, DESCENT, ATTACK).tolist()
    targets = np.where(graph.descent, -1, graph.target).tolist()
    hecke_graph = tuple(tuple(zip(case, target)) for case, target in zip(cases, targets))
    return CliffordModuleRep(family, graph.basis, hecke_graph)


@dataclass(frozen=True)
class MAlphaRep:
    """The 2^n-dimensional supermodule attached to one composition."""

    alpha: Composition
    pi: tuple[OperatorMatrix, ...]
    c: tuple[OperatorMatrix, ...]
    parity: np.ndarray

    @property
    def n(self) -> int:
        return composition_size(self.alpha)

    @property
    def dim(self) -> int:
        return 1 << self.n


def build_M_alpha(alpha: Composition) -> MAlphaRep:
    """Build the reference supermodule directly from its case formulas.

    Kept as straight per-mask case analysis, deliberately independent of the
    vectorized block assembly used for family supermodules.
    """
    alpha = check_composition(alpha)
    n = composition_size(alpha)
    if n < 1:
        raise DomainError("the composition must have size at least 1")
    des = descent_set(alpha)
    dim = 1 << n

    pi_mats = []
    for i in range(1, n):
        bit_i, bit_j = 1 << (i - 1), 1 << i
        rows, cols, vals = [], [], []
        for mask in range(dim):
            has_i, has_j = bool(mask & bit_i), bool(mask & bit_j)
            if i in des:
                if has_i and not has_j:
                    rows.append(mask - bit_i + bit_j), cols.append(mask), vals.append(-1)
                elif has_i and has_j:
                    rows.append(mask - bit_i - bit_j), cols.append(mask), vals.append(1)
                else:
                    rows.append(mask), cols.append(mask), vals.append(-1)
            else:
                if not has_j:
                    continue
                rows.append(mask), cols.append(mask), vals.append(-1)
                if has_i:
                    rows.append(mask - bit_i - bit_j), cols.append(mask), vals.append(1)
                else:
                    rows.append(mask - bit_j + bit_i), cols.append(mask), vals.append(1)
        pi_mats.append(OperatorMatrix.from_triples(dim, rows, cols, vals))

    c_mats, parity = _reference_marks(n)
    return MAlphaRep(alpha, tuple(pi_mats), c_mats, parity)


@lru_cache(maxsize=None)
def _reference_marks(n: int) -> tuple[tuple[OperatorMatrix, ...], np.ndarray]:
    """The mark matrices and the parity vector of every reference module of
    size n, which do not depend on the composition; the parity vector is
    read-only because it is shared."""
    dim = 1 << n
    c_mats = []
    for j in range(1, n + 1):
        bit = 1 << (j - 1)
        rows, cols, vals = [], [], []
        for mask in range(dim):
            below = bin(mask & (bit - 1)).count("1")
            sign = -1 if (below + (1 if mask & bit else 0)) % 2 else 1
            rows.append(mask ^ bit), cols.append(mask), vals.append(sign)
        c_mats.append(OperatorMatrix.from_triples(dim, rows, cols, vals))
    parity = np.array([bin(m).count("1") & 1 for m in range(dim)], dtype=np.int64)
    parity.flags.writeable = False
    return tuple(c_mats), parity


def _keeps_parity(mat: OperatorMatrix, n: int, flips: bool) -> bool:
    """Whether every nonzero entry of a 2^n block maps masks of one parity
    to the same parity (``flips`` False) or to the other (``flips`` True)."""
    par = _popcounts(n) & 1
    rows, cols, _ = mat.coo_arrays()
    return bool(np.all((par[rows] != par[cols]) == flips))


@lru_cache(maxsize=None)
def _mark_violations(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Violations of the relations among the c_j, then of c parity.

    Every c_j is the identity on tableaux tensored with its 2^n block, so on
    a nonempty family these hold iff they hold for the blocks.
    """
    eye = OperatorMatrix.identity(1 << n)
    cs = [_mark_block(n, j) for j in range(1, n + 1)]
    relations = [f"c[{j}]^2 != -1" for j, cj in enumerate(cs, start=1) if cj @ cj != eye.scaled(-1)]
    for a in range(n):
        for b in range(a + 1, n):
            if cs[a] @ cs[b] != (cs[b] @ cs[a]).scaled(-1):
                relations.append(f"c[{a + 1}] and c[{b + 1}] do not anticommute")
    parity = [
        f"c[{j}] does not flip parity"
        for j, cj in enumerate(cs, start=1)
        if not _keeps_parity(cj, n, flips=True)
    ]
    return tuple(relations), tuple(parity)


@lru_cache(maxsize=None)
def _pi_mark_relation_holds(n: int, i: int, j: int, case: int) -> bool:
    """The pi_i-c_j relation on the case's block of pi_i.

    The descent, attack and swap blocks of pi_i sit at disjoint block
    positions, while each c_j is block diagonal, so a relation holds for the
    whole matrix iff it holds for each block present; the identity added in
    the (pi_i + 1) relation lands on the diagonal blocks only.
    """
    p = _hecke_block(n, i, case)
    if j == i:
        return p @ _mark_block(n, i) == _mark_block(n, i + 1) @ p
    if j == i + 1:
        if case != SWAP:
            p = p + OperatorMatrix.identity(1 << n)
        return p @ _mark_block(n, i + 1) == _mark_block(n, i) @ p
    return p @ _mark_block(n, j) == _mark_block(n, j) @ p


@lru_cache(maxsize=None)
def _hecke_parity_holds(n: int, i: int, case: int) -> bool:
    return _keeps_parity(_hecke_block(n, i, case), n, flips=False)


def _path_sum(n: int, paths) -> OperatorMatrix:
    """Sum over the paths of their block products, leftmost factor first."""
    total = OperatorMatrix.zero(1 << n)
    for steps in paths:
        blocks = (_hecke_block(n, step // 3 + 1, step % 3) for step in steps)
        total = total + reduce(operator.matmul, blocks)
    return total


@lru_cache(maxsize=None)
def _paths_agree(n: int, signature: tuple, sign: int) -> bool:
    """Whether, at every end tableau of the signature, the left paths' block
    products sum to ``sign`` times the right paths' ones."""
    return all(_path_sum(n, lhs) == _path_sum(n, rhs).scaled(sign) for lhs, rhs in signature)


def _paths(graph, word, t: int) -> list[tuple[int, tuple]]:
    """(end tableau, steps) of every path of the generator word from tableau
    t; a step is 3 * generator + case, leftmost factor first."""
    paths = [(t, ())]
    for g in reversed(word):
        edges = graph[g]
        grown = []
        for u, steps in paths:
            case, target = edges[u]
            grown.append((u, (3 * g + case,) + steps))
            if target >= 0:
                grown.append((target, (3 * g + SWAP,) + steps))
        paths = grown
    return paths


def _relation_holds(rep: CliffordModuleRep, lhs, rhs, sign: int) -> bool:
    """Whether left word = sign * right word as operators, checked column
    block by column block.

    Applied to tableau t's marked copies, a word of pi's is the sum over its
    at most 2^len paths of the path's block product, landing on the path's
    end tableau.  The verdict depends only on the case sequences grouped by
    end tableau, which is memoised.
    """
    graph = rep.hecke_graph
    for t in range(len(rep.basis_tableaux)):
        ends: dict[int, tuple[list, list]] = {}
        for side, word in enumerate((lhs, rhs)):
            for u, steps in _paths(graph, word, t):
                ends.setdefault(u, ([], []))[side].append(steps)
        signature = tuple((tuple(left), tuple(right)) for left, right in ends.values())
        if not _paths_agree(rep.n, signature, sign):
            return False
    return True


def verify_clifford_relations(rep: CliffordModuleRep) -> RelationReport:
    """Exact verification of the full generator relation suite of a family
    supermodule, on its 2^n blocks rather than its |F| 2^n matrices.

    The relations among the c_j are checked once per n, each pi-c relation
    and pi parity once per block case present, and the 0-Hecke relations by
    expanding both sides over paths in the Hecke graph (see
    :func:`_relation_holds`).  The checks, their count and the violation
    messages are those of the matrix products on ``rep.pi`` and ``rep.c``.
    """
    n = rep.n
    relations = zero_hecke_relations(n - 1, -1)
    checked = len(relations)
    violations = [
        message for message, lhs, rhs, sign in relations if not _relation_holds(rep, lhs, rhs, sign)
    ]
    mark_relations, mark_parity = _mark_violations(n)
    checked += n + n * (n - 1) // 2
    violations.extend(mark_relations)
    cases = [
        {case for case, _ in edges} | ({SWAP} if any(u >= 0 for _, u in edges) else set())
        for edges in rep.hecke_graph
    ]
    for i, present in enumerate(cases, start=1):
        for j in range(1, n + 1):
            checked += 1
            if all(_pi_mark_relation_holds(n, i, j, case) for case in present):
                continue
            if j == i:
                violations.append(f"pi[{i}]c[{i}] != c[{i + 1}]pi[{i}]")
            elif j == i + 1:
                violations.append(f"(pi[{i}]+1)c[{i + 1}] != c[{i}](pi[{i}]+1)")
            else:
                violations.append(f"pi[{i}] and c[{j}] do not commute")
    checked += (n - 1) + n
    violations.extend(
        f"pi[{i}] does not preserve parity"
        for i, present in enumerate(cases, start=1)
        if not all(_hecke_parity_holds(n, i, case) for case in present)
    )
    violations.extend(mark_parity)
    return RelationReport(checked, tuple(violations))


def peak_characteristic(obj) -> FormalSum:
    """Sum of peak basis elements indexed by member peak sets."""
    family = obj if isinstance(obj, TableauFamily) else obj.family
    n = family.n
    terms: dict[Composition, int] = {}
    for tab in family:
        alpha = comp_n(peak_set(descent_set_tab(tab)), n)
        terms[alpha] = terms.get(alpha, 0) + 1
    return FormalSum(PEAK, n, terms)


def filtration_quotient_check(rep: CliffordModuleRep, k: int) -> bool:
    """Compare the k-th filtration quotient with the reference supermodule.

    The quotient acts on the marked copies of the k-th basis tableau with all
    swapped-tableau terms deleted, which is exactly the tableau's diagonal
    block: the descent or attack block of each pi_i, and the mark blocks.
    The mark coordinate map is then an intertwiner iff these blocks equal the
    reference module built from the tableau's descent composition.
    """
    m = len(rep.basis_tableaux)
    if not 1 <= k <= m:
        raise DomainError(f"filtration index {k} out of range 1..{m}")
    descents = [i for i, edges in enumerate(rep.hecke_graph, start=1) if edges[k - 1][0] == DESCENT]
    return _quotient_holds(comp_n(descents, rep.n))


@lru_cache(maxsize=None)
def _quotient_holds(alpha: Composition) -> bool:
    n = composition_size(alpha)
    des = descent_set(alpha)
    return all(
        _hecke_block(n, i, DESCENT if i in des else ATTACK) == target
        for i, target in enumerate(build_M_alpha(alpha).pi, start=1)
    ) and _marks_match_reference(n)


@lru_cache(maxsize=None)
def _marks_match_reference(n: int) -> bool:
    c_mats, _ = _reference_marks(n)
    return all(_mark_block(n, j) == target for j, target in enumerate(c_mats, start=1))


def clifford_reachability(rep: CliffordModuleRep, seed) -> frozenset[MarkedTableau]:
    """Closure of the seed under the supports of all generator images."""
    if isinstance(seed, StandardTableau):
        seed = MarkedTableau(seed, frozenset())
    start = rep.index_of(seed)
    seen = {start}
    frontier = [start]
    mats = rep.pi + rep.c
    while frontier:
        nxt = []
        for idx in frontier:
            for mat in mats:
                for r in mat.column_support(idx):
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return frozenset(rep.basis_element(i) for i in seen)


def is_tableau_cyclic(rep: CliffordModuleRep, seed) -> bool:
    """True iff the closure of the (unmarked) seed is the whole basis."""
    return len(clifford_reachability(rep, seed)) == rep.dim
