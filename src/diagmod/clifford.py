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

A family supermodule is thus its word graph (whether i is a descent of
each tableau, and the swap target) tensored with fixed 2^n blocks that
depend only on n, i and the case.  It stores only its family and reads the
graph from it; the relations and the filtration quotients are checked on the
cached blocks.  Every block has at most two signed entries per column, so it
is a stack of signed partial maps in the sink-column encoding of the module's
generators (see :func:`~diagmod.hecke.sink_maps` and
:func:`~diagmod.hecke.compose_maps`): a product is a gather, a sum is a
stack, and equality is decided on the canonical integer entries.

The reference 2^n-dimensional supermodule attached to a single composition
(the action the filtration quotients must reproduce) is built by an
independent code path in :func:`build_M_alpha`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .compositions import (
    Composition,
    check_composition,
    composition_size,
    descent_set,
    mask_composition,
)
from .errors import DomainError, IncompatibleFamilyError
from .hecke import RelationReport, compose_maps, relation_table, sink_maps, support_walk
from .series import PEAK, FormalSum
from .tableaux import (
    StandardTableau,
    TableauFamily,
    Tableaux,
    WordGraph,
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


# ---------------------------------------------------------------------------
# the block algebra: stacks of signed partial maps on the 2^n masks


def _stack(*ops):
    """The sum of stacks: all their layers."""
    return np.concatenate([t for t, _ in ops]), np.concatenate([s for _, s in ops])


def _scaled(op, c: int):
    targets, signs = op
    return targets, signs * c


def _canonical(op) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _is_zero(op) -> bool:
    return _canonical(op)[2].size == 0


def _equal(a, b, sign: int = 1) -> bool:
    """Whether a = sign * b as operators."""
    return _is_zero(_stack(a, _scaled(b, -sign)))


def _map(targets, signs):
    """A one-layer stack from per-mask arrays, zeros sent to the sink."""
    return sink_maps(targets[None], signs[None])


@lru_cache(maxsize=None)
def _identity(n: int):
    size = 1 << n
    return _map(np.arange(size, dtype=np.int64), np.ones(size, dtype=np.int64))


# The three blocks of a 0-Hecke generator on one tableau's marked copies.
DESCENT, ATTACK, SWAP = 0, 1, 2


@lru_cache(maxsize=None)
def _hecke_mask_blocks(n: int, i: int):
    """The blocks of the three generator cases at value i, keyed by DESCENT,
    ATTACK and SWAP.  ATTACK is also the tableau-diagonal part of the
    nonattacking case, and SWAP its part landing on the swapped tableau's
    block; ATTACK has two layers, the others one."""
    masks = np.arange(1 << n, dtype=np.int64)
    both = (1 << (i - 1)) | (1 << i)
    has_i = (masks & (1 << (i - 1))) != 0
    has_j = (masks & (1 << i)) != 0
    toggled = masks ^ both  # moves a lone mark across, or clears both marks
    one, minus = np.ones_like(masks), -np.ones_like(masks)

    descent = _map(np.where(has_i, toggled, masks), np.where(has_i & has_j, one, minus))
    zero = np.zeros_like(masks)
    attack = _stack(
        _map(masks, np.where(has_j, minus, zero)), _map(toggled, np.where(has_j, one, zero))
    )
    swap = _map(np.where(has_i != has_j, toggled, masks), np.where(has_i & has_j, minus, one))
    return {DESCENT: descent, ATTACK: attack, SWAP: swap}


@lru_cache(maxsize=None)
def _mark_blocks(n: int, j: int):
    """The block toggling mark j on all masks."""
    masks = np.arange(1 << n, dtype=np.int64)
    bit = np.int64(1 << (j - 1))
    below = _popcounts(n)[masks & (bit - 1)]
    present = (masks & bit) != 0
    signs = np.where((below + present.astype(np.int64)) % 2 == 0, np.int64(1), np.int64(-1))
    return _map(masks ^ bit, signs)


def _row_major(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated ``(rows, cols, values)`` parts sorted by row, then
    column."""
    rows, cols, values = (np.concatenate(field) for field in zip(*parts))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], values[order]


def _placed(block, n: int, rows_at: np.ndarray, cols_at: np.ndarray):
    """``(rows, cols, values)`` of a 2^n block placed at each pair of row
    and column tableaux."""
    rows, cols, values = _canonical(block)
    return (
        (rows + (rows_at[:, None] << n)).ravel(),
        (cols + (cols_at[:, None] << n)).ravel(),
        np.tile(values, len(rows_at)),
    )


def swap_targets(graph: WordGraph) -> np.ndarray:
    """Per generator i and tableau t, the tableau whose marked copies
    receive the SWAP block of pi_i from t: the word graph's target where i
    is not a descent of t, else -1, as is a swap that leaves the family."""
    return np.where(graph.descent, -1, graph.target)


@dataclass(frozen=True)
class CliffordModuleRep:
    """A family's supermodule: its word graph tensored with the 2^n mark
    blocks.

    On the marked copies of basis tableau t, pi_i acts by its DESCENT block
    when i is a descent of t (``word_graph.descent``), else by its ATTACK
    block plus the SWAP block landing on tableau ``swap_targets(graph)[i -
    1, t]``, if that is not -1.
    """

    family: TableauFamily

    @property
    def basis_tableaux(self) -> Tableaux:
        return self.family.word_graph.basis

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
    def parity(self) -> np.ndarray:
        return np.tile(_popcounts(self.n) & 1, len(self.basis_tableaux))

    def generator_triples(self) -> list[tuple]:
        """``("pi", i, rows, cols, values)`` of each pi_i, then ``("c", j,
        ...)`` of each c_j, on the |F| 2^n marked basis, sorted by row, then
        column: each block's entries placed at its tableaux."""
        n, graph = self.n, self.family.word_graph
        out = []
        for i, (descent, swap) in enumerate(zip(graph.descent, swap_targets(graph)), start=1):
            blocks = _hecke_mask_blocks(n, i)
            at = [np.flatnonzero(flags) for flags in (descent, ~descent, swap >= 0)]
            parts = [
                _placed(blocks[DESCENT], n, at[0], at[0]),
                _placed(blocks[ATTACK], n, at[1], at[1]),
                _placed(blocks[SWAP], n, swap[at[2]], at[2]),
            ]
            out.append(("pi", i, *_row_major(parts)))
        every = np.arange(len(self.basis_tableaux))
        for j in range(1, n + 1):
            out.append(("c", j, *_row_major([_placed(_mark_blocks(n, j), n, every, every)])))
        return out

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
    return CliffordModuleRep(family)


@dataclass(frozen=True)
class MAlphaRep:
    """The 2^n-dimensional supermodule attached to one composition, its
    generators as stacks of signed partial maps."""

    alpha: Composition
    pi: tuple
    c: tuple
    parity: np.ndarray

    @property
    def n(self) -> int:
        return composition_size(self.alpha)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def generator_triples(self) -> list[tuple]:
        """``("pi", i, rows, cols, values)`` of each pi_i, then ``("c", j,
        ...)`` of each c_j, sorted by row, then column."""
        return [
            (label, k, *_row_major([_canonical(op)]))
            for label, ops in (("pi", self.pi), ("c", self.c))
            for k, op in enumerate(ops, start=1)
        ]


def build_M_alpha(alpha: Composition) -> MAlphaRep:
    """Build the reference supermodule directly from its case formulas.

    Kept as straight per-mask case analysis, deliberately independent of the
    vectorized blocks used for family supermodules.  Each pi_i depends only
    on n, i and whether i is a descent of alpha, and is built once for them.
    """
    alpha = check_composition(alpha)
    n = composition_size(alpha)
    if n < 1:
        raise DomainError("the composition must have size at least 1")
    des = descent_set(alpha)
    pis = tuple(_reference_pi(n, i, i in des) for i in range(1, n))
    return MAlphaRep(alpha, pis, *_reference_marks(n))


@lru_cache(maxsize=None)
def _reference_pi(n: int, i: int, descent: bool):
    """pi_i of the reference modules of size n in which i is, or is not, a
    descent, as a two-layer stack."""
    dim = 1 << n
    bit_i, bit_j = 1 << (i - 1), 1 << i
    rows = [[dim] * (dim + 1) for _ in range(2)]
    signs = [[0] * (dim + 1) for _ in range(2)]
    for mask in range(dim):
        has_i, has_j = bool(mask & bit_i), bool(mask & bit_j)
        if descent:
            if has_i and not has_j:
                rows[0][mask], signs[0][mask] = mask - bit_i + bit_j, -1
            elif has_i and has_j:
                rows[0][mask], signs[0][mask] = mask - bit_i - bit_j, 1
            else:
                rows[0][mask], signs[0][mask] = mask, -1
        elif has_j:
            rows[0][mask], signs[0][mask] = mask, -1
            rows[1][mask] = mask - bit_i - bit_j if has_i else mask - bit_j + bit_i
            signs[1][mask] = 1
    return np.array(rows), np.array(signs)


@lru_cache(maxsize=None)
def _reference_marks(n: int) -> tuple[tuple, np.ndarray]:
    """The mark generators and the parity vector of every reference module
    of size n, which do not depend on the composition; the parity vector is
    read-only because it is shared."""
    dim = 1 << n
    c_ops = []
    for j in range(1, n + 1):
        bit = 1 << (j - 1)
        rows, signs = [], []
        for mask in range(dim):
            below = bin(mask & (bit - 1)).count("1")
            rows.append(mask ^ bit)
            signs.append(-1 if (below + (1 if mask & bit else 0)) % 2 else 1)
        c_ops.append((np.array([rows + [dim]]), np.array([signs + [0]])))
    parity = np.array([bin(m).count("1") & 1 for m in range(dim)], dtype=np.int64)
    parity.flags.writeable = False
    return tuple(c_ops), parity


def _keeps_parity(block, n: int, flips: bool) -> bool:
    """Whether every nonzero entry of a 2^n block maps masks of one parity
    to the same parity (``flips`` False) or to the other (``flips`` True)."""
    par = _popcounts(n) & 1
    rows, cols, _ = _canonical(block)
    return bool(np.all((par[rows] != par[cols]) == flips))


@lru_cache(maxsize=None)
def _mark_violations(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Violations of the relations among the c_j, then of c parity.

    Every c_j is the identity on tableaux tensored with its 2^n block, so on
    a nonempty family these hold iff they hold for the blocks.
    """
    cs = [_mark_blocks(n, j) for j in range(1, n + 1)]
    relations = [
        f"c[{j}]^2 != -1"
        for j, cj in enumerate(cs, start=1)
        if not _equal(compose_maps(cj, cj), _identity(n), -1)
    ]
    for a in range(n):
        for b in range(a + 1, n):
            if not _equal(compose_maps(cs[a], cs[b]), compose_maps(cs[b], cs[a]), -1):
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
    whole operator iff it holds for each block present; the identity added
    in the (pi_i + 1) relation lands on the diagonal blocks only.
    """
    p = _hecke_mask_blocks(n, i)[case]
    if j == i:
        return _equal(compose_maps(p, _mark_blocks(n, i)), compose_maps(_mark_blocks(n, i + 1), p))
    if j == i + 1:
        if case != SWAP:
            p = _stack(p, _identity(n))
        return _equal(compose_maps(p, _mark_blocks(n, i + 1)), compose_maps(_mark_blocks(n, i), p))
    return _equal(compose_maps(p, _mark_blocks(n, j)), compose_maps(_mark_blocks(n, j), p))


@lru_cache(maxsize=None)
def _hecke_parity_holds(n: int, i: int, case: int) -> bool:
    return _keeps_parity(_hecke_mask_blocks(n, i)[case], n, flips=False)


def _path_product(n: int, steps):
    """The block product of one path, leftmost factor first."""
    return reduce(compose_maps, (_hecke_mask_blocks(n, step // 3 + 1)[step % 3] for step in steps))


@lru_cache(maxsize=None)
def _paths_agree(n: int, signature: tuple, sign: int) -> bool:
    """Whether, at every end tableau of the signature, the left paths' block
    products sum to ``sign`` times the right paths' ones."""
    return all(
        _is_zero(
            _stack(
                *(_path_product(n, steps) for steps in lhs),
                *(_scaled(_path_product(n, steps), -sign) for steps in rhs),
            )
        )
        for lhs, rhs in signature
    )


def _paths(cases, swaps, word, t: int) -> list[tuple[int, tuple]]:
    """(end tableau, steps) of every path of the generator word from tableau
    t; a step is 3 * generator + case, leftmost factor first."""
    paths = [(t, ())]
    for g in reversed(word):
        grown = []
        for u, steps in paths:
            grown.append((u, (3 * g + cases[g][u],) + steps))
            if swaps[g][u] >= 0:
                grown.append((swaps[g][u], (3 * g + SWAP,) + steps))
        paths = grown
    return paths


def _relation_holds(n: int, cases, swaps, lhs, rhs, sign: int) -> bool:
    """Whether left word = sign * right word as operators, checked column
    block by column block.

    ``cases[g][t]`` and ``swaps[g][t]`` are the case of generator g + 1 on
    tableau t's own block and its swap target, as lists.  Applied to tableau
    t's marked copies, a word of pi's is the sum over its at most 2^len
    paths of the path's block product, landing on the path's end tableau.
    The verdict depends only on the case sequences grouped by end tableau,
    which is memoised.
    """
    for t in range(len(cases[0])):
        ends: dict[int, tuple[list, list]] = {}
        for side, word in enumerate((lhs, rhs)):
            for u, steps in _paths(cases, swaps, word, t):
                ends.setdefault(u, ([], []))[side].append(steps)
        signature = tuple((tuple(left), tuple(right)) for left, right in ends.values())
        if not _paths_agree(n, signature, sign):
            return False
    return True


def verify_clifford_relations(rep: CliffordModuleRep) -> RelationReport:
    """Exact verification of the full generator relation suite of a family
    supermodule, on its 2^n blocks rather than its |F| 2^n operators.

    The relations among the c_j are checked once per n, each pi-c relation
    and pi parity once per block case present, and the 0-Hecke relations by
    expanding both sides over paths in the word graph (see
    :func:`_relation_holds`).  The checks, their count and the violation
    messages are those of the products of the full generator matrices.
    """
    n, graph = rep.n, rep.family.word_graph
    swaps = swap_targets(graph)
    edges = np.where(graph.descent, DESCENT, ATTACK).tolist(), swaps.tolist()
    relations = relation_table(n - 1).relations
    checked = len(relations)
    violations = [
        message
        for message, lhs, rhs, sign in relations
        if not _relation_holds(n, *edges, lhs, rhs, sign)
    ]
    mark_relations, mark_parity = _mark_violations(n)
    checked += n + n * (n - 1) // 2
    violations.extend(mark_relations)
    cases = [set(row) | ({SWAP} if max(targets) >= 0 else set()) for row, targets in zip(*edges)]
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
    """Sum of peak basis elements indexed by member peak sets, summed over
    the family's distinct descent masks."""
    family = obj if isinstance(obj, TableauFamily) else obj.family
    n = family.n
    terms: dict[Composition, int] = {}
    for mask, count in family.descent_histogram.items():
        # the peaks: descents i > 1 with i - 1 not a descent
        alpha = mask_composition(mask & ~(mask << 1) & ~1, n)
        terms[alpha] = terms.get(alpha, 0) + count
    return FormalSum(PEAK, n, terms)


def filtration_quotient_check(rep: CliffordModuleRep, k: int) -> bool:
    """Compare the k-th filtration quotient with the reference supermodule.

    The quotient acts on the marked copies of the k-th basis tableau with all
    swapped-tableau terms deleted, which is exactly the tableau's diagonal
    block: the descent or attack block of each pi_i, and the mark blocks.
    The mark coordinate map is then an intertwiner iff these blocks equal the
    reference module built from the tableau's descent composition, whose
    pi_i depends only on whether i is a descent.
    """
    m = len(rep.basis_tableaux)
    if not 1 <= k <= m:
        raise DomainError(f"filtration index {k} out of range 1..{m}")
    return all(
        _quotient_holds(rep.n, i, descent)
        for i, descent in enumerate(rep.family.word_graph.descent[:, k - 1].tolist(), start=1)
    ) and _marks_match_reference(rep.n)


@lru_cache(maxsize=None)
def _quotient_holds(n: int, i: int, descent: bool) -> bool:
    block = _hecke_mask_blocks(n, i)[DESCENT if descent else ATTACK]
    return _equal(block, _reference_pi(n, i, descent))


@lru_cache(maxsize=None)
def _marks_match_reference(n: int) -> bool:
    c_ops, _ = _reference_marks(n)
    return all(_equal(_mark_blocks(n, j), target) for j, target in enumerate(c_ops, start=1))


def _seed_walk(rep: CliffordModuleRep, seed) -> dict[int, tuple[int, ...]]:
    """The support walk from a marked tableau, or from a tableau unmarked."""
    if isinstance(seed, StandardTableau):
        seed = MarkedTableau(seed, frozenset())
    return support_walk(rep, rep.index_of(seed))


def clifford_reachability(rep: CliffordModuleRep, seed) -> frozenset[MarkedTableau]:
    """Closure of the seed under the supports of all generator images."""
    return frozenset(map(rep.basis_element, _seed_walk(rep, seed)))


def is_tableau_cyclic(rep: CliffordModuleRep, seed) -> bool:
    """True iff the closure of the (unmarked) seed is the whole basis."""
    return len(_seed_walk(rep, seed)) == rep.dim
