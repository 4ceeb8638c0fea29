"""Supermodules over a tableau family: marked bases, signed mark generators,
and the induced action of the 0-Hecke generators.

A basis element is a tableau together with a subset X of marked entries,
encoded as (tableau index) * 2^n + mask, with bit j-1 of the mask set when
entry j is marked.  Mark generators act by toggling one mark with a sign
given by the parity of the smaller marked entries (an extra sign appears
when the toggled mark was already present, matching an exact square of -1).
Each 0-Hecke generator acts blockwise per tableau: descent and attacking
blocks stay on the tableau, nonattacking blocks add terms on the swapped
tableau.  Each block acts on mask bits i - 1 and i only, as in the
paper's rule, which reads only the entries i and i + 1 and their marks.

A family supermodule is thus its word graph tensored with fixed 2^n blocks
that depend only on n, i and the case: pi~_i = 1 (x) ATTACK + pi_i (x) SWAP,
with pi_i the pi module's generator, the shape of the module induced from
the 0-Hecke algebra.  It stores only its family and reads the graph from
the word set.  Every supermodule check is the pi module's check under
per-n certificates of the blocks (:func:`certificates`), and nothing is
kept per word set.  The relation report is the pi module's, under a
certificate of that tensor form (:func:`_expansion_holds`), decided on
the relations of size at most 4 where the blocks are local
(:func:`_local_certificate`), and one that the rest of the suite holds
for the blocks (:func:`_supermodule_table`).  Every filtration quotient
holds where the diagonal blocks are the reference module's, and
reachability is the module's walk with every mark
(:func:`_reach_certificate`).  A failing certificate raises
TheoremMismatch.  Every block is a stack of signed partial maps in the
modules' sink-column encoding (:mod:`diagmod.hecke`): a product is a
gather, a sum is a stack, and two stacks are equal at once where they are
identical layer for layer, else where their canonical entries say so.

The reference 2^n-dimensional supermodule attached to a single composition
(the action the filtration quotients must reproduce) is built by an
independent code path in :func:`build_M_alpha`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product
from typing import NamedTuple

import numpy as np

from .compositions import (
    Composition,
    check_composition,
    composition_size,
    descent_set,
    mask_composition,
)
from .errors import DomainError, TheoremMismatch, integer
from .hecke import (
    PI,
    HeckeModuleRep,
    RelationReport,
    _module_relations,
    build_hecke_module,
    canonical_entries,
    compose_maps,
    relation_table,
    row_major,
    sink_maps,
    support_walk,
)
from .series import PEAK, FormalSum
from .tableaux import (
    StandardTableau,
    TableauFamily,
    Tableaux,
    WordSet,
    family_of,
    render_tableau,
)


@dataclass(frozen=True)
class MarkedTableau:
    """A tableau plus the set of marked entries."""

    tableau: StandardTableau
    marks: frozenset[int]

    def __post_init__(self):
        n = self.tableau.diagram.n
        message = f"marks {set(self.marks)} are not all integers in 1..{n}"
        object.__setattr__(self, "marks", frozenset(integer(j, message, 1, n) for j in self.marks))

    @property
    def parity(self) -> int:
        return len(self.marks) % 2

    def render(self) -> str:
        return render_tableau(self.tableau, self.marks)


def _mask_of(marks: frozenset[int]) -> int:
    return sum(1 << (j - 1) for j in marks)


def _marks_of(mask: int) -> frozenset[int]:
    return frozenset(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    return np.array([m.bit_count() for m in range(1 << n)], dtype=np.int64)


# ---------------------------------------------------------------------------
# the block algebra: stacks of signed partial maps on the 2^n masks


def _stack(*ops):
    """The sum of stacks: all their layers."""
    return np.concatenate([t for t, _ in ops]), np.concatenate([s for _, s in ops])


def _scaled(op, c: int):
    targets, signs = op
    return targets, signs * c


def _is_zero(op) -> bool:
    return canonical_entries(op)[2].size == 0


def _identical(a, b, sign: int = 1) -> bool:
    """Whether a and sign * b are the same stack layer for layer: the same
    shape, equal targets, and signs sign times b's.  Arrays are compared
    by their bytes, so arrays of two dtypes never match."""
    (a_targets, a_signs), (b_targets, b_signs) = a, b
    return (
        a_targets.shape == b_targets.shape
        and a_targets.tobytes() == b_targets.tobytes()
        and a_signs.tobytes() == (b_signs if sign == 1 else sign * b_signs).tobytes()
    )


def _equal(a, b, sign: int = 1) -> bool:
    """Whether a = sign * b as operators: at once where the stacks are
    identical layer for layer, else on the canonical entries of a - sign *
    b."""
    return _identical(a, b, sign) or _is_zero(_stack(a, _scaled(b, -sign)))


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


def _placed(block, n: int, rows_at: np.ndarray, cols_at: np.ndarray):
    """``(rows, cols, values)`` of a 2^n block placed at each pair of row
    and column tableaux."""
    rows, cols, values = canonical_entries(block)
    return (
        (rows + (rows_at[:, None] << n)).ravel(),
        (cols + (cols_at[:, None] << n)).ravel(),
        np.tile(values, len(rows_at)),
    )


def swap_targets(words: WordSet) -> np.ndarray:
    """Per generator i and tableau t, the tableau whose marked copies
    receive the SWAP block of pi_i from t: the word set's target where i
    is not a descent of t, else -1, as is a swap that leaves the family."""
    return np.where(words.descent, -1, words.target)


@dataclass(frozen=True)
class CliffordModuleRep:
    """A family's supermodule: its word graph tensored with the 2^n mark
    blocks.

    On the marked copies of basis tableau t, pi_i acts by its DESCENT block
    when i is a descent of t (``word_set.descent``), else by its ATTACK
    block plus the SWAP block landing on tableau ``swap_targets(words)[i -
    1, t]``, if that is not -1.
    """

    family: TableauFamily

    @property
    def basis_tableaux(self) -> Tableaux:
        return self.family.basis

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
        n, words = self.n, self.family.word_set
        out = []
        for i, (descent, swap) in enumerate(zip(words.descent, swap_targets(words)), start=1):
            blocks = _hecke_mask_blocks(n, i)
            at = [np.flatnonzero(flags) for flags in (descent, ~descent, swap >= 0)]
            parts = [
                _placed(blocks[DESCENT], n, at[0], at[0]),
                _placed(blocks[ATTACK], n, at[1], at[1]),
                _placed(blocks[SWAP], n, swap[at[2]], at[2]),
            ]
            out.append(("pi", i, *row_major(parts)))
        every = np.arange(len(self.basis_tableaux))
        for j in range(1, n + 1):
            out.append(("c", j, *row_major([_placed(_mark_blocks(n, j), n, every, every)])))
        return out

    def index_of(self, element: MarkedTableau) -> int:
        t = self.family.basis_index(element.tableau) if isinstance(element, MarkedTableau) else None
        if t is None:
            raise DomainError("tableau is not a basis tableau")
        return (t << self.n) + _mask_of(element.marks)

    def basis_element(self, index: int) -> MarkedTableau:
        index = integer(index, f"basis index {index!r} is not an integer in 0..{self.dim - 1}", 0, self.dim - 1)
        t, mask = divmod(index, 1 << self.n)
        return MarkedTableau(self.basis_tableaux[t], _marks_of(mask))


def build_clifford_module(family: TableauFamily, force: bool = False) -> CliffordModuleRep:
    """Induce the supermodule on marked tableaux from the family's action,
    behind the pi module's checks: the family is nonempty and, unless
    ``force``, ascent-compatible."""
    return CliffordModuleRep(build_hecke_module(family, PI, force).family)


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
            (label, k, *row_major([canonical_entries(op)]))
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
    pis = tuple(_reference_pi(n, i)[i in des] for i in range(1, n))
    return MAlphaRep(alpha, pis, *_reference_marks(n))


@lru_cache(maxsize=None)
def _reference_pi(n: int, i: int) -> tuple[tuple, tuple]:
    """pi_i of the reference modules of size n in which i is not, and is, a
    descent: a two-layer stack, then a one-layer one, so that indexing by
    whether i is a descent picks the module's."""
    dim = 1 << n
    bit_i, bit_j = 1 << (i - 1), 1 << i
    # rows and signs of the descent layer, then of the two ascent layers
    rows = [[dim] * (dim + 1) for _ in range(3)]
    signs = [[0] * (dim + 1) for _ in range(3)]
    for mask in range(dim):
        has_i, has_j = mask & bit_i, mask & bit_j
        if has_i and has_j:
            rows[0][mask], signs[0][mask] = mask - bit_i - bit_j, 1
        elif has_i:
            rows[0][mask], signs[0][mask] = mask - bit_i + bit_j, -1
        else:
            rows[0][mask], signs[0][mask] = mask, -1
        if has_j:
            rows[1][mask], signs[1][mask] = mask, -1
            rows[2][mask] = mask - bit_i - bit_j if has_i else mask - bit_j + bit_i
            signs[2][mask] = 1
    rows, signs = np.array(rows, dtype=np.int64), np.array(signs, dtype=np.int64)
    return (rows[1:], signs[1:]), (rows[:1], signs[:1])


@lru_cache(maxsize=None)
def _reference_marks(n: int) -> tuple[tuple, np.ndarray]:
    """The mark generators and the parity vector of every reference module
    of size n, which do not depend on the composition; the parity vector is
    read-only because it is shared.  c_j toggles mark j with the sign -1 to
    the number of marks at most j."""
    dim = 1 << n
    c_ops = []
    for j in range(1, n + 1):
        bit, upto = 1 << (j - 1), (1 << j) - 1
        rows = [mask ^ bit for mask in range(dim)]
        signs = [1 - 2 * ((mask & upto).bit_count() & 1) for mask in range(dim)]
        c_ops.append((np.array([rows + [dim]]), np.array([signs + [0]])))
    parity = np.array([mask.bit_count() & 1 for mask in range(dim)], dtype=np.int64)
    parity.flags.writeable = False
    return tuple(c_ops), parity


def _keeps_parity(block, n: int, flips: bool) -> bool:
    """Whether every nonzero entry of a 2^n block maps masks of one parity
    to the same parity (``flips`` False) or to the other (``flips`` True)."""
    par = _popcounts(n) & 1
    targets, signs = block
    live = signs[:, :-1] != 0
    # where every nonzero layer entry does, so does every entry of their sum
    if np.all(((par[targets[:, :-1] * live] != par) == flips) | ~live):
        return True
    rows, cols, _ = canonical_entries(block)
    return bool(np.all((par[rows] != par[cols]) == flips))


def _lifted(block, n: int, i: int):
    """The 2^n block acting as a 2^2 block on mask bits i - 1 and i and
    keeping the other bits."""
    targets, signs = block
    masks = np.arange(1 << n, dtype=np.int64)
    local = masks >> (i - 1) & 3
    return sink_maps(targets[:, local] << (i - 1) | masks & ~(3 << (i - 1)), signs[:, local])


@lru_cache(maxsize=None)
def _local_certificate(n: int) -> bool:
    """Whether every case block of each pi_i of size n is pi_1's of size 2
    lifted to mask bits i - 1 and i (:func:`_lifted`).  A lift keeps
    products and sums and sends only 0 to 0, so where this holds at n and 4,
    a relation of size n on i and j, the image of one of size 4 under mask
    bits 0-3 -> i - 1, i, j - 1, j, expands as that one does."""
    base = _hecke_mask_blocks(2, 1)
    return all(_equal(_lifted(base[c], n, i), _hecke_mask_blocks(n, i)[c]) for i in range(1, n) for c in base)


def _expansion(n: int, word: tuple) -> dict[tuple, tuple]:
    """The product of the pi~_g over a word of 0-based generators, leftmost
    factor first, expanded over pi~_g = 1 (x) ATTACK + pi_g (x) SWAP: for
    each monoid word of the module's pi_g, its block coefficient.  Adjacent
    pi_g pi_g reduce to -pi_g, which holds in the pi module of every word
    set, as an ascent's swap target has a descent there."""
    blocks = [_hecke_mask_blocks(n, g + 1) for g in word]
    terms: dict[tuple, list] = {}
    for picks in product((ATTACK, SWAP), repeat=len(word)):
        monoid, sign = (), 1
        for g, pick in zip(word, picks):
            if pick == SWAP and monoid[-1:] == (g,):
                sign = -sign
            elif pick == SWAP:
                monoid += (g,)
        block = reduce(compose_maps, (cases[pick] for cases, pick in zip(blocks, picks)))
        terms.setdefault(monoid, []).append(_scaled(block, sign))
    return {monoid: _stack(*ops) for monoid, ops in terms.items()}


def _expansion_holds(n: int, lhs: tuple, rhs: tuple, sign: int) -> bool:
    """Whether the supermodule relation left word = sign * right word fails
    exactly where the pi module's does.

    Both sides are expanded (:func:`_expansion`).  Every monoid word but the
    two full words must have the same coefficient on both sides.  The full
    words of a commutation or braid relation, which do not reduce, must have
    one coefficient C != 0.  The supermodule's left minus right side is then
    the module's tensored with C, zero exactly when the module's is.  A
    quadratic relation's full left word reduces, so all its words agree and
    it holds wherever the module's does, which is everywhere.
    """
    left, right = _expansion(n, lhs), _expansion(n, rhs)
    if lhs in left and rhs in right:
        full = left.pop(lhs)
        if _is_zero(full) or not _equal(full, right.pop(rhs)):
            return False
    zero = _scaled(_identity(n), 0)
    return all(_equal(left.get(w, zero), right.get(w, zero), sign) for w in left.keys() | right.keys())


class SupermoduleTable(NamedTuple):
    """What the 2^n blocks decide for every family supermodule of size n.

    ``suite`` is the relation suite after the 0-Hecke relations, in report
    order, as (message, holds) pairs; a pi-c relation or pi parity holds
    when it holds for each of pi_i's three case blocks.  ``expansion`` is
    that DESCENT = ATTACK - SWAP for every pi_i, so pi~_i = 1 (x) ATTACK +
    pi_i (x) SWAP, that the blocks are local (:func:`_local_certificate`)
    and that every relation of size min(n, 4) expands as it should
    (:func:`_expansion_holds`): each 0-Hecke relation then fails exactly
    where the pi module's does.  ``quotients`` is that the DESCENT and
    ATTACK blocks of every pi_i are the reference module's pi_i with and
    without a descent at i, and the mark blocks its c_j.
    """

    suite: tuple[tuple[str, bool], ...]
    expansion: bool
    quotients: bool


@lru_cache(maxsize=None)
def _supermodule_table(n: int) -> SupermoduleTable:
    """The table of size n, read off the blocks once.

    Every c_j is the identity on tableaux tensored with its block, so the
    relations among the c_j hold on a nonempty family iff they hold for the
    blocks.  The descent, attack and swap blocks of pi_i sit at disjoint
    block positions, while each c_j is block diagonal, so a pi-c relation
    or pi parity holding for each block holds for the whole operator of
    every family; the identity added in the (pi_i + 1) relation lands on
    the diagonal blocks only.  A filtration quotient is its tableau's
    diagonal blocks, so every quotient of size n is the reference module
    where these blocks are.
    """
    cs = [_mark_blocks(n, j) for j in range(1, n + 1)]
    pis = [_hecke_mask_blocks(n, i) for i in range(1, n)]
    suite = [(f"c[{j}]^2 != -1", _equal(compose_maps(c, c), _identity(n), -1)) for j, c in enumerate(cs, 1)]
    suite += [
        (f"c[{a}] and c[{b}] do not anticommute", _equal(compose_maps(c, d), compose_maps(d, c), -1))
        for a, c in enumerate(cs, 1)
        for b, d in enumerate(cs[a:], a + 1)
    ]
    for i, blocks in enumerate(pis, 1):
        for j, c in enumerate(cs, 1):
            if j == i:
                message, other = f"pi[{i}]c[{i}] != c[{i + 1}]pi[{i}]", cs[i]
            elif j == i + 1:
                message, other = f"(pi[{i}]+1)c[{i + 1}] != c[{i}](pi[{i}]+1)", cs[i - 1]
            else:
                message, other = f"pi[{i}] and c[{j}] do not commute", c
            plus = j == i + 1
            ops = [_stack(p, _identity(n)) if plus and case != SWAP else p for case, p in blocks.items()]
            suite.append((message, all(_equal(compose_maps(p, c), compose_maps(other, p)) for p in ops)))
    suite += [
        (f"pi[{i}] does not preserve parity", all(_keeps_parity(p, n, flips=False) for p in blocks.values()))
        for i, blocks in enumerate(pis, 1)
    ]
    suite += [(f"c[{j}] does not flip parity", _keeps_parity(c, n, flips=True)) for j, c in enumerate(cs, 1)]
    quotients = _marks_are_reference(n) and all(
        _equal(blocks[case], _reference_pi(n, i)[case == DESCENT])
        for i, blocks in enumerate(pis, 1)
        for case in (ATTACK, DESCENT)
    )
    descents = all(_equal(b[DESCENT], _stack(b[ATTACK], _scaled(b[SWAP], -1))) for b in pis)
    m = min(n, 4)  # every relation of size n is the image of one of size m
    local = _local_certificate(n) and _local_certificate(m)
    expansion = local and descents and _relations_expand(m)
    return SupermoduleTable(tuple(suite), expansion, quotients)


@lru_cache(maxsize=None)
def _relations_expand(m: int) -> bool:
    """Whether every 0-Hecke relation of size m expands as it should
    (:func:`_expansion_holds`); the tables of every n >= 4 share m = 4."""
    return all(_expansion_holds(m, *r[1:]) for r in relation_table(m - 1).relations)


def _marks_are_reference(n: int) -> bool:
    """Whether every mark block of size n is the reference module's c_j."""
    return all(_equal(_mark_blocks(n, j), c) for j, c in enumerate(_reference_marks(n)[0], 1))


def verify_clifford_relations(rep: CliffordModuleRep) -> RelationReport:
    """Exact verification of the full generator relation suite of a family
    supermodule: the pi module's report, under the table of size n
    (:func:`_supermodule_table`).  Its expansion certificate makes the pi
    module's violations the 0-Hecke ones, and the rest of the suite then
    holds on every family of that size.  The checks, their count and the
    violation messages are those of the products of the full generator
    matrices.  Where the table certifies neither, raises TheoremMismatch.
    """
    n = rep.n
    table = _supermodule_table(n)
    if not table.expansion:
        raise TheoremMismatch(f"the blocks of size {n} do not certify the 0-Hecke relations")
    failing = [message for message, holds in table.suite if not holds]
    if failing:
        raise TheoremMismatch(f"the blocks of size {n} break {'; '.join(failing)}")
    module = _module_relations(rep.family.word_set, PI)
    return RelationReport(len(relation_table(n - 1).relations + table.suite), module.violations)


def peak_characteristic(obj) -> FormalSum:
    """Sum of peak basis elements indexed by member peak sets, summed over
    the family's distinct descent masks."""
    family = family_of(obj)
    n = family.n
    peaks: dict[int, int] = {}
    for mask, count in family.descent_histogram.items():
        # the peaks: descents i > 1 with i - 1 not a descent
        peak = mask & ~(mask << 1) & ~1
        peaks[peak] = peaks.get(peak, 0) + count
    return FormalSum(PEAK, n, {mask_composition(peak, n): count for peak, count in peaks.items()})


def filtration_quotient_check(rep: CliffordModuleRep, k: int) -> bool:
    """Compare the k-th filtration quotient with the reference supermodule.

    The quotient acts on the marked copies of the k-th basis tableau with all
    swapped-tableau terms deleted, which is exactly the tableau's diagonal
    block: the descent or attack block of each pi_i, and the mark blocks.
    The mark coordinate map is then an intertwiner iff these blocks equal the
    reference module built from the tableau's descent composition, whose
    pi_i depends only on whether i is a descent: the table's ``quotients``
    certificate, under which every quotient holds.
    """
    m = len(rep.basis_tableaux)
    integer(k, f"filtration index {k!r} is not an integer in 1..{m}", 1, m)
    return not failing_quotients(rep)


def failing_quotients(rep: CliffordModuleRep) -> tuple[int, ...]:
    """The indices k in 1..m whose filtration quotient fails
    :func:`filtration_quotient_check`: none, where the table of size n
    certifies the quotients, else TheoremMismatch is raised."""
    if not _supermodule_table(rep.n).quotients:
        raise TheoremMismatch(f"the blocks of size {rep.n} do not certify the filtration quotients")
    return ()


@lru_cache(maxsize=None)
def _reach_certificate(n: int) -> bool:
    """Whether the mark blocks of size n are the reference c_j, each
    toggling one mark with a sign, so they join all masks, and no SWAP block
    has a zero column, so a swap from any mask lands on the swapped
    tableau."""
    swaps = (canonical_entries(_hecke_mask_blocks(n, i)[SWAP])[1] for i in range(1, n))
    return _marks_are_reference(n) and all(np.isin(np.arange(1 << n), cols).all() for cols in swaps)


def certificates(n: int) -> dict[str, bool]:
    """The per-n block certificates the supermodule checks answer under."""
    n = integer(n, f"size {n!r} is not an integer at least 1", 1)
    table = _supermodule_table(n)
    return {
        "reach": _reach_certificate(n),
        "local": _local_certificate(n),
        "expansion": table.expansion,
        "suite": all(holds for _, holds in table.suite),
        "quotients": table.quotients,
    }


def _reached(rep: CliffordModuleRep, seed) -> dict[int, tuple[int, ...]]:
    """The basis tableaux with marked copies in the closure of the seed, a
    marked tableau or a tableau unmarked: the pi module's walk from its
    tableau, as only SWAP blocks leave a tableau, where pi_i swaps.  Where
    :func:`_reach_certificate` holds, the closure holds all their copies."""
    if isinstance(seed, StandardTableau):
        seed = MarkedTableau(seed, frozenset())
    start = rep.index_of(seed) >> rep.n
    if not _reach_certificate(rep.n):
        raise TheoremMismatch(f"the mark and swap blocks of size {rep.n} do not certify reachability")
    return support_walk(HeckeModuleRep(rep.family, PI), start)


def clifford_reachability(rep: CliffordModuleRep, seed) -> frozenset[MarkedTableau]:
    """Closure of the seed under the supports of all generator images."""
    n = rep.n
    return frozenset(rep.basis_element((t << n) + m) for t in _reached(rep, seed) for m in range(1 << n))


def is_tableau_cyclic(rep: CliffordModuleRep, seed) -> bool:
    """True iff the closure of the (unmarked) seed is the whole basis."""
    return len(_reached(rep, seed)) == len(rep.basis_tableaux)
