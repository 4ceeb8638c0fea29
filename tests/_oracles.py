"""Independent brute-force re-derivations used as test oracles.

Everything here is computed from scratch: box sets, membership conditions,
positional descent rules, and attacking classifications are restated as
one-shot predicates over complete fillings and filtered over all n!
assignments.  Nothing is shared with the library's enumerator or its
reading-word machinery.

The library's first enumerator, a backtracking insertion over the kind
recipes with the triple and prefix-peak rules as checks on a box -> entry
map, is kept here as a second oracle for the bitmask search that replaced
it, together with the former per-tableau characteristics.  It keeps srct's
own recipe (``srct_recipe``): the reversed triple rule, which the library
replaced by complementing syrt families, now lives only in these oracles.
It keeps the recipes of srit, sret and syrt too (``OWN_RECIPES``), whose
reading orders the library no longer states: it reads those kinds off
sit, set and syct backwards.
That bitmask search, a recursive depth-first search over the compiled
rules, is kept as ``depth_first_enumerate``, the oracle for the
level-by-level enumerator that replaced it.  The former recursive
enumerators of peak compositions and of strict and weak partitions, which
the library replaced by filters of the composition enumerator, are kept as
``recursive_shapes``.

The library keeps no matrices, only signed partial maps and 2^n blocks.
Here its generators are materialised as ``scipy.sparse`` integer matrices
from each rep's ``generator_triples``, and the supermodule relation suite,
the filtration quotient comparison, the unshift intertwiner and
reachability are restated as exact products, block slices and column
supports of those matrices, the reference for the library's block-factored
and graph checks.  Likewise the 0-Hecke generator matrices, the
compatibility gate and the 0-Hecke relation check are restated tableau by
tableau, with a validated swapped tableau per (tableau, generator) and exact
matrix products, the reference for the library's word graph and signed
partial maps.  The interval witness's count of nonattacking ascents, which
the library now reads from word graphs, is restated on one-line words.

The library's former fast paths stay here as second oracles for the ones
that replaced them: the word graph that looked up each swapped positions
row as raw bytes, one sorted search per generator, the word set that
counted inversions one reading position at a time, the relation check
that composed the words of each relation kind as a separate batch, the
supermodule's 0-Hecke relation check that expanded both sides of each
relation over its paths in the word graph at every basis tableau, the
supermodule table that kept per block case where each pi-c relation fails
and was read at the cases each word set uses, the formal-sum check that
re-checked every index of every sum, and the characteristic steps that
read every composition through ``comp_n`` and every peak index through the
set statistics, with theta summing every like term as a Fraction.  The
word set that keyed each member by its entry positions, sorted the keys
and searched the swapped keys in basis order is kept as
``position_key_word_set``, the oracle for the reading-word keys that
replaced it.  The block equality that always sorted canonical entries,
which the library now tries only where two stacks differ layer for layer,
is kept as ``canonical_equal``: every block comparison here uses it, and
``canonical_certificates`` decides the library's per-n table with it.
"""

import functools
import itertools
import operator
from fractions import Fraction

import numpy as np
from scipy import sparse

from diagmod import clifford, families
from diagmod.clifford import ATTACK, DESCENT, SWAP, build_M_alpha
from diagmod.compositions import check_composition, comp_n, composition_size, descent_set, peak_set
from diagmod.errors import DomainError
from diagmod.hecke import (
    RelationReport,
    canonical_entries,
    compose_maps,
    relation_table,
    zero_hecke_relations,
)
from diagmod.series import FUNDAMENTAL, PEAK, FormalSum
from diagmod.tableaux import (
    Diagram,
    StandardTableau,
    TableauFamily,
    WordSet,
    descent_set_tab,
    inversions,
    swap_entries,
)


def _positions(words: np.ndarray) -> np.ndarray:
    """``positions[t, v - 1]`` is the reading position of the entry v in row t."""
    m, n = words.shape
    positions = np.empty((m, n), dtype=np.int16)
    positions[np.arange(m)[:, None], words - 1] = np.arange(n, dtype=np.int16)
    return positions


def matrix(dim, rows, cols, values):
    """A square integer CSC matrix from triples, duplicates summed."""
    values = np.asarray(values, dtype=np.int64)
    return sparse.csc_matrix((values, (np.asarray(rows), np.asarray(cols))), shape=(dim, dim))


def same(a, b):
    return (a - b).count_nonzero() == 0


def triples(mat):
    """Sorted (row, col, value) triples of the nonzero entries."""
    coo = mat.tocoo()
    return sorted((int(r), int(c), int(v)) for r, c, v in zip(coo.row, coo.col, coo.data) if v)


def _support(mat):
    """Rows and columns of the nonzero entries."""
    coo = mat.tocoo()
    coo.eliminate_zeros()
    return coo.row, coo.col


def column(mat, c):
    """Nonzero (row, value) pairs of one column of a CSC matrix."""
    lo, hi = mat.indptr[c], mat.indptr[c + 1]
    return [(int(r), int(v)) for r, v in zip(mat.indices[lo:hi], mat.data[lo:hi]) if v]


def materialised(rep, label):
    """The generator matrices a rep emits under one label (``pi``, ``hat``
    or ``c``), in order."""
    return [
        matrix(rep.dim, rows, cols, values)
        for name, _, rows, cols, values in rep.generator_triples()
        if name == label
    ]


def _boxes(kind, shape):
    if kind == "ssht":
        return [(c, r) for r, part in enumerate(shape, 1) for c in range(r, r + part)]
    if kind == "rib":
        boxes, start = [], 1
        for r, part in enumerate(shape, 1):
            boxes.extend((c, r) for c in range(start, start + part))
            start += part - 1
        return boxes
    return [(c, r) for r, part in enumerate(shape, 1) for c in range(1, part + 1)]


def _rows_increase(m):
    return all(
        m[(c, r)] < m[(c2, r2)]
        for (c, r) in m
        for (c2, r2) in m
        if r2 == r and c2 > c
    )


def _rows_decrease(m):
    return all(
        m[(c, r)] > m[(c2, r2)]
        for (c, r) in m
        for (c2, r2) in m
        if r2 == r and c2 > c
    )


def _columns_increase_up(m, only_first=False):
    return all(
        m[(c, r)] < m[(c2, r2)]
        for (c, r) in m
        for (c2, r2) in m
        if c2 == c and r2 > r and (not only_first or c == 1)
    )


def _columns_increase_down(m):
    return all(
        m[(c, r)] > m[(c2, r2)]
        for (c, r) in m
        for (c2, r2) in m
        if c2 == c and r2 > r
    )


def _first_column_pattern(m, sigma):
    ell = len(sigma)
    entries = [m[(1, r)] for r in range(1, ell + 1)]
    ranks = [sorted(entries).index(e) + 1 for e in entries]
    return tuple(ranks) == tuple(sigma)


def _syct_triple(m, boxset):
    for (c, r), a in m.items():
        for (c2, r2), b in m.items():
            if c2 == c + 1 and r2 < r and a < b:
                if (c + 1, r) not in boxset or m[(c + 1, r)] >= b:
                    return False
    return True


def _srct_triple(m, boxset):
    for (c, r), a in m.items():
        for (c2, r2), b in m.items():
            if c2 == c + 1 and r2 > r and a > b:
                if (c + 1, r) not in boxset or m[(c + 1, r)] <= b:
                    return False
    return True


def _prefix_peak(m, nrows, n):
    for k in range(1, n + 1):
        counts = [0] * (nrows + 1)
        for (c, r), e in m.items():
            if e <= k:
                counts[r] += 1
        top = max((r for r in range(1, nrows + 1) if counts[r]), default=0)
        for r in range(1, top):
            if counts[r] < 2:
                return False
    return True


def oracle_members(kind, shape, sigma=None):
    """All legal fillings, as frozensets of (box, entry) pairs."""
    boxes = _boxes(kind, shape)
    boxset = set(boxes)
    n = len(boxes)
    nrows = len(shape)
    if sigma is None:
        sigma = tuple(range(1, nrows + 1))
    out = set()
    for perm in itertools.permutations(range(1, n + 1)):
        m = dict(zip(boxes, perm))
        if kind == "spct":
            ok = _rows_increase(m) and _first_column_pattern(m, sigma) and _prefix_peak(m, nrows, n)
        elif kind == "syct":
            ok = _rows_increase(m) and _first_column_pattern(m, sigma) and _syct_triple(m, boxset)
        elif kind == "spyct":
            ok = (
                _rows_increase(m)
                and _first_column_pattern(m, sigma)
                and _syct_triple(m, boxset)
                and _prefix_peak(m, nrows, n)
            )
        elif kind in ("ssht", "syt", "set", "sret"):
            ok = _rows_increase(m) and _columns_increase_up(m)
        elif kind in ("sit", "srit"):
            ok = _rows_increase(m) and _columns_increase_up(m, only_first=True)
        elif kind == "srct":
            ok = _rows_decrease(m) and _first_column_pattern(m, sigma) and _srct_triple(m, boxset)
        elif kind == "syrt":
            ok = _rows_increase(m) and _first_column_pattern(m, sigma) and _syct_triple(m, boxset)
        elif kind == "rib":
            ok = _rows_increase(m) and _columns_increase_down(m)
        else:
            raise ValueError(kind)
        if ok:
            out.add(frozenset(m.items()))
    return out


def _syct_triple_check(boxset):
    """Placing an entry into box (c, r') finalizes every comparison against
    already-filled boxes (c-1, r) with r > r'; each such smaller neighbour
    forces the box to its right to exist and to be filled already."""
    rows_by_col = {}
    for c, r in boxset:
        rows_by_col.setdefault(c, []).append(r)

    def check(filled, box, entry):
        cb, rb = box
        if cb < 2:
            return True
        for r in rows_by_col.get(cb - 1, ()):
            if r > rb and (cb - 1, r) in filled:
                if (cb, r) not in boxset or (cb, r) not in filled:
                    return False
        return True

    return check


def _srct_triple_check(boxset):
    """Reversed triple rule: an entry a at (c, r) larger than b at (c+1, r')
    with r < r' forces (c+1, r) to exist and to exceed b.  All triggers fire
    when a is placed (b, being smaller, is already present)."""
    rows_by_col = {}
    for c, r in boxset:
        rows_by_col.setdefault(c, []).append(r)

    def check(filled, box, entry):
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


def _prefix_peak_check(nrows):
    """After each placement the occupied row counts must form the diagram of
    a peak composition: nonempty rows contiguous from the bottom, and every
    row below the topmost nonempty one holding at least 2 entries."""

    def check(filled, box, entry):
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


def _enumerate_fillings(boxes, edges, checks):
    """Backtracking insertion of 1..n: a box may receive the next entry once
    all its precedence predecessors are filled and the dynamic checks pass."""
    n = len(boxes)
    preds = {b: () for b in boxes}
    for a, b in edges:
        preds[b] = preds[b] + (a,)
    filled = {}

    def rec(k):
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


def srct_recipe(shape, sigma):
    """srct's own recipe, which the library replaced by the complement of
    syrt: rows decrease left-right, the first column follows sigma upward,
    and the reversed triple rule holds; columns are read bottom-up from the
    rightmost leftwards, then the first column in decreasing sigma rank."""
    boxes = families.composition_diagram(shape)
    boxset = frozenset(boxes)
    rank_rows = sorted(range(1, len(shape) + 1), key=lambda r: sigma[r - 1])
    edges = [((c + 1, r), (c, r)) for c, r in boxes if (c + 1, r) in boxset]
    edges += [((1, lo), (1, hi)) for lo, hi in zip(rank_rows, rank_rows[1:])]
    rest = sorted((b for b in boxes if b[0] > 1), key=lambda b: (-b[0], b[1]))
    reading = tuple(rest) + tuple((1, r) for r in reversed(rank_rows))
    return boxes, reading, edges, [_srct_triple_check(boxset)]


def _read_rows_bottom_up_rl(boxes, sigma):
    """Rows right to left, bottom row first."""
    return tuple(sorted(boxes, key=lambda b: (b[1], -b[0])))


def _read_syrt(boxes, sigma):
    """Columns top-down from the rightmost leftwards, then the first column
    bottom-up in increasing sigma rank."""
    rest = sorted((b for b in boxes if b[0] > 1), key=lambda b: (-b[0], -b[1]))
    return tuple(rest + sorted((b for b in boxes if b[0] == 1), key=lambda b: sigma[b[1] - 1]))


# The recipes of srit, sret and syrt, which the library replaced by reading
# sit, set and syct backwards: kind -> (column order, reading order, rules),
# on the composition diagram with rows increasing left-right.
OWN_RECIPES = {
    "srit": ("first", _read_rows_bottom_up_rl, ()),
    "sret": ("up", _read_rows_bottom_up_rl, ()),
    "syrt": ("first", _read_syrt, (families.TRIPLE,)),
}


def own_recipe(kind, shape, sigma):
    """(boxes, reading order, precedence edges, rule names) of a kind of
    ``OWN_RECIPES``."""
    columns, read, rules = OWN_RECIPES[str(kind)]
    boxes = families.composition_diagram(shape)
    edges = families._row_edges(boxes)
    if columns == "up":
        edges += families._column_edges_up(boxes)
    else:
        edges += families._first_column_edges(len(shape), sigma)
    return boxes, read(boxes, sigma), edges, rules


def backtracking_family(kind, shape, sigma=None):
    """The family as the former backtracking enumerator built it: every
    filling as a tableau, on the library's kind recipe (diagram, reading
    order, precedence edges and rule names), or for srct, srit, sret and
    syrt on their own."""
    kind, shape = families.FamilyKind(kind), tuple(shape)
    effective = sigma if sigma is not None else tuple(range(1, len(shape) + 1))
    if kind is families.FamilyKind.SRCT:
        boxes, reading, edges, checks = srct_recipe(shape, effective)
    else:
        recipe = own_recipe if str(kind) in OWN_RECIPES else families._kind_recipe
        boxes, reading, edges, rules = recipe(kind, shape, effective)
        factories = {
            families.TRIPLE: lambda: _syct_triple_check(frozenset(boxes)),
            families.PREFIX_PEAK: lambda: _prefix_peak_check(len(shape)),
        }
        checks = [factories[rule]() for rule in rules]
    diagram = Diagram(boxes, reading)
    members = tuple(
        StandardTableau.from_box_map(diagram, m) for m in _enumerate_fillings(boxes, edges, checks)
    )
    return TableauFamily(diagram, members, "backtracking", kind.value, shape, sigma)


def depth_first_enumerate(diagram, rules):
    """The library's former enumerator: every legal filling as its reading
    word, one row of an (m, n) word array sorted by reading word, with each
    member's descent mask (bit i-1 set when i is a descent).
    It reads the fields of ``families._Rules`` by name.

    A depth-first search places the entries 1..n one at a time over the mask
    of filled boxes, trying the boxes whose predecessors are all filled.
    Placing k at reading position p makes k-1 a descent when p comes before
    the position of k-1.  The entries, indexed like ``diagram.boxes``, are
    read along ``diagram.reading_positions`` into words.
    """
    n = diagram.n
    full = (1 << n) - 1
    boxes = tuple(zip(range(n), rules.unlocks, rules.triples, rules.rows, rules.reading_pos))
    entry = [0] * n
    found: list[list[int]] = []
    masks: list[int] = []

    def place(k: int, filled: int, ready: int, last: int, mask: int) -> None:
        if filled == full:
            found.append(entry[:])
            masks.append(mask)
            return
        todo = ready
        while todo:
            bit = todo & -todo
            todo ^= bit
            b, unlocked, triple, rows, p = boxes[bit.bit_length() - 1]
            if triple:
                trigger, required = triple
                if (filled & trigger) << 1 & ~(filled & required):
                    continue
            if rows:
                own, below = rows
                if below and not filled & own and (filled & below).bit_count() < 2:
                    continue
            entry[b] = k
            now, after = filled | bit, ready ^ bit
            for later, preds in unlocked:
                if preds & now == preds:
                    after |= later
            place(k + 1, now, after, p, mask | 1 << (k - 2) if p < last else mask)

    place(1, 0, rules.start, -1, 0)
    entries = np.array(found, dtype=np.min_scalar_type(n)).reshape(len(found), n)
    words = entries[:, diagram.reading_positions]
    if len(found) < 2:
        return words, tuple(masks)
    order = np.lexsort(words.T[::-1])
    return words[order], tuple(masks[k] for k in order.tolist())


def tableau_characteristics(family):
    """(fundamental, peak) characteristics summed tableau by tableau from
    each member's descent set."""
    n = family.n
    fundamental, peak = {}, {}
    for tab in family:
        des = descent_set_tab(tab)
        alpha, beta = comp_n(des, n), comp_n(peak_set(des), n)
        fundamental[alpha] = fundamental.get(alpha, 0) + 1
        peak[beta] = peak.get(beta, 0) + 1
    return FormalSum(FUNDAMENTAL, n, fundamental), FormalSum(PEAK, n, peak)


def _recursive_peak_compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        if first == n:
            yield (n,)
        elif first >= 2:
            for rest in _recursive_peak_compositions(n - first):
                yield (first,) + rest


def _recursive_partitions(m, max_part, strict):
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in _recursive_partitions(m - first, first - strict, strict):
            yield (first,) + rest


def recursive_shapes(n):
    """Peak compositions, strict partitions and partitions of n, each in
    descending lexicographic order, as the former recursive enumerators
    listed them."""
    return (
        list(_recursive_peak_compositions(n)),
        list(_recursive_partitions(n, n, strict=True)),
        list(_recursive_partitions(n, n, strict=False)),
    )


def positional_descents(kind, tab_map, n):
    """Descent sets from the positional rules stated for each family."""
    box_of = {e: b for b, e in tab_map.items()}
    out = set()
    for i in range(1, n):
        (ci, ri), (cj, rj) = box_of[i], box_of[i + 1]
        if kind == "spct":
            is_descent = cj < ci or (cj == ci and rj < ri)
        elif kind in ("syct", "spyct"):
            is_descent = cj <= ci
        elif kind == "ssht":
            is_descent = ri < rj
        elif kind in ("syt", "sit", "set"):
            is_descent = rj > ri
        elif kind in ("srit", "sret"):
            is_descent = rj <= ri
        elif kind == "srct":
            is_descent = cj >= ci
        elif kind == "syrt":
            is_descent = cj > ci
        elif kind == "rib":
            is_descent = ri > rj
        else:
            raise ValueError(kind)
        if is_descent:
            out.add(i)
    return frozenset(out)


def closed_form_attacking(kind, tab_map, i):
    """The stated positional attacking criteria.

    For pi-native kinds the input i is an ascent; for hat-native kinds it is
    a descent.  Returns True when the swap must leave the family.
    """
    box_of = {e: b for b, e in tab_map.items()}
    (ci, ri), (cj, rj) = box_of[i], box_of[i + 1]
    if kind in ("spct", "ssht", "syct", "spyct", "syt"):
        return rj == ri and cj == ci + 1
    if kind == "rib":
        return rj == ri
    if kind == "sit":
        return ci == 1 and cj == 1
    if kind == "set":
        return ci == cj
    if kind in ("srit", "sret", "syrt"):
        return rj == ri and cj == ci + 1
    if kind == "srct":
        return (
            (ci == 1 and cj == 1)
            or (cj == ci and ci > 1 and rj < ri)
            or (cj == ci + 1 and rj > ri)
        )
    raise ValueError(kind)


def materialised_clifford_relations(rep):
    """The supermodule relation suite by exact products of the materialised
    generator matrices, for family supermodules and reference modules
    alike."""
    checked, violations = 0, []
    pis, cs = materialised(rep, "pi"), materialised(rep, "c")
    k = len(pis)
    for i in range(k):
        checked += 1
        if not same(pis[i] @ pis[i], -pis[i]):
            violations.append(f"pi[{i + 1}]^2 != -1*pi[{i + 1}]")
    for i in range(k):
        for j in range(i + 2, k):
            checked += 1
            if not same(pis[i] @ pis[j], pis[j] @ pis[i]):
                violations.append(f"pi[{i + 1}] and pi[{j + 1}] do not commute")
    for i in range(k - 1):
        checked += 1
        if not same(pis[i] @ pis[i + 1] @ pis[i], pis[i + 1] @ pis[i] @ pis[i + 1]):
            violations.append(f"braid fails at pi[{i + 1}], pi[{i + 2}]")
    eye = sparse.identity(rep.dim, dtype=np.int64, format="csc")
    for j, cj in enumerate(cs, start=1):
        checked += 1
        if not same(cj @ cj, -eye):
            violations.append(f"c[{j}]^2 != -1")
    for a in range(len(cs)):
        for b in range(a + 1, len(cs)):
            checked += 1
            if not same(cs[a] @ cs[b], -(cs[b] @ cs[a])):
                violations.append(f"c[{a + 1}] and c[{b + 1}] do not anticommute")
    for i, p in enumerate(pis, start=1):
        for j, cj in enumerate(cs, start=1):
            checked += 1
            if j == i:
                if not same(p @ cj, cs[i] @ p):
                    violations.append(f"pi[{i}]c[{i}] != c[{i + 1}]pi[{i}]")
            elif j == i + 1:
                if not same((p + eye) @ cs[i], cs[i - 1] @ (p + eye)):
                    violations.append(f"(pi[{i}]+1)c[{i + 1}] != c[{i}](pi[{i}]+1)")
            else:
                if not same(p @ cj, cj @ p):
                    violations.append(f"pi[{i}] and c[{j}] do not commute")
    par = rep.parity
    for i, mat in enumerate(pis, start=1):
        rows, cols = _support(mat)
        if rows.size and not np.all(par[rows] == par[cols]):
            violations.append(f"pi[{i}] does not preserve parity")
    for j, mat in enumerate(cs, start=1):
        rows, cols = _support(mat)
        if rows.size and not np.all(par[rows] != par[cols]):
            violations.append(f"c[{j}] does not flip parity")
    checked += len(pis) + len(cs)
    return RelationReport(checked, tuple(violations))


@functools.lru_cache(maxsize=None)
def _reference_matrices(alpha):
    ref = build_M_alpha(alpha)
    return materialised(ref, "pi") + materialised(ref, "c")


def materialised_quotient_checks(rep):
    """For each basis tableau, whether its diagonal block of every
    materialised generator equals the reference module of its descent
    composition."""
    mats = materialised(rep, "pi") + materialised(rep, "c")
    verdicts = []
    for k, tab in enumerate(rep.basis_tableaux):
        lo, hi = k << rep.n, (k + 1) << rep.n
        ref = _reference_matrices(comp_n(descent_set_tab(tab), rep.n))
        verdicts.append(all(same(mine[lo:hi, lo:hi], target) for mine, target in zip(mats, ref)))
    return tuple(verdicts)


def materialised_intertwiner(rep_a, rep_b, pairing):
    """Exact matrix identity P A = B P for every generator, with P the
    permutation matrix sending marked basis index t * 2^n + mask of A to
    pairing[t] * 2^n + mask of B."""
    if rep_a.dim != rep_b.dim:
        return False
    size = 1 << rep_a.n
    cols = np.arange(rep_a.dim)
    rows = np.asarray(pairing)[cols // size] * size + cols % size
    P = matrix(rep_a.dim, rows, cols, np.ones(rep_a.dim))
    return all(
        same(P @ A, B @ P)
        for label in ("pi", "c")
        for A, B in zip(materialised(rep_a, label), materialised(rep_b, label))
    )


def materialised_reachability(rep, starts):
    """For each start index, the basis indices in its closure under the
    column supports of every materialised generator; the generators are
    materialised once for all the starts, stacked one above the other, so
    that row r of the stack is row r mod dim of one of them."""
    dim = rep.dim
    stack = sparse.vstack(
        [matrix(dim, rows, cols, values) for _, _, rows, cols, values in rep.generator_triples()]
    ).tocsc()
    closures = []
    for start in starts:
        seen, frontier = {start}, [start]
        while frontier:
            nxt = []
            for idx in frontier:
                for r in {r % dim for r, _ in column(stack, idx)}:
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        closures.append(seen)
    return closures


def _basis(family):
    return sorted(family.members, key=lambda t: (-inversions(t.reading_word), t.reading_word))


def oracle_compatibility(family, mode):
    """(ok, witness) of the ascent- or descent-compatibility scan over the
    module basis, with the attacking status of each swap decided by building
    the swapped tableau and testing family membership."""
    statuses = {}
    for tab in _basis(family):
        pos = {v: p + 1 for p, v in enumerate(tab.reading_word)}
        des = descent_set_tab(tab)
        for i in range(1, family.n):
            if (i in des) != (mode == "descent"):
                continue
            pair = tuple(sorted((pos[i], pos[i + 1])))
            attacking = swap_entries(tab, i) not in family
            if pair in statuses:
                prev_attacking, prev_tab = statuses[pair]
                if prev_attacking != attacking:
                    return False, (prev_tab, tab, pair[0], pair[1])
            else:
                statuses[pair] = (attacking, tab)
    return True, None


def oracle_hecke_matrices(family, convention):
    """(basis, generator matrices) of the 0-Hecke action in the pi or hat
    convention, with no compatibility gate."""
    basis = _basis(family)
    index = {t: c for c, t in enumerate(basis)}
    mats = []
    for i in range(1, family.n):
        rows, cols, vals = [], [], []
        for c, tab in enumerate(basis):
            is_descent = i in descent_set_tab(tab)
            if is_descent == (convention == "pi"):
                rows.append(c), cols.append(c), vals.append(-1 if convention == "pi" else 1)
            else:
                swapped = swap_entries(tab, i)
                if swapped in family:
                    rows.append(index[swapped]), cols.append(c), vals.append(1)
        mats.append(matrix(len(basis), rows, cols, vals))
    return tuple(basis), mats


def product_hecke_relations(mats, convention):
    """The 0-Hecke relation report by exact products of the matrices."""
    relations = zero_hecke_relations(len(mats), convention)
    violations = []
    for message, lhs, rhs, sign in relations:
        left = functools.reduce(operator.matmul, (mats[g] for g in lhs))
        right = functools.reduce(operator.matmul, (mats[g] for g in rhs))
        if not same(left, sign * right):
            violations.append(message)
    return RelationReport(len(relations), tuple(violations))


def interval_nonattacking_counts(interval):
    """Per member of a weak-order interval, the number of ascents i (i left
    of i+1 in the one-line word) whose exchange of i and i+1 stays in the
    interval; the library's former hand count for the interval witness."""
    member_set = set(interval.members)
    counts = []
    for g in interval.members:
        count = 0
        for i in range(1, len(g)):
            a, b = g.index(i), g.index(i + 1)
            if a < b:
                swapped = list(g)
                swapped[a], swapped[b] = i + 1, i
                count += tuple(swapped) in member_set
        counts.append(count)
    return counts


def byte_row_word_graph(family):
    """(basis order, positions, descent, target) of the family's word graph,
    each swapped positions row looked up as raw bytes among the sorted rows,
    one search per generator; the library's former word graph."""
    words = family.words.astype(np.int16)
    m, n = words.shape
    inversion_counts = sum((words[:, p, None] > words[:, p + 1 :]).sum(axis=1) for p in range(n))
    order = np.argsort(-inversion_counts, kind="stable")
    positions = np.empty((m, n), dtype=np.int16)
    positions[np.arange(m)[:, None], words[order] - 1] = np.arange(n, dtype=np.int16)
    row = np.dtype((np.void, positions.itemsize * n))
    row_order = positions.view(row).ravel().argsort()
    rows = positions.view(row).ravel()[row_order]
    descent = (positions[:, :-1] > positions[:, 1:]).T.copy()
    target = np.zeros((n - 1, m), dtype=np.int32)
    for i in range(1, n):
        swapped = positions.copy()
        swapped[:, [i - 1, i]] = positions[:, [i, i - 1]]
        probe = swapped.view(row).ravel()
        at = np.searchsorted(rows, probe).clip(max=m - 1)
        target[i - 1] = np.where(rows[at] == probe, row_order[at], -1)
    return order, positions, descent, target


# The oracles' own block bounds: probes searched, and position pairs
# compared, at once.  They are not the library's, so a seam in its blocks
# is not shared by the paths that check it.
PROBE_CELLS = 1 << 15


def per_position_word_set(words):
    """Read a set of words, one per row in increasing order, once: the basis
    order, the descents, and every swap target, found by a sorted search
    over exact integer keys; the library's former word set, which counted
    inversions with one comparison per reading position and built the key
    digits and deltas per call."""
    kept = words.dtype
    words = words.astype(np.int16)
    m, n = words.shape
    # Module-basis order: inversion count of the reading word descending,
    # ties by the word itself, which is the order of the rows.
    inversion_counts = sum((words[:, p, None] > words[:, p + 1 :]).sum(axis=1) for p in range(n))
    order = np.argsort(-inversion_counts, kind="stable")
    positions = _positions(words[order])
    dtype = np.int64 if n**n < 2**63 else object
    radix = np.array([n**j for j in range(n)], dtype=dtype)
    keys = positions.astype(dtype) @ radix
    key_order = keys.argsort()
    sorted_keys = keys[key_order]
    rank = key_order.astype(np.int32)
    deltas = (radix[:-1] - radix[1:])[:, None]
    steps = np.ascontiguousarray(np.diff(positions, axis=1).T)  # (n - 1, m): p[i] - p[i-1]
    target = np.empty((n - 1, m), dtype=np.int32)
    block = max(1, PROBE_CELLS // max(m, 1))
    for first in range(0, n - 1, block):
        rows = slice(first, first + block)
        probes = steps[rows].astype(dtype)
        probes *= deltas[rows]
        probes += keys
        at = np.searchsorted(sorted_keys, probes)
        np.minimum(at, m - 1, out=at)
        found = sorted_keys[at] == probes
        target[rows] = np.where(found, rank[at], -1)
    return WordSet(order, positions.astype(kept), steps < 0, target)


@functools.lru_cache(maxsize=None)
def _key_radix(n):
    """The base-n key digits ``radix[j] = n^j`` and the swap key deltas
    ``n^(i-1) - n^i`` as an (n - 1, 1) column; int64 while n^n fits,
    Python integers above."""
    dtype = np.int64 if n**n < 2**63 else object
    radix = np.array([n**j for j in range(n)], dtype=dtype)
    deltas = (radix[:-1] - radix[1:])[:, None]
    radix.flags.writeable = deltas.flags.writeable = False
    return radix, deltas


def position_key_word_set(words):
    """Read a set of words, one per row in increasing order, once: the basis
    order, the descents, and every swap target; the library's former word
    set, which keyed each member by its entry positions, sorted the keys,
    and searched every swapped key in basis order.

    The inversion counts come from one comparison of the transposed words
    at the position pairs p < q.  Row t of positions is keyed by the integer
    whose base-n digit j is ``positions[t, j]``, so the swap at i adds the
    key delta ``(p[i] - p[i-1]) * (n^(i-1) - n^i)``; each swapped key is
    looked up among the sorted keys, a block of generators at a time."""
    m, n = words.shape
    columns = np.ascontiguousarray(words.T)
    earlier, later = np.triu_indices(n, 1)
    inversion_counts = np.zeros(m, dtype=np.int32)
    block = max(1, PROBE_CELLS // max(m, 1))
    for first in range(0, len(earlier), block):
        pairs = slice(first, first + block)
        inversion_counts += (columns[earlier[pairs]] > columns[later[pairs]]).sum(axis=0, dtype=np.int32)
    order = np.argsort(-inversion_counts, kind="stable")
    positions = _positions(words[order])
    radix, deltas = _key_radix(n)
    dtype = radix.dtype
    keys = positions.astype(dtype) @ radix
    key_order = keys.argsort()
    sorted_keys = keys[key_order]
    rank = key_order.astype(np.int32)
    steps = np.ascontiguousarray(positions.T)
    steps = steps[1:] - steps[:-1]  # (n - 1, m): p[i] - p[i-1]
    target = np.empty((n - 1, m), dtype=np.int32)
    for first in range(0, n - 1, block):
        rows = slice(first, first + block)
        probes = steps[rows].astype(dtype)
        probes *= deltas[rows]
        probes += keys
        at = np.searchsorted(sorted_keys, probes)
        np.minimum(at, m - 1, out=at)
        found = sorted_keys[at] == probes
        target[rows] = np.where(found, rank[at], -1)
    return WordSet(order, positions.astype(words.dtype), steps < 0, target)


def rechecked_terms(basis, n, terms):
    """The term map ``FormalSum(basis, n, terms)`` keeps, every index
    checked afresh; the library's former check, which kept the degree as
    given."""
    if basis not in (FUNDAMENTAL, PEAK):
        raise DomainError(f"unknown basis label {basis!r}")
    clean = {}
    for alpha, coeff in terms.items():
        alpha = check_composition(alpha)
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        if coeff == 0:
            continue
        if composition_size(alpha) != n:
            raise DomainError(
                f"index {alpha} is not a composition of {n}"
            )
        # is_peak_composition, on an index already checked
        if basis == PEAK and min(alpha[:-1], default=2) < 2:
            raise DomainError(f"peak-basis index {alpha} is not a peak composition")
        clean[alpha] = clean[alpha] + coeff if alpha in clean else coeff
    return {a: c for a, c in clean.items() if c != 0}


def grouped_hecke_relations(rep):
    """The relation report of a module's signed partial maps, the relations
    of one kind composed together in their own batch, one gather per factor;
    the library's former relation check."""
    targets, signs = rep.targets, rep.signs
    width = targets.shape[1]
    relations = zero_hecke_relations(len(targets), rep.convention)

    def compose(words):
        cols, product = targets[words[:, -1]], signs[words[:, -1]]
        for g in words.T[-2::-1, :, None]:
            product = product * signs.take(cols + g * width)
            cols = targets.take(cols + g * width)
        return cols, product

    violations = []
    for _, group in itertools.groupby(relations, key=lambda rel: (len(rel[1]), len(rel[2]))):
        messages, lhs, rhs, relation_signs = zip(*group)
        left, left_sign = compose(np.array(lhs))
        right, right_sign = compose(np.array(rhs))
        right_sign = right_sign * np.array(relation_signs, dtype=np.int8)[:, None]
        fails = (left != right).any(axis=1) | (left_sign != right_sign).any(axis=1)
        violations.extend(message for message, bad in zip(messages, fails) if bad)
    return RelationReport(len(relations), tuple(violations))


def _canonical_is_zero(op):
    """Whether a stack is the zero operator, read off its sorted canonical
    entries; the library's former ``_is_zero``, kept apart from its layer
    comparisons."""
    return canonical_entries(op)[2].size == 0


def canonical_equal(a, b, sign=1):
    """Whether a = sign * b as operators, always on the canonical entries of
    a - sign * b; the library's former ``_equal``, which never compared the
    stacks layer by layer."""
    return _canonical_is_zero(clifford._stack(a, clifford._scaled(b, -sign)))


def _canonical_keeps_parity(block, n, flips):
    """The library's former ``_keeps_parity``, on canonical entries only."""
    par = np.array([bin(m).count("1") & 1 for m in range(1 << n)])
    rows, cols, _ = canonical_entries(block)
    return bool(np.all((par[rows] != par[cols]) == flips))


def _canonical_expansion_holds(n, lhs, rhs, sign):
    """The library's ``_expansion_holds``, deciding each coefficient with
    ``canonical_equal``."""
    left, right = clifford._expansion(n, lhs), clifford._expansion(n, rhs)
    if lhs in left and rhs in right:
        full = left.pop(lhs)
        if _canonical_is_zero(full) or not canonical_equal(full, right.pop(rhs)):
            return False
    zero = clifford._scaled(clifford._identity(n), 0)
    words = left.keys() | right.keys()
    return all(canonical_equal(left.get(w, zero), right.get(w, zero), sign) for w in words)


def _canonical_local(n):
    """The library's ``_local_certificate``, deciding each block with
    ``canonical_equal``."""
    base = clifford._hecke_mask_blocks(2, 1)
    return all(
        canonical_equal(clifford._lifted(base[case], n, i), clifford._hecke_mask_blocks(n, i)[case])
        for i in range(1, n)
        for case in base
    )


def canonical_certificates(n):
    """``(suite, expansion, quotients, reach)`` of size n, each relation of
    the library's table decided one pair of stacks at a time with
    ``canonical_equal``, as the library did before it compared layers:
    the suite from the former per-case table, read uncached so that it sees
    injected faults."""
    pis = [clifford._hecke_mask_blocks(n, i) for i in range(1, n)]
    suite = tuple(
        (message, check if isinstance(check, bool) else not check)
        for message, check in _per_case_suite.__wrapped__(n)
    )
    references = clifford._reference_marks(n)[0]
    marks = all(canonical_equal(clifford._mark_blocks(n, j), c) for j, c in enumerate(references, 1))
    quotients = marks and all(
        canonical_equal(blocks[case], clifford._reference_pi(n, i)[case == DESCENT])
        for i, blocks in enumerate(pis, 1)
        for case in (ATTACK, DESCENT)
    )
    descents = all(
        canonical_equal(b[DESCENT], clifford._stack(b[ATTACK], clifford._scaled(b[SWAP], -1))) for b in pis
    )
    m = min(n, 4)
    expands = all(_canonical_expansion_holds(m, *r[1:]) for r in relation_table(m - 1).relations)
    expansion = _canonical_local(n) and _canonical_local(m) and descents and expands
    swaps = (canonical_entries(blocks[SWAP])[1] for blocks in pis)
    reach = marks and all(np.isin(np.arange(1 << n), cols).all() for cols in swaps)
    return suite, expansion, quotients, reach


def _path_product(n, steps):
    """The block product of one path, leftmost factor first."""
    return functools.reduce(
        compose_maps,
        (clifford._hecke_mask_blocks(n, step // 3 + 1)[step % 3] for step in steps),
    )


@functools.lru_cache(maxsize=None)
def _paths_agree(n, signature, sign):
    """Whether, at every end tableau of the signature, the left paths' block
    products sum to ``sign`` times the right paths' ones."""
    return all(
        _canonical_is_zero(
            clifford._stack(
                *(_path_product(n, steps) for steps in lhs),
                *(clifford._scaled(_path_product(n, steps), -sign) for steps in rhs),
            )
        )
        for lhs, rhs in signature
    )


def _paths(cases, swaps, word, t):
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


def _relation_holds(n, cases, swaps, lhs, rhs, sign):
    """Whether left word = sign * right word as operators, checked column
    block by column block: applied to tableau t's marked copies, a word of
    pi's is the sum over its at most 2^len paths of the path's block
    product, landing on the path's end tableau."""
    for t in range(len(cases[0])):
        ends = {}
        for side, word in enumerate((lhs, rhs)):
            for u, steps in _paths(cases, swaps, word, t):
                ends.setdefault(u, ([], []))[side].append(steps)
        signature = tuple((tuple(left), tuple(right)) for left, right in ends.values())
        if not _paths_agree(n, signature, sign):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _per_case_suite(n):
    """The supermodule relation suite after the 0-Hecke relations, in report
    order, as (message, check) pairs: for a pi-c relation or pi parity, the
    frozenset of (i, case) pairs, a block case of pi_i, under which it
    fails, and for a relation among the c_j, its verdict; the library's
    former table, memoised on the unfaulted blocks."""
    identity = clifford._identity(n)
    cs = [clifford._mark_blocks(n, j) for j in range(1, n + 1)]
    pis = [clifford._hecke_mask_blocks(n, i) for i in range(1, n)]
    suite = [
        (f"c[{j}]^2 != -1", canonical_equal(compose_maps(c, c), identity, -1)) for j, c in enumerate(cs, 1)
    ]
    suite += [
        (f"c[{a}] and c[{b}] do not anticommute", canonical_equal(compose_maps(c, d), compose_maps(d, c), -1))
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
            fails = set()
            for case, p in blocks.items():
                if j == i + 1 and case != SWAP:
                    p = clifford._stack(p, identity)
                if not canonical_equal(compose_maps(p, c), compose_maps(other, p)):
                    fails.add((i, case))
            suite.append((message, frozenset(fails)))
    for i, blocks in enumerate(pis, 1):
        fails = frozenset(
            (i, case) for case, p in blocks.items() if not _canonical_keeps_parity(p, n, flips=False)
        )
        suite.append((f"pi[{i}] does not preserve parity", fails))
    suite += [
        (f"c[{j}] does not flip parity", _canonical_keeps_parity(c, n, flips=True))
        for j, c in enumerate(cs, 1)
    ]
    return tuple(suite)


def path_expanded_clifford_relations(rep):
    """The supermodule relation report: every 0-Hecke relation of
    ``relation_table(n - 1)`` decided by expanding both sides over their
    paths in the word graph at each basis tableau, the library's former
    check, then each entry of the former per-case suite read at the (i,
    case) pairs the word graph uses.  The verdicts are memoised on the
    unfaulted blocks."""
    words = rep.family.word_set
    n = words.n
    edges = (
        np.where(words.descent, DESCENT, ATTACK).tolist(),
        clifford.swap_targets(words).tolist(),
    )
    present = {(i, case) for i, row in enumerate(edges[0], 1) for case in set(row)}
    present |= {(i, SWAP) for i, row in enumerate(edges[1], 1) if max(row) >= 0}

    relations = relation_table(n - 1).relations
    suite = _per_case_suite(n)
    fails = [message for message, *words in relations if not _relation_holds(n, *edges, *words)]
    fails += [
        message
        for message, check in suite
        if not (check if isinstance(check, bool) else check.isdisjoint(present))
    ]
    return RelationReport(len(relations) + len(suite), tuple(fails))


def comp_n_mask_composition(mask, n):
    """The composition of n whose descent set is the mask's set bits, read
    through ``comp_n``, uncached; the library's former ``mask_composition``."""
    return comp_n((i for i in range(1, n) if mask >> (i - 1) & 1), n)


def set_peak_index(alpha):
    """``comp_n`` of the peak set of alpha's descent set, through the set
    statistics; the library's former peak index of theta."""
    return comp_n(peak_set(descent_set(alpha)), composition_size(alpha))


def fraction_theta(f):
    """theta with each index's peak index from the set statistics and like
    terms summed as Fractions; the library's former theta."""
    if f.basis != FUNDAMENTAL:
        raise DomainError("theta expects a fundamental-basis sum")
    if f.n == 0:
        return FormalSum(PEAK, 0, dict(f.terms))
    out = {}
    for alpha, coeff in f.terms.items():
        idx = set_peak_index(alpha)
        out[idx] = out.get(idx, Fraction(0)) + coeff
    return FormalSum(PEAK, f.n, out)


def set_characteristics(family):
    """(fundamental, peak) characteristics from the family's descent
    histogram through the two former routes above, with no bit formula and
    no cached composition."""
    n = family.n
    fundamental, peak = {}, {}
    for mask, count in family.descent_histogram.items():
        alpha = comp_n_mask_composition(mask, n)
        beta = set_peak_index(alpha)
        fundamental[alpha] = fundamental.get(alpha, 0) + count
        peak[beta] = peak.get(beta, 0) + count
    return FormalSum(FUNDAMENTAL, n, fundamental), FormalSum(PEAK, n, peak)
