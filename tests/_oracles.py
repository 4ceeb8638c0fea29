"""Independent brute-force re-derivations used as test oracles.

Everything here is computed from scratch: box sets, membership conditions,
positional descent rules, and attacking classifications are restated as
one-shot predicates over complete fillings and filtered over all n!
assignments.  Nothing is shared with the library's enumerator or its
reading-word machinery.

The library's former enumerator, a backtracking insertion over the kind
recipes with the triple and prefix-peak rules as checks on a box -> entry
map, is kept here as a second oracle for the bitmask search that replaced
it, together with the former per-tableau characteristics.  The former
recursive enumerators of peak compositions and of strict and weak partitions,
which the library replaced by filters of the composition enumerator, are
kept as ``recursive_shapes``.

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
row as raw bytes, one sorted search per generator, and the relation check
that composed the words of each relation kind as a separate batch.
"""

import functools
import itertools
import operator

import numpy as np
from scipy import sparse

from diagmod import families
from diagmod.clifford import build_M_alpha
from diagmod.compositions import comp_n, peak_set
from diagmod.hecke import RelationReport, zero_hecke_relations
from diagmod.series import FUNDAMENTAL, PEAK, FormalSum
from diagmod.tableaux import (
    Diagram,
    StandardTableau,
    TableauFamily,
    descent_set_tab,
    inversions,
    swap_entries,
)


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


def backtracking_family(kind, shape, sigma=None):
    """The family as the former backtracking enumerator built it: every
    filling as a tableau, on the library's kind recipe (diagram, reading
    order, precedence edges and rule names)."""
    kind, shape = families.FamilyKind(kind), tuple(shape)
    effective = sigma if sigma is not None else tuple(range(1, len(shape) + 1))
    boxes, reading, edges, rules = families._kind_recipe(kind, shape, effective)
    boxset = frozenset(boxes)
    factories = {
        families.TRIPLE: lambda: _syct_triple_check(boxset),
        families.REVERSED_TRIPLE: lambda: _srct_triple_check(boxset),
        families.PREFIX_PEAK: lambda: _prefix_peak_check(len(shape)),
    }
    checks = [factories[rule]() for rule in rules]
    diagram = Diagram(boxes, reading)
    members = tuple(
        StandardTableau.from_box_map(diagram, m) for m in _enumerate_fillings(boxes, edges, checks)
    )
    return TableauFamily(diagram, members, "backtracking", kind.value, shape, sigma)


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


def materialised_reachability(rep, start):
    """Basis indices in the closure of one index under the column supports
    of every materialised generator."""
    mats = materialised(rep, "pi") + materialised(rep, "c")
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for idx in frontier:
            for mat in mats:
                for r, _ in column(mat, idx):
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return seen


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
    relations = zero_hecke_relations(len(mats), -1 if convention == "pi" else 1, convention)
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


def grouped_hecke_relations(rep):
    """The relation report of a module's signed partial maps, the relations
    of one kind composed together in their own batch, one gather per factor;
    the library's former relation check."""
    targets, signs = rep.targets, rep.signs
    width = targets.shape[1]
    relations = zero_hecke_relations(len(targets), -1 if rep.convention == "pi" else 1, rep.convention)

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
