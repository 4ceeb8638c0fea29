import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from conftest import clear_clifford_caches, forced_word_set_families, member_by_word, square_families
from diagmod import clifford
from diagmod.clifford import (
    MarkedTableau,
    build_clifford_module,
    build_M_alpha,
    clifford_reachability,
    failing_quotients,
    filtration_quotient_check,
    is_tableau_cyclic,
    peak_characteristic,
    verify_clifford_relations,
)
from diagmod.compositions import (
    enumerate_compositions,
    enumerate_peak_compositions,
)
from diagmod.errors import DomainError, IncompatibleFamilyError, TheoremMismatch
from diagmod.families import (
    build_family,
    demo_compatible_family,
    family_instances,
    source_tableau,
)
from diagmod.harness import check_family, words_family
from diagmod.series import FormalSum, theta
from diagmod.hecke import (
    build_hecke_module,
    canonical_entries,
    compose_maps,
    qsym_characteristic,
    reachability_closure,
    relation_table,
    verify_hecke_relations,
)
from diagmod.tableaux import TableauFamily


def image(rep, label, index, elt):
    """Image of a marked basis element under one generator, read off the
    rep's triple emitter."""
    col = rep.index_of(elt)
    for name, k, rows, cols, values in rep.generator_triples():
        if (name, k) == (label, index):
            at = cols == col
            return {rep.basis_element(int(r)): int(v) for r, v in zip(rows[at], values[at])}
    raise LookupError((label, index))


def mt(tab, *marks):
    return MarkedTableau(tab, frozenset(marks))


def test_dimension_and_parity(compatible_family):
    rep = build_clifford_module(compatible_family)
    assert rep.dim == 24 == (2 ** 3) * 3
    assert rep.parity.sum() == rep.dim // 2


def test_displayed_generator_images(compatible_family):
    rep = build_clifford_module(compatible_family)
    R = member_by_word(compatible_family, (2, 1, 3))
    S = member_by_word(compatible_family, (1, 2, 3))
    T = member_by_word(compatible_family, (1, 3, 2))
    assert image(rep, "pi", 1, mt(R, 1)) == {mt(R, 2): -1}
    assert image(rep, "pi", 1, mt(T, 1, 2)) == {mt(T, 1, 2): -1, mt(T): 1}
    assert image(rep, "pi", 1, mt(S, 2, 3)) == {
        mt(S, 2, 3): -1,
        mt(S, 1, 3): 1,
        mt(R, 1, 3): 1,
    }


def test_descent_with_no_marks_scales(compatible_family):
    rep = build_clifford_module(compatible_family)
    R = member_by_word(compatible_family, (2, 1, 3))
    assert image(rep, "pi", 1, mt(R)) == {mt(R): -1}


def test_mark_generator_squares_to_minus_one(compatible_family):
    rep = build_clifford_module(compatible_family)
    marks = [entries for label, *entries in rep.generator_triples() if label == "c"]
    assert len(marks) == 3
    for _, rows, cols, values in marks:
        # one entry per column, so c_j^2 sends column c to v * v' times row r'
        image = dict(zip(cols.tolist(), zip(rows.tolist(), values.tolist())))
        assert len(image) == len(cols) == rep.dim
        for c, (r, v) in image.items():
            r2, v2 = image[r]
            assert r2 == c and v * v2 == -1


def test_relation_suite(compatible_family):
    report = verify_clifford_relations(build_clifford_module(compatible_family))
    assert report.ok, str(report)


def test_incompatible_family_rejected(incompatible_family):
    with pytest.raises(IncompatibleFamilyError):
        build_clifford_module(incompatible_family)


@pytest.mark.parametrize("n", range(1, 7))
def test_reference_module_relations(n):
    for alpha in enumerate_compositions(n):
        report = oracle.materialised_clifford_relations(build_M_alpha(alpha))
        assert report.ok, (alpha, str(report))


def test_reference_module_single_row_kills_unmarked():
    rep = build_M_alpha((4,))
    pis = [cols for label, _, _, cols, _ in rep.generator_triples() if label == "pi"]
    assert len(pis) == 3
    for cols in pis:
        assert 0 not in cols


def test_one_box_family():
    fam = build_family("syt", (1,))
    rep = build_clifford_module(fam)
    assert rep.dim == 2
    assert verify_clifford_relations(rep).ok
    assert [label for label, *_ in rep.generator_triples()] == ["c"]


def test_filtration_quotients(compatible_family):
    rep = build_clifford_module(compatible_family)
    assert all(filtration_quotient_check(rep, k) for k in (1, 2, 3))
    with pytest.raises(DomainError):
        filtration_quotient_check(rep, 0)
    with pytest.raises(DomainError):
        filtration_quotient_check(rep, 4)


@pytest.mark.parametrize("k", [1.5, True, "1", None])
def test_filtration_index_must_be_an_int(compatible_family, k):
    rep = build_clifford_module(compatible_family)
    with pytest.raises(DomainError, match="not an integer in 1..3"):
        filtration_quotient_check(rep, k)


def test_filtration_quotients_spct_and_ssht():
    for shape, kind in [((3, 3, 1), "spct"), ((4, 3, 1), "ssht")]:
        rep = build_clifford_module(build_family(kind, shape))
        assert all(
            filtration_quotient_check(rep, k)
            for k in range(1, len(rep.basis_tableaux) + 1)
        )


def test_peak_characteristic_row_enumerator():
    fam = build_family("spct", (3, 3, 1))
    assert peak_characteristic(fam) == FormalSum(
        "K", 7,
        {(3, 3, 1): 1, (3, 2, 2): 1, (2, 2, 2, 1): 2, (2, 2, 3): 2, (2, 4, 1): 1, (2, 3, 2): 3},
    )


def test_peak_characteristic_shifted_enumerator():
    expected = FormalSum(
        "K", 8,
        {
            (4, 3, 1): 1, (4, 2, 2): 1, (3, 2, 2, 1): 2, (3, 2, 3): 1, (3, 3, 2): 2,
            (2, 3, 2, 1): 1, (2, 3, 3): 1, (2, 2, 2, 2): 2, (2, 2, 3, 1): 1,
        },
    )
    assert peak_characteristic(build_family("ssht", (4, 3, 1))) == expected
    assert peak_characteristic(build_family("spyct", (4, 3, 1))) == expected


def test_peak_characteristic_singleton():
    fam = build_family("spct", (2, 2, 2, 2))
    assert peak_characteristic(fam) == FormalSum.peak((2, 2, 2, 2))


def test_theta_compat_small():
    for kind, shape in [("spct", (3, 3, 1)), ("ssht", (4, 3, 1)), ("syct", (2, 4)),
                        ("rib", (2, 2)), ("srct", (2, 2)), ("sit", (1, 2, 1))]:
        fam = build_family(kind, shape)
        assert theta(qsym_characteristic(fam)) == peak_characteristic(fam), (kind, shape)


def test_cyclicity_from_source():
    for n in range(1, 7):
        for alpha in enumerate_peak_compositions(n):
            rep = build_clifford_module(build_family("spct", alpha))
            assert is_tableau_cyclic(rep, source_tableau(alpha)), alpha


def test_non_cyclic_negative_control():
    fam = build_family("syct", (2, 2))
    rep = build_clifford_module(fam)
    for tab in fam:
        assert not is_tableau_cyclic(rep, tab)
    closure = clifford_reachability(rep, fam.members[0])
    tableaux_seen = {m.tableau for m in closure}
    assert tableaux_seen == {fam.members[0]}
    assert len(closure) == 1 << fam.n


def test_singleton_family_is_cyclic(compatible_family):
    T = member_by_word(compatible_family, (1, 3, 2))
    fam = TableauFamily(compatible_family.diagram, (T,), "single")
    rep = build_clifford_module(fam)
    assert is_tableau_cyclic(rep, T)


def test_parity_structure(compatible_family):
    rep = build_clifford_module(compatible_family)
    par = rep.parity
    for label, _, rows, cols, _ in rep.generator_triples():
        assert np.all((par[rows] == par[cols]) == (label == "pi"))


def test_reachability_matches_materialised_support_closure():
    """The walk over the generators' entries reaches exactly the closure
    under the column supports of the materialised generators, from every
    basis tableau of every nonempty family with n <= 4."""
    seeds = 0
    for kind, shape, sigma in family_instances(4, sigmas=True):
        fam = build_family(kind, shape, sigma)
        if not fam.members:
            continue
        rep = build_clifford_module(fam)
        expected = oracle.materialised_reachability(rep, [rep.index_of(mt(tab)) for tab in rep.basis_tableaux])
        for tab, closure in zip(rep.basis_tableaux, expected):
            assert {rep.index_of(m) for m in clifford_reachability(rep, tab)} == closure, tab
            seeds += 1
    assert seeds > 100


def test_reachability_is_module_reachability_with_every_mark():
    """From every basis tableau of every nonempty family with n <= 5, the
    supermodule closure holds all 2^n marked copies of exactly the tableaux
    in the module closure: the swap and mark blocks are nonzero on every
    mask, so this characterises the closure independently of the walk the
    two share."""
    seeds = 0
    for kind, shape, sigma in family_instances(5, sigmas=True):
        fam = build_family(kind, shape, sigma)
        if not fam.members:
            continue
        crep, rep = build_clifford_module(fam), build_hecke_module(fam, "pi")
        for tab in crep.basis_tableaux:
            closure = clifford_reachability(crep, tab)
            tableaux = reachability_closure(rep, tab)
            assert {m.tableau for m in closure} == tableaux, tab
            assert len(closure) == len(tableaux) << fam.n, tab
            seeds += 1
    assert seeds == 1631


def test_reachability_matches_materialised_support_closure_from_n_5():
    """The closure from a marked copy of the last basis tableau equals the
    closure under the materialised generators' column supports, once per
    word set of the nonempty families with n = 5, and of those with n = 6
    and at most three members."""
    word_sets = {}
    for kind, shape, sigma in family_instances(6, sigmas=True):
        fam = build_family(kind, shape, sigma)
        if fam.n >= 5 and fam.members and (fam.n == 5 or len(fam) <= 3):
            word_sets.setdefault(id(fam.word_set), fam)
    for fam in word_sets.values():
        rep = build_clifford_module(fam, force=True)
        seed = mt(rep.basis_tableaux[-1], fam.n)
        closure = {rep.index_of(m) for m in clifford_reachability(rep, seed)}
        assert [closure] == oracle.materialised_reachability(rep, [rep.index_of(seed)]), fam.family_tag
    assert len(word_sets) == 274


def test_reachability_reads_no_supermodule_table(fresh_block_caches):
    """The closure reads its own certificate, not the relation table."""
    rep = build_clifford_module(build_family("spct", (5, 4, 1)))
    assert is_tableau_cyclic(rep, rep.basis_tableaux[-1])
    assert clifford._supermodule_table.cache_info().currsize == 0
    assert clifford._reach_certificate.cache_info().currsize == 1


def _blocks(n):
    """Random 2^n blocks as stacks of one or two layers: at most two signed
    entries per column, which may share a row and cancel."""
    size = 1 << n
    entry = st.one_of(
        st.just((size, 0)), st.tuples(st.integers(0, size - 1), st.sampled_from((-1, 1)))
    )
    layers = st.lists(st.lists(entry, min_size=size, max_size=size), min_size=1, max_size=2)
    return layers.map(
        lambda ls: (
            np.array([[t for t, _ in layer] + [size] for layer in ls], dtype=np.int64),
            np.array([[v for _, v in layer] + [0] for layer in ls], dtype=np.int64),
        )
    )


@st.composite
def _block_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(_blocks(n)), draw(_blocks(n))


def _scipy_block(block):
    targets, signs = block
    cols = np.broadcast_to(np.arange(targets.shape[1]), targets.shape)
    live = signs != 0
    return oracle.matrix(targets.shape[1] - 1, targets[live], cols[live], signs[live])


def _canonical_triples(op):
    rows, cols, values = canonical_entries(op)
    assert all(a.dtype == np.int64 for a in (rows, cols, values))
    return sorted(zip(rows.tolist(), cols.tolist(), values.tolist()))


def _is_int(op):
    return all(a.dtype.kind == "i" for a in op)


@settings(max_examples=300, deadline=None)
@given(_block_pairs(), st.sampled_from((-1, 1)))
def test_block_algebra_matches_scipy(pair, sign):
    a, b = pair
    A, B = _scipy_block(a), _scipy_block(b)
    product, total = compose_maps(a, b), clifford._stack(a, b)
    assert _is_int(a) and _is_int(b) and _is_int(product) and _is_int(total)
    assert _canonical_triples(product) == oracle.triples(A @ B)
    assert _canonical_triples(total) == oracle.triples(A + B)
    assert _canonical_triples(clifford._stack(a, clifford._scaled(a, -1))) == []
    assert clifford._equal(a, clifford._scaled(a, sign), sign)
    assert clifford._equal(a, b, sign) == oracle.same(A, sign * B)
    assert clifford._equal(product, compose_maps(b, a), sign) == oracle.same(A @ B, sign * (B @ A))


def test_marked_rendering(compatible_family):
    R = member_by_word(compatible_family, (2, 1, 3))
    marked = mt(R, 1, 3)
    assert marked.render() == "1' 3'\n    2"
    assert marked.parity == 0
    with pytest.raises(DomainError):
        MarkedTableau(R, frozenset({4}))


@pytest.mark.parametrize("mark", [1.0, 2.5, "a", True, 0, 4, None])
def test_marks_must_be_integers_in_range(mark, compatible_family):
    """A mark is read by the one integer rule: a float, a string, a bool or
    an integer outside 1..n raises DomainError at construction."""
    R = member_by_word(compatible_family, (2, 1, 3))
    with pytest.raises(DomainError, match="not all integers in 1..3"):
        MarkedTableau(R, frozenset({mark, 2}))


def test_numpy_marks_are_stored_as_python_ints(compatible_family):
    R = member_by_word(compatible_family, (2, 1, 3))
    marked = MarkedTableau(R, frozenset({np.int64(2), np.uint8(3)}))
    assert marked.marks == {2, 3} and all(type(j) is int for j in marked.marks)
    rep = build_clifford_module(compatible_family)
    assert rep.basis_element(rep.index_of(marked)) == marked


def assert_matches_materialised(rep):
    """The block-factored relation report and quotient verdicts equal those
    of the materialised matrices."""
    report = verify_clifford_relations(rep)
    expected = oracle.materialised_clifford_relations(rep)
    assert (report.checked, report.violations) == (expected.checked, expected.violations)
    quotients = tuple(
        filtration_quotient_check(rep, k) for k in range(1, len(rep.basis_tableaux) + 1)
    )
    assert quotients == oracle.materialised_quotient_checks(rep)
    return report


def test_factored_checks_match_materialised_on_built_in_families():
    built = 0
    for kind, shape, sigma in family_instances(5, sigmas=True):
        fam = build_family(kind, shape, sigma)
        if fam.members:
            assert_matches_materialised(build_clifford_module(fam))
            built += 1
    assert built == 968


def test_factored_checks_match_materialised_on_forced_word_sets():
    families = forced_word_set_families()
    assert len(families) == 63
    failing = {}
    for fam in families:
        report = assert_matches_materialised(build_clifford_module(fam, force=True))
        if report.violations:
            failing[tuple(t.reading_word for t in fam)] = report.violations
    control = ((1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1))
    assert "braid fails at pi[1], pi[2]" in failing[control]


# sha256 of the supermodule report rows below, computed before the block
# verdicts were gathered into one table per n
REPORT_DIGEST = "2f21a7e3003f10016230751efd52616683c6fae95855f4ba9c14939d0900e73c"


def test_supermodule_reports_are_pinned():
    """Every nonempty family with n <= 6 (sigmas included), forced past the
    gate, then the forced S_3 and commutation-square word sets: the tag,
    the relation count and violations, and every filtration quotient
    verdict, one row per family."""
    families = [
        fam for fam in (build_family(*inst) for inst in family_instances(6, sigmas=True)) if fam.members
    ]
    assert len(families) == 4603
    families += forced_word_set_families() + square_families()
    rows = []
    for fam in families:
        rep = build_clifford_module(fam, force=True)
        report = verify_clifford_relations(rep)
        quotients = tuple(filtration_quotient_check(rep, k) for k in range(1, len(fam) + 1))
        rows.append(repr((fam.family_tag, report.checked, report.violations, quotients)))
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == REPORT_DIGEST


def _corrupted(block, col, row=None):
    """A copy of a block with the entry in column col of its first layer
    that has one moved to row ``row`` if given, else negated."""
    targets, signs = (a.copy() for a in block)
    layer = np.flatnonzero(signs[:, col])[0]
    if row is None:
        signs[layer, col] = -signs[layer, col]
    else:
        targets[layer, col] = row
    return targets, signs


# (generator set, key, column, new row or None for a sign flip, a violation
# the fault must cause in the demo family, whether the quotient of its
# tableau 213 still holds)
FAULTS = {
    "descent sign": ("pi", (3, 1, clifford.DESCENT), 0, None, "pi[1]c[1] != c[2]pi[1]", False),
    "swap sign": ("pi", (3, 1, clifford.SWAP), 0, None, "pi[1]c[1] != c[2]pi[1]", True),
    "mark sign": ("c", (3, 2), 0, None, "c[2]^2 != -1", False),
    "attack parity": ("pi", (3, 2, clifford.ATTACK), 4, 5, "pi[2] does not preserve parity", False),
    "mark parity": ("c", (3, 1), 0, 0, "c[1] does not flip parity", False),
}


def assert_reports_fault(rep):
    """Under every fault some certificate of the table fails, so the report
    raises.  The quotient checks raise where the table's quotient
    certificate fails, and otherwise equal the materialised ones.  Returns
    the materialised report."""
    with pytest.raises(TheoremMismatch, match=f"the blocks of size {rep.n} "):
        verify_clifford_relations(rep)
    every = range(1, len(rep.basis_tableaux) + 1)
    if clifford._supermodule_table(rep.n).quotients:
        quotients = tuple(filtration_quotient_check(rep, k) for k in every)
        assert quotients == oracle.materialised_quotient_checks(rep)
    else:
        for check in (failing_quotients, lambda rep: filtration_quotient_check(rep, len(every))):
            with pytest.raises(TheoremMismatch, match="do not certify the filtration quotients"):
                check(rep)
    return oracle.materialised_clifford_relations(rep)


def _inject(fault, monkeypatch):
    """Patch the block of ``FAULTS[fault]``; a fault corrupts the first
    entry of its column, which in a two-entry attack column is the diagonal
    one."""
    gens, key, col, row, _, _ = FAULTS[fault]
    if gens == "pi":
        original = clifford._hecke_mask_blocks
        n, i, case = key

        def patched(m, g):
            blocks = original(m, g)
            if (m, g) != (n, i):
                return blocks
            return {**blocks, case: _corrupted(blocks[case], col, row)}

        monkeypatch.setattr(clifford, "_hecke_mask_blocks", patched)
    else:
        original = clifford._mark_blocks

        def patched(m, j):
            block = original(m, j)
            return _corrupted(block, col, row) if (m, j) == key else block

        monkeypatch.setattr(clifford, "_mark_blocks", patched)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_factored_checks_report_injected_faults(fault, monkeypatch, fresh_block_caches):
    gens, _, _, _, expected, quotient_holds = FAULTS[fault]
    _inject(fault, monkeypatch)
    for inst in family_instances(3, sigmas=True):
        fam = build_family(*inst)
        if fam.n == 3 and fam.members:
            assert_reports_fault(build_clifford_module(fam))
    # The demo family uses every block: 123 swaps to 213 at 1, and 213 has a
    # descent at 1 and an ascent at 2, so its quotient reads both corrupted
    # diagonal blocks.  Every quotient reads the mark blocks, none the swap
    # blocks.
    rep = build_clifford_module(demo_compatible_family())
    report = assert_reports_fault(rep)
    assert expected in report.violations, report.violations
    if gens == "c":  # the expansion holds, and the suite names the violation
        with pytest.raises(TheoremMismatch, match=re.escape(expected)):
            verify_clifford_relations(rep)
    k = [t.reading_word for t in rep.basis_tableaux].index((2, 1, 3)) + 1
    assert oracle.materialised_quotient_checks(rep)[k - 1] is quotient_holds
    assert clifford._supermodule_table(3).quotients is quotient_holds


# the certificates of size 3 that each fault of FAULTS breaks
FAILING_CERTIFICATES = {
    "descent sign": {"local", "expansion", "suite", "quotients"},
    "swap sign": {"local", "expansion", "suite"},
    "mark sign": {"reach", "suite", "quotients"},
    "attack parity": {"local", "expansion", "suite", "quotients"},
    "mark parity": {"reach", "suite", "quotients"},
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_fault_breaks_its_certificates(fault, monkeypatch, fresh_block_caches):
    """Each fault breaks exactly its certificates of size 3 and none of
    size 2 or 4, and every certificate is broken by some fault."""
    _inject(fault, monkeypatch)
    verdicts = clifford.certificates(3)
    assert set().union(*FAILING_CERTIFICATES.values()) == set(verdicts)
    assert {name for name, holds in verdicts.items() if not holds} == FAILING_CERTIFICATES[fault]
    assert all(clifford.certificates(2).values()) and all(clifford.certificates(4).values())


def test_a_failing_quotient_certificate_raises(monkeypatch, fresh_block_caches):
    """With the table's quotient certificate false, every quotient reader
    raises: per index, as one tuple and in ``check_family``."""
    fam = build_family("syt", (3, 2))
    rep = build_clifford_module(fam)
    assert failing_quotients(rep) == check_family(fam).failing_quotients == ()
    assert all(filtration_quotient_check(rep, k) for k in range(1, len(fam) + 1))
    broken = clifford._supermodule_table(fam.n)._replace(quotients=False)
    monkeypatch.setattr(clifford, "_supermodule_table", lambda n: broken)
    message = "the blocks of size 5 do not certify the filtration quotients"
    for read in (
        lambda: failing_quotients(rep),
        lambda: filtration_quotient_check(rep, 1),
        lambda: check_family(fam),
    ):
        with pytest.raises(TheoremMismatch, match=message):
            read()
    with pytest.raises(DomainError, match="is not an integer in 1..5"):
        filtration_quotient_check(rep, 0)


def test_cached_report_sees_a_fault_once_the_caches_are_cleared(monkeypatch, fresh_block_caches):
    """The supermodule table is memoised per n in the clifford module: a
    table built before a block fault is injected is served until the
    fixture's clearing step empties the clifford caches, and then the fault
    shows: the expansion certificate fails, so the report raises."""
    rep = build_clifford_module(demo_compatible_family())
    assert verify_clifford_relations(rep).ok
    _, (n, i, case), col, row, _, _ = FAULTS["attack parity"]
    original = clifford._hecke_mask_blocks

    def patched(m, g):
        blocks = original(m, g)
        return {**blocks, case: _corrupted(blocks[case], col, row)} if (m, g) == (n, i) else blocks

    monkeypatch.setattr(clifford, "_hecke_mask_blocks", patched)
    assert verify_clifford_relations(rep).ok
    clear_clifford_caches()
    with pytest.raises(TheoremMismatch, match="do not certify the 0-Hecke relations"):
        verify_clifford_relations(rep)


def test_reachability_certificate_holds_for_every_small_n():
    """Every mark block is the reference c_j and no SWAP column is zero."""
    assert all(clifford._reach_certificate(n) for n in range(1, 8))


@pytest.mark.parametrize("fault", ["swap column", "mark sign"])
def test_reachability_raises_without_its_certificate(fault, monkeypatch, fresh_block_caches):
    """Reachability answers only under the table's certificate: a zero
    column in one SWAP block of size 3, or a mark block that is not the
    reference c_j, makes both reachability functions raise on every family
    of that size, however the family uses the block."""
    rep = build_clifford_module(demo_compatible_family())
    seed = rep.basis_tableaux[-1]  # 123, which swaps to 213 and 132
    assert is_tableau_cyclic(rep, seed) and len(clifford_reachability(rep, seed)) == rep.dim
    if fault == "swap column":
        original = clifford._hecke_mask_blocks

        def patched(m, g):
            blocks = original(m, g)
            if (m, g) != (3, 2):
                return blocks
            targets, signs = (a.copy() for a in blocks[clifford.SWAP])
            targets[:, 5], signs[:, 5] = 1 << m, 0  # column 5 sent to the sink
            return {**blocks, clifford.SWAP: (targets, signs)}

        monkeypatch.setattr(clifford, "_hecke_mask_blocks", patched)
    else:
        original = clifford._mark_blocks

        def patched(m, j):
            block = original(m, j)
            return _corrupted(block, 0) if (m, j) == (3, 2) else block

        monkeypatch.setattr(clifford, "_mark_blocks", patched)
    clear_clifford_caches()
    assert not clifford._reach_certificate(3)
    assert clifford._supermodule_table(3).quotients is (fault == "swap column")
    for tab in rep.basis_tableaux:
        with pytest.raises(TheoremMismatch, match="do not certify reachability"):
            clifford_reachability(rep, tab)
        with pytest.raises(TheoremMismatch, match="do not certify reachability"):
            is_tableau_cyclic(rep, mt(tab, 1))


def test_basis_element_reads_only_basis_indices():
    """An index is an integer in 0..dim-1: -1 is not read from the end."""
    rep = build_clifford_module(build_family("syt", (2, 1)))
    assert rep.basis_element(np.int64(rep.dim - 1)) == rep.basis_element(rep.dim - 1)
    for bad in (-1, rep.dim, 1.5, True, np.float64(0), None):
        with pytest.raises(DomainError, match=rf"is not an integer in 0\.\.{rep.dim - 1}"):
            rep.basis_element(bad)


def assert_matches_path_expansion(fam):
    """The supermodule report equals the former path expansion's,
    force-built past the gate, and its quadratic, commutation and braid
    violations are the pi module's, whose quadratic relations hold."""
    rep = build_clifford_module(fam, force=True)
    report = verify_clifford_relations(rep)
    assert report == oracle.path_expanded_clifford_relations(rep), fam.family_tag
    module = verify_hecke_relations(build_hecke_module(fam, "pi", force=True)).violations
    messages = {relation[0] for relation in relation_table(fam.n - 1).relations}
    assert tuple(v for v in report.violations if v in messages) == module, fam.family_tag
    assert not any("^2" in v for v in module), fam.family_tag
    return report


def test_supermodule_reports_match_path_expansion():
    """Every nonempty family with n <= 5 (sigmas included), every forced S_3
    and commutation-square word set, and two families with n = 9."""
    families = [
        fam for fam in (build_family(*inst) for inst in family_instances(5, sigmas=True)) if fam.members
    ]
    assert len(families) == 968
    forced = forced_word_set_families() + square_families()
    assert len(forced) == 78
    failing = [assert_matches_path_expansion(fam).violations for fam in families + forced]
    assert sum(map(bool, failing)) >= 8
    for kind, shape in (("syt", (4, 3, 2)), ("spct", (3, 3, 3))):
        assert assert_matches_path_expansion(build_family(kind, shape)).ok


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.sets(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=40)
    )
)
def test_supermodule_reports_match_path_expansion_on_word_sets(words):
    assert_matches_path_expansion(words_family(sorted(words)))


@pytest.mark.parametrize("n", range(1, 11))
def test_expansion_certificate_holds_without_faults(n):
    assert clifford._supermodule_table(n).expansion


# (size, generator, the corrupted SWAP block, the word sets compared): one
# SWAP entry with its sign flipped, or the whole SWAP block zero, so that a
# full word's coefficient C is zero
KEPT_IDENTITY_FAULTS = {
    "swap sign": (3, 1, lambda swap: _corrupted(swap, 0), forced_word_set_families),
    "swap zero": (4, 3, lambda swap: clifford._scaled(swap, 0), square_families),
}


@pytest.mark.parametrize("fault", sorted(KEPT_IDENTITY_FAULTS))
def test_expansion_certificate_refuses_a_fault_that_keeps_the_descent_identity(
    fault, monkeypatch, fresh_block_caches
):
    """With one SWAP block of pi_i corrupted and DESCENT rebuilt as ATTACK -
    SWAP, the tensor form still holds, but the expanded relations do not:
    every report raises, though on some word set the pi module's report,
    which it would otherwise be, differs from the materialised one."""
    n, i, corrupt, families = KEPT_IDENTITY_FAULTS[fault]
    original = clifford._hecke_mask_blocks

    def patched(m, g):
        blocks = original(m, g)
        if (m, g) != (n, i):
            return blocks
        swap = corrupt(blocks[clifford.SWAP])
        descent = clifford._stack(blocks[clifford.ATTACK], clifford._scaled(swap, -1))
        return {**blocks, clifford.DESCENT: descent, clifford.SWAP: swap}

    monkeypatch.setattr(clifford, "_hecke_mask_blocks", patched)
    assert not clifford._supermodule_table(n).expansion
    messages = {relation[0] for relation in relation_table(n - 1).relations}
    differs = 0
    for fam in families():
        rep = build_clifford_module(fam, force=True)
        with pytest.raises(TheoremMismatch, match="do not certify the 0-Hecke relations"):
            verify_clifford_relations(rep)
        expected = oracle.materialised_clifford_relations(rep).violations
        module = verify_hecke_relations(build_hecke_module(fam, "pi", force=True)).violations
        differs += tuple(v for v in expected if v in messages) != module
    assert differs


@pytest.mark.parametrize("n", range(1, 13))
def test_local_certificate_holds_without_faults(n):
    assert clifford._local_certificate(n)


def _patch_block(monkeypatch, n, i, case, col):
    """Flip the sign of the first entry in column col of one case block of
    pi_i of size n."""
    original = clifford._hecke_mask_blocks

    def patched(m, g):
        blocks = original(m, g)
        return {**blocks, case: _corrupted(blocks[case], col)} if (m, g) == (n, i) else blocks

    monkeypatch.setattr(clifford, "_hecke_mask_blocks", patched)


def test_a_fault_at_size_4_breaks_expansion_at_every_larger_size(monkeypatch, fresh_block_caches):
    """Every relation of size n >= 4 is decided on the blocks of size 4, so
    a fault in one of them breaks the expansion certificate at every n >= 4
    and at no n <= 3."""
    _patch_block(monkeypatch, 4, 2, clifford.SWAP, 0)
    assert [n for n in range(1, 9) if not clifford._supermodule_table(n).expansion] == list(range(4, 9))
    assert [n for n in range(1, 9) if not clifford._local_certificate(n)] == [4]


@pytest.mark.parametrize("case, col", [(clifford.DESCENT, 0), (clifford.ATTACK, 2), (clifford.SWAP, 0)])
def test_a_fault_at_size_2_breaks_locality_at_every_larger_size(case, col, monkeypatch, fresh_block_caches):
    """Each block of size n is checked against pi_1's of size 2, so a fault
    there breaks the local certificate at every n >= 3, and the expansion
    certificate at every n >= 2: at n = 2, DESCENT is no longer ATTACK -
    SWAP, and no relation reads the DESCENT block."""
    _patch_block(monkeypatch, 2, 1, case, col)
    assert [n for n in range(1, 9) if not clifford._local_certificate(n)] == list(range(3, 9))
    assert [n for n in range(1, 9) if not clifford._supermodule_table(n).expansion] == list(range(2, 9))


@pytest.mark.parametrize("n, failing", [(4, range(4, 9)), (6, [6])])
def test_conjugated_blocks_break_expansion_through_locality(n, failing, monkeypatch, fresh_block_caches):
    """Conjugating every block of size n by the sign change of mask 5 keeps
    the descent identity and every relation's expansion at that size, but
    the blocks are no longer lifts of the size-2 ones: the expansion
    certificate fails at n, and where n = 4, at every larger size, whose
    relations are decided on the blocks of size 4."""
    flip = np.ones((1 << n) + 1, dtype=np.int64)
    flip[5] = -1
    original = clifford._hecke_mask_blocks

    def patched(m, g):
        blocks = original(m, g)
        if m != n:
            return blocks
        return {case: (targets, signs * flip[targets] * flip) for case, (targets, signs) in blocks.items()}

    monkeypatch.setattr(clifford, "_hecke_mask_blocks", patched)
    assert all(clifford._expansion_holds(n, *rel[1:]) for rel in relation_table(n - 1).relations)
    assert [m for m in range(1, 9) if not clifford._supermodule_table(m).expansion] == list(failing)


def test_large_tables_expand_relations_only_up_to_size_4(monkeypatch, fresh_block_caches):
    """Building the tables of sizes 5 to 9 expands relations of size at
    most 4, each relation of size 4 once across all five tables."""
    sizes = []
    original = clifford._expansion_holds

    def recorded(n, *relation):
        sizes.append(n)
        return original(n, *relation)

    monkeypatch.setattr(clifford, "_expansion_holds", recorded)
    assert all(clifford._supermodule_table(n).expansion for n in range(5, 10))
    assert sizes == [4] * len(relation_table(3).relations)


# (generator, case, column of the corrupted entry): each fault flips the
# sign of one entry of a pi_i block at n = 5, the attack one on a mask that
# holds mark i + 1, where that block has entries
DEEP_FAULTS = [
    (2, clifford.SWAP, 0),
    (2, clifford.ATTACK, 1 << 2),
    (4, clifford.SWAP, 0),
    (4, clifford.ATTACK, 1 << 4),
]


@pytest.mark.parametrize("i, case, col", DEEP_FAULTS)
def test_faults_at_depth_break_the_certificate(i, case, col, monkeypatch, fresh_block_caches):
    """A fault in one block of pi_i at n = 5 breaks the local certificate
    of n = 5 and of no other n <= 8, and the expansion certificate: every
    n = 5 family's report raises, and the materialised matrices of every
    word set that uses the block break a relation of pi_i."""
    _patch_block(monkeypatch, 5, i, case, col)
    assert [n for n in range(1, 9) if not clifford._local_certificate(n)] == [5]
    by_word_set = {}
    for inst in family_instances(5, sigmas=True):
        fam = build_family(*inst)
        if fam.n != 5 or not fam.members:
            continue
        with pytest.raises(TheoremMismatch, match="do not certify the 0-Hecke relations"):
            verify_clifford_relations(build_clifford_module(fam))
        words = fam.word_set
        flags = {clifford.ATTACK: ~words.descent, clifford.SWAP: clifford.swap_targets(words) >= 0}[case]
        if flags[i - 1].any():
            by_word_set.setdefault(id(words), fam)
    hecke_faults = set()
    for fam in by_word_set.values():
        expected = oracle.materialised_clifford_relations(build_clifford_module(fam))
        hecke_faults.update(v for v in expected.violations if "c[" not in v and "parity" not in v)
    assert len(by_word_set) >= 20
    assert any(f"pi[{i}]" in v for v in hecke_faults), hecke_faults
