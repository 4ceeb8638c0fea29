import dataclasses
import gc
import itertools
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from conftest import apply_word, forced_word_set_families, member_by_word, square_families
from diagmod import hecke, tableaux
from diagmod.clifford import (
    ATTACK,
    DESCENT,
    build_clifford_module,
    swap_targets,
    verify_clifford_relations,
)
from diagmod.compositions import comp_n, enumerate_compositions, enumerate_strict_partitions
from diagmod.errors import DomainError, IncompatibleFamilyError
from diagmod.families import (
    FamilyKind,
    NATIVE_CONVENTION,
    build_family,
    family_instances,
    shapes_for,
)
from diagmod.harness import check_family, words_family
from diagmod.hecke import (
    HAT,
    PI,
    HeckeModuleRep,
    build_hecke_module,
    generating_words,
    hecke_maps,
    qsym_characteristic,
    reachability_closure,
    verify_hecke_relations,
    zero_hecke_relations,
)
from diagmod.series import FormalSum
from diagmod.tableaux import (
    descent_set_tab,
    inversions,
    is_ascent_compatible,
    is_descent_compatible,
    swap_values,
)


def column_action(rep, i, tab):
    """Image of a basis tableau under generator i as a {tableau: coeff} map."""
    target, sign = rep.targets[i - 1], rep.signs[i - 1]
    col = rep.family.basis_index(tab)
    return {rep.basis[target[col]]: int(sign[col])} if sign[col] else {}


def generator_triples(rep):
    """Per generator, the sorted (row, col, value) triples the rep emits."""
    return [
        list(zip(rows.tolist(), cols.tolist(), values.tolist()))
        for _, _, rows, cols, values in rep.generator_triples()
    ]


def test_bent_family_action(compatible_family):
    rep = build_hecke_module(compatible_family, "pi")
    R = member_by_word(compatible_family, (2, 1, 3))
    S = member_by_word(compatible_family, (1, 2, 3))
    T = member_by_word(compatible_family, (1, 3, 2))
    assert column_action(rep, 1, R) == {R: -1}
    assert column_action(rep, 2, R) == {}
    assert column_action(rep, 1, S) == {R: 1}
    assert column_action(rep, 2, S) == {T: 1}
    assert column_action(rep, 1, T) == {}
    assert column_action(rep, 2, T) == {T: -1}


def test_bent_family_relations(compatible_family):
    assert verify_hecke_relations(build_hecke_module(compatible_family, "pi")).ok


def test_singleton_family_is_simple_action(compatible_family):
    from diagmod.tableaux import TableauFamily

    T = member_by_word(compatible_family, (1, 3, 2))
    fam = TableauFamily(compatible_family.diagram, (T,), "single")
    rep = build_hecke_module(fam, "pi")
    des = descent_set_tab(T)
    for i in (1, 2):
        expected = [(0, 0, -1)] if i in des else []
        assert generator_triples(rep)[i - 1] == expected
    assert verify_hecke_relations(rep).ok


def test_incompatible_family_is_rejected(incompatible_family):
    with pytest.raises(IncompatibleFamilyError) as err:
        build_hecke_module(incompatible_family, "pi")
    first, second, r, s = err.value.witness
    assert (first.reading_word, second.reading_word, r, s) == ((3, 1, 2), (1, 2, 3), 2, 3)


def test_empty_family_rejected():
    fam = build_family("syct", (2, 1), sigma=(2, 1))
    with pytest.raises(DomainError):
        build_hecke_module(fam)


def test_force_build_bypasses_gate(incompatible_family):
    rep = build_hecke_module(incompatible_family, "pi", force=True)
    assert rep.dim == 3


def test_forced_incompatible_family_can_violate_relations():
    """A four-element family on the disconnected demo diagram fails the
    braid relation once force-built, confirming the checker detects what the
    compatibility gate protects against."""
    from diagmod.families import demo_incompatible_family
    from diagmod.tableaux import StandardTableau, TableauFamily, is_ascent_compatible

    diagram = demo_incompatible_family().diagram
    words = [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)]
    members = tuple(
        StandardTableau.from_box_map(diagram, dict(zip(diagram.reading_order, w)))
        for w in words
    )
    fam = TableauFamily(diagram, members, "probe")
    assert not is_ascent_compatible(fam).ok
    report = verify_hecke_relations(build_hecke_module(fam, "pi", force=True))
    assert not report.ok
    assert any("braid" in v for v in report.violations)


@pytest.mark.parametrize("kind", [k.value for k in FamilyKind])
def test_relations_all_kinds_small(kind):
    for n in range(1, 6):
        for shape in shapes_for(kind, n):
            assert check_family(build_family(kind, shape), supermodule=False).ok, (kind, shape)


def test_hat_convention_action():
    fam = build_family("sit", (2, 2))
    rep = build_hecke_module(fam, "hat")
    assert verify_hecke_relations(rep).ok
    for i in range(1, fam.n):
        for tab in rep.basis:
            col = {fam.basis_index(t): v for t, v in column_action(rep, i, tab).items()}
            c = fam.basis_index(tab)
            if i not in descent_set_tab(tab):
                assert col == {c: 1}
            else:
                assert all(v == 1 and r != c for r, v in col.items())


def test_basis_order_and_triangularity():
    for kind, shape in [("spct", (3, 3, 1)), ("syct", (2, 4)), ("ssht", (4, 3, 1)),
                        ("srct", (2, 2)), ("rib", (2, 2, 1))]:
        fam = build_family(kind, shape)
        rep = build_hecke_module(fam, NATIVE_CONVENTION[FamilyKind(kind)])
        invs = [inversions(t.reading_word) for t in rep.basis]
        assert invs == sorted(invs, reverse=True)
        diag_values = {-1, 0} if rep.convention == "pi" else {0, 1}
        for triples in generator_triples(rep):
            for r, c, v in triples:
                if r == c:
                    assert v in diag_values
                else:
                    # swap images land on earlier basis elements
                    assert r < c
                    assert v == 1


def direct_ribbon_maps(fam, basis):
    """Ribbon generator action implemented straight from row comparisons, as
    (targets, signs) per generator: scale by -1 when i sits strictly above
    i+1, kill when they share a row, swap when i sits strictly below i+1.
    A zero image points at the sink column len(basis), fixed with sign 0."""
    from diagmod.tableaux import swap_entries

    index = {t: c for c, t in enumerate(basis)}
    sink = len(basis)
    maps = []
    for i in range(1, fam.n):
        targets, signs = [], []
        for c, tab in enumerate(basis):
            rows = {e: r for (_col, r), e in tab.box_map().items()}
            if rows[i] > rows[i + 1]:
                targets.append(c), signs.append(-1)
            elif rows[i] == rows[i + 1]:
                targets.append(sink), signs.append(0)
            else:
                targets.append(index[swap_entries(tab, i)]), signs.append(1)
        maps.append((targets + [sink], signs + [0]))
    return maps


@pytest.mark.parametrize("n", range(1, 7))
def test_ribbon_action_matches_direct_rule(n):
    for alpha in enumerate_compositions(n):
        fam = build_family("rib", alpha)
        rep = build_hecke_module(fam, "pi")
        direct = direct_ribbon_maps(fam, rep.basis)
        assert list(zip(rep.targets.tolist(), rep.signs.tolist())) == direct, alpha


def test_qsym_characteristic_examples():
    fam = build_family("syct", (2, 4))
    assert qsym_characteristic(fam) == FormalSum(
        "F", 6, {(2, 4): 1, (1, 2, 3): 1, (1, 3, 2): 1, (1, 4, 1): 1}
    )
    # singleton family
    from diagmod.tableaux import TableauFamily

    tab = fam.members[0]
    single = TableauFamily(fam.diagram, (tab,), "single")
    alpha = comp_n(descent_set_tab(tab), 6)
    assert qsym_characteristic(single) == FormalSum.fundamental(alpha)


def test_shifted_and_columnar_characteristics_agree():
    for n in range(1, 8):
        for lam in enumerate_strict_partitions(n):
            a = qsym_characteristic(build_family("ssht", lam))
            b = qsym_characteristic(build_family("syct", lam))
            assert a == b, lam


def test_characteristic_reads_rep_or_family():
    fam = build_family("syct", (2, 4))
    rep = build_hecke_module(fam, "pi")
    assert qsym_characteristic(rep) == qsym_characteristic(fam)


def test_reachability_from_source():
    from diagmod.families import source_tableau
    from diagmod.compositions import enumerate_peak_compositions

    for n in range(1, 8):
        for alpha in enumerate_peak_compositions(n):
            fam = build_family("spct", alpha)
            rep = build_hecke_module(fam, "pi")
            closure = reachability_closure(rep, source_tableau(alpha))
            assert closure == frozenset(fam.members), alpha


def test_reachability_sink_is_fixed():
    fam = build_family("spct", (3, 3, 1))
    rep = build_hecke_module(fam, "pi")
    # the basis-first tableau has maximal inversions: every generator acts by
    # -1 or 0, so nothing else is reachable
    sink = rep.basis[0]
    assert reachability_closure(rep, sink) == frozenset({sink})


def test_reachability_respects_column_orders():
    fam = build_family("syct", (2, 2))
    rep = build_hecke_module(fam, "pi")
    t1, t2 = fam.members
    assert t2 not in reachability_closure(rep, t1)
    assert t1 not in reachability_closure(rep, t2)


def test_swaps_are_triangular_on_every_family_up_to_6():
    """The filtration exists on every nonempty family with n <= 6, sigmas
    included: in each distinct word set, a swap target at an ascent is an
    earlier basis index and one at a descent a later one."""
    word_sets = set()
    for inst in family_instances(6, sigmas=True):
        fam = build_family(*inst)
        if fam.members:
            word_sets.add(fam.word_set)
    assert len(word_sets) == 529
    for words in word_sets:
        t = np.arange(words.target.shape[1])
        ordered = np.where(words.descent, words.target > t, words.target < t)
        assert ordered[words.target >= 0].all()


def test_generating_words():
    from diagmod.families import source_tableau

    alpha = (3, 3, 1)
    fam = build_family("spct", alpha)
    rep = build_hecke_module(fam, "pi")
    seed = source_tableau(alpha)
    words = generating_words(rep, seed)
    assert set(words) == set(fam.members)
    # replay each word through the maps and confirm the target appears
    for target, word in words.items():
        start = {fam.basis_index(seed): 1}
        assert fam.basis_index(target) in apply_word(rep, word, start)


def test_support_walk_starts_only_at_basis_indices():
    """A start is an integer in 0..dim-1: -1 is not read from the end, and
    the walk's keys are Python ints."""
    rep = build_hecke_module(build_family("syt", (2, 1)))
    assert hecke.support_walk(rep, np.int64(1)) == hecke.support_walk(rep, 1)
    assert all(type(c) is int for c in hecke.support_walk(rep, np.int64(1)))
    for bad in (-1, rep.dim, 1.5, True, None):
        with pytest.raises(DomainError, match=rf"is not an integer in 0\.\.{rep.dim - 1}"):
            hecke.support_walk(rep, bad)


def assert_matches_oracle(fam):
    """In both conventions, the gate verdict and witness, the basis, the
    generator triples and the relation report equal the oracle's, building
    by force where the gate rejects; so do the case and swap target of each
    pi_i on each tableau that the supermodule reads from the word set.
    Returns the relation reports by convention."""
    reports = {}
    for convention, gate, mode in (
        ("pi", is_ascent_compatible, "ascent"),
        ("hat", is_descent_compatible, "descent"),
    ):
        verdict = gate(fam)
        assert (verdict.ok, verdict.witness) == oracle.oracle_compatibility(fam, mode)
        rep = build_hecke_module(fam, convention, force=not verdict.ok)
        basis, mats = oracle.oracle_hecke_matrices(fam, convention)
        assert rep.basis == basis
        assert generator_triples(rep) == [oracle.triples(m) for m in mats]
        reports[convention] = verify_hecke_relations(rep)
        assert reports[convention] == oracle.product_hecke_relations(mats, convention)
        if convention == "pi":
            # pi_i scales a descent by -1 and sends an ascent to its swap or 0
            columns = [[oracle.column(mat, c) for c in range(len(basis))] for mat in mats]
            expected = tuple(
                tuple(
                    (DESCENT, -1) if col == [(c, -1)] else (ATTACK, col[0][0] if col else -1)
                    for c, col in enumerate(cols)
                )
                for cols in columns
            )
            words = build_clifford_module(fam, force=True).family.word_set
            cases = np.where(words.descent, DESCENT, ATTACK).tolist()
            swaps = swap_targets(words).tolist()
            assert tuple(tuple(zip(*edges)) for edges in zip(cases, swaps)) == expected
    return reports


def test_word_graph_matches_oracle_on_built_in_families():
    built = 0
    for kind, shape, sigma in family_instances(5, sigmas=True):
        fam = build_family(kind, shape, sigma)
        if fam.members:
            assert_matches_oracle(fam)
            built += 1
    assert built == 968


def test_word_graph_matches_oracle_on_forced_word_sets():
    families = forced_word_set_families()
    assert len(families) == 63
    reports = {tuple(t.reading_word for t in fam): assert_matches_oracle(fam) for fam in families}
    control = reports[((1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1))]
    assert "braid fails at pi[1], pi[2]" in control["pi"].violations
    assert "braid fails at hat[1], hat[2]" in control["hat"].violations


def assert_matches_former_paths(fam):
    """The keyed word graph equals the byte-row one, and in both
    conventions, built by force, the report shared per word set and
    convention equals the one-pass check of the rep's maps and the grouped
    check; the rep switched to the other convention reads the maps and the
    report of that convention's build."""
    words = fam.word_set
    order, positions, descent, target = oracle.byte_row_word_graph(fam)
    assert np.array_equal(words.order, order)
    assert np.array_equal(words.positions, positions)
    assert words.descent.dtype == bool and np.array_equal(words.descent, descent)
    assert words.target.dtype == np.int32 and np.array_equal(words.target, target)
    for convention, other in (("pi", "hat"), ("hat", "pi")):
        rep = build_hecke_module(fam, convention, force=True)
        report = verify_hecke_relations(rep)
        assert report == hecke._relation_report(rep.targets, rep.signs, convention)
        assert report == oracle.grouped_hecke_relations(rep)
        switched = dataclasses.replace(rep, convention=other)
        built = build_hecke_module(fam, other, force=True)
        assert np.array_equal(switched.targets, built.targets) and np.array_equal(switched.signs, built.signs)
        assert verify_hecke_relations(switched) == verify_hecke_relations(built)


def test_former_paths_agree_on_built_in_families():
    built = 0
    for kind, shape, sigma in family_instances(6, sigmas=True):
        fam = build_family(kind, shape, sigma)
        if fam.members:
            assert_matches_former_paths(fam)
            built += 1
    assert built == 4603


def test_former_paths_agree_on_large_families():
    for kind, shape in [("syt", (5, 4, 3, 1)), ("rib", (3, 4, 4)), ("sit", (4, 4, 4)),
                        ("srit", (4, 4, 3)), ("syt", (4, 3, 2)), ("spct", (3, 3, 3))]:
        assert_matches_former_paths(build_family(kind, shape))


def test_former_paths_agree_on_forced_word_sets():
    families = forced_word_set_families() + square_families()
    assert len(families) == 63 + 15
    for fam in families:
        assert_matches_former_paths(fam)


def assert_interning_matches_uncached(families):
    """Each family's gate verdicts and witnesses and its supermodule report,
    all read through its interned word set, equal those computed afresh from
    its words; witnesses lie on the family's diagram; the shared arrays are
    read-only; and two families share a word set exactly when they have the
    same reading words.  Returns the number of distinct word sets."""
    interned = {}
    for fam in families:
        words = fam.word_set
        reading_words = frozenset(map(tuple, fam.words.tolist()))
        assert interned.setdefault(reading_words, words) is words
        fresh = tableaux._word_set(fam.words)
        assert fresh is not words
        for name in ("order", "positions", "descent", "target"):
            shared = getattr(words, name)
            assert shared.flags.writeable is False
            assert np.array_equal(shared, getattr(fresh, name))
        assert fam.basis.order is words.order
        for mode, gate in (("ascent", is_ascent_compatible), ("descent", is_descent_compatible)):
            verdict = gate(fam)
            scan = tableaux._gate_scan.__wrapped__(fresh, mode)
            assert tableaux._gate_scan(words, mode) == scan
            ok, earlier, later, r, s = scan
            basis = fam.members.reordered(fresh.order)
            assert (verdict.ok, verdict.witness) == (ok, None if ok else (basis[earlier], basis[later], r, s))
            if not ok:
                assert all(tab.diagram == fam.diagram and tab in fam for tab in verdict.witness[:2])
        report = verify_clifford_relations(build_clifford_module(fam, force=True))
        assert report.violations == hecke._module_relations.__wrapped__(fresh, "pi").violations
    assert len({id(words) for words in interned.values()}) == len(interned)
    return len(interned)


def test_interned_word_sets_match_uncached():
    built = [
        fam for fam in (build_family(*inst) for inst in family_instances(5, sigmas=True)) if fam.members
    ]
    assert len(built) == 968
    assert assert_interning_matches_uncached(built) == 171
    # each forced word set on the demo diagram and as single-row fillings:
    # the two families share a word set but not a diagram
    forced = forced_word_set_families()
    forced += [words_family([t.reading_word for t in fam]) for fam in forced] + square_families()
    assert assert_interning_matches_uncached(forced) == 63 + 15


def test_verified_word_sets_are_freed_with_their_families(monkeypatch):
    """The reports kept per word set hold it weakly."""
    monkeypatch.setattr(tableaux, "_word_sets", weakref.WeakValueDictionary())
    fam = words_family([(1, 2, 3), (2, 1, 3)])
    assert verify_hecke_relations(build_hecke_module(fam)).ok
    assert verify_clifford_relations(build_clifford_module(fam)).ok
    words = weakref.ref(fam.word_set)
    del fam
    gc.collect()
    assert words() is None


@pytest.mark.parametrize("kind, shape", [("syt", (3, 2)), ("sit", (2, 2, 1)), ("rib", (2, 1, 2))])
def test_word_sets_of_wider_entry_arrays(kind, shape):
    """Words given as int64 rows key a separate word set, whose positions
    keep that dtype, with the same arrays, gate verdicts and reports."""
    fam = build_family(kind, shape)
    wide = tableaux.TableauFamily(
        fam.diagram,
        tableaux.Tableaux(fam.diagram, fam.words.astype(np.int64)),
        "wide",
        descent_masks=fam.descent_masks,
    )
    assert wide.word_set is not fam.word_set and wide.word_set.positions.dtype == np.int64
    for name in ("order", "positions", "descent", "target"):
        assert np.array_equal(getattr(wide.word_set, name), getattr(fam.word_set, name))
    for gate in (is_ascent_compatible, is_descent_compatible):
        assert gate(wide) == gate(fam)
    reports = [verify_clifford_relations(build_clifford_module(f, force=True)) for f in (wide, fam)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("n", [15, 16, 17])
def test_word_graph_keys_are_exact_at_the_int64_boundary(n):
    """n^n < 2^63 only for n <= 15; above it the keys are Python integers.
    Words within two swaps of a random one give many swap targets."""
    rng = random.Random(n)
    words = {tuple(rng.sample(range(1, n + 1), n))}
    for _ in range(2):
        words |= {swap_values(w, i) for w in words for i in range(1, n) if rng.random() < 0.5}
    fam = words_family(sorted(words))
    assert (fam.word_set.target >= 0).sum() > len(words)
    assert_matches_former_paths(fam)


@pytest.mark.parametrize("n, relations", [(1, 0), (2, 1)])
def test_smallest_modules_verify(n, relations):
    fam = words_family(list(itertools.permutations(range(1, n + 1))))
    for convention in ("pi", "hat"):
        report = verify_hecke_relations(build_hecke_module(fam, convention))
        assert (report.checked, report.violations) == (relations, ())


def test_commutation_square_forced_builds():
    """Force-built in pi, in hat and as a supermodule, exactly two subsets
    of the square break a relation, each only the commutation of generators
    1 and 3; the reports equal the product and materialised oracles'."""
    failing = {}
    for fam in square_families():
        words = frozenset(t.reading_word for t in fam)
        for convention in ("pi", "hat"):
            report = verify_hecke_relations(build_hecke_module(fam, convention, force=True))
            _, mats = oracle.oracle_hecke_matrices(fam, convention)
            assert report == oracle.product_hecke_relations(mats, convention)
            if report.violations:
                failing[words, convention] = report.violations
        crep = build_clifford_module(fam, force=True)
        report = verify_clifford_relations(crep)
        expected = oracle.materialised_clifford_relations(crep)
        assert (report.checked, report.violations) == (expected.checked, expected.violations)
        if report.violations:
            failing[words, "supermodule"] = report.violations
    bad = [
        frozenset({(1, 2, 3, 4), (2, 1, 3, 4), (2, 1, 4, 3)}),
        frozenset({(1, 2, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3)}),
    ]
    assert failing == {
        (words, convention): (f"{label}[1] and {label}[3] do not commute",)
        for words in bad
        for convention, label in (("pi", "pi"), ("hat", "hat"), ("supermodule", "pi"))
    }


def assert_reversal_duality(fam):
    """Reversing every reading word turns hat into pi: the hat report of the
    word set is the pi report of the reversed word set with each message
    relabelled, and the pi-table check of the negated hat maps; the word set
    is descent-compatible exactly when the reversed one is ascent-compatible.
    Only verdicts are compared, not witnesses."""
    reversed_fam = words_family(sorted(tuple(w[::-1]) for w in fam.words.tolist()))
    hat = verify_hecke_relations(HeckeModuleRep(fam, HAT))
    pi = verify_hecke_relations(HeckeModuleRep(reversed_fam, PI))
    k = fam.n - 1
    labels = {p[0]: h[0] for p, h in zip(zero_hecke_relations(k, PI), zero_hecke_relations(k, HAT))}
    assert hat.checked == pi.checked
    assert hat.violations == tuple(labels[message] for message in pi.violations)
    targets, signs = hecke_maps(fam.word_set, HAT)
    assert hecke._relation_report(targets, -signs, PI) == pi
    assert is_descent_compatible(fam).ok == is_ascent_compatible(reversed_fam).ok
    return hat.ok


def test_reversal_duality_on_forced_and_square_word_sets():
    verdicts = Counter(assert_reversal_duality(fam) for fam in forced_word_set_families() + square_families())
    assert verdicts == {True: 70, False: 8}


def test_reversal_duality_on_built_in_families():
    for inst in family_instances(5, sigmas=True):
        fam = build_family(*inst)
        if fam.members:
            assert_reversal_duality(fam)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.sets(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=40)
    )
)
def test_reversal_duality_on_word_sets(words):
    assert_reversal_duality(words_family(sorted(words)))


def test_module_relations_are_checked_once_per_word_set_and_convention(monkeypatch):
    """Modules of two families with the same words share one report per
    convention."""
    calls = []
    check = hecke._relation_report
    monkeypatch.setattr(hecke, "_relation_report", lambda *args: calls.append(args[-1]) or check(*args))
    monkeypatch.setattr(tableaux, "_word_sets", weakref.WeakValueDictionary())
    built = build_family("syt", (3, 2))
    twins = [
        tableaux.TableauFamily(built.diagram, built.members, tag, "syt", (3, 2), descent_masks=built.descent_masks)
        for tag in "ab"
    ]
    assert twins[0].word_set is twins[1].word_set
    reports = {}
    for fam in twins * 2:
        for convention in ("pi", "hat"):
            report = verify_hecke_relations(build_hecke_module(fam, convention, force=True))
            assert reports.setdefault(convention, report) is report
    assert Counter(calls) == {"pi": 1, "hat": 1}


def test_built_maps_are_read_only():
    """A rep reads its maps once, read-only."""
    rep = build_hecke_module(build_family("syt", (3, 2)))
    assert rep.targets is rep.targets and rep.signs is rep.signs
    for maps in (rep.targets, rep.signs):
        with pytest.raises(ValueError):
            maps[0, 0] = 0


def test_constructor_rejects_unknown_conventions():
    fam = build_family("syt", (3, 2))
    for make in (lambda: HeckeModuleRep(fam, "foo"), lambda: build_hecke_module(fam, "foo")):
        with pytest.raises(DomainError, match="unknown convention 'foo'"):
            make()


@pytest.mark.parametrize("kind, modes", [("syt", {"ascent": 1}), ("sit", {"ascent": 1, "descent": 1})])
def test_check_family_computes_each_gate_once(kind, modes, monkeypatch):
    """The gate scan is kept on the word set: the module and supermodule
    builders, the direct gate calls and a second family with the same words
    share one scan per word set and mode."""
    calls = []
    scan = tableaux._gate_scan.__wrapped__
    # the scan behind a fresh memo, and a fresh interning table, so the
    # words are scanned here however many tests read them before
    counted = tableaux.word_set_memo(lambda words, mode: calls.append(mode) or scan(words, mode))
    monkeypatch.setattr(tableaux, "_gate_scan", counted)
    monkeypatch.setattr(tableaux, "_word_sets", weakref.WeakValueDictionary())
    built = build_family(kind, (3, 2))
    fam = tableaux.TableauFamily(
        built.diagram, built.members, "fresh", kind, built.shape, descent_masks=built.descent_masks
    )
    assert check_family(fam).ok
    assert Counter(calls) == modes
    check_family(fam)
    assert is_ascent_compatible(fam) is is_ascent_compatible(fam)
    assert Counter(calls) == modes
    twin = tableaux.TableauFamily(
        built.diagram, built.members, "twin", kind, built.shape, descent_masks=built.descent_masks
    )
    assert twin.word_set is fam.word_set
    assert check_family(twin).ok
    assert is_descent_compatible(twin) == is_descent_compatible(fam)
    assert Counter(calls) == {"ascent": 1, "descent": 1}


# (family kind, shape, convention, generator, basis column holding a swap
# entry, the violations each fault of that entry must cause)
MAP_FAULTS = {
    "pi": ("syt", (3, 2), "pi", 2, 2, {
        "sign flip": ("pi[2] and pi[4] do not commute",),
        "dropped target": ("pi[2] and pi[4] do not commute",),
        "moved target": ("pi[2]^2 != -1*pi[2]", "pi[2] and pi[4] do not commute"),
    }),
    "hat": ("sit", (2, 2, 1), "hat", 4, 2, {
        "sign flip": ("hat[2] and hat[4] do not commute", "braid fails at hat[3], hat[4]"),
        "dropped target": ("hat[2] and hat[4] do not commute", "braid fails at hat[3], hat[4]"),
        "moved target": (
            "hat[4]^2 != +1*hat[4]",
            "hat[1] and hat[4] do not commute",
            "hat[2] and hat[4] do not commute",
            "braid fails at hat[3], hat[4]",
        ),
    }),
}


def faulty_maps(case, fault):
    """A built rep and copies of its maps with one fault of ``MAP_FAULTS``
    injected."""
    kind, shape, convention, gen, col, _ = MAP_FAULTS[case]
    rep = build_hecke_module(build_family(kind, shape), convention)
    targets, signs = rep.targets.copy(), rep.signs.copy()
    target, sign = targets[gen - 1], signs[gen - 1]
    assert target[col] not in (rep.dim, 0, col)
    if fault == "sign flip":
        sign[col] = -sign[col]
    elif fault == "dropped target":
        target[col], sign[col] = rep.dim, 0
    else:
        target[col] = 0
    return rep, targets, signs


def map_matrices(targets, signs):
    """The matrices of signed partial maps in the sink-column encoding."""
    dim = targets.shape[1] - 1
    cols = [np.flatnonzero(sign[:dim]) for sign in signs]
    return [oracle.matrix(dim, t[c], c, s[c]) for t, s, c in zip(targets, signs, cols)]


@pytest.mark.parametrize("fault", ["sign flip", "dropped target", "moved target"])
@pytest.mark.parametrize("case", sorted(MAP_FAULTS))
def test_signed_map_check_reports_injected_faults(case, fault):
    convention, expected = MAP_FAULTS[case][2], MAP_FAULTS[case][5]
    rep, targets, signs = faulty_maps(case, fault)
    clean = oracle.product_hecke_relations(oracle.materialised(rep, convention), convention)
    assert clean.ok and verify_hecke_relations(rep) == clean
    report = hecke._relation_report(targets, signs, convention)
    assert report == oracle.product_hecke_relations(map_matrices(targets, signs), convention)
    assert report.violations == expected[fault]


@pytest.mark.parametrize("fault", ["sign flip", "dropped target", "moved target"])
@pytest.mark.parametrize("case", sorted(MAP_FAULTS))
def test_faults_show_after_the_built_rep_is_verified(case, fault):
    """Faulty maps cannot enter a rep, neither through the constructor nor
    through ``dataclasses.replace``, so the report shared by reps of the
    family stays that of its own maps, and checking the faulty maps after it
    still shows the fault."""
    convention, expected = MAP_FAULTS[case][2], MAP_FAULTS[case][5]
    rep, targets, signs = faulty_maps(case, fault)
    assert verify_hecke_relations(rep).ok
    with pytest.raises(TypeError):
        HeckeModuleRep(rep.family, convention, targets, signs)
    with pytest.raises(TypeError):
        dataclasses.replace(rep, targets=targets, signs=signs)
    assert hecke._relation_report(targets, signs, convention).violations == expected[fault]
    assert verify_hecke_relations(rep).ok
