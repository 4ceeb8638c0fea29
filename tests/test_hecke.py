import dataclasses
import itertools
import random
from collections import Counter

import numpy as np
import pytest

import _oracles as oracle
from conftest import apply_word, forced_word_set_families, member_by_word
from diagmod import tableaux
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
    build_hecke_module,
    generating_words,
    qsym_characteristic,
    reachability_closure,
    verify_hecke_relations,
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
    col = rep.index[tab]
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
            col = {rep.index[t]: v for t, v in column_action(rep, i, tab).items()}
            c = rep.index[tab]
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


def direct_ribbon_maps(fam, basis, index):
    """Ribbon generator action implemented straight from row comparisons, as
    (targets, signs) per generator: scale by -1 when i sits strictly above
    i+1, kill when they share a row, swap when i sits strictly below i+1.
    A zero image points at the sink column len(basis), fixed with sign 0."""
    from diagmod.tableaux import swap_entries

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
        direct = direct_ribbon_maps(fam, rep.basis, rep.index)
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
        assert rep.index[target] in apply_word(rep, word, {rep.index[seed]: 1})


def assert_matches_oracle(fam):
    """In both conventions, the gate verdict and witness, the basis, the
    generator triples and the relation report equal the oracle's, building
    by force where the gate rejects; so do the case and swap target of each
    pi_i on each tableau that the supermodule reads from the word graph.
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
            graph = build_clifford_module(fam, force=True).family.word_graph
            cases = np.where(graph.descent, DESCENT, ATTACK).tolist()
            swaps = swap_targets(graph).tolist()
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
    conventions, built by force, the one-pass relation check equals the
    grouped one."""
    graph = fam.word_graph
    order, positions, descent, target = oracle.byte_row_word_graph(fam)
    assert np.array_equal(graph.basis.order, order)
    assert np.array_equal(graph.positions, positions)
    assert graph.descent.dtype == bool and np.array_equal(graph.descent, descent)
    assert graph.target.dtype == np.int32 and np.array_equal(graph.target, target)
    for convention in ("pi", "hat"):
        rep = build_hecke_module(fam, convention, force=True)
        assert verify_hecke_relations(rep) == oracle.grouped_hecke_relations(rep)


SQUARE = ((1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3))


def square_families():
    """Every nonempty subset of the square of words joined by the
    commuting swaps at 1 and 3, as a family of single-row fillings."""
    return [
        words_family(words)
        for size in range(1, len(SQUARE) + 1)
        for words in itertools.combinations(SQUARE, size)
    ]


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


@pytest.mark.parametrize("n", [15, 16, 17])
def test_word_graph_keys_are_exact_at_the_int64_boundary(n):
    """n^n < 2^63 only for n <= 15; above it the keys are Python integers.
    Words within two swaps of a random one give many swap targets."""
    rng = random.Random(n)
    words = {tuple(rng.sample(range(1, n + 1), n))}
    for _ in range(2):
        words |= {swap_values(w, i) for w in words for i in range(1, n) if rng.random() < 0.5}
    fam = words_family(sorted(words))
    assert (fam.word_graph.target >= 0).sum() > len(words)
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


@pytest.mark.parametrize("kind, modes", [("syt", {"ascent": 1}), ("sit", {"ascent": 1, "descent": 1})])
def test_check_family_computes_each_gate_once(kind, modes, monkeypatch):
    """The gate verdict is cached on the family: the module and supermodule
    builders and the direct gate calls share one scan per mode."""
    calls = []
    scan = tableaux._compatibility
    monkeypatch.setattr(tableaux, "_compatibility", lambda fam, mode: calls.append(mode) or scan(fam, mode))
    built = build_family(kind, (3, 2))
    fam = tableaux.TableauFamily(built.diagram, built.members, "fresh", kind, built.shape)
    assert check_family(fam).ok
    assert Counter(calls) == modes
    check_family(fam)
    assert is_ascent_compatible(fam) is is_ascent_compatible(fam)
    assert Counter(calls) == modes


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


@pytest.mark.parametrize("fault", ["sign flip", "dropped target", "moved target"])
@pytest.mark.parametrize("case", sorted(MAP_FAULTS))
def test_signed_map_check_reports_injected_faults(case, fault):
    kind, shape, convention, gen, col, expected = MAP_FAULTS[case]
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
    faulty = dataclasses.replace(rep, targets=targets, signs=signs)
    report = verify_hecke_relations(faulty)
    mats = oracle.materialised(faulty, convention)
    assert report == oracle.product_hecke_relations(mats, convention)
    assert report.violations == expected[fault]
