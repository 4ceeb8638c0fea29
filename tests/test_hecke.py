import itertools

import pytest

from conftest import member_by_word
from diagmod.compositions import comp_n, enumerate_compositions, enumerate_strict_partitions
from diagmod.errors import DomainError, IncompatibleFamilyError
from diagmod.families import FamilyKind, NATIVE_CONVENTION, build_family, shapes_for
from diagmod.harness import check_family
from diagmod.hecke import (
    build_hecke_module,
    generating_words,
    qsym_characteristic,
    reachability_closure,
    verify_hecke_relations,
)
from diagmod.matrices import OperatorMatrix
from diagmod.series import FormalSum
from diagmod.tableaux import descent_set_tab, inversions


def column_action(rep, i, tab):
    """Image of a basis tableau under generator i as a {tableau: coeff} map."""
    col = rep.index[tab]
    return {rep.basis[r]: v for r, v in rep.pi[i - 1].column(col)}


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
        expected = {(0, 0): -1} if i in des else {}
        assert rep.pi[i - 1].entries() == expected
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
    for i, mat in enumerate(rep.pi, start=1):
        for c, tab in enumerate(rep.basis):
            col = dict(mat.column(c))
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
        for mat in rep.pi:
            for r, c, v in mat.triples():
                if r == c:
                    assert v in diag_values
                else:
                    # swap images land on earlier basis elements
                    assert r < c
                    assert v == 1


def direct_ribbon_matrices(fam, basis, index):
    """Ribbon generator action implemented straight from row comparisons:
    scale by -1 when i sits strictly above i+1, kill when they share a row,
    swap when i sits strictly below i+1."""
    n = fam.n
    mats = []
    for i in range(1, n):
        entries = {}
        for c, tab in enumerate(basis):
            rows = {e: r for (_col, r), e in tab.box_map().items()}
            if rows[i] > rows[i + 1]:
                entries[(c, c)] = -1
            elif rows[i] == rows[i + 1]:
                pass
            else:
                from diagmod.tableaux import swap_entries

                entries[(index[swap_entries(tab, i)], c)] = 1
        mats.append(OperatorMatrix.from_entries(len(basis), entries))
    return mats


@pytest.mark.parametrize("n", range(1, 7))
def test_ribbon_action_matches_direct_rule(n):
    for alpha in enumerate_compositions(n):
        fam = build_family("rib", alpha)
        rep = build_hecke_module(fam, "pi")
        direct = direct_ribbon_matrices(fam, rep.basis, rep.index)
        assert list(rep.pi) == direct, alpha


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
    # replay each word through the matrices and confirm the target appears
    for target, word in words.items():
        vec = {rep.index[seed]: 1}
        for gen in reversed(word):
            vec = rep.pi[gen - 1].apply(vec)
        assert rep.index[target] in vec
