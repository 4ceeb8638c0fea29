import hashlib
import itertools
import json

import pytest

import diagmod.harness
from diagmod.cli import main
from diagmod.compositions import (
    enumerate_peak_compositions,
    enumerate_strict_partitions,
    format_composition,
)
from diagmod.errors import DomainError
from diagmod.harness import (
    all_intervals,
    ascent_pairs,
    build_interval_modules,
    check_Q_minus_S_positivity,
    check_rect_isomorphism,
    check_schurQ_inclusion,
    generalization_witness,
    leq_left_weak,
    longest_element,
    perm_descents,
    perm_inversions,
    run_harness,
    s_apply,
    theta_matches_peak,
    transition_to_peak_basis,
    weak_bruhat_interval,
    words_family,
    _upward_closure,
)
from diagmod.families import build_family


def test_perm_helpers():
    assert perm_descents((3, 1, 2)) == {2}
    assert perm_inversions((3, 1, 2)) == 2
    assert s_apply(1, (2, 1, 3)) == (1, 2, 3)
    assert longest_element(4) == (4, 3, 2, 1)
    assert ascent_pairs((1, 2)) == {(1, 2)}


def test_interval_identity_to_longest_is_everything():
    n = 4
    iv = weak_bruhat_interval(tuple(range(1, n + 1)), longest_element(n))
    assert len(iv) == 24


def test_interval_singleton():
    iv = weak_bruhat_interval((2, 1, 3), (2, 1, 3))
    assert iv.members == ((2, 1, 3),)


def test_interval_requires_comparability():
    with pytest.raises(DomainError):
        weak_bruhat_interval((2, 1, 3), (1, 3, 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_ascent_pair_criterion_matches_closure(n):
    perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    ups = {g: _upward_closure(g) for g in perms}
    for g in perms:
        for rho in perms:
            assert (rho in ups[g]) == leq_left_weak(g, rho)


@pytest.mark.parametrize("n", range(1, 5))
def test_interval_modules_match_diagram_modules(n):
    for iv in all_intervals(n):
        rep, hat_rep = build_interval_modules(iv)
        assert rep.dim == len(iv) == hat_rep.dim


def test_words_family_rejects_garbage():
    with pytest.raises(DomainError):
        words_family([(1, 2), (1, 2, 3)])
    with pytest.raises(DomainError):
        words_family([])
    with pytest.raises(DomainError):
        words_family([(1, 1, 2)])


def test_witness_report():
    report = generalization_witness()
    assert report.size_three_intervals == 4
    assert report.all_chains
    assert report.max_nonattacking_in_intervals <= 1
    assert not report.demo_words_form_interval
    assert report.demo_max_nonattacking == 2
    assert report.verdict == "not isomorphic to any weak Bruhat interval module"


@pytest.mark.parametrize("n", range(1, 7))
def test_rect_isomorphism(n):
    for lam in enumerate_strict_partitions(n):
        assert check_rect_isomorphism(lam)


def test_rect_isomorphism_rejects_non_strict():
    with pytest.raises(DomainError):
        check_rect_isomorphism((2, 2))


def test_transition_matrix_small():
    peaks, matrix = transition_to_peak_basis(2)
    assert peaks == ((2,),)
    assert matrix == [[1]]
    peaks, matrix = transition_to_peak_basis(7)
    m = len(peaks)
    for i in range(m):
        assert matrix[i][i] == 1
        assert all(matrix[i][j] == 0 for j in range(i))


@pytest.mark.parametrize("n", range(1, 8))
def test_positivity(n):
    for alpha in enumerate_peak_compositions(n):
        assert check_Q_minus_S_positivity(alpha)


def test_positivity_zero_difference():
    # single row: both families are the same singleton
    assert len(build_family("spct", (4,))) == len(build_family("spyct", (4,))) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_inclusion(n):
    for lam in enumerate_strict_partitions(n):
        assert check_schurQ_inclusion(lam)


def test_theta_matches_peak_for_demo():
    assert theta_matches_peak(build_family("spct", (3, 3, 1)))


def test_run_harness_records():
    records = run_harness(["witness", "transition"], max_n=3)
    assert all(r.verdict == "pass" for r in records)
    kinds = {r.theorem for r in records}
    assert "interval-witness" in kinds and "peak-transition" in kinds
    as_dicts = [r.as_dict() for r in records]
    assert all(set(d) == {"theorem", "shape", "verdict", "dims", "elapsed"} for d in as_dicts)


def test_run_harness_isolates_a_raising_job(monkeypatch):
    real = diagmod.harness.check_Q_minus_S_positivity

    def raise_at_21(alpha):
        if tuple(alpha) == (2, 1):
            raise DomainError("injected")
        return real(alpha)

    monkeypatch.setattr(diagmod.harness, "check_Q_minus_S_positivity", raise_at_21)
    records = run_harness(["positivity", "witness"], max_n=4)
    shapes = [format_composition(a) for n in range(1, 5) for a in enumerate_peak_compositions(n)]
    assert [r.shape for r in records] == shapes + ["-"]
    bad = [(r.shape, r.verdict, r.dims) for r in records if r.verdict != "pass"]
    assert bad == [("2,1", "ERROR", "DomainError: injected")]
    argv = ["harness", "--check", "positivity", "--check", "witness", "--max-n", "4"]
    assert main(argv) == 1


def test_run_harness_output_is_pinned():
    """The harness JSONL for max_n 6, without timings, is fixed."""
    records = run_harness(max_n=6)
    assert len(records) == 1229 and all(r.verdict == "pass" for r in records)
    rows = [{k: v for k, v in r.as_dict().items() if k != "elapsed"} for r in records]
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "99a3fb631c032cad1cef689fc700b0895a185d82f22495cd042fc887d5d74231"


def test_rect_paired_quotients_share_reference_module():
    from diagmod.clifford import build_clifford_module, filtration_quotient_check
    from diagmod.compositions import comp_n
    from diagmod.families import rect
    from diagmod.tableaux import descent_set_tab

    lam = (4, 2, 1)
    shifted = build_clifford_module(build_family("ssht", lam))
    columnar = build_clifford_module(build_family("spyct", lam))
    n = shifted.n
    for k, tab in enumerate(shifted.basis_tableaux, start=1):
        paired = rect(tab)
        k2 = columnar.tableau_index[paired] + 1
        # same descent composition, hence the same reference module
        assert comp_n(descent_set_tab(tab), n) == comp_n(descent_set_tab(paired), n)
        assert filtration_quotient_check(shifted, k)
        assert filtration_quotient_check(columnar, k2)
