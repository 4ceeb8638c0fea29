import hashlib
import itertools
import json

import pytest

import _oracles as oracle
import diagmod.harness
from diagmod.cli import main
from diagmod.compositions import (
    enumerate_peak_compositions,
    enumerate_strict_partitions,
    format_composition,
)
from diagmod.errors import DomainError
from diagmod.harness import (
    CHECKS,
    TheoremMismatch,
    _graphs_isomorphic,
    _max_nonattacking,
    _weak_order_walk,
    all_intervals,
    ascent_pairs,
    build_interval_modules,
    check_Q_minus_S_positivity,
    check_rect_isomorphism,
    check_schurQ_inclusion,
    generalization_witness,
    leq_left_weak,
    longest_element,
    run_harness,
    theta_matches_peak,
    transition_to_peak_basis,
    weak_bruhat_interval,
    words_family,
)
from diagmod.clifford import build_clifford_module
from diagmod.families import build_family, family_instances, rect
from diagmod.tableaux import inversions, swap_values, word_descents


def test_perm_helpers():
    assert word_descents((3, 1, 2)) == {2}
    assert inversions((3, 1, 2)) == 2
    assert swap_values((2, 1, 3), 1) == (1, 2, 3)
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
    ups = {g: _weak_order_walk(g, upward=True) for g in perms}
    for g in perms:
        for rho in perms:
            assert (rho in ups[g]) == leq_left_weak(g, rho)


@pytest.mark.parametrize("n", range(1, 6))
def test_downward_walk_is_the_lower_set(n):
    perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    for g in perms:
        assert _weak_order_walk(g, upward=False) == {s for s in perms if leq_left_weak(s, g)}


@pytest.mark.parametrize("n", range(1, 5))
def test_all_intervals_are_the_pairwise_intervals(n):
    perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    pairwise = [
        weak_bruhat_interval(sigma, rho) for sigma in perms for rho in perms if leq_left_weak(sigma, rho)
    ]
    assert all_intervals(n) == pairwise


def test_interval_cross_check_raises_on_a_wrong_walk(monkeypatch):
    """A downward walk that also reaches the longest element from the
    identity disagrees with the ascent-pair criterion on [id, id]."""
    walk = diagmod.harness._weak_order_walk
    identity, top = (1, 2, 3), longest_element(3)

    def wrong(g, upward):
        return walk(g, upward) | ({top} if g == identity and not upward else set())

    monkeypatch.setattr(diagmod.harness, "_weak_order_walk", wrong)
    with pytest.raises(TheoremMismatch):
        weak_bruhat_interval(identity, identity)
    with pytest.raises(TheoremMismatch):
        all_intervals(3)


@pytest.mark.parametrize("n", range(1, 5))
def test_word_graph_nonattacking_count_matches_oracle(n):
    for iv in all_intervals(n):
        expected = max(oracle.interval_nonattacking_counts(iv))
        assert _max_nonattacking(words_family(iv.members)) == expected, iv


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


def _transpositions(pairing):
    for a, b in itertools.combinations(range(len(pairing)), 2):
        wrong = list(pairing)
        wrong[a], wrong[b] = wrong[b], wrong[a]
        yield wrong


def assert_isomorphism_verdicts_agree(rep_a, rep_b, pairing):
    """The Hecke-graph isomorphism check and the matrix identity P A = B P
    on the materialised generators accept the pairing and agree on every
    pairing with two tableaux exchanged; returns how many of those both
    reject."""
    assert _graphs_isomorphic(rep_a, rep_b, pairing)
    assert oracle.materialised_intertwiner(rep_a, rep_b, pairing)
    rejected = 0
    for wrong in _transpositions(pairing):
        verdict = _graphs_isomorphic(rep_a, rep_b, wrong)
        assert verdict == oracle.materialised_intertwiner(rep_a, rep_b, wrong), wrong
        rejected += not verdict
    return rejected


def test_rect_graph_isomorphism_matches_materialised_intertwiner():
    """On every strict partition with n <= 6 the two checks accept the rect
    pairing, agree on every exchange of two tableaux, and both reject the
    exchange of the first and last."""
    exchanged = 0
    for n in range(1, 7):
        for lam in enumerate_strict_partitions(n):
            shifted = build_clifford_module(build_family("ssht", lam))
            columnar = build_clifford_module(build_family("spyct", lam))
            pairing = [columnar.tableau_index[rect(t)] for t in shifted.basis_tableaux]
            assert_isomorphism_verdicts_agree(shifted, columnar, pairing)
            if len(pairing) > 1:
                wrong = [pairing[-1]] + pairing[1:-1] + [pairing[0]]
                assert not _graphs_isomorphic(shifted, columnar, wrong), lam
                assert not oracle.materialised_intertwiner(shifted, columnar, wrong), lam
                exchanged += 1
    assert exchanged == 6


def test_graph_automorphisms_match_materialised_intertwiner():
    """Each nonempty family with n <= 4 paired with itself: the two checks
    accept the identity and agree on every exchange of two tableaux, which
    includes exchanges that keep every case or every swap target."""
    rejected = 0
    for kind, shape, sigma in family_instances(4, sigmas=True):
        fam = build_family(kind, shape, sigma)
        if fam.members:
            rep = build_clifford_module(fam)
            rejected += assert_isomorphism_verdicts_agree(rep, rep, range(len(fam.members)))
    assert rejected > 0


@pytest.mark.parametrize("flavour", ["bar", "plain"])
def test_interval_modules_reject_a_moved_target(flavour, monkeypatch):
    """A direct-rule swap target moved to another basis element is a
    mismatch with the diagram module."""
    direct = diagmod.harness._direct_interval_maps

    def moved(interval, order, kind):
        maps = direct(interval, order, kind)
        if kind == flavour:
            targets, _ = maps[0]
            col = next(c for c, t in enumerate(targets) if t not in (-1, c))
            targets[col] = col
        return maps

    monkeypatch.setattr(diagmod.harness, "_direct_interval_maps", moved)
    with pytest.raises(TheoremMismatch):
        build_interval_modules(weak_bruhat_interval((1, 2, 3), longest_element(3)))


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


def test_run_harness_rejects_an_unknown_check():
    with pytest.raises(DomainError, match="nope"):
        run_harness(("nope",))
    with pytest.raises(DomainError, match="nope"):
        run_harness(("witness", "nope"))


def test_run_harness_check_names_slice_the_full_run():
    def rows(records):
        return [{k: v for k, v in r.as_dict().items() if k != "elapsed"} for r in records]

    everything = rows(run_harness(("all",), max_n=4))
    assert rows(run_harness(CHECKS, max_n=4)) == everything
    start = 0
    for check in CHECKS:
        part = rows(run_harness((check,), max_n=4))
        assert part and everything[start : start + len(part)] == part, check
        start += len(part)
    assert start == len(everything)


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
