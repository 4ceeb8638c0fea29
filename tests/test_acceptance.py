"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.

Criterion 15 is the negative control of the compatibility gate.  It checks
the ascent witness (312, 123, 2, 3) of the three-word demo family, and that
the family's forced builds satisfy every relation: each member has an
attacking ascent at 1, so pi_1 = 0 and both sides of the braid relation
vanish.  Compatibility is sufficient for the construction, not necessary,
and no word set of fewer than four permutations on the demo diagram breaks
a relation, so the violating control is the four-word family
{123, 213, 312, 321} on the same diagram.  The gate rejects it in pi, hat
and the supermodule, and each forced build breaks the braid relation at
generators 1, 2.
"""

import itertools
import time

import pytest

from conftest import apply_word
from diagmod.clifford import (
    MarkedTableau,
    build_clifford_module,
    is_tableau_cyclic,
    peak_characteristic,
    verify_clifford_relations,
)
from diagmod.compositions import (
    enumerate_peak_compositions,
    enumerate_strict_partitions,
)
from diagmod.errors import IncompatibleFamilyError
from diagmod.families import (
    build_family,
    demo_incompatible_family,
    family_instances,
    source_tableau,
)
from diagmod.harness import (
    _weak_order_walk,
    all_intervals,
    build_interval_modules,
    check_family,
    check_Q_minus_S_positivity,
    check_rect_isomorphism,
    generalization_witness,
    leq_left_weak,
    theta_matches_peak,
    transition_to_peak_basis,
)
from diagmod.hecke import build_hecke_module, qsym_characteristic, verify_hecke_relations
from diagmod.series import FormalSum, evaluate_truncated
from diagmod.tableaux import (
    StandardTableau,
    TableauFamily,
    descent_set_tab,
    is_ascent_compatible,
)


def report(number, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return ok


@pytest.fixture(scope="session")
def relation_sweep():
    """Build every family with n <= 6, verify both relation suites, and run
    every filtration quotient check; record outcomes and split timings."""
    checks, seconds = [], 0.0
    for kind, shape, sigma in family_instances(6, sigmas=True):
        start = time.perf_counter()
        checks.append(check_family(build_family(kind, shape, sigma)))
        seconds += time.perf_counter() - start
    built = [c for c in checks if c.size]
    quotients_seconds = sum(c.quotients_s for c in checks)
    return {
        "instances": len(checks),
        "built": len(built),
        "empty": len(checks) - len(built),
        "hecke_failures": [c.tag for c in built if not c.hecke.ok],
        "clifford_failures": [c.tag for c in built if not c.clifford.ok],
        "quotient_failures": [c.tag for c in built if c.failing_quotients],
        "relations_seconds": seconds - quotients_seconds,
        "quotients_seconds": quotients_seconds,
    }


def test_criterion_01_spct_enumeration():
    start = time.perf_counter()
    fam = build_family("spct", (3, 3, 1))
    got = sorted(tuple(sorted(descent_set_tab(t))) for t in fam)
    elapsed = time.perf_counter() - start
    expected = sorted(
        tuple(sorted(s))
        for s in [
            {3, 6}, {3, 5}, {2, 4, 6}, {2, 4, 5}, {2, 6},
            {2, 5}, {2, 5, 6}, {2, 4}, {2, 5}, {2, 4, 6},
        ]
    )
    ok = len(fam) == 10 and got == expected and elapsed < 1.0
    assert report(1, ok, f"10 tableaux with the stated descent sets in {elapsed:.3f}s")


def test_criterion_02_row_enumerator_expansion():
    expected = FormalSum(
        "K", 7,
        {(3, 3, 1): 1, (3, 2, 2): 1, (2, 2, 2, 1): 2, (2, 2, 3): 2, (2, 4, 1): 1, (2, 3, 2): 3},
    )
    got = peak_characteristic(build_family("spct", (3, 3, 1)))
    assert report(2, got == expected, "six-term peak expansion is exact")


def test_criterion_03_symmetric_expansion_two_routes():
    expected = FormalSum(
        "K", 8,
        {
            (4, 3, 1): 1, (4, 2, 2): 1, (3, 2, 2, 1): 2, (3, 2, 3): 1, (3, 3, 2): 2,
            (2, 3, 2, 1): 1, (2, 3, 3): 1, (2, 2, 2, 2): 2, (2, 2, 3, 1): 1,
        },
    )
    via_shifted = peak_characteristic(build_family("ssht", (4, 3, 1)))
    via_columnar = peak_characteristic(build_family("spyct", (4, 3, 1)))
    ok = via_shifted == expected == via_columnar
    assert report(3, ok, "nine-term peak expansion agrees from both families")


def test_criterion_04_fundamental_expansion():
    expected = FormalSum(
        "F", 6, {(2, 4): 1, (1, 2, 3): 1, (1, 3, 2): 1, (1, 4, 1): 1}
    )
    got = qsym_characteristic(build_family("syct", (2, 4)))
    assert report(4, got == expected, "four-term fundamental expansion is exact")


def test_criterion_05_relation_suites(relation_sweep):
    s = relation_sweep
    ok = (
        not s["hecke_failures"]
        and not s["clifford_failures"]
        and s["relations_seconds"] < 300.0
    )
    assert report(
        5,
        ok,
        f"{s['built']} families (of {s['instances']} instances, {s['empty']} empty) "
        f"pass all module and supermodule relations in {s['relations_seconds']:.1f}s",
    ), (s["hecke_failures"], s["clifford_failures"])


def test_criterion_06_displayed_supermodule_images(compatible_family):
    rep = build_clifford_module(compatible_family)
    by_word = {t.reading_word: t for t in compatible_family}
    R, S, T = by_word[(2, 1, 3)], by_word[(1, 2, 3)], by_word[(1, 3, 2)]

    pi1 = next(entries for label, i, *entries in rep.generator_triples() if (label, i) == ("pi", 1))

    def image(tab, *marks):
        rows, cols, values = pi1
        at = cols == rep.index_of(MarkedTableau(tab, frozenset(marks)))
        return {rep.basis_element(int(r)): int(v) for r, v in zip(rows[at], values[at])}

    def mt(tab, *marks):
        return MarkedTableau(tab, frozenset(marks))

    ok = (
        image(R, 1) == {mt(R, 2): -1}
        and image(T, 1, 2) == {mt(T, 1, 2): -1, mt(T): 1}
        and image(S, 2, 3) == {mt(S, 2, 3): -1, mt(S, 1, 3): 1, mt(R, 1, 3): 1}
    )
    assert report(6, ok, "all three displayed signed images reproduced exactly")


def test_criterion_07_cyclicity():
    checked = 0
    ok = True
    for n in range(1, 7):
        for alpha in enumerate_peak_compositions(n):
            rep = build_clifford_module(build_family("spct", alpha))
            if not is_tableau_cyclic(rep, source_tableau(alpha)):
                ok = False
            checked += 1
    negative = build_clifford_module(build_family("syct", (2, 2)))
    column_orders = {
        tuple(e for r, e in sorted((r, e) for (c, r), e in t.box_map().items() if c == 2))
        for t in negative.family
    }
    negative_ok = len(column_orders) == 2 and not any(
        is_tableau_cyclic(negative, t) for t in negative.family
    )
    assert report(
        7, ok and negative_ok,
        f"{checked} generated supermodules cyclic; two-column-order control non-cyclic",
    )


def test_criterion_08_unshift_isomorphism():
    checked = 0
    ok = True
    for n in range(1, 8):
        for lam in enumerate_strict_partitions(n):
            if not check_rect_isomorphism(lam):
                ok = False
            if qsym_characteristic(build_family("ssht", lam)) != qsym_characteristic(
                build_family("syct", lam)
            ):
                ok = False
            checked += 1
    assert report(8, ok, f"{checked} intertwiners exact; fundamental characteristics agree")


def test_criterion_09_unitriangularity():
    start = time.perf_counter()
    sizes = []
    for n in range(1, 9):
        peaks, _ = transition_to_peak_basis(n)  # raises on any violation
        sizes.append(len(peaks))
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0 and sizes[-1] == 21
    assert report(
        9, ok, f"transition matrices up to 21x21 unitriangular in {elapsed:.1f}s"
    )


def test_criterion_10_positivity():
    checked = 0
    ok = True
    for n in range(1, 8):
        for alpha in enumerate_peak_compositions(n):
            if not check_Q_minus_S_positivity(alpha):
                ok = False
            checked += 1
    assert report(10, ok, f"{checked} peak-basis differences are nonnegative")


def test_criterion_11_weak_order_interval_modules():
    perms5 = [tuple(p) for p in itertools.permutations(range(1, 6))]
    ups = {g: _weak_order_walk(g, upward=True) for g in perms5}
    criterion_ok = all(
        (rho in ups[g]) == leq_left_weak(g, rho) for g in perms5 for rho in perms5
    )
    intervals = all_intervals(4)
    modules_ok = True
    for iv in intervals:
        try:
            build_interval_modules(iv)
        except AssertionError:
            modules_ok = False
    witness = generalization_witness()
    witness_ok = (
        not witness.demo_words_form_interval
        and witness.verdict == "not isomorphic to any weak Bruhat interval module"
    )
    ok = criterion_ok and modules_ok and witness_ok
    assert report(
        11, ok,
        f"ascent-pair criterion exact on 14400 pairs; {len(intervals)} interval "
        f"modules match; non-interval witness reproduced",
    )


def test_criterion_12_theta_compatibility():
    checked = 0
    ok = True
    for kind, shape, sigma in family_instances(7, sigmas=True):
        fam = build_family(kind, shape, sigma)
        if not fam.members:
            continue
        checked += 1
        if not theta_matches_peak(fam):
            ok = False
    assert report(12, ok, f"theta matches the peak characteristic on {checked} families")


def test_criterion_13_symmetry_of_truncations():
    checked = 0
    ok = True
    for n in range(1, 7):
        for lam in enumerate_strict_partitions(n):
            poly = evaluate_truncated(peak_characteristic(build_family("ssht", lam)), 3)
            for perm in itertools.permutations((1, 2, 3)):
                if poly.permute_variables(perm) != poly:
                    ok = False
            checked += 1
    assert report(13, ok, f"{checked} truncated sums invariant under all 6 permutations")


def test_criterion_14_filtration_quotients(relation_sweep):
    s = relation_sweep
    ok = not s["quotient_failures"]
    assert report(
        14, ok,
        f"every quotient of {s['built']} supermodules matches its reference module "
        f"({s['quotients_seconds']:.1f}s)",
    ), s["quotient_failures"]


def forced_reports(family):
    """Relation reports of the forced pi, hat and supermodule builds."""
    return {
        "pi": verify_hecke_relations(build_hecke_module(family, "pi", force=True)),
        "hat": verify_hecke_relations(build_hecke_module(family, "hat", force=True)),
        "clifford": verify_clifford_relations(build_clifford_module(family, force=True)),
    }


def witness_words(witness):
    first, second, r, s = witness
    return first.reading_word, second.reading_word, r, s


def gate_rejection(build, *args):
    """Mode and witness words of the IncompatibleFamilyError raised by an
    unforced build, or None if the build is accepted."""
    try:
        build(*args)
    except IncompatibleFamilyError as err:
        return err.mode, witness_words(err.witness)
    return None


def test_criterion_15_negative_control():
    ascent_witness = ((3, 1, 2), (1, 2, 3), 2, 3)
    descent_witness = ((3, 2, 1), (2, 1, 3), 1, 2)
    demo = demo_incompatible_family()
    result = is_ascent_compatible(demo)
    witness_ok = not result.ok and witness_words(result.witness) == ascent_witness
    # Compatibility is sufficient, not necessary: pi_1 = 0 on the demo family.
    demo_reports = forced_reports(demo)
    demo_ok = all(rep.violations == () for rep in demo_reports.values())

    # The violating control: a four-word family on the same diagram, one of
    # the two smallest word sets on it whose forced builds break a relation.
    diagram = demo.diagram
    words = [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)]
    control = TableauFamily(
        diagram,
        tuple(
            StandardTableau.from_box_map(diagram, dict(zip(diagram.reading_order, w)))
            for w in words
        ),
        "negative-control",
    )
    gate = {
        "pi": gate_rejection(build_hecke_module, control, "pi"),
        "hat": gate_rejection(build_hecke_module, control, "hat"),
        "clifford": gate_rejection(build_clifford_module, control),
    }
    gate_ok = gate == {
        "pi": ("ascent", ascent_witness),
        "hat": ("descent", descent_witness),
        "clifford": ("ascent", ascent_witness),
    }

    control_reports = forced_reports(control)
    labels = {"pi": "pi", "hat": "hat", "clifford": "pi"}
    braid_ok = all(
        f"braid fails at {labels[name]}[1], {labels[name]}[2]" in rep.violations
        for name, rep in control_reports.items()
    )

    rep = build_hecke_module(control, "pi", force=True)
    basis_words = [t.reading_word for t in rep.basis]
    start = {basis_words.index((1, 2, 3)): 1}

    def image(word):
        return {basis_words[r]: v for r, v in apply_word(rep, word, start).items()}

    lhs, rhs = image((1, 2, 1)), image((2, 1, 2))
    images_ok = lhs == {(3, 2, 1): 1} and rhs == {}

    ok = witness_ok and demo_ok and gate_ok and braid_ok and images_ok
    report(
        15, ok,
        f"witness (312, 123, 2, 3) reproduced; demo family satisfies every relation "
        f"when forced; gate rejects {{123, 213, 312, 321}} in pi, hat and the "
        f"supermodule, whose forced builds break the braid relation "
        f"({sum(len(r.violations) for r in control_reports.values())} violations)",
    )
    assert witness_ok, result.witness
    assert demo_ok, {name: r.violations for name, r in demo_reports.items()}
    assert gate_ok, gate
    assert braid_ok, {name: r.violations for name, r in control_reports.items()}
    assert images_ok, (lhs, rhs)
