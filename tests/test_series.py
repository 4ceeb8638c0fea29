import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from diagmod.clifford import peak_characteristic
from diagmod.compositions import (
    descent_set,
    enumerate_compositions,
    enumerate_peak_compositions,
    enumerate_strict_partitions,
    format_composition,
    mask_composition,
    peak_set,
)
from diagmod.errors import DomainError
from diagmod.families import SIGMA_KINDS, FamilyKind, build_family, shapes_for
from diagmod.hecke import qsym_characteristic
from diagmod.series import (
    FormalSum,
    TruncatedPolynomial,
    add,
    evaluate_truncated,
    from_term_records,
    peak_to_fundamental,
    render_latex,
    render_text,
    scale,
    theta,
    to_term_records,
)


def brute_peak_expansion(alpha):
    """Recompute the fundamental expansion of one peak element by filtering
    every composition of n against the symmetric-difference condition."""
    n = sum(alpha)
    pk = peak_set(descent_set(alpha))
    weight = 2 ** (len(pk) + 1)
    terms = {}
    for beta in enumerate_compositions(n):
        des = descent_set(beta)
        if pk <= (des ^ {x + 1 for x in des}):
            terms[beta] = weight
    return FormalSum("F", n, terms)


def test_add_and_scale():
    f = FormalSum.fundamental((2, 1))
    assert add(f, f) == FormalSum("F", 3, {(2, 1): 2})
    k = FormalSum.peak((3,))
    assert add(k, scale(-1, k)).is_zero()
    assert render_text(add(k, scale(-1, k))) == "0"


def test_add_rejects_mismatches():
    with pytest.raises(DomainError):
        add(FormalSum.fundamental((2, 1)), FormalSum.peak((2, 1)))
    with pytest.raises(DomainError):
        add(FormalSum.fundamental((2, 1)), FormalSum.fundamental((2, 2)))


def test_peak_basis_rejects_non_peak_index():
    with pytest.raises(DomainError):
        FormalSum.peak((1, 2))


PARTS_MESSAGE = "composition parts must be positive integers, got {}"


@pytest.mark.parametrize("basis, n, index, message", [
    ("F", 3, (1.0, 2), PARTS_MESSAGE.format("(1.0, 2)")),
    ("F", 3, (True, 2), PARTS_MESSAGE.format("(True, 2)")),
    ("K", 3, (2.0, 1), PARTS_MESSAGE.format("(2.0, 1)")),
    ("F", 3, (1, True, 1), PARTS_MESSAGE.format("(1, True, 1)")),
    ("F", 3, (0, 3), PARTS_MESSAGE.format("(0, 3)")),
    ("F", 4, (1, 2), "index (1, 2) is not a composition of 4"),
    ("K", 3, (1, 2), "peak-basis index (1, 2) is not a peak composition"),
])
def test_formal_sum_rejects_bad_indices_after_equal_valid_ones(basis, n, index, message):
    """Indices equal to valid ones already checked, as (1.0, 2) == (1, 2),
    still raise, with the message of a first check."""
    for valid in ((1, 2), (2, 1), (1, 1, 1), (3,)):
        FormalSum("F", 3, {valid: 1})
    FormalSum("K", 3, {(2, 1): 1})
    with pytest.raises(DomainError) as err:
        FormalSum(basis, n, {index: 1})
    assert str(err.value) == message


class Parts(tuple):
    pass


def test_formal_sum_keys_keep_their_type():
    """A tuple-subclass index is stored as a plain tuple, and a term with
    coefficient zero is dropped before its size is checked."""
    f = FormalSum("F", 3, {Parts((1, 2)): 1, (1, 1, 1): 0, (5,): 0})
    assert list(f.terms) == [(1, 2)] and type(next(iter(f.terms))) is tuple


# how an index part is written; bool only for the values 0 and 1
INT_FORMS = (int, np.int64, np.uint8)


@st.composite
def _sum_inputs(draw):
    """(basis, n, warm-up indices, terms) of a formal sum whose indices mix
    exact ints, numpy ints and bools, some as a tuple subclass, of every
    size, zero coefficients included."""
    basis, n = draw(st.sampled_from("FK")), draw(st.integers(0, 5))
    terms, warm = {}, []
    for _ in range(draw(st.integers(0, 6))):
        values = draw(st.lists(st.integers(0, 4), max_size=5))
        forms = [draw(st.sampled_from(INT_FORMS + (bool,) if v in (0, 1) else INT_FORMS)) for v in values]
        index = tuple(form(v) for form, v in zip(forms, values))
        if draw(st.booleans()):
            index = Parts(index)
        plain = tuple(values)
        # warm the memo with this very index, or with an equal plain tuple
        warm.append(index if draw(st.booleans()) and all(f is int for f in forms) else plain)
        terms[index] = draw(st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(0))))
    return basis, n, warm, terms


def _outcome(make):
    try:
        return make()
    except DomainError as err:
        return DomainError, str(err)


@settings(max_examples=400, deadline=None)
@given(_sum_inputs())
def test_formal_sum_matches_the_recheck_of_every_index(inputs):
    """After indices equal to the drawn ones have been checked, a sum keeps
    exactly the terms, or raises exactly the error, of checking every index
    afresh, and its keys are plain tuples of ints."""
    basis, n, warm, terms = inputs
    for index in warm:
        _outcome(lambda: FormalSum(basis, n, {index: 1}))
        _outcome(lambda: FormalSum(basis, n, {index: 0}))
    expected = _outcome(lambda: oracle.rechecked_terms(basis, n, terms))
    found = _outcome(lambda: FormalSum(basis, n, terms).terms)
    assert found == expected
    if isinstance(found, dict):
        assert list(found.items()) == list(expected.items())
        assert all(type(a) is tuple and all(type(p) is int for p in a) for a in found)


@pytest.mark.parametrize("n", [True, False, 2.0, -1, "2", None])
def test_formal_sum_degree_follows_the_integer_rule(n):
    with pytest.raises(DomainError, match="degree must be an integer >= 0"):
        FormalSum("F", n, {})


def test_formal_sum_degree_is_stored_as_an_int():
    f = FormalSum("F", np.int64(2), {(1, 1): 1})
    assert type(f.n) is int and f == FormalSum("F", 2, {(1, 1): 1})
    assert FormalSum("K", 0, {}).n == 0
    assert peak_to_fundamental(FormalSum("K", 0, {(): 2})) == FormalSum("F", 0, {(): 2})


@pytest.mark.parametrize("k, terms", [
    (2, {(1.5, 0): 1}),
    (2, {(True, 0): 1}),
    (2, {(0, -1): 1}),
    (2, {(1,): 1}),
    (True, {}),
    (2.0, {}),
    (-1, {}),
    ("2", {}),
])
def test_truncated_polynomial_follows_the_integer_rule(k, terms):
    with pytest.raises(DomainError):
        TruncatedPolynomial(k, terms)


def test_truncated_polynomial_stores_plain_ints():
    poly = TruncatedPolynomial(np.int64(2), {(np.int64(1), np.uint8(0)): 3, (2.5, 1): 0})
    assert type(poly.k) is int and poly.k == 2
    assert poly.terms == {(1, 0): 3}
    assert all(type(e) is int for exps in poly.terms for e in exps)
    assert TruncatedPolynomial(0, {(): 1}).terms == {(): 1}


def test_peak_to_fundamental_single_row():
    # empty peak set: every composition qualifies, coefficient 2
    n = 4
    f = peak_to_fundamental(FormalSum.peak((n,)))
    assert set(f.terms) == set(enumerate_compositions(n))
    assert all(c == 2 for c in f.terms.values())


def test_peak_to_fundamental_degree_three():
    f = peak_to_fundamental(FormalSum.peak((2, 1)))
    assert f == FormalSum("F", 3, {(2, 1): 4, (1, 2): 4})
    assert f == brute_peak_expansion((2, 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_peak_to_fundamental_matches_brute_filter(n):
    for alpha in enumerate_peak_compositions(n):
        assert peak_to_fundamental(FormalSum.peak(alpha)) == brute_peak_expansion(alpha)


@pytest.mark.parametrize("n", range(1, 8))
def test_peak_expansion_coefficients_are_one_power_of_two(n):
    for alpha in enumerate_peak_compositions(n):
        f = peak_to_fundamental(FormalSum.peak(alpha))
        expected = 2 ** (len(peak_set(descent_set(alpha))) + 1)
        assert set(f.terms.values()) == {expected}
        # the diagonal coefficient is present
        assert f.coefficient(alpha) == expected


def test_theta_examples():
    assert theta(FormalSum.fundamental((4, 3, 1))) == FormalSum.peak((4, 3, 1))
    assert theta(FormalSum.fundamental((1, 2, 2, 1, 3))) == FormalSum.peak((3, 2, 4))


@pytest.mark.parametrize("n", range(1, 11))
def test_theta_peak_index_matches_the_set_statistics(n):
    """The parts rule names, for every composition of n <= 10, the peak
    index of comp_n(Peak(alpha)), as the tuple cached for its mask."""
    for alpha in enumerate_compositions(n):
        (index,) = theta(FormalSum.fundamental(alpha)).terms
        assert index == oracle.set_peak_index(alpha)
        assert index is mask_composition(sum(1 << (s - 1) for s in descent_set(index)), n)


def test_theta_linear_collects_terms():
    f = add(FormalSum.fundamental((2, 1)), FormalSum.fundamental((3,)))
    g = theta(f)
    assert g == FormalSum("K", 3, {(2, 1): 1, (3,): 1})
    # (1, 2) and (3,) both go to K[3]: fractional and mixed like terms
    halves = FormalSum("F", 3, {(1, 2): Fraction(1, 2), (3,): Fraction(1, 3), (2, 1): Fraction(-3, 2)})
    assert theta(halves).terms == {(3,): Fraction(5, 6), (2, 1): Fraction(-3, 2)}
    assert theta(FormalSum("F", 3, {(1, 2): 1, (3,): Fraction(1, 2)})).terms == {(3,): Fraction(3, 2)}


@pytest.mark.parametrize("n", range(1, 8))
def test_theta_after_expansion_is_nonnegative_with_diagonal(n):
    for alpha in enumerate_peak_compositions(n):
        image = theta(peak_to_fundamental(FormalSum.peak(alpha)))
        assert all(c > 0 and c.denominator == 1 for c in image.terms.values())
        assert alpha in image.terms


def test_evaluate_truncated_strict_at_descents():
    poly = evaluate_truncated(FormalSum.fundamental((1, 2, 1)), 4)
    assert poly.terms == {
        (1, 2, 1, 0): 1,
        (1, 2, 0, 1): 1,
        (1, 1, 1, 1): 1,
        (1, 0, 2, 1): 1,
        (0, 1, 2, 1): 1,
    }


def test_evaluate_truncated_single_variable():
    poly = evaluate_truncated(FormalSum.fundamental((5,)), 1)
    assert poly.terms == {(5,): 1}
    assert evaluate_truncated(FormalSum.fundamental((1, 4)), 1).terms == {}


def test_evaluate_truncated_rejects_bad_k():
    with pytest.raises(DomainError):
        evaluate_truncated(FormalSum.fundamental((2,)), 0)


def test_evaluate_truncated_additive():
    a = FormalSum.fundamental((2, 1))
    b = FormalSum.fundamental((1, 2), 3)
    lhs = evaluate_truncated(add(a, b), 3)
    rhs = evaluate_truncated(a, 3) + evaluate_truncated(b, 3)
    assert lhs == rhs
    assert evaluate_truncated(scale(Fraction(1, 2), a), 3).terms == {
        exps: Fraction(1, 2) * c for exps, c in evaluate_truncated(a, 3).terms.items()
    }


def peak_sum_of_family(kind, shape):
    return peak_characteristic(build_family(kind, shape))


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_sums_are_symmetric_in_four_variables(n):
    for lam in enumerate_strict_partitions(n):
        for k in (2, 3, 4):
            poly = evaluate_truncated(peak_sum_of_family("ssht", lam), k)
            for perm in itertools.permutations(range(1, k + 1)):
                assert poly.permute_variables(perm) == poly


@pytest.mark.parametrize("perm", [(1, 1), (0, 1), (1,), (2, 3), (1, 2, 3), (1.0, 2), (True, 2), ("1", 2)])
def test_permute_variables_takes_only_permutations_of_the_variables(perm):
    poly = TruncatedPolynomial(2, {(1, 2): 1})
    assert poly.permute_variables((np.int64(2), 1)) == TruncatedPolynomial(2, {(2, 1): 1})
    with pytest.raises(DomainError, match=r"is not a permutation of 1\.\.2"):
        poly.permute_variables(perm)


def test_render_text():
    f = FormalSum("K", 7, {(3, 3, 1): 1, (2, 2, 2, 1): 2})
    assert render_text(f) == "K[3,3,1] + 2*K[2,2,2,1]"
    assert render_text(FormalSum("F", 3, {(2, 1): -1, (1, 2): Fraction(1, 2)})) == (
        "-F[2,1] + 1/2*F[1,2]"
    )
    assert render_latex(f) == "K_{(3,3,1)} + 2K_{(2,2,2,1)}"


def test_term_records_round_trip():
    f = FormalSum("K", 7, {(3, 3, 1): 1, (2, 2, 2, 1): Fraction(-3, 2)})
    assert from_term_records(to_term_records(f)) == f
    z = FormalSum.zero("F", 5)
    assert from_term_records(to_term_records(z)) == z
    zero = to_term_records(FormalSum.zero("K", 7))
    for records in (zero + to_term_records(f), to_term_records(f) + zero):
        with pytest.raises(DomainError, match="zero-sum record, with null parts, must be the only record"):
            from_term_records(records)


@pytest.mark.parametrize("numerator, denominator", [
    (1, 0), (0, 0), (1, 0.0), (1.5, 2), (1, 2.0), (True, 2), (1, False), ("1", 2), (1, None),
])
def test_term_records_need_integers_and_a_nonzero_denominator(numerator, denominator):
    record = {"basis": "F", "parts": [2, 1], "numerator": numerator, "denominator": denominator}
    with pytest.raises(DomainError, match="is not an integer over a nonzero integer"):
        from_term_records([record])


def test_term_records_read_integers_of_any_type():
    records = [{"basis": "F", "parts": [2, 1], "numerator": np.int64(3), "denominator": np.uint8(6)},
               {"basis": "F", "parts": [3], "numerator": 2, "denominator": -4}]
    assert from_term_records(records) == FormalSum("F", 3, {(2, 1): Fraction(1, 2), (3,): Fraction(-1, 2)})


@st.composite
def _fundamental_sums(draw):
    """A fundamental-basis sum of degree 0..7 whose indices are written with
    exact ints, numpy ints or bools, some as a tuple subclass, with zero,
    negative and fractional coefficients, or with integral ones only."""
    n = draw(st.integers(0, 7))
    comps = list(enumerate_compositions(n))
    values = (0, 1, -1, 2, -3, Fraction(0), Fraction(4, 2))
    if draw(st.booleans()):
        values += (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))
    terms = {}
    for alpha in draw(st.lists(st.sampled_from(comps), max_size=12)):
        forms = [draw(st.sampled_from(INT_FORMS + (bool,) if p == 1 else INT_FORMS)) for p in alpha]
        index = tuple(form(p) for form, p in zip(forms, alpha))
        if draw(st.booleans()):
            index = Parts(index)
        terms[index] = draw(st.sampled_from(values))
    return n, terms


@settings(max_examples=400, deadline=None)
@given(_fundamental_sums())
def test_theta_matches_the_fraction_theta(inputs):
    """theta keeps exactly the terms, in the same order, of peak indices
    from the set statistics and like terms summed as Fractions; its
    coefficients are Fractions and its indices the cached tuples."""
    n, terms = inputs
    f = _outcome(lambda: FormalSum("F", n, terms))
    if not isinstance(f, FormalSum):
        assert f == _outcome(lambda: oracle.rechecked_terms("F", n, terms))
        return
    got, expected = theta(f), oracle.fraction_theta(f)
    assert list(got.terms.items()) == list(expected.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())
    for alpha in got.terms if n else ():
        assert mask_composition(sum(1 << (s - 1) for s in descent_set(alpha)), n) is alpha


def every_small_family():
    """Every (kind, shape, sigma) with n <= 6, sigma over the non-identity
    row permutations of the permuted-variant kinds."""
    for kind in FamilyKind:
        for n in range(1, 7):
            for shape in shapes_for(kind, n):
                yield build_family(kind, shape)
                if kind in SIGMA_KINDS:
                    for sigma in itertools.permutations(range(1, len(shape) + 1)):
                        if sigma != tuple(range(1, len(shape) + 1)):
                            yield build_family(kind, shape, sigma)


LARGE_FAMILIES = [
    ("syt", (5, 4, 3, 1)), ("rib", (3, 4, 4)), ("sit", (4, 4, 4)), ("srit", (4, 4, 3)),
    ("syt", (4, 3, 2)), ("spct", (3, 3, 3)),
]


def assert_characteristics_match_the_set_route(fam):
    """Both characteristics equal their sums through comp_n and peak_set,
    theta of the fundamental one equals the Fraction theta and the peak one,
    and theta names each peak index by the tuple the peak one uses."""
    fundamental, peak = qsym_characteristic(fam), peak_characteristic(fam)
    assert (fundamental, peak) == oracle.set_characteristics(fam)
    image = theta(fundamental)
    assert image.terms == oracle.fraction_theta(fundamental).terms
    assert image == peak
    used = {alpha: alpha for alpha in peak.terms}
    assert all(used[alpha] is alpha for alpha in image.terms)


def test_characteristics_match_the_set_route_on_every_small_family():
    checked = 0
    for fam in every_small_family():
        assert_characteristics_match_the_set_route(fam)
        checked += 1
    assert checked > 1000


@pytest.mark.parametrize(
    "kind, shape", LARGE_FAMILIES, ids=[f"{kind}-{format_composition(shape)}" for kind, shape in LARGE_FAMILIES]
)
def test_characteristics_match_the_set_route_on_large_families(kind, shape):
    assert_characteristics_match_the_set_route(build_family(kind, shape))


def test_degree_zero_is_representable():
    z = FormalSum("F", 0, {(): 1})
    assert render_text(z) == "F[]"
    assert theta(z) == FormalSum("K", 0, {(): 1})
