import itertools
from fractions import Fraction

import pytest

from diagmod.compositions import (
    descent_set,
    enumerate_compositions,
    enumerate_peak_compositions,
    enumerate_strict_partitions,
    peak_set,
)
from diagmod.errors import DomainError
from diagmod.series import (
    FormalSum,
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


def test_formal_sum_keys_keep_their_type():
    """A tuple-subclass index is stored as a plain tuple, and a term with
    coefficient zero is dropped before its size is checked."""
    class Parts(tuple):
        pass

    f = FormalSum("F", 3, {Parts((1, 2)): 1, (1, 1, 1): 0, (5,): 0})
    assert list(f.terms) == [(1, 2)] and type(next(iter(f.terms))) is tuple


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


def test_theta_linear_collects_terms():
    f = add(FormalSum.fundamental((2, 1)), FormalSum.fundamental((3,)))
    g = theta(f)
    assert g == FormalSum("K", 3, {(2, 1): 1, (3,): 1})


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
    from diagmod.clifford import peak_characteristic
    from diagmod.families import build_family

    return peak_characteristic(build_family(kind, shape))


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_sums_are_symmetric_in_four_variables(n):
    for lam in enumerate_strict_partitions(n):
        for k in (2, 3, 4):
            poly = evaluate_truncated(peak_sum_of_family("ssht", lam), k)
            for perm in itertools.permutations(range(1, k + 1)):
                assert poly.permute_variables(perm) == poly


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


def test_degree_zero_is_representable():
    z = FormalSum("F", 0, {(): 1})
    assert render_text(z) == "F[]"
    assert theta(z) == FormalSum("K", 0, {(): 1})
