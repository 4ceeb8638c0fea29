import itertools

import numpy as np
import pytest

import _oracles as oracle
from diagmod.clifford import build_clifford_module, filtration_quotient_check
from diagmod.compositions import (
    check_composition,
    comp_n,
    descent_set,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_peak_compositions,
    enumerate_strict_partitions,
    format_composition,
    format_subset,
    is_peak_composition,
    mask_composition,
    parse_composition,
    peak_set,
)
from diagmod.errors import DomainError
from diagmod.families import build_family
from diagmod.harness import run_harness, transition_to_peak_basis
from diagmod.series import FormalSum, evaluate_truncated


def all_subsets(n):
    universe = range(1, n)
    for r in range(n):
        yield from itertools.combinations(universe, r)


def test_descent_set_examples():
    assert descent_set((2, 3, 1, 1)) == {2, 5, 6}
    assert descent_set((7,)) == frozenset()
    assert descent_set((1, 1, 3, 3)) == {1, 2, 5}


def test_descent_set_rejects_empty():
    with pytest.raises(DomainError):
        descent_set(())


def test_comp_n_examples():
    assert comp_n({1, 2, 5}, 8) == (1, 1, 3, 3)
    assert comp_n(set(), 5) == (5,)
    # round-trip through descent_set fixes the value
    assert descent_set((2, 3, 2)) == {2, 5}
    assert comp_n({2, 5}, 7) == (2, 3, 2)


def test_comp_n_rejects_out_of_range():
    with pytest.raises(DomainError):
        comp_n({7}, 7)
    with pytest.raises(DomainError):
        comp_n(set(), 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_descent_comp_round_trip(n):
    for xs in all_subsets(n):
        assert descent_set(comp_n(xs, n)) == frozenset(xs)


@pytest.mark.parametrize("call, args", [
    (comp_n, ({1.5}, 3)),
    (comp_n, ({1, 2.0}, 3)),
    (comp_n, ({True}, 3)),
    (comp_n, ({0}, 3)),
    (comp_n, ({-1}, 3)),
    (peak_set, ({2.5},)),
    (peak_set, ({3, True},)),
    (peak_set, ({0},)),
])
def test_set_elements_follow_the_integer_rule(call, args):
    with pytest.raises(DomainError):
        call(*args)


def test_set_elements_are_read_as_python_ints():
    assert comp_n({np.int64(1), np.uint8(2)}, np.int64(4)) == (1, 1, 2)
    assert all(type(p) is int for p in comp_n({np.int64(2)}, 4))
    assert peak_set({np.int64(3), 1}) == {3}
    assert all(type(i) is int for i in peak_set({np.int64(3), np.int8(5)}))


@pytest.mark.parametrize("n", range(1, 13))
def test_mask_composition_matches_comp_n(n):
    """Every mask of every n <= 12 gives comp_n's composition, as one
    cached tuple of Python ints, whatever integer type names the mask."""
    for mask in range(1 << (n - 1)):
        alpha = mask_composition(mask, n)
        assert alpha == oracle.comp_n_mask_composition(mask, n)
        assert type(alpha) is tuple and all(type(p) is int for p in alpha)
        assert mask_composition(mask, n) is alpha
        assert mask_composition(np.int64(mask), np.uint8(n)) is alpha


@pytest.mark.parametrize("mask, n", [
    (-1, 3), (0b100, 3), (1, 1), (0b10, 2), (0, 0), (0, -1), (True, 3), (False, 1),
    (np.True_, 3), (1, True), (1.0, 3), (0, 1.0), ("1", 3), (None, 3),
])
def test_mask_composition_rejects_masks_out_of_range(mask, n):
    """A mask must name a subset of 1..n-1; a bool raises even after the
    int it equals is cached."""
    assert mask_composition(1, 3) == (1, 2) and mask_composition(0, 1) == (1,)
    with pytest.raises(DomainError):
        mask_composition(mask, n)


def test_peak_set_examples():
    assert peak_set({1, 3, 5, 6}) == {3, 5}
    assert peak_set(set()) == frozenset()
    assert peak_set({2, 4, 6}) == {2, 4, 6}


def test_peak_set_idempotent_on_sparse_sets():
    for n in range(9):
        for xs in all_subsets(n):
            s = set(xs)
            if 1 not in s and all(x + 1 not in s for x in s):
                assert peak_set(s) == s


def test_peak_of_descents_is_sparse():
    for n in range(1, 9):
        for alpha in enumerate_compositions(n):
            pk = peak_set(descent_set(alpha))
            assert 1 not in pk
            assert all(x + 1 not in pk for x in pk)
            assert is_peak_composition(comp_n(pk, n))


def test_is_peak_composition():
    assert is_peak_composition((3, 3, 1))
    assert not is_peak_composition((1, 2, 2, 1, 3))
    assert is_peak_composition((6,))


def test_enumerate_compositions_order_and_count():
    assert list(enumerate_compositions(3)) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    for n in range(9):
        comps = list(enumerate_compositions(n))
        assert len(comps) == (2 ** (n - 1) if n else 1)
        assert len(set(comps)) == len(comps)
        # descending lexicographic order on parts
        assert comps == sorted(comps, reverse=True)


def test_enumerate_peak_compositions_matches_subset_filter():
    for n in range(1, 9):
        expect = sorted(
            (comp_n(xs, n) for xs in all_subsets(n)
             if 1 not in xs and all(x + 1 not in xs for x in xs)),
            reverse=True,
        )
        assert list(enumerate_peak_compositions(n)) == expect


def test_enumerate_strict_partitions():
    got = list(enumerate_strict_partitions(8))
    assert len(got) == 6
    assert set(got) == {(8,), (7, 1), (6, 2), (5, 3), (5, 2, 1), (4, 3, 1)}
    assert got == sorted(got, reverse=True)


def test_text_helpers():
    assert parse_composition("3,3,1") == (3, 3, 1)
    assert format_composition((3, 3, 1)) == "3,3,1"
    assert format_subset({5, 2, 6}) == "{2,5,6}"
    with pytest.raises(DomainError):
        parse_composition("3,x")
    with pytest.raises(DomainError):
        parse_composition("")
    with pytest.raises(DomainError):
        parse_composition("3,0,1")


def test_shape_enumerators_match_recursive_enumerators():
    """The filtered composition lists equal the former recursive
    enumerators' lists, order included, for every n <= 12."""
    for n in range(13):
        filtered = (
            list(enumerate_peak_compositions(n)),
            list(enumerate_strict_partitions(n)),
            list(enumerate_partitions(n)),
        )
        assert filtered == oracle.recursive_shapes(n), n




def test_enumerate_compositions_follows_the_integer_rule():
    """n is checked when the enumerator is called, before anything is
    yielded, and so for every enumerator that filters it."""
    assert list(enumerate_compositions(np.int64(4))) == list(enumerate_compositions(4))
    assert all(type(p) is int for alpha in enumerate_compositions(np.int64(4)) for p in alpha)
    assert list(enumerate_compositions(0)) == [()]
    for bad in (True, 2.0, -1):
        for enumerate_ in (enumerate_compositions, enumerate_peak_compositions, enumerate_partitions):
            with pytest.raises(DomainError, match="n must be a nonnegative integer"):
                enumerate_(bad)


# Per size or index the library takes: a call that reads it, and a valid value.
INTEGER_INPUTS = {
    "composition part": (lambda v: check_composition((2, v)), 1),
    "shape part": (lambda v: build_family("syt", (2, v)).shape, 1),
    "sigma": (lambda v: build_family("srct", (2, 1), sigma=(2, v)).sigma, 1),
    "filtration index": (
        lambda v: filtration_quotient_check(build_clifford_module(build_family("syt", (2, 1))), v), 2
    ),
    "variable count": (lambda v: evaluate_truncated(FormalSum.fundamental((2, 1)), v), 2),
    "comp_n size": (lambda v: comp_n({1}, v), 3),
    "comp_n element": (lambda v: comp_n({v}, 3), 1),
    "peak_set element": (lambda v: peak_set({v, 4}), 2),
    "descent mask": (lambda v: mask_composition(v, 3), 1),
    "mask_composition size": (lambda v: mask_composition(1, v), 3),
    "harness max_n": (lambda v: [(r.shape, r.verdict) for r in run_harness("transition", max_n=v)], 1),
    "transition size": (lambda v: transition_to_peak_basis(v)[1], 1),
}


@pytest.mark.parametrize("name", sorted(INTEGER_INPUTS))
def test_sizes_and_indices_follow_one_integer_rule(name):
    """An integer of any type, such as a numpy one, is read as the Python
    int it equals; a bool or any other non-integer raises DomainError."""
    call, valid = INTEGER_INPUTS[name]
    expected = call(valid)
    for same in (np.int64(valid), np.uint8(valid)):
        got = call(same)
        assert got == expected
        if isinstance(got, tuple):
            assert all(type(part) is int for part in got)
    for bad in (True, False, np.True_, float(valid), np.float64(valid), str(valid), None):
        with pytest.raises(DomainError):
            call(bad)
