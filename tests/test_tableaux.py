import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from conftest import forced_word_set_families, member_by_word, square_families
from diagmod import tableaux
from diagmod.errors import DomainError
from diagmod.families import build_family, family_instances, single_row_diagram
from diagmod.harness import all_intervals, check_perm, words_family
from diagmod.tableaux import (
    AscentClass,
    Diagram,
    StandardTableau,
    TableauFamily,
    Tableaux,
    WordSet,
    ascent_positions,
    classify_ascent,
    descent_set_tab,
    inversions,
    is_ascent_compatible,
    is_descent_compatible,
    render_tableau,
    swap_entries,
    tableau_from_record,
    tableau_to_record,
)


def test_reading_words(incompatible_family, compatible_family):
    assert sorted(t.reading_word for t in incompatible_family) == [
        (1, 2, 3), (1, 3, 2), (3, 1, 2)]
    assert sorted(t.reading_word for t in compatible_family) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3)]


def test_single_box_reading_word():
    d = Diagram(((1, 1),), ((1, 1),))
    t = StandardTableau(d, (1,))
    assert t.reading_word == (1,)
    assert descent_set_tab(t) == frozenset()


def test_descent_sets(incompatible_family):
    R = member_by_word(incompatible_family, (3, 1, 2))
    S = member_by_word(incompatible_family, (1, 2, 3))
    T = member_by_word(incompatible_family, (1, 3, 2))
    assert descent_set_tab(R) == {2}
    assert descent_set_tab(S) == frozenset()
    assert descent_set_tab(T) == {2}


def test_classify_ascent(incompatible_family):
    S = member_by_word(incompatible_family, (1, 2, 3))
    assert classify_ascent(S, 1, incompatible_family) is AscentClass.ATTACKING
    assert classify_ascent(S, 2, incompatible_family) is AscentClass.NONATTACKING
    R = member_by_word(incompatible_family, (3, 1, 2))
    assert classify_ascent(R, 2, incompatible_family) is AscentClass.DESCENT


def test_classify_ascent_rejects_outsiders(incompatible_family, compatible_family):
    S = member_by_word(compatible_family, (1, 2, 3))
    with pytest.raises(DomainError):
        classify_ascent(S, 1, incompatible_family)


def test_every_ascent_nonattacking_in_full_filling_family():
    d = Diagram(((1, 1), (2, 1), (3, 1)), ((1, 1), (2, 1), (3, 1)))
    members = [StandardTableau(d, p) for p in itertools.permutations((1, 2, 3))]
    family = TableauFamily(d, tuple(members), "full")
    for tab in family:
        des = descent_set_tab(tab)
        for i in (1, 2):
            if i not in des:
                assert classify_ascent(tab, i, family) is AscentClass.NONATTACKING


def test_ascent_positions(incompatible_family):
    R = member_by_word(incompatible_family, (3, 1, 2))
    assert ascent_positions(R, 1) == (2, 3)
    with pytest.raises(DomainError):
        ascent_positions(R, 2)


def test_ascent_positions_identity_reading():
    d = Diagram(((1, 1), (2, 1), (3, 1)), ((1, 1), (2, 1), (3, 1)))
    t = StandardTableau(d, (1, 2, 3))
    for i in (1, 2):
        assert ascent_positions(t, i) == (i, i + 1)


@pytest.mark.parametrize("bad", [1.0, True, np.float64(1), "1", None])
def test_entries_and_permutation_letters_follow_the_integer_rule(bad):
    """A tableau entry and a permutation letter is an integer: a bool, a
    float or a string raises DomainError, and numpy ints are kept as Python
    ints."""
    d = single_row_diagram(2)
    with pytest.raises(DomainError):
        StandardTableau(d, (bad, 2))
    with pytest.raises(DomainError):
        check_perm((bad, 2))
    with pytest.raises(DomainError):
        words_family([(bad, 2)])
    for word in ((np.int64(1), np.int8(2)), np.array([1, 2])):
        assert [type(e) for e in StandardTableau(d, word).entries] == [int, int]
        assert [type(e) for e in check_perm(word)] == [int, int]
    assert words_family([(np.int64(2), np.int64(1))]).members[0].entries == (2, 1)


def test_generator_indices_follow_the_integer_rule():
    """i is an integer in 1..n-1 for ascent_positions, classify_ascent and
    swap_entries: 0, n, -1, a bool and a float raise DomainError, and numpy
    ints read as their value."""
    fam = build_family("syt", (2, 1))
    tab = next(t for t in fam if 1 not in descent_set_tab(t))
    assert ascent_positions(tab, np.int64(1)) == ascent_positions(tab, 1)
    assert swap_entries(tab, np.int64(1)) == swap_entries(tab, 1)
    assert classify_ascent(tab, np.int64(1), fam) is classify_ascent(tab, 1, fam)
    for bad in (0, 3, -1, True, 1.0, None):
        with pytest.raises(DomainError, match="out of range"):
            ascent_positions(tab, bad)
        with pytest.raises(DomainError, match="out of range"):
            classify_ascent(tab, bad, fam)
        with pytest.raises(DomainError, match="out of range"):
            swap_entries(tab, bad)


def test_compatibility_witness(incompatible_family):
    result = is_ascent_compatible(incompatible_family)
    assert not result.ok
    first, second, r, s = result.witness
    assert first.reading_word == (3, 1, 2)
    assert second.reading_word == (1, 2, 3)
    assert (r, s) == (2, 3)


def test_compatibility_positive(compatible_family):
    assert is_ascent_compatible(compatible_family).ok


def test_singleton_family_compatible(compatible_family):
    tab = compatible_family.members[0]
    single = TableauFamily(compatible_family.diagram, (tab,), "single")
    assert is_ascent_compatible(single).ok
    assert is_descent_compatible(single).ok


def test_a_repeated_member_is_rejected():
    fam = build_family("syt", (2, 1))
    with pytest.raises(DomainError, match="repeated family member"):
        TableauFamily(fam.diagram, list(fam.members) + [fam.members[0]], "twice")
    with pytest.raises(DomainError, match=r"repeated family member with reading word \(1, 2, 3\)"):
        words_family([(1, 2, 3), (1, 2, 3), (2, 1, 3)])


def test_caller_rows_must_be_distinct_and_in_reading_word_order():
    """Rows out of order raise on the first read of the word set; a view or
    rows on another diagram raise at construction."""
    fam = build_family("syt", (2, 1))
    d, words, masks = fam.diagram, fam.words, fam.descent_masks
    twice = Tableaux(d, np.concatenate([words[:1], words]))
    twice = TableauFamily(d, twice, "twice", descent_masks=masks[:1] + masks)
    backwards = TableauFamily(d, Tableaux(d, words[::-1]), "reversed", descent_masks=masks[::-1])
    for rows in (twice, backwards):
        with pytest.raises(DomainError, match="distinct and in reading-word order"):
            rows.word_set
    with pytest.raises(DomainError, match="Tableaux array on the family's diagram"):
        TableauFamily(d, fam.basis, "view", descent_masks=masks)
    with pytest.raises(DomainError, match="Tableaux array on the family's diagram"):
        TableauFamily(single_row_diagram(3), fam.members, "moved", descent_masks=masks)
    rows = TableauFamily(d, Tableaux(d, words.copy()), "rows", descent_masks=masks)
    assert rows.word_set is fam.word_set
    assert list(rows) == list(fam)


def test_descent_masks_come_only_with_rows_one_per_member():
    fam = build_family("syt", (2, 1))
    with pytest.raises(DomainError, match="only with Tableaux rows"):
        TableauFamily(fam.diagram, tuple(fam), "hand", descent_masks=(0, 0))
    with pytest.raises(DomainError, match="1 descent masks for 2 members"):
        TableauFamily(fam.diagram, fam.members, "rows", descent_masks=(3,))
    with pytest.raises(DomainError, match="family rows come with one descent mask per row"):
        TableauFamily(fam.diagram, fam.members, "rows")
    rows = TableauFamily(fam.diagram, fam.members, "rows", descent_masks=fam.descent_masks)
    assert rows.descent_histogram == fam.descent_histogram
    hand = TableauFamily(fam.diagram, tuple(fam)[::-1], "hand")
    assert hand.descent_masks == fam.descent_masks and hand.descent_histogram == fam.descent_histogram


def test_a_word_set_holds_only_its_four_arrays():
    """Everything else a word set determines is memoised on it weakly."""
    assert WordSet.__slots__ == ("order", "positions", "descent", "target", "__weakref__")


def assert_word_set_matches_per_position(words):
    """The word set read with reading-word keys has the four arrays, values,
    dtypes and layout, of the position-key oracle it replaced and of the
    per-position oracle; returns it."""
    fast = tableaux._word_set(words)
    for slow in (oracle.position_key_word_set(words), oracle.per_position_word_set(words)):
        for name in ("order", "positions", "descent", "target"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
            assert a.flags.c_contiguous, name
    return fast


def test_word_sets_match_per_position_oracle_on_built_in_families():
    built = 0
    for kind, shape, sigma in family_instances(6, sigmas=True):
        fam = build_family(kind, shape, sigma)
        if fam.members:
            assert_word_set_matches_per_position(fam.words)
            built += 1
    assert built == 4603


def test_word_sets_match_per_position_oracle_on_large_families():
    for kind, shape in [("syt", (5, 4, 3, 1)), ("rib", (3, 4, 4)), ("sit", (4, 4, 4)),
                        ("srit", (4, 4, 3)), ("syt", (4, 3, 2)), ("spct", (3, 3, 3))]:
        assert_word_set_matches_per_position(build_family(kind, shape).words)


def test_word_sets_match_per_position_oracle_on_intervals_and_forced_sets():
    intervals = [interval for n in range(1, 5) for interval in all_intervals(n)]
    families = [words_family(interval.members) for interval in intervals]
    families += forced_word_set_families() + square_families()
    assert len(families) > 63 + 15
    for fam in families:
        assert_word_set_matches_per_position(fam.words)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.sets(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=60)
    )
)
def test_word_sets_match_per_position_oracle_on_random_word_sets(words):
    assert_word_set_matches_per_position(words_family(sorted(words)).words)


@pytest.mark.parametrize("kind, shape", [
    ("syt", (14, 1)),  # n = 15, the last n with n^n < 2^63: int64 keys
    ("syt", (15, 1)),  # n = 16 and above: Python integer keys
    ("syt", (14, 2)),
    ("syt", (13, 3)),
    ("rib", (1,) * 40),
    ("syt", (300,)),
])
def test_word_sets_match_oracles_on_either_side_of_the_int64_keys(kind, shape):
    fam = build_family(kind, shape)
    assert fam.members
    assert_word_set_matches_per_position(fam.words)


@pytest.mark.parametrize("cells", [1, 100])
def test_word_sets_match_oracles_across_block_seams(monkeypatch, cells):
    """With one cell a block, every generator and position pair is a block
    of its own; with 100, blocks end inside a family's generators."""
    monkeypatch.setattr(tableaux, "_SEARCH_CELLS", cells)
    built = 0
    for inst in family_instances(5, sigmas=True):
        fam = build_family(*inst)
        if fam.members:
            assert_word_set_matches_per_position(fam.words)
            built += 1
    assert built == 968


def test_an_empty_family_has_an_empty_word_set():
    fam = build_family("syct", (2, 1), (2, 1))
    assert len(fam) == 0
    words = assert_word_set_matches_per_position(fam.words)
    assert words.order.shape == (0,) and words.positions.shape == (0, 3)
    assert words.descent.shape == words.target.shape == (2, 0)
    assert is_ascent_compatible(fam).ok and is_descent_compatible(fam).ok


def test_word_set_rows_out_of_reading_word_order_raise():
    words = build_family("syt", (2, 1)).words
    for rows in (words[::-1], words[[0, 0, 1]]):
        with pytest.raises(DomainError, match="reading-word order"):
            tableaux._word_set(rows)


def test_swap_targets_are_involutions_that_flip_the_descent():
    """Where the word with i and i+1 exchanged is in the set, exchanging
    them again comes back, and exactly one of the two has a descent at i."""
    for inst in family_instances(6, sigmas=True):
        fam = build_family(*inst)
        if not fam.members:
            continue
        words = fam.word_set
        generator, basis = np.nonzero(words.target >= 0)
        there = words.target[generator, basis]
        assert np.array_equal(words.target[generator, there], basis)
        assert np.all(words.descent[generator, there] != words.descent[generator, basis])


def test_descent_compatibility_independent_of_ascent(compatible_family):
    # the bent family is also descent-compatible
    assert is_descent_compatible(compatible_family).ok


def test_swap_changes_inversions_by_one():
    d = Diagram(((1, 1), (2, 1), (3, 1), (4, 1)), ((1, 1), (2, 1), (3, 1), (4, 1)))
    for word in itertools.permutations((1, 2, 3, 4)):
        t = StandardTableau(d, word)
        for i in (1, 2, 3):
            s = swap_entries(t, i)
            assert abs(inversions(s.reading_word) - inversions(t.reading_word)) == 1
            # i is a descent of exactly one of the pair
            assert (i in descent_set_tab(t)) != (i in descent_set_tab(s))


def test_compatibility_invariant_under_translation(incompatible_family):
    # shifting all boxes preserves the reading sequence, so the verdict and
    # witness positions are unchanged
    shift = lambda b: (b[0] + 3, b[1] + 2)
    d = incompatible_family.diagram
    d2 = Diagram(
        tuple(shift(b) for b in d.boxes),
        tuple(shift(b) for b in d.reading_order),
    )
    members = tuple(
        StandardTableau.from_box_map(d2, {shift(b): e for b, e in t.box_map().items()})
        for t in incompatible_family
    )
    moved = TableauFamily(d2, members, "moved")
    res_a, res_b = is_ascent_compatible(incompatible_family), is_ascent_compatible(moved)
    assert res_a.ok == res_b.ok
    assert res_a.witness[2:] == res_b.witness[2:]


def test_render_tableau(compatible_family):
    R = member_by_word(compatible_family, (2, 1, 3))
    assert render_tableau(R) == "1 3\n  2"
    assert render_tableau(R, frozenset({1})) == "1'  3\n    2"


def test_tableau_record_round_trip(compatible_family):
    for tab in compatible_family:
        rec = tableau_to_record(tab)
        back = tableau_from_record(rec)
        assert back == tab
