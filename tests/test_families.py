import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from conftest import forced_word_set_families
from diagmod import families
from diagmod.clifford import MarkedTableau, build_clifford_module, peak_characteristic
from diagmod.compositions import (
    enumerate_compositions,
    enumerate_peak_compositions,
    enumerate_strict_partitions,
)
from diagmod.errors import DomainError
from diagmod.families import (
    FamilyKind,
    SIGMA_KINDS,
    build_family,
    family_instances,
    rect,
    shapes_for,
    source_tableau,
)
from diagmod.harness import words_family
from diagmod.hecke import (
    build_hecke_module,
    generating_words,
    qsym_characteristic,
    verify_hecke_relations,
)
from diagmod.series import theta
from diagmod.tableaux import (
    AscentClass,
    Diagram,
    StandardTableau,
    classify_ascent,
    descent_set_tab,
    is_ascent_compatible,
    is_descent_compatible,
    swap_entries,
    word_descents,
)

ALL_KINDS = [k.value for k in FamilyKind]


def family_maps(family):
    return {frozenset(t.box_map().items()) for t in family}


# ---------------------------------------------------------------------------
# frozen listings from worked examples


def test_spct_331_descent_multiset():
    fam = build_family("spct", (3, 3, 1))
    assert len(fam) == 10
    expected = [
        {3, 6}, {3, 5}, {2, 4, 6}, {2, 4, 5}, {2, 6},
        {2, 5}, {2, 5, 6}, {2, 4}, {2, 5}, {2, 4, 6},
    ]
    got = sorted(tuple(sorted(descent_set_tab(t))) for t in fam)
    assert got == sorted(tuple(sorted(s)) for s in expected)


def test_syct_24_descent_sets():
    fam = build_family("syct", (2, 4))
    assert len(fam) == 4
    got = sorted(tuple(sorted(descent_set_tab(t))) for t in fam)
    assert got == [(1, 3), (1, 4), (1, 5), (2,)]


def test_ssht_431_descent_multiset():
    fam = build_family("ssht", (4, 3, 1))
    assert len(fam) == 12
    expected = [
        {4, 7}, {4, 6}, {3, 5, 7}, {3, 5, 6}, {3, 6, 7}, {3, 6},
        {3, 5, 7}, {2, 5, 7}, {2, 5, 6}, {2, 4, 6, 7}, {2, 4, 6}, {2, 4, 5, 7},
    ]
    got = sorted(tuple(sorted(descent_set_tab(t))) for t in fam)
    assert got == sorted(tuple(sorted(s)) for s in expected)


def test_spyct_431_matches_ssht_descents():
    shifted = build_family("ssht", (4, 3, 1))
    columnar = build_family("spyct", (4, 3, 1))
    assert len(columnar) == 12
    a = sorted(tuple(sorted(descent_set_tab(t))) for t in shifted)
    b = sorted(tuple(sorted(descent_set_tab(t))) for t in columnar)
    assert a == b


def test_rib_22_count():
    assert len(build_family("rib", (2, 2))) == 5


def test_spct_2222_is_singleton():
    fam = build_family("spct", (2, 2, 2, 2))
    assert len(fam) == 1
    assert fam.members[0] == source_tableau((2, 2, 2, 2))


# ---------------------------------------------------------------------------
# oracle comparisons: backtracking enumeration vs brute-force post-filter


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_enumeration_matches_brute_force(kind):
    for n in range(1, 6):
        for shape in shapes_for(kind, n):
            fam = build_family(kind, shape)
            assert family_maps(fam) == oracle.oracle_members(kind, shape), (kind, shape)


@pytest.mark.parametrize("kind", sorted(k.value for k in SIGMA_KINDS))
def test_sigma_enumeration_matches_brute_force(kind):
    for n in range(1, 5):
        for shape in enumerate_compositions(n):
            for sigma in itertools.permutations(range(1, len(shape) + 1)):
                fam = build_family(kind, shape, sigma)
                assert family_maps(fam) == oracle.oracle_members(kind, shape, sigma), (
                    kind, shape, sigma)


def descent_mask(tab):
    return sum(1 << (i - 1) for i in descent_set_tab(tab))


def assert_same_family(fam, old):
    """The same entry rows in the same reading-word order, descent masks
    equal to those of the old tableaux, characteristics equal to the
    per-tableau sums over the old family, the word set's basis order and
    arrays equal to the byte-row word graph of the old family, and each
    basis element's descent column equal to the descents of its old
    tableau."""
    assert np.array_equal(fam.members.entries, old.members.entries)
    assert fam.descent_masks == tuple(descent_mask(t) for t in old)
    fundamental, peak = oracle.tableau_characteristics(old)
    assert qsym_characteristic(fam) == fundamental
    assert peak_characteristic(fam) == peak
    if fam.members:
        words = fam.word_set
        arrays = (words.order, words.positions, words.descent, words.target)
        for array, old_array in zip(arrays, oracle.byte_row_word_graph(old)):
            assert np.array_equal(array, old_array)
        columns = [(np.flatnonzero(column) + 1).tolist() for column in words.descent.T]
        assert columns == [sorted(descent_set_tab(old.members[k])) for k in words.order.tolist()]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_search_matches_backtracking_enumerator(kind):
    """Every (kind, shape, sigma) with n <= 6, and every shape with n = 7."""
    instances = [
        (k, shape, sigma) for k, shape, sigma in family_instances(6, sigmas=True) if k.value == kind
    ] + [(kind, shape, None) for shape in shapes_for(kind, 7)]
    for kind_, shape, sigma in instances:
        fam = build_family(kind_, shape, sigma)
        assert_same_family(fam, oracle.backtracking_family(kind_, shape, sigma))


def compiled_rules(kind, shape, sigma=None):
    """The diagram and compiled rules that ``build_family`` enumerates."""
    effective = sigma if sigma is not None else tuple(range(1, len(shape) + 1))
    boxes, reading, edges, rules = families._kind_recipe(FamilyKind(kind), shape, effective)
    diagram = Diagram(boxes, reading)
    return diagram, families._compile_rules(diagram, edges, rules)


def assert_same_search(diagram, rules):
    """The level enumerator's entries, dtype and descent masks equal those
    of the former depth-first search."""
    entries, masks = families._enumerate(diagram, rules)
    old_entries, old_masks = oracle.depth_first_enumerate(diagram, rules)
    assert entries.dtype == old_entries.dtype
    assert entries.shape == old_entries.shape and np.array_equal(entries, old_entries)
    assert masks == old_masks


@pytest.mark.parametrize("kind", [k.value for k in families._RECIPES])
def test_level_enumerator_matches_depth_first_search(kind):
    """Every (kind, shape, sigma) with n <= 6, and every shape with n = 7, 8.
    srct, srit, sret and syrt have no search: they are read off syrt, sit,
    set and syct."""
    instances = [
        (k, shape, sigma) for k, shape, sigma in family_instances(6, sigmas=True) if k.value == kind
    ] + [(kind, shape, None) for n in (7, 8) for shape in shapes_for(kind, n)]
    for instance in instances:
        assert_same_search(*compiled_rules(*instance))


def test_srct_masks_and_reading_order_follow_from_the_words():
    """srct is read off its syrt mirror.  For every (shape, sigma) with
    n <= 6, its rows are distinct and in reading-word order, each descent
    mask is the one recomputed from the member's reading word, and the
    reading order is that of srct's own recipe.  This checks the mask map
    apart from syrt's masks."""
    for kind, shape, sigma in family_instances(6, sigmas=True):
        if kind is not FamilyKind.SRCT:
            continue
        fam = build_family(kind, shape, sigma)
        effective = sigma or tuple(range(1, len(shape) + 1))
        assert fam.diagram.reading_order == oracle.srct_recipe(shape, effective)[1]
        words = [tuple(word) for word in fam.words.tolist()]
        assert words == sorted(set(words))
        assert fam.descent_masks == tuple(sum(1 << (i - 1) for i in word_descents(w)) for w in words)


def test_reversed_kinds_read_their_twins_backwards():
    """srit, sret and syrt are read off sit, set and syct.  For every
    (shape, sigma) with n <= 6, each one's reading order is its twin's
    reversed and the one of its own former recipe, its rows are distinct
    and in reading-word order, each descent mask is the one recomputed from
    the member's reading word, and it is the complement of the mask of the
    twin member with the same entries."""
    for kind, shape, sigma in family_instances(6, sigmas=True):
        if kind not in families._REVERSED:
            continue
        fam = build_family(kind, shape, sigma)
        twin = build_family(families._REVERSED[kind], shape, sigma)
        effective = sigma or tuple(range(1, len(shape) + 1))
        assert fam.diagram.boxes == twin.diagram.boxes
        assert fam.diagram.reading_order == twin.diagram.reading_order[::-1]
        assert fam.diagram.reading_order == oracle.own_recipe(kind, shape, effective)[1]
        words = [tuple(word) for word in fam.words.tolist()]
        assert words == sorted(set(words))
        assert fam.descent_masks == tuple(sum(1 << (i - 1) for i in word_descents(w)) for w in words)
        twin_masks = dict(zip(map(tuple, twin.members.entries.tolist()), twin.descent_masks))
        rows = map(tuple, fam.members.entries.tolist())
        full = (1 << (fam.n - 1)) - 1
        assert len(twin_masks) == len(fam.members)
        assert fam.descent_masks == tuple(full ^ twin_masks[row] for row in rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_enumerator_matches_depth_first_search_on_random_posets(data):
    """Acyclic precedence edges, drawn along a random order of the boxes of
    a composition diagram, with a random reading order and no further rules."""
    n = data.draw(st.integers(1, 7))
    boxes = families.composition_diagram(data.draw(st.sampled_from(list(enumerate_compositions(n)))))
    order = data.draw(st.permutations(boxes))
    pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    diagram = Diagram(boxes, tuple(data.draw(st.permutations(boxes))))
    assert_same_search(diagram, families._compile_rules(diagram, edges, ()))


def test_long_one_row_shapes_enumerate():
    """One box per level, so no recursion depth limit applies; entries past
    255 take uint16 fields."""
    row = build_family("syt", (1000,))
    assert row.members.entries.dtype == np.uint16
    assert row.members.entries.tolist() == [list(range(1, 1001))]
    assert row.descent_masks == (0,)
    column = build_family("rib", (1,) * 300)
    assert column.members.entries.dtype == np.uint16
    assert column.words.tolist() == [list(range(300, 0, -1))]
    assert column.descent_masks == (2 ** 299 - 1,)


def assert_histogram_matches_tableaux(fam):
    assert fam.descent_histogram == Counter(map(descent_mask, fam))
    assert (qsym_characteristic(fam), peak_characteristic(fam)) == oracle.tableau_characteristics(fam)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.sets(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=40)
    )
)
def test_descent_histogram_matches_tableaux_on_word_sets(words):
    assert_histogram_matches_tableaux(words_family(sorted(words)))


def test_descent_histogram_matches_tableaux_on_forced_word_sets():
    families_ = forced_word_set_families()
    assert len(families_) == 63
    for fam in families_:
        assert_histogram_matches_tableaux(fam)


def test_module_pipeline_builds_no_tableaux(monkeypatch):
    """Enumeration, the gate, the Hecke build and relation check, both
    characteristics and theta run on arrays; a tableau is built only when
    a member is read."""
    built = []
    post_init = StandardTableau.__post_init__

    def counting(self):
        built.append(self.entries)
        post_init(self)

    monkeypatch.setattr(StandardTableau, "__post_init__", counting)
    fam = families._build_family_cached.__wrapped__(FamilyKind.SYT, (4, 3, 2, 1), None)
    assert is_ascent_compatible(fam).ok
    rep = build_hecke_module(fam, "pi")
    assert verify_hecke_relations(rep).ok
    assert theta(qsym_characteristic(rep)) == peak_characteristic(fam)
    assert built == []
    assert rep.basis[0] is fam.members[fam.word_set.order[0]]
    assert len(built) == 1


def assert_lookup_matches_basis_dict(fam):
    """Each member's basis index, read by the family and both modules,
    equals that of a dict keyed by the basis tableaux; a swap that leaves
    the family and the same entries on a translated diagram give None, are
    not in the family, and are rejected by both modules."""
    expected = {tab: t for t, tab in enumerate(fam.basis)}
    rep, crep = build_hecke_module(fam, "pi", force=True), build_clifford_module(fam, force=True)
    for tab, t in expected.items():
        assert fam.basis_index(tab) == t and tab in fam
        assert crep.index_of(MarkedTableau(tab, frozenset())) == t << fam.n
    assert set(generating_words(rep, fam.basis[0])) <= set(expected)
    shift = lambda b: (b[0] + 1, b[1])
    moved = Diagram(tuple(map(shift, fam.diagram.boxes)), tuple(map(shift, fam.diagram.reading_order)))
    outsiders = [StandardTableau(moved, tab.entries) for tab in expected]
    for i, row in enumerate(fam.word_set.target.tolist(), start=1):
        outsiders += [swap_entries(fam.basis[t], i) for t, target in enumerate(row) if target < 0]
    for tab in outsiders:
        assert tab not in expected
        assert fam.basis_index(tab) is None and tab not in fam
        with pytest.raises(DomainError):
            crep.index_of(MarkedTableau(tab, frozenset()))
        with pytest.raises(DomainError):
            generating_words(rep, tab)
    return len(outsiders)


def test_basis_lookup_matches_basis_dict():
    built = [
        fam for fam in (build_family(*inst) for inst in family_instances(5, sigmas=True)) if fam.members
    ]
    assert len(built) == 968
    forced = forced_word_set_families()
    assert len(forced) == 63
    swapped_out = sum(assert_lookup_matches_basis_dict(fam) - len(fam) for fam in built + forced)
    assert swapped_out > 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_reading_word_descents_match_positional_rules(kind):
    for n in range(1, 7):
        for shape in shapes_for(kind, n):
            fam = build_family(kind, shape)
            for tab in fam:
                assert descent_set_tab(tab) == oracle.positional_descents(
                    kind, tab.box_map(), n
                ), (kind, shape, tab.reading_word)


def test_sigma_variants_keep_positional_descent_rules():
    for kind in sorted(k.value for k in SIGMA_KINDS):
        for n in range(1, 5):
            for shape in enumerate_compositions(n):
                for sigma in itertools.permutations(range(1, len(shape) + 1)):
                    for tab in build_family(kind, shape, sigma):
                        assert descent_set_tab(tab) == oracle.positional_descents(
                            kind, tab.box_map(), n
                        )


@pytest.mark.parametrize("kind", ["spct", "ssht", "syct", "spyct", "syt", "rib"])
def test_attacking_ascents_match_closed_forms(kind):
    for n in range(1, 7):
        for shape in shapes_for(kind, n):
            fam = build_family(kind, shape)
            for tab in fam:
                for i in range(1, n):
                    cls = classify_ascent(tab, i, fam)
                    if cls is AscentClass.DESCENT:
                        continue
                    expect = oracle.closed_form_attacking(kind, tab.box_map(), i)
                    assert (cls is AscentClass.ATTACKING) == expect, (kind, shape, i)


@pytest.mark.parametrize("kind", ["sit", "set", "srit", "sret", "srct", "syrt"])
def test_attacking_descents_match_closed_forms(kind):
    for n in range(1, 7):
        for shape in shapes_for(kind, n):
            fam = build_family(kind, shape)
            for tab in fam:
                des = descent_set_tab(tab)
                for i in des:
                    from diagmod.tableaux import swap_entries

                    attacking = swap_entries(tab, i) not in fam
                    expect = oracle.closed_form_attacking(kind, tab.box_map(), i)
                    assert attacking == expect, (kind, shape, i)


# ---------------------------------------------------------------------------
# compatibility of every built-in family


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_families_are_ascent_compatible(kind):
    for n in range(1, 7):
        for shape in shapes_for(kind, n):
            fam = build_family(kind, shape)
            if fam.members:
                assert is_ascent_compatible(fam).ok, (kind, shape)


@pytest.mark.parametrize("kind", ["sit", "set", "srit", "sret", "srct", "syrt"])
def test_hat_native_families_are_descent_compatible(kind):
    for n in range(1, 7):
        for shape in shapes_for(kind, n):
            fam = build_family(kind, shape)
            if fam.members:
                assert is_descent_compatible(fam).ok, (kind, shape)


# ---------------------------------------------------------------------------
# relations between kinds


def test_spct_subset_of_sit():
    for n in range(1, 7):
        for alpha in enumerate_peak_compositions(n):
            spct = family_maps(build_family("spct", alpha))
            sit = family_maps(build_family("sit", alpha))
            assert spct <= sit


def test_spyct_equals_syct_on_strict_partitions():
    for n in range(1, 8):
        for lam in enumerate_strict_partitions(n):
            assert set(build_family("spyct", lam).members) == set(
                build_family("syct", lam).members
            )


def test_syrt_members_equal_syct_members():
    # same fillings, different reading order
    for n in range(1, 6):
        for alpha in enumerate_compositions(n):
            assert family_maps(build_family("syrt", alpha)) == family_maps(
                build_family("syct", alpha)
            )


# ---------------------------------------------------------------------------
# source tableau and unshifting


def test_source_tableau_displayed_example():
    tab = source_tableau((3, 4, 3, 2))
    rows = {}
    for (c, r), e in tab.box_map().items():
        rows.setdefault(r, []).append((c, e))
    got = [tuple(e for _, e in sorted(rows[r])) for r in sorted(rows)]
    assert got == [(1, 2, 9), (3, 4, 10, 12), (5, 6, 11), (7, 8)]


def test_source_tableau_single_row():
    tab = source_tableau((5,))
    assert tab.reading_word == (1, 2, 3, 4, 5)


def test_source_tableau_membership():
    for n in range(1, 8):
        for alpha in enumerate_peak_compositions(n):
            assert source_tableau(alpha) in build_family("spct", alpha)


def test_source_tableau_rejects_non_peak():
    with pytest.raises(DomainError):
        source_tableau((1, 3))


def test_rect_is_descent_preserving_bijection():
    for n in range(1, 9):
        for lam in enumerate_strict_partitions(n):
            shifted = build_family("ssht", lam)
            columnar = build_family("spyct", lam)
            images = [rect(t) for t in shifted]
            assert len(set(images)) == len(shifted) == len(columnar)
            assert set(images) == set(columnar.members)
            for src, img in zip(shifted.members, images):
                assert descent_set_tab(src) == descent_set_tab(img)


def test_rect_identity_on_single_row():
    lam = (4,)
    shifted = build_family("ssht", lam)
    tab = shifted.members[0]
    assert rect(tab).box_map() == tab.box_map()


def test_rect_rejects_non_shifted_input():
    tab = build_family("syct", (2, 2)).members[0]
    with pytest.raises(DomainError):
        rect(tab)


# ---------------------------------------------------------------------------
# shape validation and empty sigma variants


def test_shape_validation():
    with pytest.raises(DomainError):
        build_family("spct", (1, 3))
    with pytest.raises(DomainError):
        build_family("ssht", (3, 3))
    with pytest.raises(DomainError):
        build_family("syt", (2, 3))
    with pytest.raises(DomainError):
        build_family("sit", (2, 0))
    with pytest.raises(DomainError):
        build_family("sit", (2, 1), sigma=(2, 1))
    with pytest.raises(DomainError):
        build_family("srct", (2, 1), sigma=(1, 1))


def test_some_sigma_variant_is_empty():
    fam = build_family("syct", (2, 1), sigma=(2, 1))
    assert len(fam) == 0


def test_sigma_identity_matches_base():
    for kind in sorted(k.value for k in SIGMA_KINDS):
        for alpha in [(2, 1), (1, 2), (2, 2), (3, 1)]:
            base = build_family(kind, alpha)
            ident = build_family(kind, alpha, sigma=tuple(range(1, len(alpha) + 1)))
            assert set(base.members) == set(ident.members)


def test_families_on_one_diagram_share_it():
    """A diagram is built once per (boxes, reading order): every family with
    n <= 5 (sigmas included) that reads the same boxes in the same order, sit
    and set of one shape among them, and the words families of one size
    share one Diagram object."""
    shared = {}
    for fam in (build_family(*inst) for inst in family_instances(5, sigmas=True)):
        key = fam.diagram.boxes, fam.diagram.reading_order
        assert shared.setdefault(key, fam.diagram) is fam.diagram, fam.family_tag
    assert len(shared) == 573
    for n in range(1, 6):
        for shape in enumerate_compositions(n):
            assert build_family("sit", shape).diagram is build_family("set", shape).diagram
    assert words_family([(2, 1, 3)]).diagram is words_family([(1, 2, 3), (3, 2, 1)]).diagram
