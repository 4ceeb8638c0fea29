import itertools

import pytest

from diagmod import clifford
from diagmod.families import demo_compatible_family, demo_incompatible_family
from diagmod.harness import words_family
from diagmod.tableaux import StandardTableau, TableauFamily


@pytest.fixture(scope="session")
def incompatible_family():
    """Disconnected 3-box diagram, high box read first; reading words
    312, 123, 132.  Not ascent-compatible, but descent-compatible, and it
    satisfies every relation when force-built."""
    return demo_incompatible_family()


@pytest.fixture(scope="session")
def compatible_family():
    """Bent 3-box diagram, low box read first; reading words 213, 123, 132.
    Ascent-compatible."""
    return demo_compatible_family()


def member_by_word(family, word):
    for tab in family:
        if tab.reading_word == tuple(word):
            return tab
    raise LookupError(word)


def apply_word(rep, word, vec):
    """The image of a vector, given as {basis index: coefficient}, under a
    generator word of a module, its rightmost factor applied first."""
    for gen in reversed(word):
        target, sign = rep.targets[gen - 1], rep.signs[gen - 1]
        image = {}
        for c, x in vec.items():
            # a zero image lands on the sink column with coefficient 0
            r = int(target[c])
            image[r] = image.get(r, 0) + int(sign[c]) * x
        vec = {r: v for r, v in image.items() if v}
    return vec


def forced_word_set_families():
    """Every nonempty set of words in S_3 as a family on the demo diagram."""
    diagram = demo_incompatible_family().diagram
    tableaux = [
        StandardTableau.from_box_map(diagram, dict(zip(diagram.reading_order, w)))
        for w in itertools.permutations((1, 2, 3))
    ]
    return [
        TableauFamily(diagram, members, f"words{[t.reading_word for t in members]}")
        for size in range(1, len(tableaux) + 1)
        for members in itertools.combinations(tableaux, size)
    ]


SQUARE = ((1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3))


def square_families():
    """Every nonempty subset of the square of words joined by the
    commuting swaps at 1 and 3, as a family of single-row fillings."""
    return [
        words_family(words)
        for size in range(1, len(SQUARE) + 1)
        for words in itertools.combinations(SQUARE, size)
    ]


def clear_clifford_caches():
    """Empty the cache of every function defined in the clifford module; the
    functions it imports, such as ``compositions.mask_composition``, keep
    theirs."""
    for value in vars(clifford).values():
        if getattr(value, "__module__", None) == clifford.__name__ and hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def fresh_block_caches():
    """Empty the clifford module's caches before and after the test, so
    blocks built from patched mask arrays do not leak."""
    clear_clifford_caches()
    yield
    clear_clifford_caches()
