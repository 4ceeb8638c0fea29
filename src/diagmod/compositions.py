"""Compositions, peak compositions, strict partitions, and their set statistics.

A composition of n is a tuple of positive integers summing to n.  Subsets of
{1, ..., n-1} travel as frozensets, with the ambient n passed explicitly
where it matters, or as bit masks with bit i-1 standing for i.  The
canonical enumeration order everywhere is descending lexicographic on parts,
so (n) comes first; this is the total order used for triangularity checks
and for display.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DomainError, integer

Composition = tuple[int, ...]


def check_composition(parts: Iterable[int]) -> Composition:
    """Coerce to a tuple of Python ints, each part a positive integer."""
    alpha = tuple(parts)
    for p in alpha:
        if type(p) is not int or p < 1:  # exact positive ints pass as they are
            message = f"composition parts must be positive integers, got {alpha!r}"
            return tuple(integer(part, message) for part in alpha)
    return alpha


def composition_size(alpha: Composition) -> int:
    return sum(alpha)


def descent_set(alpha: Composition) -> frozenset[int]:
    """Partial sums of all but the last part, as a subset of {1, ..., n-1}.

    >>> sorted(descent_set((2, 3, 1, 1)))
    [2, 5, 6]
    >>> descent_set((7,))
    frozenset()
    """
    alpha = check_composition(alpha)
    if not alpha:
        raise DomainError("the empty composition has no descent set")
    out, total = [], 0
    for p in alpha[:-1]:
        total += p
        out.append(total)
    return frozenset(out)


def comp_n(xs: Iterable[int], n: int) -> Composition:
    """The unique composition of n whose descent set is ``xs``, whose
    elements follow the integer rule in 1..n-1.

    >>> comp_n({1, 2, 5}, 8)
    (1, 1, 3, 3)
    >>> comp_n(set(), 5)
    (5,)
    """
    n = integer(n, f"comp_n needs a positive integer, got {n!r}")
    xs = set(xs)
    message = f"descent set {xs} is not a set of integers in 1..{n - 1}"
    parts, prev = [], 0
    for x in sorted({integer(x, message, 1, n - 1) for x in xs}):
        parts.append(x - prev)
        prev = x
    parts.append(n - prev)
    return tuple(parts)


@lru_cache(maxsize=None, typed=True)
def mask_composition(mask: int, n: int) -> Composition:
    """The composition of n whose descent set holds i exactly when bit i-1
    of the mask is set.  Both follow the integer rule, the mask in
    0..2^(n-1)-1; an integer of another type, a bool aside, is read as the
    Python int it equals, and gets the tuple cached for that int.

    >>> mask_composition(0b10011, 8)
    (1, 1, 3, 3)
    """
    if type(mask) is not int or type(n) is not int or not (0 < n and 0 <= mask < 1 << (n - 1)):
        n = integer(n, f"mask_composition needs a positive integer, got {n!r}")
        message = f"descent mask {mask!r} is not an integer in 0..{(1 << (n - 1)) - 1}"
        return mask_composition(integer(mask, message, 0, (1 << (n - 1)) - 1), n)
    parts, prev = [], 0
    while mask:
        i = (mask & -mask).bit_length()  # the least descent left
        mask &= mask - 1
        parts.append(i - prev)
        prev = i
    parts.append(n - prev)
    return tuple(parts)


def peak_set(xs: Iterable[int]) -> frozenset[int]:
    """Elements i of the set with i > 1 and i-1 not in the set; the
    elements follow the integer rule, at least 1.

    >>> sorted(peak_set({1, 3, 5, 6}))
    [3, 5]
    """
    xs = set(xs)
    message = f"peak_set needs positive integers, got {xs}"
    s = {integer(x, message) for x in xs}
    return frozenset(i for i in s if i > 1 and i - 1 not in s)


def is_peak_composition(alpha: Composition) -> bool:
    """True iff every part except possibly the last is greater than 1.

    >>> is_peak_composition((3, 3, 1))
    True
    >>> is_peak_composition((1, 2, 2, 1, 3))
    False
    """
    alpha = check_composition(alpha)
    return all(p > 1 for p in alpha[:-1])


def is_strict_partition(lam: Composition) -> bool:
    """True iff parts are strictly decreasing."""
    lam = check_composition(lam)
    return all(a > b for a, b in zip(lam, lam[1:]))


def is_partition(lam: Composition) -> bool:
    """True iff parts are weakly decreasing."""
    lam = check_composition(lam)
    return all(a >= b for a, b in zip(lam, lam[1:]))


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """All compositions of n, in descending lexicographic order on parts.
    ``n`` follows the integer rule, here with 0 allowed, when called.

    >>> list(enumerate_compositions(3))
    [(3,), (2, 1), (1, 2), (1, 1, 1)]
    """
    return _compositions(integer(n, f"n must be a nonnegative integer, got {n!r}", low=0))


def _compositions(n: int) -> Iterator[Composition]:
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        if first == n:
            yield (n,)
        else:
            for rest in _compositions(n - first):
                yield (first,) + rest


def enumerate_peak_compositions(n: int) -> Iterator[Composition]:
    """All peak compositions of n, in descending lexicographic order.

    >>> list(enumerate_peak_compositions(4))
    [(4,), (3, 1), (2, 2)]
    """
    return filter(is_peak_composition, enumerate_compositions(n))


def enumerate_strict_partitions(n: int) -> Iterator[Composition]:
    """All strictly decreasing partitions of n, descending lexicographically.

    >>> list(enumerate_strict_partitions(8))[:3]
    [(8,), (7, 1), (6, 2)]
    """
    return filter(is_strict_partition, enumerate_compositions(n))


def enumerate_partitions(n: int) -> Iterator[Composition]:
    """All weakly decreasing partitions of n, descending lexicographically."""
    return filter(is_partition, enumerate_compositions(n))


def parse_composition(text: str) -> Composition:
    """Parse comma-separated parts, e.g. "3,3,1" -> (3, 3, 1)."""
    text = text.strip()
    if not text:
        raise DomainError("empty composition string")
    try:
        parts = tuple(int(field) for field in text.split(","))
    except ValueError as exc:
        raise DomainError(f"malformed composition string {text!r}") from exc
    return check_composition(parts)


def format_composition(alpha: Composition) -> str:
    return ",".join(map(str, alpha))


def format_subset(xs: Iterable[int]) -> str:
    """Render a set as "{2,5,6}"."""
    return "{" + ",".join(str(x) for x in sorted(set(xs))) + "}"


if __name__ == "__main__":
    import doctest

    doctest.testmod()
