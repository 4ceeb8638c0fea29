"""Exception types and the one integer input rule, shared across the package."""

import operator


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


class IncompatibleFamilyError(DomainError):
    """A tableau family failed the compatibility gate for module construction.

    Carries the witness: two tableaux that disagree on the attacking status
    of an ascent (or descent) occupying the same pair of reading positions.
    """

    def __init__(self, mode: str, witness):
        first, second, r, s = witness
        self.mode = mode
        self.witness = witness
        super().__init__(
            f"family is not {mode}-compatible: tableaux with reading words "
            f"{''.join(map(str, first.reading_word))} and "
            f"{''.join(map(str, second.reading_word))} disagree at positions ({r}, {s})"
        )


class TheoremMismatch(AssertionError):
    """An identity the package is supposed to reproduce failed exactly."""


def integer(value, message: str, low: int = 1, high: float = float("inf")) -> int:
    """``operator.index(value)`` as a Python int if it lies in low..high;
    any other value, a bool included, raises DomainError(message)."""
    try:
        if not isinstance(value, bool) and low <= (index := operator.index(value)) <= high:
            return index
    except TypeError:
        pass
    raise DomainError(message)
