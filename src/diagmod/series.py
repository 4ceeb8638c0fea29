"""Exact formal sums in the fundamental (F) and peak (K) bases.

A FormalSum is a finite map from compositions of a common degree n to exact
rational coefficients, tagged with a basis label.  Peak-basis sums may only
be indexed by peak compositions.  All arithmetic is exact; there is no
floating point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .compositions import (
    Composition,
    check_composition,
    comp_n,
    composition_size,
    descent_set,
    enumerate_compositions,
    peak_set,
)
from .errors import DomainError

FUNDAMENTAL = "F"
PEAK = "K"


_INT = frozenset({int})


@dataclass(frozen=True)
class FormalSum:
    """A formal linear combination of basis elements of one degree.

    ``terms`` maps index compositions to nonzero Fractions.  The zero sum of
    any degree is represented by an empty term map.
    """

    basis: str
    n: int
    terms: Mapping[Composition, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.basis not in (FUNDAMENTAL, PEAK):
            raise DomainError(f"unknown basis label {self.basis!r}")
        clean: dict[Composition, Fraction] = {}
        for alpha, coeff in self.terms.items():
            # A tuple of exact ints, as the library builds, is checked by
            # builtins; any other index goes through check_composition, which
            # raises on a float, bool or nonpositive part.
            if type(alpha) is not tuple or not _INT.issuperset(map(type, alpha)) or min(alpha, default=1) < 1:
                alpha = check_composition(alpha)
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if composition_size(alpha) != self.n:
                raise DomainError(
                    f"index {alpha} is not a composition of {self.n}"
                )
            # is_peak_composition, on an index already checked
            if self.basis == PEAK and min(alpha[:-1], default=2) < 2:
                raise DomainError(f"peak-basis index {alpha} is not a peak composition")
            clean[alpha] = clean[alpha] + coeff if alpha in clean else coeff
        clean = {a: c for a, c in clean.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    @classmethod
    def fundamental(cls, alpha: Composition, coeff=1) -> "FormalSum":
        alpha = check_composition(alpha)
        return cls(FUNDAMENTAL, composition_size(alpha), {alpha: Fraction(coeff)})

    @classmethod
    def peak(cls, alpha: Composition, coeff=1) -> "FormalSum":
        alpha = check_composition(alpha)
        return cls(PEAK, composition_size(alpha), {alpha: Fraction(coeff)})

    @classmethod
    def zero(cls, basis: str, n: int) -> "FormalSum":
        return cls(basis, n, {})

    def coefficient(self, alpha: Composition) -> Fraction:
        return self.terms.get(tuple(alpha), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Composition, Fraction]]:
        """Terms with indices in descending lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return add(self, other)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return add(self, scale(-1, other))

    def __neg__(self) -> "FormalSum":
        return scale(-1, self)

    def __rmul__(self, coeff) -> "FormalSum":
        return scale(coeff, self)

    def __str__(self) -> str:
        return render_text(self)


def add(a: FormalSum, b: FormalSum) -> FormalSum:
    """Coefficient-wise sum; zero terms are pruned."""
    if a.basis != b.basis:
        raise DomainError(f"basis mismatch: {a.basis} vs {b.basis}")
    if a.n != b.n:
        raise DomainError(f"degree mismatch: {a.n} vs {b.n}")
    terms = dict(a.terms)
    for alpha, coeff in b.terms.items():
        terms[alpha] = terms.get(alpha, Fraction(0)) + coeff
    return FormalSum(a.basis, a.n, terms)


def scale(coeff, a: FormalSum) -> FormalSum:
    coeff = Fraction(coeff)
    return FormalSum(a.basis, a.n, {alpha: coeff * c for alpha, c in a.terms.items()})


def peak_to_fundamental(k: FormalSum) -> FormalSum:
    """Expand a peak-basis sum into the fundamental basis.

    Each K indexed by a peak composition alpha contributes
    2^(|Peak(alpha)|+1) times the sum of F_beta over compositions beta of n
    whose descent set D satisfies Peak(alpha) <= D symmetric-difference (D+1).

    >>> render_text(peak_to_fundamental(FormalSum.peak((2, 1))))
    '4*F[2,1] + 4*F[1,2]'
    """
    if k.basis != PEAK:
        raise DomainError("peak_to_fundamental expects a peak-basis sum")
    if k.n == 0:
        return FormalSum(FUNDAMENTAL, 0, dict(k.terms))
    out: dict[Composition, Fraction] = {}
    betas = [(beta, descent_set(beta)) for beta in enumerate_compositions(k.n)]
    for alpha, coeff in k.terms.items():
        pk = peak_set(descent_set(alpha))
        weight = coeff * (2 ** (len(pk) + 1))
        for beta, des in betas:
            shifted = frozenset(x + 1 for x in des)
            if pk <= (des ^ shifted):
                out[beta] = out.get(beta, Fraction(0)) + weight
    return FormalSum(FUNDAMENTAL, k.n, out)


def theta(f: FormalSum) -> FormalSum:
    """Project a fundamental-basis sum onto the peak basis.

    F indexed by alpha is sent to K indexed by comp_n(Peak(alpha)), extended
    linearly with like terms collected.

    >>> render_text(theta(FormalSum.fundamental((1, 2, 2, 1, 3))))
    'K[3,2,4]'
    """
    if f.basis != FUNDAMENTAL:
        raise DomainError("theta expects a fundamental-basis sum")
    if f.n == 0:
        return FormalSum(PEAK, 0, dict(f.terms))
    out: dict[Composition, Fraction] = {}
    for alpha, coeff in f.terms.items():
        idx = _peak_index(alpha)
        out[idx] = out[idx] + coeff if idx in out else coeff
    return FormalSum(PEAK, f.n, out)


@lru_cache(maxsize=None)
def _peak_index(alpha: Composition) -> Composition:
    """comp_n of the peak set of alpha's descent set."""
    return comp_n(peak_set(descent_set(alpha)), composition_size(alpha))


@dataclass(frozen=True)
class TruncatedPolynomial:
    """A polynomial in k commuting variables with exact rational coefficients.

    Terms map exponent vectors (length k) to coefficients.
    """

    k: int
    terms: Mapping[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for exps, coeff in self.terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(exps) != self.k or any(e < 0 for e in exps):
                raise DomainError(f"bad exponent vector {exps!r} for {self.k} variables")
            clean[tuple(exps)] = coeff
        object.__setattr__(self, "terms", clean)

    def permute_variables(self, perm: tuple[int, ...]) -> "TruncatedPolynomial":
        """Apply x_i -> x_perm(i); ``perm`` is 1-based of length k."""
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            new = [0] * self.k
            for pos, e in enumerate(exps):
                new[perm[pos] - 1] = e
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff
        return TruncatedPolynomial(self.k, out)

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        if self.k != other.k:
            raise DomainError("variable count mismatch")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return TruncatedPolynomial(self.k, terms)


def _fundamental_monomials(des: frozenset[int], n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing sequences in {1..k}, strictly rising at descents."""
    seq = [0] * n

    def rec(pos: int, lo: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(seq)
            return
        for v in range(lo, k + 1):
            seq[pos] = v
            nxt = v + 1 if (pos + 1) in des else v
            yield from rec(pos + 1, nxt)

    yield from rec(0, 1)


def evaluate_truncated(f: FormalSum, k: int) -> TruncatedPolynomial:
    """Evaluate a formal sum as a polynomial in the first k variables.

    Peak-basis sums are first expanded into the fundamental basis.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"variable count must be a positive integer, got {k!r}")
    if f.basis == PEAK:
        f = peak_to_fundamental(f)
    out: dict[tuple[int, ...], Fraction] = {}
    for alpha, coeff in f.terms.items():
        des = frozenset(descent_set(alpha)) if alpha else frozenset()
        for seq in _fundamental_monomials(des, f.n, k):
            exps = [0] * k
            for v in seq:
                exps[v - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, Fraction(0)) + coeff
    return TruncatedPolynomial(k, out)


def _coeff_str(coeff: Fraction, label: str) -> str:
    if coeff.denominator == 1 and abs(coeff.numerator) == 1:
        return label
    c = abs(coeff)
    return f"{c}*{label}"


def render_text(f: FormalSum) -> str:
    """Render as e.g. "K[3,3,1] + 2*K[2,2,2,1]"; the zero sum renders as "0"."""
    if f.is_zero():
        return "0"
    pieces = []
    for alpha, coeff in f.sorted_terms():
        label = f"{f.basis}[{','.join(map(str, alpha))}]"
        body = _coeff_str(coeff, label)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def render_latex(f: FormalSum) -> str:
    """Render as e.g. "K_{(3,3,1)} + 2K_{(2,2,2,1)}"."""
    if f.is_zero():
        return "0"
    pieces = []
    for alpha, coeff in f.sorted_terms():
        label = f"{f.basis}_{{({','.join(map(str, alpha))})}}"
        c = abs(coeff)
        if c == 1:
            body = label
        elif c.denominator == 1:
            body = f"{c.numerator}{label}"
        else:
            body = f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}{label}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def to_term_records(f: FormalSum) -> list[dict]:
    """One record per term: basis, parts, numerator, denominator.

    The zero sum emits a single record with null parts carrying the degree,
    so that parsing the records reproduces the sum exactly.
    """
    if f.is_zero():
        return [{"basis": f.basis, "parts": None, "numerator": 0, "denominator": 1, "degree": f.n}]
    return [
        {
            "basis": f.basis,
            "parts": list(alpha),
            "numerator": coeff.numerator,
            "denominator": coeff.denominator,
        }
        for alpha, coeff in f.sorted_terms()
    ]


def from_term_records(records: Iterable[dict]) -> FormalSum:
    records = list(records)
    if not records:
        raise DomainError("no term records")
    basis = records[0]["basis"]
    if len(records) == 1 and records[0].get("parts") is None:
        return FormalSum.zero(basis, records[0]["degree"])
    terms: dict[Composition, Fraction] = {}
    for rec in records:
        if rec["basis"] != basis:
            raise DomainError("mixed bases in term records")
        alpha = tuple(rec["parts"])
        terms[alpha] = terms.get(alpha, Fraction(0)) + Fraction(
            rec["numerator"], rec["denominator"]
        )
    n = composition_size(next(iter(terms)))
    return FormalSum(basis, n, terms)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
