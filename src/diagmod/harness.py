"""Executable verification of the package's structural identities.

Covers: the unshift intertwiner between shifted and column-shape
supermodules, unitriangularity of the peak-basis transition matrix, peak
positivity of the difference of the two enumerator families, agreement of
the two routes to the symmetric peak sums, weak Bruhat interval modules, and
the small witness separating diagram modules from interval modules.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .clifford import (
    build_clifford_module,
    filtration_quotient_check,
    peak_characteristic,
    swap_targets,
    verify_clifford_relations,
)
from .compositions import (
    Composition,
    check_composition,
    enumerate_peak_compositions,
    enumerate_strict_partitions,
    format_composition,
    is_peak_composition,
    is_strict_partition,
)
from .errors import DomainError
from .families import (
    FamilyKind,
    NATIVE_CONVENTION,
    build_family,
    demo_compatible_family,
    family_instances,
    rect,
    single_row_diagram,
)
from .hecke import (
    PI,
    HeckeModuleRep,
    RelationReport,
    build_hecke_module,
    qsym_characteristic,
    verify_hecke_relations,
)
from .series import theta
from .tableaux import StandardTableau, TableauFamily, inversions, swap_values, word_descents


class TheoremMismatch(AssertionError):
    """An identity the package is supposed to reproduce failed exactly."""


# ---------------------------------------------------------------------------
# permutations and the left weak order

Perm = tuple[int, ...]


def check_perm(word: Iterable[int]) -> Perm:
    g = tuple(word)
    if sorted(g) != list(range(1, len(g) + 1)):
        raise DomainError(f"{g} is not a permutation of 1..{len(g)}")
    return g


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def reverse_word(g: Perm) -> Perm:
    """One-line reverse; equals right multiplication by the longest element."""
    return g[::-1]


def ascent_pairs(g: Perm) -> frozenset[tuple[int, int]]:
    """Position pairs (r, s), r < s, holding increasing values."""
    n = len(g)
    return frozenset(
        (r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1) if g[r - 1] < g[s - 1]
    )


def leq_left_weak(sigma: Perm, rho: Perm) -> bool:
    """sigma is below rho iff every ascent pair of rho is one of sigma."""
    return ascent_pairs(rho) <= ascent_pairs(sigma)


@dataclass(frozen=True)
class BruhatInterval:
    sigma: Perm
    rho: Perm
    members: tuple[Perm, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, g: Perm) -> bool:
        return g in set(self.members)


def _weak_order_walk(g: Perm, upward: bool) -> set[Perm]:
    """Every permutation reached from g by left multiplications s_i that go
    up (at ascents i) or down (at descents i) in left weak order."""
    seen = {g}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            des = word_descents(h)
            for i in range(1, len(h)):
                if (i in des) != upward:
                    step = swap_values(h, i)
                    if step not in seen:
                        seen.add(step)
                        nxt.append(step)
        frontier = nxt
    return seen


def weak_bruhat_interval(sigma: Perm, rho: Perm) -> BruhatInterval:
    """The interval between two comparable permutations in left weak order.

    Membership is computed by closing upwards from the bottom and downwards
    from the top, and cross-validated against the ascent-pair criterion.
    """
    sigma, rho = check_perm(sigma), check_perm(rho)
    if len(sigma) != len(rho):
        raise DomainError("permutations of different sizes")
    if not leq_left_weak(sigma, rho):
        raise DomainError(f"{sigma} is not below {rho} in left weak order")
    up, down = _weak_order_walk(sigma, upward=True), _weak_order_walk(rho, upward=False)
    return _interval(sigma, rho, up, down, ascent_pairs)


def _interval(sigma: Perm, rho: Perm, up: set, down: set, ascents) -> BruhatInterval:
    """The interval from the upward walk from sigma and the downward walk
    from rho, checked against the ascent-pair criterion; ``ascents`` gives
    a permutation's ascent pairs."""
    members = sorted(up & down)
    ap_rho = ascents(rho)
    criterion = sorted(g for g in up if ap_rho <= ascents(g))
    if members != criterion:
        raise TheoremMismatch(
            f"interval [{sigma}, {rho}]: closure and ascent-pair criterion disagree"
        )
    return BruhatInterval(sigma, rho, tuple(members))


def all_intervals(n: int) -> list[BruhatInterval]:
    """Every interval of the left weak order on permutations of 1..n.

    Both walks and the ascent pairs are computed once per permutation."""
    perms = [tuple(g) for g in itertools.permutations(range(1, n + 1))]
    ascents = {g: ascent_pairs(g) for g in perms}
    up = {g: _weak_order_walk(g, upward=True) for g in perms}
    down = {g: _weak_order_walk(g, upward=False) for g in perms}
    return [
        _interval(sigma, rho, up[sigma], down[rho], ascents.__getitem__)
        for sigma in perms
        for rho in perms
        if ascents[rho] <= ascents[sigma]
    ]


def words_family(words: Sequence[Perm], tag: str = "words") -> TableauFamily:
    """Fillings of a single row of n boxes whose reading words are the given
    one-line permutations."""
    words = [check_perm(w) for w in words]
    if not words:
        raise DomainError("no words given")
    n = len(words[0])
    if any(len(w) != n for w in words):
        raise DomainError("words of mixed sizes")
    diagram = single_row_diagram(n)
    members = tuple(StandardTableau(diagram, w) for w in words)
    return TableauFamily(diagram, members, tag)


def _direct_interval_maps(
    interval: BruhatInterval, order: Sequence[Perm], flavour: str
) -> list[tuple[list[int], list[int]]]:
    """Generator maps ``(targets, signs)`` built straight from the interval
    action rules, in the sink-column encoding: column ``len(order)`` is a
    sink, fixed with sign 0, and a zero image points at it with sign 0.

    ``flavour`` 'bar' is the signed action (descents scale by -1, ascents
    swap inside the interval or die); 'plain' is the unsigned action
    (descents fix, ascents swap inside the interval or die).
    """
    member_set = set(interval.members)
    index = {g: k for k, g in enumerate(order)}
    sink = len(order)
    maps = []
    for i in range(1, len(interval.sigma)):
        targets, signs = [], []
        for col, g in enumerate(order):
            if i in word_descents(g):
                targets.append(col), signs.append(-1 if flavour == "bar" else 1)
            else:
                up = swap_values(g, i)
                targets.append(index[up] if up in member_set else sink)
                signs.append(1 if up in member_set else 0)
        maps.append((targets + [sink], signs + [0]))
    return maps


def _maps_as_lists(rep: HeckeModuleRep) -> list[tuple[list[int], list[int]]]:
    return list(zip(rep.targets.tolist(), rep.signs.tolist()))


def build_interval_modules(interval: BruhatInterval) -> tuple[HeckeModuleRep, HeckeModuleRep]:
    """Realize both interval modules as diagram modules on single-row fillings.

    The signed interval action must equal, map for map, the module on
    fillings reading to the interval itself; the unsigned action must equal
    the sign-flipped-convention module on the reversed words.  Any mismatch
    raises; none is expected.
    """
    fam = words_family(interval.members, tag=f"interval{list(interval.sigma)}-{list(interval.rho)}")
    rep = build_hecke_module(fam, "pi")
    order = [t.reading_word for t in rep.basis]
    if _maps_as_lists(rep) != _direct_interval_maps(interval, order, "bar"):
        raise TheoremMismatch("signed interval action differs from the diagram module")

    rev_fam = words_family(
        [reverse_word(g) for g in interval.members],
        tag=f"interval-rev{list(interval.sigma)}-{list(interval.rho)}",
    )
    hat_rep = build_hecke_module(rev_fam, "hat")
    hat_order = [reverse_word(t.reading_word) for t in hat_rep.basis]
    if _maps_as_lists(hat_rep) != _direct_interval_maps(interval, hat_order, "plain"):
        raise TheoremMismatch("unsigned interval action differs from the reversed-word module")
    return rep, hat_rep


# ---------------------------------------------------------------------------
# intertwiners and basis theorems


def _graphs_isomorphic(rep_a, rep_b, pairing: Sequence[int]) -> bool:
    """Whether the tableau bijection t -> pairing[t] is an isomorphism of the
    two supermodules' word graphs: the same descents at paired tableaux, and
    paired swap targets.

    With P the permutation of marked bases that pairs the tableaux and keeps
    the masks, this is exactly the identity P A = B P for every generator:
    the c_j are the same blocks on every tableau, and the descent, attack and
    swap blocks of each pi_i are distinct and nonzero.
    """
    if rep_a.dim != rep_b.dim or sorted(pairing) != list(range(len(rep_b.basis_tableaux))):
        return False
    graph_a, graph_b = rep_a.family.word_graph, rep_b.family.word_graph
    pairing = np.asarray(pairing, dtype=np.intp)
    swaps_a, swaps_b = swap_targets(graph_a), swap_targets(graph_b)
    paired_a = np.where(swaps_a >= 0, pairing[swaps_a], -1)
    return bool(
        (graph_b.descent[:, pairing] == graph_a.descent).all()
        and (swaps_b[:, pairing] == paired_a).all()
    )


def check_rect_isomorphism(lam: Composition) -> bool:
    """The unshift map on marked tableaux intertwines the two supermodules."""
    lam = check_composition(lam)
    if not is_strict_partition(lam):
        raise DomainError(f"{lam} is not a strict partition")
    shifted = build_clifford_module(build_family(FamilyKind.SSHT, lam))
    columnar = build_clifford_module(build_family(FamilyKind.SPYCT, lam))
    pairing = [columnar.tableau_index[rect(t)] for t in shifted.basis_tableaux]
    return _graphs_isomorphic(shifted, columnar, pairing)


def transition_to_peak_basis(n: int) -> tuple[tuple[Composition, ...], list[list[Fraction]]]:
    """Peak-basis coefficients of the columnar peak sums, one row per peak
    composition in descending order; asserts unit diagonal and vanishing
    above it."""
    if n < 1:
        raise DomainError("n must be positive")
    peaks = tuple(enumerate_peak_compositions(n))
    col = {alpha: j for j, alpha in enumerate(peaks)}
    matrix = []
    for i, alpha in enumerate(peaks):
        f = peak_characteristic(build_family(FamilyKind.SPYCT, alpha))
        row = [Fraction(0)] * len(peaks)
        for beta, coeff in f.terms.items():
            row[col[beta]] = coeff
        if row[i] != 1:
            raise TheoremMismatch(f"diagonal coefficient at {alpha} is {row[i]}, not 1")
        for j in range(i):
            if row[j] != 0:
                raise TheoremMismatch(
                    f"row {alpha} has coefficient {row[j]} at larger index {peaks[j]}"
                )
        matrix.append(row)
    return peaks, matrix


def check_Q_minus_S_positivity(alpha: Composition) -> bool:
    """The row-built peak sum minus the triple-rule-built one is coefficient-
    wise nonnegative in the peak basis."""
    alpha = check_composition(alpha)
    if not is_peak_composition(alpha):
        raise DomainError(f"{alpha} is not a peak composition")
    q = peak_characteristic(build_family(FamilyKind.SPCT, alpha))
    s = peak_characteristic(build_family(FamilyKind.SPYCT, alpha))
    return all(coeff >= 0 for coeff in (q - s).terms.values())


def check_schurQ_inclusion(lam: Composition) -> bool:
    """Both families over a strict partition give the same peak sum."""
    lam = check_composition(lam)
    if not is_strict_partition(lam):
        raise DomainError(f"{lam} is not a strict partition")
    a = peak_characteristic(build_family(FamilyKind.SSHT, lam))
    b = peak_characteristic(build_family(FamilyKind.SPYCT, lam))
    return a == b


def theta_matches_peak(family: TableauFamily) -> bool:
    """theta of the fundamental characteristic equals the peak characteristic."""
    return theta(qsym_characteristic(family)) == peak_characteristic(family)


@dataclass(frozen=True)
class FamilyCheck:
    """Verdicts, sizes and stage seconds of one family run through
    ``check_family``.  A report is None when its stage was skipped; ``dim``
    is that of the supermodule when it was built, else that of the module."""

    tag: str
    size: int
    convention: str
    hecke: Optional[RelationReport]
    clifford: Optional[RelationReport]
    dim: int
    failing_quotients: tuple[int, ...]
    module_s: float
    supermodule_s: float
    quotients_s: float

    @property
    def ok(self) -> bool:
        reports = (self.hecke, self.clifford)
        return all(r is None or r.ok for r in reports) and not self.failing_quotients


def check_family(
    family: TableauFamily,
    convention: Optional[str] = None,
    module: bool = True,
    supermodule: bool = True,
) -> FamilyCheck:
    """Build the family's module and supermodule, verify their relations, and
    compare each filtration quotient with the reference module of its
    descent composition.

    ``convention`` defaults to the native one of the family's kind, else pi.
    ``module`` and ``supermodule`` select the stages; the quotients belong to
    the supermodule.  An empty family builds nothing; builder errors, such as
    an incompatible family, propagate.
    """
    if convention is None:
        convention = NATIVE_CONVENTION[FamilyKind(family.kind)] if family.kind else PI
    hecke = clifford = None
    dim, failing = 0, ()
    module_s = supermodule_s = quotients_s = 0.0
    if family.members and module:
        start = time.perf_counter()
        rep = build_hecke_module(family, convention)
        hecke = verify_hecke_relations(rep)
        dim = rep.dim
        module_s = time.perf_counter() - start
    if family.members and supermodule:
        start = time.perf_counter()
        crep = build_clifford_module(family)
        clifford = verify_clifford_relations(crep)
        dim = crep.dim
        supermodule_s = time.perf_counter() - start
        start = time.perf_counter()
        failing = tuple(
            k for k in range(1, len(family.members) + 1) if not filtration_quotient_check(crep, k)
        )
        quotients_s = time.perf_counter() - start
    return FamilyCheck(
        tag=family.family_tag, size=len(family.members), convention=convention,
        hecke=hecke, clifford=clifford, dim=dim, failing_quotients=failing,
        module_s=module_s, supermodule_s=supermodule_s, quotients_s=quotients_s,
    )


# ---------------------------------------------------------------------------
# the separating witness


@dataclass(frozen=True)
class WitnessReport:
    size_three_intervals: int
    all_chains: bool
    max_nonattacking_in_intervals: int
    demo_words_form_interval: bool
    demo_max_nonattacking: int
    verdict: str

    def __str__(self) -> str:
        return self.verdict


def _max_nonattacking(family: TableauFamily) -> int:
    """The most nonattacking ascents of one member: generators at which it
    has no descent and its swap stays in the family."""
    graph = family.word_graph
    return int((~graph.descent & (graph.target >= 0)).sum(axis=0).max())


def generalization_witness() -> WitnessReport:
    """Re-derive the witness that some diagram module is not an interval
    module: every 3-element interval on 3 letters is a chain, so its basis
    elements admit at most one nonattacking ascent, while the bent-diagram
    demo family has a member with two."""
    intervals = all_intervals(3)
    size3 = [iv for iv in intervals if len(iv) == 3]
    chains = [sorted(iv.members, key=inversions) for iv in size3]
    all_chains = all(leq_left_weak(a, b) for c in chains for a, b in zip(c, c[1:]))
    max_nonatt = max(_max_nonattacking(words_family(iv.members)) for iv in size3)

    fam = demo_compatible_family()
    demo_words = sorted(t.reading_word for t in fam.members)
    is_interval = any(sorted(iv.members) == demo_words for iv in intervals)
    build_hecke_module(fam, "pi")  # the demo family must pass the gate
    demo_max = _max_nonattacking(fam)
    verdict = (
        "not isomorphic to any weak Bruhat interval module"
        if (all_chains and max_nonatt <= 1 and not is_interval and demo_max >= 2)
        else "witness failed"
    )
    return WitnessReport(
        size_three_intervals=len(size3),
        all_chains=all_chains,
        max_nonattacking_in_intervals=max_nonatt,
        demo_words_form_interval=is_interval,
        demo_max_nonattacking=demo_max,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# report-producing check runner


@dataclass(frozen=True)
class CheckRecord:
    theorem: str
    shape: str
    verdict: str
    dims: str
    elapsed: float

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "shape": self.shape,
            "verdict": self.verdict,
            "dims": self.dims,
            "elapsed": round(self.elapsed, 6),
        }

    def as_text(self) -> str:
        return (
            f"{self.theorem:<24} {self.shape:<18} {self.verdict:<6} "
            f"{self.dims:<12} {self.elapsed:.3f}s"
        )


def _record(theorem: str, shape: str, fn: Callable[[], tuple[bool, str]]) -> CheckRecord:
    start = time.perf_counter()
    try:
        ok, dims = fn()
        verdict = "pass" if ok else "FAIL"
    except TheoremMismatch:
        verdict, dims = "FAIL", "-"
    except Exception as exc:  # one raising job must not lose the rest of the run
        verdict, dims = "ERROR", f"{type(exc).__name__}: {exc}"
    return CheckRecord(theorem, shape, verdict, dims, time.perf_counter() - start)


def _rect_job(lam: Composition) -> tuple[bool, str]:
    fam = build_family(FamilyKind.SSHT, lam)
    ok = check_rect_isomorphism(lam)
    return ok, f"dim={len(fam) * (1 << sum(lam))}"


def _transition_job(n: int) -> tuple[bool, str]:
    peaks, _ = transition_to_peak_basis(n)
    return True, f"{len(peaks)}x{len(peaks)}"


def _verdict_job(check: Callable[[Composition], bool], arg: Composition) -> tuple[bool, str]:
    return check(arg), "-"


def _theta_job(kind: FamilyKind, shape: Composition) -> tuple[bool, str]:
    fam = build_family(kind, shape)
    return theta_matches_peak(fam), f"|family|={len(fam)}"


def _intervals_job(n: int) -> tuple[bool, str]:
    intervals = all_intervals(n)
    for iv in intervals:
        build_interval_modules(iv)
    return True, f"{len(intervals)} intervals"


def _relations_job(kind: FamilyKind, shape: Composition) -> tuple[bool, str]:
    check = check_family(build_family(kind, shape), supermodule=False)
    return check.ok, f"dim={check.dim}" if check.size else "empty"


def _witness_job() -> tuple[bool, str]:
    report = generalization_witness()
    return report.verdict != "witness failed", f"{report.size_three_intervals} intervals"


CHECKS = ("rect", "transition", "positivity", "schurq", "theta", "bruhat", "relations", "witness")


def run_harness(checks: Iterable[str] = ("all",), max_n: int = 5) -> list[CheckRecord]:
    """Run the named theorem checks up to the given size and collect records.

    ``checks`` holds names from ``CHECKS``, or ``"all"`` for every one; an
    unknown name raises.  Jobs run one after another in the order of
    ``CHECKS``, so the report is deterministic.  A job that raises anything
    but ``TheoremMismatch`` gives an ``ERROR`` record naming the exception,
    and the run goes on.
    """
    wanted = set(checks)
    unknown = sorted(wanted - {"all", *CHECKS})
    if unknown:
        raise DomainError(f"unknown harness check(s): {', '.join(unknown)}")
    if "all" in wanted:
        wanted = set(CHECKS)
    jobs: list[tuple[str, str, Callable[[], tuple[bool, str]]]] = []
    if "rect" in wanted:
        for n in range(1, max_n + 1):
            for lam in enumerate_strict_partitions(n):
                jobs.append(("rect-intertwiner", format_composition(lam), partial(_rect_job, lam)))
    if "transition" in wanted:
        for n in range(1, max_n + 1):
            jobs.append(("peak-transition", str(n), partial(_transition_job, n)))
    if "positivity" in wanted:
        for n in range(1, max_n + 1):
            for alpha in enumerate_peak_compositions(n):
                job = partial(_verdict_job, check_Q_minus_S_positivity, alpha)
                jobs.append(("peak-positivity", format_composition(alpha), job))
    if "schurq" in wanted:
        for n in range(1, max_n + 1):
            for lam in enumerate_strict_partitions(n):
                job = partial(_verdict_job, check_schurQ_inclusion, lam)
                jobs.append(("symmetric-inclusion", format_composition(lam), job))
    if "theta" in wanted:
        for kind, shape, _ in family_instances(max_n):
            job = partial(_theta_job, kind, shape)
            jobs.append((f"theta-{kind.value}", format_composition(shape), job))
    if "bruhat" in wanted:
        for n in range(1, min(max_n, 4) + 1):
            jobs.append(("interval-modules", f"S{n}", partial(_intervals_job, n)))
    if "relations" in wanted:
        for kind, shape, _ in family_instances(max_n):
            job = partial(_relations_job, kind, shape)
            jobs.append((f"relations-{kind.value}", format_composition(shape), job))
    if "witness" in wanted:
        jobs.append(("interval-witness", "-", _witness_job))
    return [_record(t, s, fn) for t, s, fn in jobs]
