"""Exact-arithmetic engine for diagram modules.

Enumerates tableau families over compositions, strict partitions, and
ribbons; builds the 0-Hecke actions their swap rule generates, in both
generator conventions, as signed partial maps, together with the induced
supermodules on marked tableaux (the family's word graph tensored with
fixed 2^n blocks); expands characteristics in the fundamental and peak
bases; and machine-verifies the structural identities relating all of these.
"""

from .compositions import (
    Composition,
    comp_n,
    descent_set,
    enumerate_compositions,
    enumerate_peak_compositions,
    enumerate_strict_partitions,
    is_peak_composition,
    peak_set,
)
from .errors import DomainError, IncompatibleFamilyError
from .families import FamilyKind, build_family, rect, source_tableau
from .hecke import (
    HeckeModuleRep,
    build_hecke_module,
    qsym_characteristic,
    reachability_closure,
    verify_hecke_relations,
)
from .clifford import (
    CliffordModuleRep,
    MarkedTableau,
    build_clifford_module,
    build_M_alpha,
    clifford_reachability,
    filtration_quotient_check,
    is_tableau_cyclic,
    peak_characteristic,
    verify_clifford_relations,
)
from .series import (
    FormalSum,
    TruncatedPolynomial,
    evaluate_truncated,
    peak_to_fundamental,
    theta,
)
from .tableaux import (
    Diagram,
    StandardTableau,
    TableauFamily,
    descent_set_tab,
    is_ascent_compatible,
    is_descent_compatible,
    reading_word,
)

__version__ = "0.1.0"
