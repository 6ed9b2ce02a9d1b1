"""Exact Gross-lattice toolkit for quaternion maximal orders.

Builds maximal orders of the definite rational quaternion algebra ramified
at {p, infinity}, extracts their Gross lattices, computes normalized
successive minimal bases, classifies the corresponding supersingular curves
from lattice data, and cross-validates everything against a finite-field
supersingularity oracle.
"""

from .classify import Classification, classify_type
from .cm import CmError, closed_form_gram, cm_row, cm_rows, recompute_ne
from .gramgross import GramCandidate, gram_gross, quadratic_residue_precheck
from .lattice import (
    MinimalBasis,
    MinimaTriple,
    half_form,
    kneser_neighbours,
    minimal_basis,
    minima_triple,
    primitive_norms,
    short_vectors,
)
from .oracle import OracleError, spine_count, supersingular_j_set
from .orders import (
    GrossLattice,
    QuaternionOrder,
    TypeRecord,
    enumerate_types,
    gross_lattice,
    pizer_gross_gram,
    pizer_maximal_order,
    reduced_discriminant,
    standard_maximal_order,
)
from .quat import QuaternionAlgebra
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CmError",
    "GramCandidate",
    "GrossLattice",
    "MinimaTriple",
    "MinimalBasis",
    "OracleError",
    "QuaternionAlgebra",
    "QuaternionOrder",
    "TypeRecord",
    "classify_type",
    "closed_form_gram",
    "cm_row",
    "cm_rows",
    "enumerate_types",
    "gram_gross",
    "gross_lattice",
    "half_form",
    "kneser_neighbours",
    "minima_triple",
    "minimal_basis",
    "pizer_gross_gram",
    "pizer_maximal_order",
    "primitive_norms",
    "quadratic_residue_precheck",
    "recompute_ne",
    "reduced_discriminant",
    "run_verify",
    "short_vectors",
    "spine_count",
    "standard_maximal_order",
    "supersingular_j_set",
]
