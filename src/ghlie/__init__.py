"""Exact structure-constant engine for class-2 nilpotent Lie algebras over Q.

Two independent routes to the same invariants: the exact-sequence dimension
count built on the Jacobi-cycle subspace, and a Hopf-formula oracle over a
Hall-basis model of the free class-3 algebra.  See README.md for the CLI and
the acceptance suite.
"""

from .exactla import Matrix, Subspace, relations
from .liealg import (
    GhSpec,
    LieAlgebra,
    abelian,
    bracket_vectors,
    center,
    derived_subalgebra,
    direct_sum,
    gh_construct,
    heisenberg,
    jacobi_check,
    lower_central_series,
    quotient,
)
from .multiplier import dimensions, psi2_image, square_dim
from .hopf import (
    cover_construct,
    exterior_center,
    exterior_square_oracle,
    hall_basis,
    hopf_multiplier_dim,
    ker_beta,
    presentation_from_class2,
    verify_cover,
)
from .closed_forms import EXPECTED_MISMATCHES, closed_form_eval
from .report import Analysis, DimReport, analyze, capability_by_quotients, classify_by_multiplier

__version__ = "0.1.0"
