"""Alternating matrix-splitting iterations for index-one singular systems.

The library solves a x = b, for square a of index at most one, by
stationary iterations built from one, two or three proper splittings
a = u - v, composed into a single alternating sweep.  Convergence and
comparison behavior is governed by the spectral radius of the composite
iteration matrix, and every convergence and comparison statement ships
as an executable checker.
"""

from .alternating import (
    GroupMonotoneInstance,
    IterationConfig,
    IterationTrace,
    Scheme,
    constant_term,
    fixed_point,
    iterate,
    iteration_matrix,
    random_g_regular_splitting,
    random_group_monotone,
)
from .analysis import (
    ComparisonReport,
    HypothesisCheck,
    PreconditionerReport,
    compare_splittings,
    induced_splitting,
    make_preconditioner,
    preconditioned_comparison,
    three_step_comparison,
    validate_preconditioner,
)
from .bench import RunReport, run_bench, write_csv
from .errors import (
    AltiterError,
    CrossCheckError,
    DivergentSchemeError,
    HypothesisViolationError,
    MatrixMarketError,
    NotIndexOneError,
    NotProperSplittingError,
    NumericFailureError,
    PreconditionError,
    SingularMatrixError,
)
from .ginverse import (
    AxiomResiduals,
    GroupInverseResult,
    group_inverse,
    verify_group_axioms,
)
from .kernel import (
    DEFAULT_TOL,
    Tolerances,
    is_nonneg,
    rank,
    solve_square,
    spectral_radius,
)
from .mmio import load_matrix, save_matrix
from .splittings import (
    Splitting,
    SplittingClass,
    SplittingIdentities,
    make_splitting,
    splitting_identity_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "AltiterError",
    "AxiomResiduals",
    "ComparisonReport",
    "CrossCheckError",
    "DEFAULT_TOL",
    "DivergentSchemeError",
    "GroupInverseResult",
    "GroupMonotoneInstance",
    "HypothesisCheck",
    "HypothesisViolationError",
    "IterationConfig",
    "IterationTrace",
    "MatrixMarketError",
    "NotIndexOneError",
    "NotProperSplittingError",
    "NumericFailureError",
    "PreconditionError",
    "PreconditionerReport",
    "RunReport",
    "Scheme",
    "SingularMatrixError",
    "Splitting",
    "SplittingClass",
    "SplittingIdentities",
    "Tolerances",
    "compare_splittings",
    "constant_term",
    "fixed_point",
    "group_inverse",
    "induced_splitting",
    "is_nonneg",
    "iterate",
    "iteration_matrix",
    "load_matrix",
    "make_preconditioner",
    "make_splitting",
    "preconditioned_comparison",
    "random_g_regular_splitting",
    "random_group_monotone",
    "rank",
    "run_bench",
    "save_matrix",
    "solve_square",
    "spectral_radius",
    "splitting_identity_residuals",
    "three_step_comparison",
    "validate_preconditioner",
    "verify_group_axioms",
    "write_csv",
]
