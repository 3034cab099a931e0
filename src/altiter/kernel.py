"""Dense real-matrix kernel used by every other module.

Rank and subspace decisions are made from a singular value decomposition:
one SVD gives the rank together with orthonormal bases of the range and
the null space, and every subspace decision reads those two bases.  Every
threshold comes from an explicit :class:`Tolerances` value so callers
working with rounded data can relax the decisions per call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericFailureError, SingularMatrixError

ENV_PREFIX = "ALTITER_"


def _positive_finite(name: str, value) -> None:
    """Raise ValueError unless value is a real, non-bool, finite, positive number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds for rank, sign and matrix-identity decisions.

    rank_rel    singular-value cutoff rank_rel * max(rows, cols) * sigma_max, read by
                every rank decision: rank, index one and a splitting's lower rank
    nonneg_tol  magnitude below which a negative entry counts as zero
    mat_eq_tol  bound on every matrix-identity residual: properness (off-diagonal
                blocks of Q^-1 m Q, relative to it, against mat_eq_tol times
                min(max(1, kappa/n), 1/sqrt(mat_eq_tol)) for the conditioning
                kappa = ||Q||_F ||Q^-1||_F of Q: an orthonormal Q has kappa = n),
                QA = AQ, a preconditioned splitting's target QA, and an induced
                splitting's two routes to B
    refval_tol  slack when comparing against four-decimal reference values

    Each field must be a finite positive number.
    """

    rank_rel: float = 1e-12
    nonneg_tol: float = 1e-10
    mat_eq_tol: float = 1e-8
    refval_tol: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            _positive_finite(f.name, getattr(self, f.name))


DEFAULT_TOL = Tolerances()

# Norms below this may have lost bits to underflow in their squares.
_TINY_NORM = 2.0**-500


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a 2-d float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(b, n: int | None = None) -> np.ndarray:
    """Accept shape (n,) or (n, 1) and return a finite 1-d float array."""
    v = np.asarray(b, dtype=float)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v[:, 0]
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {np.shape(b)}")
    if v.size and not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    return v


def _rank_from_sv(s: np.ndarray, cutoff: float) -> int:
    """Number of singular values s (in decreasing order) above cutoff * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > cutoff * s[0]))


def _svd(m: np.ndarray, compute_uv: bool = True):
    """np.linalg.svd, with a LAPACK failure raised as NumericFailureError."""
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"singular value decomposition failed: {exc}") from exc


def singular_values(a) -> np.ndarray:
    """Singular values in decreasing order."""
    m = as_matrix(a)
    return _svd(m, compute_uv=False) if m.size else np.empty(0)


def _peak_exponent(m: np.ndarray) -> int:
    """The e with 2^(e-1) <= max |m_ij| < 2^e (0 for a zero m), read without an |m| copy."""
    return int(np.frexp(max(float(m.max(initial=0.0)), -float(m.min(initial=0.0))))[1])


def _downscaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(2^-s m, s), with s > 0 only when an entry of m reaches 2^512 in magnitude.

    s is then the exponent of the largest entry, which brings every entry
    below 1, so that ranking, decomposing or changing the basis of the copy
    cannot overflow.  The scaling is exact and changes no rank, range or null
    space; a matrix without such entries comes back as itself with s = 0.
    """
    shift = _peak_exponent(m)
    if shift <= 512:  # every entry is below 2^512
        return m, 0
    return np.ldexp(m, -shift), shift


def rank(a, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff."""
    m = _downscaled(as_matrix(a))[0]
    return _rank_from_sv(singular_values(m), tol.rank_rel * max(m.shape))


def range_null_bases(a, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases R of the column space and N of the null space.

    Both come from one SVD: R holds the leading r left singular vectors
    and N the trailing right singular vectors, so for rank r they have
    shapes (rows, r) and (cols, cols - r); either may have no columns.
    A matrix with entries above 2^512 is decomposed as an exact
    power-of-two scaled copy, which has the same bases.
    """
    m = _downscaled(as_matrix(a))[0]
    u, s, vh = _svd(m)
    r = _rank_from_sv(s, tol.rank_rel * max(m.shape))
    return u[:, :r], vh[r:].T


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus, from a dense eigenvalue decomposition."""
    m = as_square(a)
    if m.size == 0:
        return 0.0
    try:
        eigvals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(np.abs(eigvals)))


def neg_violation(a) -> float:
    """How far below zero the most negative entry lies: 0.0 if none, NaN if an entry is NaN."""
    worst = -float(np.asarray(a, dtype=float).min(initial=0.0))
    return 0.0 if worst <= 0.0 else worst  # keeps the NaN that max(0.0, nan) would drop


def within_nonneg_tol(violation: float, tol: Tolerances) -> bool:
    """The one sign decision: a neg_violation counts as zero up to nonneg_tol, NaN never."""
    return bool(violation <= tol.nonneg_tol)


def is_nonneg(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Entrywise nonnegativity, treating entries above -nonneg_tol as zero."""
    return within_nonneg_tol(neg_violation(a), tol)


def solve_square(a, b) -> np.ndarray:
    """Solve a x = b for square a, failing loudly on singular systems."""
    m = as_square(a)
    rhs = np.asarray(b, dtype=float)
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"coefficient matrix is singular: {exc}") from exc
    if not np.isfinite(x).all():
        raise SingularMatrixError("solution overflowed; matrix is numerically singular")
    return x


def inverse(a) -> np.ndarray:
    m = as_square(a)
    return solve_square(m, np.eye(m.shape[0]))


def _quiet_product(form, what: str) -> np.ndarray:
    """form(), a matrix expression evaluated with overflow ignored.  Raises
    NumericFailureError, and no RuntimeWarning, if what it returns is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = form()
    if not np.isfinite(out).all():
        raise NumericFailureError(f"{what} overflowed")
    return out


def rel_residual(delta, reference) -> float:
    """Frobenius norm of delta, relative to the reference when it is nonzero.

    When a norm overflows, or the reference's underflows, each is
    recomputed after scaling its matrix by the power of two that brings
    its largest entry into [0.5, 1), and the exponents are applied to the
    quotient.  The scaling is exact, so the result is the correctly
    scaled ratio (inf when that exceeds the float range), and every other
    residual keeps its bits.
    """
    d, r = np.asarray(delta, dtype=float), np.asarray(reference, dtype=float)
    with np.errstate(over="ignore"):
        num, den = float(np.linalg.norm(d)), float(np.linalg.norm(r))
    if num < np.inf and den < np.inf and (den > _TINY_NORM or not r.any()):
        return num / den if den > 0 else num
    (num, num_exp), (den, den_exp) = _scaled_norm(d), _scaled_norm(r)
    with np.errstate(over="ignore"):  # a quotient beyond the float range is inf
        if den > 0:
            return float(np.ldexp(num / den, num_exp - den_exp))
        return float(np.ldexp(num, num_exp))


def _scaled_norm(m: np.ndarray) -> tuple[float, int]:
    """(norm(2^-e m), e) with e the exponent of the largest entry of m."""
    exp = _peak_exponent(m)
    return float(np.linalg.norm(np.ldexp(m, -exp))), exp
