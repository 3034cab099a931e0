"""Matrix index and the group inverse.

The group inverse of a square matrix A is the unique X with
AXA = A, XAX = X and AX = XA.  It exists exactly when A has index one,
i.e. rank(A) = rank(A^2).  It is computed here through a change of basis:
with Q = [basis of R(A) | basis of N(A)], the matrix Q^-1 A Q is block
diagonal with an invertible r-by-r leading block C, and the group inverse
is Q diag(C^-1, 0) Q^-1.  Orthonormal bases keep Q well conditioned.  The
same basis decides whether another matrix keeps the range and null space
of A, and yields its group inverse, without decomposing that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotIndexOneError, NotProperSplittingError
from .kernel import (
    DEFAULT_TOL,
    Tolerances,
    _downscaled,
    as_square,
    inverse,
    range_null_bases,
    rank,
    rel_residual,
    singular_values,
)


@dataclass(frozen=True)
class GroupInverseResult:
    """Group inverse together with the decomposition that produced it.

    One result serves every splitting of its matrix: make_splitting
    accepts it in place of the matrix, so callers that split one target
    several times decompose it once and pass the result around.

    a                 the decomposed matrix (the array itself, not a copy)
    ginv              the group inverse (the ordinary inverse when index == 0)
    index             0 for nonsingular input, 1 otherwise
    change_basis      the invertible matrix Q of range/null basis columns
    change_basis_inv  its inverse Q^-1
    rank              r, the number of range columns leading Q
    """

    a: np.ndarray
    ginv: np.ndarray
    index: int
    change_basis: np.ndarray
    change_basis_inv: np.ndarray
    rank: int

    def proper_ginv(self, m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Group inverse of a matrix m with the range and null space of A.

        In the basis Q such an m is P = Q^-1 m Q = diag(P1, 0) with P1
        nonsingular, and m# = Q diag(P1^-1, 0) Q^-1.  Raises
        NotProperSplittingError when P[r:, :r] or P[:, r:] exceeds
        subspace_tol relative to ||P||, or when P1 has rank below r.  An m
        with entries above 2^512 is handled as 2^-s m, using
        m# = 2^-s (2^-s m)#, so that P cannot overflow.
        """
        mm = as_square(m)
        if mm.shape != self.ginv.shape:
            raise ValueError(f"shape mismatch: {self.ginv.shape} vs {mm.shape}")
        q, q_inv, r = self.change_basis, self.change_basis_inv, self.rank
        scaled, shift = _downscaled(mm)
        p = q_inv @ scaled @ q
        whole = np.linalg.norm(p)
        off = max(np.linalg.norm(p[r:, :r]), np.linalg.norm(p[:, r:]))
        if off > tol.subspace_tol * whole:
            raise NotProperSplittingError(
                f"R(A) or N(A) not preserved (off-diagonal part {off / whole:.1e})"
            )
        if rank(p[:r, :r], tol) < r:
            raise NotProperSplittingError("the matrix has lower rank than A")
        m_ginv = q[:, :r] @ inverse(p[:r, :r]) @ q_inv[:r]
        return np.ldexp(m_ginv, -shift) if shift else m_ginv


@dataclass(frozen=True)
class AxiomResiduals:
    """Relative residuals of the three group-inverse axioms."""

    axa: float
    xax: float
    commutator: float

    def max(self) -> float:
        return max(self.axa, self.xax, self.commutator)


def matrix_index(a, tol: Tolerances = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1)); a^0 is the identity.

    Powers are renormalised between multiplications so that only their
    rank matters, never their scale.
    """
    m = as_square(a)
    n = m.shape[0]
    previous = n  # rank of a^0
    power = np.eye(n)
    for k in range(n + 1):
        power = power @ m
        norm = np.linalg.norm(power)
        if norm > 0:
            power = power / norm
        current = rank(power, tol)
        if current == previous:
            return k
        previous = current
    return n


def group_inverse(a, tol: Tolerances = DEFAULT_TOL) -> GroupInverseResult:
    """Group inverse of an index-one matrix.

    Nonsingular input is accepted and yields the ordinary inverse with
    index 0, so downstream code handles both cases through one path.
    The range and null bases come from one SVD of a; a has index one
    exactly when they assemble to a nonsingular Q, so NotIndexOneError is
    raised when Q is numerically singular.  A matrix with entries above
    2^512 is decomposed as 2^-s A, using (2^-s A)# = 2^s A#; the scaling
    is exact and leaves the bases unchanged.
    """
    m = as_square(a)
    scaled, shift = _downscaled(m)
    range_b, null_b = range_null_bases(scaled, tol)
    q = np.hstack([range_b, null_b])
    sv = singular_values(q)
    if sv[-1] < 1e-13 * sv[0]:
        raise NotIndexOneError("the matrix is not of index 1")
    q_inv = inverse(q)
    r = range_b.shape[1]
    ginv = range_b @ inverse(q_inv[:r] @ scaled @ range_b) @ q_inv[:r]
    return GroupInverseResult(
        a=m,
        ginv=np.ldexp(ginv, -shift) if shift else ginv,
        index=0 if r == m.shape[0] else 1,
        change_basis=q,
        change_basis_inv=q_inv,
        rank=r,
    )


def verify_group_axioms(a, x) -> AxiomResiduals:
    """Residuals of AXA = A, XAX = X and AX = XA for a candidate inverse."""
    m = as_square(a)
    xm = as_square(x)
    if m.shape != xm.shape:
        raise ValueError(f"shape mismatch: {m.shape} vs {xm.shape}")
    ax = m @ xm
    xa = xm @ m
    return AxiomResiduals(
        axa=rel_residual(ax @ m - m, m),
        xax=rel_residual(xa @ xm - xm, xm),
        commutator=rel_residual(ax - xa, ax),
    )


def is_ep(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the ranges of a and its transpose coincide (a is EP).

    R(a^T) is the orthogonal complement of N(a), so a is EP exactly when
    R^T N = 0 for the range and null bases R, N of one SVD (Campbell and
    Meyer, 1979).  The test is ||R^T N||_2 < subspace_tol; for square a
    this norm is the spectral distance between the orthogonal projectors
    onto R(a) and R(a^T).  Nonsingular and zero matrices leave R^T N
    empty, with norm 0.

    For EP matrices the group inverse and the Moore-Penrose inverse are
    the same matrix, and the fixed point of a convergent scheme is the
    minimum-norm least-squares solution.
    """
    range_b, null_b = range_null_bases(as_square(a), tol)
    return float(np.linalg.norm(range_b.T @ null_b, 2)) < tol.subspace_tol
