"""The group inverse and its axioms.

The group inverse of a square matrix A is the unique X with
AXA = A, XAX = X and AX = XA.  It exists exactly when A has index one,
i.e. rank(A) = rank(A^2).  It is computed here through a change of basis:
with Q = [basis of R(A) | basis of N(A)], the matrix Q^-1 A Q is block
diagonal with an invertible r-by-r leading block C, and the group inverse
is Q diag(C^-1, 0) Q^-1.  Orthonormal bases keep Q well conditioned.  The
same basis decides whether another matrix keeps the range and null space
of A, and yields its group inverse, without decomposing that matrix.
group_inverse stops at Q and Q^-1; A# itself is formed on its first read,
which the alternating sweeps, needing only each splitting's U#, never make.

The index decision (is Q nonsingular?) and the rank decision on the
leading block of another matrix are the kernel's rank rule at rank_rel,
read from the Frobenius norms of the inverse that is formed anyway; the
kernel's rank decides only the narrow band where those norms cannot.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotIndexOneError, NotProperSplittingError, SingularMatrixError
from .kernel import (
    DEFAULT_TOL,
    _TINY_NORM,
    Tolerances,
    _downscaled,
    _quiet_product,
    as_square,
    inverse,
    range_null_bases,
    rank,
    rel_residual,
)


def _full_rank_inverse(p: np.ndarray, tol: Tolerances, lower_rank: Exception) -> np.ndarray:
    """p^-1 when the square p has full rank at tol; else raises lower_rank.

    Full rank means rank(p, tol) = r, i.e. sigma_min > rank_rel r sigma_max.
    The inverse decides it without an SVD: for r-by-r p, sigma_max lies in
    [||p||_F / sqrt(r), ||p||_F] and sigma_min in [1/||p^-1||_F,
    sqrt(r)/||p^-1||_F] (Golub and Van Loan, Matrix Computations, 2.3), and
    a factor 2 on each side covers rounding in the computed inverse.  The
    kernel's rank of 2^-s p decides only a ratio inside that band, a norm
    that is zero, near underflow or infinite, and an inverse that fails;
    then a full-rank p whose inverse fails raises that SingularMatrixError.
    """
    r = p.shape[0]
    cutoff = tol.rank_rel * r
    try:
        p_inv = inverse(p)
    except SingularMatrixError:
        if rank(p, tol) < r:
            raise lower_rank from None
        raise
    with np.errstate(over="ignore"):
        fp, fi = float(np.linalg.norm(p)), float(np.linalg.norm(p_inv))
    if _TINY_NORM < fp < np.inf and _TINY_NORM < fi < np.inf:
        if 1.0 / fi > 2.0 * cutoff * fp:
            return p_inv
        if r / fi < cutoff * fp / 2.0:
            raise lower_rank
    if rank(p, tol) < r:
        raise lower_rank
    return p_inv


@dataclass(frozen=True)
class GroupInverseResult:
    """Group inverse together with the decomposition that produced it.

    One result serves every splitting of its matrix: make_splitting takes
    it, so a target split several times is decomposed once, and its
    splittings and every checker decide classes and hypotheses at its tol.

    a                 the decomposed matrix (the array itself, not a copy)
    ginv              the group inverse (the ordinary inverse when index == 0),
                      formed on first read
    index             0 for nonsingular input, 1 otherwise (read from rank)
    change_basis      the invertible matrix Q of range/null basis columns
    change_basis_inv  its inverse Q^-1
    rank              r, the number of range columns leading Q
    tol               the tolerances a was decomposed at
    """

    a: np.ndarray
    change_basis: np.ndarray
    change_basis_inv: np.ndarray
    rank: int
    tol: Tolerances

    @property
    def index(self) -> int:
        return 0 if self.rank == self.a.shape[0] else 1

    @functools.cached_property
    def conditioning(self) -> float:
        """max(1, kappa/n) for kappa = ||Q||_F ||Q^-1||_F, computed on first read.

        kappa >= n, with equality for an orthonormal Q, as every EP matrix
        has; the rounding in products through Q and Q^-1 grows by about
        this factor over an EP matrix's.  The frozen dataclass has no
        __slots__, so the value is cached in the instance's __dict__.
        """
        q = self.change_basis
        return max(1.0, float(np.linalg.norm(q) * np.linalg.norm(self.change_basis_inv)) / len(q))

    @functools.cached_property
    def ginv(self) -> np.ndarray:
        """A# = R C^-1 Q^-1[:r] for C = Q^-1[:r] A R and R = Q[:, :r], formed on first read.

        Reading it raises NumericFailureError when A# overflows, and
        SingularMatrixError when C cannot be inverted.  An A with entries
        above 2^512 is handled as 2^-s A, using A# = 2^-s (2^-s A)#.
        """
        q, q_inv, r = self.change_basis, self.change_basis_inv, self.rank
        scaled, shift = _downscaled(self.a)
        ginv = _quiet_product(
            lambda: q[:, :r] @ inverse(q_inv[:r] @ scaled @ q[:, :r]) @ q_inv[:r], "A#")
        return np.ldexp(ginv, -shift) if shift else ginv

    def proper_ginv(self, m) -> np.ndarray:
        """Group inverse of a matrix m with the range and null space of A.

        In the basis Q such an m is P = Q^-1 m Q = diag(P1, 0) with P1
        nonsingular, and m# = Q diag(P1^-1, 0) Q^-1.  Raises
        NotProperSplittingError when rel_residual(P[r:, :r], P) or
        rel_residual(P[:, r:], P) exceeds the properness bound, or when P1
        has rank below r (both at self.tol), decided by _full_rank_inverse.
        The bound is mat_eq_tol times the conditioning of Q, which the
        rounding in P grows with, capped at 1/sqrt(mat_eq_tol).  An
        off-diagonal part is at most 1, so an uncapped bound would accept
        every m once Q is ill-conditioned enough; the capped one stays at or
        below sqrt(mat_eq_tol), midway in orders of magnitude between
        mat_eq_tol and 1.  An m with entries above 2^512 is handled as
        2^-s m, using m# = 2^-s (2^-s m)#, so that P cannot overflow.
        """
        mm = as_square(m)
        if mm.shape != self.a.shape:
            raise ValueError(f"shape mismatch: {self.a.shape} vs {mm.shape}")
        q, q_inv, r = self.change_basis, self.change_basis_inv, self.rank
        scaled, shift = _downscaled(mm)
        p = q_inv @ scaled @ q
        off = max(rel_residual(p[r:, :r], p), rel_residual(p[:, r:], p))
        eq_tol = self.tol.mat_eq_tol
        if off > eq_tol * min(self.conditioning, 1.0 / np.sqrt(eq_tol)):
            raise NotProperSplittingError(
                f"R(A) or N(A) not preserved (off-diagonal part {off:.1e})"
            )
        lower = NotProperSplittingError("the matrix has lower rank than A")
        # inline, so that P1^-1 is freed after the first product (peak memory)
        m_ginv = _quiet_product(
            lambda: q[:, :r] @ _full_rank_inverse(p[:r, :r], self.tol, lower) @ q_inv[:r], "m#")
        return np.ldexp(m_ginv, -shift) if shift else m_ginv


@dataclass(frozen=True)
class AxiomResiduals:
    """Relative residuals of the three group-inverse axioms."""

    axa: float
    xax: float
    commutator: float

    def max(self) -> float:
        return max(self.axa, self.xax, self.commutator)


def group_inverse(a, tol: Tolerances = DEFAULT_TOL) -> GroupInverseResult:
    """Group inverse of an index-one matrix.

    Nonsingular input is accepted and yields the ordinary inverse with
    index 0, so downstream code handles both cases through one path.
    The range and null bases come from one SVD of a; a has index one
    exactly when they assemble to a nonsingular Q, so NotIndexOneError is
    raised when rank(Q, tol) < n: the rule every rank decision uses, which
    the norms of Q and of its inverse decide outside a narrow band.
    A matrix with entries above 2^512 is decomposed as 2^-s A, using
    (2^-s A)# = 2^s A#; the scaling is exact and leaves the bases
    unchanged.  The result keeps ``tol``.  It returns once Q^-1 is formed:
    A# is formed on the first read of the result's ``ginv``, which raises
    any failure of that product.
    """
    m = as_square(a)
    if m.size == 0:
        raise ValueError("the matrix is empty")
    range_b, null_b = range_null_bases(m, tol)
    q = np.hstack([range_b, null_b])
    not_index_one = NotIndexOneError("the matrix is not of index 1")
    q_inv = _full_rank_inverse(q, tol, not_index_one)
    return GroupInverseResult(
        a=m, change_basis=q, change_basis_inv=q_inv, rank=range_b.shape[1], tol=tol)


def verify_group_axioms(a, x) -> AxiomResiduals:
    """Residuals of AXA = A, XAX = X and AX = XA for a candidate inverse."""
    m = as_square(a)
    xm = as_square(x)
    if m.shape != xm.shape:
        raise ValueError(f"shape mismatch: {m.shape} vs {xm.shape}")
    ax = _quiet_product(lambda: m @ xm, "AX")
    xa = _quiet_product(lambda: xm @ m, "XA")
    return AxiomResiduals(
        axa=rel_residual(_quiet_product(lambda: ax @ m, "AXA") - m, m),
        xax=rel_residual(_quiet_product(lambda: xa @ xm, "XAX") - xm, xm),
        commutator=rel_residual(ax - xa, ax),
    )
