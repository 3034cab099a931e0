"""Proper splittings of index-one matrices.

A splitting A = U - V is *proper* when U has the same range and null
space as A.  Two subclasses drive all convergence statements here:

* G-regular:       U# >= 0 and V >= 0
* G-weak regular:  U# >= 0 and U#V >= 0

Construction validates the subspace conditions and obtains the group
inverse of U from one decomposition of A (see GroupInverseResult), then
classifies the splitting once; values are immutable afterwards.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .ginverse import GroupInverseResult, group_inverse
from .kernel import (
    DEFAULT_TOL,
    Tolerances,
    as_square,
    inverse,
    is_nonneg,
    rel_residual,
    singular_values,
    solve_square,
)


class SplittingClass(enum.Enum):
    PROPER = "proper"
    G_REGULAR = "G-regular"
    G_WEAK_REGULAR = "G-weak-regular"


@dataclass(frozen=True)
class Splitting:
    """A validated proper splitting a = u - v with cached U# and classes."""

    a: np.ndarray
    u: np.ndarray
    v: np.ndarray
    u_ginv: np.ndarray
    classes: frozenset[SplittingClass]

    @property
    def iteration_factor(self) -> np.ndarray:
        """The single-splitting iteration matrix U#V."""
        return self.u_ginv @ self.v

    def same_target(self, other: "Splitting") -> bool:
        return self.a.shape == other.a.shape and np.array_equal(self.a, other.a)


def _classes_of(u_ginv, v, tol: Tolerances) -> frozenset[SplittingClass]:
    classes = {SplittingClass.PROPER}
    if is_nonneg(u_ginv, tol):
        regular = is_nonneg(v, tol)
        if regular:
            classes.add(SplittingClass.G_REGULAR)
        # regularity implies weak regularity: nonneg times nonneg is nonneg,
        # so the implication must survive rounding of the product
        if regular or is_nonneg(u_ginv @ v, tol):
            classes.add(SplittingClass.G_WEAK_REGULAR)
    return frozenset(classes)


def make_splitting(
    a: np.ndarray | GroupInverseResult, u, tol: Tolerances = DEFAULT_TOL
) -> Splitting:
    """Validate a = u - (u - a) as a proper splitting and classify it.

    ``a`` is the target matrix or its GroupInverseResult.  A matrix is
    decomposed here (NotIndexOneError when it is not of index one); a
    caller splitting one target several times decomposes it once with
    group_inverse and passes the result, which gives the same splittings
    bit for bit.  U# comes from GroupInverseResult.proper_ginv, which
    raises NotProperSplittingError when u does not keep the range and
    null space of a: in the range/null basis of a, u must be block
    diagonal with a nonsingular leading block.
    """
    target = a if isinstance(a, GroupInverseResult) else group_inverse(a, tol)
    u = as_square(u)
    u_ginv = target.proper_ginv(u, tol)
    v = u - target.a
    return Splitting(
        a=target.a, u=u, v=v, u_ginv=u_ginv, classes=_classes_of(u_ginv, v, tol)
    )


@dataclass(frozen=True)
class SplittingIdentities:
    """Residuals of the identities every proper splitting satisfies.

    projector_left / projector_right:   AA# = UU#  and  A#A = U#U
    factor_left / factor_right:         A = U(I - U#V) = (I - VU#)U
    sigma_min_left / sigma_min_right:   smallest singular values of
                                        I - U#V and I - VU# (nonsingularity)
    ginv_left / ginv_right:             A# = (I - U#V)^-1 U# = U#(I - VU#)^-1
    """

    projector_left: float
    projector_right: float
    factor_left: float
    factor_right: float
    sigma_min_left: float
    sigma_min_right: float
    ginv_left: float
    ginv_right: float

    def max_residual(self) -> float:
        return max(
            self.projector_left,
            self.projector_right,
            self.factor_left,
            self.factor_right,
            self.ginv_left,
            self.ginv_right,
        )


def splitting_identity_residuals(
    s: Splitting, tol: Tolerances = DEFAULT_TOL
) -> SplittingIdentities:
    """Evaluate the exact proper-splitting identities on a splitting."""
    a, u, v, ug = s.a, s.u, s.v, s.u_ginv
    n = a.shape[0]
    ag = group_inverse(a, tol).ginv
    eye = np.eye(n)
    left = eye - ug @ v
    right = eye - v @ ug
    return SplittingIdentities(
        projector_left=rel_residual(a @ ag - u @ ug, a @ ag),
        projector_right=rel_residual(ag @ a - ug @ u, ag @ a),
        factor_left=rel_residual(a - u @ left, a),
        factor_right=rel_residual(a - right @ u, a),
        sigma_min_left=float(singular_values(left)[-1]),
        sigma_min_right=float(singular_values(right)[-1]),
        ginv_left=rel_residual(ag - solve_square(left, ug), ag),
        ginv_right=rel_residual(ag - ug @ inverse(right), ag),
    )
