"""Proper splittings of index-one matrices.

A splitting A = U - V is *proper* when U has the same range and null
space as A.  Two subclasses drive all convergence statements here:

* G-regular:       U# >= 0 and V >= 0
* G-weak regular:  U# >= 0 and U#V >= 0

Construction validates the subspace conditions and obtains the group
inverse of U from one decomposition of A (see GroupInverseResult), then
measures two violations that the classes and every checker's sign
hypotheses read at its tol (see Splitting).  The splitting keeps that
decomposition as its ``target``, so checkers read A# and tol from it;
values are immutable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .ginverse import GroupInverseResult
from .kernel import (
    _quiet_product,
    as_square,
    inverse,
    neg_violation,
    rel_residual,
    singular_values,
    solve_square,
    within_nonneg_tol,
)


class SplittingClass(enum.Enum):
    PROPER = "proper"
    G_REGULAR = "G-regular"
    G_WEAK_REGULAR = "G-weak-regular"


@dataclass(frozen=True)
class Splitting:
    """A validated proper splitting a = u - v with its target, U# and violations.

    With neg = neg_violation, regular_violation = max(neg U#, neg V) and weak_violation =
    max(neg U#, min(neg V, neg U#V)) <= regular_violation; neither holds a tolerance.
    classes are decided from them at target.tol on each read; same_target needs equal tol.
    """

    target: GroupInverseResult
    u: np.ndarray
    v: np.ndarray
    u_ginv: np.ndarray
    regular_violation: float
    weak_violation: float

    @property
    def classes(self) -> frozenset[SplittingClass]:
        classes = {SplittingClass.PROPER}
        if within_nonneg_tol(self.regular_violation, self.target.tol):
            classes.add(SplittingClass.G_REGULAR)
        if within_nonneg_tol(self.weak_violation, self.target.tol):
            classes.add(SplittingClass.G_WEAK_REGULAR)
        return frozenset(classes)

    @property
    def a(self) -> np.ndarray:
        return self.target.a

    def same_target(self, other: "Splitting") -> bool:
        mine, theirs = self.target, other.target
        return mine is theirs or (mine.tol == theirs.tol and np.array_equal(mine.a, theirs.a))


def _violations(u_ginv, v) -> tuple[float, float]:
    """(regular, weak) violations; U#V is formed only when V has a negative entry."""
    neg_ug, neg_v = neg_violation(u_ginv), neg_violation(v)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing U#V, formed quietly
        weak_v = neg_v if neg_v == 0.0 else float(np.minimum(neg_v, neg_violation(u_ginv @ v)))
    return float(np.maximum(neg_ug, neg_v)), float(np.maximum(neg_ug, weak_v))


def make_splitting(target: GroupInverseResult, u) -> Splitting:
    """Validate a = u - (u - a) as a proper splitting of target.a and measure its violations.

    ``target`` is group_inverse(a, tol), kept as the splitting's target; its
    tol decides the classes, and the splittings of one result share it.
    U# comes from proper_ginv, which raises NotProperSplittingError when u
    does not keep the range and null space of a: in the range/null basis
    of a, u must be block diagonal with a nonsingular leading block.
    """
    u = as_square(u)
    u_ginv = target.proper_ginv(u)
    v = u - target.a
    return Splitting(target, u, v, u_ginv, *_violations(u_ginv, v))


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


def splitting_identity_residuals(s: Splitting) -> SplittingIdentities:
    """Evaluate the exact proper-splitting identities; A# is read from s.target."""
    a, u, v, ug, ag = s.a, s.u, s.v, s.u_ginv, s.target.ginv
    n = a.shape[0]
    eye = np.eye(n)
    left = _quiet_product(lambda: eye - ug @ v, "I - U#V")
    right = _quiet_product(lambda: eye - v @ ug, "I - VU#")
    right_ginv = _quiet_product(lambda: ug @ inverse(right), "U#(I - VU#)^-1")
    return SplittingIdentities(
        projector_left=rel_residual(a @ ag - u @ ug, a @ ag),
        projector_right=rel_residual(ag @ a - ug @ u, ag @ a),
        factor_left=rel_residual(a - u @ left, a),
        factor_right=rel_residual(a - right @ u, a),
        sigma_min_left=float(singular_values(left)[-1]),
        sigma_min_right=float(singular_values(right)[-1]),
        ginv_left=rel_residual(ag - solve_square(left, ug), ag),
        ginv_right=rel_residual(ag - right_ginv, ag),
    )
