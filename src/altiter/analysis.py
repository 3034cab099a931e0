"""Executable hypothesis/conclusion checkers for the comparison results,
plus construction and validation of commuting preconditioners.

Each checker evaluates its hypotheses and its spectral-radius conclusion
independently: a failed hypothesis never aborts the conclusion, it is
reported alongside it, so counterexample data can be examined with the
same code path as the supported cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alternating import Scheme
from .errors import HypothesisViolationError, NotProperSplittingError, UnsupportedSignError
from .ginverse import group_inverse
from .kernel import (
    DEFAULT_TOL,
    Tolerances,
    as_square,
    inverse,
    is_nonneg,
    neg_violation,
    rel_residual,
    spectral_radius,
)
from .splittings import Splitting


@dataclass(frozen=True)
class HypothesisCheck:
    """One named hypothesis with its violation magnitude (0 when satisfied)."""

    name: str
    satisfied: bool
    residual: float


@dataclass(frozen=True)
class ComparisonReport:
    """Hypotheses plus the spectral-radius ordering they support."""

    hypotheses: tuple[HypothesisCheck, ...]
    conclusion_lhs: float
    conclusion_rhs: float
    conclusion_holds: bool

    @property
    def hypotheses_hold(self) -> bool:
        return all(h.satisfied for h in self.hypotheses)


def _check_nonneg(name: str, m, tol: Tolerances) -> HypothesisCheck:
    violation = neg_violation(m)
    return HypothesisCheck(name, violation <= tol.nonneg_tol, violation)


def _check_weak_regular(name: str, s: Splitting, tol: Tolerances) -> HypothesisCheck:
    violation = max(neg_violation(s.u_ginv), neg_violation(s.iteration_factor))
    return HypothesisCheck(name, violation <= tol.nonneg_tol, violation)


def _check_regular(name: str, s: Splitting, tol: Tolerances) -> HypothesisCheck:
    violation = max(neg_violation(s.u_ginv), neg_violation(s.v))
    return HypothesisCheck(name, violation <= tol.nonneg_tol, violation)


def _conclusion(lhs: float, rhs: float, tol: Tolerances):
    return lhs, rhs, bool(lhs <= rhs + tol.refval_tol)


def compare_splittings(
    s1: Splitting, s2: Splitting, tol: Tolerances = DEFAULT_TOL
) -> ComparisonReport:
    """Rate two splittings of one group-monotone matrix against each other.

    Hypotheses: s1 G-weak regular, s2 G-regular, the common matrix group
    monotone, and the first inverse dominating the second entrywise
    (s1.U# >= s2.U#).  Supported conclusion: rho(s1 factor) <= rho(s2
    factor) < 1.
    """
    if not s1.same_target(s2):
        raise ValueError("both splittings must split the same matrix")
    a_ginv = group_inverse(s1.a, tol).ginv
    hypotheses = (
        _check_weak_regular("first splitting G-weak regular", s1, tol),
        _check_regular("second splitting G-regular", s2, tol),
        _check_nonneg("matrix group monotone", a_ginv, tol),
        _check_nonneg("first inverse dominates second", s1.u_ginv - s2.u_ginv, tol),
    )
    lhs, rhs, holds = _conclusion(
        spectral_radius(s1.iteration_factor),
        spectral_radius(s2.iteration_factor),
        tol,
    )
    return ComparisonReport(hypotheses, lhs, rhs, holds)


def three_step_comparison(s: Scheme, tol: Tolerances = DEFAULT_TOL) -> ComparisonReport:
    """Check that the composite radius undercuts every single-splitting radius.

    Hypotheses: all three splittings G-regular, the target group monotone,
    and K + X - A + Y U# L preserving its range and null space.  The
    conclusion compares rho(H) against the minimum of the three individual
    radii; with failed hypotheses it is still evaluated and reported.
    """
    if s.steps != 3:
        raise ValueError("the three-way comparison needs a three-step scheme")
    first, middle, last = s.splittings
    target = group_inverse(s.a, tol)
    m = first.u + last.u - s.a + last.v @ middle.u_ginv @ first.v
    try:
        target.proper_ginv(m, tol)
        preserved = True
    except NotProperSplittingError:
        preserved = False
    hypotheses = (
        _check_regular("first splitting G-regular", first, tol),
        _check_regular("middle splitting G-regular", middle, tol),
        _check_regular("last splitting G-regular", last, tol),
        _check_nonneg("matrix group monotone", target.ginv, tol),
        HypothesisCheck(
            "combined splitting matrix preserves range/null space",
            preserved,
            0.0 if preserved else 1.0,
        ),
    )
    singles = [spectral_radius(sp.iteration_factor) for sp in s.splittings]
    lhs, rhs, holds = _conclusion(s.rho, min(singles), tol)
    return ComparisonReport(hypotheses, lhs, rhs, holds)


@dataclass(frozen=True)
class PreconditionerReport:
    """Residuals of the commuting-preconditioner identities.

    commute         ||QA - AQ|| relative to ||QA||
    ginv_identity   ||(QA)# - A# Q^-1|| relative to ||(QA)#||
    ginv_commute    ||A# Q^-1 - Q^-1 A#|| relative to ||(QA)#||
    scaled_nonneg   whether A# Q^-1 (= the group inverse of QA) is >= 0
    """

    commute: float
    ginv_identity: float
    ginv_commute: float
    scaled_nonneg: bool

    def max_residual(self) -> float:
        return max(self.commute, self.ginv_identity, self.ginv_commute)


def validate_preconditioner(a, q, tol: Tolerances = DEFAULT_TOL) -> PreconditionerReport:
    """Evaluate how well q commutes with a and scales its group inverse.

    For exactly commuting nonsingular q, the group inverse of QA equals
    A# Q^-1 = Q^-1 A#; the report carries the residuals of those
    identities and the sign of the scaled inverse.
    """
    ma, mq = as_square(a), as_square(q)
    if ma.shape != mq.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mq.shape}")
    q_inv = inverse(mq)
    qa = mq @ ma
    a_ginv = group_inverse(ma, tol).ginv
    qa_ginv = group_inverse(qa, tol).ginv
    scaled = a_ginv @ q_inv
    return PreconditionerReport(
        commute=rel_residual(qa - ma @ mq, qa),
        ginv_identity=rel_residual(qa_ginv - scaled, qa_ginv),
        ginv_commute=rel_residual(scaled - q_inv @ a_ginv, qa_ginv),
        scaled_nonneg=is_nonneg(scaled, tol),
    )


def make_preconditioner(a, q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A user-supplied q as a matrix, checked to be nonsingular and to commute with a."""
    ma, mq = as_square(a), as_square(q)
    if ma.shape != mq.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mq.shape}")
    inverse(mq)  # raises SingularMatrixError when q is singular
    commute = rel_residual(mq @ ma - ma @ mq, mq @ ma)
    if commute > tol.mat_eq_tol:
        raise HypothesisViolationError(
            f"preconditioner does not commute with the target (residual {commute:.3e})"
        )
    return mq


def build_scalar_preconditioner(
    a, c: float, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Scalar preconditioner c I (sign chosen from the group inverse).

    Returns c I when the group inverse is entrywise nonnegative and -c I
    when it is entrywise nonpositive, so the scaled inverse is always
    nonnegative.  A mixed-sign group inverse admits no scalar choice and
    raises UnsupportedSignError.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    ma = as_square(a)
    a_ginv = group_inverse(ma, tol).ginv
    if is_nonneg(a_ginv, tol):
        sign = 1.0
    elif is_nonneg(-a_ginv, tol):
        sign = -1.0
    else:
        raise UnsupportedSignError(
            "the group inverse has mixed signs; no scalar preconditioner applies"
        )
    n = ma.shape[0]
    return sign * c * np.eye(n)


def preconditioned_comparison(
    a,
    s_plain: Splitting,
    q,
    s_pre: Splitting,
    tol: Tolerances = DEFAULT_TOL,
) -> ComparisonReport:
    """Rate a splitting of QA against a plain splitting of A.

    Hypotheses: the plain splitting G-weak regular, A group monotone,
    QA = AQ, A# Q^-1 >= 0, the preconditioned splitting actually splitting
    QA and being G-regular, and Q K_q# >= K# entrywise.  Supported
    conclusion: rho(K_q# L_q) <= rho(K# L) < 1.
    """
    ma, mq = as_square(a), as_square(q)
    a_ginv = group_inverse(ma, tol).ginv
    q_inv = inverse(mq)
    qa = mq @ ma
    commute = rel_residual(qa - ma @ mq, qa)
    splits_qa = rel_residual(s_pre.a - qa, qa)
    hypotheses = (
        _check_weak_regular("plain splitting G-weak regular", s_plain, tol),
        _check_nonneg("matrix group monotone", a_ginv, tol),
        HypothesisCheck("preconditioner commutes", commute <= tol.mat_eq_tol, commute),
        _check_nonneg("scaled group inverse nonnegative", a_ginv @ q_inv, tol),
        HypothesisCheck(
            "preconditioned splitting targets QA",
            splits_qa <= tol.mat_eq_tol,
            splits_qa,
        ),
        _check_regular("preconditioned splitting G-regular", s_pre, tol),
        _check_nonneg(
            "scaled preconditioned inverse dominates plain inverse",
            mq @ s_pre.u_ginv - s_plain.u_ginv,
            tol,
        ),
    )
    lhs, rhs, holds = _conclusion(
        spectral_radius(s_pre.iteration_factor),
        spectral_radius(s_plain.iteration_factor),
        tol,
    )
    return ComparisonReport(hypotheses, lhs, rhs, holds)
