"""Executable hypothesis/conclusion checkers for the comparison results, the
splitting a three-step scheme induces, and commuting preconditioners.

Each checker evaluates its hypotheses and its spectral-radius conclusion
independently: a failed hypothesis never aborts the conclusion, it is
reported alongside it, so counterexample data can be examined with the
same code path as the supported cases.  So a product read only for its
sign (s1.U# - s2.U#, A# Q^-1, Q K_q# - K#) is formed with overflow ignored;
every other overflow raises NumericFailureError.  A checker decides every
hypothesis at its splittings' ``target.tol``, and a class hypothesis reads
the violation the splitting's classes were read from, so the two agree.
A report stores the two radii its checker measured, each a ``Scheme.rho``,
and ``slack`` (refval_tol); ``conclusion_holds`` is derived on each read.
The preconditioner functions read A, A# and the tolerances from A's one
decomposition: a GroupInverseResult, or a splitting's target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alternating import Scheme, iteration_matrix
from .errors import (
    CrossCheckError,
    HypothesisViolationError,
    NotProperSplittingError,
    SingularMatrixError,
)
from .ginverse import GroupInverseResult, group_inverse
from .kernel import (
    Tolerances,
    _quiet_product,
    as_square,
    inverse,
    is_nonneg,
    neg_violation,
    rel_residual,
    within_nonneg_tol,
)
from .splittings import Splitting, make_splitting


@dataclass(frozen=True)
class HypothesisCheck:
    """One named hypothesis with its violation magnitude (0 when satisfied)."""

    name: str
    satisfied: bool
    residual: float


@dataclass(frozen=True)
class ComparisonReport:
    """Hypotheses, two ``Scheme.rho`` radii and the slack; conclusion_holds is derived."""

    hypotheses: tuple[HypothesisCheck, ...]
    conclusion_lhs: float
    conclusion_rhs: float
    slack: float

    @property
    def conclusion_holds(self) -> bool:
        return bool(self.conclusion_lhs <= self.conclusion_rhs + self.slack)

    @property
    def hypotheses_hold(self) -> bool:
        return all(h.satisfied for h in self.hypotheses)


def _check_sign(name: str, violation: float, tol: Tolerances) -> HypothesisCheck:
    return HypothesisCheck(name, within_nonneg_tol(violation, tol), violation)


def compare_splittings(s1: Splitting, s2: Splitting) -> ComparisonReport:
    """Rate two splittings of one group-monotone matrix against each other.

    Hypotheses: s1 G-weak regular, s2 G-regular, the common matrix group
    monotone, and the first inverse dominating the second entrywise
    (s1.U# >= s2.U#).  Supported conclusion: rho(s1 factor) <= rho(s2
    factor) < 1.
    """
    if not s1.same_target(s2):
        raise ValueError("both splittings must split the same matrix")
    a_ginv, tol = s1.target.ginv, s1.target.tol
    with np.errstate(over="ignore"):  # read only for its sign
        dominance = neg_violation(s1.u_ginv - s2.u_ginv)
    hypotheses = (
        _check_sign("first splitting G-weak regular", s1.weak_violation, tol),
        _check_sign("second splitting G-regular", s2.regular_violation, tol),
        _check_sign("matrix group monotone", neg_violation(a_ginv), tol),
        _check_sign("first inverse dominates second", dominance, tol),
    )
    return ComparisonReport(hypotheses, Scheme((s1,)).rho, Scheme((s2,)).rho, tol.refval_tol)


def _three_step_hypotheses(
    s: Scheme, cls: str
) -> tuple[tuple[HypothesisCheck, ...], np.ndarray | NotProperSplittingError]:
    """The five hypotheses of the three-step theorems, each splitting at class cls
    ("G-regular" or "G-weak regular"), and M# for M = K + X - A + Y U# L, or the
    NotProperSplittingError that says why M does not keep R(A) and N(A)."""
    first, middle, last = s.splittings
    target, tol, weak = first.target, first.target.tol, cls == "G-weak regular"
    m = _quiet_product(
        lambda: first.u + last.u - first.a + last.v @ middle.u_ginv @ first.v,
        "M = K + X - A + Y U# L",
    )
    try:
        m_ginv = target.proper_ginv(m)
    except NotProperSplittingError as exc:
        m_ginv = exc
    proper = not isinstance(m_ginv, NotProperSplittingError)
    hypotheses = tuple(
        _check_sign(f"{place} splitting {cls}", violation, tol)
        for place, violation in zip(
            ("first", "middle", "last"),
            (sp.weak_violation if weak else sp.regular_violation for sp in s.splittings),
        )
    ) + (
        _check_sign("matrix group monotone", neg_violation(target.ginv), tol),
        HypothesisCheck(
            "combined splitting matrix preserves range/null space", proper, 0.0 if proper else 1.0
        ),
    )
    return hypotheses, m_ginv


def three_step_comparison(s: Scheme) -> ComparisonReport:
    """Check that the composite radius undercuts every single-splitting radius.

    Hypotheses: all three splittings G-regular, the target group monotone,
    and K + X - A + Y U# L preserving its range and null space.  The
    conclusion compares rho(H) against the minimum of the three individual
    radii; with failed hypotheses it is still evaluated and reported.
    """
    if s.steps != 3:
        raise ValueError("the three-way comparison needs a three-step scheme")
    hypotheses, _ = _three_step_hypotheses(s, "G-regular")
    single = min(Scheme((sp,)).rho for sp in s.splittings)
    return ComparisonReport(hypotheses, s.rho, single, s.splittings[0].target.tol.refval_tol)


def induced_splitting(s: Scheme) -> Splitting:
    """The unique proper G-weak regular splitting a = B - C with B#C = H.

    Requires a three-step scheme of G-weak regular splittings of a
    group-monotone matrix, with the combination
    M = K + X - A + Y U# L preserving the range and null space of A; one
    HypothesisViolationError lists every hypothesis that fails, with its
    violation, and ends with why M is not proper when it is not.
    B is computed as K M# X and cross-checked against A (I - H)^-1.
    """
    if s.steps != 3:
        raise ValueError("the induced splitting is defined for three-step schemes")
    hypotheses, m_ginv = _three_step_hypotheses(s, "G-weak regular")
    failed = [f"{h.name} (violation {h.residual:.3e})" for h in hypotheses if not h.satisfied]
    if failed:
        cause = m_ginv if isinstance(m_ginv, NotProperSplittingError) else None
        reason = "" if cause is None else f"; M = K + X - A + Y U# L: {cause}"
        raise HypothesisViolationError(
            f"the induced splitting's hypotheses fail: {', '.join(failed)}{reason}"
        ) from cause
    first, _, last = s.splittings
    target, a = first.target, first.a
    b_formula = first.u @ m_ginv @ last.u
    b_limit = a @ inverse(np.eye(a.shape[0]) - iteration_matrix(s))
    gap = rel_residual(b_formula - b_limit, b_formula)
    if gap > target.tol.mat_eq_tol:
        raise CrossCheckError(f"induced-splitting routes disagree: relative gap {gap:.3e}")
    return make_splitting(target, b_formula)


def chain_comparison(s: Scheme) -> tuple[ComparisonReport, ComparisonReport]:
    """Rate s = (X, U, K) against (K, U), then (K, U) against (K); no hypotheses."""
    if s.steps != 3:
        raise ValueError("the chain comparison needs a three-step scheme")
    _, middle, last = s.splittings
    three, two, one = s.rho, Scheme((last, middle)).rho, Scheme((last,)).rho
    slack = last.target.tol.refval_tol
    return ComparisonReport((), three, two, slack), ComparisonReport((), two, one, slack)


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


def _commuting(target: GroupInverseResult, q) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """q as a matrix of A's shape (else ValueError), Q^-1 (SingularMatrixError
    when singular), QA and ||QA - AQ|| relative to ||QA||, for A = target.a."""
    ma, mq = target.a, as_square(q)
    if ma.shape != mq.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mq.shape}")
    try:
        q_inv = inverse(mq)
    except SingularMatrixError as exc:
        raise SingularMatrixError("the preconditioner is singular") from exc
    qa = _quiet_product(lambda: mq @ ma, "QA")
    return mq, q_inv, qa, rel_residual(qa - _quiet_product(lambda: ma @ mq, "AQ"), qa)


def validate_preconditioner(target: GroupInverseResult, q) -> PreconditionerReport:
    """Evaluate how well q commutes with A = target.a and scales its group inverse.

    For exactly commuting nonsingular q, the group inverse of QA equals
    A# Q^-1 = Q^-1 A#; the report carries the residuals of those
    identities and the sign of the scaled inverse.  A# is target.ginv; QA
    is decomposed at target.tol, independently, as the cross-check.
    """
    _, q_inv, qa, commute = _commuting(target, q)
    qa_ginv = group_inverse(qa, target.tol).ginv
    scaled = _quiet_product(lambda: target.ginv @ q_inv, "A# Q^-1")
    commuted = _quiet_product(lambda: q_inv @ target.ginv, "Q^-1 A#")
    return PreconditionerReport(
        commute=commute,
        ginv_identity=rel_residual(qa_ginv - scaled, qa_ginv),
        ginv_commute=rel_residual(scaled - commuted, qa_ginv),
        scaled_nonneg=is_nonneg(scaled, target.tol),
    )


def make_preconditioner(target: GroupInverseResult, q) -> np.ndarray:
    """A user-supplied q as a matrix, checked to be nonsingular and to commute with target.a."""
    mq, _, _, commute = _commuting(target, q)
    if commute > target.tol.mat_eq_tol:
        raise HypothesisViolationError(
            f"preconditioner does not commute with the target (residual {commute:.3e})"
        )
    return mq


def preconditioned_comparison(s_plain: Splitting, q, s_pre: Splitting) -> ComparisonReport:
    """Rate a splitting of QA against a plain splitting of A = s_plain.a.

    Hypotheses: the plain splitting G-weak regular, A group monotone,
    QA = AQ, A# Q^-1 >= 0, the preconditioned splitting actually splitting
    QA and being G-regular, and Q K_q# >= K# entrywise.  Supported
    conclusion: rho(K_q# L_q) <= rho(K# L) < 1.  Both need equal target.tol.
    """
    tol = s_plain.target.tol
    if s_pre.target.tol != tol:
        raise ValueError("both splittings must be decomposed at the same tolerances")
    a_ginv = s_plain.target.ginv
    mq, q_inv, qa, commute = _commuting(s_plain.target, q)
    splits_qa = rel_residual(s_pre.a - qa, qa)
    with np.errstate(over="ignore", invalid="ignore"):  # read only for their signs
        scaled_neg = neg_violation(a_ginv @ q_inv)
        dominance = neg_violation(mq @ s_pre.u_ginv - s_plain.u_ginv)
    hypotheses = (
        _check_sign("plain splitting G-weak regular", s_plain.weak_violation, tol),
        _check_sign("matrix group monotone", neg_violation(a_ginv), tol),
        HypothesisCheck("preconditioner commutes", commute <= tol.mat_eq_tol, commute),
        _check_sign("scaled group inverse nonnegative", scaled_neg, tol),
        HypothesisCheck(
            "preconditioned splitting targets QA",
            splits_qa <= tol.mat_eq_tol,
            splits_qa,
        ),
        _check_sign("preconditioned splitting G-regular", s_pre.regular_violation, tol),
        _check_sign("scaled preconditioned inverse dominates plain inverse", dominance, tol),
    )
    return ComparisonReport(
        hypotheses, Scheme((s_pre,)).rho, Scheme((s_plain,)).rho, tol.refval_tol
    )
