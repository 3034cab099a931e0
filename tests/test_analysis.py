import numpy as np
import pytest

from altiter.alternating import (
    Scheme,
    iterate,
    random_g_regular_splitting,
    random_group_monotone,
)
from altiter.analysis import (
    build_scalar_preconditioner,
    compare_splittings,
    make_preconditioner,
    preconditioned_comparison,
    three_step_comparison,
    validate_preconditioner,
)
from altiter.errors import (
    HypothesisViolationError,
    SingularMatrixError,
    UnsupportedSignError,
)
from altiter.ginverse import group_inverse
from altiter.kernel import is_nonneg
from altiter.splittings import make_splitting


class TestCompareSplittings:
    def test_reflexive_equality(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s = random_g_regular_splitting(inst, rng)
        report = compare_splittings(s, s)
        assert report.conclusion_lhs == report.conclusion_rhs
        assert report.conclusion_holds

    def test_nonsingular_monotone_ordering(self):
        # A = [[2, -1], [-1, 2]] is monotone; the lower-triangular part
        # dominates the diagonal part inverse entrywise, and the radii are
        # 0.25 (triangular factor eigenvalues {0, 1/4}) vs 0.5 (eigenvalues
        # +-1/2 of the off-diagonal factor), both hand-computed.
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        lower = np.array([[2.0, 0.0], [-1.0, 2.0]])
        diagonal = np.diag([2.0, 2.0])
        s_lower = make_splitting(a, lower)
        s_diag = make_splitting(a, diagonal)
        report = compare_splittings(s_lower, s_diag)
        assert report.hypotheses_hold
        assert report.conclusion_lhs == pytest.approx(0.25, abs=1e-12)
        assert report.conclusion_rhs == pytest.approx(0.5, abs=1e-12)
        assert report.conclusion_holds

    def test_mismatched_targets_rejected(self, rng):
        a = random_group_monotone(3, 2, rng)
        b = random_group_monotone(3, 2, rng)
        with pytest.raises(ValueError):
            compare_splittings(make_splitting(a.a, a.a), make_splitting(b.a, b.a))


class TestThreeStepComparison:
    def test_regular_triple_supports_conclusion(self, rng):
        inst = random_group_monotone(5, 3, rng)
        triple = tuple(random_g_regular_splitting(inst, rng) for _ in range(3))
        report = three_step_comparison(Scheme(splittings=triple))
        assert report.hypotheses_hold
        assert report.conclusion_holds
        assert report.conclusion_rhs < 1.0

    def test_vanishing_combined_matrix_fails_hypothesis(self):
        # K + X - A + Y U# L = 3 - 0.5 - 1 + (-1.5)(0.5)(2) = 0
        a = np.diag([1.0, 0.0])
        scheme = Scheme(splittings=tuple(
            make_splitting(a, np.diag([d, 0.0])) for d in (3.0, 2.0, -0.5)
        ))
        report = three_step_comparison(scheme)
        combined = report.hypotheses[-1]
        assert combined.name == "combined splitting matrix preserves range/null space"
        assert not combined.satisfied
        # factors 2/3, 1/2 and 3 compose to H = diag(1, 0)
        assert report.conclusion_lhs == pytest.approx(1.0, abs=1e-12)
        assert report.conclusion_rhs == pytest.approx(0.5, abs=1e-12)
        assert not report.conclusion_holds

    def test_needs_three_steps(self, rng):
        inst = random_group_monotone(4, 2, rng)
        s = random_g_regular_splitting(inst, rng)
        with pytest.raises(ValueError):
            three_step_comparison(Scheme(splittings=(s, s)))


class TestScalarPreconditioner:
    def test_nonnegative_inverse_gets_positive_scalar(self, rng):
        inst = random_group_monotone(4, 3, rng)
        pre = build_scalar_preconditioner(inst.a, 1.0)
        np.testing.assert_allclose(pre, np.eye(4))

    def test_nonpositive_inverse_gets_negative_scalar(self, rng):
        inst = random_group_monotone(4, 3, rng)
        pre = build_scalar_preconditioner(-inst.a, 2.0)
        np.testing.assert_allclose(pre, -2.0 * np.eye(4))
        # the preconditioned matrix has a nonnegative group inverse
        qa = pre @ (-inst.a)
        assert is_nonneg(group_inverse(qa).ginv)

    def test_mixed_sign_rejected(self):
        a = np.diag([-1.0, 1.0, 0.0])
        with pytest.raises(UnsupportedSignError):
            build_scalar_preconditioner(a, 1.0)

    def test_scalar_always_validates(self, rng):
        inst = random_group_monotone(4, 3, rng)
        pre = build_scalar_preconditioner(inst.a, 3.0)
        report = validate_preconditioner(inst.a, pre)
        assert report.commute == 0.0
        assert report.max_residual() < 1e-9
        assert report.scaled_nonneg


class TestValidatePreconditioner:
    def test_identity_preconditioner(self, rng):
        inst = random_group_monotone(4, 3, rng)
        report = validate_preconditioner(inst.a, np.eye(4))
        assert report.max_residual() < 1e-10
        assert report.scaled_nonneg == is_nonneg(inst.a_ginv)

    def test_singular_preconditioner_rejected(self, rng):
        inst = random_group_monotone(3, 2, rng)
        with pytest.raises(SingularMatrixError):
            validate_preconditioner(inst.a, np.zeros((3, 3)))


class TestMakePreconditioner:
    def test_non_commuting_rejected(self, rng):
        inst = random_group_monotone(3, 2, rng)
        q = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
        with pytest.raises(HypothesisViolationError):
            make_preconditioner(inst.a, q)

    def test_scaled_identity_accepted_and_used_by_solver(self, rng):
        inst = random_group_monotone(4, 3, rng)
        pre = make_preconditioner(inst.a, 2.0 * np.eye(4))
        qa = pre @ inst.a
        s = make_splitting(qa, qa)
        b = rng.uniform(-1, 1, 4)
        trace = iterate(Scheme(splittings=(s,), preconditioner=pre), b)
        assert trace.converged
        np.testing.assert_allclose(trace.x_final, inst.a_ginv @ b, atol=1e-8)


class TestPreconditionedComparison:
    def test_scaling_gives_equality(self, rng):
        # Q = 2 I scales the splitting without moving any spectral radius,
        # so the comparison holds with equal sides.
        inst = random_group_monotone(4, 3, rng)
        s_plain = random_g_regular_splitting(inst, rng)
        q = 2.0 * np.eye(4)
        s_pre = make_splitting(q @ inst.a, 2.0 * s_plain.u)
        report = preconditioned_comparison(inst.a, s_plain, q, s_pre)
        assert report.hypotheses_hold
        assert report.conclusion_lhs == pytest.approx(report.conclusion_rhs, abs=1e-10)
        assert report.conclusion_holds
