import numpy as np
import pytest

from altiter.alternating import (
    GroupMonotoneInstance,
    random_g_weak_splitting,
    random_group_monotone,
)
from altiter.errors import (
    AttemptsExhaustedError,
    NotProperSplittingError,
    NumericFailureError,
)
from altiter.ginverse import group_inverse
from altiter.kernel import is_nonneg, spectral_radius
from altiter.splittings import (
    SplittingClass,
    make_splitting,
    splitting_identity_residuals,
)
from conftest import proper_pair


class TestMakeSplitting:
    def test_trivial_splitting_has_zero_remainder(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(inst.a, inst.a)
        np.testing.assert_allclose(s.v, 0.0, atol=0.0)
        assert SplittingClass.PROPER in s.classes
        # remainder zero and group inverse nonnegative: regular and weak regular
        assert SplittingClass.G_REGULAR in s.classes
        assert SplittingClass.G_WEAK_REGULAR in s.classes

    def test_rejects_range_mismatch(self):
        # the second U keeps the null space of A but loses rank on its range
        for a, u in (
            (np.diag([1.0, 0.0]), np.eye(2)),
            (np.diag([1.0, 2.0, 0.0]), np.diag([1.0, 0.0, 0.0])),
        ):
            with pytest.raises(NotProperSplittingError):
                make_splitting(a, u)

    def test_rejects_null_mismatch(self):
        a = np.diag([1.0, 0.0, 2.0])
        u = a.copy()
        u[0, 1] = 1.0  # range unchanged, null space tilted
        with pytest.raises(NotProperSplittingError):
            make_splitting(a, u)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_splitting(np.eye(2), np.eye(3))

    def test_random_proper_pair_validates(self, rng):
        for _ in range(10):
            a, u = proper_pair(5, 3, rng)
            s = make_splitting(a, u)
            np.testing.assert_allclose(s.u - s.v, s.a, atol=1e-12)
            np.testing.assert_allclose(s.u_ginv, group_inverse(u).ginv, atol=1e-10)

    def test_decomposition_in_place_of_matrix(self, rng):
        for _ in range(10):
            a, u = proper_pair(6, 4, rng)
            target = group_inverse(a)
            from_matrix, from_target = make_splitting(a, u), make_splitting(target, u)
            assert from_target.a is target.a
            for field in ("a", "u", "v", "u_ginv"):
                assert np.array_equal(getattr(from_matrix, field), getattr(from_target, field))
            assert from_matrix.classes == from_target.classes


class TestClassify:
    def test_regular_implies_weak_regular(self, rng):
        # diagonal M-matrix split: U = diag part, V = off-diagonal remainder
        for _ in range(20):
            inst = random_group_monotone(5, 4, rng)
            diag = np.where(np.eye(5) > 0, np.diag(np.diag(inst.a)), 0.0)
            diag[inst.perm[4], inst.perm[4]] = 0.0
            s = make_splitting(inst.a, diag)
            if SplittingClass.G_REGULAR in s.classes:
                assert SplittingClass.G_WEAK_REGULAR in s.classes

    def test_classify_matches_construction(self, rng):
        a, u = proper_pair(4, 2, rng)
        s = make_splitting(a, u)
        # the classes follow from the signs of U#, V and U#V; G-regular
        # implies G-weak regular
        expected = {SplittingClass.PROPER}
        if is_nonneg(s.u_ginv) and is_nonneg(s.v):
            expected |= {SplittingClass.G_REGULAR, SplittingClass.G_WEAK_REGULAR}
        if is_nonneg(s.u_ginv) and is_nonneg(s.u_ginv @ s.v):
            expected.add(SplittingClass.G_WEAK_REGULAR)
        assert s.classes == expected


def hand_built_instance(core: np.ndarray, n: int) -> GroupMonotoneInstance:
    """core in the leading block of an n-by-n matrix, with no sign checks."""
    r = core.shape[0]
    a, a_ginv = np.zeros((n, n)), np.zeros((n, n))
    a[:r, :r], a_ginv[:r, :r] = core, np.linalg.inv(core)
    return GroupMonotoneInstance(
        a=a, a_ginv=a_ginv, core=core, core_inv=a_ginv[:r, :r], rank=r, perm=np.arange(n)
    )


class TestGenerateGweak:
    """random_g_weak_splitting, the generator of G-weak regular splittings."""

    def test_scalar_case_always_succeeds(self, rng):
        inst = random_group_monotone(1, 1, rng)
        s = random_g_weak_splitting(inst, rng)
        assert SplittingClass.G_WEAK_REGULAR in s.classes
        assert float(s.u[0, 0]) > float(inst.a[0, 0])  # U = A / (1 - g), 0 < g < 1

    def test_group_monotone_target(self, rng):
        inst = random_group_monotone(4, 2, rng)
        s = random_g_weak_splitting(inst, rng)
        assert SplittingClass.G_WEAK_REGULAR in s.classes
        # revalidation from scratch reproduces the classification
        rebuilt = make_splitting(inst.a, s.u)
        assert SplittingClass.G_WEAK_REGULAR in rebuilt.classes

    def test_large_target(self):
        # rho(G) would grow with the rank if the entries of G did not shrink
        # like 2/r; unshrunk, most draws at this size fail the filter
        inst = random_group_monotone(128, 127, np.random.default_rng(0))
        s = random_g_weak_splitting(inst, np.random.default_rng(1))
        assert SplittingClass.G_WEAK_REGULAR in s.classes
        assert spectral_radius(s.iteration_factor) < 1.0

    def test_deterministic_for_fixed_seed(self, rng):
        inst = random_group_monotone(6, 5, rng)
        s1 = random_g_weak_splitting(inst, np.random.default_rng(11))
        s2 = random_g_weak_splitting(inst, np.random.default_rng(11))
        np.testing.assert_array_equal(s1.u, s2.u)

    def test_negative_scalar_target_exhausts(self, rng):
        # the group inverse is negative, so U# = (1 - g) A# rejects every draw
        inst = hand_built_instance(np.array([[-1.0]]), 1)
        with pytest.raises(AttemptsExhaustedError) as excinfo:
            random_g_weak_splitting(inst, rng, max_tries=25)
        assert excinfo.value.attempts == 25

    def test_mixed_sign_target_outcome_is_consistent(self, rng):
        # either a valid G-weak regular splitting comes back or the loop
        # exhausts; both outcomes must agree with the classification
        inst = hand_built_instance(np.diag([-1.0, 1.0]), 3)
        try:
            s = random_g_weak_splitting(inst, rng)
        except AttemptsExhaustedError as exc:
            assert exc.attempts == 200
        else:
            assert SplittingClass.G_WEAK_REGULAR in make_splitting(inst.a, s.u).classes


class TestIdentitySuite:
    def test_trivial_splitting_residuals_vanish(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(inst.a, inst.a)
        ident = splitting_identity_residuals(s)
        assert ident.max_residual() < 1e-10
        assert min(ident.sigma_min_left, ident.sigma_min_right) == pytest.approx(1.0, abs=1e-10)

    def test_lapack_failure_is_numeric_failure(self, rng, monkeypatch):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(inst.a, inst.a)

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericFailureError, match="SVD did not converge"):
            splitting_identity_residuals(s)

    def test_random_proper_splittings(self, rng):
        for _ in range(20):
            a, u = proper_pair(5, 3, rng, scale=0.3)
            ident = splitting_identity_residuals(make_splitting(a, u))
            assert ident.max_residual() < 1e-8
            assert min(ident.sigma_min_left, ident.sigma_min_right) > 1e-8


class TestConvergenceCharacterization:
    def test_group_monotone_iff_radius_below_one(self, rng):
        # one direction: group monotone target, generated weak regular splitting
        inst = random_group_monotone(4, 2, rng)
        s = random_g_weak_splitting(inst, rng)
        assert is_nonneg(group_inverse(inst.a).ginv)
        assert spectral_radius(s.iteration_factor) < 1.0

    def test_non_group_monotone_forces_radius_at_least_one(self):
        # diag(-1, 1, 0) with the G-regular splitting U = diag(1, 2, 0)
        a = np.diag([-1.0, 1.0, 0.0])
        s = make_splitting(a, np.diag([1.0, 2.0, 0.0]))
        assert SplittingClass.G_WEAK_REGULAR in s.classes
        assert not is_nonneg(group_inverse(a).ginv)
        assert spectral_radius(s.iteration_factor) >= 1.0
