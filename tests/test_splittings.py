import dataclasses
import math
import warnings

import numpy as np
import pytest

from altiter import catalog
from altiter.alternating import (
    GroupMonotoneInstance,
    Scheme,
    random_group_monotone,
)
from altiter.errors import (
    NotProperSplittingError,
    NumericFailureError,
)
from altiter.ginverse import group_inverse
from altiter.kernel import Tolerances
from altiter.splittings import (
    Splitting,
    SplittingClass,
    make_splitting,
    splitting_identity_residuals,
)
from conftest import (
    random_g_weak_splitting,
    random_non_ep_group_monotone,
    random_size,
)


class TestMakeSplitting:
    def test_trivial_splitting_has_zero_remainder(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(group_inverse(inst.a), inst.a)
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
                make_splitting(group_inverse(a), u)

    def test_rejects_null_mismatch(self):
        a = np.diag([1.0, 0.0, 2.0])
        u = a.copy()
        u[0, 1] = 1.0  # range unchanged, null space tilted
        with pytest.raises(NotProperSplittingError):
            make_splitting(group_inverse(a), u)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_splitting(group_inverse(np.eye(2)), np.eye(3))

    @pytest.mark.parametrize("n", (1, 3))
    def test_zero_target_splits(self, n):
        # rank 0: P1 is 0-by-0, full rank, and U# = 0
        s = make_splitting(group_inverse(np.zeros((n, n))), np.zeros((n, n)))
        assert s.classes == {
            SplittingClass.PROPER, SplittingClass.G_REGULAR, SplittingClass.G_WEAK_REGULAR
        }
        assert np.array_equal(s.u_ginv, np.zeros((n, n)))

    def test_overflowing_weak_product_classifies_without_warning(self):
        # U# = 1e300 and V = -1e10 are finite; U#V = -1e310 overflows, so the
        # weak violation is that of V and the splitting is only proper
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = make_splitting(group_inverse([[1e10]]), [[1e-300]])
        assert s.weak_violation == 1e10
        assert s.classes == {SplittingClass.PROPER}


class TestClassify:
    def test_classes_are_read_from_the_stored_violations(self, rng):
        # a splitting stores what make_splitting measured; classes is decided
        # on each read, so it cannot disagree with the violations it holds
        assert [f.name for f in dataclasses.fields(Splitting)] == [
            "target", "u", "v", "u_ginv", "regular_violation", "weak_violation"
        ]
        assert isinstance(Splitting.classes, property)
        s = random_g_weak_splitting(random_group_monotone(5, 4, rng), rng)
        assert SplittingClass.G_WEAK_REGULAR in s.classes
        assert SplittingClass.G_WEAK_REGULAR not in dataclasses.replace(
            s, weak_violation=math.inf
        ).classes


def hand_built_instance(core: np.ndarray, n: int) -> GroupMonotoneInstance:
    """core in the leading block of an n-by-n matrix, with no sign checks."""
    r = core.shape[0]
    a, a_ginv = np.zeros((n, n)), np.zeros((n, n))
    a[:r, :r], a_ginv[:r, :r] = core, np.linalg.inv(core)
    return GroupMonotoneInstance(
        target=group_inverse(a), a_ginv=a_ginv, rank=r, perm=np.arange(n)
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
        rebuilt = make_splitting(group_inverse(inst.a), s.u)
        assert SplittingClass.G_WEAK_REGULAR in rebuilt.classes

    def test_large_target(self):
        # rho(G) would grow with the rank if the entries of G did not shrink
        # like 2/r; unshrunk, most draws at this size fail the filter
        inst = random_group_monotone(128, 127, np.random.default_rng(0))
        assert inst.target.rank == inst.rank
        s = random_g_weak_splitting(inst, np.random.default_rng(1))
        assert SplittingClass.G_WEAK_REGULAR in s.classes
        assert Scheme((s,)).rho < 1.0

    def test_deterministic_for_fixed_seed(self, rng):
        inst = random_group_monotone(6, 5, rng)
        s1 = random_g_weak_splitting(inst, np.random.default_rng(11))
        s2 = random_g_weak_splitting(inst, np.random.default_rng(11))
        np.testing.assert_array_equal(s1.u, s2.u)

    def test_negative_scalar_target_exhausts(self, rng):
        # the group inverse is negative, so U# = (1 - g) A# rejects every draw
        inst = hand_built_instance(np.array([[-1.0]]), 1)
        with pytest.raises(RuntimeError, match="in 200 attempts"):
            random_g_weak_splitting(inst, rng)

    def test_a_draw_is_accepted_exactly_by_its_class_at_the_instance_tol(self, rng):
        # with A# = diag(I, 0), U# = (I - G) A# has off-diagonal entries -g_ij < 0;
        # those below nonneg_tol count as zero, so the first draw is accepted
        # at nonneg_tol 0.5, while the default tol rejects every draw
        a = np.diag([1.0, 1.0, 0.0])
        loose = Tolerances(nonneg_tol=0.5)
        inst = GroupMonotoneInstance(
            target=group_inverse(a, loose), a_ginv=a.copy(), rank=2, perm=np.arange(3)
        )
        s = random_g_weak_splitting(inst, rng)
        assert s.u_ginv.min() < 0.0
        assert SplittingClass.G_WEAK_REGULAR in s.classes
        with pytest.raises(RuntimeError, match="in 200 attempts"):
            random_g_weak_splitting(hand_built_instance(np.eye(2), 3), rng)


class TestIdentitySuite:
    def test_trivial_splitting_residuals_vanish(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(group_inverse(inst.a), inst.a)
        ident = splitting_identity_residuals(s)
        assert ident.max_residual() < 1e-10
        assert min(ident.sigma_min_left, ident.sigma_min_right) == pytest.approx(1.0, abs=1e-10)

    def test_lapack_failure_is_numeric_failure(self, rng, monkeypatch):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(group_inverse(inst.a), inst.a)

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericFailureError, match="SVD did not converge"):
            splitting_identity_residuals(s)

    def test_every_residual_matches_its_formula(self, rng):
        # U# perturbed, so that no identity holds; ex5.2 is not symmetric, so
        # a transposed product would change a residual
        s = catalog.splitting_of(catalog.get_fixture("ex5.2"), "u")
        s = dataclasses.replace(s, u_ginv=s.u_ginv + 1e-3 * rng.uniform(-1.0, 1.0, s.u.shape))
        a, u, v, ug, ag = s.a, s.u, s.v, s.u_ginv, s.target.ginv
        eye, fro = np.eye(len(a)), np.linalg.norm
        left, right = eye - ug @ v, eye - v @ ug
        ident = splitting_identity_residuals(s)
        assert dataclasses.astuple(ident) == pytest.approx((
            fro(a @ ag - u @ ug) / fro(a @ ag),
            fro(ag @ a - ug @ u) / fro(ag @ a),
            fro(a - u @ left) / fro(a),
            fro(a - right @ u) / fro(a),
            np.linalg.svd(left, compute_uv=False)[-1],
            np.linalg.svd(right, compute_uv=False)[-1],
            fro(ag - np.linalg.solve(left, ug)) / fro(ag),
            fro(ag - ug @ np.linalg.inv(right)) / fro(ag),
        ), rel=1e-9)
        residuals = dataclasses.astuple(ident)
        assert ident.max_residual() == max(residuals[:4] + residuals[6:])  # not the sigmas


def ill_conditioned_draws():
    """40 non-EP instances at t = 1e4, where cond(Q) reaches about 1e5, each
    with its target and the rng after the draw."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        a, _, g_regular_part, _ = random_non_ep_group_monotone(*random_size(1e4, rng), 1e4, rng)
        yield group_inverse(a), g_regular_part, rng


class TestProperness:
    def test_exact_parts_of_an_ill_conditioned_q_are_proper(self):
        # the rounding in Q^-1 U Q reaches 5e-8 here, above mat_eq_tol; the
        # bound, mat_eq_tol times the conditioning of Q, covers it
        for target, g_regular_part, rng in ill_conditioned_draws():
            for _ in range(3):
                assert SplittingClass.PROPER in make_splitting(target, g_regular_part(rng)).classes

    def test_perturbed_parts_of_an_ill_conditioned_q_are_refused(self):
        for target, g_regular_part, rng in ill_conditioned_draws():
            u = g_regular_part(rng)
            u += 1e-6 * np.abs(u).max() * rng.standard_normal(u.shape)
            with pytest.raises(NotProperSplittingError, match=r"^R\(A\) or N\(A\) not preserved"):
                make_splitting(target, u)

