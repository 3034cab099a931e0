import numpy as np
import pytest

from altiter.errors import NotIndexOneError, NumericFailureError
from altiter.ginverse import group_inverse, is_ep, matrix_index, verify_group_axioms
from altiter.kernel import DEFAULT_TOL, moore_penrose, rel_residual
from conftest import canonical_index_one, exact_rank, projectors, well_conditioned

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
# index two: a nilpotent block beside a nonsingular one
NILPOTENT_BLOCK = np.block([[NILPOTENT, np.zeros((2, 2))], [np.zeros((2, 2)), np.diag([1.0, 2.0])]])


class TestMatrixIndex:
    def test_identity_is_zero(self):
        assert matrix_index(np.eye(3)) == 0

    def test_nilpotent_block_is_two(self):
        # ranks along the powers run 1 -> 0 -> 0
        assert matrix_index(NILPOTENT) == 2

    def test_singular_index_one(self, rng):
        a, _ = canonical_index_one(6, 4, rng)
        assert matrix_index(a) == 1

    def test_index_one_when_rank_stabilizes_immediately(self):
        a = np.array([[3.0, 1, 2], [1, -12, 13], [2, 13, -11]])
        assert exact_rank(a) == exact_rank(a @ a) == 2
        assert matrix_index(a) == 1


class TestGroupInverse:
    def test_identity(self):
        result = group_inverse(np.eye(3))
        np.testing.assert_allclose(result.ginv, np.eye(3), atol=1e-14)
        assert result.index == 0

    def test_nonsingular_equals_inverse_and_pseudoinverse(self, rng):
        a = well_conditioned(5, rng)
        g = group_inverse(a).ginv
        np.testing.assert_allclose(g, np.linalg.inv(a), atol=1e-8)
        np.testing.assert_allclose(g, moore_penrose(a), atol=1e-8)

    def test_non_square_matrix_raises_value_error(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            group_inverse(np.ones((2, 3)))

    def test_empty_matrix_raises_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            group_inverse(np.zeros((0, 0)))

    def test_not_index_one_raises(self):
        for a in (NILPOTENT, NILPOTENT_BLOCK):
            with pytest.raises(NotIndexOneError):
                group_inverse(a)

    def test_lapack_failure_is_numeric_failure(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericFailureError, match="SVD did not converge"):
            group_inverse(np.eye(2))

    def test_entries_near_overflow(self):
        # rho(A) = 2e308 is beyond the float range; A# = (A / 1e308)# / 1e308
        unit = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for m in (np.diag([1.0, 0.0]), unit):
            result = group_inverse(1e308 * m)
            reference = group_inverse(m).ginv
            assert result.index == 1
            np.testing.assert_allclose(result.ginv * 1e308, reference, rtol=1e-13, atol=1e-15)

    def test_result_keeps_the_matrix_itself(self, rng):
        a, _ = canonical_index_one(4, 2, rng)
        assert group_inverse(a).a is a

    def test_axioms_on_random_index_one(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n))
            a, _ = canonical_index_one(n, r, rng)
            result = group_inverse(a)
            assert result.index == 1 and result.rank == r
            assert verify_group_axioms(a, result.ginv).max() < 1e-8

    def test_matches_construction_reference(self, rng):
        a, reference = canonical_index_one(7, 4, rng)
        g = group_inverse(a).ginv
        np.testing.assert_allclose(g, reference, atol=1e-9)

    def test_shares_range_and_null_space(self, rng):
        a, _ = canonical_index_one(6, 3, rng)
        g = group_inverse(a).ginv
        # range projectors, then null-space projectors
        for p_a, p_g in zip(projectors(a), projectors(g)):
            assert np.linalg.norm(p_a - p_g, 2) < DEFAULT_TOL.subspace_tol

    def test_product_is_commuting_projector(self, rng):
        # A A# is the projector onto R(A) along N(A): it equals A# A and is idempotent
        a, _ = canonical_index_one(5, 3, rng)
        g = group_inverse(a).ginv
        p = a @ g
        assert rel_residual(p - g @ a, p) < 1e-8
        assert rel_residual(p @ p - p, p) < 1e-8


class TestVerifyAxioms:
    def test_identity_pair_is_exact(self):
        residuals = verify_group_axioms(np.eye(3), np.eye(3))
        assert residuals.axa == residuals.xax == residuals.commutator == 0.0

    def test_pseudoinverse_fails_commutation_off_range_symmetry(self, rng):
        # skewed change of basis: pseudoinverse and group inverse differ
        a, _ = canonical_index_one(5, 3, rng, orthogonal=False)
        residuals = verify_group_axioms(a, moore_penrose(a))
        assert residuals.commutator > 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify_group_axioms(np.eye(2), np.eye(3))


class TestIsEp:
    def test_symmetric_matrix(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert is_ep(a)

    def test_orthogonal_embedding_is_ep_and_matches_pseudoinverse(self, rng):
        a, _ = canonical_index_one(6, 4, rng, orthogonal=True)
        assert is_ep(a)
        np.testing.assert_allclose(
            group_inverse(a).ginv, moore_penrose(a), atol=1e-8
        )

    def test_skewed_embedding_is_not_ep(self, rng):
        a, _ = canonical_index_one(6, 4, rng, orthogonal=False)
        assert not is_ep(a)

    def test_matches_projector_comparison(self, rng):
        # reference: the spectral distance between the range projectors of
        # a and a^T, from one SVD of each
        def reference(a):
            gap = np.linalg.norm(projectors(a)[0] - projectors(a.T)[0], 2)
            return gap < DEFAULT_TOL.subspace_tol

        decisions = []
        for trial in range(360):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, n + 1))
            if trial % 3 == 2:  # generic rank r, not EP unless r = n
                a = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
            else:
                a, _ = canonical_index_one(n, r, rng, orthogonal=trial % 3 == 0)
            decisions.append(is_ep(a))
            assert decisions[-1] == reference(a)
        assert 100 < sum(decisions) < 300  # both outcomes are exercised
        overflow = 1e308 * np.array([[1.0, -1, 0], [-1, 1, 0], [0, 0, 1]])
        for a, expected in (
            (np.eye(4), True),
            (np.zeros((3, 3)), True),
            (NILPOTENT, False),
            (NILPOTENT_BLOCK, False),
            (overflow, True),
        ):
            assert is_ep(a) is expected
            assert reference(a) == expected

    def test_one_decomposition(self, rng, monkeypatch):
        a, _ = canonical_index_one(6, 4, rng, orthogonal=False)
        original = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert not is_ep(a)
        assert calls == [(6, 6)]
