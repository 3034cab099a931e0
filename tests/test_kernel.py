import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from altiter.errors import NumericFailureError, SingularMatrixError
from altiter.kernel import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    as_vector,
    is_nonneg,
    neg_violation,
    range_null_bases,
    rank,
    rel_residual,
    solve_square,
    spectral_radius,
)
import exact
from conftest import (
    canonical_index_one,
    projectors,
    radius_well_conditioned,
)

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


class TestTolerances:
    def test_defaults_positive(self):
        tol = Tolerances()
        assert tol.rank_rel == 1e-12 and tol.refval_tol == 1e-3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(mat_eq_tol=0.0)

    @pytest.mark.parametrize("field", ["rank_rel", "nonneg_tol", "mat_eq_tol", "refval_tol"])
    @pytest.mark.parametrize("value", [True, np.inf, np.nan, -1e-3, "1e-6", None])
    def test_each_field_must_be_a_finite_positive_number(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite positive number"):
            Tolerances(**{field: value})

    def test_accepts_numpy_and_int_values(self):
        tol = Tolerances(nonneg_tol=np.float64(1e-6), refval_tol=1)
        assert tol.nonneg_tol == 1e-6 and tol.refval_tol == 1


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan], [0.0, 1.0]])

    def test_rejects_inf_vector(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.inf])

    def test_rejects_three_dimensional_matrix(self):
        with pytest.raises(ValueError, match=r"^expected a 2-d matrix, got shape \(2, 2, 2\)$"):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_matrix_as_vector(self):
        with pytest.raises(ValueError, match=r"^expected a vector, got shape \(3, 2\)$"):
            as_vector(np.zeros((3, 2)))

    def test_column_vector_flattens(self):
        v = as_vector(np.array([[1.0], [2.0]]))
        assert v.shape == (2,)


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_zero(self):
        assert rank(np.zeros((2, 2))) == 0

    def test_singular_integer_matrix_matches_exact_elimination(self):
        a = np.array([[3.0, 1, 2], [1, -12, 13], [2, 13, -11]])
        assert exact.rank(exact.rationalize(a)) == 2
        assert rank(a) == 2

    def test_rank_of_transpose_matches(self, rng):
        for _ in range(25):
            a = rng.standard_normal((rng.integers(2, 7), rng.integers(2, 7)))
            assert rank(a) == rank(a.T)


def same_range(a, b) -> bool:
    """Whether a and b span one column space: their projectors coincide."""
    gap = np.linalg.norm(projectors(a)[0] - projectors(b)[0], 2)
    return gap < DEFAULT_TOL.mat_eq_tol


class TestBases:
    def test_identity_range_projector_is_identity(self):
        p = projectors(np.eye(2))[0]
        np.testing.assert_allclose(p, np.eye(2), atol=1e-14)

    def test_zero_matrix_has_empty_range_basis(self):
        assert range_null_bases(np.zeros((3, 3)))[0].shape == (3, 0)

    def test_identity_null_basis_empty(self):
        assert range_null_bases(np.eye(4))[1].shape == (4, 0)

    def test_zero_matrix_null_basis_full(self):
        b = range_null_bases(np.zeros((3, 3)))[1]
        assert b.shape == (3, 3)
        np.testing.assert_allclose(b.T @ b, np.eye(3), atol=1e-12)

    def test_null_vector_annihilated(self):
        # one-dimensional null spaces; elimination gives the directions
        for a, direction in (
            (np.array([[-1.0, 0, -3], [0, 1, 2], [0, 2, 4]]), [-3.0, -2.0, 1.0]),
            # entries near the overflow limit, whose singular values exceed it
            (1e308 * np.array([[1.0, -1, 0], [-1, 1, 0], [0, 0, 1]]), [1.0, 1.0, 0.0]),
        ):
            assert rank(a) == 2
            range_b, b = range_null_bases(a)
            assert range_b.shape == (3, 2)
            assert b.shape == (3, 1)
            np.testing.assert_allclose(a @ b, 0.0, atol=1e-12 * np.abs(a).max())
            direction = np.array(direction)
            cosine = abs(b[:, 0] @ direction) / np.linalg.norm(direction)
            assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_bases_are_orthonormal(self, rng):
        for _ in range(30):
            a = rng.standard_normal((5, 5))
            a[:, -1] = a[:, 0]  # force rank deficiency
            for b in range_null_bases(a):
                np.testing.assert_allclose(b.T @ b, np.eye(b.shape[1]), atol=1e-10)


class TestSubspaces:
    def test_index_one_matrix_range_of_square(self, rng):
        a, _ = canonical_index_one(5, 3, rng)
        assert same_range(a, a @ a)

    def test_nilpotent_block_fails_range_of_square(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not same_range(a, a @ a)


class TestSpectralRadius:
    def test_zero(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_empty(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_callers_nonfinite_matrix_is_value_error(self):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            spectral_radius([[np.inf]])

    @pytest.mark.parametrize("m, rho", (
        (np.diag([-2.0, 1.0]), 2.0),  # a negative eigenvalue leads
        (np.array([[0.0, -1.0], [1.0, 0.0]]), 1.0),  # eigenvalues +-i
    ))
    def test_is_the_largest_modulus(self, m, rho):
        assert spectral_radius(m) == pytest.approx(rho, abs=1e-12)

    def test_companion_of_quadratic(self):
        # roots of z^2 - z - 1 are (1 +- sqrt(5)) / 2
        companion = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert spectral_radius(companion) == pytest.approx(GOLDEN_RATIO, abs=1e-12)

    def test_transpose_invariant(self, rng):
        for _ in range(25):
            m = rng.standard_normal((6, 6))
            assert spectral_radius(m) == pytest.approx(spectral_radius(m.T), abs=1e-10)


class TestRelResidual:
    def test_matches_unscaled_ratio_bit_for_bit(self, rng):
        for _ in range(50):
            ref = rng.standard_normal((5, 5)) * 10.0 ** rng.integers(-8, 8)
            delta = ref * 1e-12 * rng.standard_normal((5, 5))
            assert rel_residual(delta, ref) == float(np.linalg.norm(delta) / np.linalg.norm(ref))
            assert rel_residual(delta, np.zeros((5, 5))) == float(np.linalg.norm(delta))

    def test_entries_near_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert rel_residual(np.diag([1e292, 0.0]), np.diag([1e308, 1e308])) == (
                pytest.approx(1e-16 / np.sqrt(2.0), rel=1e-12)
            )
            assert rel_residual(np.full((3, 3), 1e308), np.zeros((3, 3))) == np.inf
            # only one of the two norms overflows
            assert rel_residual(np.diag([1e200, 1e200]), np.diag([1e50, 0.0])) == (
                1.414213562373095e150
            )
            assert rel_residual(np.diag([1e-10, 0.0]), np.diag([1e200, 1e200])) == (
                7.0710678118654755e-211
            )

    def test_tiny_reference(self):
        assert rel_residual(np.diag([1e-320, 0.0]), np.diag([1e-310, 1e-310])) == (
            pytest.approx(1e-10 / np.sqrt(2.0), rel=1e-3)  # 1e-320 is subnormal
        )

    def test_reference_far_below_delta(self):
        # each norm is scaled by its own exponent, so the reference cannot
        # underflow to zero and turn the ratio into an absolute norm
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert rel_residual(1e-300 * np.eye(2), 1e-320 * np.eye(2)) == (
                pytest.approx(1e-300 / 1e-320, rel=1e-14)
            )
            assert rel_residual(np.eye(2), 1e-320 * np.eye(2)) == np.inf  # 1e320

    def test_empty_and_zero(self):
        assert rel_residual(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
        assert rel_residual(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


class TestLapackFailures:
    """A LAPACK failure in the kernel surfaces as NumericFailureError."""

    @staticmethod
    def _fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    @pytest.mark.parametrize("fn", [rank, range_null_bases])
    def test_svd(self, fn, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", self._fail)
        with pytest.raises(NumericFailureError, match="did not converge"):
            fn(np.eye(2))

    def test_eigenvalues(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", self._fail)
        with pytest.raises(NumericFailureError, match="^eigenvalue computation failed: did not"):
            spectral_radius(np.eye(2))


class TestNonnegativity:
    def test_zero_matrix(self):
        assert is_nonneg(np.zeros((2, 2)))

    def test_tolerance_absorbs_tiny_negatives(self):
        assert is_nonneg(np.array([[-5e-11, 1.0]]))
        assert not is_nonneg(np.array([[-1.0, 1.0]]))

    def test_nan_is_never_nonnegative(self):
        for m in ([[np.nan, 1.0]], [[1.0, np.nan]], [[-1.0, np.nan]], [[np.nan, -1.0]]):
            assert np.isnan(neg_violation(m))
            assert not is_nonneg(m)


class TestSolveSquare:
    def test_identity(self):
        b = np.array([2.0, -1.0, 0.5])
        np.testing.assert_allclose(solve_square(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_square(np.diag([2.0, 4.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [0.5, 0.25])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_square(np.zeros((2, 2)), np.ones(2))

    def test_overflowing_solution_raises(self):
        # nonsingular, but x_1 = 1e10 / 1e-300 overflows
        with pytest.raises(SingularMatrixError, match="^solution overflowed; "):
            solve_square([[1e-300, 0.0], [0.0, 1.0]], [1e10, 1.0])


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (4, 4), elements=st.floats(-10, 10)))
def test_rank_and_radius_transpose_properties(m):
    assert rank(m) == rank(m.T)
    # eigvals is backward stable: it returns the exact eigenvalues of m + E
    # with ||E|| a small multiple of eps ||m||_F, and an eigenvalue of
    # condition number kappa moves by at most about kappa ||E|| (Wilkinson).
    # With kappa eps ||m||_F <= 1e-9 both radii are that close to rho(m), so
    # they agree to 1e-8.  A defective eigenvalue (kappa infinite) moves like
    # sqrt(eps ||m||), near 1e-8 itself, so such draws check only the rank.
    if radius_well_conditioned(m):
        assert spectral_radius(m) == pytest.approx(spectral_radius(m.T), abs=1e-8)
