import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altiter.alternating import random_g_regular_splitting, random_group_monotone
from altiter.errors import NotIndexOneError, NumericFailureError
from altiter.ginverse import (
    _full_rank_inverse,
    group_inverse,
    is_ep,
    matrix_index,
    verify_group_axioms,
)
from altiter.kernel import (
    DEFAULT_TOL,
    Tolerances,
    inverse,
    moore_penrose,
    range_null_bases,
    rank,
    rel_residual,
    singular_values,
)
from conftest import (
    canonical_index_one,
    exact_rank,
    projectors,
    random_non_ep_group_monotone,
    well_conditioned,
)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
# index two: a nilpotent block beside a nonsingular one
NILPOTENT_BLOCK = np.block([[NILPOTENT, np.zeros((2, 2))], [np.zeros((2, 2)), np.diag([1.0, 2.0])]])


def assert_index_at_any_scale(a, expected):
    """matrix_index of a, and of a scaled to a largest entry of 1e-300, 1e200 and 1e308."""
    assert matrix_index(a) == expected
    peak = np.abs(a).max()
    for scale in (1e-300, 1e200, 1e308):
        assert matrix_index(a * (scale / peak)) == expected, scale


class TestMatrixIndex:
    # pytest turns a RuntimeWarning into an error, so every scale runs warning-free

    def test_identity_is_zero(self):
        assert_index_at_any_scale(np.eye(3), 0)

    def test_nilpotent_block_is_two(self):
        # ranks along the powers run 1 -> 0 -> 0
        assert_index_at_any_scale(NILPOTENT, 2)

    def test_singular_index_one(self, rng):
        a, _ = canonical_index_one(6, 4, rng)
        assert_index_at_any_scale(a, 1)

    def test_index_one_when_rank_stabilizes_immediately(self):
        a = np.array([[3.0, 1, 2], [1, -12, 13], [2, 13, -11]])
        assert exact_rank(a) == exact_rank(a @ a) == 2
        assert_index_at_any_scale(a, 1)

    def test_empty_is_zero(self):
        assert matrix_index(np.zeros((0, 0))) == 0

    def test_a_matrix_group_inverse_refuses_has_index_two(self):
        # rank(a) = rank(a^2) = 1 at rank_rel, but Q = [R | N] has
        # sigma_min / sigma_max = 5e-15, below rank_rel n
        a = np.array([[0.0, 1.0], [0.0, 1e-14]])
        with pytest.raises(NotIndexOneError):
            group_inverse(a)
        assert_index_at_any_scale(a, 2)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.floats(-2.0, 2.0))
    def test_index_one_exactly_when_group_inverse_exists(self, seed, n, log_ratio):
        # d spans the index-one cutoff rank_rel n by 100 both ways
        rng = np.random.default_rng(seed)
        a = near_index_two_matrix(n, 2 * DEFAULT_TOL.rank_rel * n * 10.0**log_ratio, rng)
        try:
            group_inverse(a)
        except NotIndexOneError:
            exists = False
        else:
            exists = True
        assert (matrix_index(a) <= 1) == exists


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

    @pytest.mark.parametrize("t", (0.0, 1.0, 100.0))
    def test_non_ep_instances_match_their_construction(self, t):
        # A = P [[C, C X], [0, 0]] P^T with X = t U(0, 1): Q = [R | N] is
        # orthogonal only at t = 0, and from t = 1 on A# lies far from A^+
        rng = np.random.default_rng(int(t))
        for _ in range(40):
            n = int(rng.integers(3, 40))
            a, reference = random_non_ep_group_monotone(n, int(rng.integers(1, n)), t, rng)
            assert rel_residual(group_inverse(a).ginv - reference, reference) <= 1e-9
            assert matrix_index(a) == 1
            if t >= 1:
                assert rel_residual(moore_penrose(a) - reference, reference) >= 0.1

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
        assert calls == [(6, 6), (4, 2)]  # a, then the 4x2 product R^T N for its norm

    def test_lapack_failure_is_numeric_failure(self, monkeypatch):
        # the SVD of a succeeds; the norm's SVD of R^T N fails
        original = np.linalg.svd

        def failing_norm_svd(m, compute_uv=True, **kwargs):
            if not compute_uv:
                raise np.linalg.LinAlgError("SVD did not converge")
            return original(m, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_norm_svd)
        with pytest.raises(NumericFailureError, match="SVD did not converge"):
            is_ep(NILPOTENT)


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes passed to np.linalg.svd, recorded in call order."""
    original = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def decided_inverse(p, cutoff):
    """_full_rank_inverse at rank_rel r = cutoff, with None in place of its lower-rank error."""
    try:
        return _full_rank_inverse(p, Tolerances(rank_rel=cutoff / p.shape[0]), LookupError())
    except LookupError:
        return None


def q_is_nonsingular(q) -> bool:
    """The kernel's rank rule on Q, which the norms of its inverse must reproduce."""
    sv = singular_values(q)
    return sv[-1] > DEFAULT_TOL.rank_rel * q.shape[0] * sv[0]


def near_index_two_matrix(n, d, rng):
    """S diag([[d, 1], [0, 0]], C) S^-1, whose range and null space meet at an
    angle of about d, so that sigma_min(Q) / sigma_max(Q) is about d / 2."""
    block = np.zeros((n, n))
    block[:2, :2] = [[d, 1.0], [0.0, 0.0]]
    block[2:, 2:] = well_conditioned(n - 2, rng)
    s = well_conditioned(n, rng)
    return s @ block @ np.linalg.inv(s)


class TestFullRankInverse:
    """Rank and index decided from the norms of the inverse, as the SVD decides them."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.floats(-2.0, 2.0),
        st.integers(-200, 200),
    )
    def test_matches_rank_on_prescribed_singular_values(self, seed, r, log_ratio, exp10):
        # sigma_min / sigma_max spans cutoff/100 .. 100 cutoff, at scales
        # whose norms may underflow or overflow
        rng = np.random.default_rng(seed)
        cutoff = DEFAULT_TOL.rank_rel * r
        sv = np.sort(rng.uniform(0.5, 1.0, r))[::-1]
        if r > 1:
            sv[-1] = sv[0] * cutoff * 10.0**log_ratio
        u, _ = np.linalg.qr(rng.standard_normal((r, r)))
        v, _ = np.linalg.qr(rng.standard_normal((r, r)))
        p = 10.0**exp10 * (u @ np.diag(sv) @ v.T)
        full = rank(p, DEFAULT_TOL) == r
        p_inv = decided_inverse(p, cutoff)
        assert (p_inv is not None) == full
        if full:
            assert np.array_equal(p_inv, inverse(p))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.floats(-2.0, 2.0), st.booleans())
    def test_matches_svd_on_change_of_basis(self, seed, n, log_ratio, near_index_two):
        # Q = [R | N] of an index-one matrix, or of S diag([[d, 1], [0, 0]], C) S^-1,
        # whose range and null space meet at an angle of about d: sigma_min(Q)
        # / sigma_max(Q) is about d / 2, which spans the cutoff by 100 both ways
        rng = np.random.default_rng(seed)
        if near_index_two:
            a = near_index_two_matrix(n, 2 * DEFAULT_TOL.rank_rel * n * 10.0**log_ratio, rng)
        else:
            a, _ = canonical_index_one(n, int(rng.integers(1, n)), rng)
        q = np.hstack(range_null_bases(a))
        q_inv = decided_inverse(q, DEFAULT_TOL.rank_rel * n)
        assert (q_inv is not None) == q_is_nonsingular(q)
        if q_inv is not None:
            assert np.array_equal(q_inv, inverse(q))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 7),
        st.floats(-2.0, 2.0),
        st.sampled_from((DEFAULT_TOL, Tolerances(rank_rel=1e-6))),
    )
    def test_index_one_follows_rank_rel(self, seed, n, log_ratio, tol):
        # d spans the cutoff rank_rel n by 100 both ways; A is refused exactly
        # when Q = [R | N] has rank below n at tol, as every rank is decided
        rng = np.random.default_rng(seed)
        a = near_index_two_matrix(n, 2 * tol.rank_rel * n * 10.0**log_ratio, rng)
        if rank(np.hstack(range_null_bases(a, tol)), tol) < n:
            with pytest.raises(NotIndexOneError):
                group_inverse(a, tol)
        else:
            group_inverse(a, tol)

    @pytest.mark.parametrize("ratio", (0.5, 1.5))
    def test_ambiguous_band_falls_back_to_the_svd(self, svd_calls, ratio):
        # for diag(1, x) the norms decide only x > 2 cutoff or x < cutoff / 4
        cutoff = DEFAULT_TOL.rank_rel * 2
        p = np.diag([1.0, ratio * cutoff])
        p_inv = decided_inverse(p, cutoff)
        assert svd_calls == [(2, 2)]
        assert (p_inv is not None) == (ratio > 1) == (rank(p) == 2)

    def test_fallback_keeps_the_boundary_of_each_decision(self, svd_calls):
        # sigma_min = cutoff sigma_max exactly: lower rank, for a splitting
        # and for Q alike
        assert decided_inverse(np.diag([1.0, 1e-12]), 1e-12) is None
        assert len(svd_calls) == 1

    def test_singular_inverse_falls_back_to_the_svd(self, svd_calls):
        assert decided_inverse(np.zeros((3, 3)), 3e-12) is None
        assert svd_calls == [(3, 3)]

    def test_one_decomposition_per_target_and_none_per_splitting(self, svd_calls):
        inst = random_group_monotone(50, 49, np.random.default_rng(0))
        svd_calls.clear()
        random_g_regular_splitting(inst, np.random.default_rng(1))
        assert svd_calls == []
        group_inverse(inst.a)
        assert svd_calls == [(50, 50)]
