import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altiter import catalog, ginverse
from altiter.alternating import random_g_regular_splitting, random_group_monotone
from altiter.errors import (
    NotIndexOneError,
    NotProperSplittingError,
    NumericFailureError,
    SingularMatrixError,
)
from altiter.ginverse import (
    _full_rank_inverse,
    group_inverse,
    verify_group_axioms,
)
from altiter.kernel import (
    DEFAULT_TOL,
    Tolerances,
    _downscaled,
    inverse,
    range_null_bases,
    rank,
    rel_residual,
    singular_values,
)
from conftest import (
    NON_EP_COUPLINGS,
    canonical_index_one,
    pinv,
    projectors,
    random_non_ep_group_monotone,
    random_size,
    well_conditioned,
)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
# index two: a nilpotent block beside a nonsingular one
NILPOTENT_BLOCK = np.block([[NILPOTENT, np.zeros((2, 2))], [np.zeros((2, 2)), np.diag([1.0, 2.0])]])


class TestGroupInverse:
    def test_nonsingular_equals_inverse_and_pseudoinverse(self, rng):
        a = well_conditioned(5, rng)
        g = group_inverse(a).ginv
        np.testing.assert_allclose(g, np.linalg.inv(a), atol=1e-8)
        np.testing.assert_allclose(g, pinv(a), atol=1e-8)

    def test_non_square_matrix_raises_value_error(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            group_inverse(np.ones((2, 3)))

    def test_empty_matrix_raises_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            group_inverse(np.zeros((0, 0)))

    def test_not_index_one_raises(self):
        # the last has rank(a) = rank(a^2) = 1 at rank_rel, but Q = [R | N]
        # has sigma_min / sigma_max = 5e-15, below rank_rel n
        for a in (NILPOTENT, NILPOTENT_BLOCK, np.array([[0.0, 1.0], [0.0, 1e-14]])):
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

    def test_shares_range_and_null_space(self, rng):
        a, _ = canonical_index_one(6, 3, rng)
        g = group_inverse(a).ginv
        # range projectors, then null-space projectors
        for p_a, p_g in zip(projectors(a), projectors(g)):
            assert np.linalg.norm(p_a - p_g, 2) < DEFAULT_TOL.mat_eq_tol

    @pytest.mark.parametrize("t", NON_EP_COUPLINGS)
    def test_non_ep_instances_match_their_construction(self, t):
        # A = P [[C, C X], [0, 0]] P^T with X = t U(0, 1): Q = [R | N] is
        # orthogonal only at t = 0, and from t = 1 on A# lies far from A^+
        rng = np.random.default_rng(int(t))
        for _ in range(40):
            a, reference, _, _ = random_non_ep_group_monotone(*random_size(t, rng), t, rng)
            result = group_inverse(a)
            assert rel_residual(result.ginv - reference, reference) <= 1e-9
            assert result.index == 1
            if t >= 1:
                assert rel_residual(pinv(a) - reference, reference) >= 0.1

    def test_product_is_commuting_projector(self, rng):
        # A A# is the projector onto R(A) along N(A): it equals A# A and is idempotent
        a, _ = canonical_index_one(5, 3, rng)
        g = group_inverse(a).ginv
        p = a @ g
        assert rel_residual(p - g @ a, p) < 1e-8
        assert rel_residual(p @ p - p, p) < 1e-8


def eager_ginv(a, tol=DEFAULT_TOL):
    """A# as group_inverse formed it before the decomposition stopped at Q^-1."""
    scaled, shift = _downscaled(a)
    range_b, null_b = range_null_bases(scaled, tol)
    q_inv = _full_rank_inverse(np.hstack([range_b, null_b]), tol, NotIndexOneError())
    r = range_b.shape[1]
    ginv = range_b @ inverse(q_inv[:r] @ scaled @ range_b) @ q_inv[:r]
    return np.ldexp(ginv, -shift) if shift else ginv


class TestLazyGinv:
    @pytest.mark.parametrize("fixture_id", catalog.fixture_ids())
    def test_catalog_targets_keep_the_eager_bits(self, fixture_id):
        fx = catalog.get_fixture(fixture_id)
        result = group_inverse(fx.matrices["a"], fx.tol)
        assert "ginv" not in vars(result)
        assert np.array_equal(result.ginv, eager_ginv(fx.matrices["a"], fx.tol))

    @pytest.mark.parametrize("n", (3, 20, 128))
    @pytest.mark.parametrize("t", NON_EP_COUPLINGS)
    def test_random_targets_keep_the_eager_bits(self, n, t):
        a = random_non_ep_group_monotone(n, n - 1, t, np.random.default_rng(n))[0]
        result = group_inverse(a)
        assert np.array_equal(result.ginv, eager_ginv(a))
        assert result.ginv is result.ginv

    def test_downscaled_target_keeps_the_eager_bits(self):
        a = np.ldexp(random_non_ep_group_monotone(20, 19, 1.0, np.random.default_rng(0))[0], 600)
        assert _downscaled(a)[1] > 0
        assert np.array_equal(group_inverse(a).ginv, eager_ginv(a))


class TestVerifyAxioms:
    def test_identity_pair_is_exact(self):
        residuals = verify_group_axioms(np.eye(3), np.eye(3))
        assert residuals.axa == residuals.xax == residuals.commutator == 0.0

    def test_every_residual_matches_its_formula(self, rng):
        # a random X meets no axiom of ex5.2's A, so every residual is nonzero
        a = catalog.get_fixture("ex5.2").matrices["a"]
        x = rng.uniform(-1.0, 1.0, a.shape)
        fro, residuals = np.linalg.norm, verify_group_axioms(a, x)
        assert dataclasses.astuple(residuals) == pytest.approx((
            fro(a @ x @ a - a) / fro(a),
            fro(x @ a @ x - x) / fro(x),
            fro(a @ x - x @ a) / fro(a @ x),
        ), rel=1e-12)
        assert residuals.max() == max(dataclasses.astuple(residuals))

    def test_pseudoinverse_fails_commutation_off_range_symmetry(self, rng):
        # skewed change of basis: pseudoinverse and group inverse differ
        a, _ = canonical_index_one(5, 3, rng, orthogonal=False)
        residuals = verify_group_axioms(a, pinv(a))
        assert residuals.commutator > 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify_group_axioms(np.eye(2), np.eye(3))


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


class TestProperGinv:
    def test_conditioning_of_an_orthonormal_q_is_one(self, rng, monkeypatch):
        assert random_group_monotone(6, 3, rng).target.conditioning == pytest.approx(1.0)
        # ex4.3's is exactly 1, so its properness bound is mat_eq_tol itself:
        # k is proper at a bound equal to its off-diagonal part, not one ulp below
        fx, offs = catalog.get_fixture("ex4.3"), []
        target = group_inverse(fx.target(), fx.tol)
        assert target.conditioning == 1.0
        monkeypatch.setattr(
            ginverse, "rel_residual", lambda *m: offs.append(rel_residual(*m)) or offs[-1])
        target.proper_ginv(fx.matrices["k"])
        off = max(offs)  # 1.7377481559957495e-16 with OpenBLAS on x86-64
        assert 0.0 < off < fx.tol.mat_eq_tol
        at, below = (dataclasses.replace(fx.tol, mat_eq_tol=t) for t in (off, np.nextafter(off, 0)))
        group_inverse(fx.target(), at).proper_ginv(fx.matrices["k"])
        with pytest.raises(NotProperSplittingError, match=r"^R\(A\) or N\(A\) not preserved"):
            group_inverse(fx.target(), below).proper_ginv(fx.matrices["k"])

    @pytest.mark.parametrize("d", (1e-8, 1e-10))
    def test_identity_is_improper_however_ill_conditioned_q(self, d):
        # P = Q^-1 I Q = I has the off-diagonal part sqrt((n - r) / n) with
        # r = n - 1, which mat_eq_tol kappa/n exceeds here: only the cap on the
        # bound refuses I, whose projector Q[:, :r] Q^-1[:r] is no group inverse
        for n in (4, 10, 30):
            target = group_inverse(near_index_two_matrix(n, d, np.random.default_rng(n)))
            off = np.sqrt((n - target.rank) / n)
            assert DEFAULT_TOL.mat_eq_tol * target.conditioning > off
            with pytest.raises(NotProperSplittingError, match=r"^R\(A\) or N\(A\) not preserved"):
                target.proper_ginv(np.eye(n))


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
        # an infinite ||p||_F or ||p^-1||_F decides nothing: the SVD finds full rank
        for p in (np.diag([1.3e154, 1.3e154, 1e150]), np.diag([1e-150, 1e-150, 1e-155])):
            assert np.array_equal(decided_inverse(p, 3e-12), inverse(p))
        assert svd_calls == [(3, 3)] * 3

    def test_full_rank_p_whose_inverse_fails_is_inverted_once(self, monkeypatch):
        # I has full rank at any cutoff, so the error of the one inverse is raised
        calls = []

        def failing_inverse(p):
            calls.append(p)
            raise SingularMatrixError(f"inverse call {len(calls)}")

        monkeypatch.setattr(ginverse, "inverse", failing_inverse)
        with pytest.raises(SingularMatrixError, match="^inverse call 1$"):
            decided_inverse(np.eye(3), 3e-12)
        assert len(calls) == 1

    def test_one_decomposition_per_target_and_none_per_splitting(self, svd_calls):
        inst = random_group_monotone(50, 49, np.random.default_rng(0))
        svd_calls.clear()
        random_g_regular_splitting(inst, np.random.default_rng(1))
        assert svd_calls == []
        group_inverse(inst.a)
        assert svd_calls == [(50, 50)]
