import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altiter import catalog
from altiter.alternating import (
    GroupMonotoneInstance,
    IterationConfig,
    Scheme,
    fixed_point,
    iterate,
    random_g_regular_splitting,
    random_group_monotone,
)
from altiter.analysis import (
    ComparisonReport,
    chain_comparison,
    compare_splittings,
    induced_splitting,
    make_preconditioner,
    preconditioned_comparison,
    three_step_comparison,
    validate_preconditioner,
)
from altiter.catalog import ROUNDED_TOL
from altiter.errors import (
    HypothesisViolationError,
    NumericFailureError,
    SingularMatrixError,
)
from altiter.ginverse import group_inverse
from altiter.kernel import DEFAULT_TOL, Tolerances, inverse, is_nonneg
from altiter.splittings import SplittingClass, make_splitting
from conftest import (
    FAMILIES,
    proper_pair,
    random_g_weak_splitting,
    random_non_ep_group_monotone,
)

# A = I - N with N >= 0 and rho(N) = 2 > 1: U = I, V = N is a regular
# splitting, but A^-1 = -[[1, 2], [2, 1]] / 3 is not nonnegative (Varga, ch. 3)
NOT_MONOTONE = np.array([[1.0, -2.0], [-2.0, 1.0]])


def failed(report):
    """{name: violation} of the hypotheses the report finds failed."""
    return {h.name: h.residual for h in report.hypotheses if not h.satisfied}


def assert_only_failure(report, name):
    """Exactly the hypothesis name fails, with a positive violation (at nonneg_tol
    1e-10 or mat_eq_tol 1e-8, the defaults, for every witness here)."""
    violations = failed(report)
    assert set(violations) == {name}
    assert violations[name] > 0


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
        s_lower = make_splitting(group_inverse(a), lower)
        s_diag = make_splitting(group_inverse(a), diagonal)
        report = compare_splittings(s_lower, s_diag)
        assert report.hypotheses_hold
        assert report.conclusion_lhs == pytest.approx(0.25, abs=1e-12)
        assert report.conclusion_rhs == pytest.approx(0.5, abs=1e-12)
        assert report.conclusion_holds

    def test_overflowing_factor_is_a_numeric_failure(self):
        # finite, valid parts whose U#V = -1e310 overflows
        s = make_splitting(group_inverse([[1e10]]), [[1e-300]])
        with pytest.raises(NumericFailureError, match="iteration matrix H overflowed"):
            compare_splittings(s, s)

    def test_mismatched_targets_rejected(self, rng):
        a = random_group_monotone(3, 2, rng)
        b = random_group_monotone(3, 2, rng)
        with pytest.raises(ValueError):
            compare_splittings(make_splitting(a.target, a.a), make_splitting(b.target, b.a))

    def test_witness_matrix_not_group_monotone(self):
        s = make_splitting(group_inverse(NOT_MONOTONE), np.eye(2))
        report = compare_splittings(s, s)
        assert_only_failure(report, "matrix group monotone")
        assert failed(report)["matrix group monotone"] == pytest.approx(2 / 3)

    def test_witness_first_inverse_does_not_dominate(self):
        # a G-weak draw against a G-regular draw; at this seed the G-weak
        # splitting's U# falls below the G-regular one's by 0.054 in one entry
        rng = np.random.default_rng(6)
        inst = random_group_monotone(4, 2, rng)
        s1, s2 = random_g_weak_splitting(inst, rng), random_g_regular_splitting(inst, rng)
        report = compare_splittings(s1, s2)
        assert_only_failure(report, "first inverse dominates second")
        assert failed(report)["first inverse dominates second"] == pytest.approx(0.054, abs=1e-3)

    def test_one_matrix_decomposed_at_two_tolerances_rejected(self, rng):
        a = random_group_monotone(3, 2, rng).a
        s_default = make_splitting(group_inverse(a), a)
        s_rounded = make_splitting(group_inverse(a, ROUNDED_TOL), a)
        with pytest.raises(ValueError):
            compare_splittings(s_default, s_rounded)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    source=st.sampled_from(("g-regular", "g-weak", "proper_pair")),
    tol=st.sampled_from((DEFAULT_TOL, ROUNDED_TOL)),
)
def test_class_hypotheses_agree_with_classes(seed, n, source, tol):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n + 1))
    if source == "proper_pair":
        a, u = proper_pair(n, r, rng)
        splittings = [make_splitting(group_inverse(a, tol), u)]
    else:
        inst = random_group_monotone(n, r, rng, tol)
        draw = random_g_regular_splitting if source == "g-regular" else random_g_weak_splitting
        splittings = [draw(inst, rng) for _ in range(2)]
    for s1 in splittings:
        for s2 in splittings:
            weak, regular = compare_splittings(s1, s2).hypotheses[:2]
            assert weak.satisfied == (SplittingClass.G_WEAK_REGULAR in s1.classes)
            assert regular.satisfied == (SplittingClass.G_REGULAR in s2.classes)
    triple = (splittings * 3)[:3]
    hypotheses = three_step_comparison(Scheme(splittings=triple)).hypotheses[:3]
    for hypothesis, s in zip(hypotheses, triple):
        assert hypothesis.satisfied == (SplittingClass.G_REGULAR in s.classes)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 19), rank_share=st.floats(0.0, 1.0))
def test_weak_against_regular_comparison_never_fails_under_its_hypotheses(seed, n, rank_share):
    # the paper's two-splitting claim: whenever every hypothesis holds,
    # rho(U1# V1) <= rho(U2# V2), with no slack
    rng = np.random.default_rng(seed)
    inst = random_group_monotone(n, 1 + min(n - 1, int(rank_share * n)), rng)
    s1, s2 = random_g_weak_splitting(inst, rng), random_g_regular_splitting(inst, rng)
    report = compare_splittings(s1, s2)
    if report.hypotheses_hold:
        assert report.conclusion_lhs <= report.conclusion_rhs


class TestThreeStepComparison:
    def test_vanishing_combined_matrix_fails_hypothesis(self):
        # K + X - A + Y U# L = 3 - 0.5 - 1 + (-1.5)(0.5)(2) = 0
        a = np.diag([1.0, 0.0])
        scheme = Scheme(splittings=tuple(
            make_splitting(group_inverse(a), np.diag([d, 0.0])) for d in (3.0, 2.0, -0.5)
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

    def test_witness_matrix_not_group_monotone(self):
        # three regular splittings U = I; M = I + N + N^2 = [[5, 2], [2, 5]] is nonsingular
        s = make_splitting(group_inverse(NOT_MONOTONE), np.eye(2))
        assert_only_failure(three_step_comparison(Scheme((s, s, s))), "matrix group monotone")

    @pytest.mark.parametrize("checker", (three_step_comparison, induced_splitting))
    def test_overflowing_combined_matrix_is_a_numeric_failure(self, checker):
        # Y U# L = (1e200 - 1) 1e200 (1e200 - 1) overflows, although H = -1e200 is finite
        target = group_inverse([[1.0]])
        scheme = Scheme(tuple(make_splitting(target, [[u]]) for u in (1e200, 1e-200, 1e200)))
        with pytest.raises(NumericFailureError, match=r"^M = K "):
            checker(scheme)

    def test_report_stores_the_radii_and_derives_its_verdict(self):
        report = catalog.comparison(catalog.get_fixture("ex5.1"))[0]
        fields = [f.name for f in dataclasses.fields(report)]
        assert fields == ["hypotheses", "conclusion_lhs", "conclusion_rhs", "slack"]
        assert report.conclusion_holds
        assert dataclasses.replace(report, slack=-1.0).conclusion_holds is False
        assert ComparisonReport((), 0.75, 0.5, 0.25).conclusion_holds  # lhs == rhs + slack


class TestChainComparison:
    def test_scalar_chain(self):
        # A = 1 split by X, U, K = 2, 3, 4: factors 1/2, 2/3, 3/4
        target = group_inverse([[1.0]])
        scheme = Scheme(splittings=tuple(make_splitting(target, [[d]]) for d in (2.0, 3.0, 4.0)))
        three_two, two_one = chain_comparison(scheme)
        assert (three_two.conclusion_lhs, three_two.conclusion_rhs) == pytest.approx((0.25, 0.5))
        assert (two_one.conclusion_lhs, two_one.conclusion_rhs) == pytest.approx((0.5, 0.75))
        assert three_two.conclusion_holds and two_one.conclusion_holds
        assert three_two.hypotheses == two_one.hypotheses == ()

    def test_needs_three_steps(self, rng):
        s = random_g_regular_splitting(random_group_monotone(4, 2, rng), rng)
        with pytest.raises(ValueError, match="needs a three-step scheme"):
            chain_comparison(Scheme(splittings=(s, s)))


class TestValidatePreconditioner:
    def test_identity_preconditioner(self, rng):
        inst = random_group_monotone(4, 3, rng)
        report = validate_preconditioner(inst.target, np.eye(4))
        assert report.max_residual() < 1e-10
        assert report.scaled_nonneg == is_nonneg(inst.a_ginv)

    @pytest.mark.parametrize("c", (3.0, -2.0))
    @pytest.mark.parametrize("sign", ("nonneg", "nonpos", "mixed"))
    def test_scalar_preconditioner(self, sign, c, rng):
        # c I commutes with every A, and A# Q^-1 = A#/c is >= 0 exactly when
        # A# has c's sign; a mixed-sign A# admits no scalar Q
        a = {
            "nonneg": random_group_monotone(4, 3, rng).a,
            "nonpos": -random_group_monotone(4, 3, rng).a,
            "mixed": np.diag([-1.0, 1.0, 0.0, 2.0]),
        }[sign]
        target, q = group_inverse(a), c * np.eye(4)
        np.testing.assert_array_equal(make_preconditioner(target, q), q)
        report = validate_preconditioner(target, q)
        assert report.commute == 0.0
        assert report.max_residual() < 1e-9
        assert report.scaled_nonneg == {"nonneg": c > 0, "nonpos": c < 0, "mixed": False}[sign]

    def test_singular_preconditioner_rejected(self, rng):
        inst = random_group_monotone(3, 2, rng)
        with pytest.raises(SingularMatrixError, match="preconditioner"):
            validate_preconditioner(inst.target, np.zeros((3, 3)))

    def test_decomposes_only_qa(self, rng, group_inverse_calls):
        inst = random_group_monotone(4, 3, rng)
        q = 2.0 * np.eye(4)
        group_inverse_calls.clear()
        validate_preconditioner(inst.target, q)
        assert len(group_inverse_calls) == 1  # the cross-check; A# is inst.target's
        np.testing.assert_array_equal(group_inverse_calls[0], q @ inst.a)

    def test_every_field_matches_its_formula(self, rng):
        # a random Q neither commutes with ex5.3's A nor keeps A# Q^-1 >= 0;
        # M (M^3)^+ M is the group inverse of an index-one M
        a = catalog.get_fixture("ex5.3").matrices["a"]
        q = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (3, 3))

        def group_inv(m):
            return m @ np.linalg.pinv(m @ m @ m, rcond=1e-10) @ m

        qa_ginv, q_inv, fro = group_inv(q @ a), np.linalg.inv(q), np.linalg.norm
        scaled, commuted = group_inv(a) @ q_inv, q_inv @ group_inv(a)
        report = validate_preconditioner(group_inverse(a), q)
        assert dataclasses.astuple(report) == pytest.approx((
            fro(q @ a - a @ q) / fro(q @ a),
            fro(qa_ginv - scaled) / fro(qa_ginv),
            fro(scaled - commuted) / fro(qa_ginv),
            bool(scaled.min() >= -DEFAULT_TOL.nonneg_tol),
        ), rel=1e-9)
        assert report.max_residual() == max(dataclasses.astuple(report)[:3])


class TestMakePreconditioner:
    def test_non_commuting_rejected(self, rng):
        inst = random_group_monotone(3, 2, rng)
        q = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
        with pytest.raises(HypothesisViolationError):
            make_preconditioner(inst.target, q)
        r = validate_preconditioner(inst.target, q).commute  # accepted at r, the bound inclusive
        make_preconditioner(group_inverse(inst.a, Tolerances(mat_eq_tol=r)), q)
        with pytest.raises(HypothesisViolationError):
            make_preconditioner(group_inverse(inst.a, Tolerances(mat_eq_tol=np.nextafter(r, 0))), q)

    def test_scaled_identity_accepted_and_used_by_solver(self, rng):
        inst = random_group_monotone(4, 3, rng)
        pre = make_preconditioner(inst.target, 2.0 * np.eye(4))
        qa = pre @ inst.a
        s = make_splitting(group_inverse(qa), qa)
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
        s_pre = make_splitting(group_inverse(q @ inst.a), 2.0 * s_plain.u)
        report = preconditioned_comparison(s_plain, q, s_pre)
        assert report.hypotheses_hold
        assert report.conclusion_lhs == pytest.approx(report.conclusion_rhs, abs=1e-10)
        assert report.conclusion_holds

    def test_mismatched_tolerances_rejected(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s_plain = random_g_regular_splitting(inst, rng)
        q = 2.0 * np.eye(4)
        s_pre = make_splitting(group_inverse(q @ inst.a, ROUNDED_TOL), 2.0 * s_plain.u)
        with pytest.raises(ValueError, match="tolerances"):
            preconditioned_comparison(s_plain, q, s_pre)

    def test_wrong_shape_preconditioner_rejected(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s_plain = random_g_regular_splitting(inst, rng)
        with pytest.raises(ValueError, match="shape mismatch"):
            preconditioned_comparison(s_plain, np.eye(3), s_plain)

    # Witnesses, one per hypothesis.  Most start from test_scaling_gives_equality,
    # where Q = 2I and K_q = 2K satisfy every hypothesis, and break one of them.

    def test_witness_plain_splitting_not_weak_regular(self, rng):
        # U = -K is proper, but U# = -K# has negative entries; Q K_q# - U# = 2 K# >= 0
        inst = random_group_monotone(4, 3, rng)
        s = random_g_regular_splitting(inst, rng)
        report = preconditioned_comparison(
            make_splitting(inst.target, -s.u), 2.0 * np.eye(4), twice(s)
        )
        assert_only_failure(report, "plain splitting G-weak regular")

    def test_witness_preconditioner_does_not_commute(self):
        # A = diag(1, 2) and the M-matrix Q = [[1, -1], [0, 1]]: QA - AQ = [[0, -1], [0, 0]];
        # A# Q^-1 = [[1, 1], [0, 0.5]] >= 0, K_q = 2Q gives Q K_q# = I / 2 >= K# = diag(1/2, 1/4)
        a, q = np.diag([1.0, 2.0]), np.array([[1.0, -1.0], [0.0, 1.0]])
        report = preconditioned_comparison(
            make_splitting(group_inverse(a), np.diag([2.0, 4.0])),
            q,
            make_splitting(group_inverse(q @ a), 2.0 * q),
        )
        assert_only_failure(report, "preconditioner commutes")
        r = failed(report)["preconditioner commutes"]
        assert r == pytest.approx(1 / 3)
        for eq_tol, holds in ((r, True), (np.nextafter(r, 0), False)):  # the bound is inclusive
            tol = Tolerances(mat_eq_tol=eq_tol)
            report = preconditioned_comparison(
                make_splitting(group_inverse(a, tol), np.diag([2.0, 4.0])),
                q,
                make_splitting(group_inverse(q @ a, tol), 2.0 * q),
            )
            assert report.hypotheses_hold is holds

    def test_witness_preconditioned_splitting_of_a(self, rng):
        # K itself, which splits A and not QA = 2A
        inst = random_group_monotone(4, 3, rng)
        s = random_g_regular_splitting(inst, rng)
        report = preconditioned_comparison(s, 2.0 * np.eye(4), s)
        assert_only_failure(report, "preconditioned splitting targets QA")
        r = failed(report)["preconditioned splitting targets QA"]
        assert r == pytest.approx(0.5)
        for eq_tol, holds in ((r, True), (np.nextafter(r, 0), False)):  # the bound is inclusive
            at_tol = make_splitting(group_inverse(inst.a, Tolerances(mat_eq_tol=eq_tol)), s.u)
            report = preconditioned_comparison(at_tol, 2.0 * np.eye(4), at_tol)
            assert report.hypotheses_hold is holds

    def test_witness_preconditioned_splitting_not_regular(self):
        # 2W for a G-weak draw W that is not G-regular: 2W is G-weak, not G-regular
        rng = np.random.default_rng(0)
        w = random_g_weak_splitting(random_group_monotone(4, 3, rng), rng)
        report = preconditioned_comparison(w, 2.0 * np.eye(4), twice(w))
        assert_only_failure(report, "preconditioned splitting G-regular")

    # The two sign hypotheses on A# and A# Q^-1 cannot fail alone when K_q
    # commutes with Q: U = Q^-1 K_q splits A with U# = Q K_q# >= K# >= 0 and
    # U#V = K_q# L_q >= 0, so it is G-weak regular with rho(U#V) = rho(K_q# L_q),
    # and for G-weak regular splittings rho < 1 exactly when the inverse is
    # nonnegative; A# >= 0 and (QA)# = A# Q^-1 >= 0 then imply each other.
    # Each witness fails the domination beside its own hypothesis.

    def test_witness_matrix_not_group_monotone(self):
        # Q = -I makes QA = -A monotone; K_q = [[0, 2], [2, 0]] splits it regularly
        report = preconditioned_comparison(
            make_splitting(group_inverse(NOT_MONOTONE), np.eye(2)),
            -np.eye(2),
            make_splitting(group_inverse(-NOT_MONOTONE), [[0.0, 2.0], [2.0, 0.0]]),
        )
        violations = failed(report)
        assert set(violations) == {
            "matrix group monotone", "scaled preconditioned inverse dominates plain inverse",
        }
        assert min(violations.values()) > 0

    def test_witness_scaled_group_inverse_not_nonnegative(self):
        # the mirror image: A = -(I - N) is monotone, QA = I - N with Q = -I is not
        report = preconditioned_comparison(
            make_splitting(group_inverse(-NOT_MONOTONE), [[0.0, 2.0], [2.0, 0.0]]),
            -np.eye(2),
            make_splitting(group_inverse(NOT_MONOTONE), np.eye(2)),
        )
        violations = failed(report)
        assert set(violations) == {
            "scaled group inverse nonnegative",
            "scaled preconditioned inverse dominates plain inverse",
        }
        assert min(violations.values()) > 0


def twice(s):
    """The splitting 2U of 2A, which Q = 2I preconditions s into."""
    return make_splitting(group_inverse(2.0 * s.a, s.target.tol), 2.0 * s.u)


def commuting_preconditioned_draw(seed, n, rank, beta_scale, plain_weak, t=None):
    """A random instance A, Q = I + beta A# with beta = beta_scale max|A|, a
    G-regular splitting K_q of QA and a plain splitting K of A, as (A#, Q, K,
    K_q, b).

    Q commutes with A, is nonsingular and nonnegative, and QA's core C + beta I
    is an M-matrix.  Without a coupling t, A is random_group_monotone's, so QA
    is a group-monotone instance on A's permutation and K_q is drawn on its own.
    With t, A = P [[C, C X], [0, 0]] P^T is random_non_ep_group_monotone's and
    QA = P [[C + beta I, (C + beta I) X], [0, 0]] P^T, so K_q = U + (QA - A) for
    a G-regular part U of A: its core U_c + beta I is an M-matrix and its V is
    U's.  K is G-weak regular when plain_weak, else G-regular.
    """
    rng = np.random.default_rng(seed)
    if t is None:
        inst = random_group_monotone(n, rank, rng)
        a, a_ginv = inst.a, inst.a_ginv
    else:
        a, a_ginv, g_regular_part, g_weak_part = random_non_ep_group_monotone(n, rank, t, rng)
    q = np.eye(n) + beta_scale * np.abs(a).max() * a_ginv
    qa = q @ a
    if t is None:
        p = inst.perm[:rank]
        qa_ginv = np.zeros((n, n))
        qa_ginv[np.ix_(p, p)] = inverse(qa[np.ix_(p, p)])
        qa_inst = GroupMonotoneInstance(
            group_inverse(qa, inst.target.tol), a_ginv=qa_ginv, rank=rank, perm=inst.perm
        )
        s_pre = random_g_regular_splitting(qa_inst, rng)
        s_plain = (random_g_weak_splitting if plain_weak else random_g_regular_splitting)(inst, rng)
    else:
        s_pre = make_splitting(group_inverse(qa), g_regular_part(rng) + (qa - a))
        plain_part = g_weak_part if plain_weak else g_regular_part
        s_plain = make_splitting(group_inverse(a), plain_part(rng))
    return a_ginv, q, s_plain, s_pre, rng.uniform(-1.0, 1.0, n)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 29),
    rank_share=st.floats(0.0, 1.0),
    beta_scale=st.floats(0.05, 5.0),
    plain_weak=st.booleans(),
    t=st.sampled_from(FAMILIES),
)
def test_preconditioning_with_commuting_q_never_slows(
    seed, n, rank_share, beta_scale, plain_weak, t
):
    # the paper's preconditioned claim: whenever every hypothesis holds,
    # rho(K_q# L_q) <= rho(K# L), and the preconditioned scheme still solves A x = b
    rank = 1 + min(n - 1, int(rank_share * n))
    a_ginv, q, s_plain, s_pre, b = commuting_preconditioned_draw(
        seed, n, rank, beta_scale, plain_weak, t
    )
    slack = s_plain.target.conditioning
    report = preconditioned_comparison(s_plain, q, s_pre)
    if report.hypotheses_hold:
        assert report.conclusion_lhs <= report.conclusion_rhs
    truth = a_ginv @ b
    scheme = Scheme((s_pre,), preconditioner=q)
    scale = np.linalg.norm(truth)
    assert np.linalg.norm(fixed_point(scheme, b) - truth) <= 1e-12 * slack * scale
    trace = iterate(scheme, b, IterationConfig(eps=1e-12))
    assert trace.converged
    assert np.linalg.norm(trace.x_final - truth) <= 1e-9 * scale
