import numpy as np
import pytest

from altiter import catalog
from altiter.alternating import (
    Scheme,
    constant_term,
    fixed_point,
    iteration_matrix,
)
from altiter.analysis import (
    compare_splittings,
    induced_splitting,
    three_step_comparison,
    validate_preconditioner,
)
from altiter.errors import HypothesisViolationError
from altiter.ginverse import group_inverse, verify_group_axioms
from altiter.kernel import (
    neg_violation,
    range_null_bases,
    solve_square,
    spectral_radius,
    within_nonneg_tol,
)
from altiter.splittings import SplittingClass, splitting_identity_residuals
import exact
from conftest import pinv

TRIPLE_IDS = ("ex4.1", "ex4.2", "ex4.3", "ex4.4", "ex4.5", "ex5.1", "ex5.2", "ex5.3", "ex5.5")


def test_registry_is_complete():
    assert catalog.fixture_ids() == (
        "ex3.1", "ex4.1", "ex4.2", "ex4.3", "ex4.4", "ex4.5",
        "ex5.1", "ex5.2", "ex5.3", "ex5.4", "ex5.5",
    )


def test_unknown_id_lists_alternatives():
    with pytest.raises(KeyError, match="ex5.1"):
        catalog.get_fixture("nope")


def test_preconditioned_part_splits_qa(group_inverse_calls):
    fx = catalog.get_fixture("ex5.4")
    s = catalog.splitting_of(fx, "k_pre")
    assert len(group_inverse_calls) == 1
    np.testing.assert_array_equal(group_inverse_calls[0], fx.matrices["q"] @ fx.matrices["a"])
    np.testing.assert_array_equal(s.a, fx.matrices["q"] @ fx.matrices["a"])
    assert s.target.tol == fx.tol


def test_every_quoted_scalar_carries_its_fixtures_reference_slack():
    # Expected.tol copies fx.tol.refval_tol, which the benchmark's checks also read
    fixtures = [catalog.get_fixture(fid) for fid in catalog.fixture_ids()]
    quoted = [
        (fx.fixture_id, name, expected.tol, fx.tol.refval_tol)
        for fx in fixtures
        for name, expected in fx.expected.items()
    ]
    assert len(quoted) == 27
    assert [q for q in quoted if q[2] != q[3]] == []


@pytest.mark.parametrize("fixture_id", catalog.fixture_ids())
def test_every_quoted_splitting_validates(fixture_id):
    fx = catalog.get_fixture(fixture_id)
    for key in ("k", "u", "x"):
        if key in fx.matrices:
            s = catalog.splitting_of(fx, key)
            assert SplittingClass.PROPER in s.classes


#: the fixtures whose parts are not rounded to four decimals, with their parts
EXACT_PARTS = [
    (fixture_id, key)
    for fixture_id in ("ex3.1", "ex4.1", "ex4.3", "ex4.4", "ex5.1", "ex5.5")
    for key in catalog.get_fixture(fixture_id).scheme_order
]


@pytest.mark.parametrize("fixture_id,key", EXACT_PARTS)
def test_float_classes_and_inverses_match_the_exact_ones(fixture_id, key):
    # every float sign test at nonneg_tol against the exact signs of U#, V and U#V
    fx = catalog.get_fixture(fixture_id)
    a, u = exact.rationalize(fx.target()), exact.rationalize(fx.matrices[key])
    s = catalog.splitting_of(fx, key)
    assert s.classes == exact.classes(a, u)
    for computed, m in ((s.target.ginv, a), (s.u_ginv, u)):
        reference = np.array(exact.group_inverse(m), dtype=float)
        atol = 1e-12 * np.abs(reference).max()
        np.testing.assert_allclose(computed, reference, rtol=0, atol=atol)


def test_identity_suite_on_exact_fixtures():
    for fixture_id in ("ex3.1", "ex4.3", "ex5.1"):
        fx = catalog.get_fixture(fixture_id)
        for key in ("k", "u", "x"):
            if key in fx.matrices:
                ident = splitting_identity_residuals(catalog.splitting_of(fx, key))
                assert ident.max_residual() < 1e-8
                assert min(ident.sigma_min_left, ident.sigma_min_right) > 1e-3


def test_preconditioned_fixture_targets_qa():
    fx = catalog.get_fixture("ex5.3")
    np.testing.assert_array_equal(fx.target(), fx.matrices["q"] @ fx.matrices["a"])
    scheme = catalog.build_scheme(fx)
    np.testing.assert_array_equal(scheme.preconditioner, fx.matrices["q"])


def test_reference_matrices_are_read_only():
    fx = catalog.get_fixture("ex5.1")
    with pytest.raises(ValueError):
        fx.matrices["a"][0, 0] = 99.0


@pytest.mark.parametrize("fixture_id", ("ex4.3", "ex4.5", "ex5.1", "ex5.2", "ex5.3", "ex5.4"))
def test_group_inverse_matches_reference(fixture_id):
    fx = catalog.get_fixture(fixture_id)
    g = group_inverse(fx.matrices["a"], fx.tol).ginv
    np.testing.assert_allclose(g, fx.matrices["a_ginv_ref"], atol=fx.tol.refval_tol)


def test_ex31_range_basis_shape_and_sign_structure():
    fx = catalog.get_fixture("ex3.1")
    assert range_null_bases(fx.matrices["a"])[0].shape == (3, 2)
    s = catalog.splitting_of(fx, "u")
    # the iteration factor is nonnegative although the remainder is not
    assert iteration_matrix(Scheme((s,))).min() >= -fx.tol.nonneg_tol
    assert s.v.min() < -fx.tol.nonneg_tol


def test_ex43_is_range_symmetric_and_solve_recovers_target_inverse():
    fx = catalog.get_fixture("ex4.3")
    a = fx.matrices["a"]
    # range-symmetric: A A+ = A+ A, both the projector onto R(A)
    assert verify_group_axioms(a, pinv(a, fx.tol)).commutator < fx.tol.mat_eq_tol
    # reference inverse of the induced matrix: feeding it back through
    # (I - H) x = B# recovers the group inverse of the target
    scheme = catalog.build_scheme(fx)
    h = iteration_matrix(scheme)
    induced = induced_splitting(scheme)
    induced_ginv = group_inverse(induced.u, fx.tol).ginv
    recovered = solve_square(np.eye(3) - h, induced_ginv)
    np.testing.assert_allclose(
        recovered, group_inverse(fx.matrices["a"]).ginv, atol=1e-9
    )
    np.testing.assert_allclose(
        (np.eye(3) - h) @ group_inverse(fx.matrices["a"]).ginv,
        induced_ginv,
        atol=1e-9,
    )


def test_ex43_scalar_preconditioners():
    # A# >= 0, so +I serves A and -2I serves -A: A# Q^-1 >= 0 in both
    a = catalog.get_fixture("ex4.3").matrices["a"]
    assert validate_preconditioner(group_inverse(a), np.eye(3)).scaled_nonneg
    report = validate_preconditioner(group_inverse(-a), -2.0 * np.eye(3))
    assert report.commute == 0.0
    assert report.scaled_nonneg


def test_ex51_constant_term_and_fixed_point():
    fx = catalog.get_fixture("ex5.1")
    b = fx.matrices["b"]
    scheme = catalog.build_scheme(fx)
    truth = group_inverse(fx.matrices["a"]).ginv @ b[:, 0]
    fp = fixed_point(scheme, b)
    np.testing.assert_allclose(fp, truth, atol=1e-10)
    h, c = iteration_matrix(scheme), constant_term(scheme, b)
    np.testing.assert_allclose(solve_square(np.eye(3) - h, c), truth, atol=1e-10)
    # derived from the reference inverse at quoted precision
    np.testing.assert_allclose(fp, [0.2162, 0.0811, 0.1352], atol=1e-3)
    # one-step constant term on the u splitting is its inverse times b
    s_u = catalog.splitting_of(fx, "u")
    c_one = constant_term(Scheme(splittings=(s_u,)), b)
    np.testing.assert_allclose(c_one, s_u.u_ginv @ b[:, 0], atol=1e-13)
    np.testing.assert_allclose(c_one, fx.matrices["u_ginv_ref"] @ b[:, 0], atol=1e-3)


def test_ex51_induced_splitting_comparison():
    fx = catalog.get_fixture("ex5.1")
    scheme = catalog.build_scheme(fx)
    induced = induced_splitting(scheme)
    s_u = catalog.splitting_of(fx, "u")
    report = compare_splittings(induced, s_u)
    assert report.hypotheses_hold
    # the induced factor reproduces the composite iteration matrix
    rho_h = spectral_radius(iteration_matrix(scheme))
    assert report.conclusion_lhs == pytest.approx(rho_h, abs=1e-9)
    assert report.conclusion_rhs == Scheme((s_u,)).rho
    assert report.conclusion_holds


def test_ex51_three_step_comparison_hypotheses_hold():
    fx = catalog.get_fixture("ex5.1")
    report = three_step_comparison(catalog.build_scheme(fx))
    assert report.hypotheses_hold and report.conclusion_holds


def test_ex44_comparison_converse_fails():
    fx = catalog.get_fixture("ex4.4")
    report = three_step_comparison(catalog.build_scheme(fx))
    assert not report.hypotheses_hold
    assert report.conclusion_lhs < 1.0


def test_ex52_not_range_symmetric_and_pseudoinverse_fails_commutation():
    fx = catalog.get_fixture("ex5.2")
    a = fx.matrices["a"]
    # not range-symmetric: A A+ and A+ A differ
    residuals = verify_group_axioms(a, pinv(a, fx.tol))
    assert residuals.commutator > 1e-3


def test_ex53_scalar_preconditioner_impossible():
    # A# has mixed signs, so neither +I nor -I makes A# Q^-1 >= 0; the supplied q does
    fx = catalog.get_fixture("ex5.3")
    target = group_inverse(fx.matrices["a"])
    assert target.ginv.min() < 0 < target.ginv.max()
    for sign in (1.0, -1.0):
        assert not validate_preconditioner(target, sign * np.eye(3)).scaled_nonneg
    assert validate_preconditioner(target, fx.matrices["q"]).scaled_nonneg


#: the induced splitting's error on the fixtures whose parts are not G-weak regular
INDUCED_FAILURES = {
    "ex4.1": "first splitting G-weak regular (violation 3.886e-01), "
    "middle splitting G-weak regular (violation 6.050e-01), "
    "last splitting G-weak regular (violation 1.141e-01)",
    "ex4.4": "first splitting G-weak regular (violation 7.800e-01), "
    "middle splitting G-weak regular (violation 6.800e-01), "
    "last splitting G-weak regular (violation 6.300e-01), "
    "matrix group monotone (violation 1.080e+00)",
}


@pytest.mark.parametrize("fixture_id", TRIPLE_IDS)
def test_induced_splitting_names_exactly_the_failed_weak_hypotheses(fixture_id):
    # each G-weak hypothesis read from the parts and from A# directly;
    # every catalog combination M keeps the range and null space of A
    scheme = catalog.build_scheme(catalog.get_fixture(fixture_id))
    target = scheme.splittings[0].target
    assert three_step_comparison(scheme).hypotheses[-1].satisfied
    violations = [
        (f"{place} splitting G-weak regular", sp.weak_violation)
        for place, sp in zip(("first", "middle", "last"), scheme.splittings)
    ] + [("matrix group monotone", neg_violation(target.ginv))]
    failed = ", ".join(
        f"{name} (violation {v:.3e})"
        for name, v in violations
        if not within_nonneg_tol(v, target.tol)
    )
    assert failed == INDUCED_FAILURES.get(fixture_id, failed)
    assert bool(failed) == (fixture_id in ("ex4.1", "ex4.2", "ex4.4", "ex4.5"))
    if not failed:
        assert induced_splitting(scheme).target is target
        return
    with pytest.raises(HypothesisViolationError) as info:
        induced_splitting(scheme)
    assert str(info.value) == f"the induced splitting's hypotheses fail: {failed}"


def test_ex53_preconditioned_scheme_induces_weak_regular_splitting():
    fx = catalog.get_fixture("ex5.3")
    induced = induced_splitting(catalog.build_scheme(fx))
    assert SplittingClass.G_WEAK_REGULAR in induced.classes


def test_ex41_fixed_point_refuses_divergent_scheme():
    from altiter.errors import DivergentSchemeError

    fx = catalog.get_fixture("ex4.1")
    with pytest.raises(DivergentSchemeError):
        fixed_point(catalog.build_scheme(fx), fx.matrices["b"])


def test_ex54_preconditioned_inverse_matches_reference():
    fx = catalog.get_fixture("ex5.4")
    qa = fx.matrices["q"] @ fx.matrices["a"]
    g = group_inverse(qa, fx.tol).ginv
    np.testing.assert_allclose(g, fx.matrices["qa_ginv_ref"], atol=fx.tol.refval_tol)
