import numpy as np
import pytest

from altiter import catalog
from altiter.alternating import (
    constant_term,
    fixed_point,
    induced_splitting,
    iteration_matrix,
)
from altiter.analysis import (
    build_scalar_preconditioner,
    compare_splittings,
    three_step_comparison,
)
from altiter.errors import UnsupportedSignError
from altiter.ginverse import group_inverse, is_ep, verify_group_axioms
from altiter.kernel import (
    moore_penrose,
    range_null_bases,
    solve_square,
    spectral_radius,
)
from altiter.splittings import SplittingClass, splitting_identity_residuals

TRIPLE_IDS = ("ex4.1", "ex4.2", "ex4.3", "ex4.4", "ex4.5", "ex5.1", "ex5.2", "ex5.3", "ex5.5")


def test_registry_is_complete():
    assert catalog.fixture_ids() == (
        "ex3.1", "ex4.1", "ex4.2", "ex4.3", "ex4.4", "ex4.5",
        "ex5.1", "ex5.2", "ex5.3", "ex5.4", "ex5.5",
    )


def test_unknown_id_lists_alternatives():
    with pytest.raises(KeyError, match="ex5.1"):
        catalog.get_fixture("nope")


@pytest.mark.parametrize("fixture_id", catalog.fixture_ids())
def test_every_quoted_splitting_validates(fixture_id):
    fx = catalog.get_fixture(fixture_id)
    for key in ("k", "u", "x"):
        if key in fx.matrices:
            s = catalog.splitting_of(fx, key)
            assert SplittingClass.PROPER in s.classes


@pytest.mark.parametrize("fixture_id", TRIPLE_IDS)
def test_single_splitting_radii_reproduce(fixture_id):
    fx = catalog.get_fixture(fixture_id)
    for key, name in (("k", "rho_k"), ("u", "rho_u"), ("x", "rho_x")):
        if name in fx.expected:
            expected = fx.expected[name]
            rho = spectral_radius(catalog.splitting_of(fx, key).iteration_factor)
            assert rho == pytest.approx(expected.value, abs=expected.tol), name


@pytest.mark.parametrize("fixture_id", TRIPLE_IDS)
def test_composite_radius_reproduces(fixture_id):
    fx = catalog.get_fixture(fixture_id)
    if "rho_h" not in fx.expected:
        return
    expected = fx.expected["rho_h"]
    scheme = catalog.build_scheme(fx)
    rho = spectral_radius(iteration_matrix(scheme))
    assert rho == pytest.approx(expected.value, abs=expected.tol)


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
    assert s.iteration_factor.min() >= -fx.tol.nonneg_tol
    assert s.v.min() < -fx.tol.nonneg_tol


def test_ex43_is_range_symmetric_and_solve_recovers_target_inverse():
    fx = catalog.get_fixture("ex4.3")
    assert is_ep(fx.matrices["a"])
    # reference inverse of the induced matrix: feeding it back through
    # (I - H) x = B# recovers the group inverse of the target
    scheme = catalog.build_scheme(fx)
    h = iteration_matrix(scheme)
    induced = induced_splitting(scheme, fx.tol)
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
    fx = catalog.get_fixture("ex4.3")
    a = fx.matrices["a"]
    np.testing.assert_allclose(build_scalar_preconditioner(a, 1.0), np.eye(3))
    pre = build_scalar_preconditioner(-a, 2.0)
    np.testing.assert_allclose(pre, -2.0 * np.eye(3))
    g = group_inverse(pre @ (-a)).ginv
    assert g.min() >= -1e-10


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
    from altiter.alternating import Scheme

    c_one = constant_term(Scheme(splittings=(s_u,)), b)
    np.testing.assert_allclose(c_one, s_u.u_ginv @ b[:, 0], atol=1e-13)
    np.testing.assert_allclose(c_one, fx.matrices["u_ginv_ref"] @ b[:, 0], atol=1e-3)


def test_ex51_second_splitting_is_fully_regular():
    fx = catalog.get_fixture("ex5.1")
    s = catalog.splitting_of(fx, "u")
    assert s.classes == {
        SplittingClass.PROPER,
        SplittingClass.G_REGULAR,
        SplittingClass.G_WEAK_REGULAR,
    }


def test_ex51_induced_splitting_comparison():
    fx = catalog.get_fixture("ex5.1")
    scheme = catalog.build_scheme(fx)
    induced = induced_splitting(scheme, fx.tol)
    report = compare_splittings(induced, catalog.splitting_of(fx, "u"), fx.tol)
    assert report.hypotheses_hold
    assert report.conclusion_lhs == pytest.approx(0.0614, abs=1e-3)
    assert report.conclusion_rhs == pytest.approx(0.3983, abs=1e-3)
    assert report.conclusion_holds
    # the induced factor reproduces the composite iteration matrix
    np.testing.assert_allclose(
        spectral_radius(induced.iteration_factor),
        spectral_radius(iteration_matrix(scheme)),
        atol=1e-9,
    )


def test_ex51_three_step_comparison_hypotheses_hold():
    fx = catalog.get_fixture("ex5.1")
    report = three_step_comparison(catalog.build_scheme(fx), fx.tol)
    assert report.hypotheses_hold and report.conclusion_holds


def test_ex44_comparison_converse_fails():
    fx = catalog.get_fixture("ex4.4")
    report = three_step_comparison(catalog.build_scheme(fx), fx.tol)
    assert not report.hypotheses_hold
    assert report.conclusion_lhs == pytest.approx(0.25, abs=1e-3)
    assert report.conclusion_lhs < 1.0


def test_ex52_not_range_symmetric_and_pseudoinverse_fails_commutation():
    fx = catalog.get_fixture("ex5.2")
    a = fx.matrices["a"]
    assert not is_ep(a)
    residuals = verify_group_axioms(a, moore_penrose(a, fx.tol))
    assert residuals.commutator > 1e-3


def test_ex53_scalar_preconditioner_impossible():
    fx = catalog.get_fixture("ex5.3")
    with pytest.raises(UnsupportedSignError):
        build_scalar_preconditioner(fx.matrices["a"], 1.0)


def test_ex53_preconditioned_fixed_point_recovers_original_solution():
    fx = catalog.get_fixture("ex5.3")
    scheme = catalog.build_scheme(fx)
    truth = group_inverse(fx.matrices["a"]).ginv @ fx.matrices["b"][:, 0]
    np.testing.assert_allclose(fixed_point(scheme, fx.matrices["b"]), truth, atol=1e-4)


def test_ex53_preconditioned_scheme_induces_weak_regular_splitting():
    fx = catalog.get_fixture("ex5.3")
    induced = induced_splitting(catalog.build_scheme(fx), fx.tol)
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
