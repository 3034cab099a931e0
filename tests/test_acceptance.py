"""Acceptance suite: every criterion as one test with one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are 1e-3 against quoted four-decimal values, widened to
5e-3 for fixtures whose splitting parts are themselves quoted at four
decimals, exactly as recorded in the catalog.
"""

import numpy as np
import pytest

from altiter import catalog
from altiter.alternating import (
    IterationConfig,
    Scheme,
    iterate,
    iteration_matrix,
    random_g_regular_splitting,
    random_group_monotone,
)
from altiter.analysis import induced_splitting, three_step_comparison, validate_preconditioner
from altiter.cli import main
from altiter.ginverse import group_inverse, verify_group_axioms
from altiter.kernel import (
    inverse,
    is_nonneg,
    moore_penrose,
    spectral_radius,
)
from altiter.splittings import (
    SplittingClass,
    make_splitting,
    splitting_identity_residuals,
)
from conftest import (
    NON_EP_COUPLINGS,
    canonical_index_one,
    proper_pair,
    random_g_weak_splitting,
    random_non_ep_group_monotone,
)


def report(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS - {text}")


def fixture_rho(fx, key):
    return Scheme((catalog.splitting_of(fx, key),)).rho


def test_criterion_01_weak_regular_without_regular():
    fx = catalog.get_fixture("ex3.1")
    s = catalog.splitting_of(fx, "u")
    assert s.classes == {SplittingClass.PROPER, SplittingClass.G_WEAK_REGULAR}
    np.testing.assert_allclose(
        s.u_ginv, fx.matrices["u_ginv_ref"], atol=fx.tol.refval_tol
    )
    report(1, "ex3.1 classifies proper + G-weak-regular, inverse matches reference")


def test_criterion_02_divergent_composite():
    fx = catalog.get_fixture("ex4.1")
    for key, name in (("k", "rho_k"), ("u", "rho_u"), ("x", "rho_x")):
        expected = fx.expected[name]
        assert fixture_rho(fx, key) == pytest.approx(expected.value, abs=expected.tol)
    scheme = catalog.build_scheme(fx)
    rho_h = spectral_radius(iteration_matrix(scheme))
    assert rho_h == pytest.approx(1.3579, abs=1e-3)
    trace = iterate(scheme, fx.matrices["b"])
    assert not trace.converged
    assert trace.iterations == 2000
    report(2, "ex4.1 singles converge (0.6835/0.5957/0.8452) but rho(H)=1.3579 diverges")


def test_criterion_03_convergence_without_weak_regularity():
    fx = catalog.get_fixture("ex4.2")
    scheme = catalog.build_scheme(fx)
    rho_h = spectral_radius(iteration_matrix(scheme))
    assert rho_h == pytest.approx(0.4938, abs=5e-3)
    for sp in scheme.splittings:
        assert SplittingClass.G_WEAK_REGULAR not in sp.classes
        assert SplittingClass.G_REGULAR not in sp.classes
    report(3, "ex4.2 composite converges (rho=0.4938) though no splitting is G-weak regular")


def test_criterion_04_induced_splitting_matches_reference():
    fx = catalog.get_fixture("ex4.3")
    scheme = catalog.build_scheme(fx)
    induced = induced_splitting(scheme)
    np.testing.assert_allclose(
        induced.u, fx.matrices["induced_ref"], atol=fx.tol.refval_tol
    )
    assert SplittingClass.G_WEAK_REGULAR in induced.classes
    # cross-check the two routes to the induced matrix explicitly
    first, middle, last = scheme.splittings
    a = scheme.a
    combined = first.u + last.u - a + last.v @ middle.u_ginv @ first.v
    route_formula = first.u @ group_inverse(combined, fx.tol).ginv @ last.u
    h = iteration_matrix(scheme)
    route_limit = a @ inverse(np.eye(3) - h)
    assert np.linalg.norm(route_formula - route_limit) < 1e-6
    report(4, "ex4.3 induced splitting reproduces the reference matrix, both routes agree")


def test_criterion_05_convergence_without_regularity():
    fx = catalog.get_fixture("ex4.4")
    scheme = catalog.build_scheme(fx)
    assert spectral_radius(iteration_matrix(scheme)) == pytest.approx(0.25, abs=1e-3)
    for sp in scheme.splittings:
        assert sp.classes == {SplittingClass.PROPER}
    report(5, "ex4.4 composite rho=0.25 although every splitting is proper only")


def test_criterion_06_comparison_needs_regularity():
    fx = catalog.get_fixture("ex4.5")
    for key, name in (("k", "rho_k"), ("u", "rho_u"), ("x", "rho_x")):
        expected = fx.expected[name]
        assert fixture_rho(fx, key) == pytest.approx(expected.value, abs=expected.tol)
    scheme = catalog.build_scheme(fx)
    rep = three_step_comparison(scheme)
    assert rep.conclusion_lhs == pytest.approx(1.7746, abs=5e-3)
    assert rep.conclusion_rhs == pytest.approx(1.2530, abs=5e-3)
    assert not rep.conclusion_holds
    regular_checks = [h for h in rep.hypotheses if "G-regular" in h.name]
    assert regular_checks and all(not h.satisfied for h in regular_checks)
    report(6, "ex4.5 rho(H)=1.7746 exceeds min 1.2530; checker flags non-G-regularity")


def test_criterion_07_showcase_solve():
    fx = catalog.get_fixture("ex5.1")
    singles = {}
    for key, name in (("k", "rho_k"), ("u", "rho_u"), ("x", "rho_x")):
        expected = fx.expected[name]
        singles[key] = fixture_rho(fx, key)
        assert singles[key] == pytest.approx(expected.value, abs=expected.tol)
    scheme = catalog.build_scheme(fx)
    rho_h = spectral_radius(iteration_matrix(scheme))
    assert rho_h == pytest.approx(0.0614, abs=1e-3)
    assert rho_h <= min(singles.values())
    b = fx.matrices["b"]
    truth = group_inverse(fx.matrices["a"], fx.tol).ginv @ b[:, 0]
    cfg = IterationConfig(eps=1e-6)
    trace = iterate(scheme, b, cfg)
    assert trace.converged
    assert np.linalg.norm(trace.x_final - truth) < 1e-5
    # agrees with the reference-inverse solution at quoted precision
    reference = fx.matrices["a_ginv_ref"] @ b[:, 0]
    assert np.abs(trace.x_final - reference).max() < fx.tol.refval_tol
    for key in ("k", "u", "x"):
        single_trace = iterate(
            Scheme(splittings=(catalog.splitting_of(fx, key),)), b, cfg
        )
        assert single_trace.converged
        assert trace.iterations < single_trace.iterations
    report(7, "ex5.1 rho(H)=0.0614 <= min(0.3684, 0.3983, 0.4163); "
              f"3-step solves in {trace.iterations} iterations, fewer than any single splitting")


def test_criterion_08_group_inverse_beats_pseudoinverse():
    fx = catalog.get_fixture("ex5.2")
    a = fx.matrices["a"]
    assert not is_nonneg(moore_penrose(a, fx.tol), fx.tol)
    assert is_nonneg(group_inverse(a, fx.tol).ginv, fx.tol)
    np.testing.assert_allclose(
        moore_penrose(a, fx.tol), fx.matrices["a_pinv_ref"], atol=fx.tol.refval_tol
    )
    for key, name in (("k", "rho_k"), ("u", "rho_u"), ("x", "rho_x")):
        expected = fx.expected[name]
        assert fixture_rho(fx, key) == pytest.approx(expected.value, abs=expected.tol)
    scheme = catalog.build_scheme(fx)
    assert spectral_radius(iteration_matrix(scheme)) == pytest.approx(0.1728, abs=5e-3)
    report(8, "ex5.2 pseudoinverse has negative entries, group inverse none; rho(H)=0.1728")


def test_criterion_09_supplied_preconditioner():
    fx = catalog.get_fixture("ex5.3")
    a, q = fx.matrices["a"], fx.matrices["q"]
    a_target = group_inverse(a, fx.tol)
    rep = validate_preconditioner(a_target, q)
    assert rep.max_residual() < fx.tol.mat_eq_tol
    assert rep.scaled_nonneg
    for key, name in (("k", "rho_k"), ("u", "rho_u"), ("x", "rho_x")):
        expected = fx.expected[name]
        assert fixture_rho(fx, key) == pytest.approx(expected.value, abs=expected.tol)
    scheme = catalog.build_scheme(fx)
    assert spectral_radius(iteration_matrix(scheme)) == pytest.approx(0.0203, abs=5e-3)
    trace = iterate(scheme, fx.matrices["b"])
    assert trace.converged
    truth = a_target.ginv @ fx.matrices["b"][:, 0]
    assert np.linalg.norm(trace.x_final - truth) < 1e-4
    report(9, "ex5.3 supplied q validates; preconditioned solve returns the original "
              "group-inverse solution")


def test_criterion_10_preconditioning_helps_monotone_systems():
    (rep,) = catalog.comparison(catalog.get_fixture("ex5.4"))
    assert rep.hypotheses_hold
    dominance = [h for h in rep.hypotheses if "dominates" in h.name]
    assert dominance and dominance[0].satisfied
    assert rep.conclusion_lhs == pytest.approx(0.3318, abs=5e-3)
    assert rep.conclusion_rhs == pytest.approx(0.6993, abs=5e-3)
    assert rep.conclusion_holds
    report(10, "ex5.4 scaled inverse dominance holds and 0.3318 <= 0.6993")


def test_criterion_11_nine_by_nine_chain():
    three_two, two_one = catalog.comparison(catalog.get_fixture("ex5.5"))
    rho_three, rho_two = three_two.conclusion_lhs, three_two.conclusion_rhs
    assert two_one.conclusion_lhs == rho_two
    rho_one = two_one.conclusion_rhs
    assert rho_one == pytest.approx(0.5346, abs=1e-3)
    assert rho_two == pytest.approx(0.3038, abs=1e-3)
    assert rho_three == pytest.approx(0.1513, abs=1e-3)
    assert rho_three <= rho_two <= rho_one
    assert three_two.conclusion_holds and two_one.conclusion_holds
    report(11, "ex5.5 chain 0.1513 <= 0.3038 <= 0.5346 reproduced")


def test_criterion_12_group_inverse_axioms_randomized():
    rng = np.random.default_rng(1201)
    ep_checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        orthogonal = trial % 2 == 0
        a, _ = canonical_index_one(n, r, rng, orthogonal=orthogonal)
        g = group_inverse(a).ginv
        assert verify_group_axioms(a, g).max() < 1e-8
        if orthogonal:
            np.testing.assert_allclose(g, moore_penrose(a), atol=1e-8)
            ep_checked += 1
    assert ep_checked >= 50
    report(12, f"100 random index-1 matrices satisfy the axioms; "
               f"{ep_checked} range-symmetric ones agree with the pseudoinverse")


def test_criterion_13_identity_suite_randomized():
    rng = np.random.default_rng(1301)
    min_sigma = np.inf
    for _ in range(100):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        a, u = proper_pair(n, r, rng, scale=0.3)
        ident = splitting_identity_residuals(make_splitting(group_inverse(a), u))
        assert ident.max_residual() < 1e-8
        min_sigma = min(min_sigma, ident.sigma_min_left, ident.sigma_min_right)
    assert min_sigma > 1e-8
    report(13, f"100 random proper splittings satisfy the identity suite; "
               f"smallest fixed-point singular value {min_sigma:.3e}")


def test_criterion_14_convergence_characterization():
    rng = np.random.default_rng(1401)
    for _ in range(100):
        n = int(rng.integers(3, 6))
        inst = random_group_monotone(n, 2, rng)
        s = random_g_weak_splitting(inst, rng)
        assert SplittingClass.G_WEAK_REGULAR in s.classes
        assert Scheme((s,)).rho < 1.0
    # counterpart without group monotonicity: radius at least one
    a = np.diag([-1.0, 1.0, 0.0])
    s = make_splitting(group_inverse(a), np.diag([1.0, 2.0, 0.0]))
    assert SplittingClass.G_WEAK_REGULAR in s.classes
    assert not is_nonneg(group_inverse(a).ginv)
    assert Scheme((s,)).rho >= 1.0
    report(14, "generated weak regular splittings converge on 100/100 group-monotone "
               "targets; a non-group-monotone counterpart yields radius >= 1")


def test_criterion_15_weak_regular_triples_converge():
    rng = np.random.default_rng(1501)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(2, n))
        inst = random_group_monotone(n, r, rng)
        triple = tuple(random_g_weak_splitting(inst, rng) for _ in range(3))
        rho_h = spectral_radius(iteration_matrix(Scheme(splittings=triple)))
        worst = max(worst, rho_h)
        assert rho_h < 1.0
    report(15, f"100 weak regular triples of group-monotone targets all converge "
               f"(largest rho(H) = {worst:.4f})")


@pytest.mark.parametrize("t", NON_EP_COUPLINGS)
def test_criterion_15_non_ep_weak_triples_converge(t):
    # criterion 15 on A = P [[C, C X], [0, 0]] P^T with X = t U(0, 1), whose
    # range and null space are not orthogonal when t > 0
    rng = np.random.default_rng(1501 + int(t))
    for _ in range(40):
        n = int(rng.integers(3, 40))
        a, _, _, g_weak_part = random_non_ep_group_monotone(n, int(rng.integers(1, n)), t, rng)
        target = group_inverse(a)
        triple = tuple(make_splitting(target, g_weak_part(rng)) for _ in range(3))
        assert all(SplittingClass.G_WEAK_REGULAR in s.classes for s in triple)
        assert spectral_radius(iteration_matrix(Scheme(splittings=triple))) < 1.0


def test_criterion_16_regular_triples_ordering():
    rng = np.random.default_rng(1601)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(2, n))
        inst = random_group_monotone(n, r, rng)
        triple = tuple(random_g_regular_splitting(inst, rng) for _ in range(3))
        scheme = Scheme(splittings=triple)
        rep = three_step_comparison(scheme)
        assert rep.hypotheses_hold
        singles = [Scheme((sp,)).rho for sp in triple]
        assert spectral_radius(iteration_matrix(scheme)) <= min(singles) + 1e-9
        # the two-step sub-scheme obeys the same bound over its own parts
        rho_two = spectral_radius(iteration_matrix(Scheme(splittings=triple[:2])))
        assert rho_two <= min(singles[:2]) + 1e-9
    report(16, "50 G-regular triples satisfy rho(H) <= min of the individual radii")


def test_criterion_17_staged_equals_composed():
    from altiter.alternating import constant_term

    rng = np.random.default_rng(1701)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(2, n))
        inst = random_group_monotone(n, r, rng)
        steps = int(rng.integers(1, 4))
        scheme = Scheme(splittings=tuple(
            random_g_weak_splitting(inst, rng) for _ in range(steps)
        ))
        b = rng.uniform(-1.0, 1.0, n)
        trace = iterate(scheme, b, IterationConfig(eps=1e-300, max_iter=50))
        h, c = iteration_matrix(scheme), constant_term(scheme, b)
        x = np.zeros(n)
        for _ in range(trace.iterations):
            x = h @ x + c
        assert np.abs(trace.x_final - x).max() < 1e-10
    report(17, "20 random schemes: staged sweeps equal the composed recurrence to 1e-10")


def test_criterion_18_bench_determinism(tmp_path):
    def strip_timing(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("elapsed_seconds")
        return [",".join(col for i, col in enumerate(line.split(",")) if i != drop)
                for line in lines]

    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["bench", "--n", "6", "--seed", "42", "--trials", "4",
                 "--out", str(first)]) == 0
    assert main(["bench", "--n", "6", "--seed", "42", "--trials", "4",
                 "--out", str(second)]) == 0
    assert strip_timing(first) == strip_timing(second)
    assert len(first.read_text().splitlines()) == 13
    report(18, "bench output is identical across runs up to the timing column")
