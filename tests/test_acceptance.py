"""Acceptance suite: every criterion as one test with one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each quoted scalar is read from the catalog's ``Fixture.expected``,
value and tolerance (1e-3 against four-decimal values, widened to 5e-3 for
fixtures whose splitting parts are themselves quoted at four decimals), and
each is asserted by exactly one criterion.  Criteria 13, 15 and 16 run once
per instance family: the EP generators, and the non-EP generator at each
coupling of ``NON_EP_COUPLINGS``.
"""

import numpy as np
import pytest

from altiter import catalog
from altiter.alternating import (
    IterationConfig,
    Scheme,
    constant_term,
    iterate,
    iteration_matrix,
    random_group_monotone,
)
from altiter.analysis import induced_splitting, three_step_comparison, validate_preconditioner
from altiter.cli import main
from altiter.ginverse import group_inverse, verify_group_axioms
from altiter.kernel import inverse, is_nonneg, spectral_radius
from altiter.splittings import (
    SplittingClass,
    make_splitting,
    splitting_identity_residuals,
)
from conftest import (
    FAMILIES,
    canonical_index_one,
    pinv,
    proper_pair,
    random_g_weak_splitting,
    random_size,
    splitting_source,
)


def report(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS - {text}")


def assert_quoted(fx, key, value):
    """value reproduces the catalog's fx.expected[key] within its tolerance."""
    expected = fx.expected[key]
    assert value == pytest.approx(expected.value, abs=expected.tol), (fx.fixture_id, key)


def quoted_singles(fx):
    """The radii of fx's k, u and x splittings, each checked against its quote."""
    singles = {}
    for key in ("k", "u", "x"):
        singles[key] = Scheme((catalog.splitting_of(fx, key),)).rho
        assert_quoted(fx, f"rho_{key}", singles[key])
    return singles


def quoted_composite(fx):
    """fx's scheme and rho(H), checked against the quoted rho_h."""
    scheme = catalog.build_scheme(fx)
    rho_h = spectral_radius(iteration_matrix(scheme))
    assert_quoted(fx, "rho_h", rho_h)
    return scheme, rho_h


def family_name(t) -> str:
    return "random_group_monotone" if t is None else f"non-EP t = {t:g}"


def family_splittings(t, seed, draws, regular, count=3):
    """For each of `draws` random group-monotone targets of family t, at
    random_size(t), a tuple of `count` of its splittings: G-regular when
    regular, else G-weak regular.  A coupling t > 0 gives targets whose
    range and null space are not orthogonal.
    """
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        split = splitting_source(t, *random_size(t, rng), rng, regular)
        yield tuple(split() for _ in range(count))


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
    singles = quoted_singles(fx)
    scheme, rho_h = quoted_composite(fx)
    trace = iterate(scheme, fx.matrices["b"])
    assert not trace.converged
    assert trace.iterations == 2000
    report(2, f"ex4.1 singles converge (max {max(singles.values()):.4f}) "
              f"but rho(H)={rho_h:.4f} diverges")


def test_criterion_03_convergence_without_weak_regularity():
    fx = catalog.get_fixture("ex4.2")
    scheme, rho_h = quoted_composite(fx)
    for sp in scheme.splittings:
        assert SplittingClass.G_WEAK_REGULAR not in sp.classes
        assert SplittingClass.G_REGULAR not in sp.classes
    report(3, f"ex4.2 composite converges (rho={rho_h:.4f}) though no splitting is "
              "G-weak regular")


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
    scheme, rho_h = quoted_composite(fx)
    for sp in scheme.splittings:
        assert sp.classes == {SplittingClass.PROPER}
    report(5, f"ex4.4 composite rho={rho_h:.4f} although every splitting is proper only")


def test_criterion_06_comparison_needs_regularity():
    fx = catalog.get_fixture("ex4.5")
    singles = quoted_singles(fx)
    rep = three_step_comparison(catalog.build_scheme(fx))
    assert_quoted(fx, "rho_h", rep.conclusion_lhs)
    assert rep.conclusion_rhs == min(singles.values())
    assert not rep.conclusion_holds
    regular_checks = [h for h in rep.hypotheses if "G-regular" in h.name]
    assert regular_checks and all(not h.satisfied for h in regular_checks)
    report(6, f"ex4.5 rho(H)={rep.conclusion_lhs:.4f} exceeds min {rep.conclusion_rhs:.4f}; "
              "checker flags non-G-regularity")


def test_criterion_07_showcase_solve():
    fx = catalog.get_fixture("ex5.1")
    singles = quoted_singles(fx)
    scheme, rho_h = quoted_composite(fx)
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
    report(7, f"ex5.1 rho(H)={rho_h:.4f} <= min {min(singles.values()):.4f}; "
              f"3-step solves in {trace.iterations} iterations, fewer than any single splitting")


def test_criterion_08_group_inverse_beats_pseudoinverse():
    fx = catalog.get_fixture("ex5.2")
    a = fx.matrices["a"]
    a_pinv = pinv(a, fx.tol)
    assert not is_nonneg(a_pinv, fx.tol)
    assert is_nonneg(group_inverse(a, fx.tol).ginv, fx.tol)
    np.testing.assert_allclose(a_pinv, fx.matrices["a_pinv_ref"], atol=fx.tol.refval_tol)
    quoted_singles(fx)
    _, rho_h = quoted_composite(fx)
    report(8, f"ex5.2 pseudoinverse has negative entries, group inverse none; "
              f"rho(H)={rho_h:.4f}")


def test_criterion_09_supplied_preconditioner():
    fx = catalog.get_fixture("ex5.3")
    a, q = fx.matrices["a"], fx.matrices["q"]
    a_target = group_inverse(a, fx.tol)
    rep = validate_preconditioner(a_target, q)
    assert rep.max_residual() < fx.tol.mat_eq_tol
    assert rep.scaled_nonneg
    quoted_singles(fx)
    scheme, _ = quoted_composite(fx)
    trace = iterate(scheme, fx.matrices["b"])
    assert trace.converged
    truth = a_target.ginv @ fx.matrices["b"][:, 0]
    assert np.linalg.norm(trace.x_final - truth) < 1e-4
    report(9, "ex5.3 supplied q validates; preconditioned solve returns the original "
              "group-inverse solution")


def test_criterion_10_preconditioning_helps_monotone_systems():
    fx = catalog.get_fixture("ex5.4")
    (rep,) = catalog.comparison(fx)
    assert rep.hypotheses_hold
    dominance = [h for h in rep.hypotheses if "dominates" in h.name]
    assert dominance and dominance[0].satisfied
    assert_quoted(fx, "rho_pre", rep.conclusion_lhs)
    assert_quoted(fx, "rho_plain", rep.conclusion_rhs)
    assert rep.conclusion_holds
    report(10, f"ex5.4 scaled inverse dominance holds and "
               f"{rep.conclusion_lhs:.4f} <= {rep.conclusion_rhs:.4f}")


def test_criterion_11_nine_by_nine_chain():
    fx = catalog.get_fixture("ex5.5")
    three_two, two_one = catalog.comparison(fx)
    rho_three, rho_two = three_two.conclusion_lhs, three_two.conclusion_rhs
    assert two_one.conclusion_lhs == rho_two
    rho_one = two_one.conclusion_rhs
    assert_quoted(fx, "rho_one", rho_one)
    assert_quoted(fx, "rho_two", rho_two)
    assert_quoted(fx, "rho_three", rho_three)
    assert rho_three <= rho_two <= rho_one
    assert three_two.conclusion_holds and two_one.conclusion_holds
    report(11, f"ex5.5 chain {rho_three:.4f} <= {rho_two:.4f} <= {rho_one:.4f} reproduced")


def test_criterion_12_group_inverse_axioms_randomized():
    rng = np.random.default_rng(1201)
    ep_checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        orthogonal = trial % 2 == 0
        a, reference = canonical_index_one(n, r, rng, orthogonal=orthogonal)
        result = group_inverse(a)
        g = result.ginv
        assert (result.index, result.rank) == (int(r < n), r)
        assert verify_group_axioms(a, g).max() < 1e-8
        np.testing.assert_allclose(g, reference, atol=1e-9)
        if orthogonal:
            np.testing.assert_allclose(g, pinv(a), atol=1e-8)
            ep_checked += 1
    assert ep_checked >= 50
    report(12, f"100 random index-1 matrices satisfy the axioms; "
               f"{ep_checked} range-symmetric ones agree with the pseudoinverse")


@pytest.mark.parametrize("t", FAMILIES)
def test_criterion_13_identity_suite_randomized(t):
    if t is None:
        rng, splittings = np.random.default_rng(1301), []
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a, u = proper_pair(n, int(rng.integers(1, n + 1)), rng, scale=0.3)
            splittings.append(make_splitting(group_inverse(a), u))
    else:
        splittings = [s for s, in family_splittings(t, int(t), 40, regular=True, count=1)]
    min_sigma = np.inf
    for s in splittings:
        ident = splitting_identity_residuals(s)
        assert ident.max_residual() < 1e-8
        min_sigma = min(min_sigma, ident.sigma_min_left, ident.sigma_min_right)
    assert min_sigma > 1e-8
    source = "proper_pair" if t is None else family_name(t)
    report(13, f"{len(splittings)} random proper splittings ({source}) satisfy the identity "
               f"suite; smallest fixed-point singular value {min_sigma:.3e}")


def test_criterion_14_convergence_characterization():
    rng = np.random.default_rng(1401)
    for _ in range(100):
        n = int(rng.integers(3, 6))
        inst = random_group_monotone(n, 2, rng)
        assert is_nonneg(inst.target.ginv)
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


@pytest.mark.parametrize("t", FAMILIES)
def test_criterion_15_weak_regular_triples_converge(t):
    seed, draws = (1501, 100) if t is None else (1501 + int(t), 40)
    worst = 0.0
    for triple in family_splittings(t, seed, draws, regular=False):
        assert all(SplittingClass.G_WEAK_REGULAR in s.classes for s in triple)
        rho_h = spectral_radius(iteration_matrix(Scheme(splittings=triple)))
        worst = max(worst, rho_h)
        assert rho_h < 1.0
    report(15, f"{draws} weak regular triples of group-monotone targets ({family_name(t)}) "
               f"all converge (largest rho(H) = {worst:.4f})")


@pytest.mark.parametrize("t", FAMILIES)
def test_criterion_16_regular_triples_ordering(t):
    seed, draws = (1601, 50) if t is None else (int(t), 40)
    for triple in family_splittings(t, seed, draws, regular=True):
        scheme = Scheme(splittings=triple)
        rep = three_step_comparison(scheme)
        assert rep.hypotheses_hold and rep.conclusion_holds
        singles = [Scheme((sp,)).rho for sp in triple]
        assert max(singles) < 1.0
        assert spectral_radius(iteration_matrix(scheme)) <= min(singles) + 1e-9
        # the two-step sub-scheme obeys the same bound over its own parts
        rho_two = spectral_radius(iteration_matrix(Scheme(splittings=triple[:2])))
        assert rho_two <= min(singles[:2]) + 1e-9
    report(16, f"{draws} G-regular triples ({family_name(t)}) satisfy rho(H) <= min of "
               "the individual radii")


def test_criterion_17_staged_equals_composed():
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
        # an exactly-zero step norm may stop the sweep early; the composed
        # recurrence is then compared over the steps that actually ran
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
