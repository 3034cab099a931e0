import warnings

import numpy as np
import pytest

from altiter import alternating, catalog
from altiter.alternating import (
    IterationConfig,
    Scheme,
    constant_term,
    fixed_point,
    induced_splitting,
    iterate,
    iteration_matrix,
    random_g_regular_splitting,
    random_g_weak_splitting,
    random_group_monotone,
)
from altiter.analysis import three_step_comparison
from altiter.errors import CrossCheckError, DivergentSchemeError, HypothesisViolationError
from altiter.ginverse import group_inverse, matrix_index
from altiter.kernel import is_nonneg, spectral_radius
from altiter.splittings import SplittingClass, make_splitting


def weak_scheme(rng, n=5, r=3, steps=3):
    inst = random_group_monotone(n, r, rng)
    splittings = tuple(random_g_weak_splitting(inst, rng) for _ in range(steps))
    return inst, Scheme(splittings=splittings)


class TestScheme:
    def test_rejects_empty_and_overlong(self, rng):
        inst = random_group_monotone(3, 2, rng)
        s = make_splitting(inst.a, inst.a)
        with pytest.raises(ValueError):
            Scheme(splittings=())
        with pytest.raises(ValueError):
            Scheme(splittings=(s, s, s, s))

    def test_rejects_mismatched_targets(self, rng):
        a = random_group_monotone(3, 2, rng)
        b = random_group_monotone(3, 2, rng)
        with pytest.raises(ValueError):
            Scheme(splittings=(make_splitting(a.a, a.a), make_splitting(b.a, b.a)))


class TestSchemeRho:
    def test_computed_once_per_scheme(self, rng, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return spectral_radius(m)

        inst, scheme = weak_scheme(rng)
        monkeypatch.setattr(alternating, "spectral_radius", counting)
        first = iterate(scheme, rng.uniform(-1, 1, 5))
        second = iterate(scheme, rng.uniform(-1, 1, 5))
        assert len(calls) == 1
        assert first.rho_h == second.rho_h == scheme.rho

    def test_trace_reports_exact_radius_of_h(self, rng):
        inst, scheme = weak_scheme(rng)
        trace = iterate(scheme, rng.uniform(-1, 1, 5))
        assert trace.rho_h == spectral_radius(iteration_matrix(scheme))

    def test_keeps_only_the_float(self, rng):
        inst, scheme = weak_scheme(rng)
        scheme.rho
        cached = {k: v for k, v in vars(scheme).items()
                  if k not in ("splittings", "preconditioner")}
        assert cached == {"rho": scheme.rho} and type(scheme.rho) is float

    def test_three_step_comparison_reports_scheme_rho(self):
        fx = catalog.get_fixture("ex5.1")
        scheme = catalog.build_scheme(fx)
        assert three_step_comparison(scheme, fx.tol).conclusion_lhs == scheme.rho


class TestIterationMatrix:
    def test_trivial_scheme_vanishes(self, rng):
        inst = random_group_monotone(4, 2, rng)
        s = make_splitting(inst.a, inst.a)
        h = iteration_matrix(Scheme(splittings=(s, s, s)))
        np.testing.assert_allclose(h, 0.0, atol=1e-14)

    def test_reverse_order_composition(self, rng):
        inst, scheme = weak_scheme(rng)
        f1, f2, f3 = (sp.iteration_factor for sp in scheme.splittings)
        np.testing.assert_allclose(iteration_matrix(scheme), f3 @ f2 @ f1, atol=1e-13)


class TestConstantTerm:
    def test_trivial_scheme_gives_group_solution(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(inst.a, inst.a)
        b = rng.uniform(-1, 1, 4)
        c = constant_term(Scheme(splittings=(s, s, s)), b)
        np.testing.assert_allclose(c, inst.a_ginv @ b, atol=1e-10)

    def test_one_step_term_is_scaled_rhs(self, rng):
        inst, scheme = weak_scheme(rng, steps=1)
        b = rng.uniform(-1, 1, 5)
        np.testing.assert_allclose(
            constant_term(scheme, b), scheme.splittings[0].u_ginv @ b, atol=1e-13
        )

    def test_fixed_point_identity(self, rng):
        inst, scheme = weak_scheme(rng)
        b = rng.uniform(-1, 1, 5)
        h = iteration_matrix(scheme)
        fp = fixed_point(scheme, b)
        np.testing.assert_allclose((np.eye(5) - h) @ fp, constant_term(scheme, b), atol=1e-12)


class TestIterate:
    def test_zero_rhs_converges_immediately(self, rng):
        inst, scheme = weak_scheme(rng)
        trace = iterate(scheme, np.zeros(5))
        assert trace.converged and trace.iterations == 1
        np.testing.assert_allclose(trace.x_final, 0.0)

    def test_converges_to_group_solution(self, rng):
        inst, scheme = weak_scheme(rng)
        b = rng.uniform(-1, 1, 5)
        trace = iterate(scheme, b, IterationConfig(eps=1e-10))
        assert trace.converged
        assert np.linalg.norm(trace.x_final - fixed_point(scheme, b)) < 1e-6
        assert np.linalg.norm(trace.x_final - inst.a_ginv @ b) < 1e-6

    def test_staged_equals_composed_recurrence(self, rng):
        # an exactly-zero step norm may stop the sweep early; the composed
        # recurrence is then compared over the steps that actually ran
        for _ in range(5):
            inst, scheme = weak_scheme(rng)
            b = rng.uniform(-1, 1, 5)
            trace = iterate(scheme, b, IterationConfig(eps=1e-300, max_iter=50))
            h, c = iteration_matrix(scheme), constant_term(scheme, b)
            x = np.zeros(5)
            for _ in range(trace.iterations):
                x = h @ x + c
            np.testing.assert_allclose(trace.x_final, x, atol=1e-10)

    def test_divergent_scheme_reports_not_raises(self):
        a = np.diag([-1.0, 1.0])
        s = make_splitting(a, np.diag([1.0, 2.0]))
        trace = iterate(Scheme(splittings=(s,)), np.array([1.0, 1.0]),
                        IterationConfig(max_iter=50))
        assert not trace.converged
        assert trace.iterations == 50
        assert trace.rho_h >= 1.0

    def test_divergent_run_emits_no_warning(self):
        fx = catalog.get_fixture("ex4.1")  # step norms overflow from iteration 1167
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = iterate(catalog.build_scheme(fx), fx.matrices["b"])
        assert not trace.converged and trace.iterations == 2000
        assert not np.isfinite(trace.step_norms[-1])

    def test_custom_start_vector(self, rng):
        inst, scheme = weak_scheme(rng)
        b = rng.uniform(-1, 1, 5)
        start = rng.uniform(-5, 5, 5)
        trace = iterate(scheme, b, IterationConfig(x0=start, eps=1e-10))
        assert trace.converged
        assert np.linalg.norm(trace.x_final - inst.a_ginv @ b) < 1e-6

    def test_trace_invariants(self, rng):
        inst, scheme = weak_scheme(rng)
        b = rng.uniform(-1, 1, 5)
        trace = iterate(scheme, b)
        assert trace.iterations == len(trace.step_norms) <= 2000
        assert trace.converged == (trace.step_norms[-1] <= 1e-6)
        assert trace.elapsed_seconds >= 0.0


class TestFixedPoint:
    def test_trivial_scheme(self, rng):
        inst = random_group_monotone(4, 2, rng)
        s = make_splitting(inst.a, inst.a)
        b = rng.uniform(-1, 1, 4)
        np.testing.assert_allclose(
            fixed_point(Scheme(splittings=(s,)), b), inst.a_ginv @ b, atol=1e-10
        )

    def test_divergent_raises(self):
        a = np.diag([-1.0, 1.0])
        s = make_splitting(a, np.diag([1.0, 2.0]))
        with pytest.raises(DivergentSchemeError):
            fixed_point(Scheme(splittings=(s,)), np.ones(2))


class TestInducedSplitting:
    def test_trivial_scheme_returns_target(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(inst.a, inst.a)
        induced = induced_splitting(Scheme(splittings=(s, s, s)))
        np.testing.assert_allclose(induced.u, inst.a, atol=1e-9)
        np.testing.assert_allclose(induced.v, 0.0, atol=1e-9)

    def test_reproduces_composite_iteration_matrix(self, rng):
        inst, scheme = weak_scheme(rng)
        induced = induced_splitting(scheme)
        assert SplittingClass.G_WEAK_REGULAR in induced.classes
        np.testing.assert_allclose(
            induced.iteration_factor, iteration_matrix(scheme), atol=1e-8
        )

    def test_disagreeing_routes_raise_cross_check_error(self, rng, monkeypatch):
        # halving H moves A (I - H)^-1 away from K M# X, which does not read H
        inst, scheme = weak_scheme(rng)
        exact = alternating.iteration_matrix
        monkeypatch.setattr(alternating, "iteration_matrix", lambda s: 0.5 * exact(s))
        with pytest.raises(CrossCheckError, match="routes disagree"):
            induced_splitting(scheme)

    def test_rejects_two_step_schemes(self, rng):
        inst, scheme = weak_scheme(rng, steps=2)
        with pytest.raises(ValueError):
            induced_splitting(scheme)

    def test_rejects_non_weak_regular_components(self, rng):
        a = np.diag([-1.0, 1.0, 0.0])
        s = make_splitting(a, np.diag([-2.0, 2.0, 0.0]))
        assert SplittingClass.G_WEAK_REGULAR not in s.classes
        with pytest.raises(HypothesisViolationError):
            induced_splitting(Scheme(splittings=(s, s, s)))


class TestRandomInstances:
    def test_group_monotone_by_construction(self, rng):
        for _ in range(10):
            inst = random_group_monotone(6, 4, rng)
            assert matrix_index(inst.a) == 1
            g = group_inverse(inst.a).ginv
            np.testing.assert_allclose(g, inst.a_ginv, atol=1e-9)
            assert is_nonneg(g)

    def test_full_rank_instance_is_nonsingular(self, rng):
        inst = random_group_monotone(4, 4, rng)
        assert matrix_index(inst.a) == 0
        assert is_nonneg(np.linalg.inv(inst.a))

    def test_g_regular_constructor(self, rng):
        for _ in range(20):
            inst = random_group_monotone(5, 3, rng)
            s = random_g_regular_splitting(inst, rng)
            assert SplittingClass.G_REGULAR in s.classes
            assert SplittingClass.G_WEAK_REGULAR in s.classes

    def test_g_weak_constructor(self, rng):
        regular = 0
        for _ in range(20):
            inst = random_group_monotone(5, 3, rng)
            s = random_g_weak_splitting(inst, rng)
            assert SplittingClass.G_WEAK_REGULAR in s.classes
            regular += SplittingClass.G_REGULAR in s.classes
        assert regular < 20  # the constructor explores beyond the regular class

    def test_shared_target_gives_identical_splittings(self, group_inverse_calls):
        draw = random_g_regular_splitting
        inst = random_group_monotone(6, 4, np.random.default_rng(3))
        own = [draw(inst, np.random.default_rng(seed)) for seed in range(3)]
        assert len(group_inverse_calls) == 3  # one per draw
        target = group_inverse(inst.a)  # this module's own binding is not recorded
        shared = [draw(inst, np.random.default_rng(seed), target=target) for seed in range(3)]
        assert len(group_inverse_calls) == 3  # the draws reused target
        for s, t in zip(own, shared):
            assert np.array_equal(s.u_ginv, t.u_ginv) and np.array_equal(s.v, t.v)
            assert s.classes == t.classes

    def test_weak_triple_composite_converges(self, rng):
        inst, scheme = weak_scheme(rng)
        assert spectral_radius(iteration_matrix(scheme)) < 1.0
