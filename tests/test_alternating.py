import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from altiter import alternating, analysis, catalog, mmio
from altiter.alternating import (
    GroupMonotoneInstance,
    IterationConfig,
    IterationTrace,
    Scheme,
    constant_term,
    fixed_point,
    iterate,
    iteration_matrix,
    random_g_regular_splitting,
    random_group_monotone,
)
from altiter.analysis import induced_splitting, three_step_comparison
from altiter.catalog import ROUNDED_TOL
from altiter.errors import (
    CrossCheckError,
    DivergentSchemeError,
    HypothesisViolationError,
)
from altiter.ginverse import group_inverse
from altiter.kernel import Tolerances, as_vector, is_nonneg, rel_residual, spectral_radius
from altiter.splittings import SplittingClass, make_splitting
from conftest import (
    FAMILIES,
    bench_scheme,
    radius_well_conditioned,
    random_g_weak_splitting,
    splitting_source,
)


B_FIXTURES = [fid for fid in catalog.fixture_ids() if "b" in catalog.get_fixture(fid).matrices]

#: (A, U, rho(H)) of one-splitting schemes that do not converge:
#: H = diag(2, 1/2), and H = [[-1]], whose radius is exactly 1
DIVERGENT = (
    (np.diag([-1.0, 1.0]), np.diag([1.0, 2.0]), 2.0),
    (np.array([[1.0]]), np.array([[0.5]]), 1.0),
)


def weak_scheme(rng, n=5, r=3, steps=3):
    inst = random_group_monotone(n, r, rng)
    splittings = tuple(random_g_weak_splitting(inst, rng) for _ in range(steps))
    return inst, Scheme(splittings=splittings)


class TestScheme:
    def test_rejects_empty_and_overlong(self, rng):
        inst = random_group_monotone(3, 2, rng)
        s = make_splitting(group_inverse(inst.a), inst.a)
        with pytest.raises(ValueError):
            Scheme(splittings=())
        with pytest.raises(ValueError):
            Scheme(splittings=(s, s, s, s))

    def test_rejects_mismatched_targets(self, rng):
        a = random_group_monotone(3, 2, rng)
        b = random_group_monotone(3, 2, rng)
        with pytest.raises(ValueError):
            Scheme(splittings=(make_splitting(a.target, a.a), make_splitting(b.target, b.a)))

    def test_rejects_one_matrix_decomposed_at_two_tolerances(self, rng):
        a = random_group_monotone(3, 2, rng).a
        s_default = make_splitting(group_inverse(a), a)
        s_rounded = make_splitting(group_inverse(a, ROUNDED_TOL), a)
        with pytest.raises(ValueError):
            Scheme(splittings=(s_default, s_rounded))

    @pytest.mark.parametrize(
        "q, message",
        (
            ([[np.inf]], "^matrix entries must be finite$"),
            ([[1.0, 2.0]], r"^expected a square matrix, got shape \(1, 2\)$"),
            (np.eye(2), r"^the preconditioner has shape \(2, 2\), not \(1, 1\)$"),
        ),
        ids=("nonfinite", "not_square", "wrong_size"),
    )
    def test_rejects_an_invalid_preconditioner_at_construction(self, q, message):
        s = make_splitting(group_inverse([[1.0]]), [[1.0]])
        with pytest.raises(ValueError, match=message):
            Scheme((s,), preconditioner=np.array(q))

    def test_keeps_a_float_preconditioner_as_given(self):
        fx = catalog.get_fixture("ex5.3")
        assert catalog.build_scheme(fx).preconditioner is fx.matrices["q"]


class TestSchemeRho:
    def test_iterate_computes_no_radius(self, rng, monkeypatch):
        def forbidden(*args):
            raise AssertionError("iterate formed H or took a radius")

        inst, scheme = weak_scheme(rng)
        monkeypatch.setattr(alternating, "spectral_radius", forbidden)
        monkeypatch.setattr(alternating, "iteration_matrix", forbidden)
        trace = iterate(scheme, rng.uniform(-1, 1, 5))
        assert trace.status == "converged"

    def test_trace_reports_exact_radius_of_h(self, rng):
        inst, scheme = weak_scheme(rng)
        assert scheme.rho == spectral_radius(iteration_matrix(scheme))

    def test_keeps_only_the_float(self, rng):
        inst, scheme = weak_scheme(rng)
        rho = scheme.rho
        assert type(rho) is float
        assert set(vars(scheme)) == {"splittings", "preconditioner"}

    def test_three_step_comparison_reports_scheme_rho(self):
        fx = catalog.get_fixture("ex5.1")
        scheme = catalog.build_scheme(fx)
        report = three_step_comparison(scheme)
        assert report.conclusion_lhs == scheme.rho
        assert report.conclusion_rhs == min(Scheme((sp,)).rho for sp in scheme.splittings)
        ex54 = catalog.get_fixture("ex5.4")
        (preconditioned,) = catalog.comparison(ex54)
        s_plain, s_pre = catalog.splitting_of(ex54, "k"), catalog.splitting_of(ex54, "k_pre")
        assert preconditioned.conclusion_lhs == Scheme((s_pre,)).rho
        assert preconditioned.conclusion_rhs == Scheme((s_plain,)).rho


def regular_triple(seed, n):
    rng = np.random.default_rng(seed)
    inst = random_group_monotone(n, int(rng.integers(1, n + 1)), rng)
    return [random_g_regular_splitting(inst, rng) for _ in range(3)]


def assert_same_rho(orders):
    # H of one order is a cyclic product of the factors U#V of another, and
    # AB and BA share their nonzero eigenvalues, so rho(H) is the same; the
    # guard keeps draws whose leading eigenvalues eigvals resolves to about
    # 1e-13 of rho
    hs = [iteration_matrix(Scheme(splittings=tuple(order))) for order in orders]
    rhos = [spectral_radius(h) for h in hs]
    assume(all(radius_well_conditioned(h, 1e-13 * rho) for h, rho in zip(hs, rhos)))
    for rho in rhos[1:]:
        assert rho == pytest.approx(rhos[0], rel=1e-12)


class TestSweepOrder:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_cyclic_rotations_keep_rho(self, seed, n):
        k, u, x = regular_triple(seed, n)
        assert_same_rho([(k, u, x), (u, x, k), (x, k, u)])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_reversed_two_step_keeps_rho(self, seed, n):
        k, u, _ = regular_triple(seed, n)
        assert_same_rho([(k, u), (u, k)])

    def test_reversed_ex41_converges(self):
        # ex4.1's (x, u, k) diverges with rho 1.3579; the reverse order converges
        fx = catalog.get_fixture("ex4.1")
        target = group_inverse(fx.target(), fx.tol)
        scheme = Scheme(splittings=tuple(make_splitting(target, fx.matrices[key]) for key in "kux"))
        assert scheme.rho == pytest.approx(0.3441, abs=1e-4)
        b = as_vector(fx.matrices["b"])
        trace = iterate(scheme, b)
        assert (trace.iterations, trace.status) == (16, "converged")
        np.testing.assert_allclose(trace.x_final, target.ginv @ b, rtol=0, atol=1.1e-7)


class TestIterationMatrix:
    def test_trivial_scheme_vanishes(self, rng):
        inst = random_group_monotone(4, 2, rng)
        s = make_splitting(group_inverse(inst.a), inst.a)
        h = iteration_matrix(Scheme(splittings=(s, s, s)))
        np.testing.assert_allclose(h, 0.0, atol=1e-14)

    def test_reverse_order_composition(self, rng):
        inst, scheme = weak_scheme(rng)
        f1, f2, f3 = (iteration_matrix(Scheme((sp,))) for sp in scheme.splittings)
        np.testing.assert_allclose(iteration_matrix(scheme), f3 @ f2 @ f1, atol=1e-13)


@pytest.mark.parametrize("fixture_id", ("ex4.3", "ex5.3"))
def test_products_match_the_staged_loops_bit_for_bit(fixture_id):
    # the loops iteration_matrix and constant_term fold, written out
    fx = catalog.get_fixture(fixture_id)
    scheme = catalog.build_scheme(fx)
    b = np.linspace(-1.0, 2.0, scheme.a.shape[0])
    rhs = b if scheme.preconditioner is None else scheme.preconditioner @ b
    h, c = None, np.zeros_like(rhs)
    for sp in scheme.splittings:
        f = sp.u_ginv @ sp.v
        h = f if h is None else f @ h
        c = sp.u_ginv @ (sp.v @ c + rhs)
    np.testing.assert_array_equal(iteration_matrix(scheme), h)
    np.testing.assert_array_equal(constant_term(scheme, b), c)


class TestConstantTerm:
    def test_trivial_scheme_gives_group_solution(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(group_inverse(inst.a), inst.a)
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

    def test_divergent_scheme_reports_not_raises(self):
        a = np.diag([-1.0, 1.0])
        s = make_splitting(group_inverse(a), np.diag([1.0, 2.0]))
        scheme = Scheme(splittings=(s,))
        trace = iterate(scheme, np.array([1.0, 1.0]), IterationConfig(max_iter=50))
        assert not trace.converged
        assert trace.iterations == 50
        assert scheme.rho >= 1.0

    def test_rejects_rhs_of_wrong_length(self, rng):
        inst, scheme = weak_scheme(rng)
        with pytest.raises(ValueError, match="expected a vector of length 5, got 6"):
            iterate(scheme, np.ones(6))

    def test_divergent_run_emits_no_warning(self):
        fx = catalog.get_fixture("ex4.1")  # d.dot(d) overflows from sweep 1168
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = iterate(catalog.build_scheme(fx), fx.matrices["b"])
        assert not trace.converged and trace.iterations == 2000
        assert np.isfinite(trace.step_norms).all()

    def test_trace_invariants(self, rng):
        inst, scheme = weak_scheme(rng)
        b = rng.uniform(-1, 1, 5)
        began = time.perf_counter()
        trace = iterate(scheme, b)
        assert 0.0 <= trace.elapsed_seconds <= time.perf_counter() - began
        assert trace.iterations == len(trace.step_norms) <= 2000
        assert trace.converged == (trace.step_norms[-1] <= 1e-6)
        # a step norm equal to eps stops the sweeps
        tie = Scheme(splittings=(make_splitting(group_inverse([[1.0]]), [[2.0]]),))
        trace = iterate(tie, [2.0**-19], IterationConfig(eps=2.0**-20))
        assert trace.converged and trace.step_norms == (2.0**-20,)


def reference_iterate(s, b, cfg=IterationConfig()):
    """The staged loop written with ``@`` and ``np.linalg.norm``, and
    ``math.hypot`` where the norm overflows."""
    n = s.a.shape[0]
    rhs = as_vector(b, n)
    if s.preconditioner is not None:
        rhs = s.preconditioner @ rhs
    x = np.zeros(n) if cfg.x0 is None else as_vector(cfg.x0, n)
    norms, converged = [], False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_iter):
            x_next = x
            for sp in s.splittings:
                x_next = sp.u_ginv @ (sp.v @ x_next + rhs)
            d = x_next - x
            norm = float(np.linalg.norm(d))
            norms.append(math.hypot(*d) if norm == math.inf else norm)
            x = x_next
            if norms[-1] <= cfg.eps:
                converged = True
                break
    return x, norms, converged


def assert_same_bits(s, b, cfg=IterationConfig()):
    trace = iterate(s, b, cfg)
    x, norms, converged = reference_iterate(s, b, cfg)
    assert trace.x_final.tobytes() == x.tobytes()
    assert np.array(trace.step_norms).tobytes() == np.array(norms).tobytes()
    assert (trace.iterations, trace.converged) == (len(norms), converged)
    return trace


class TestIterateBits:
    """iterate keeps the bits of the ``@`` / ``np.linalg.norm`` staged loop."""

    @pytest.mark.parametrize("fixture_id", B_FIXTURES)
    def test_catalog_fixture(self, fixture_id):
        fx = catalog.get_fixture(fixture_id)
        trace = assert_same_bits(catalog.build_scheme(fx), fx.matrices["b"])
        if fixture_id == "ex4.1":  # 2000 divergent sweeps; ||d||^2 overflows from 1168
            assert trace.iterations == 2000 and 2.0**512 < trace.step_norms[-1] < math.inf

    def test_covers_the_preconditioned_and_divergent_fixtures(self):
        assert {"ex4.1", "ex5.3", "ex5.4"} <= set(B_FIXTURES)
        assert catalog.get_fixture("ex5.3").preconditioned

    @pytest.mark.parametrize("fixture_id", B_FIXTURES)
    def test_fortran_ordered_parts_from_matrix_market(self, fixture_id, write_matrices):
        fx = catalog.get_fixture(fixture_id)
        paths = write_matrices(**fx.matrices)
        loaded = {key: mmio.load_matrix(path) for key, path in paths.items()}
        target = loaded["q"] @ loaded["a"] if fx.preconditioned else loaded["a"]
        t = group_inverse(target, fx.tol)
        scheme = Scheme(
            splittings=tuple(make_splitting(t, loaded[key]) for key in fx.scheme_order),
            preconditioner=loaded["q"] if fx.preconditioned else None,
        )
        if not fx.preconditioned:  # V = U - Q A is C-ordered, as Q A is
            assert all(sp.v.flags.f_contiguous and not sp.v.flags.c_contiguous
                       for sp in scheme.splittings)
        assert_same_bits(scheme, loaded["b"])

    @pytest.mark.parametrize("n", [50, 128])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_random_schemes(self, n, steps):
        _, scheme, b = bench_scheme(n, 1000 * n + steps, steps)
        trace = assert_same_bits(scheme, b, IterationConfig(eps=1e-12))
        assert trace.iterations > 10

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_custom_start_vector(self, order, rng):
        _, scheme, b = bench_scheme(50, 7)
        scheme = Scheme(splittings=tuple(
            make_splitting(sp.target, np.asarray(sp.u, order=order)) for sp in scheme.splittings
        ))
        block = rng.uniform(-5, 5, (50, 3))
        assert_same_bits(scheme, b, IterationConfig(x0=block[:, 1], eps=1e-12))
        assert_same_bits(scheme, b, IterationConfig(x0=block[:, 0].copy(), max_iter=3))

    def test_reversed_start_vector_iterates_as_its_copy(self, rng):
        # @ leaves BLAS on a negative stride; the loop's dot copies instead
        _, scheme, b = bench_scheme(50, 8)
        x0 = rng.uniform(-5, 5, 50)[::-1]
        view = iterate(scheme, b, IterationConfig(x0=x0, eps=1e-12))
        copy = iterate(scheme, b, IterationConfig(x0=x0.copy(), eps=1e-12))
        assert view.x_final.tobytes() == copy.x_final.tobytes()
        assert view.step_norms == copy.step_norms


class TestTraceStatus:
    def test_divergent_fixture(self):
        fx = catalog.get_fixture("ex4.1")
        scheme = catalog.build_scheme(fx)
        trace = iterate(scheme, fx.matrices["b"])
        assert trace.status == "diverged" and not trace.converged
        # d.dot(d) overflows from sweep 1168, but hypot keeps every step norm finite
        assert trace.first_nonfinite is None and np.isfinite(trace.step_norms).all()
        assert abs(trace.observed_rate - scheme.rho) < 1e-4

    def test_converged_run(self, rng):
        inst, scheme = weak_scheme(rng)
        trace = iterate(scheme, rng.uniform(-1, 1, 5), IterationConfig(eps=1e-10))
        assert trace.status == "converged" and trace.first_nonfinite is None
        assert 0.0 < trace.observed_rate < 1.0

    def test_cap_reached_while_contracting(self, rng):
        inst, scheme = weak_scheme(rng)
        trace = iterate(scheme, rng.uniform(-1, 1, 5), IterationConfig(eps=1e-300, max_iter=5))
        assert trace.status == "max_iter" and trace.observed_rate < 1.0

    def test_growing_finite_steps_diverge(self):
        for a, u, rate in DIVERGENT:
            s = make_splitting(group_inverse(a), u)
            trace = iterate(Scheme(splittings=(s,)), np.ones(len(a)), IterationConfig(max_iter=50))
            assert trace.status == "diverged" and trace.first_nonfinite is None
            assert trace.observed_rate == pytest.approx(rate)

    def test_rate_needs_two_finite_nonzero_norms(self, rng):
        inst, scheme = weak_scheme(rng)
        assert iterate(scheme, np.zeros(5)).observed_rate is None  # one zero step
        one = iterate(scheme, rng.uniform(-1, 1, 5), IterationConfig(eps=1e-300, max_iter=1))
        assert one.observed_rate is None and one.status == "max_iter"

    def test_rate_averages_the_last_ten_ratios(self):
        _, scheme, b = bench_scheme(50, 9, 1)
        trace = iterate(scheme, b, IterationConfig(eps=1e-300, max_iter=20))
        assert trace.iterations == 20 and min(trace.step_norms) > 0.0
        norms = trace.step_norms
        ratios = [norms[i + 1] / norms[i] for i in range(len(norms) - 11, len(norms) - 1)]
        assert trace.observed_rate == pytest.approx(np.prod(ratios) ** 0.1, rel=1e-12)


class TestDerivedVerdict:
    # a trace stores what the loop measured; the verdict is read from it
    def trace(self, norms, converged=False):
        return IterationTrace(np.zeros(2), converged, tuple(norms), 0.0)

    def test_stores_only_the_measurements(self):
        names = [f.name for f in dataclasses.fields(IterationTrace)]
        assert names == ["x_final", "converged", "step_norms", "elapsed_seconds"]
        for name in ("iterations", "first_nonfinite", "observed_rate", "status"):
            assert isinstance(getattr(IterationTrace, name), property)

    def test_nan_step_is_the_first_nonfinite(self):
        trace = self.trace([1.0, 0.5, math.nan, math.inf])
        assert trace.first_nonfinite == 3 and trace.status == "diverged"
        assert trace.observed_rate == pytest.approx(0.5)

    def test_converged_decision_wins_over_growing_norms(self):
        trace = self.trace([1.0, 2.0, 4.0], converged=True)
        assert trace.observed_rate == pytest.approx(2.0)
        assert trace.status == "converged"

    def test_rate_skips_zero_norms(self):
        trace = self.trace([1.0, 0.0, 0.5, 0.0, 0.25])
        assert trace.observed_rate == pytest.approx(0.5, rel=1e-15)
        assert trace.status == "max_iter" and trace.first_nonfinite is None


class TestIterationConfig:
    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, False, "3", None, np.int64(3)])
    def test_rejects_non_int_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an int"):
            IterationConfig(max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_nonpositive_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="at least 1"):
            IterationConfig(max_iter=max_iter)

    @pytest.mark.parametrize("eps", [True, np.inf, np.nan, 0.0, -1e-6, "1e-6", None])
    def test_eps_must_be_a_finite_positive_number(self, eps):
        with pytest.raises(ValueError, match="eps must be a finite positive number"):
            IterationConfig(eps=eps)


class TestOverflowingH:
    # finite, valid parts whose H = (U#V)^2 = 1e400 overflows
    @pytest.fixture
    def scheme(self):
        s = make_splitting(group_inverse([[1.0]]), [[1e-200]])
        return Scheme(splittings=(s, s))

    def test_iterate_reports_divergence(self, scheme):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = iterate(scheme, [1.0])
        assert (trace.status, trace.first_nonfinite) == ("diverged", 1)


class TestFixedPoint:
    def test_trivial_scheme(self, rng):
        inst = random_group_monotone(4, 2, rng)
        s = make_splitting(group_inverse(inst.a), inst.a)
        b = rng.uniform(-1, 1, 4)
        np.testing.assert_allclose(
            fixed_point(Scheme(splittings=(s,)), b), inst.a_ginv @ b, atol=1e-10
        )

    def test_divergent_raises(self):
        for a, u, _ in DIVERGENT:
            s = make_splitting(group_inverse(a), u)
            with pytest.raises(DivergentSchemeError):
                fixed_point(Scheme(splittings=(s,)), np.ones(len(a)))


class TestInducedSplitting:
    def test_trivial_scheme_returns_target(self, rng):
        inst = random_group_monotone(4, 3, rng)
        s = make_splitting(group_inverse(inst.a), inst.a)
        induced = induced_splitting(Scheme(splittings=(s, s, s)))
        np.testing.assert_allclose(induced.u, inst.a, atol=1e-9)
        np.testing.assert_allclose(induced.v, 0.0, atol=1e-9)

    def test_reproduces_composite_iteration_matrix(self, rng):
        inst, scheme = weak_scheme(rng)
        induced = induced_splitting(scheme)
        assert SplittingClass.G_WEAK_REGULAR in induced.classes
        np.testing.assert_allclose(
            iteration_matrix(Scheme((induced,))), iteration_matrix(scheme), atol=1e-8
        )

    def test_disagreeing_routes_raise_cross_check_error(self, rng, monkeypatch):
        # ex4.3's routes agree at mat_eq_tol equal to their gap, not one ulp below
        fx, gaps = catalog.get_fixture("ex4.3"), []
        with monkeypatch.context() as patch:
            patch.setattr(
                analysis, "rel_residual", lambda *m: gaps.append(rel_residual(*m)) or gaps[-1])
            induced_splitting(catalog.build_scheme(fx))
        gap, = gaps  # 2.5532788220907366e-16 with OpenBLAS on x86-64
        assert 0.0 < gap < fx.tol.mat_eq_tol
        at, below = (dataclasses.replace(fx, tol=dataclasses.replace(fx.tol, mat_eq_tol=t))
                     for t in (gap, np.nextafter(gap, 0)))
        induced_splitting(catalog.build_scheme(at))
        with pytest.raises(CrossCheckError, match="routes disagree"):
            induced_splitting(catalog.build_scheme(below))
        # halving H moves A (I - H)^-1 away from K M# X, which does not read H
        inst, scheme = weak_scheme(rng)
        exact = analysis.iteration_matrix
        monkeypatch.setattr(analysis, "iteration_matrix", lambda s: 0.5 * exact(s))
        with pytest.raises(CrossCheckError, match="routes disagree"):
            induced_splitting(scheme)

    def test_built_scheme_decomposes_nothing(self, rng, group_inverse_calls):
        inst, scheme = weak_scheme(rng)
        group_inverse_calls.clear()
        induced = induced_splitting(scheme)
        assert group_inverse_calls == []
        assert induced.target is inst.target

    def test_rejects_two_step_schemes(self, rng):
        inst, scheme = weak_scheme(rng, steps=2)
        with pytest.raises(ValueError):
            induced_splitting(scheme)

    def test_rejects_a_target_that_is_not_group_monotone(self):
        s = make_splitting(group_inverse([[-1.0]]), [[1.0]])  # G-regular, but A# = -1
        with pytest.raises(
            HypothesisViolationError,
            match=r"^the induced splitting's hypotheses fail: "
            r"matrix group monotone \(violation 1\.000e\+00\)$",
        ):
            induced_splitting(Scheme(splittings=(s, s, s)))

    def test_rejects_a_combination_that_is_not_proper(self):
        # at nonneg_tol 10 every part is G-weak regular, yet M = K + X - A + Y U# L
        # = 0.75 - 0.5 - 1 + 0.75 = 0 keeps neither the range nor the null space
        target = group_inverse([[1.0]], Tolerances(nonneg_tol=10.0))
        k, u, x = (make_splitting(target, [[p]]) for p in (0.75, 0.5, -0.5))
        scheme = Scheme((k, u, x))
        assert all(SplittingClass.G_WEAK_REGULAR in sp.classes for sp in scheme.splittings)
        assert (k.u + x.u - k.a + x.v @ u.u_ginv @ k.v).tolist() == [[0.0]]
        with pytest.raises(HypothesisViolationError, match="the matrix has lower rank than A$"):
            induced_splitting(scheme)
        checks = {h.name: h.satisfied for h in three_step_comparison(scheme).hypotheses}
        assert checks["combined splitting matrix preserves range/null space"] is False

    def test_rejects_non_weak_regular_components(self, rng):
        a = np.diag([-1.0, 1.0, 0.0])
        s = make_splitting(group_inverse(a), np.diag([-2.0, 2.0, 0.0]))
        assert SplittingClass.G_WEAK_REGULAR not in s.classes
        with pytest.raises(HypothesisViolationError):
            induced_splitting(Scheme(splittings=(s, s, s)))


class TestRandomInstances:
    def test_instance_keeps_one_copy_of_each_array(self):
        # the core and its inverse are blocks of a and a_ginv, not fields
        names = [f.name for f in dataclasses.fields(GroupMonotoneInstance)]
        assert names == ["target", "a_ginv", "rank", "perm"]

    @pytest.mark.parametrize("r", (0, 4))
    def test_rejects_rank_out_of_range(self, r, rng):
        with pytest.raises(ValueError, match="^rank must satisfy 1 <= r <= n$"):
            random_group_monotone(3, r, rng)

    def test_group_monotone_by_construction(self, rng):
        for _ in range(10):
            inst = random_group_monotone(6, 4, rng)
            result = group_inverse(inst.a)
            assert result.index == 1
            g = result.ginv
            np.testing.assert_allclose(g, inst.a_ginv, atol=1e-9)
            assert is_nonneg(g)

    def test_target_rank_is_construction_rank(self):
        # the (n, r) ranges the acceptance criteria draw, and the square case
        rng = np.random.default_rng(2025)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            r = int(rng.integers(1, n + 1))
            inst = random_group_monotone(n, r, rng)
            assert inst.target.rank == inst.rank == r

    def test_instance_and_its_splittings_carry_its_tolerances(self, rng):
        inst = random_group_monotone(5, 3, rng, ROUNDED_TOL)
        assert inst.target.tol == ROUNDED_TOL
        assert random_g_regular_splitting(inst, rng).target.tol == ROUNDED_TOL
        assert random_g_weak_splitting(inst, rng).target.tol == ROUNDED_TOL

    def test_full_rank_instance_is_nonsingular(self, rng):
        inst = random_group_monotone(4, 4, rng)
        assert group_inverse(inst.a).index == 0
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

    @pytest.mark.parametrize("shift", (0.0, 0.5, 3.0))
    def test_shift_minus_has_the_bits_of_the_eye_product(self, shift):
        # signed zeros on and off the diagonal: np.negative would turn an
        # off-diagonal +0.0 into -0.0, which array_equal alone cannot see
        rng = np.random.default_rng(32)
        for r in (1, 2, 5, 9):
            m = rng.uniform(-1.0, 1.0, (r, r))
            m[rng.uniform(size=(r, r)) < 0.3] = 0.0
            m[rng.uniform(size=(r, r)) < 0.3] = -0.0
            m[0, -1], m[-1, 0], m[0, 0] = 0.0, -0.0, -0.0
            expected = shift * np.eye(r) - m
            got = alternating._shift_minus(shift, m.copy())
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize(("draw", "bound"), (("instance", 10.0), ("g-regular", 5.0)))
    def test_generators_peak_below_a_few_blocks(self, draw, bound):
        # tracemalloc peak in n-by-n doubles: what the result holds (the
        # instance's a, a_ginv and decomposition, or the splitting's u, v
        # and u_ginv) and one or two blocks more; an r-by-r temporary per
        # shift * np.eye(r) - m term exceeds the bound
        n = 200
        rng = np.random.default_rng(0)
        inst = random_group_monotone(n, n - 1, rng)
        tracemalloc.start()
        try:
            if draw == "instance":
                random_group_monotone(n, n - 1, rng)
            else:
                random_g_regular_splitting(inst, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) <= bound

    def test_shared_target_gives_identical_splittings(self, group_inverse_calls):
        inst = random_group_monotone(6, 4, np.random.default_rng(3))
        assert len(group_inverse_calls) == 1  # the instance decomposes itself
        draws = [
            random_g_regular_splitting(inst, np.random.default_rng(seed)) for seed in range(3)
        ]
        assert len(group_inverse_calls) == 1  # the draws reuse inst.target
        for s in draws:
            assert s.target is inst.target
            # this module's own group_inverse binding is not recorded
            t = make_splitting(group_inverse(inst.a), s.u)
            assert np.array_equal(s.u_ginv, t.u_ginv) and np.array_equal(s.v, t.v)
            assert s.classes == t.classes


def random_scheme(seed, n, source, t=None):
    """A three-step scheme on a random instance of any rank, and the rng after the draws.

    With a coupling t the instance is random_non_ep_group_monotone's, of rank
    below n, and EP only at t = 0.
    """
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, n + 1 if t is None else n))
    split = splitting_source(t, n, rank, rng, source == "g-regular")
    return Scheme(splittings=tuple(split() for _ in range(3))), rng


def mapped(scheme, f):
    """The scheme whose target and U-parts are f of scheme's, decomposed at its tolerances."""
    target = group_inverse(f(scheme.a), scheme.splittings[0].target.tol)
    return Scheme(splittings=tuple(make_splitting(target, f(s.u)) for s in scheme.splittings))


def rel_gap(m, reference):
    return np.linalg.norm(m - reference) / np.linalg.norm(reference)


def require(condition):
    assert condition


def core_block(scheme):
    """(Q^-1 H Q)[:r, :r] for the target's Q = [R | N]: H restricted to R(A).

    Each factor U#V is Q diag(I - P1^-1 C, 0) Q^-1, so H is block diagonal
    in this basis with a zero null block, and the core block carries every
    nonzero eigenvalue of H without the coupling of a non-EP target's Q.
    """
    target = scheme.splittings[0].target
    r = target.rank
    return (target.change_basis_inv @ iteration_matrix(scheme) @ target.change_basis)[:r, :r]


def assert_same_radius(scheme, image, rel, guard=assume):
    # the guard: a defective leading eigenvalue moves by about sqrt(eps)
    # under a rounding-level change of H; it is judged on the core block, as
    # ||H||_F of a non-EP target overstates the change the radius sees
    guard(radius_well_conditioned(core_block(scheme), 1e-13 * scheme.rho))
    assert image.rho == pytest.approx(scheme.rho, rel=rel)


def assert_permutation_invariant(scheme, p, guard=assume, slack=1.0):
    # A -> P A P^T maps A# to P A# P^T and U# to P U# P^T, so H and its
    # spectrum are similar and every entry, hence every class, keeps its sign
    def permute(m):
        return np.asarray(m)[np.ix_(p, p)]

    image = mapped(scheme, permute)
    a_ginv = scheme.splittings[0].target.ginv
    assert rel_gap(image.splittings[0].target.ginv, permute(a_ginv)) <= 1e-12 * slack
    for s, t in zip(scheme.splittings, image.splittings):
        assert rel_gap(t.u_ginv, permute(s.u_ginv)) <= 1e-12 * slack
        assert t.classes == s.classes
    assert_same_radius(scheme, image, 1e-12, guard)


class TestInvariance:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 11), st.sampled_from(("g-regular", "g-weak")),
        st.sampled_from(FAMILIES),
    )
    def test_permutation_similarity(self, seed, n, source, t):
        scheme, rng = random_scheme(seed, n, source, t)
        slack = scheme.splittings[0].target.conditioning
        assert_permutation_invariant(scheme, rng.permutation(n), slack=slack)

    @pytest.mark.parametrize("fixture_id", catalog.fixture_ids())
    def test_permutation_similarity_on_catalog(self, fixture_id):
        fx = catalog.get_fixture(fixture_id)
        n = fx.matrices["a"].shape[0]
        parts = [k for k in fx.matrices if k not in ("a", "b", "q") and not k.endswith("_ref")]
        for p in (np.arange(n)[::-1], np.random.default_rng(n).permutation(n)):
            for key in parts:
                single = Scheme(splittings=(catalog.splitting_of(fx, key),))
                assert_permutation_invariant(single, p, guard=require)
            assert_permutation_invariant(catalog.build_scheme(fx), p, guard=require)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 11), st.sampled_from(("g-regular", "g-weak")),
        st.sampled_from(FAMILIES), st.integers(-600, 600),
    )
    # entries just below 2^512, where an unscaled norm of Q^-1 (cU) Q would overflow
    @example(seed=0, n=11, source="g-regular", t=None, k=508)
    @example(seed=4, n=3, source="g-weak", t=None, k=510)
    @example(seed=12, n=3, source="g-weak", t=None, k=512)
    def test_power_of_two_scaling(self, seed, n, source, t, k):
        # (cA)# = A# / c and (cU)# = U# / c, so H = U#V is unchanged; classes
        # are left out: the sign test's absolute tolerance depends on c
        scheme, _ = random_scheme(seed, n, source, t)
        c = 2.0**k
        image = mapped(scheme, lambda m: c * np.asarray(m))
        a_ginv = scheme.splittings[0].target.ginv
        slack = scheme.splittings[0].target.conditioning
        assert rel_gap(c * image.splittings[0].target.ginv, a_ginv) <= 1e-13 * slack
        for s, s_image in zip(scheme.splittings, image.splittings):
            assert rel_gap(c * s_image.u_ginv, s.u_ginv) <= 1e-13 * slack
        assert_same_radius(scheme, image, 1e-13)
