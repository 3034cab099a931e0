"""One overflow policy: every public function that takes matrices, called on
catalog inputs scaled by 2^k, returns or raises an error of its family, and
never warns.  An overflowing product is a NumericFailureError naming it,
never a RuntimeWarning, an infinite entry or a later "must be finite"."""

import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import altiter
from altiter import catalog
from altiter.alternating import IterationConfig, Scheme
from altiter.analysis import chain_comparison
from altiter.kernel import DEFAULT_TOL, Tolerances


class Problem(NamedTuple):
    """A matrix A with parts that split it, and a Q with parts that split QA."""

    name: str
    tol: Tolerances
    a: np.ndarray
    parts: tuple = ()
    b: np.ndarray | None = None
    q: np.ndarray | None = None
    qa_parts: tuple = ()

    def __repr__(self):
        return f"Problem({self.name!r})"

    def scaled(self, k: int) -> "Problem":
        """A, its parts, b, Q and QA's parts, each times 2^k."""
        def up(m):
            return None if m is None else np.ldexp(np.asarray(m, dtype=float), k)

        return self._replace(
            a=up(self.a), parts=tuple(map(up, self.parts)), b=up(self.b), q=up(self.q),
            qa_parts=tuple(map(up, self.qa_parts)),
        )


def catalog_problem(fixture_id: str) -> Problem:
    fx = catalog.get_fixture(fixture_id)
    m = fx.matrices
    on_qa = ("k_pre",) + (fx.scheme_order if fx.preconditioned else ())
    return Problem(
        fixture_id, fx.tol, m["a"],
        parts=tuple(m[key] for key in fx.scheme_order if key not in on_qa),
        b=m.get("b"), q=m.get("q"),
        qa_parts=tuple(m[key] for key in on_qa if key in m),
    )


EX54 = catalog.get_fixture("ex5.4").matrices["a"]


def attempt(call, *args):
    """call(*args), or None when it raises an AltiterError or a ValueError
    that does not blame a non-finite input."""
    try:
        return call(*args)
    except altiter.AltiterError:
        return None
    except ValueError as exc:
        assert not str(exc).endswith("must be finite"), f"{call.__name__}: {exc}"
        return None


def exercise_scheme(splittings, q, b):
    """Every reader of a scheme built from the first three splittings."""
    scheme = attempt(Scheme, tuple(splittings[:3]), q)
    if scheme is None:
        return
    attempt(lambda: scheme.rho)
    attempt(altiter.iteration_matrix, scheme)
    if b is not None:
        attempt(altiter.constant_term, scheme, b)
        attempt(altiter.iterate, scheme, b, IterationConfig(max_iter=50))
        attempt(altiter.fixed_point, scheme, b)
    if scheme.steps == 3:
        attempt(altiter.three_step_comparison, scheme)
        attempt(altiter.induced_splitting, scheme)
        attempt(chain_comparison, scheme)


def exercise(p: Problem, qa: np.ndarray | None):
    tol, a = p.tol, p.a
    attempt(altiter.rank, a, tol)
    attempt(altiter.spectral_radius, a)
    attempt(altiter.is_nonneg, a, tol)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.mtx"
        attempt(altiter.save_matrix, path, a)
        attempt(altiter.load_matrix, path)
    if p.b is not None:
        attempt(altiter.solve_square, a, p.b)
    for part in p.parts:
        attempt(altiter.verify_group_axioms, a, part)
    target = attempt(altiter.group_inverse, a, tol)
    if target is None:
        return
    attempt(lambda: altiter.verify_group_axioms(a, target.ginv))  # A# is formed on this read
    splittings = [s for u in p.parts if (s := attempt(altiter.make_splitting, target, u))]
    for s in splittings:
        attempt(altiter.splitting_identity_residuals, s)
    for first in splittings:
        for second in splittings:
            if first is not second:
                attempt(altiter.compare_splittings, first, second)
    exercise_scheme(splittings, None, p.b)
    if p.q is None:
        return
    attempt(altiter.validate_preconditioner, target, p.q)
    attempt(altiter.make_preconditioner, target, p.q)
    qa_target = attempt(altiter.group_inverse, qa, tol)
    if qa_target is None:
        return
    qa_splittings = [s for u in p.qa_parts if (s := attempt(altiter.make_splitting, qa_target, u))]
    exercise_scheme(qa_splittings, p.q, p.b)
    if splittings and qa_splittings:
        attempt(altiter.preconditioned_comparison, splittings[0], p.q, qa_splittings[0])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(catalog.fixture_ids()).map(catalog_problem), st.integers(-1074, 1000))
@example(catalog_problem("ex5.4"), -1025)  # A# overflows
@example(catalog_problem("ex5.4"), 511)  # QA overflows
@example(Problem("U#V overflows", DEFAULT_TOL, np.array([[1e10]]), (np.array([[1e-300]]),)), 0)
@example(Problem("XAX overflows", DEFAULT_TOL, EX54, (np.full((3, 3), 1e200),)), 0)
def test_public_functions_fail_in_their_family(problem, k):
    # QA is scaled as its parts are, by 2^k; Q and A are each scaled by 2^k
    qa = None if problem.q is None else np.ldexp(problem.q @ problem.a, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exercise(problem.scaled(k), qa)


def read_ginv(a):
    """group_inverse(a)'s ginv: the decomposition returns, and A# is formed on the read."""
    try:
        target = altiter.group_inverse(a)
    except altiter.AltiterError as exc:
        pytest.fail(f"group_inverse raised {exc!r}")
    return target.ginv


def scheme_1x1(a, u, steps=1, q=None):
    """The scheme of `steps` copies of the splitting [[a]] = [[u]] - V, preconditioned by [[q]]."""
    s = altiter.make_splitting(altiter.group_inverse([[a]]), [[u]])
    return Scheme((s,) * steps, None if q is None else np.array([[q]]))


H_OVERFLOWS = scheme_1x1(1.0, 1e-200, steps=2)  # finite, valid parts; H = (U#V)^2 = 1e400
C_OVERFLOWS = scheme_1x1(0.5, 0.5)  # H = 0, but c = U# b = 2e308 for b = 1e308
QB_OVERFLOWS = scheme_1x1(1.0, 1.0, q=4.0)  # Q b = 4e308 overflows before c is formed

NAMED = {
    "group_inverse": (read_ginv, (np.ldexp(EX54, -1025),), "A#"),
    "verify_group_axioms": (altiter.verify_group_axioms, (EX54, np.full((3, 3), 1e200)), "XAX"),
    "rho": (lambda s: s.rho, (H_OVERFLOWS,), "the iteration matrix H"),
    "fixed_point-h": (altiter.fixed_point, (H_OVERFLOWS, [1.0]), "the iteration matrix H"),
    "constant_term-c": (altiter.constant_term, (C_OVERFLOWS, [1e308]), "the constant term c"),
    "fixed_point-c": (altiter.fixed_point, (C_OVERFLOWS, [1e308]), "the constant term c"),
    **{f"{call.__name__}-q_b": (call, (QB_OVERFLOWS, [1e308]), "the right-hand side Q b")
       for call in (altiter.constant_term, altiter.fixed_point, altiter.iterate)},
}


@pytest.mark.parametrize("call, args, product", NAMED.values(), ids=NAMED)
def test_overflowing_product_is_named(call, args, product):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(altiter.NumericFailureError, match=f"^{product} overflowed$"):
            call(*args)
