"""Alternating iterations built from one, two or three proper splittings.

An ordered list of splittings (K - L, U - V, X - Y) of the same matrix
defines one outer step as the sweep

    x <- K#(L x + b);  x <- U#(V x + b);  x <- X#(Y x + b)

which is algebraically the single recurrence x <- H x + c with
H = X#Y U#V K#L and c = X#(Y U# V K# + Y U# + I) b.  The solver applies
the staged sweeps (two matrix-vector products per stage); H is formed
explicitly only for analysis.  A scheme may carry a preconditioner Q, in
which case its splittings split Q A and the right-hand side becomes Q b;
the fixed point is still the group-inverse solution of the original
system.

rho(H) belongs to the scheme, not to a right-hand side: ``Scheme.rho``
computes it once per scheme, on first use, and keeps only the float, so
repeated solves on one scheme pay only for the sweeps.  A scheme's
splittings are therefore immutable values: changing their arrays in
place would leave ``rho`` stale.

The module also provides random group-monotone instances together with
direct constructors of G-regular and G-weak regular splittings of them,
used by the property suite and the benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AttemptsExhaustedError,
    CrossCheckError,
    DivergentSchemeError,
    HypothesisViolationError,
    NotProperSplittingError,
)
from .ginverse import GroupInverseResult, group_inverse
from .kernel import (
    DEFAULT_TOL,
    Tolerances,
    as_vector,
    inverse,
    is_nonneg,
    rel_residual,
    solve_square,
    spectral_radius,
)
from .splittings import Splitting, SplittingClass, make_splitting


@dataclass(frozen=True)
class Scheme:
    """An ordered list of 1-3 splittings of one matrix, applied in order."""

    splittings: tuple[Splitting, ...]
    preconditioner: np.ndarray | None = None  # Q, when the splittings split Q A

    def __post_init__(self):
        object.__setattr__(self, "splittings", tuple(self.splittings))
        if not 1 <= len(self.splittings) <= 3:
            raise ValueError("a scheme takes one, two or three splittings")
        first = self.splittings[0]
        for s in self.splittings[1:]:
            if not first.same_target(s):
                raise ValueError("all splittings must split the identical matrix")

    @property
    def a(self) -> np.ndarray:
        """The matrix being split (the preconditioned one, if any)."""
        return self.splittings[0].a

    @property
    def steps(self) -> int:
        return len(self.splittings)

    @cached_property
    def rho(self) -> float:
        """rho(H), computed on first use; H itself is not kept."""
        return spectral_radius(iteration_matrix(self))


@dataclass(frozen=True)
class IterationConfig:
    """Start vector, stopping threshold and iteration cap."""

    x0: np.ndarray | None = None
    eps: float = 1e-6
    max_iter: int = 2000

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IterationTrace:
    """Outcome of one solver run."""

    x_final: np.ndarray
    iterations: int
    converged: bool
    step_norms: tuple[float, ...]
    rho_h: float
    elapsed_seconds: float


def iteration_matrix(s: Scheme) -> np.ndarray:
    """Composite iteration matrix: per-splitting factors U#V multiplied in
    reverse application order."""
    h = None
    for sp in s.splittings:
        f = sp.iteration_factor
        h = f if h is None else f @ h
    return h


def constant_term(s: Scheme, b) -> np.ndarray:
    """Constant term of the composed recurrence (uses Q b when preconditioned)."""
    rhs = _effective_rhs(s, b)
    c = None
    for sp in s.splittings:
        g = sp.u_ginv @ rhs
        c = g if c is None else sp.iteration_factor @ c + g
    return c


def _effective_rhs(s: Scheme, b) -> np.ndarray:
    rhs = as_vector(b, s.a.shape[0])
    if s.preconditioner is not None:
        rhs = s.preconditioner @ rhs
    return rhs


def iterate(s: Scheme, b, cfg: IterationConfig | None = None) -> IterationTrace:
    """Run the staged sweeps until the step norm drops below eps.

    Non-convergence within max_iter is reported in the trace, never
    raised; diverging runs are legitimate experiment outcomes.
    """
    cfg = cfg or IterationConfig()
    n = s.a.shape[0]
    rhs = _effective_rhs(s, b)
    stages = [(sp.u_ginv, sp.v) for sp in s.splittings]
    x = np.zeros(n) if cfg.x0 is None else as_vector(cfg.x0, n)
    step_norms: list[float] = []
    converged = False
    iterations = 0
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is an outcome
        for _ in range(cfg.max_iter):
            x_next = x
            for u_ginv, v in stages:
                x_next = u_ginv @ (v @ x_next + rhs)
            delta = float(np.linalg.norm(x_next - x))
            step_norms.append(delta)
            x = x_next
            iterations += 1
            if delta <= cfg.eps:
                converged = True
                break
    elapsed = time.perf_counter() - start
    return IterationTrace(
        x_final=x,
        iterations=iterations,
        converged=converged,
        step_norms=tuple(step_norms),
        rho_h=s.rho,
        elapsed_seconds=elapsed,
    )


def fixed_point(s: Scheme, b) -> np.ndarray:
    """The limit (I - H)^-1 c of a convergent scheme.

    Equals the group-inverse solution of the (original) system.  Raises
    DivergentSchemeError when the spectral radius is not below one.
    """
    if s.rho >= 1.0:
        raise DivergentSchemeError(f"spectral radius {s.rho:.4f} is not below 1")
    h = iteration_matrix(s)
    return solve_square(np.eye(h.shape[0]) - h, constant_term(s, b))


def induced_splitting(s: Scheme, tol: Tolerances = DEFAULT_TOL) -> Splitting:
    """The unique proper G-weak regular splitting a = B - C with B#C = H.

    Requires a three-step scheme of G-weak regular splittings of a
    group-monotone matrix, with the combination
    M = K + X - A + Y U# L preserving the range and null space of A.
    B is computed as K M# X and cross-checked against A (I - H)^-1.
    """
    if s.steps != 3:
        raise ValueError("the induced splitting is defined for three-step schemes")
    first, middle, last = s.splittings
    for sp in (first, middle, last):
        if SplittingClass.G_WEAK_REGULAR not in sp.classes:
            raise HypothesisViolationError(
                "every splitting in the scheme must be G-weak regular"
            )
    a = s.a
    target = group_inverse(a, tol)
    if not is_nonneg(target.ginv, tol):
        raise HypothesisViolationError("the target matrix is not group monotone")
    k, x = first.u, last.u
    l, y = first.v, last.v
    try:
        m_ginv = target.proper_ginv(k + x - a + y @ middle.u_ginv @ l, tol)
    except NotProperSplittingError as exc:
        raise HypothesisViolationError(
            f"K + X - A + Y U# L does not preserve the range/null space of A: {exc}"
        ) from exc
    b_formula = k @ m_ginv @ x
    h = iteration_matrix(s)
    b_limit = a @ inverse(np.eye(a.shape[0]) - h)
    gap = rel_residual(b_formula - b_limit, b_formula)
    if gap > tol.mat_eq_tol:
        raise CrossCheckError(
            f"induced-splitting routes disagree: relative gap {gap:.3e}"
        )
    return make_splitting(target, b_formula, tol)


# ---------------------------------------------------------------------------
# Random group-monotone instances and splittings of them.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupMonotoneInstance:
    """A singular index-one matrix with entrywise nonnegative group inverse.

    Built as a permutation embedding of a nonsingular M-matrix core:
    a = P diag(core, 0) P^T, so a_ginv = P diag(core^-1, 0) P^T >= 0 holds
    by construction and every hypothesis check has an exact reference.
    """

    a: np.ndarray
    a_ginv: np.ndarray
    core: np.ndarray
    core_inv: np.ndarray
    rank: int
    perm: np.ndarray = field(repr=False)


def random_group_monotone(
    n: int, r: int, rng: np.random.Generator
) -> GroupMonotoneInstance:
    """Random n-by-n instance of rank r (r = n gives a nonsingular one)."""
    if not 1 <= r <= n:
        raise ValueError("rank must satisfy 1 <= r <= n")
    nonneg = rng.uniform(0.1, 1.0, (r, r))
    shift = spectral_radius(nonneg) * (1.0 + rng.uniform(0.05, 0.5))
    core = shift * np.eye(r) - nonneg
    core_inv = inverse(core)
    perm = rng.permutation(n)
    a = np.zeros((n, n))
    a[np.ix_(perm[:r], perm[:r])] = core
    a_ginv = np.zeros((n, n))
    a_ginv[np.ix_(perm[:r], perm[:r])] = core_inv
    return GroupMonotoneInstance(
        a=a, a_ginv=a_ginv, core=core, core_inv=core_inv, rank=r, perm=perm
    )


def random_g_regular_splitting(
    inst: GroupMonotoneInstance,
    rng: np.random.Generator,
    tol: Tolerances = DEFAULT_TOL,
    target: GroupInverseResult | None = None,
) -> Splitting:
    """G-regular splitting of an instance, valid in a single draw.

    Writes the core as s I - N with N >= 0, then shrinks N entrywise and
    enlarges the shift: the resulting U-part stays an M-matrix (inverse
    nonnegative) while V = U - A is nonnegative by construction.  The
    splitting is validated against ``target``, group_inverse(inst.a) when
    not given; pass it to share one decomposition between several draws.
    """
    core = inst.core
    r = inst.rank
    shift = float(core.diagonal().max())
    nonneg = shift * np.eye(r) - core
    mask = rng.uniform(0.0, 1.0, (r, r))
    delta = rng.uniform(0.05, 0.5) * shift
    u_core = (shift + delta) * np.eye(r) - mask * nonneg
    u = np.zeros_like(inst.a)
    u[np.ix_(inst.perm[:r], inst.perm[:r])] = u_core
    return make_splitting(inst.a if target is None else target, u, tol)


def random_g_weak_splitting(
    inst: GroupMonotoneInstance,
    rng: np.random.Generator,
    tol: Tolerances = DEFAULT_TOL,
    max_tries: int = 200,
) -> Splitting:
    """G-weak regular (typically not G-regular) splitting of an instance.

    Uses U = A (I - G)^-1 for a nonnegative contraction G supported on the
    instance block, so U#V = G >= 0 exactly; draws are rejected until
    U# = (I - G) A# is also nonnegative, which a small enough G ensures.
    The entries of G shrink like 2/r beyond rank 2, so every row of G sums
    to below 0.6 and rho(G) < 1 at any size.  Every draw is validated
    against one decomposition of inst.a.  Raises AttemptsExhaustedError
    when max_tries draws are all rejected.
    """
    target = group_inverse(inst.a, tol)
    r = inst.rank
    eye_r = np.eye(r)
    scale = min(1.0, 2.0 / r)
    for _ in range(max_tries):
        g_core = rng.uniform(0.0, 1.0, (r, r)) * (rng.uniform(0.01, 0.3) * scale)
        if ((eye_r - g_core) @ inst.core_inv).min() < 0.0:
            continue
        g = np.zeros_like(inst.a)
        g[np.ix_(inst.perm[:r], inst.perm[:r])] = g_core
        u = inst.a @ inverse(np.eye(inst.a.shape[0]) - g)
        splitting = make_splitting(target, u, tol)
        if SplittingClass.G_WEAK_REGULAR in splitting.classes:
            return splitting
    raise AttemptsExhaustedError(max_tries)
