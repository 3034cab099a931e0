"""Alternating iterations built from one, two or three proper splittings.

An ordered list of splittings (K - L, U - V, X - Y) of the same matrix
defines one outer step as the sweep

    x <- K#(L x + b);  x <- U#(V x + b);  x <- X#(Y x + b)

which is algebraically the single recurrence x <- H x + c with
H = X#Y U#V K#L and c = X#(Y U# V K# + Y U# + I) b.  The solver applies
the staged sweeps (two matrix-vector products per stage), c is one such
sweep from zero, and only ``iteration_matrix`` forms H, for analysis;
``splittings`` also forms U#V, for weak violations and identity residuals.
A scheme may carry a preconditioner Q, in which case
its splittings split Q A and the right-hand side becomes Q b; the fixed
point is still the group-inverse solution of the original system.

rho(H) is analysis of the scheme, not part of a solve: ``Scheme.rho``
forms H and takes its radius on each read, and ``iterate`` computes
neither.  A trace's ``observed_rate`` is the rate the sweeps achieved, to
set beside ``Scheme.rho``.

The module also provides random group-monotone instances and a direct
constructor of G-regular splittings of them, which the benchmark harness
draws; the property suite's G-weak regular generator lives with the tests.
The induced splitting lives in ``analysis``, with the theorem checkers.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import DivergentSchemeError
from .ginverse import GroupInverseResult, group_inverse
from .kernel import (
    DEFAULT_TOL,
    Tolerances,
    _positive_finite,
    _quiet_product,
    as_square,
    as_vector,
    inverse,
    solve_square,
    spectral_radius,
)
from .splittings import Splitting, make_splitting


@dataclass(frozen=True)
class Scheme:
    """An ordered list of 1-3 splittings of one matrix, applied in order."""

    splittings: tuple[Splitting, ...]
    preconditioner: np.ndarray | None = None  # Q, when the splittings split Q A; finite, A's shape

    def __post_init__(self):
        object.__setattr__(self, "splittings", tuple(self.splittings))
        if not 1 <= len(self.splittings) <= 3:
            raise ValueError("a scheme takes one, two or three splittings")
        first = self.splittings[0]
        for s in self.splittings[1:]:
            if not first.same_target(s):
                raise ValueError("all splittings must split the identical matrix")
        if self.preconditioner is not None:
            q = as_square(self.preconditioner)
            if q.shape != self.a.shape:
                raise ValueError(f"the preconditioner has shape {q.shape}, not {self.a.shape}")
            object.__setattr__(self, "preconditioner", q)

    @property
    def a(self) -> np.ndarray:
        """The matrix being split (the preconditioned one, if any)."""
        return self.splittings[0].a

    @property
    def steps(self) -> int:
        return len(self.splittings)

    @property
    def rho(self) -> float:
        """rho(H), computed on each read from a freshly formed H; bind it once."""
        return spectral_radius(iteration_matrix(self))


@dataclass(frozen=True)
class IterationConfig:
    """Start vector, stopping threshold (a finite positive number) and iteration cap."""

    x0: np.ndarray | None = None
    eps: float = 1e-6
    max_iter: int = 2000

    def __post_init__(self):
        _positive_finite("eps", self.eps)
        if not isinstance(self.max_iter, int) or isinstance(self.max_iter, bool):
            raise ValueError(f"max_iter must be an int, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


#: how many consecutive step-norm ratios the observed rate averages
_RATE_RATIOS = 10


@dataclass(frozen=True)
class IterationTrace:
    """Outcome of one solver run: what the sweep loop measured, and the
    verdict derived from it.

    ``step_norms[i]`` is ||x_(i+1) - x_i|| of sweep i + 1, and
    ``converged`` is the loop's own stopping decision.  The remaining
    attributes are read-only properties of those two, so a trace cannot
    disagree with its own step norms.  It holds no rho(H): its
    ``observed_rate`` is set beside the scheme's ``Scheme.rho``.
    """

    x_final: np.ndarray
    converged: bool
    step_norms: tuple[float, ...]
    elapsed_seconds: float

    @property
    def iterations(self) -> int:
        return len(self.step_norms)

    @property
    def first_nonfinite(self) -> int | None:
        """Sweep number (from 1) of the first inf or NaN step norm, or None;
        its 0-based index in ``step_norms`` is one less."""
        return next((i for i, d in enumerate(self.step_norms, 1) if not math.isfinite(d)), None)

    @property
    def observed_rate(self) -> float | None:
        """Geometric mean of the last <= _RATE_RATIOS ratios of consecutive
        finite, nonzero step norms: the contraction the run achieved, next
        to the predicted ``Scheme.rho``.  None when fewer than two such norms exist."""
        tail = []
        for d in reversed(self.step_norms):
            if 0.0 < d < math.inf:
                tail.append(d)
                if len(tail) > _RATE_RATIOS:
                    break
        if len(tail) < 2:
            return None
        # the ratios telescope to newest / oldest; logs keep that quotient finite
        return math.exp((math.log(tail[0]) - math.log(tail[-1])) / (len(tail) - 1))

    @property
    def status(self) -> Literal["converged", "max_iter", "diverged"]:
        """``converged``; ``diverged`` when a step norm went non-finite or
        the observed rate is at least 1; ``max_iter`` otherwise."""
        if self.converged:
            return "converged"
        rate = self.observed_rate
        if self.first_nonfinite is not None or (rate is not None and rate >= 1.0):
            return "diverged"
        return "max_iter"


def iteration_matrix(s: Scheme) -> np.ndarray:
    """Composite iteration matrix H: the factors U#V multiplied in reverse
    application order, quietly.  Raises NumericFailureError, and no
    RuntimeWarning, if a factor or H overflows."""
    return _quiet_product(
        lambda: functools.reduce(lambda h, f: f @ h, (sp.u_ginv @ sp.v for sp in s.splittings)),
        "the iteration matrix H",
    )


def constant_term(s: Scheme, b) -> np.ndarray:
    """Constant term c of the composed recurrence: iterate's first sweep from
    zero, c <- U#(V c + rhs) per stage, with rhs = Q b when preconditioned.
    Raises NumericFailureError, and no RuntimeWarning, if Q b or c overflows."""
    return _quiet_product(
        lambda: iterate(s, b, IterationConfig(max_iter=1)).x_final, "the constant term c"
    )


def _effective_rhs(s: Scheme, b) -> np.ndarray:
    """b, or Q b when preconditioned; NumericFailureError if Q b overflows."""
    rhs, q = as_vector(b, s.a.shape[0]), s.preconditioner
    return rhs if q is None else _quiet_product(lambda: q @ rhs, "the right-hand side Q b")


def iterate(s: Scheme, b, cfg: IterationConfig | None = None) -> IterationTrace:
    """Run the staged sweeps until the step norm is at most eps.

    Non-convergence within max_iter is reported in the trace, never
    raised; diverging runs are legitimate experiment outcomes.  Each
    stage is ``u_ginv.dot(v.dot(x) + rhs)`` and each step norm
    ``sqrt(d.dot(d))`` for d = x_next - x: the same floating-point
    operations, bit for bit, as ``u_ginv @ (v @ x + rhs)`` and
    ``np.linalg.norm(d)``, which ravel d and take ``sqrt(d.dot(d))``, but
    without their per-call dispatch.  On the C- or Fortran-contiguous
    parts a splitting holds, ``dot`` calls the same BLAS product as ``@``.
    An x0 with a negative stride is the one input on which ``@`` leaves
    BLAS; ``dot`` copies it first, so its first sweep has the bits of a
    contiguous x0.  Where ``d.dot(d)`` overflows, past a norm of about
    1.34e154, the step norm is ``math.hypot(*d)``, which scales and so is
    finite while the norm is.  ``elapsed_seconds`` covers the sweeps
    alone.  No rho(H) is computed: set ``observed_rate`` beside
    ``Scheme.rho``.
    Raises NumericFailureError, and no RuntimeWarning, if Q b overflows.
    """
    cfg = cfg or IterationConfig()
    n = s.a.shape[0]
    rhs = _effective_rhs(s, b)
    stages = tuple((sp.u_ginv.dot, sp.v.dot) for sp in s.splittings)
    eps = cfg.eps
    x = np.zeros(n) if cfg.x0 is None else as_vector(cfg.x0, n)
    step_norms: list[float] = []
    converged = False
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is an outcome
        for _ in range(cfg.max_iter):
            x_next = x
            for u_ginv, v in stages:
                x_next = u_ginv(v(x_next) + rhs)
            d = x_next - x
            delta = math.sqrt(d.dot(d))
            if delta == math.inf:  # d.dot(d) overflowed; hypot scales
                delta = math.hypot(*d)
            step_norms.append(delta)
            x = x_next
            if delta <= eps:
                converged = True
                break
    elapsed = time.perf_counter() - start
    return IterationTrace(x, converged, tuple(step_norms), elapsed)


def fixed_point(s: Scheme, b) -> np.ndarray:
    """The limit (I - H)^-1 c of a convergent scheme.

    Equals the group-inverse solution of the (original) system.  Raises
    DivergentSchemeError when the spectral radius is not below one, and
    NumericFailureError when H, Q b or c overflows.
    """
    h = iteration_matrix(s)
    rho = spectral_radius(h)
    if rho >= 1.0:
        raise DivergentSchemeError(f"spectral radius {rho:.4f} is not below 1")
    return solve_square(np.eye(h.shape[0]) - h, constant_term(s, b))


# ---------------------------------------------------------------------------
# Random group-monotone instances and splittings of them.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupMonotoneInstance:
    """A singular index-one matrix with entrywise nonnegative group inverse.

    Built as a permutation embedding of a nonsingular M-matrix core:
    a = P diag(core, 0) P^T, so a_ginv = P diag(core^-1, 0) P^T >= 0 holds
    by construction and every hypothesis check has an exact reference.
    The core is the block a[p, p] with p = perm[:rank], and its inverse the
    same block of a_ginv.  ``target``, group_inverse(a, tol), validates
    every draw from it.
    """

    target: GroupInverseResult
    a_ginv: np.ndarray
    rank: int
    perm: np.ndarray = field(repr=False)

    @property
    def a(self) -> np.ndarray:
        return self.target.a


def _shift_minus(shift: float, m: np.ndarray) -> np.ndarray:
    """shift I - m for a square float array m, written into m and returned.

    For a finite shift >= 0 every entry has the bits of
    ``shift * np.eye(len(m)) - m``: off the diagonal both compute
    0.0 - m_ij, which keeps a +0.0 entry +0.0 (``np.negative`` would give
    -0.0), and on it shift - m_ii.  No r-by-r temporary is formed.
    """
    diagonal = shift - m.diagonal()
    np.subtract(0.0, m, out=m)
    np.fill_diagonal(m, diagonal)
    return m


def random_group_monotone(
    n: int, r: int, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL
) -> GroupMonotoneInstance:
    """Random n-by-n instance of rank r (r = n gives a nonsingular one), decomposed at tol."""
    if not 1 <= r <= n:
        raise ValueError("rank must satisfy 1 <= r <= n")
    core = rng.uniform(0.1, 1.0, (r, r))
    _shift_minus(spectral_radius(core) * (1.0 + rng.uniform(0.05, 0.5)), core)
    perm = rng.permutation(n)
    a = np.zeros((n, n))
    a[np.ix_(perm[:r], perm[:r])] = core
    a_ginv = np.zeros((n, n))
    a_ginv[np.ix_(perm[:r], perm[:r])] = inverse(core)
    del core  # freed before the decomposition (peak memory)
    return GroupMonotoneInstance(group_inverse(a, tol), a_ginv=a_ginv, rank=r, perm=perm)


def random_g_regular_splitting(
    inst: GroupMonotoneInstance, rng: np.random.Generator
) -> Splitting:
    """G-regular splitting of an instance, valid in a single draw.

    Writes the core as s I - N with N >= 0, then shrinks N entrywise and
    enlarges the shift: the resulting U-part stays an M-matrix (inverse
    nonnegative) while V = U - A is nonnegative by construction.  The
    splitting is validated against inst.target, so draws from one instance
    share its decomposition and are classified at its tol.
    """
    r, p = inst.rank, inst.perm[: inst.rank]
    shift = float(inst.a[p, p].max())  # the core's largest diagonal entry
    nonneg = _shift_minus(shift, inst.a[np.ix_(p, p)])  # written into the index's copy
    u_core = rng.uniform(0.0, 1.0, (r, r))  # the mask, drawn before delta
    u_core *= nonneg
    del nonneg
    delta = rng.uniform(0.05, 0.5) * shift
    u = np.zeros_like(inst.a)
    u[np.ix_(p, p)] = _shift_minus(shift + delta, u_core)
    del u_core  # freed before the splitting is validated (peak memory)
    return make_splitting(inst.target, u)

