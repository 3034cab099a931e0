"""Shared test helpers: deterministic generators and independent oracles."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from altiter.alternating import (
    GroupMonotoneInstance,
    Scheme,
    random_g_regular_splitting,
    random_group_monotone,
)
from altiter.ginverse import group_inverse
from altiter.kernel import DEFAULT_TOL, inverse
from altiter.mmio import save_matrix
from altiter.splittings import Splitting, SplittingClass, make_splitting


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def write_matrices(tmp_path):
    """A writer that saves each named matrix as <name>.mtx under tmp_path
    and returns the paths, as strings, by name in the order given."""
    def write(**matrices):
        for name, m in matrices.items():
            save_matrix(tmp_path / f"{name}.mtx", m)
        return {name: str(tmp_path / f"{name}.mtx") for name in matrices}
    return write


@pytest.fixture(scope="session")
def canonical_outputs():
    """One run of tools/canonical_outputs.py, shared by the tests that read its sections.

    The tool runs every demo, so the demos run once per session.
    """
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, str(root / "tools" / "canonical_outputs.py")],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        timeout=300,
    )


@pytest.fixture
def group_inverse_calls(monkeypatch):
    """The matrices passed to group_inverse, recorded in call order.

    Wraps group_inverse in every altiter module that binds the name, so
    calls are counted whichever module makes them.
    """
    from altiter import ginverse

    original = ginverse.group_inverse
    calls = []

    def recording(a, *args, **kwargs):
        calls.append(np.array(a, dtype=float))
        return original(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "altiter" and getattr(module, "group_inverse", None) is original:
            monkeypatch.setattr(module, "group_inverse", recording)
    return calls


#: the numpy.linalg entry points the traced benchmark counts (benchmarks/tracer.py)
LAPACK = ("svd", "eigvals", "solve", "inv", "pinv")


@pytest.fixture
def lapack_calls(monkeypatch):
    """Calls to each LAPACK entry point, counted by name; clear() it to start a count."""
    calls = collections.Counter()

    def counted(name, original):
        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counting

    for name in LAPACK:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


def bench_scheme(n, seed, steps=3):
    """(inst, scheme, b) as the benchmark workloads draw them from default_rng(seed).

    inst has rank n - 1, scheme chains `steps` G-regular splittings of it
    and b is uniform on [-1, 1); the draws come in that order.
    """
    rng = np.random.default_rng(seed)
    inst = random_group_monotone(n, n - 1, rng)
    splittings = tuple(random_g_regular_splitting(inst, rng) for _ in range(steps))
    return inst, Scheme(splittings=splittings), rng.uniform(-1.0, 1.0, n)


def pinv(a, tol=DEFAULT_TOL):
    """Moore-Penrose pseudoinverse of square a at the kernel's rank cutoff, rank_rel * n."""
    return np.linalg.pinv(a, rcond=tol.rank_rel * len(a))


def well_conditioned(n, rng, spread=(0.5, 2.0)):
    """Random nonsingular matrix with singular values inside ``spread``."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(*spread, n)) @ q2


def canonical_index_one(n, r, rng, orthogonal=False):
    """Random index-one matrix S diag(C, 0) S^-1 with invertible r-by-r C.

    With ``orthogonal=True`` the change of basis is orthogonal, which makes
    the result range-symmetric (group inverse equals pseudoinverse).
    """
    c = well_conditioned(r, rng)
    if orthogonal:
        s, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s_inv = s.T
    else:
        s = well_conditioned(n, rng)
        s_inv = np.linalg.inv(s)
    block = np.zeros((n, n))
    block[:r, :r] = c
    a = s @ block @ s_inv
    block_inv = np.zeros((n, n))
    block_inv[:r, :r] = np.linalg.inv(c)
    return a, s @ block_inv @ s_inv


#: couplings t of random_non_ep_group_monotone the randomized suites draw at:
#: EP at 0, cond(Q) up to about 18 at 1 and 1.7e3 at 100
NON_EP_COUPLINGS = (0.0, 1.0, 100.0)


def random_non_ep_group_monotone(n, r, t, rng):
    """Random group-monotone A of rank r with its group inverse and two part
    generators, (A, A#, g_regular_part, g_weak_part).

    A = P [[C, C X], [0, 0]] P^T, with C the M-matrix of
    random_group_monotone(r, r, rng) and coupling X = t U(0, 1), has
    A# = P [[C^-1, C^-1 X], [0, 0]] P^T >= 0, as the three axioms confirm.
    Its null space {(-X y, y)} is not orthogonal to its range when t > 0
    and r < n, so A is not EP there and Q = [R | N] is not orthogonal.
    Each generator draws U = P [[U_c, U_c X], [0, 0]] P^T, with U_c a part
    of C from random_g_regular_splitting or random_g_weak_splitting: U has
    the range and null space of A, U# = P [[U_c^-1, U_c^-1 X], [0, 0]] P^T,
    V = P [[V_c, V_c X], [0, 0]] P^T and U#V = P [[U_c^-1 V_c, U_c^-1 V_c X],
    [0, 0]] P^T, so U keeps the class of U_c.
    """
    core = random_group_monotone(r, r, rng)
    x = t * rng.uniform(0.0, 1.0, (r, n - r))
    perm = rng.permutation(n)

    def embed(m_core):
        m = np.zeros((n, n))
        m[np.ix_(perm[:r], perm)] = np.hstack([m_core, m_core @ x])
        return m

    def g_regular_part(rng):
        return embed(random_g_regular_splitting(core, rng).u)

    def g_weak_part(rng):
        return embed(random_g_weak_splitting(core, rng).u)

    return embed(core.a), embed(core.a_ginv), g_regular_part, g_weak_part


#: the instance families the randomized suites draw from: None for
#: random_group_monotone's, a coupling t for random_non_ep_group_monotone's at t
FAMILIES = (None, *NON_EP_COUPLINGS)


def random_size(t, rng):
    """A random (n, rank) for family t, drawn from rng in that order:
    3 <= n < 7 and 2 <= rank < n for None, 3 <= n < 40 and 1 <= rank < n
    for a coupling t."""
    n = int(rng.integers(3, 7 if t is None else 40))
    return n, int(rng.integers(2 if t is None else 1, n))


def splitting_source(t, n, rank, rng, regular):
    """A random group-monotone instance of family t, of size n and rank rank,
    drawn from rng, as a function that draws one splitting of it from rng per
    call: G-regular when regular, else G-weak regular.

    None splits random_group_monotone's instance with random_g_regular_splitting
    or random_g_weak_splitting; a coupling t splits the target of
    random_non_ep_group_monotone's A with its part generators.
    """
    if t is None:
        inst = random_group_monotone(n, rank, rng)
        draw = random_g_regular_splitting if regular else random_g_weak_splitting
        return lambda: draw(inst, rng)
    a, _, g_regular_part, g_weak_part = random_non_ep_group_monotone(n, rank, t, rng)
    target, part = group_inverse(a), g_regular_part if regular else g_weak_part
    return lambda: make_splitting(target, part(rng))


def projectors(a):
    """Orthogonal projectors onto the range and the null space of a.

    Built from the bases of one SVD; bases are not unique, projectors are.
    """
    from altiter.kernel import range_null_bases

    return tuple(b @ b.T for b in range_null_bases(a))


def proper_pair(n, r, rng, scale=0.4):
    """Random (a, u) with u sharing the range and null space of a."""
    c = well_conditioned(r, rng)
    s = well_conditioned(n, rng)
    s_inv = np.linalg.inv(s)

    def embed(core):
        block = np.zeros((n, n))
        block[:r, :r] = core
        return s @ block @ s_inv

    perturb = np.eye(r) + scale * rng.uniform(0.0, 1.0, (r, r))
    return embed(c), embed(c @ perturb)


def radius_well_conditioned(m, bound=1e-9) -> bool:
    """Whether each eigenvalue within 1e-6 of rho(m) has kappa eps ||m||_F <= bound.

    kappa_i = ||y_i|| ||x_i|| / |y_i x_i| for right and left eigenvectors
    x_i, y_i; the rows of X^-1 are left eigenvectors with y_i x_i = 1, and
    eig returns unit columns, so kappa_i = ||y_i||.  A defective eigenvalue
    has no such basis: X is singular and kappa is infinite.
    """
    w, right = np.linalg.eig(m)
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.linalg.norm(left, axis=1)
        near = np.abs(w) >= np.abs(w).max() - 1e-6
        return bool(np.all(kappa[near] * np.finfo(float).eps * np.linalg.norm(m) <= bound))


#: draws random_g_weak_splitting makes before it gives up
_G_WEAK_TRIES = 200


def random_g_weak_splitting(inst: GroupMonotoneInstance, rng: np.random.Generator) -> Splitting:
    """G-weak regular (typically not G-regular) splitting of an instance.

    Uses U = A (I - G)^-1 for a nonnegative contraction G supported on the
    instance block, so U#V = G >= 0 exactly; U# = (I - G) A# is nonnegative
    for a small enough G.  The entries of G shrink like 2/r beyond rank 2,
    so every row of G sums to below 0.6 and rho(G) < 1 at any size.  Every
    draw is validated against inst.target, and a draw is accepted exactly
    when it classifies as G-weak regular at its tol.
    Raises RuntimeError when all _G_WEAK_TRIES draws are rejected.
    """
    r, p = inst.rank, inst.perm[: inst.rank]
    scale = min(1.0, 2.0 / r)
    for _ in range(_G_WEAK_TRIES):
        g_core = rng.uniform(0.0, 1.0, (r, r)) * (rng.uniform(0.01, 0.3) * scale)
        g = np.zeros_like(inst.a)
        g[np.ix_(p, p)] = g_core
        u = inst.a @ inverse(np.eye(inst.a.shape[0]) - g)
        splitting = make_splitting(inst.target, u)
        if SplittingClass.G_WEAK_REGULAR in splitting.classes:
            return splitting
    raise RuntimeError(f"no G-weak regular draw in {_G_WEAK_TRIES} attempts")
