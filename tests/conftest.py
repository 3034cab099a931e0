"""Shared test helpers: deterministic generators and independent oracles."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from altiter.alternating import (
    GroupMonotoneInstance,
    random_g_regular_splitting,
    random_group_monotone,
)
from altiter.kernel import inverse
from altiter.splittings import Splitting, SplittingClass, make_splitting


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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


def exact_rank(rows) -> int:
    """Rank by exact fraction Gaussian elimination (integer/rational input).

    Independent of any SVD-based path in the library.
    """
    m = [[Fraction(x).limit_denominator(10**9) for x in row] for row in np.asarray(rows).tolist()]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [value * inv for value in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r


def penrose_residuals(a, z):
    """Residuals of the four defining equations of the pseudoinverse.

    Plain matrix products only; nothing shared with the implementation.
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    az, za = a @ z, z @ a
    scale = max(np.linalg.norm(a), 1.0)
    return (
        np.linalg.norm(a @ z @ a - a) / scale,
        np.linalg.norm(z @ a @ z - z) / max(np.linalg.norm(z), 1.0),
        np.linalg.norm(az.T - az) / scale,
        np.linalg.norm(za.T - za) / scale,
    )


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
