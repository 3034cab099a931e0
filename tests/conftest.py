"""Shared test helpers: deterministic generators and independent oracles."""

import sys
from fractions import Fraction

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
