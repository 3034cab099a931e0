"""An exact oracle: rank, group inverse, properness and splitting classes in
rational arithmetic, independent of every float path in the library.

A matrix is a list of rows of Fractions.  ``rationalize`` reads a float
matrix entry by entry as the nearest fraction with denominator at most
10^6, and refuses an entry more than one ulp from it: such an entry is not
a short decimal or a ratio of small integers, so its exact value is
unknown.  A# comes from Cline's formula A# = F (G F)^-2 G for a rank
factorization A = F G (Cline, 1965; Ben-Israel & Greville, *Generalized
Inverses*, 2nd ed., 2003, ch. 4); G F is singular exactly when A has index
above one.
"""

import math
from fractions import Fraction

import numpy as np

from altiter.splittings import SplittingClass

Matrix = list[list[Fraction]]


def rationalize(a) -> Matrix:
    """a's entries as fractions of denominator at most 10^6; ValueError for one over an ulp off."""
    rows = []
    for row in np.asarray(a, dtype=float).tolist():
        exact = [Fraction(x).limit_denominator(10**6) for x in row]
        for x, q in zip(row, exact):
            if abs(q - Fraction(x)) > Fraction(math.ulp(x)):
                raise ValueError(f"{x!r} is more than one ulp from its rational {q}")
        rows.append(exact)
    return rows


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """The reduced row echelon form of m and its pivot columns, by Gauss-Jordan elimination."""
    rows = [row[:] for row in m]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def inverse(m: Matrix) -> Matrix:
    """m^-1 from the RREF of [m I]; ValueError when m is singular."""
    n = len(m)
    augmented = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise ValueError("the matrix is singular")
    return [row[n:] for row in reduced]


def group_inverse(a: Matrix) -> Matrix:
    """A# = F (G F)^-2 G, with F A's pivot columns and G its RREF's nonzero rows.

    ValueError when A has index above one.
    """
    reduced, pivots = rref(a)
    if not pivots:
        return [[Fraction(0)] * len(row) for row in a]
    f = [[row[j] for j in pivots] for row in a]
    g = reduced[: len(pivots)]
    try:
        core = inverse(matmul(g, f))
    except ValueError:
        raise ValueError("the matrix is not of index 1") from None
    return matmul(matmul(f, matmul(core, core)), g)


def is_proper(a: Matrix, u: Matrix) -> bool:
    """R(U) = R(A) and N(U) = N(A): rank U = rank A = rank [A U] = rank [A; U]."""
    r = rank(a)
    return rank(u) == r == rank([ra + ru for ra, ru in zip(a, u)]) == rank(a + u)


def classes(a: Matrix, u: Matrix) -> frozenset[SplittingClass]:
    """The classes of a = u - v from the exact signs of U#, V and U#V; empty when not proper.

    G-regular is U# >= 0 and V >= 0, G-weak regular U# >= 0 and U#V >= 0.
    """
    if not is_proper(a, u):
        return frozenset()
    u_ginv = group_inverse(u)
    v = [[x - y for x, y in zip(ru, ra)] for ru, ra in zip(u, a)]
    found = {SplittingClass.PROPER}
    if _nonneg(u_ginv) and _nonneg(v):
        found.add(SplittingClass.G_REGULAR)
    if _nonneg(u_ginv) and _nonneg(matmul(u_ginv, v)):
        found.add(SplittingClass.G_WEAK_REGULAR)
    return frozenset(found)


def _nonneg(m: Matrix) -> bool:
    return all(x >= 0 for row in m for x in row)
