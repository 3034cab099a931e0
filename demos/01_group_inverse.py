"""
Group inverses of singular matrices
===================================

A square matrix of index one (rank(A) = rank(A^2)) has a group inverse:
the unique X with AXA = A, XAX = X and AX = XA.  This script computes
one, verifies the axioms, and contrasts it with the Moore-Penrose
pseudoinverse, which only coincides with it for range-symmetric matrices.
"""

import numpy as np

from altiter import (
    group_inverse,
    is_ep,
    matrix_index,
    moore_penrose,
    verify_group_axioms,
)

np.set_printoptions(precision=4, suppress=True)

# a singular symmetric 3x3 matrix (row 3 = row 1 - row 2)
a = np.array([[3.0, 1, 2], [1, -12, 13], [2, 13, -11]])
print("A =\n", a)
print("index of A:", matrix_index(a))

result = group_inverse(a)
print("\ngroup inverse A# =\n", result.ginv)
# in the basis Q = [range basis | null basis] A is block diagonal, diag(C, 0)
q, q_inv, r = result.change_basis, result.change_basis_inv, result.rank
print("core block C (A restricted to its range):\n", (q_inv @ a @ q)[:r, :r])

residuals = verify_group_axioms(a, result.ginv)
print("\naxiom residuals:  AXA-A %.2e   XAX-X %.2e   AX-XA %.2e"
      % (residuals.axa, residuals.xax, residuals.commutator))

# symmetric, hence range-symmetric: pseudoinverse and group inverse agree
print("\nA is range-symmetric:", is_ep(a))
print("max |A# - A+| =", np.abs(result.ginv - moore_penrose(a)).max())

# a skewed embedding is not range-symmetric and the two inverses differ
s = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.5], [0.2, 0.0, 1.0]])
core = np.array([[2.0, 1.0], [0.0, 1.0]])
b = s @ np.block([[core, np.zeros((2, 1))], [np.zeros((1, 3))]]) @ np.linalg.inv(s)
print("\nskewed example: range-symmetric?", is_ep(b))
gap = verify_group_axioms(b, moore_penrose(b)).commutator
print("pseudoinverse commutation residual: %.3f  (the group inverse commutes exactly)" % gap)
