"""
Commuting preconditioners
=========================

When the group inverse is not entrywise nonnegative, no G-weak regular
splitting can converge.  A nonsingular Q with QA = AQ and A# Q^-1 >= 0
repairs that: splittings of QA drive the iteration, the right-hand side
becomes Qb, and the limit is still the group-inverse solution of the
original system.  A preconditioner is the matrix Q itself: the scalar
construction returns +c I or -c I for one-signed inverses, mixed signs
need a supplied Q, and a scheme carries Q and applies it to b.
"""

import numpy as np

from altiter import (
    UnsupportedSignError,
    build_scalar_preconditioner,
    fixed_point,
    group_inverse,
    iterate,
    preconditioned_comparison,
    validate_preconditioner,
    make_splitting,
)
from altiter.catalog import build_scheme, get_fixture, splitting_of

np.set_printoptions(precision=4, suppress=True)

fx = get_fixture("ex5.3")
a, b, q = fx.matrices["a"], fx.matrices["b"], fx.matrices["q"]
print("min entry of A#: %.4f  (mixed signs)" % group_inverse(a).ginv.min())

# no scalar choice exists here
try:
    build_scalar_preconditioner(a, 1.0)
except UnsupportedSignError as exc:
    print("scalar preconditioner:", exc)

# the supplied q commutes and makes the scaled inverse nonnegative
report = validate_preconditioner(a, q, fx.tol)
print("validation residuals: commute %.2e, inverse identity %.2e, nonneg %s"
      % (report.commute, report.ginv_identity, report.scaled_nonneg))

# three splittings of q a drive a fast preconditioned solve; the scheme
# carries q itself as its preconditioner
scheme = build_scheme(fx)
trace = iterate(scheme, b)
truth = group_inverse(a).ginv @ b[:, 0]
print("\npreconditioned three-step: rho %.4f, %d iterations" %
      (trace.rho_h, trace.iterations))
print("solution      ", trace.x_final)
print("original A# b ", truth)
print("fixed point   ", fixed_point(scheme, b))

# preconditioning also speeds up systems that already converge
fx54 = get_fixture("ex5.4")
s_plain = splitting_of(fx54, "k")
qa = fx54.matrices["q"] @ fx54.matrices["a"]
s_pre = make_splitting(qa, fx54.matrices["k_pre"], fx54.tol)
cmp_report = preconditioned_comparison(
    fx54.matrices["a"], s_plain, fx54.matrices["q"], s_pre, fx54.tol
)
print("\ngroup-monotone system: plain rho %.4f vs preconditioned rho %.4f"
      % (cmp_report.conclusion_rhs, cmp_report.conclusion_lhs))
print("all hypotheses satisfied:", cmp_report.hypotheses_hold)
