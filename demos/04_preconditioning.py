"""
Commuting preconditioners
=========================

When the group inverse is not entrywise nonnegative, no G-weak regular
splitting can converge.  A nonsingular Q with QA = AQ and A# Q^-1 >= 0
repairs that: splittings of QA drive the iteration, the right-hand side
becomes Qb, and the limit is still the group-inverse solution of the
original system.  A preconditioner is the matrix Q itself: the scalar
construction returns +c I or -c I for one-signed inverses, mixed signs
need a supplied Q, and a scheme carries Q and applies it to b.  The
builders and the validator take A's one decomposition, never A itself:
they read A, A# and the tolerances from it.
"""

import numpy as np

from altiter import (
    UnsupportedSignError,
    build_scalar_preconditioner,
    fixed_point,
    group_inverse,
    iterate,
    validate_preconditioner,
)
from altiter.catalog import build_scheme, comparison, get_fixture

np.set_printoptions(precision=4, suppress=True)

fx = get_fixture("ex5.3")
a, b, q = fx.matrices["a"], fx.matrices["b"], fx.matrices["q"]
a_target = group_inverse(a, fx.tol)  # decomposed once: A, A# and the tolerances
print("min entry of A#: %.4f  (mixed signs)" % a_target.ginv.min())

# no scalar choice exists here
try:
    build_scalar_preconditioner(a_target, 1.0)
except UnsupportedSignError as exc:
    print("scalar preconditioner:", exc)

# the supplied q commutes and makes the scaled inverse nonnegative
report = validate_preconditioner(a_target, q)
print("validation residuals: commute %.2e, inverse identity %.2e, nonneg %s"
      % (report.commute, report.ginv_identity, report.scaled_nonneg))

# three splittings of q a drive a fast preconditioned solve; the scheme
# carries q itself as its preconditioner
scheme = build_scheme(fx)
trace = iterate(scheme, b)
truth = a_target.ginv @ b[:, 0]
print("\npreconditioned three-step: rho %.4f, %d iterations" %
      (scheme.rho, trace.iterations))
print("solution      ", trace.x_final)
print("original A# b ", truth)
print("fixed point   ", fixed_point(scheme, b))

# preconditioning also speeds up systems that already converge (ex5.4's claim)
(cmp_report,) = comparison(get_fixture("ex5.4"))
print("\ngroup-monotone system: plain rho %.4f vs preconditioned rho %.4f"
      % (cmp_report.conclusion_rhs, cmp_report.conclusion_lhs))
print("all hypotheses satisfied:", cmp_report.hypotheses_hold)
