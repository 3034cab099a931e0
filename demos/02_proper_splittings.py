"""
Proper splittings and their classes
===================================

A splitting A = U - V is proper when U preserves the range and null
space of A.  Its single-splitting iteration converges to the
group-inverse solution exactly when rho(U#V) < 1, and for the G-weak
regular subclass that happens exactly when A is group monotone
(A# >= 0).  This script builds splittings, classifies them, evaluates
the identities every proper splitting satisfies, and generates G-weak
regular splittings at random.
"""

import numpy as np

from altiter import (
    Scheme,
    SplittingClass,
    group_inverse,
    iteration_matrix,
    make_splitting,
    random_group_monotone,
    splitting_identity_residuals,
)
from altiter.catalog import get_fixture, splitting_of

np.set_printoptions(precision=4, suppress=True)

# -- a hand-made splitting of a built-in problem ------------------------------
fx = get_fixture("ex3.1")
s = splitting_of(fx, "u")
print("classes:", sorted(c.value for c in s.classes))
print("U# >= 0 everywhere, min entry %.4f" % s.u_ginv.min())
print("V has a negative entry, min %.1f, so the splitting is not G-regular"
      % s.v.min())
print("U#V >= 0, min %.4f, so it is G-weak regular" % iteration_matrix(Scheme((s,))).min())

# the exact identities every proper splitting satisfies; A# comes from the
# decomposition of A the splitting was validated against, s.target
ident = splitting_identity_residuals(s)
print("\nidentity residuals (all at roundoff): %.2e" % ident.max_residual())
print("convergence factor rho(U#V) = %.4f" % Scheme((s,)).rho)
print("group monotone target? min(A#) = %.4f" % s.target.ginv.min())

# -- random generation --------------------------------------------------------
# a random 3x3 group-monotone matrix of rank 2, which carries its own
# decomposition as inst.target, and a G-weak regular splitting of it drawn
# at random and validated against that target; deterministic per seed.
# U = A (I - G)^-1 for a small nonnegative G on the core block, so U#V = G >= 0
rng = np.random.default_rng(123)
inst = random_group_monotone(3, 2, rng)
a = inst.a
g = np.zeros_like(a)
g[np.ix_(inst.perm[:2], inst.perm[:2])] = rng.uniform(0, 1, (2, 2)) * rng.uniform(0.01, 0.3)
generated = make_splitting(inst.target, a @ np.linalg.solve(np.eye(3) - g, np.eye(3)))
print("\nA =\n", a)
print("generated U =\n", generated.u)
print("classes:", sorted(c.value for c in generated.classes))
print("rho(U#V) = %.4f < 1" % Scheme((generated,)).rho)

# rebuilding from scratch, with a fresh decomposition of A, reproduces the
# classification
rebuilt = make_splitting(group_inverse(a), generated.u)
assert rebuilt.target is not generated.target
assert SplittingClass.G_WEAK_REGULAR in rebuilt.classes
print("re-validation agrees.")
