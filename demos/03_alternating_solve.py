"""
One-, two- and three-step alternating solves
============================================

Sweeping through several splittings per outer step composes their
iteration matrices; with three G-regular splittings of a group-monotone
matrix the composite spectral radius undercuts every individual one, so
the alternating scheme needs far fewer iterations for the same target
accuracy.  The run below reproduces the showcase problem end to end.
"""

import numpy as np

from altiter import (
    IterationConfig,
    Scheme,
    fixed_point,
    group_inverse,
    iterate,
    three_step_comparison,
)
from altiter.catalog import build_scheme, get_fixture, splitting_of

np.set_printoptions(precision=6, suppress=True)

fx = get_fixture("ex5.1")
a, b = fx.matrices["a"], fx.matrices["b"]
truth = group_inverse(a).ginv @ b[:, 0]
print("target solution A# b =", truth)

# individual splittings first
cfg = IterationConfig(eps=1e-6)
for key in ("k", "u", "x"):
    single = Scheme(splittings=(splitting_of(fx, key),))
    trace = iterate(single, b, cfg)
    print("one-step %s: rho %.4f  iterations %3d  error %.2e"
          % (key, single.rho, trace.iterations,
             np.linalg.norm(trace.x_final - truth)))

# the three-step composite
scheme = build_scheme(fx)
trace = iterate(scheme, b, cfg)
print("three-step: rho %.4f  iterations %3d  error %.2e"
      % (scheme.rho, trace.iterations, np.linalg.norm(trace.x_final - truth)))
print("fixed point check:", fixed_point(scheme, b))

# the comparison checker certifies why this worked
report = three_step_comparison(scheme)
print("\nhypotheses all satisfied:", report.hypotheses_hold)
print("rho(H) = %.4f <= min individual %.4f"
      % (report.conclusion_lhs, report.conclusion_rhs))

# convergence of the parts does not compose unconditionally: this problem
# has three individually convergent splittings with a divergent composite
fx_div = get_fixture("ex4.1")
scheme_div = build_scheme(fx_div)
print("\ncounterexample: individual radii",
      [round(Scheme((splitting_of(fx_div, k),)).rho, 4)
       for k in ("k", "u", "x")],
      "but rho(H) = %.4f" % scheme_div.rho)
trace_div = iterate(scheme_div, fx_div.matrices["b"])
print("three-step run: converged =", trace_div.converged,
      "after", trace_div.iterations, "iterations")
