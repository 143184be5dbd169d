"""The logarithmic-term coefficient as a functional of the entropy function.

For any smooth enough f with f(0) = 0, the trace asymptotics of the
localized Fermi projection carry the boundary term

    I(f) = (1/4 pi^2) * integral_0^1 [f(t) - t f(1)] / (t (1-t)) dt,

and for the Renyi function h_alpha this evaluates in closed form to
(1 + alpha) / (24 alpha).  This script pits the quadrature of the
defining integral, which raises unless it converges, against that closed
form.
"""

import math

from fermient.functionals import (
    entropy_log_coefficient,
    log_coefficient_functional,
    predicted_log_prefactor,
)

print("I(h_alpha) by quadrature and in closed form")
print(f"{'alpha':>7} {'closed form':>14} {'quadrature':>14} {'dev':>10}")
for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 10.0, math.inf):
    closed = predicted_log_prefactor(alpha)
    numeric = entropy_log_coefficient(alpha).value
    label = "inf" if math.isinf(alpha) else alpha
    print(f"{str(label):>7} {closed:14.10f} {numeric:14.10f} "
          f"{abs(numeric - closed):10.2e}")

# Two sanity anchors: a linear f sees no boundary term at all, and
# f(t) = t(1-t) integrates to exactly 1/(4 pi^2).
linear = log_coefficient_functional(lambda t: t)
parabola = log_coefficient_functional(lambda t: t * (1.0 - t))
print()
print(f"I(t)        = {linear.value:+.3e}   (exact 0)")
print(f"I(t(1-t))   = {parabola.value:.12f}   "
      f"(exact 1/(4 pi^2) = {1.0 / (4.0 * math.pi ** 2):.12f})")
print(f"evaluations: {parabola.evaluations}")
