"""Continuum 1D scaling sweeps: one interval and two.

Momentum region [-1, 1], spatial region [0, 1] dilated by L: the von
Neumann entropy follows S(L) = (1/3) ln L + const with the 1/3 fixed by
I(h_1) * J = (1/12) * 4, the predicted prefactor printed first.  One
interval takes the prolate route (n is its Legendre basis size); making
the spatial region two intervals takes the Nystrom discretization (n is
its node count) and doubles the boundary, and with it the fitted
coefficient.
"""

import numpy as np

from fermient import (IntervalUnion, interval, predicted_log_prefactor,
                      sweep, widom_J)
from fermient.asymptotics import compare_theory, fit_scaling


def run(gamma, omega, label):
    result = sweep(gamma, omega, [1.0], np.geomspace(20.0, 200.0, 8))[1.0]
    print(f"{label} ({result.results[0].mode} route):")
    print(f"{'L':>8} {'n':>6} {'S_1':>10}")
    for point in result.results:
        print(f"{point.L:8.2f} {point.n:6d} {point.S:10.6f}")
    fit = fit_scaling(result)
    comparison = compare_theory(fit, widom_J(gamma, omega).value, 1.0)
    print(f"    fitted a = {fit.log_coefficient:.6f} +- {fit.stderr_log:.1e}"
          f"   theory {comparison['theory']:.6f}"
          f"   rel dev {comparison['rel_dev']:.2e}")
    print()
    return fit


def main():
    gamma = interval(-1.0, 1.0)
    prefactor = predicted_log_prefactor(1.0) \
        * widom_J(gamma, interval(0.0, 1.0)).value
    print(f"predicted coefficient of ln L: {prefactor:.6f} "
          "(h_1(1) = 0, so no volume term)\n")

    single = run(gamma, interval(0.0, 1.0), "omega = [0, 1]")
    double = run(gamma, IntervalUnion(((0.0, 1.0), (1.5, 2.5))),
                 "omega = [0, 1] u [1.5, 2.5]")
    ratio = double.log_coefficient / single.log_coefficient
    print(f"two-interval / one-interval coefficient ratio: {ratio:.4f} "
          "(doubling the boundary doubles the log term)")


if __name__ == "__main__":
    main()
