"""Cross-checking the boundary coefficient J(dGamma, dOmega).

J is the double surface integral of |m . n| / (2 pi)^(d-1) over the two
boundaries.  widom_J gives it exactly: a polytope enters through its
faces, so polytope pairs are an exact sum over face pairs, and a ball on
either side has a closed form.  The checks: a ball boundary integrated
numerically at a given resolution, and any pair by Monte Carlo.  All
routes have to agree, and J has to scale like L^(d-1) under dilation of
Omega.
"""

import numpy as np

from fermient.geometry import (
    Ball,
    Box,
    ConvexPolygon,
    widom_J,
    widom_J_monte_carlo,
)


def show(name, gamma, omega, resolution=None):
    """The exact J, its quadrature at resolution (if given), and Monte
    Carlo."""
    coefficients = [widom_J(gamma, omega)]
    if resolution is not None:
        coefficients.append(widom_J(gamma, omega, resolution))
    mc = widom_J_monte_carlo(gamma, omega, rng=np.random.default_rng(11))
    values = [c.value for c in coefficients]
    print(f"{name}:")
    for c in coefficients:
        print(f"    {c.method:<15} {c.value:.10f}")
    print(f"    {'monte_carlo':<15} {mc.value:.10f} +- {mc.error_estimate:.1e}")
    if len(values) > 1:
        print(f"    deterministic spread {max(values) - min(values):.2e}")


def main():
    square = Box(((-1.0, 1.0), (-1.0, 1.0)))
    unit_square = Box(((0.0, 1.0), (0.0, 1.0)))
    show("square x square (exact 8/pi = 2.5464790895...)",
         square, unit_square)

    disk = Ball((0.0, 0.0), 1.0)
    show("disk x square (exact 8/pi)", disk, unit_square, resolution=256)
    show("disk x disk (exact 4)", disk, disk, resolution=256)

    triangle = ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)))
    show("square x triangle", square, triangle)

    # Dilating the spatial region multiplies J by L^(d-1).
    print("dilation scaling, disk x disk:")
    base = widom_J(disk, disk).value
    for L in (2.0, 5.0, 10.0):
        scaled = widom_J(disk, Ball((0.0, 0.0), L)).value
        print(f"    L = {L:5.1f}   J = {scaled:12.6f}   J / L^(d-1) = "
              f"{scaled / L:.10f}   (base {base:.10f})")


if __name__ == "__main__":
    main()
