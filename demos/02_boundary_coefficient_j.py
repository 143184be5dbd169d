"""Cross-checking the boundary coefficient J(dGamma, dOmega).

J is the double surface integral of |m . n| / (2 pi)^(d-1) over the two
boundaries.  A polytope enters through its faces, so polytope pairs are
an exact sum over face pairs; spherical momentum regions have a closed
form; a ball boundary is integrated numerically, and any pair by Monte
Carlo.  All routes have to agree, and J has to scale like L^(d-1) under
dilation of Omega.
"""

import numpy as np

from fermient.geometry import (
    Ball,
    Box,
    ConvexPolygon,
    widom_J,
    widom_J_monte_carlo,
)


def show(name, gamma, omega, methods):
    values = {}
    for method in methods:
        values[method] = widom_J(gamma, omega, method=method).value
    mc = widom_J_monte_carlo(gamma, omega, rng=np.random.default_rng(11))
    spread = max(values.values()) - min(values.values())
    print(f"{name}:")
    for method, value in values.items():
        print(f"    {method:<12} {value:.10f}")
    print(f"    {'monte_carlo':<12} {mc.value:.10f} +- {mc.error_estimate:.1e}")
    if len(values) > 1:
        print(f"    deterministic spread {spread:.2e}")
    return values


def main():
    square = Box(((-1.0, 1.0), (-1.0, 1.0)))
    unit_square = Box(((0.0, 1.0), (0.0, 1.0)))
    show("square x square (exact 8/pi = 2.5464790895...)",
         square, unit_square, ("face_pair",))

    disk = Ball((0.0, 0.0), 1.0)
    show("disk x square (exact 8/pi)", disk, unit_square,
         ("closed_form", "quadrature"))
    show("disk x disk (exact 4)", disk, disk, ("closed_form", "quadrature"))

    triangle = ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)))
    show("square x triangle", square, triangle, ("face_pair",))

    # Dilating the spatial region multiplies J by L^(d-1).
    print("dilation scaling, disk x disk:")
    base = widom_J(disk, disk).value
    for L in (2.0, 5.0, 10.0):
        scaled = widom_J(disk, Ball((0.0, 0.0), L)).value
        print(f"    L = {L:5.1f}   J = {scaled:12.6f}   J / L^(d-1) = "
              f"{scaled / L:.10f}   (base {base:.10f})")


if __name__ == "__main__":
    main()
