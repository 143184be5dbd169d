"""Exact finite-L moments of every route's spectrum.

For the Fermi projection of Gamma localized to L * Omega, with kernel K,

    Tr A   = |Gamma| |L Omega| / (2 pi)^d          (the Weyl term),
    Tr A^2 = integral of |K(u)|^2 g(u) du,

g being the covariogram |L Omega intersected with (L Omega + u)|.  Their
difference is kappa_2 = sum m lambda (1 - lambda), the variance of the
particle number in L * Omega (Klich & Levitov 2009, PRL 102:100502).
Both are known at every L without a solve, so they check the whole
spectrum of each route at production size with no dense oracle: a
missed window value, a wrong count of exact 1s or a wrong multiplicity
moves kappa_2 by about one eigenvalue's share, while the noise floor
moves it by about n * 1e-16, since t (1 - t) is Lipschitz.

Each case's bound is on the larger of the two relative deviations,
sum m lambda against Tr A and sum m lambda (1 - lambda) against
kappa_2.  It is the deviation measured on x86-64 Linux (numpy 2.4,
scipy 1.17), given in the comment beside it, times about ten.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j1, roots_legendre, sici

from fermient import Ball, Box, LatticeSea, interval, pipeline_spectrum

UNIT = interval(0.0, 1.0)
DISK = Ball((0.0, 0.0), 1.0)
BALL3 = Ball((0.0, 0.0, 0.0), 1.0)


def _gauss_panels(a, b, panels, points=20):
    """Composite Gauss-Legendre rule on [a, b] with equal panels."""
    x, w = roots_legendre(points)
    edges = np.linspace(a, b, panels + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


def lattice_moments(k_fermi, n):
    """(Tr C, kappa_2) of the n-site sine kernel, in long double:
    Tr C = n k_F / pi and
    Tr C^2 = n (k_F / pi)^2 + 2 sum_{d<n} (n - d) sin^2(k_F d) / (pi d)^2."""
    pi = np.arccos(np.longdouble(-1.0))
    k = np.longdouble(k_fermi)
    d = np.arange(1, n, dtype=np.longdouble)
    trace = n * k / pi
    square = n * (k / pi) ** 2 \
        + 2 * np.sum((n - d) * (np.sin(k * d) / (pi * d)) ** 2)
    return float(trace), float(trace - square)


def axis_moments(c):
    """(Tr A, kappa_2) of sin(c (x - y)) / (pi (x - y)) on [-1, 1]:
    Tr A = 2c / pi and
    Tr A^2 = (2 / pi^2) int_0^2 (2 - u) sin^2(c u) / u^2 du
           = (2 / pi^2) [2c Si(4c) - sin^2(2c) - (gamma + ln 4c - Ci(4c)) / 2],
    with kappa_2 = Tr A - Tr A^2 taken through pi/2 - Si(4c), which
    does not cancel."""
    si, ci = sici(4.0 * c)
    kappa = 2.0 / math.pi ** 2 * (
        2.0 * c * (0.5 * math.pi - si) + math.sin(2.0 * c) ** 2
        + 0.5 * (np.euler_gamma + math.log(4.0 * c) - ci))
    return 2.0 * c / math.pi, kappa


def product_moments(axes):
    """(Tr A, kappa_2) of a tensor product from its axes' (Tr, kappa_2):
    prod t_i - prod s_i, s_i = t_i - kappa_i, telescoped into a sum of
    kappa_i terms, so nothing cancels."""
    trace = math.prod(t for t, _ in axes)
    kappa = sum(math.prod(t - k for t, k in axes[:i]) * kappa_i
                * math.prod(t for t, _ in axes[i + 1:])
                for i, (_, kappa_i) in enumerate(axes))
    return trace, kappa


def disk_moments(R):
    """(Tr A, kappa_2) of the unit momentum disk on a disk of radius R:
    Tr A = R^2 / 4 and Tr A^2 = int_0^2R 2 pi r (J_1(r) / (2 pi r))^2
    g(r) dr, g(r) = 2R^2 arccos(r / 2R) - (r / 2) sqrt(4R^2 - r^2).
    With r = 2R cos(theta), g = R^2 (2 theta - sin(2 theta)) is smooth
    at r = 2R, so Gauss panels converge."""
    theta, w = _gauss_panels(0.0, 0.5 * math.pi, math.ceil(2 * R) + 4)
    r = 2.0 * R * np.cos(theta)
    integrand = j1(r) ** 2 / (2.0 * math.pi * r) \
        * R * R * (2.0 * theta - np.sin(2.0 * theta)) * 2.0 * R * np.sin(theta)
    trace = 0.25 * R * R
    return trace, trace - float(w @ integrand)


def ball3_moments(R):
    """(Tr A, kappa_2) of the unit momentum ball on a ball of radius R
    in 3D: Tr A = 2R^3 / (9 pi) and Tr A^2 = int_0^2R 4 pi r^2 K(r)^2
    g(r) dr, K(r) = (sin r - r cos r) / (2 pi^2 r^3) and
    g(r) = pi (4R + r) (2R - r)^2 / 12."""
    r, w = _gauss_panels(0.0, 2.0 * R, math.ceil(2 * R) + 4)
    kernel = (np.sin(r) - r * np.cos(r)) / (2.0 * math.pi ** 2 * r ** 3)
    covariogram = math.pi * (4.0 * R + r) * (2.0 * R - r) ** 2 / 12.0
    trace = 2.0 * R ** 3 / (9.0 * math.pi)
    return trace, trace - float(
        w @ (4.0 * math.pi * r * r * kernel * kernel * covariogram))


def disk_on_square_moments(L):
    """(Tr A, kappa_2) of the unit momentum disk on the square [0, L]^2:
    Tr A = L^2 / (4 pi) and Tr A^2 = int |K(u)|^2 (L - |u_x|)(L - |u_y|)
    du over [-L, L]^2, K(u) = J_1(|u|) / (2 pi |u|), even in each
    coordinate, on a product Gauss rule over one quadrant."""
    u, w = _gauss_panels(0.0, L, math.ceil(L) + 2)
    ux, uy = np.meshgrid(u, u, indexing="ij")
    r = np.hypot(ux, uy)
    square = 4.0 * float(w @ ((j1(r) / (2.0 * math.pi * r)) ** 2
                              * (L - ux) * (L - uy)) @ w)
    trace = L * L / (4.0 * math.pi)
    return trace, trace - square


# route-pair: (gamma, omega, L, (Tr A, kappa_2), bound); the route is
# the one pipeline_spectrum takes, continuum the Nystrom matrix.
CASES = {
    # -4.0e-14, +3.0e-14, +1.0e-13 and -7.3e-13 (the 10^5 sites take 2 s).
    "lattice-kf1-n4000": (LatticeSea(((-1.0, 1.0),)), UNIT, 4000,
                          lattice_moments(1.0, 4000), 5e-13),
    "lattice-kf0.3-n4000": (LatticeSea(((-0.3, 0.3),)), UNIT, 4000,
                            lattice_moments(0.3, 4000), 5e-13),
    "lattice-kf0.05-n20000": (LatticeSea(((-0.05, 0.05),)), UNIT, 20000,
                              lattice_moments(0.05, 20000), 1e-12),
    "lattice-half-n100000": (LatticeSea(((-0.5 * math.pi, 0.5 * math.pi),)),
                             UNIT, 100000,
                             lattice_moments(0.5 * math.pi, 100000), 1e-11),
    # c = L / 2 = 30, 300, 1000 and 3900 (near the default budget's
    # 3973): +5.2e-16, +8.1e-14, -2.7e-14 and -9.2e-14.
    "prolate-c30": (interval(-1.0, 1.0), UNIT, 60.0,
                    axis_moments(30.0), 1e-14),
    "prolate-c300": (interval(-1.0, 1.0), UNIT, 600.0,
                     axis_moments(300.0), 1e-12),
    "prolate-c1000": (interval(-1.0, 1.0), UNIT, 2000.0,
                      axis_moments(1000.0), 1e-12),
    "prolate-c3900": (interval(-1.0, 1.0), UNIT, 7800.0,
                      axis_moments(3900.0), 1e-12),
    # +1.6e-14, +8.8e-16 and +3.8e-14 (axes at c = 150 and 300).
    "tensor_box-square": (Box(((-1.0, 1.0),) * 2), Box(((0.0, 1.0),) * 2), 300.0,
                      product_moments([axis_moments(150.0)] * 2), 2e-13),
    "tensor_box-cube": (Box(((-1.0, 1.0),) * 3), Box(((0.0, 1.0),) * 3), 100.0,
                    product_moments([axis_moments(50.0)] * 3), 1e-14),
    "tensor_box-rectangle": (Box(((-1.0, 1.0),) * 2),
                         Box(((0.0, 1.0), (0.0, 2.0))), 300.0,
                         product_moments([axis_moments(150.0),
                                          axis_moments(300.0)]), 5e-13),
    # +4.8e-14, +3.7e-13, +1.9e-12 (1.4 s); 3D: +1.1e-14, +3.5e-14,
    # +2.7e-13.  The trace reads within 1.2e-14 in each.
    "radial-disk-L16": (DISK, DISK, 16.0,
                        disk_moments(16.0), 5e-13),
    "radial-disk-L64": (DISK, DISK, 64.0,
                        disk_moments(64.0), 3e-12),
    "radial-disk-L128": (DISK, DISK, 128.0,
                         disk_moments(128.0), 2e-11),
    "radial-ball3-L8": (BALL3, BALL3, 8.0,
                        ball3_moments(8.0), 5e-13),
    "radial-ball3-L16": (BALL3, BALL3, 16.0,
                         ball3_moments(16.0), 5e-13),
    "radial-ball3-L64": (BALL3, BALL3, 64.0,
                         ball3_moments(64.0), 3e-12),
    # -3.8e-12, -1.4e-11 and +1.0e-11 (the trace: 2.0e-12 at L = 16).
    "continuum-disk-square-L4": (DISK, Box(((0.0, 1.0),) * 2), 4.0,
                               disk_on_square_moments(4.0), 1e-10),
    "continuum-disk-square-L8": (DISK, Box(((0.0, 1.0),) * 2), 8.0,
                               disk_on_square_moments(8.0), 1e-10),
    "continuum-disk-square-L16": (DISK, Box(((0.0, 1.0),) * 2), 16.0,
                                disk_on_square_moments(16.0), 1e-10),
}


@functools.cache
def spectrum_of(case):
    return pipeline_spectrum(*CASES[case][:3])


def moment_dev(spectrum, trace, kappa):
    """The larger relative deviation of sum m lambda from Tr A and of
    sum m lambda (1 - lambda) from kappa_2."""
    lam, m = spectrum.values, spectrum.multiplicities
    return max(abs(float(m @ lam) - trace) / trace,
               abs(float(m @ (lam * (1.0 - lam))) - kappa) / kappa)


def nearest_half(spectrum):
    return int(np.argmin(np.abs(spectrum.values - 0.5)))


@pytest.mark.parametrize("case", CASES)
def test_spectrum_meets_the_exact_moments(case):
    spectrum, _, mode = spectrum_of(case)
    assert case.split("-")[0] == mode
    (trace, kappa), bound = CASES[case][3:]
    assert moment_dev(spectrum, trace, kappa) <= bound


@pytest.mark.parametrize("case, defect", [
    *[(case, "dropped") for case in CASES],
    *[(case, "doubled") for case in CASES if case.startswith("radial")],
])
def test_a_planted_defect_breaks_the_moments(case, defect):
    # dropped: one copy of the value nearest 1/2 left out, as a missed
    # window value would be.  doubled: that value counted with twice its
    # multiplicity; a radial value is stored once with its sector's (1
    # or 2 in 2D, 2l + 1 in 3D).
    spectrum = spectrum_of(case)[0]
    multiplicities = spectrum.multiplicities.copy()
    i = nearest_half(spectrum)
    multiplicities[i] = (multiplicities[i] - 1 if defect == "dropped"
                         else 2 * multiplicities[i])
    (trace, kappa), bound = CASES[case][3:]
    assert moment_dev(replace(spectrum, multiplicities=multiplicities),
                      trace, kappa) > 1e6 * bound
