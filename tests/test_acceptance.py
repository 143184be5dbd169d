"""Acceptance criteria, one test per criterion.

Each test prints a single `A<k> PASS/FAIL <numbers>` line (visible with
-s, or in the captured output on failure) and asserts the stated
tolerances.  The expensive sweeps come from session fixtures in
conftest.py and are shared with the unit tests.
"""

import functools
import math
import time

import numpy as np
import pytest

from fermient import (
    Ball,
    LatticeSea,
    eigenvalues,
    pipeline_spectrum,
    renyi_entropy,
    sweep,
)
from fermient.asymptotics import fit_scaling
from fermient.discretize import nystrom
from fermient.functionals import entropy_log_coefficient, entropy_function
from fermient.geometry import widom_J
from fermient.validate import (check_kernel_fourier, check_kernel_hermiticity,
                               check_projector_entropy, check_role_swap)

from conftest import GAMMA_1D, GAMMA_BOX, OMEGA_BOX, OMEGA_UNIT


def _report(tag: str, ok: bool, detail: str) -> str:
    line = f"{tag} {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


def test_A1_functional_closed_form():
    """I(h_alpha) = (1 + alpha) / (24 alpha), eight orders (alpha = inf
    included, whose limit is 1/24), under 1 second.  A quadrature that
    does not converge raises, so every value here converged."""
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 10.0, math.inf):
        result = entropy_log_coefficient(alpha)
        target = (1.0 / 24.0 if math.isinf(alpha)
                  else (1.0 + alpha) / (24.0 * alpha))
        worst = max(worst, abs(result.value - target))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-14 and elapsed < 1.0
    line = _report("A1", ok, f"max |I(h_a) - closed form| = {worst:.2e}, "
                             f"runtime {elapsed:.2f}s")
    assert ok, line


def test_A2_lattice_log_law(lattice_sweeps):
    """Half-filled Toeplitz blocks, fitted ln n coefficient vs (1+a)/(6a)."""
    tolerances = {1.0: 0.02, 2.0: 0.03, 0.5: 0.03}
    devs = {}
    ok = True
    for alpha, tol in tolerances.items():
        fit = fit_scaling(lattice_sweeps[alpha])
        theory = (1.0 + alpha) / (6.0 * alpha)
        devs[alpha] = abs(fit.log_coefficient / theory - 1.0)
        ok = ok and devs[alpha] < tol
    detail = ", ".join(f"alpha={a}: dev {devs[a]:.3%} (tol {t:.0%})"
                       for a, t in tolerances.items())
    line = _report("A2", ok, detail)
    assert ok, line


def test_lattice_quarter_order_log_law(lattice_sweeps):
    """alpha = 1/4 on the A2 lattice grid: within 1% of (1+a)/(6a) = 5/6.

    Small orders weigh eigenvalues near 0 and 1 as lambda^alpha, so
    eigensolver noise near 1e-16 shows here first: the ~n noise
    eigenvalues a dense solve leaves bias this fit by +10%."""
    fit = fit_scaling(lattice_sweeps[0.25])
    dev = abs(fit.log_coefficient / (5.0 / 6.0) - 1.0)
    line = _report("A2q", dev < 0.01, f"alpha=1/4: dev {dev:.3%} (tol 1%)")
    assert dev < 0.01, line


def test_continuum_quarter_order_log_law():
    """alpha = 1/4 for the 1D continuum, Gamma = [-1, 1], Omega = [0, 1],
    L = 60..600 (8 geometric points): within 1% of (1+a)/(6a) = 5/6.

    The prolate route leaves no eigensolver noise near 0 or 1 (the dense
    Nystrom spectrum biased this fit by +4.9%).  The L_GRID sweep (20..200)
    reads +0.9% here, too close to the bound to gate."""
    result = sweep(GAMMA_1D, OMEGA_UNIT, [0.25],
                   np.geomspace(60.0, 600.0, 8))[0.25]
    dev = abs(fit_scaling(result).log_coefficient / (5.0 / 6.0) - 1.0)
    ok = dev < 0.01 and {r.mode for r in result.results} == {"prolate"}
    line = _report("A3q", ok, f"alpha=1/4: dev {dev:.3%} (tol 1%)")
    assert ok, line


def test_A3_continuum_interval(continuum_sweep, two_interval_sweep):
    """1D continuum sweep (the prolate route for one interval, Nystrom for
    two): coefficient 1/3 within 5%; two intervals double it."""
    single = fit_scaling(continuum_sweep).log_coefficient
    double = fit_scaling(two_interval_sweep).log_coefficient
    dev_single = abs(single / (1.0 / 3.0) - 1.0)
    dev_ratio = abs(double / single / 2.0 - 1.0)
    ok = dev_single < 0.05 and dev_ratio < 0.07
    line = _report("A3", ok,
                   f"fitted {single:.5f} vs 1/3 (dev {dev_single:.3%}, "
                   f"tol 5%); two-interval ratio {double / single:.4f} vs 2 "
                   f"(dev {dev_ratio:.3%}, tol 7%)")
    assert ok, line


# The d = 1 pointwise oracle.  One interval of l sites (or of length l)
# in a Fermi sea of momentum k_F has, up to terms of order x^(-4/alpha),
#
#   S_alpha = (1 + 1/alpha)/6 ln x + Upsilon_alpha
#             + 2/(1 - alpha) cos(2 k_F l) x^(-2/alpha) G_alpha^2,
#
# with x = 2 l sin k_F on the lattice and 2 k_F l in the continuum, and
# G_alpha = Gamma((1 + 1/alpha)/2) / Gamma((1 - 1/alpha)/2), so the
# oscillating term is 0 at alpha = 1 (Jin & Korepin 2004, J. Stat.
# Phys. 116:79; Calabrese & Essler 2010, J. Stat. Mech. P08029).  Each
# bound, at alpha = 1/2, 1, 2 and 3, is about 3x the residual measured
# when it was set.  The alpha = 1/4 residuals are printed as the
# baseline of the small-order work and not gated.
EXPANSION_ORDERS = (0.5, 1.0, 2.0, 3.0)


@functools.lru_cache(maxsize=None)
def _upsilon(alpha: float) -> float:
    """Upsilon_alpha = (1 + 1/a) int_0^inf (dt/t) [(1/(1 - a^-2))
    (1/(a sinh(t/a)) - 1/sinh t) / sinh t - e^(-2t)/6], at 40 digits.
    At alpha = 1 the prefactor 1/(1 - a^-2) is singular, so the value is
    the mean of those at 1 +- 1e-6 (0.4950179081)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        def at(a):
            def integrand(t):
                s = mpmath.sinh(t)
                return ((1 / (a * mpmath.sinh(t / a)) - 1 / s)
                        / ((1 - a ** -2) * s) - mpmath.exp(-2 * t) / 6) / t
            return (1 + 1 / a) * mpmath.quad(integrand, [1e-12, 1, 10, 80])

        if alpha == 1.0:
            step = mpmath.mpf("1e-6")
            return float((at(1 - step) + at(1 + step)) / 2)
        return float(at(mpmath.mpf(alpha)))


def _d1_expansion(alpha: float, x: float, phase: float) -> float:
    """The expansion above at x, with phase = 2 k_F l."""
    oscillating = 0.0
    if alpha != 1.0:
        ratio = math.gamma((1.0 + 1.0 / alpha) / 2.0) \
            / math.gamma((1.0 - 1.0 / alpha) / 2.0)
        oscillating = 2.0 / (1.0 - alpha) * math.cos(phase) \
            * x ** (-2.0 / alpha) * ratio * ratio
    return (1.0 + 1.0 / alpha) / 6.0 * math.log(x) + _upsilon(alpha) \
        + oscillating


def _check_expansion(tag: str, cases) -> None:
    """cases: (label, spectrum, x, phase, bounds at EXPANSION_ORDERS)."""
    ok, parts = True, []
    for label, spectrum, x, phase, bounds in cases:
        residuals = {alpha: renyi_entropy(spectrum, alpha).S
                     - _d1_expansion(alpha, x, phase)
                     for alpha in (0.25, *EXPANSION_ORDERS)}
        ok = ok and all(abs(residuals[alpha]) < bound
                        for alpha, bound in zip(EXPANSION_ORDERS, bounds))
        parts.append(f"{label}: " + ", ".join(
            f"alpha={alpha:g} {value:+.1e}"
            for alpha, value in residuals.items()))
    line = _report(tag, ok, "; ".join(parts) + " (alpha=0.25 not gated)")
    assert ok, line


def test_A2p_lattice_pointwise_expansion():
    """Lattice blocks against the pointwise d = 1 expansion."""
    # Jin & Korepin's constant: S_1 = ln(2 n sin k_F) / 3 + 0.4950179081.
    assert abs(_upsilon(1.0) - 0.4950179081) < 1e-10
    cases = []
    for k_fermi, n, bounds in (
            (1.0, 1000, (2.1e-6, 1.6e-7, 1.1e-7, 5.6e-6)),
            (1.0, 4000, (3.1e-7, 9.6e-9, 7.8e-9, 9.9e-7)),
            (math.pi / 2.0, 4000, (3.1e-7, 3.2e-9, 6.5e-9, 6.2e-7))):
        spectrum = pipeline_spectrum(LatticeSea(((-k_fermi, k_fermi),)),
                                     OMEGA_UNIT, float(n))[0]
        cases.append((f"k_F={k_fermi:.4g} n={n}", spectrum,
                      2.0 * n * math.sin(k_fermi), 2.0 * k_fermi * n, bounds))
    _check_expansion("A2'", cases)


def test_A3p_prolate_pointwise_expansion():
    """The prolate route (Gamma = [-1, 1], Omega = [0, 1]) against the
    pointwise d = 1 expansion at x = 2L."""
    cases = []
    for L, bounds in ((600.0, (6.6e-6, 7.0e-7, 2.7e-7, 8.5e-6)),
                      (2000.0, (6.3e-7, 6.3e-8, 6.6e-8, 8.2e-7))):
        spectrum, _, mode = pipeline_spectrum(GAMMA_1D, OMEGA_UNIT, L)
        assert mode == "prolate"
        cases.append((f"L={L:g}", spectrum, 2.0 * L, 2.0 * L, bounds))
    _check_expansion("A3'", cases)


def test_A4_box_2d(box_sweep):
    """2D box pair: L ln L coefficient 2/(3*pi) within 10%, and the
    separable route matches a direct small-L discretization."""
    fit = fit_scaling(box_sweep)
    theory = 2.0 / (3.0 * math.pi)
    dev_fit = abs(fit.log_coefficient / theory - 1.0)

    direct = renyi_entropy(eigenvalues(nystrom(
        GAMMA_BOX, OMEGA_BOX, 3.0, budget=3000)), 1.0)
    tensor = renyi_entropy(pipeline_spectrum(
        GAMMA_BOX, OMEGA_BOX, 3.0)[0], 1.0)
    dev_direct = abs(direct.S - tensor.S)
    ok = dev_fit < 0.10 and dev_direct < 1e-6 and direct.n <= 3000
    line = _report("A4", ok,
                   f"fitted {fit.log_coefficient:.5f} vs {theory:.5f} "
                   f"(dev {dev_fit:.3%}, tol 10%); direct(n={direct.n}) vs "
                   f"tensor at L=3: {dev_direct:.2e} (tol 1e-6)")
    assert ok, line


def test_A5_widom_coefficients():
    """Boundary coefficient engine: exact sums, closed forms, quadrature."""
    start = time.perf_counter()
    square_exact = widom_J(GAMMA_BOX, OMEGA_BOX).value
    # The unit square against the unit disk is 8/pi as well; only the
    # disk side is discretized.
    disk = Ball((0.0, 0.0), 1.0)
    square_quad = widom_J(OMEGA_BOX, disk, resolution=256)
    dev_square = abs(square_quad.value - 8.0 / math.pi)

    disk_closed = widom_J(disk, disk).value
    disk_quad = widom_J(disk, disk, resolution=256).value
    dev_disk = abs(disk_closed - disk_quad)
    elapsed = time.perf_counter() - start

    ok = (abs(square_exact - 8.0 / math.pi) < 1e-12
          and dev_square <= square_quad.error_estimate
          and abs(disk_closed - 4.0) < 1e-12
          and dev_disk < 1e-3
          and elapsed < 10.0)
    line = _report("A5", ok,
                   f"square x disk 8/pi: quad dev {dev_square:.2e} (tol "
                   f"{square_quad.error_estimate:.2e}); "
                   f"disk 4: quad dev {dev_disk:.2e} (tol 1e-3); "
                   f"{elapsed:.2f}s")
    assert ok, line


def test_A6_structural_identities():
    """Particle-hole symmetry of lattice blocks, the role swap on the
    Nystrom route, projector entropies."""
    # 1 - C(k_F) = D C(pi - k_F) D, D = diag((-1)^j), so S_alpha(k_F) =
    # S_alpha(pi - k_F); the route solves both fillings independently.
    worst_ph = 0.0
    worst_half = 0.0
    for k_fermi, n in ((1.0, 200), (0.3, 1000)):
        particles, holes = (
            pipeline_spectrum(LatticeSea(((-k, k),)), OMEGA_UNIT, float(n))[0]
            for k in (k_fermi, math.pi - k_fermi))
        for alpha in (1.0, 2.0, 4.0, math.inf):
            dev = abs(renyi_entropy(holes, alpha).S
                      / renyi_entropy(particles, alpha).S - 1.0)
            worst_ph = max(worst_ph, dev)
        # alpha < 1 amplifies eigenvalue noise near the spectral edges
        # (h' ~ lambda^(alpha-1)); checked at its own tolerance.
        dev = abs(renyi_entropy(holes, 0.5).S
                  / renyi_entropy(particles, 0.5).S - 1.0)
        worst_half = max(worst_half, dev)

    swap_ok, swap_detail = check_role_swap()
    projector_ok, projector_detail = check_projector_entropy()

    ok = (worst_ph < 2e-13 and worst_half < 3e-8
          and swap_ok and projector_ok)
    line = _report("A6", ok,
                   f"particle-hole rel dev {worst_ph:.2e} (tol 2e-13), "
                   f"alpha=1/2 rel dev {worst_half:.2e} (tol 3e-8); "
                   f"role swap: {swap_detail}; {projector_detail}")
    assert ok, line


def test_A7_property_suite(lattice_spectra):
    """Entropy-function properties, kernel oracles, Weyl term, log growth."""
    # h_alpha: symmetric about 1/2, within [0, ln 2], peak value ln 2.
    # Symmetry is checked on a dyadic grid where t and 1-t are both exact
    # floats; on arbitrary grids the pairing itself rounds, and the
    # rounding is amplified by h' ~ t^(alpha-1) near the edges.
    t_sym = np.arange(1, 1024) / 1024.0
    t_edge = np.linspace(1e-9, 1.0 - 1e-9, 1001)
    h_ok = True
    for alpha in (0.25, 0.5, 1.0, 2.0, 10.0, math.inf):
        h = entropy_function(t_sym, alpha)
        h_ok = h_ok and np.max(np.abs(h - h[::-1])) < 1e-15
        h = entropy_function(t_edge, alpha)
        h_ok = h_ok and np.all(h >= 0.0) and np.max(h) <= math.log(2.0) + 1e-15
        h_ok = h_ok and abs(entropy_function(0.5, alpha) - math.log(2.0)) < 1e-15

    # S_alpha non-increasing in alpha on every computed spectrum.
    orders = (0.5, 1.0, 1.5, 2.0, 4.0, math.inf)
    mono_ok = True
    for spectrum in lattice_spectra.values():
        values = [renyi_entropy(spectrum, a).S for a in orders]
        mono_ok = mono_ok and np.all(np.diff(values) <= 1e-12)

    hermitian_ok, _ = check_kernel_hermiticity()
    fourier_ok, fourier_detail = check_kernel_fourier()

    # Particle number: sum of eigenvalues, fitted against the volume term
    # rho * |omega| * L.
    L_values = np.array([25.0, 50.0, 100.0, 200.0])
    counts = [float(np.sum(eigenvalues(nystrom(GAMMA_1D, OMEGA_UNIT,
                                               L)).eigenvalues))
              for L in L_values]
    design = np.column_stack([L_values, np.ones_like(L_values)])
    slope = np.linalg.lstsq(design, counts, rcond=None)[0][0]
    weyl_theory = GAMMA_1D.volume() / (2.0 * math.pi) * OMEGA_UNIT.volume()
    weyl_dev = abs(slope / weyl_theory - 1.0)

    # Tr A(1-A) grows like c * ln n: equal increments per x4 step.
    diag = {}
    half_filled = LatticeSea(((-math.pi / 2.0, math.pi / 2.0),))
    for n in (125, 500, 2000):
        lam = (lattice_spectra.get(n) or pipeline_spectrum(
            half_filled, OMEGA_UNIT, float(n))[0]).eigenvalues
        diag[n] = float(np.sum(lam * (1.0 - lam)))
    increments = (diag[500] - diag[125], diag[2000] - diag[500])
    growth_dev = abs(increments[1] / increments[0] - 1.0)

    ok = (h_ok and mono_ok and hermitian_ok and fourier_ok
          and weyl_dev < 0.01 and growth_dev < 0.15)
    line = _report("A7", ok,
                   f"h props {h_ok}, monotone {mono_ok}, hermitian "
                   f"{hermitian_ok}, fourier {fourier_ok} ({fourier_detail}); "
                   f"Weyl slope dev {weyl_dev:.2e} (tol 1%); ln n increment "
                   f"ratio dev {growth_dev:.2e} (tol 15%)")
    assert ok, line


def _ball_pair_law(tag: str, d: int, tol: float) -> None:
    """Ball/ball sweep over L = 8..64 (8 geometric points) through the
    radial route: the L^(d-1) ln L coefficient at alpha = 1 and 2
    against (1 + alpha)/(24 alpha) J, J by the closed form, in under 2 s
    of process CPU time, every BLAS thread counted; wall time would
    count whatever else runs on the machine.
    alpha < 1 is not gated: this grid fits alpha = 1/4 at -3.6% (2D) and
    -14% (3D), finite-size structure that snapping each sector's
    near-0/1 eigenvalues makes worse, not solver noise."""
    ball = Ball((0.0,) * d, 1.0)
    J = widom_J(ball, ball).value
    start = time.process_time()
    by_order = sweep(ball, ball, (1.0, 2.0), np.geomspace(8.0, 64.0, 8))
    elapsed = time.process_time() - start
    devs = {}
    for alpha, result in by_order.items():
        theory = (1.0 + alpha) / (24.0 * alpha) * J
        devs[alpha] = fit_scaling(result).log_coefficient / theory - 1.0
    ok = (all(abs(dev) < tol for dev in devs.values()) and elapsed < 2.0
          and {r.mode for res in by_order.values()
               for r in res.results} == {"radial"})
    line = _report(tag, ok, ", ".join(
        f"alpha={a}: dev {dev:+.3%}" for a, dev in devs.items())
        + f" (tol {tol:.1%}, J={J:.6f}); CPU time {elapsed:.2f}s (tol 2s)")
    assert ok, line


def test_A8_disk_pair_log_law():
    """Disk/disk in d = 2: within 1% of (1 + alpha)/(24 alpha) * 4."""
    _ball_pair_law("A8", 2, 0.01)


def test_A9_ball3_pair_log_law():
    """Ball/ball in d = 3: within 2.5% of (1 + alpha)/(24 alpha) * J."""
    _ball_pair_law("A9", 3, 0.025)
