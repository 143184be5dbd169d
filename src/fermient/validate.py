"""Self-contained invariant and property suite.

Each check exercises one structural identity the implementation must
satisfy independently of any scaling claim: kernel Hermiticity and
Fourier consistency, entropy monotonicity and symmetry, each route
against its dense oracle, lattice particle-hole symmetry, the Nystrom
role swap, surface-coefficient cross-checks and exact dilatation.  The
CLI `validate` command runs them all and fails (exit 4) if any fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import discretize as disc
from . import functionals as fn
from . import geometry as geo
from . import kernels as ker
from . import spectra as spc

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _sample_shapes():
    return [
        geo.interval(-1.0, 1.0),
        geo.IntervalUnion(((-2.0, -0.5), (0.25, 1.5))),
        geo.Box(((-1.0, 1.0), (-0.5, 0.5))),
        geo.Ball((0.0, 0.0), 1.3),
        geo.Ball((0.4, -0.2, 0.1), 0.9),
    ]


def check_kernel_hermiticity():
    """K(-u) = conj(K(u)) at random displacements for every catalog shape."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for gamma in _sample_shapes():
        kernel = ker.FermiKernel(gamma)
        u = rng.normal(size=(20, gamma.dim) if gamma.dim > 1 else 20)
        defect = float(np.max(np.abs(kernel.displacement(-u)
                                     - np.conj(kernel.displacement(u)))))
        if defect > 1e-12:
            return False, (f"Hermiticity failed for "
                           f"{gamma.describe()['shape']} (defect {defect:.2e})")
        worst = max(worst, defect)
    return True, f"max |K(-u) - conj(K(u))| = {worst:.2e}"


_ORACLE_NODES = 32


def _integrate(f, a, b, rule):
    """Gauss-Legendre sum of f over [a, b] on rule = (nodes, weights)."""
    nodes, weights = rule
    half = 0.5 * (b - a)
    return half * float(weights @ f(0.5 * (a + b) + half * nodes))


def _kernel_oracle(gamma, u, rule):
    """Direct numerical Fourier transform of the gamma indicator.

    Each integrand (cos, sin, p j0(p r), p sin(p r)) is entire with
    phase at most |u| times the interval's width.  check_kernel_fourier
    draws phases up to 7.5 (the disk of radius 1.3 at |u| = 5.8); its
    _ORACLE_NODES-point rule is exact to rounding up to phase 60.
    """
    # scipy.special only for j0: the 2D ball kernel loads it anyway.
    from scipy.special import j0

    if gamma.dim == 1:
        total = 0.0 + 0.0j
        for a, b in gamma.intervals:
            re = _integrate(lambda p: np.cos(p * u), a, b, rule)
            im = _integrate(lambda p: np.sin(p * u), a, b, rule)
            total += (re + 1j * im) / (2.0 * math.pi)
        return total
    if isinstance(gamma, geo.Box):
        total = 1.0 + 0.0j
        for axis, bounds in enumerate(gamma.bounds):
            total *= _kernel_oracle(geo.IntervalUnion((bounds,)), u[axis],
                                    rule)
        return total
    if isinstance(gamma, geo.Ball):
        center = np.array(gamma.center)
        r = float(np.linalg.norm(u))
        if gamma.dim == 2:
            radial = _integrate(lambda p: p * j0(p * r), 0.0, gamma.radius,
                                rule) / (2.0 * math.pi)
        else:
            if r < 1e-12:
                radial = gamma.radius ** 3 / (6.0 * math.pi ** 2)
            else:
                radial = _integrate(lambda p: p * np.sin(p * r), 0.0,
                                    gamma.radius,
                                    rule) / (2.0 * math.pi ** 2 * r)
        return radial * np.exp(1j * float(center @ u))
    raise geo.GeometryError("no oracle for this shape")


def check_kernel_fourier():
    """Closed forms against direct quadrature of the defining integral."""
    rng = np.random.default_rng(11)
    rule = np.polynomial.legendre.leggauss(_ORACLE_NODES)
    worst = 0.0
    for gamma in _sample_shapes():
        kernel = ker.FermiKernel(gamma)
        d = gamma.dim
        for _ in range(100 // len(_sample_shapes()) + 1):
            u = rng.normal(scale=2.0, size=d) if d > 1 \
                else float(rng.normal(scale=2.0))
            closed = complex(np.asarray(
                kernel.displacement(np.asarray(u).reshape(1, -1) if d > 1 else u)
            ).ravel()[0])
            oracle = _kernel_oracle(gamma, u, rule)
            worst = max(worst, abs(closed - oracle))
    return worst < 1e-8, f"max closed-form vs quadrature deviation {worst:.2e}"


def check_projector_entropy():
    """Exact projector spectra carry exactly zero entropy."""
    spectrum = spc.Spectrum(np.array([0.0, 1.0]), np.array([2, 3]), 0, 0.0)
    values = [spc.renyi_entropy(spectrum, a).S
              for a in (0.5, 1.0, 2.0, math.inf)]
    return not any(values), f"projector entropies {values}"


def check_entropy_monotonicity():
    """S_alpha non-increasing in alpha, and complement-symmetric.

    Complement symmetry is exact for the entropy function itself; on a
    computed spectrum the map lambda -> 1 - lambda rounds eigenvalues
    below ~1e-16 onto the boundary, so the spectral form of the check
    uses orders >= 1 (bounded endpoint amplification) while a synthetic
    interior spectrum checks all orders at machine precision."""
    spectrum, _, _ = spc.pipeline_spectrum(
        geo.LatticeSea(((-math.pi / 2, math.pi / 2),)),
        geo.interval(0.0, 1.0), 64.0)
    alphas = (0.25, 0.5, 1.0, 1.5, 2.0, 4.0, math.inf)
    values = [spc.renyi_entropy(spectrum, a).S for a in alphas]
    if any(b > a + 1e-12 for a, b in zip(values, values[1:])):
        return False, f"monotonicity violated: {values}"
    interior = spc.Spectrum(np.random.default_rng(3).uniform(0.02, 0.98, 200),
                            np.full(200, 1), 0, 0.0)
    sym_dev = max(abs(spc.renyi_entropy(interior, a).S
                      - spc.renyi_entropy(interior.complement(), a).S)
                  for a in alphas)
    sym_dev = max(sym_dev,
                  max(abs(spc.renyi_entropy(spectrum, a).S
                          - spc.renyi_entropy(spectrum.complement(), a).S)
                      for a in (1.0, 2.0, math.inf)))
    if sym_dev > 1e-10:
        return False, f"complement symmetry violated by {sym_dev:.2e}"
    largest = float(np.prod(np.maximum(spectrum.values, 1.0 - spectrum.values)
                            ** spectrum.multiplicities))
    min_dev = abs(math.exp(-values[-1]) - largest)
    if min_dev > 1e-12:
        return False, f"min-entropy product identity off by {min_dev:.2e}"
    return True, ("monotone over 7 orders; complement and min-entropy "
                  f"identities within {max(sym_dev, min_dev):.2e}")


# Orders >= 1 only: below 1 the dense oracles' ~1e-16 eigenvalue noise
# grows past 1e-7.  Docstrings give the deviations measured on x86-64.
_ROUTE_ORDERS = (1.0, 2.0, math.inf)


def _route(gamma, omega, L, route):
    """pipeline_spectrum's spectrum, which must come from route."""
    spectrum, _, taken = spc.pipeline_spectrum(gamma, omega, L)
    if taken != route:
        raise geo.GeometryError(f"took the {taken} route, not {route}")
    return spectrum


def _compare(spectrum, reference, bound, what="from the dense oracle"):
    """Pass if |S(spectrum) / S(reference) - 1| < bound at each order."""
    deviation = max(abs(spc.renyi_entropy(spectrum, alpha).S
                        / spc.renyi_entropy(reference, alpha).S - 1.0)
                    for alpha in _ROUTE_ORDERS)
    return deviation < bound, (f"max relative entropy deviation {what} "
                               f"{deviation:.2e} (bound {bound:.0e})")


def _against_nystrom(gamma, omega, L, route, bound):
    return _compare(_route(gamma, omega, L, route),
                    spc.eigenvalues(disc.nystrom(gamma, omega, L)), bound)


def check_lattice_route():
    """64 sites at k_F = 1 against the dense block (7e-14)."""
    return _compare(_route(geo.LatticeSea(((-1.0, 1.0),)),
                           geo.interval(0.0, 1.0), 64.0, "lattice"),
                    spc.eigenvalues(disc.lattice_correlation(1.0, 64)), 1e-12)


def check_particle_hole():
    """S_alpha(k_F) = S_alpha(pi - k_F) on the lattice route at n = 100
    (4.2e-15): 1 - C(k_F) = D C(pi - k_F) D with D = diag((-1)^j),
    so the two blocks' spectra are complements."""
    particles, holes = (_route(geo.LatticeSea(((-k, k),)),
                               geo.interval(0.0, 1.0), 100.0, "lattice")
                        for k in (1.0, math.pi - 1.0))
    return _compare(holes, particles, 1e-13, "at pi - k_F")


def check_prolate_route():
    """[-1, 1] on [0, 1] at L = 30 against 60 Nystrom nodes (6e-14)."""
    return _against_nystrom(geo.interval(-1.0, 1.0), geo.interval(0.0, 1.0),
                            30.0, "prolate", 1e-12)


def check_tensor_route():
    """A square pair at L = 4 against 64 Nystrom nodes (9.5e-11)."""
    return _against_nystrom(geo.Box(((-1.0, 1.0), (-1.0, 1.0))),
                            geo.Box(((0.0, 1.0), (0.0, 1.0))), 4.0,
                            "tensor_box", 1e-9)


def check_radial_route():
    """A disk pair at L = 1 against 52 Nystrom nodes (2.1e-9); at L = 2
    the Nystrom disk rule is itself off by 4.5e-6."""
    disk = geo.Ball((0.0, 0.0), 1.0)
    return _against_nystrom(disk, disk, 1.0, "radial", 2e-8)


def check_role_swap():
    """(-2, -1) u (1, 2) on [-6, 6] against [-6, 6] on that union, both
    on the Nystrom route (9.1e-8): EFE and FEF share their nonzero
    spectrum, and the Fourier transform swaps the roles."""
    union = geo.IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
    omega = geo.interval(-6.0, 6.0)
    return _compare(_route(omega, union, 1.0, "continuum"),
                    _route(union, omega, 1.0, "continuum"), 1e-6,
                    "of the swapped pair")


def check_widom_cross():
    """Surface-coefficient engine against its exact values: the
    face-pair sum and the ball quadrature against 8/pi, and the ball
    closed form against 4."""
    square2 = geo.Box(((-1.0, 1.0), (-1.0, 1.0)))
    unit_square = geo.Box(((0.0, 1.0), (0.0, 1.0)))
    exact = geo.widom_J(square2, unit_square).value
    if abs(exact - 8.0 / math.pi) > 1e-12:
        return False, f"face-pair square value {exact} != 8/pi"
    # The unit disk against the unit square's four faces is 8/pi too.
    unit_disk = geo.Ball((0.0, 0.0), 1.0)
    quad = geo.widom_J(unit_square, unit_disk, resolution=256)
    quad_error = abs(quad.value - 8.0 / math.pi)
    if quad_error > quad.error_estimate:
        return False, f"square x disk quadrature off 8/pi by " \
                      f"{quad_error:.2e}, over its estimate " \
                      f"{quad.error_estimate:.2e}"
    closed = geo.widom_J(unit_disk, unit_disk).value
    if abs(closed - 4.0) > 1e-12:
        return False, f"disk closed form {closed} != 4"
    return True, ("square face-pair sum and square x disk quadrature "
                  "give 8/pi; disk closed form gives 4")


def check_functional():
    """The quadrature gives I(t) = 0 and hits (1+alpha)/(24 alpha) at
    alpha = 1/2, 1, 2 and inf; one that does not converge raises."""
    worst = abs(fn.log_coefficient_functional(lambda t: t).value)
    for alpha in (0.5, 1.0, 2.0, math.inf):
        worst = max(worst, abs(fn.entropy_log_coefficient(alpha).value
                               - fn.predicted_log_prefactor(alpha)))
    return worst < 1e-8, f"max closed-form deviation {worst:.2e}"


def check_dilatation():
    """nystrom(gamma, omega, L) equals nystrom(L*gamma, omega, 1) with
    matched rules (the unitary dilatation reduction, made literal)."""
    gamma, omega, L = geo.interval(-1.0, 1.0), geo.interval(0.0, 1.0), 6.0
    direct = disc.nystrom(gamma, omega, L=L, nodes_per_unit=5.0)
    reduced = disc.nystrom(gamma.scaled(L), omega, L=1.0,
                           nodes_per_unit=5.0 * L)
    if len(direct.matrix) != len(reduced.matrix):
        return False, (f"node counts differ: {len(direct.matrix)} vs "
                       f"{len(reduced.matrix)}")
    deviation = float(np.max(np.abs(direct.matrix - reduced.matrix)))
    return deviation < 1e-13, f"matrix deviation {deviation:.2e}"


def check_nystrom_trace():
    """Matrix trace equals density times region size exactly."""
    op = disc.nystrom(geo.interval(-1.0, 1.0), geo.interval(0.0, 1.0), L=10.0)
    expected = 10.0 / math.pi
    deviation = abs(np.trace(op.matrix).real - expected)
    return deviation < 1e-12, f"trace deviation {deviation:.2e}"


ALL_CHECKS = (
    ("kernel_hermiticity", check_kernel_hermiticity),
    ("kernel_fourier_consistency", check_kernel_fourier),
    ("projector_entropy_zero", check_projector_entropy),
    ("entropy_monotonicity", check_entropy_monotonicity),
    ("lattice_route", check_lattice_route),
    ("lattice_particle_hole", check_particle_hole),
    ("prolate_route", check_prolate_route),
    ("tensor_box_route", check_tensor_route),
    ("radial_route", check_radial_route),
    ("nystrom_role_swap", check_role_swap),
    ("widom_cross_checks", check_widom_cross),
    ("functional_closed_form", check_functional),
    ("dilatation_equivalence", check_dilatation),
    ("nystrom_trace", check_nystrom_trace),
)


def run_all() -> list[CheckResult]:
    """Run every check in registry order; a check that raises fails."""
    results = []
    for name, func in ALL_CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail,
                                   time.perf_counter() - start))
    return results
