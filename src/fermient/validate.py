"""Self-contained invariant and property suite.

Each check exercises one structural identity the implementation must
satisfy independently of any scaling claim: kernel Hermiticity and
Fourier consistency, the two-projection trace identity, finite-ring
purity, entropy monotonicity and symmetry, surface-coefficient
cross-checks, and the exactness of the dilatation reduction.  The CLI
`validate` command runs them all and fails (exit 4) if any fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import j0

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


def check_kernel_hermiticity(rng=None):
    """K(-u) = conj(K(u)) at random displacements for every catalog shape."""
    rng = rng or np.random.default_rng(7)
    worst = 0.0
    for gamma in _sample_shapes():
        kernel = ker.fermi_kernel(gamma)
        u = rng.normal(size=(20, gamma.dim) if gamma.dim > 1 else 20)
        defect = float(np.max(np.abs(kernel.displacement(-u)
                                     - np.conj(kernel.displacement(u)))))
        if defect > 1e-12:
            return False, (f"Hermiticity failed for "
                           f"{gamma.describe()['shape']} (defect {defect:.2e})")
        worst = max(worst, defect)
    return True, f"max |K(-u) - conj(K(u))| = {worst:.2e}"


def _kernel_oracle(gamma, u):
    """Direct numerical Fourier transform of the gamma indicator."""
    if gamma.dim == 1:
        total = 0.0 + 0.0j
        for a, b in gamma.as_interval_union().intervals:
            re = quad(lambda p: math.cos(p * u), a, b, limit=200)[0]
            im = quad(lambda p: math.sin(p * u), a, b, limit=200)[0]
            total += (re + 1j * im) / (2.0 * math.pi)
        return total
    if isinstance(gamma, geo.Box):
        total = 1.0 + 0.0j
        for axis, bounds in enumerate(gamma.bounds):
            total *= _kernel_oracle(geo.IntervalUnion((bounds,)), u[axis])
        return total
    if isinstance(gamma, geo.Ball):
        center = np.array(gamma.center)
        r = float(np.linalg.norm(u))
        if gamma.dim == 2:
            radial = quad(lambda p: p * j0(p * r), 0.0, gamma.radius,
                          limit=200)[0] / (2.0 * math.pi)
        else:
            if r < 1e-12:
                radial = gamma.radius ** 3 / (6.0 * math.pi ** 2)
            else:
                radial = quad(lambda p: p * math.sin(p * r), 0.0, gamma.radius,
                              limit=200)[0] / (2.0 * math.pi ** 2 * r)
        return radial * np.exp(1j * float(center @ u))
    raise geo.GeometryError("no oracle for this shape")


def check_kernel_fourier(rng=None, samples: int = 100, tol: float = 1e-8):
    """Closed forms against direct quadrature of the defining integral."""
    rng = rng or np.random.default_rng(11)
    worst = 0.0
    for gamma in _sample_shapes():
        kernel = ker.fermi_kernel(gamma)
        d = gamma.dim
        for _ in range(samples // len(_sample_shapes()) + 1):
            u = rng.normal(scale=2.0, size=d) if d > 1 \
                else float(rng.normal(scale=2.0))
            closed = complex(np.asarray(
                kernel.displacement(np.asarray(u).reshape(1, -1) if d > 1 else u)
            ).ravel()[0])
            oracle = _kernel_oracle(gamma, u)
            worst = max(worst, abs(closed - oracle))
    return worst < tol, f"max closed-form vs quadrature deviation {worst:.2e}"


def check_trace_identity(rng=None, pairs: int = 50, max_dim: int = 40,
                         tol: float = 1e-10):
    """Nonzero spectra of EFE and FEF coincide for random projections."""
    rng = rng or np.random.default_rng(23)
    worst = 0.0
    for _ in range(pairs):
        dim = int(rng.integers(4, max_dim + 1))
        rank_e = int(rng.integers(1, dim))
        rank_f = int(rng.integers(1, dim))
        E = _random_projection(rng, dim, rank_e)
        F = _random_projection(rng, dim, rank_f)
        efe = np.linalg.eigvalsh(E @ F @ E)
        fef = np.linalg.eigvalsh(F @ E @ F)
        cut = 1e-12
        nz_e = np.sort(efe[efe > cut])
        nz_f = np.sort(fef[fef > cut])
        if len(nz_e) != len(nz_f):
            # Eigenvalues straddling the cut; compare padded tails.
            size = max(len(nz_e), len(nz_f))
            nz_e = np.pad(nz_e, (size - len(nz_e), 0))
            nz_f = np.pad(nz_f, (size - len(nz_f), 0))
        if len(nz_e):
            worst = max(worst, float(np.max(np.abs(nz_e - nz_f))))
    return worst < tol, f"max multiset deviation {worst:.2e} over {pairs} pairs"


def _random_projection(rng, dim, rank):
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    vectors = basis[:, :rank]
    return vectors @ vectors.T


def check_ring_purity(tol: float = 1e-10):
    """Block and complement entropies of a pure ring state coincide.

    Checked at orders >= 1: below 1, h has infinite endpoint slope
    (h' ~ lambda^(alpha-1)), so the eigensolver's ~1e-15 absolute noise
    on near-boundary eigenvalues is amplified to ~1e-7 and the identity
    can only be verified at that looser level (covered in the tests)."""
    worst = 0.0
    for num_sites, block in ((42, 11), (102, 30)):
        spec_block = spc.eigenvalues(disc.ring_block_correlation(num_sites, block))
        spec_rest = spc.eigenvalues(
            disc.ring_block_correlation(num_sites, num_sites - block))
        for alpha in (1.0, 2.0, 4.0, math.inf):
            s1 = spc.renyi_entropy(spec_block, alpha).S
            s2 = spc.renyi_entropy(spec_rest, alpha).S
            worst = max(worst, abs(s1 - s2))
    return worst < tol, f"max block-complement deviation {worst:.2e}"


def check_projector_entropy(tol: float = 0.0):
    """Exact projector spectra carry exactly zero entropy."""
    spectrum = spc.Spectrum(np.array([0.0, 1.0]), np.array([2, 3]), 0, 0.0)
    values = [spc.renyi_entropy(spectrum, a).S
              for a in (0.5, 1.0, 2.0, math.inf)]
    worst = max(abs(v) for v in values)
    return worst <= tol, f"projector entropies {values}"


def check_entropy_monotonicity():
    """S_alpha non-increasing in alpha, and complement-symmetric.

    Complement symmetry is exact for the entropy function itself; on a
    computed spectrum the map lambda -> 1 - lambda rounds eigenvalues
    below ~1e-16 onto the boundary, so the spectral form of the check
    uses orders >= 1 (bounded endpoint amplification) while a synthetic
    interior spectrum checks all orders at machine precision."""
    spectrum = spc.eigenvalues(disc.lattice_correlation(math.pi / 2, 64))
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
    largest = float(np.prod(np.maximum(spectrum.eigenvalues,
                                       1.0 - spectrum.eigenvalues)))
    min_dev = abs(math.exp(-values[-1]) - largest)
    if min_dev > 1e-12:
        return False, f"min-entropy product identity off by {min_dev:.2e}"
    return True, ("monotone over 7 orders; complement and min-entropy "
                  f"identities within {max(sym_dev, min_dev):.2e}")


def check_widom_cross():
    """Surface-coefficient engine against its exact values."""
    square2 = geo.Box(((-1.0, 1.0), (-1.0, 1.0)))
    unit_square = geo.Box(((0.0, 1.0), (0.0, 1.0)))
    exact = geo.widom_J(square2, unit_square).value
    if abs(exact - 8.0 / math.pi) > 1e-12:
        return False, f"face-pair square value {exact} != 8/pi"
    # The unit disk against the unit square's four faces is 8/pi too.
    unit_disk = geo.Ball((0.0, 0.0), 1.0)
    quad = geo.widom_J(unit_square, unit_disk, method="quadrature",
                       resolution=256)
    quad_error = abs(quad.value - 8.0 / math.pi)
    if quad_error > quad.error_estimate:
        return False, f"square x disk quadrature off 8/pi by " \
                      f"{quad_error:.2e}, over its estimate " \
                      f"{quad.error_estimate:.2e}"
    closed = geo.widom_J(unit_disk, unit_disk).value
    if abs(closed - 4.0) > 1e-12:
        return False, f"disk closed form {closed} != 4"
    density = geo.widom_J_density_form(unit_disk, unit_disk)
    if abs(density - closed) > 1e-12:
        return False, "density form disagrees with closed form"
    return True, "square and disk coefficients agree across all routes"


def check_functional(tol: float = 1e-8):
    """Quadrature and dilogarithm routes hit (1+alpha)/(24 alpha)."""
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        target = fn.predicted_log_prefactor(alpha)
        worst = max(worst,
                    abs(fn.entropy_log_coefficient(alpha).value - target),
                    abs(fn.entropy_log_coefficient_dilog(alpha) - target))
    linear = fn.log_coefficient_functional(lambda t: t).value
    worst = max(worst, abs(linear))
    return worst < tol, f"max closed-form deviation {worst:.2e}"


def check_dilatation(tol: float = 1e-13):
    """nystrom(gamma, omega, L) equals nystrom(L*gamma, omega, 1) with
    matched rules (the unitary dilatation reduction, made literal)."""
    gamma, omega, L = geo.interval(-1.0, 1.0), geo.interval(0.0, 1.0), 6.0
    direct = disc.nystrom(gamma, omega, L=L, nodes_per_unit=5.0)
    reduced = disc.nystrom(gamma.scaled(L), omega, L=1.0,
                           nodes_per_unit=5.0 * L)
    if direct.n != reduced.n:
        return False, f"node counts differ: {direct.n} vs {reduced.n}"
    deviation = float(np.max(np.abs(direct.matrix - reduced.matrix)))
    return deviation < tol, f"matrix deviation {deviation:.2e}"


def check_nystrom_trace(tol: float = 1e-12):
    """Matrix trace equals density times region size exactly."""
    op = disc.nystrom(geo.interval(-1.0, 1.0), geo.interval(0.0, 1.0), L=10.0)
    expected = 10.0 / math.pi
    deviation = abs(op.trace() - expected)
    return deviation < tol, f"trace deviation {deviation:.2e}"


ALL_CHECKS = (
    ("kernel_hermiticity", check_kernel_hermiticity),
    ("kernel_fourier_consistency", check_kernel_fourier),
    ("trace_identity_efe_fef", check_trace_identity),
    ("ring_block_purity", check_ring_purity),
    ("projector_entropy_zero", check_projector_entropy),
    ("entropy_monotonicity", check_entropy_monotonicity),
    ("widom_cross_checks", check_widom_cross),
    ("functional_closed_form", check_functional),
    ("dilatation_equivalence", check_dilatation),
    ("nystrom_trace", check_nystrom_trace),
)


def run_all(names=None) -> list[CheckResult]:
    """Run the named checks (all by default, in registry order)."""
    if names is None:
        selected = ALL_CHECKS
    else:
        known = {n for n, _ in ALL_CHECKS}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError("unknown check names: " + ", ".join(unknown))
        selected = [(n, f) for n, f in ALL_CHECKS if n in names]
    results = []
    for name, func in selected:
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail,
                                   time.perf_counter() - start))
    return results
