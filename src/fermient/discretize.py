"""Finite Hermitian matrices for localized Fermi projections.

The object of study is the Fermi projection compressed to a bounded
spatial region: multiply by the region indicator, project onto the
momentum region, multiply by the indicator again.  Its spectrum lives
in [0, 1] and carries every reduced-state entropy.  Three matrix
realizations are provided:

* Nystrom discretization on the continuum: a quadrature rule on the
  (dilated) spatial region turns the integral operator with the
  closed-form kernel into the Hermitian matrix
  A[j, k] = sqrt(w_j * w_k) * K(q_j - q_k).
* Exact Toeplitz correlation matrices for a block of n successive
  sites of the 1D lattice gas (no discretization error).
* Exact correlation matrices for blocks of a finite half-filled ring,
  used for finite-size purity identities.

Discretizing on the dilated region (rather than dilating the momentum
region) is licensed by the unitary dilatation equivalence of the two
compressions; with correspondingly scaled rules the two matrices are
equal entry by entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .geometry import Ball, Box, Domain, GeometryError, IntervalUnion, TWO_PI
from .kernels import fermi_kernel

__all__ = [
    "DiscretizationError",
    "BudgetError",
    "DiscretizedOperator",
    "LatticeCorrelation",
    "nystrom",
    "lattice_correlation",
    "ring_block_correlation",
    "DEFAULT_CONTINUUM_BUDGET",
    "DEFAULT_LATTICE_BUDGET",
]

DEFAULT_CONTINUUM_BUDGET = 6000
DEFAULT_LATTICE_BUDGET = 100_000

# Default spatial sampling density, in nodes per Fermi wavelength
# 2*pi/p_max.  Eight nodes per oscillation keeps the downstream entropy
# stable to ~1e-5 under refinement (see the convergence tests); the
# hard floor below protects short regions at low Fermi momentum.
NODES_PER_WAVELENGTH = 8.0
MIN_NODES_PER_UNIT = 2.0


class DiscretizationError(RuntimeError):
    """Invalid or under-resolved discretization request."""


class BudgetError(DiscretizationError):
    """Requested matrix exceeds the configured size budget."""


@dataclass(frozen=True)
class DiscretizedOperator:
    """Nystrom matrix of a localized Fermi projection, with its rule.

    matrix is Hermitian n x n (real symmetric when the momentum region
    is centrally symmetric); nodes are the quadrature points in the
    dilated spatial region; weights the corresponding positive weights.
    """

    matrix: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        """Tr A, approximating the mean particle number in the region."""
        return float(np.real(np.trace(self.matrix)))


@dataclass(frozen=True)
class LatticeCorrelation:
    """Exact correlation matrix of n successive sites of the lattice gas.

    Entries C[j, k] = sin(k_fermi * (j - k)) / (pi * (j - k)) with
    diagonal k_fermi / pi; real symmetric Toeplitz, eigenvalues in [0, 1].
    The block is defined by (k_fermi, n) alone: spectra.eigenvalues
    solves it without forming the n x n matrix, which is built only
    when .matrix is first read (the dense test oracle).
    """

    k_fermi: float
    n: int

    @property
    def column(self) -> np.ndarray:
        """First column of C; C is the symmetric Toeplitz matrix of it."""
        idx = np.arange(self.n, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(idx > 0,
                            np.sin(self.k_fermi * idx) / (math.pi * idx),
                            self.k_fermi / math.pi)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return toeplitz(self.column)


def _gauss_panels(a: float, b: float, num_panels: int, points_per_panel: int):
    """Composite Gauss-Legendre rule on [a, b] with equal panels."""
    x, w = np.polynomial.legendre.leggauss(points_per_panel)
    edges = np.linspace(a, b, num_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _rule_1d(union: IntervalUnion, nodes_per_unit: float, wavelength: float):
    """Composite Gauss rule over every interval of a 1D region."""
    all_nodes, all_weights = [], []
    for a, b in union.intervals:
        length = b - a
        target = max(int(math.ceil(length * nodes_per_unit)), 4)
        num_panels = max(int(math.ceil(length / wavelength)), 1)
        per_panel = max(int(math.ceil(target / num_panels)), 4)
        nodes, weights = _gauss_panels(a, b, num_panels, per_panel)
        all_nodes.append(nodes)
        all_weights.append(weights)
    return np.concatenate(all_nodes), np.concatenate(all_weights)


def _rule_box(box: Box, nodes_per_unit: float, wavelength: float):
    axes = [_rule_1d(iv, nodes_per_unit, wavelength)
            for iv in box.axis_intervals()]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = axes[0][1]
    for _, w in axes[1:]:
        weights = np.outer(weights, w).ravel()
    return nodes, weights


def _rule_ball(ball: Ball, nodes_per_unit: float):
    """Product polar/spherical grid: Gauss in radius, uniform in angles."""
    r_max = ball.radius
    center = np.array(ball.center)
    n_r = max(int(math.ceil(nodes_per_unit * r_max)), 4)
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * r_max * (x + 1.0)
    w_r = 0.5 * r_max * w
    if ball.dim == 2:
        n_t = max(int(math.ceil(nodes_per_unit * TWO_PI * r_max)), 8)
        theta = TWO_PI * (np.arange(n_t) + 0.5) / n_t
        R, T = np.meshgrid(r, theta, indexing="ij")
        nodes = center + np.stack(
            [(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=-1)
        weights = (np.repeat(w_r * r, n_t)) * (TWO_PI / n_t)
        return nodes, weights
    if ball.dim == 3:
        n_c = max(int(math.ceil(nodes_per_unit * r_max)), 4)
        c, w_c = np.polynomial.legendre.leggauss(n_c)
        n_p = max(int(math.ceil(nodes_per_unit * TWO_PI * r_max)), 8)
        phi = TWO_PI * (np.arange(n_p) + 0.5) / n_p
        R, C, P = np.meshgrid(r, c, phi, indexing="ij")
        S = np.sqrt(np.maximum(1.0 - C ** 2, 0.0))
        nodes = center + np.stack([
            (R * S * np.cos(P)).ravel(),
            (R * S * np.sin(P)).ravel(),
            (R * C).ravel(),
        ], axis=-1)
        W_r = np.repeat(w_r * r * r, n_c * n_p)
        W_c = np.tile(np.repeat(w_c, n_p), n_r)
        weights = W_r * W_c * (TWO_PI / n_p)
        return nodes, weights
    raise DiscretizationError("ball rule needs d in {2, 3}")


def check_sampling(nodes_per_unit: float, p_max: float) -> None:
    """Nyquist guard: raise DiscretizationError when a node spacing of
    1 / nodes_per_unit cannot resolve momenta up to p_max."""
    spacing = 1.0 / nodes_per_unit
    if spacing >= 0.5 * math.pi / p_max:
        raise DiscretizationError(
            f"node spacing {spacing:.3g} exceeds the sampling guard "
            f"{0.5 * math.pi / p_max:.3g} for momenta up to {p_max:.3g}")


def nystrom(gamma: Domain, omega: Domain, L: float = 1.0,
            nodes_per_unit: float | None = None,
            budget: int = DEFAULT_CONTINUUM_BUDGET) -> DiscretizedOperator:
    """Quadrature discretization of the Fermi projection localized to L*omega.

    Builds a quadrature rule on the dilated region, evaluates the
    closed-form kernel of the gamma projection on all node differences,
    and returns the Hermitian matrix A[j, k] = sqrt(w_j w_k) K(q_j - q_k),
    whose eigenvalues approximate those of the compressed operator.  The
    rule is Gauss-Legendre on panels at most one Fermi wavelength long
    per axis, or Gauss in radius times uniform in angle on balls.

    Parameters
    ----------
    gamma : momentum region (interval union, box, or ball)
    omega : spatial region, same dimension
    L : dilation factor applied to omega, >= 0 excluded
    nodes_per_unit : nodes per unit length along each direction; default
        resolves eight nodes per Fermi wavelength (floor 2 per unit)
    budget : maximum matrix dimension; exceeding it raises BudgetError

    A node spacing that cannot resolve the fastest kernel oscillation
    raises DiscretizationError.  The returned DiscretizedOperator holds
    the matrix, nodes and weights only; the inputs that produced it are
    the caller's (a CLI record keeps them in its config block).

    Notes
    -----
    With nodes_per_unit scaled by 1/L, nystrom(gamma.scaled(L), omega, 1)
    assembles the identical matrix (dilatation equivalence).
    """
    if gamma.dim != omega.dim:
        raise GeometryError(
            f"dimension mismatch: gamma d={gamma.dim}, omega d={omega.dim}")
    if not L > 0:
        raise DiscretizationError(f"dilation factor must be positive, got {L}")

    p_max = gamma.momentum_bound()
    if p_max <= 0:
        raise DiscretizationError("momentum region has zero extent")
    wavelength = TWO_PI / p_max
    if nodes_per_unit is None:
        nodes_per_unit = max(NODES_PER_WAVELENGTH / wavelength,
                             MIN_NODES_PER_UNIT)
    check_sampling(nodes_per_unit, p_max)

    region = omega.scaled(L) if L != 1.0 else omega
    if isinstance(region, (IntervalUnion,)) or (isinstance(region, Box)
                                                and region.dim == 1):
        union = region.as_interval_union()
        nodes, weights = _rule_1d(union, nodes_per_unit, wavelength)
    elif isinstance(region, Box):
        nodes, weights = _rule_box(region, nodes_per_unit, wavelength)
    elif isinstance(region, Ball) and region.dim == 1:
        nodes, weights = _rule_1d(region.as_interval_union(), nodes_per_unit,
                                  wavelength)
    elif isinstance(region, Ball):
        nodes, weights = _rule_ball(region, nodes_per_unit)
    else:
        raise DiscretizationError(
            f"no node rule for {type(region).__name__} spatial regions")

    n = len(weights)
    if n > budget:
        raise BudgetError(
            f"discretization would need n={n} nodes, over the budget {budget}; "
            "raise the budget or lower nodes_per_unit")

    kern = fermi_kernel(gamma)
    sqrt_w = np.sqrt(weights)
    dtype = float if kern.is_real else complex
    matrix = np.empty((n, n), dtype=dtype)
    block = max(1, min(n, int(8e6 / max(n, 1))))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        if gamma.dim == 1:
            diff = nodes[i0:i1, None] - nodes[None, :]
        else:
            diff = nodes[i0:i1, None, :] - nodes[None, :, :]
        matrix[i0:i1] = kern.displacement(diff) \
            * (sqrt_w[i0:i1, None] * sqrt_w[None, :])
    matrix = 0.5 * (matrix + matrix.conj().T)
    return DiscretizedOperator(matrix, nodes, weights)


def lattice_correlation(k_fermi: float, n: int) -> LatticeCorrelation:
    """Correlation matrix of n successive sites of the 1D lattice gas.

    The ground state fills lattice momenta in [-k_fermi, k_fermi]; the
    resulting block correlation matrix is the discrete sine kernel

        C[j, k] = sin(k_fermi (j - k)) / (pi (j - k)),    C[j, j] = k_fermi/pi,

    exactly, with no quadrature involved.  Construction is O(1): the
    matrix is built on first access to .matrix, and eigenvalues() never
    reads it.
    """
    if not 0.0 < k_fermi < math.pi:
        raise DiscretizationError(
            f"lattice Fermi momentum must lie in (0, pi), got {k_fermi}")
    if n < 1:
        raise DiscretizationError(f"block length must be >= 1, got {n}")
    return LatticeCorrelation(float(k_fermi), int(n))


def ring_block_correlation(num_sites: int, block_sites: int) -> np.ndarray:
    """Correlation matrix of a site block of a half-filled finite ring.

    The ring of N = num_sites sites (N = 2 mod 4 so that half filling
    selects a symmetric momentum set) is filled with the N/2 lowest
    momenta 2*pi*m/N, m = -M..M, N/2 = 2M + 1.  The block correlation
    is the Dirichlet kernel

        C[j, k] = sin((2M+1) pi u / N) / (N sin(pi u / N)),   u = j - k,

    with diagonal 1/2.  The ground state of the whole ring is pure, so
    block and complement-block entropies agree exactly; this builder
    feeds that identity.
    """
    if num_sites % 4 != 2:
        raise DiscretizationError(
            "ring size must be 2 mod 4 for unambiguous half filling, "
            f"got {num_sites}")
    if not 1 <= block_sites <= num_sites:
        raise DiscretizationError(
            f"block of {block_sites} sites outside ring of {num_sites}")
    filled = num_sites // 2          # odd by construction
    u = np.arange(block_sites, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        column = np.where(
            u > 0,
            np.sin(math.pi * filled * u / num_sites)
            / (num_sites * np.sin(math.pi * u / num_sites)),
            filled / num_sites,
        )
    return toeplitz(column)
