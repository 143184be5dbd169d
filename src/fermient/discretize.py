"""Finite Hermitian matrices for localized Fermi projections.

The object of study is the Fermi projection compressed to a bounded
spatial region: multiply by the region indicator, project onto the
momentum region, multiply by the indicator again.  Its spectrum lives
in [0, 1] and carries every reduced-state entropy.  Two matrix
realizations are provided:

* Nystrom discretization on the continuum: a quadrature rule on the
  (dilated) spatial region turns the integral operator with the
  closed-form kernel into the Hermitian matrix
  A[j, k] = sqrt(w_j * w_k) * K(q_j - q_k).
* Exact Toeplitz correlation matrices for a block of n successive
  sites of the 1D lattice gas (no discretization error), the dense
  oracle of the lattice route in spectra.

Discretizing on the dilated region (rather than dilating the momentum
region) is licensed by the unitary dilatation equivalence of the two
compressions; with correspondingly scaled rules the two matrices are
equal entry by entry.

Every route counts its size as a float and passes it through one gate,
check_budget, before it builds anything, so an oversized or overflowing
(inf) size raises BudgetError up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (Ball, Box, Domain, IntervalUnion, TWO_PI,
                       _check_same_dim)
from .kernels import FermiKernel

__all__ = [
    "DiscretizationError",
    "BudgetError",
    "DiscretizedOperator",
    "nystrom",
    "lattice_correlation",
    "DEFAULT_CONTINUUM_BUDGET",
    "DEFAULT_LATTICE_BUDGET",
]

DEFAULT_CONTINUUM_BUDGET = 6000
DEFAULT_LATTICE_BUDGET = 100_000

# Default spatial sampling density, in nodes per Fermi wavelength
# 2*pi/p_max; the hard floor below protects short regions at low Fermi
# momentum.  Eight nodes per oscillation is not uniformly accurate on
# interval unions, and a larger region does not make it better: the role
# swap of (-2, -1) u (1, 2) against [-a, a] (both on this rule, L = 1)
# reads 6.2e-5 relative at alpha >= 1 for a = 3, 3.0e-7 at 4, 9.1e-8
# at 6 and 1.0e-6 at 8; that of (-1.5, -0.25) u (0.25, 1.5) reads
# 3.1e-5 at a = 6 and 1.3e-7 at 8.
NODES_PER_WAVELENGTH = 8.0
MIN_NODES_PER_UNIT = 2.0


class DiscretizationError(RuntimeError):
    """Invalid or under-resolved discretization request."""


class BudgetError(DiscretizationError):
    """Requested matrix exceeds the configured size budget."""


@dataclass(frozen=True)
class DiscretizedOperator:
    """Matrix of a localized Fermi projection.

    matrix is Hermitian n x n (real symmetric when the momentum region
    is centrally symmetric).  The quadrature rule behind a Nystrom
    matrix is nystrom's own and is not kept.
    """

    matrix: np.ndarray


def _gauss_panels(a: float, b: float, num_panels: int, points_per_panel: int):
    """Composite Gauss-Legendre rule on [a, b] with equal panels."""
    x, w = np.polynomial.legendre.leggauss(points_per_panel)
    edges = np.linspace(a, b, num_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _ceil(x: float, floor: float) -> float:
    """max(ceil(x), floor) as a float: inf stays inf, NaN gives floor."""
    return max(floor, float(np.ceil(x)))


def _panels(union: IntervalUnion, nodes_per_unit: float, wavelength: float):
    """Per interval of a 1D region: (a, b, panels, points per panel)."""
    plan = []
    for a, b in union.intervals:
        target = _ceil((b - a) * nodes_per_unit, 4.0)
        num_panels = _ceil((b - a) / wavelength, 1.0)
        plan.append((a, b, num_panels, _ceil(target / num_panels, 4.0)))
    return plan


def _rule_axes(plans):
    """Gauss rule of one _panels plan per axis; (n, d) nodes if d > 1."""
    axes = [tuple(map(np.concatenate, zip(*[
        _gauss_panels(a, b, int(num_panels), int(per_panel))
        for a, b, num_panels, per_panel in plan]))) for plan in plans]
    if len(axes) == 1:
        return axes[0]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = axes[0][1]
    for _, w in axes[1:]:
        weights = np.outer(weights, w).ravel()
    return nodes, weights


def _rule_ball(ball: Ball, n_r: int, n_t: int):
    """Gauss in radius (and polar cosine in d = 3) times uniform azimuth."""
    r_max = ball.radius
    center = np.array(ball.center)
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * r_max * (x + 1.0)
    w_r = 0.5 * r_max * w
    theta = TWO_PI * (np.arange(n_t) + 0.5) / n_t
    if ball.dim == 2:
        R, T = np.meshgrid(r, theta, indexing="ij")
        nodes = center + np.stack(
            [(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=-1)
        weights = (np.repeat(w_r * r, n_t)) * (TWO_PI / n_t)
        return nodes, weights
    R, C, P = np.meshgrid(r, x, theta, indexing="ij")
    S = np.sqrt(np.maximum(1.0 - C ** 2, 0.0))
    nodes = center + np.stack([
        (R * S * np.cos(P)).ravel(),
        (R * S * np.sin(P)).ravel(),
        (R * C).ravel(),
    ], axis=-1)
    W_r = np.repeat(w_r * r * r, n_r * n_t)
    W_c = np.tile(np.repeat(w, n_t), n_r)
    weights = W_r * W_c * (TWO_PI / n_t)
    return nodes, weights


def check_budget(size: float, budget: float, what: str) -> None:
    """Raise BudgetError unless size <= budget (a float: inf fails too)."""
    if not size <= budget:
        raise BudgetError(
            f"would need {size:.6g} {what}, over the budget {budget}")


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
    gamma : momentum region (interval union, box, or ball); any other,
        a LatticeSea included, raises GeometryError before any rule
    omega : spatial region, same dimension
    L : dilation factor applied to omega, >= 0 excluded
    nodes_per_unit : nodes per unit length along each direction, finite
        and > 0; default resolves eight nodes per Fermi wavelength (floor
        2 per unit)
    budget : maximum matrix dimension; the rule's node count (inf
        included) is held to it before any node array exists

    A node spacing that cannot resolve the fastest kernel oscillation
    raises DiscretizationError.  The returned DiscretizedOperator holds
    the matrix only; the inputs that produced it are the caller's (a CLI
    record keeps them in its config block).

    Notes
    -----
    With nodes_per_unit scaled by 1/L, nystrom(gamma.scaled(L), omega, 1)
    assembles the identical matrix (dilatation equivalence).
    """
    _check_same_dim(gamma, omega)
    if not L > 0:
        raise DiscretizationError(f"dilation factor must be positive, got {L}")
    if nodes_per_unit is not None and not 0 < nodes_per_unit < math.inf:
        raise DiscretizationError(
            f"nodes_per_unit must be finite and > 0, got {nodes_per_unit}")

    kern = FermiKernel(gamma)
    p_max = gamma.momentum_bound()
    if p_max <= 0:
        raise DiscretizationError("momentum region has zero extent")
    wavelength = TWO_PI / p_max
    if nodes_per_unit is None:
        nodes_per_unit = max(NODES_PER_WAVELENGTH / wavelength,
                             MIN_NODES_PER_UNIT)
    spacing = 1.0 / nodes_per_unit
    if spacing >= 0.5 * math.pi / p_max:
        raise DiscretizationError(
            f"node spacing {spacing:.3g} exceeds the sampling guard "
            f"{0.5 * math.pi / p_max:.3g} for momenta up to {p_max:.3g}")

    # The node count is the product of the rule's factors' counts.
    region = omega.scaled(L) if L != 1.0 else omega
    ball = isinstance(region, Ball)
    if ball:
        n_r = _ceil(nodes_per_unit * region.radius, 4.0)
        n_t = _ceil(nodes_per_unit * TWO_PI * region.radius, 8.0)
        counts = [n_r, n_t] if region.dim == 2 else [n_r, n_r, n_t]
    elif isinstance(region, (IntervalUnion, Box)):
        axes = (region.axis_intervals() if isinstance(region, Box)
                else [region])
        plans = [_panels(axis, nodes_per_unit, wavelength) for axis in axes]
        counts = [sum(p * q for _, _, p, q in plan) for plan in plans]
    else:
        raise DiscretizationError(
            f"no node rule for {type(region).__name__} spatial regions")
    check_budget(math.prod(counts), budget, "Nystrom nodes")
    nodes, weights = (_rule_ball(region, int(n_r), int(n_t)) if ball
                      else _rule_axes(plans))

    n = len(weights)
    sqrt_w = np.sqrt(weights)
    dtype = float if kern.is_real else complex
    matrix = np.empty((n, n), dtype=dtype)
    block = max(1, min(n, int(8e6 / max(n, 1))))
    # Exactly Hermitian as assembled: q_j - q_k is -(q_k - q_j) bit for
    # bit and each closed form gives K(-u) = conj(K(u)) bit for bit.
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        if gamma.dim == 1:
            diff = nodes[i0:i1, None] - nodes[None, :]
        else:
            diff = nodes[i0:i1, None, :] - nodes[None, :, :]
        matrix[i0:i1] = kern.displacement(diff) \
            * (sqrt_w[i0:i1, None] * sqrt_w[None, :])
    return DiscretizedOperator(matrix)


def _sine_column(k_fermi: float, n: int) -> np.ndarray:
    """First column of the n-site lattice correlation matrix, the
    discrete sine kernel sin(k_fermi u) / (pi u) at u = 0..n-1 with
    k_fermi / pi at u = 0, once n >= 1; k_fermi is the caller's to
    check."""
    if n < 1:
        raise DiscretizationError(f"block length must be >= 1, got {n}")
    u = np.arange(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u > 0, np.sin(k_fermi * u) / (math.pi * u),
                        k_fermi / math.pi)


def lattice_correlation(k_fermi: float, n: int) -> DiscretizedOperator:
    """Correlation matrix of n successive sites of the 1D lattice gas.

    The ground state fills lattice momenta in [-k_fermi, k_fermi]; the
    resulting block correlation matrix is the discrete sine kernel

        C[j, k] = sin(k_fermi (j - k)) / (pi (j - k)),    C[j, j] = k_fermi/pi,

    exactly, with no quadrature involved.  This dense n x n block is the
    test oracle; spectra.pipeline_spectrum on a LatticeSea solves the
    same block without forming it.  k_fermi outside (0, pi) and n < 1
    raise DiscretizationError.
    """
    if not 0.0 < k_fermi < math.pi:
        raise DiscretizationError(
            f"lattice Fermi momentum must lie in (0, pi), got {k_fermi}")
    column = _sine_column(k_fermi, n)
    sites = np.arange(n)
    return DiscretizedOperator(column[np.abs(sites[:, None] - sites)])

