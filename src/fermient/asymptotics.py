"""Scaling sweeps, least-squares fits, and comparison against the
enhanced-area-law prediction.

For a momentum region with boundary dGamma and a spatial region with
boundary dOmega, the order-alpha entanglement entropy of the dilated
region grows as

    S_alpha(L) = (1+alpha)/(24*alpha) * J(dGamma, dOmega) * L^(d-1) * ln L
                 + o(L^(d-1) * ln L),

so this module sweeps L, fits S(L) against {L^(d-1) ln L, L^(d-1)}
(or {ln L, 1} in d = 1, where the area term is itself constant), and
reports the fitted leading coefficient next to the predicted one.  The
remainder has no proven rate, so exactly the two leading terms are
fitted; adding more would destabilize the design matrix without a
model to justify it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .functionals import predicted_log_prefactor
from .geometry import Domain, LatticeSea
from .spectra import (EntropyResult, lattice_sites, pipeline_spectrum,
                      renyi_entropy)

__all__ = [
    "SweepResult",
    "ScalingFit",
    "FitError",
    "sweep",
    "fit_scaling",
    "compare_theory",
]


# Fewest points a two-term fit accepts: two fitted coefficients and
# two degrees of freedom left for the residual.
MIN_FIT_POINTS = 4


class FitError(RuntimeError):
    """Fit impossible: too few points or a degenerate design matrix."""


@dataclass(frozen=True)
class SweepResult:
    """Entropies over an L grid for one geometry and order."""

    gamma: Domain
    omega: Domain
    alpha: float
    results: tuple[EntropyResult, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.results, key=lambda r: r.L))
        L = [r.L for r in ordered]
        if any(b <= a for a, b in zip(L, L[1:])):
            raise ValueError("sweep L grid must be strictly increasing")
        object.__setattr__(self, "results", ordered)

    @property
    def L_values(self) -> np.ndarray:
        return np.array([r.L for r in self.results])

    @property
    def S_values(self) -> np.ndarray:
        return np.array([r.S for r in self.results])


def sweep(gamma: Domain, omega: Domain, alpha, L_grid,
          budget: int | None = None, on_result=None,
          precomputed: dict | None = None) -> dict[float, SweepResult]:
    """Entropies over every L in the grid, one spectrum per L.

    alpha is a sequence of orders, and the result is {alpha:
    SweepResult} in the order given.  Each L is assembled and
    diagonalized once (pipeline_spectrum within budget; None is the
    route's default), and every order is a renyi_entropy sum over that
    spectrum.  Every EntropyResult at one L carries the route taken
    (mode) and, as wall_time_s, the time spent assembling and
    diagonalizing that L, which its orders share.

    The L points run serially, largest first: every route's size grows
    with L, so an L past the budget fails before any smaller L is
    solved, and an error propagates at once.  For a LatticeSea gamma,
    two L values that round to one block (spectra.lattice_sites) are
    refused before any solve, as duplicates are.

    on_result, if given, is called with each EntropyResult as its point
    completes, which is how the CLI persists partial rows.  precomputed
    holds already-known EntropyResults (resumed rows) as {alpha: {L:
    result}}.  An L whose orders are all precomputed is not
    diagonalized; otherwise its missing orders are computed from a
    fresh spectrum.

    An empty grid returns empty SweepResults.
    """
    orders = [float(a) for a in alpha]
    if len(set(orders)) != len(orders):
        raise ValueError("sweep orders contain duplicates")
    grid = [float(L) for L in L_grid]
    if len(set(grid)) != len(grid):
        raise ValueError("sweep grid contains duplicate L values")
    if isinstance(gamma, LatticeSea) \
            and len(set(lattice_sites(grid, omega))) != len(grid):
        raise ValueError("sweep grid has L values that round to one "
                         "lattice block")
    known = precomputed or {}
    done = {a: {L: known[a][L] for L in grid if L in known.get(a, {})}
            for a in orders}
    for L in sorted(grid, reverse=True):
        missing = [a for a in orders if L not in done[a]]
        if not missing:
            continue
        start = time.perf_counter()
        spectrum, realized_L, mode = pipeline_spectrum(gamma, omega, L,
                                                       budget)
        wall_time_s = time.perf_counter() - start
        for a in missing:
            result = renyi_entropy(spectrum, a, realized_L, mode, wall_time_s)
            done[a][L] = result
            if on_result is not None:
                on_result(result)

    return {a: SweepResult(gamma, omega, a, tuple(done[a].values()))
            for a in orders}


@dataclass(frozen=True)
class ScalingFit:
    """Two-term least-squares fit of a sweep.

    log_coefficient multiplies L^(d-1) ln L (the enhanced term),
    area_coefficient multiplies L^(d-1) (a constant in d = 1), d the
    dimension of the sweep geometry; model spells the law out.
    condition_number refers to the design matrix; stderr are the usual
    diagonal-covariance estimates; window is the fitted range
    (min L, max L)."""

    log_coefficient: float
    area_coefficient: float
    stderr_log: float
    stderr_area: float
    window: tuple[float, float]
    npoints: int
    residual_norm: float
    condition_number: float
    model: str


def fit_scaling(data: SweepResult) -> ScalingFit:
    """Least squares of S(L) on the two leading scaling terms, over every
    L of the sweep (at least MIN_FIT_POINTS); d is the dimension of the
    sweep geometry.
    """
    L, S = data.L_values, data.S_values
    d = data.gamma.dim
    if len(L) < MIN_FIT_POINTS:
        raise FitError(f"the fit has {len(L)} points; "
                       f"need >= {MIN_FIT_POINTS}")

    area = L ** (d - 1)
    X = np.column_stack([area * np.log(L), area])
    condition = float(np.linalg.cond(X))
    coef, _, rank, _ = np.linalg.lstsq(X, S, rcond=None)
    if rank < 2:
        raise FitError("rank-deficient design matrix (degenerate L grid)")

    residuals = S - X @ coef
    dof = max(len(L) - 2, 1)
    sigma2 = float(residuals @ residuals) / dof
    covariance = sigma2 * np.linalg.inv(X.T @ X)
    stderr = np.sqrt(np.maximum(np.diag(covariance), 0.0))
    model = ("S ~ a*ln(L) + b" if d == 1
             else f"S ~ a*L^{d - 1}*ln(L) + b*L^{d - 1}")
    return ScalingFit(
        log_coefficient=float(coef[0]),
        area_coefficient=float(coef[1]),
        stderr_log=float(stderr[0]),
        stderr_area=float(stderr[1]),
        window=(float(L.min()), float(L.max())),
        npoints=int(len(L)),
        residual_norm=float(np.linalg.norm(residuals)),
        condition_number=condition,
        model=model,
    )


def compare_theory(fit: ScalingFit, J: float, alpha: float) -> dict:
    """Fitted leading coefficient against the prediction

        theory = (1 + alpha) / (24 * alpha) * J,

    with J the boundary coefficient's value (geometry.widom_J), as
    {theory, rel_dev}, rel_dev = |fit.log_coefficient - theory| / theory.
    theory is nonzero for every valid catalog pair (J > 0 and the
    prefactor is positive), but a zero is guarded anyway."""
    theory = predicted_log_prefactor(alpha) * J
    if theory == 0.0:
        raise FitError("predicted coefficient is zero; comparison undefined")
    return {"theory": theory,
            "rel_dev": abs(fit.log_coefficient - theory) / theory}
