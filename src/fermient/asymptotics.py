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

import math
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from .functionals import (log_coefficient_functional, predicted_log_prefactor)
from .geometry import Domain, widom_J
from .spectra import (EntropyResult, PipelineConfig, pipeline_spectrum,
                      renyi_entropy)

__all__ = [
    "SweepResult",
    "ScalingFit",
    "FitError",
    "sweep",
    "synthetic_sweep",
    "fit_scaling",
    "predicted_prefactor",
    "widom_prediction",
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
          config: PipelineConfig = PipelineConfig(), jobs: int = 1,
          on_result=None, precomputed: dict | None = None):
    """Entropies over every L in the grid, one spectrum per L.

    alpha is one order or a sequence of orders.  Each L is assembled and
    diagonalized once (pipeline_spectrum), and every order is a
    renyi_entropy sum over that spectrum.  One order returns a
    SweepResult; a sequence returns {alpha: SweepResult} in the order
    given.  Every EntropyResult at one L carries the route taken (mode)
    and, as wall_time_s, the time spent assembling and diagonalizing
    that L, which its orders share.

    jobs > 1 runs the L points in a thread pool (the eigensolver
    releases the interpreter lock); aggregation is always ordered by L,
    so the result is deterministic regardless of completion order.

    on_result, if given, is called in the calling thread with each
    EntropyResult as its point completes, which is how the CLI persists
    partial rows.  precomputed holds already-known EntropyResults
    (resumed rows), keyed like the return value: {L: result} for one
    order, {alpha: {L: result}} for a sequence.  An L whose orders are
    all precomputed is not diagonalized; otherwise its missing orders
    are computed from a fresh spectrum.

    An empty grid returns empty SweepResults.
    """
    single = np.ndim(alpha) == 0
    orders = [alpha] if single else [float(a) for a in alpha]
    if len(set(orders)) != len(orders):
        raise ValueError("sweep orders contain duplicates")
    grid = [float(L) for L in L_grid]
    if len(set(grid)) != len(grid):
        raise ValueError("sweep grid contains duplicate L values")
    known = precomputed or {}
    if single:
        known = {alpha: known}
    done = {a: {L: known[a][L] for L in grid if L in known.get(a, {})}
            for a in orders}
    todo = {}
    for L in grid:
        missing = [a for a in orders if L not in done[a]]
        if missing:
            todo[L] = missing

    def run_one(L: float, missing) -> list[EntropyResult]:
        start = time.perf_counter()
        spectrum, realized_L, mode = pipeline_spectrum(gamma, omega, L, config)
        wall_time_s = time.perf_counter() - start
        return [renyi_entropy(spectrum, a, realized_L, mode, wall_time_s)
                for a in missing]

    def collect(L: float, results) -> None:
        for result in results:
            done[result.alpha][L] = result
            if on_result is not None:
                on_result(result)

    if jobs > 1 and len(todo) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(run_one, L, missing): L
                       for L, missing in todo.items()}
            for future in as_completed(futures):
                collect(futures[future], future.result())
    else:
        for L, missing in todo.items():
            collect(L, run_one(L, missing))

    by_order = {a: SweepResult(gamma, omega, a, tuple(done[a].values()))
                for a in orders}
    return by_order[alpha] if single else by_order


def synthetic_sweep(gamma: Domain, omega: Domain, alpha: float, L_grid,
                    area_coefficient: float = 0.1,
                    noise: float = 0.0, seed: int = 0) -> SweepResult:
    """Sweep with S generated from the predicted law instead of computed.

    S(L) = theory * L^(d-1) * ln L + area_coefficient * L^(d-1), plus
    optional Gaussian noise.  Used by the self-test path: fitting this
    data must recover the theory coefficient to roundoff (or to the
    noise level)."""
    d = gamma.dim
    theory = predicted_prefactor(gamma, omega, alpha)
    rng = np.random.default_rng(seed)
    results = []
    for L in L_grid:
        L = float(L)
        S = theory * L ** (d - 1) * math.log(L) \
            + area_coefficient * L ** (d - 1)
        if noise:
            S += rng.normal(scale=noise)
        results.append(EntropyResult(alpha=alpha, S=float(S), n=0, L=L,
                                     mode="synthetic"))
    return SweepResult(gamma, omega, alpha, tuple(results))


@dataclass(frozen=True)
class ScalingFit:
    """Two-term least-squares fit of a sweep.

    log_coefficient multiplies L^(d-1) ln L (the enhanced term),
    area_coefficient multiplies L^(d-1) (a constant in d = 1).
    condition_number refers to the design matrix; stderr are the usual
    diagonal-covariance estimates."""

    d: int
    log_coefficient: float
    area_coefficient: float
    stderr_log: float
    stderr_area: float
    window: tuple[float, float]
    npoints: int
    residual_norm: float
    condition_number: float
    model: str


def _design_matrix(L: np.ndarray, d: int) -> np.ndarray:
    if d == 1:
        return np.column_stack([np.log(L), np.ones_like(L)])
    area = L ** (d - 1)
    return np.column_stack([area * np.log(L), area])


def fit_scaling(data, d: int | None = None, window=None) -> ScalingFit:
    """Least squares of S(L) on the two leading scaling terms.

    data is a SweepResult or a pair of arrays (L, S); d is taken from
    the sweep geometry when omitted.  window = (L_min, L_max) restricts
    the fit (inclusive); at least MIN_FIT_POINTS must survive it.
    """
    if isinstance(data, SweepResult):
        L, S = data.L_values, data.S_values
        if d is None:
            d = data.gamma.dim
    else:
        L, S = (np.asarray(x, dtype=float) for x in data)
        if d is None:
            raise FitError("d must be given when fitting bare arrays")
    if window is None:
        window = (float(L.min()), float(L.max())) if len(L) else (0.0, 0.0)
    keep = (L >= window[0]) & (L <= window[1])
    L, S = L[keep], S[keep]
    if len(L) < MIN_FIT_POINTS:
        raise FitError(f"fit window {window} keeps {len(L)} points; "
                       f"need >= {MIN_FIT_POINTS}")

    X = _design_matrix(L, d)
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
        d=d,
        log_coefficient=float(coef[0]),
        area_coefficient=float(coef[1]),
        stderr_log=float(stderr[0]),
        stderr_area=float(stderr[1]),
        window=(float(window[0]), float(window[1])),
        npoints=int(len(L)),
        residual_norm=float(np.linalg.norm(residuals)),
        condition_number=condition,
        model=model,
    )


def predicted_prefactor(gamma: Domain, omega: Domain, alpha: float) -> float:
    """The predicted coefficient of L^(d-1) ln L:

        (1 + alpha) / (24 * alpha) * J(dGamma, dOmega).
    """
    return predicted_log_prefactor(alpha) * widom_J(gamma, omega).value


def widom_prediction(f_or_alpha, gamma: Domain, omega: Domain, L: float,
                     reflected=None) -> dict:
    """Two-term trace asymptotics of f applied to the localized projection:

        Tr f(D) ~ f(1) * (2*pi)^(-d) |Gamma| |Omega| L^d        (Weyl term)
                  + I(f) * J(dGamma, dOmega) * L^(d-1) * ln L   (log term).

    f_or_alpha is either a callable test function (f(0) = 0, Hoelder at
    the endpoints) or a Renyi order; entropy functions have f(1) = 0,
    so their Weyl term vanishes identically and only the boundary term
    survives.  Returns the two evaluated terms plus the ingredients.
    """
    d = gamma.dim
    if callable(f_or_alpha):
        f = f_or_alpha
        f_at_one = float(np.asarray(f(np.array([1.0])))[0])
        functional = log_coefficient_functional(
            f, reflected=reflected, f_at_one=f_at_one).value
    else:
        f_at_one = 0.0
        functional = predicted_log_prefactor(float(f_or_alpha))
    j_value = widom_J(gamma, omega).value
    weyl = f_at_one * (2.0 * math.pi) ** (-d) * gamma.volume() \
        * omega.volume() * L ** d
    log_term = functional * j_value * L ** (d - 1) * math.log(L)
    return {
        "weyl_term": weyl,
        "log_term": log_term,
        "functional_value": functional,
        "j_value": j_value,
        "f_at_one": f_at_one,
    }


def compare_theory(fit: ScalingFit, gamma: Domain, omega: Domain,
                   alpha: float) -> dict:
    """Fitted leading coefficient against the prediction.

    rel_dev = |fitted - theory| / theory; the theory value is nonzero
    for every valid catalog pair (J > 0 and the prefactor is positive),
    but a zero is guarded anyway."""
    theory = predicted_prefactor(gamma, omega, alpha)
    if theory == 0.0:
        raise FitError("predicted coefficient is zero; comparison undefined")
    fitted = fit.log_coefficient
    return {
        "theory": theory,
        "fitted": fitted,
        "rel_dev": abs(fitted - theory) / theory,
        "stderr": fit.stderr_log,
    }
