"""Spectra of localized Fermi projections and the entropies they carry.

A localized Fermi projection has spectrum in [0, 1]; each eigenvalue is
the occupation of one reduced-state mode, and the order-alpha Renyi
entropy of the reduced state is the plain spectral sum

    S_alpha = sum_i h_alpha(lambda_i).

Discretized matrices are only approximately contractions, so
eigenvalues poke slightly outside [0, 1]; they are clamped with
bookkeeping, a warning flag past 1e-7, and a hard failure past 1e-3
(which indicates a broken discretization, not roundoff).

pipeline_spectrum is the chain geometry -> matrix -> spectrum, routing
box-product geometries through tensor spectra: the compression
separates per axis there, so its eigenvalues are products of 1D
eigenvalues and no d-dimensional matrix is needed.  Every order is a
sum over that one spectrum, so callers wanting several orders at one L
diagonalize once and call renyi_entropy per order; entropy_pipeline is
the single-order composition of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import discretize as _disc
from .functionals import entropy_function
from .geometry import Box, Domain, GeometryError, IntervalUnion, interval

__all__ = [
    "SpectralViolationError",
    "Spectrum",
    "EntropyResult",
    "PipelineConfig",
    "eigenvalues",
    "renyi_entropy",
    "tensor_spectrum",
    "trace_power_diagnostic",
    "pipeline_spectrum",
    "entropy_pipeline",
]

EPS_WARN = 1e-7
EPS_ABORT = 1e-3


class SpectralViolationError(RuntimeError):
    """Eigenvalues too far outside [0, 1]: the discretization is broken."""


@dataclass(frozen=True)
class Spectrum:
    """Clamped eigenvalues of a localized Fermi projection.

    eigenvalues are sorted ascending in [0, 1]; clamp_count says how
    many were moved, max_violation how far the worst one sat outside
    before clamping; warn is set when max_violation reached the warning
    threshold passed to eigenvalues().
    """

    eigenvalues: np.ndarray
    clamp_count: int
    max_violation: float
    warn: bool = False

    def __len__(self):
        return len(self.eigenvalues)

    def complement(self) -> "Spectrum":
        """Spectrum with every lambda replaced by 1 - lambda."""
        return replace(self, eigenvalues=np.sort(1.0 - self.eigenvalues))


@dataclass(frozen=True)
class EntropyResult:
    """One computed entropy value with its provenance."""

    alpha: float
    S: float
    n: int
    L: float | None = None
    provenance: dict = field(default_factory=dict)


def _as_matrix(op) -> np.ndarray:
    if hasattr(op, "matrix"):
        return np.asarray(op.matrix)
    return np.asarray(op)


def eigenvalues(op, warn_threshold: float = EPS_WARN,
                abort_threshold: float = EPS_ABORT) -> Spectrum:
    """Full spectrum of a discretized operator, clamped to [0, 1].

    op may be a DiscretizedOperator, a LatticeCorrelation, or a bare
    Hermitian ndarray.  Hermiticity is asserted before solving; the
    dense eigensolver is used throughout (sizes are budget-capped
    upstream, so O(n^3) is fine and exact).
    """
    matrix = _as_matrix(op)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    defect = np.max(np.abs(matrix - matrix.conj().T)) if matrix.size else 0.0
    if defect > 1e-12:
        raise SpectralViolationError(
            f"matrix is not Hermitian (defect {defect:.3g})")
    vals = np.linalg.eigvalsh(matrix) if matrix.size else np.empty(0)

    below = np.maximum(-vals, 0.0)
    above = np.maximum(vals - 1.0, 0.0)
    max_violation = float(np.max(below + above, initial=0.0))
    if max_violation >= abort_threshold:
        raise SpectralViolationError(
            f"eigenvalues violate [0, 1] by {max_violation:.3g} "
            f"(abort threshold {abort_threshold:.1g}); the discretization "
            "is under-resolved")
    clamp_count = int(np.count_nonzero((vals < 0.0) | (vals > 1.0)))
    clamped = np.clip(vals, 0.0, 1.0)
    return Spectrum(np.sort(clamped), clamp_count, max_violation,
                    warn=max_violation >= warn_threshold)


def renyi_entropy(spectrum: Spectrum, alpha: float, L: float | None = None,
                  provenance: dict | None = None) -> EntropyResult:
    """S_alpha = sum of the two-point entropies of all eigenvalues.

    alpha = math.inf gives the min-entropy -sum ln max(lambda, 1-lambda);
    exp(-S_inf) is then the largest Fock-space eigenvalue of the
    quasi-free reduced state, the product of max(lambda, 1-lambda).
    The summation order is fixed (ascending eigenvalues) so results are
    reproducible run to run.  L and provenance (the spectrum's, as
    returned by pipeline_spectrum) are carried into the result; the
    clamp bookkeeping is added to a copy of the provenance.
    """
    values = entropy_function(spectrum.eigenvalues, alpha)
    S = float(np.sum(values))
    return EntropyResult(
        alpha=alpha, S=S, n=len(spectrum), L=L,
        provenance={**(provenance or {}),
                    "clamp_count": spectrum.clamp_count,
                    "max_violation": spectrum.max_violation})


def tensor_spectrum(spec_x: Spectrum, spec_y: Spectrum) -> Spectrum:
    """Spectrum of a tensor product of two compressions.

    For box-product geometries the localized projection factorizes per
    axis, so the d-dimensional eigenvalues are exactly the pairwise
    products of the 1D ones.  Clamp bookkeeping carries over by sum
    (products of clamped values need no new clamping).
    """
    products = np.multiply.outer(spec_x.eigenvalues, spec_y.eigenvalues)
    return Spectrum(
        np.sort(products.ravel()),
        spec_x.clamp_count + spec_y.clamp_count,
        max(spec_x.max_violation, spec_y.max_violation),
        warn=spec_x.warn or spec_y.warn,
    )


def trace_power_diagnostic(op, gamma_exponent: float) -> float:
    """Tr [A(1-A)]^g for g in (0, 1], from the clamped spectrum.

    This trace grows like const * ln(n) for sharp-Fermi-surface blocks;
    its boundedness relative to n^(d-1) ln n is what separates the
    enhanced area law from the plain one."""
    if not 0.0 < gamma_exponent <= 1.0:
        raise ValueError(
            f"exponent must lie in (0, 1], got {gamma_exponent}")
    spectrum = op if isinstance(op, Spectrum) else eigenvalues(op)
    lam = spectrum.eigenvalues
    return float(np.sum((lam * (1.0 - lam)) ** gamma_exponent))


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the geometry -> entropy pipeline.

    mode: 'auto' (tensor route for box-product geometries, else direct
    continuum), 'continuum', 'tensor_box', or 'lattice'.  In lattice
    mode gamma must be a symmetric interval (-k_F, k_F) with k_F < pi
    and the block has round(L * |omega|) sites.
    """

    mode: str = "auto"
    nodes_per_unit: float | None = None
    rule: str = "gauss_panels"
    budget: int = _disc.DEFAULT_CONTINUUM_BUDGET
    lattice_budget: int = _disc.DEFAULT_LATTICE_BUDGET
    strict_nyquist: bool = True
    warn_threshold: float = EPS_WARN
    abort_threshold: float = EPS_ABORT


def _lattice_parameters(gamma: Domain, omega: Domain, L: float):
    union = gamma.as_interval_union()
    if len(union.intervals) != 1 or not union.is_centrally_symmetric:
        raise GeometryError(
            "lattice mode needs a symmetric momentum interval (-k_F, k_F)")
    k_fermi = union.intervals[0][1]
    if not 0.0 < k_fermi < math.pi:
        raise GeometryError(
            f"lattice Fermi momentum must lie in (0, pi), got {k_fermi}")
    sites = int(round(L * omega.volume()))
    if sites < 1:
        raise GeometryError(
            f"lattice block of {sites} sites (L={L}, |omega|={omega.volume()})")
    return k_fermi, sites


def _resolve_mode(mode: str, gamma: Domain, omega: Domain) -> str:
    if mode != "auto":
        return mode
    if isinstance(gamma, Box) and isinstance(omega, Box) and gamma.dim >= 2:
        return "tensor_box"
    return "continuum"


def pipeline_spectrum(gamma: Domain, omega: Domain, L: float,
                      config: PipelineConfig = PipelineConfig()
                      ) -> tuple[Spectrum, float, dict]:
    """Clamped spectrum of the gamma Fermi projection localized to L * omega.

    Returns (spectrum, realized L, provenance).  The realized L differs
    from the requested one only in lattice mode, where the block has an
    integer number of sites; provenance records the route taken.  Every
    Renyi order at this L is renyi_entropy of the one spectrum.
    """
    mode = _resolve_mode(config.mode, gamma, omega)

    if mode == "lattice":
        k_fermi, sites = _lattice_parameters(gamma, omega, L)
        if sites > config.lattice_budget:
            raise _disc.BudgetError(
                f"lattice block n={sites} over budget {config.lattice_budget}")
        op = _disc.lattice_correlation(k_fermi, sites)
        spectrum = eigenvalues(op, config.warn_threshold, config.abort_threshold)
        # Record the realized dilation (integer site count over |omega|)
        # so downstream fits see the block size actually diagonalized.
        return spectrum, sites / omega.volume(), {
            "mode": "lattice", "k_fermi": k_fermi, "n": sites,
            "requested_L": float(L),
            "gamma": gamma.describe(), "omega": omega.describe()}

    if mode == "tensor_box":
        if not (isinstance(gamma, Box) and isinstance(omega, Box)):
            raise GeometryError("tensor_box mode needs box momentum and "
                                "spatial regions")
        if gamma.dim != omega.dim:
            raise GeometryError("tensor_box mode needs matching dimensions")
        axis_ns = []
        spectrum = None
        for g_axis, o_axis in zip(gamma.axis_intervals(), omega.axis_intervals()):
            op = _disc.nystrom(
                g_axis, o_axis, L, nodes_per_unit=config.nodes_per_unit,
                rule=config.rule, budget=config.budget,
                strict_nyquist=config.strict_nyquist)
            axis_spec = eigenvalues(op, config.warn_threshold,
                                    config.abort_threshold)
            axis_ns.append(len(axis_spec))
            spectrum = axis_spec if spectrum is None \
                else tensor_spectrum(spectrum, axis_spec)
        return spectrum, float(L), {
            "mode": "tensor_box", "n": len(spectrum), "axis_ns": axis_ns,
            "rule": config.rule,
            "gamma": gamma.describe(), "omega": omega.describe()}

    if mode != "continuum":
        raise ValueError(f"unknown pipeline mode {mode!r}")

    op = _disc.nystrom(
        gamma, omega, L, nodes_per_unit=config.nodes_per_unit,
        rule=config.rule, budget=config.budget,
        strict_nyquist=config.strict_nyquist)
    spectrum = eigenvalues(op, config.warn_threshold, config.abort_threshold)
    return spectrum, float(L), dict(op.provenance)


def entropy_pipeline(gamma: Domain, omega: Domain, L: float, alpha: float,
                     config: PipelineConfig = PipelineConfig()) -> EntropyResult:
    """S_alpha of the gamma ground state reduced to the region L * omega.

    pipeline_spectrum followed by renyi_entropy at one order; the
    returned provenance records the route taken and the clamp
    bookkeeping.  For several orders at one L, call pipeline_spectrum
    once and renyi_entropy per order (as sweep does) instead of
    repeating the eigensolve.
    """
    spectrum, realized_L, provenance = pipeline_spectrum(gamma, omega, L,
                                                         config)
    return renyi_entropy(spectrum, alpha, realized_L, provenance)
