"""Spectra of localized Fermi projections and the entropies they carry.

A localized Fermi projection has spectrum in [0, 1]; each eigenvalue is
the occupation of one reduced-state mode, and the order-alpha Renyi
entropy of the reduced state is the plain spectral sum

    S_alpha = sum_i h_alpha(lambda_i).

Discretized matrices are only approximately contractions, so
eigenvalues poke slightly outside [0, 1]; they are clamped with
bookkeeping (how many, and the worst violation) and a hard failure
past 1e-3 (which indicates a broken discretization, not roundoff).

Lattice blocks are never diagonalized densely.  The discrete sine
kernel commutes with Slepian's tridiagonal matrix (Slepian 1978, Bell
Syst. Tech. J. 57:1371; Eisler & Peschel 2013, J. Stat. Mech. P04028),
whose eigenvectors are those of the kernel in the same ascending
order.  Only the window of eigenvectors around the Fermi level, where
lambda is neither 0 nor 1 to machine precision, is computed; the
eigenvalues there are Rayleigh quotients taken with an FFT Toeplitz
product, and every eigenvalue outside the window is exactly 0 or 1.
That costs O(n * window) instead of O(n^3) and carries no eigensolver
noise floor into the small-alpha entropies.  A bare ndarray still takes
the dense route, which is the oracle the tridiagonal route is tested
against.

pipeline_spectrum is the chain geometry -> matrix -> spectrum, routing
box-product geometries through tensor spectra: the compression
separates per axis there, so its eigenvalues are products of 1D
eigenvalues and no d-dimensional matrix is needed.  Every order is a
sum over that one spectrum, so callers wanting several orders at one L
diagonalize once and call renyi_entropy per order; entropy_pipeline is
the single-order composition of the two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as _fft
from scipy.linalg import eigh_tridiagonal

from . import discretize as _disc
from .functionals import entropy_function
from .geometry import Box, Domain, GeometryError

__all__ = [
    "SpectralViolationError",
    "Spectrum",
    "EntropyResult",
    "PipelineConfig",
    "eigenvalues",
    "renyi_entropy",
    "tensor_spectrum",
    "pipeline_spectrum",
    "entropy_pipeline",
]

EPS_ABORT = 1e-3

# Most eigenvalues the tensor_box route forms from axis spectra: at the
# ~65 bytes of peak memory per eigenvalue measured in 2D, about 1.3 GB.
# k_F = 1 on the unit cube passes it at L = 130 (2.0e7).
MAX_TENSOR_EIGENVALUES = 20_000_000


# Lattice route: a window edge whose min(lambda, 1 - lambda) is below
# SNAP_TOL ends the window, and eigenvalues beyond it are exactly 0 or
# 1; an eigenpair residual |C v - lambda v| above RESIDUAL_TOL is a
# failed solve.  Provenance counts eigenvalues with min(lambda,
# 1 - lambda) above INTERIOR_TOL as interior.
SNAP_TOL = 1e-15
RESIDUAL_TOL = 1e-10
INTERIOR_TOL = 1e-12


class SpectralViolationError(RuntimeError):
    """Eigenvalues too far outside [0, 1]: the discretization is broken."""


@dataclass(frozen=True)
class Spectrum:
    """Clamped eigenvalues of a localized Fermi projection.

    eigenvalues are sorted ascending in [0, 1]; clamp_count says how
    many were moved, max_violation how far the worst one sat outside
    before clamping.
    """

    eigenvalues: np.ndarray
    clamp_count: int
    max_violation: float

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


def _toeplitz_apply(column: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """C @ row for each row, C the symmetric Toeplitz matrix of column.

    C is embedded in a circulant of length >= 2n - 1, which the FFT
    diagonalizes; rows are transformed in chunks of about 2**21
    entries so memory stays O(n) per row at any n.
    """
    n = len(column)
    size = _fft.next_fast_len(2 * n - 1, real=True)
    circulant = np.zeros(size)
    circulant[:n] = column
    circulant[size - n + 1:] = column[:0:-1]
    symbol = _fft.rfft(circulant)
    out = np.empty_like(rows)
    chunk = max(1, 2 ** 21 // size)
    for start in range(0, len(rows), chunk):
        block = _fft.rfft(rows[start:start + chunk], size)
        out[start:start + chunk] = _fft.irfft(block * symbol, size)[:, :n]
    return out


def _lattice_spectrum(k_fermi: float, n: int) -> np.ndarray:
    """Unclamped eigenvalues of the n-site sine kernel C, ascending.

    T, with diagonal ((n-1-2j)/2)^2 cos k_F and off-diagonal
    (j+1)(n-1-j)/2, commutes with C and orders its eigenvectors as C's
    eigenvalues ascend; the 0 -> 1 transition sits near index
    c0 = n - round(n k_F / pi).  Eigenvectors are computed in the index
    window [c0 - lower, c0 + upper]; a side whose edge eigenvalue is not
    yet 0 or 1 to SNAP_TOL has its width doubled and the window solved
    again.  Below c0 the eigenvalue is v^T C v.  From c0 up it is
    1 - w^T C' w with w = (-1)^j v and C' the kernel at pi - k_F, since
    1 - C = D C' D with D = diag((-1)^j): that takes 1 - lambda
    directly, below the 1e-16 rounding of lambda near 1, so the edge
    test stays clear of roundoff at any n.
    """
    j = np.arange(n, dtype=float)
    diagonal = ((n - 1 - 2 * j) / 2) ** 2 * math.cos(k_fermi)
    off_diagonal = (j[1:] * (n - j[1:])) / 2
    c0 = n - round(n * k_fermi / math.pi)
    columns = (_disc.LatticeCorrelation(k_fermi, n).column,
               _disc.LatticeCorrelation(math.pi - k_fermi, n).column)
    signs = np.where(j % 2, -1.0, 1.0)
    # Near the Fermi level lambda = 1 / (1 + exp(eps)) with eps spaced
    # about pi^2 / ln n, so min(lambda, 1 - lambda) falls below SNAP_TOL
    # about ln(1/SNAP_TOL) ln(n) / pi^2 = 3.5 ln n indices from c0.
    lower = upper = math.ceil(3.5 * math.log(n)) + 4
    while True:
        lo, hi = max(c0 - lower, 0), min(c0 + upper, n - 1)
        # T's eigenvalues reach about n^2 / 4; bisecting them to 1e-12 n^2
        # rather than to machine precision is ample for the inverse
        # iteration that follows, and the residual check guards it.
        _, vectors = eigh_tridiagonal(diagonal, off_diagonal, select="i",
                                      select_range=(lo, hi),
                                      tol=1e-12 * n * n)
        rows = vectors.T.copy()
        split = min(max(c0 - lo, 0), len(rows))
        rows[split:] *= signs
        images = np.concatenate([_toeplitz_apply(columns[0], rows[:split]),
                                 _toeplitz_apply(columns[1], rows[split:])])
        quotients = np.einsum("ij,ij->i", rows, images)
        residual = np.max(np.linalg.norm(
            images - quotients[:, None] * rows, axis=1))
        if residual > RESIDUAL_TOL:
            raise SpectralViolationError(
                f"lattice eigenpair residual {residual:.3g} over "
                f"{RESIDUAL_TOL:.1g} (n={n}, k_fermi={k_fermi})")
        edges = np.minimum(quotients, 1.0 - quotients)[[0, -1]]
        grow_lo = lo > 0 and edges[0] >= SNAP_TOL
        grow_hi = hi < n - 1 and edges[1] >= SNAP_TOL
        if not (grow_lo or grow_hi):
            break
        if grow_lo:
            lower *= 2
        if grow_hi:
            upper *= 2
    return np.concatenate([np.zeros(lo), quotients[:split],
                           1.0 - quotients[split:], np.ones(n - 1 - hi)])


def eigenvalues(op) -> Spectrum:
    """Full spectrum of a discretized operator, clamped to [0, 1].

    op may be a DiscretizedOperator, a LatticeCorrelation, or a bare
    Hermitian ndarray.  A LatticeCorrelation takes the commuting
    tridiagonal route (_lattice_spectrum): no matrix is formed, each
    computed eigenpair must have residual below RESIDUAL_TOL, and the
    eigenvalues outside the computed window are exactly 0 or 1.
    Anything else is solved densely after Hermiticity is asserted
    (continuum sizes are budget-capped upstream, so O(n^3) is fine);
    eigenvalues(lattice.matrix) is that dense route, kept as the
    oracle.  Violating [0, 1] by EPS_ABORT raises
    SpectralViolationError; smaller violations are clamped and recorded
    in clamp_count and max_violation.
    """
    if isinstance(op, _disc.LatticeCorrelation):
        vals = _lattice_spectrum(op.k_fermi, op.n)
    else:
        matrix = _as_matrix(op)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"expected a square matrix, got shape {matrix.shape}")
        defect = (np.max(np.abs(matrix - matrix.conj().T))
                  if matrix.size else 0.0)
        if defect > 1e-12:
            raise SpectralViolationError(
                f"matrix is not Hermitian (defect {defect:.3g})")
        vals = np.linalg.eigvalsh(matrix) if matrix.size else np.empty(0)

    below = np.maximum(-vals, 0.0)
    above = np.maximum(vals - 1.0, 0.0)
    max_violation = float(np.max(below + above, initial=0.0))
    if max_violation >= EPS_ABORT:
        raise SpectralViolationError(
            f"eigenvalues violate [0, 1] by {max_violation:.3g} "
            f"(abort threshold {EPS_ABORT:.1g}); the discretization "
            "is under-resolved")
    clamp_count = int(np.count_nonzero((vals < 0.0) | (vals > 1.0)))
    clamped = np.clip(vals, 0.0, 1.0)
    return Spectrum(np.sort(clamped), clamp_count, max_violation)


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
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the geometry -> entropy pipeline.

    mode: 'auto' (tensor route for box-product geometries, else direct
    continuum), 'continuum', 'tensor_box', or 'lattice'.  In lattice
    mode gamma must be a symmetric interval (-k_F, k_F) with k_F < pi
    and the block has round(L * |omega|) sites, at most lattice_budget
    (default 100000; the tridiagonal route takes seconds there, and no
    n x n matrix is formed).  A nodes_per_unit under the Nyquist guard
    always fails.  EPS_ABORT and MAX_TENSOR_EIGENVALUES are fixed.
    """

    mode: str = "auto"
    nodes_per_unit: float | None = None
    budget: int = _disc.DEFAULT_CONTINUUM_BUDGET
    lattice_budget: int = _disc.DEFAULT_LATTICE_BUDGET


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
    integer number of sites; provenance records the route taken and
    `interior`, the number of eigenvalues with min(lambda, 1 - lambda)
    above INTERIOR_TOL (the rest are 0 or 1 to within roundoff).  Every
    Renyi order at this L is renyi_entropy of the one spectrum.
    """
    spectrum, realized_L, provenance = _route_spectrum(gamma, omega, L,
                                                       config)
    lam = spectrum.eigenvalues
    provenance["interior"] = int(np.count_nonzero(
        np.minimum(lam, 1.0 - lam) > INTERIOR_TOL))
    return spectrum, realized_L, provenance


def _route_spectrum(gamma: Domain, omega: Domain, L: float,
                    config: PipelineConfig):
    mode = _resolve_mode(config.mode, gamma, omega)

    if mode == "lattice":
        k_fermi, sites = _lattice_parameters(gamma, omega, L)
        if sites > config.lattice_budget:
            raise _disc.BudgetError(
                f"lattice block n={sites} over budget {config.lattice_budget}")
        op = _disc.lattice_correlation(k_fermi, sites)
        spectrum = eigenvalues(op)
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
        axis_spectra = [
            eigenvalues(_disc.nystrom(
                g_axis, o_axis, L, nodes_per_unit=config.nodes_per_unit,
                budget=config.budget))
            for g_axis, o_axis in zip(gamma.axis_intervals(),
                                      omega.axis_intervals())]
        axis_ns = [len(s) for s in axis_spectra]
        count = math.prod(axis_ns)
        if count > MAX_TENSOR_EIGENVALUES:
            raise _disc.BudgetError(
                f"tensor spectrum of axis sizes {axis_ns} needs {count:.3g} "
                f"eigenvalues, over the limit {MAX_TENSOR_EIGENVALUES:.3g}")
        spectrum = functools.reduce(tensor_spectrum, axis_spectra)
        return spectrum, float(L), {
            "mode": "tensor_box", "n": len(spectrum), "axis_ns": axis_ns,
            "gamma": gamma.describe(), "omega": omega.describe()}

    if mode != "continuum":
        raise ValueError(f"unknown pipeline mode {mode!r}")

    op = _disc.nystrom(
        gamma, omega, L, nodes_per_unit=config.nodes_per_unit,
        budget=config.budget)
    spectrum = eigenvalues(op)
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
