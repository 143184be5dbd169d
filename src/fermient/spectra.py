"""Spectra of localized Fermi projections and the entropies they carry.

A localized Fermi projection has spectrum in [0, 1]; each eigenvalue is
the occupation of one reduced-state mode, and the order-alpha Renyi
entropy of the reduced state is the plain spectral sum

    S_alpha = sum_i h_alpha(lambda_i).

Discretized matrices are only approximately contractions, so
eigenvalues poke slightly outside [0, 1]; they are clamped with
bookkeeping (how many, and the worst violation) and a hard failure
past 1e-3 (which indicates a broken discretization, not roundoff).
A Spectrum stores values with multiplicities: the exact routes below
keep their exact 0s and 1s, which add nothing to any entropy, as one
entry each.

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

A single momentum interval localized to a single spatial interval is
the sinc kernel on [-1, 1] with c = |gamma| L |omega| / 4, up to a
phase and a translation.  It commutes with the prolate differential
operator (Slepian & Pollak 1961, Bell Syst. Tech. J. 40:43), two
tridiagonals in the Legendre basis, and is solved like the lattice: a
window of eigenvectors around 2c / pi, each eigenvalue from a ratio of
Legendre coefficients (Osipov, Rokhlin & Xiao 2013, Prolate Spheroidal
Wave Functions of Order Zero) or, near 1, from its out-of-band energy,
and exact 0s and 1s outside the window.

pipeline_spectrum is the chain geometry -> matrix -> spectrum.  Single
intervals take the prolate route.  Box-product geometries take tensor
spectra: the compression separates per axis there, so its eigenvalues
are products of the axes' prolate eigenvalues and no d-dimensional
matrix is needed.  A ball/ball pair in d = 2 or 3 commutes with
rotations, so its compression splits into one radial operator per
angular momentum (Slepian 1964, Bell Syst. Tech. J. 43:3009): each
sector is a small Gauss-Legendre matrix of a Bessel Christoffel-Darboux
kernel, solved densely and counted with its multiplicity, and no n x n
Nystrom matrix is formed.  Every other continuum geometry (interval
unions among them), and any pair under mode 'continuum', takes the
Nystrom matrix, which is the oracle for all three reduced routes.  Every
order is a sum over that one spectrum, so callers wanting several
orders at one L diagonalize once and call renyi_entropy per order;
entropy_pipeline is the single-order composition of the two.  An
EntropyResult holds the order, the entropy, the spectrum's size, clamp
bookkeeping and interior count, the realized L and the route taken;
its fields are the columns of an output row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import fft as _fft
from scipy.linalg import eigh_tridiagonal
from scipy.special import jv, roots_legendre

from . import discretize as _disc
from .functionals import entropy_function
from .geometry import Ball, Box, Domain, GeometryError

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

# Lattice and prolate routes: a window edge whose min(lambda, 1 - lambda)
# is below SNAP_TOL ends the window, and eigenvalues beyond it are
# exactly 0 or 1.  A lattice eigenpair residual |C v - lambda v| above
# RESIDUAL_TOL is a failed solve.  Spectrum.interior counts eigenvalues with
# min(lambda, 1 - lambda) above INTERIOR_TOL.
SNAP_TOL = 1e-15
RESIDUAL_TOL = 1e-10
INTERIOR_TOL = 1e-12

# Prolate route: the Legendre basis holds ceil(1.5 c) + PROLATE_PAD
# degrees; an eigenvector carrying an interior eigenvalue whose last two
# coefficients exceed TAIL_TOL in magnitude has not converged in it.
# Near 1, an eigenvalue whose quotient leaves 1 - lambda under
# OUT_OF_BAND_TOL takes 1 - lambda from its out-of-band energy.
PROLATE_PAD = 40
TAIL_TOL = 1e-13
OUT_OF_BAND_TOL = 1e-10

# Radial route: sectors run until the first l >= kR whose largest
# eigenvalue is below SNAP_TOL.  That takes about 6.3 (kR)^(1/3)
# sectors past kR (the width of the Bessel transition region); a sector
# past kR + SECTOR_EXCESS * (1 + kR)^(1/3) that still carries an
# eigenvalue is a failed solve.
SECTOR_EXCESS = 12.0


class SpectralViolationError(RuntimeError):
    """Eigenvalues too far outside [0, 1]: the discretization is broken."""


@dataclass(frozen=True)
class Spectrum:
    """Clamped eigenvalues of a localized Fermi projection.

    values[i] in [0, 1] occurs multiplicities[i] times; clamp_count says
    how many eigenvalues were moved, max_violation how far the worst one
    sat outside before clamping.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    clamp_count: int
    max_violation: float

    def __len__(self):
        return int(np.sum(self.multiplicities))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue, each copy stored, sorted ascending."""
        return np.sort(np.repeat(self.values, self.multiplicities))

    @functools.cached_property
    def interior(self) -> int:
        """Eigenvalues with min(lambda, 1 - lambda) above INTERIOR_TOL;
        the rest are 0 or 1 to within roundoff."""
        lam = self.values
        return int(np.sum(self.multiplicities,
                          where=np.minimum(lam, 1.0 - lam) > INTERIOR_TOL))

    def complement(self) -> "Spectrum":
        """Spectrum with every lambda replaced by 1 - lambda."""
        return replace(self, values=1.0 - self.values)


@dataclass(frozen=True)
class EntropyResult:
    """One computed entropy value; its fields are the output row's.

    n counts the spectrum's eigenvalues and L is the realized dilation.
    mode names the route that produced the spectrum; clamp_count,
    max_violation and interior are the spectrum's; wall_time_s is the
    time spent assembling and diagonalizing it, which every order at
    one L shares.  interior and wall_time_s are None where unknown.
    """

    alpha: float
    S: float
    n: int
    L: float | None = None
    mode: str = ""
    clamp_count: int = 0
    max_violation: float = 0.0
    interior: int | None = None
    wall_time_s: float | None = None


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


def _lattice_spectrum(k_fermi: float, n: int):
    """Unclamped (values, multiplicities) of the n-site sine kernel C.

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
    window = np.concatenate([quotients[:split], 1.0 - quotients[split:]])
    return (np.append(window, (0.0, 1.0)),
            np.append(np.full(len(window), 1), (lo, n - 1 - hi)))


def _spherical_jn(x: np.ndarray, size: int) -> np.ndarray:
    """j_k(x) for k < size at every x > 0, rows k, by Miller's backward
    recurrence from far enough past max(size, x) that the start does
    not show, normalized by j_0 or j_1, whichever is larger."""
    top = math.ceil(max(size, x.max()) + 20 + 4 * x.max() ** (1 / 3))
    table = np.empty((top + 1, len(x)))
    after, value = np.zeros_like(x), np.ones_like(x)
    table[top] = value
    for k in range(top, 0, -1):
        after, value = value, (2 * k + 1) / x * value - after
        # A step grows the values by at most (2 top + 1) / x, under 30
        # wherever the route calls this, so a check every 32 steps
        # rescales long before float overflow.
        if k % 32 == 0:
            large = np.abs(value) > 1e200
            if large.any():
                table[k:, large] *= 1e-200
                after[large] *= 1e-200
                value[large] *= 1e-200
        table[k - 1] = value
    j0 = np.sin(x) / x
    j1 = j0 / x - np.cos(x) / x
    scale = np.where(np.abs(j0) >= np.abs(j1), j0 / table[0], j1 / table[1])
    return table[:size] * scale


def _spherical_hn(x: np.ndarray, size: int) -> np.ndarray:
    """h_k(x) = j_k(x) + i y_k(x) for k < size, rows k, by forward
    recurrence, which is stable for both parts while k < x."""
    out = np.empty((size, len(x)), dtype=complex)
    phase = np.exp(1j * x)
    out[0] = -1j * phase / x
    out[1] = -(x + 1j) * phase / (x * x)
    for k in range(1, size - 1):
        out[k + 1] = (2 * k + 1) / x * out[k] - out[k - 1]
    return out


def _out_of_band(c: float, size: int):
    """Out-of-band energy of window eigenvectors: 1 - lambda without
    cancellation.

    A unit eigenvector beta on one parity's degrees k has transform
    psi^(c t) = sum_k a_k j_k(c t), a_k = 2 sqrt(k + 1/2) (-1)^(k // 2)
    beta_k, up to a unit phase, and 1 - lambda = (c/pi) int_1^inf
    psi^(c t)^2 dt.  The sum is taken pointwise, so a tiny
    psi^ beyond the band is not the difference of two numbers near 1.
    Gauss-Legendre covers [1, T], T = (size + 30) / c, where every k is
    below c t.  Past T, with H = sum_k a_k h_k(c t) and psi^ = Re H, the
    integrand is |H|^2 / 2, smooth and integrated in s = T / t, plus
    Re(H^2) / 2, whose integral is -Re H Im H / (2c) at T to first order
    in 1 / (c T).  Returns a function of (k, coefficient columns); its
    Bessel tables are built once, on first use, for both parities.
    """
    T = (size + 30) / c
    x, w = roots_legendre(math.ceil(0.5 * c * (T - 1)) + 40)
    t = 1.0 + 0.5 * (T - 1) * (x + 1.0)
    w = 0.5 * (T - 1) * w
    s, w_s = roots_legendre(48)
    s = 0.5 * (s + 1.0)

    @functools.cache
    def tables():
        return (_spherical_jn(c * t, size),
                _spherical_hn(c * np.concatenate([[T], T / s]), size))

    def energy(k: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        a = (2 * np.sqrt(k + 0.5) * np.where(k % 4 > 1, -1.0, 1.0))[:, None] \
            * coefficients
        j_table, h_table = tables()
        rows = k.astype(int)
        inner = w @ (j_table[rows].T @ a) ** 2
        H = h_table[rows].T @ a
        outer = (0.25 * T * w_s / (s * s)) @ np.abs(H[1:]) ** 2 \
            - H[0].real * H[0].imag / (2 * c)
        return c / math.pi * (inner + outer)

    return energy


def _prolate_spectrum(c: float, size: int):
    """Unclamped (values, multiplicities) of sin(c(x - y)) / (pi (x - y))
    on [-1, 1], one eigenvalue per Legendre degree below size: each
    parity's window, descending, then its exact 1s and 0s.

    The kernel commutes with -d/dx (1 - x^2) d/dx + c^2 x^2 (Slepian &
    Pollak 1961), which in the normalized Legendre basis of degrees
    k < size splits into one tridiagonal per parity, with diagonal
    k(k+1) + c^2 (2k(k+1) - 1) / ((2k+3)(2k-1)) and (k, k+2) entry
    c^2 (k+1)(k+2) / ((2k+3) sqrt((2k+1)(2k+5))); its eigenvectors in
    ascending order carry the kernel's eigenvalues in descending order.
    Per parity, eigenvectors are computed in an index window around the
    c / pi of each parity that lie near 1 (trace 2c / pi); a side whose
    edge eigenvalue is not yet 0 or 1 to SNAP_TOL has its width doubled
    and the window solved again, and everything outside it is exactly 0
    or 1.  With F the transform int_-1^1 exp(icxt) f(t) dt, each
    eigenvector psi has F psi = mu psi and lambda = c |mu|^2 / (2 pi),
    mu = sqrt(2) beta_0 / psi(0) for even and c sqrt(2/3) beta_1 /
    psi'(0) for odd psi (Osipov, Rokhlin & Xiao 2013).  That quotient
    is accurate to about c * 1e-16 near 1, so where it leaves
    1 - lambda under OUT_OF_BAND_TOL, 1 - lambda is the out-of-band
    energy instead.  A window eigenvector of an interior eigenvalue
    whose last two coefficients exceed TAIL_TOL raises
    SpectralViolationError: the basis is too small for it.
    """
    out_of_band = _out_of_band(c, size)
    parts = []
    for parity in (0, 1):
        k = np.arange(parity, size, 2, dtype=float)
        diagonal = k * (k + 1) + c * c * (2 * k * (k + 1) - 1) \
            / ((2 * k + 3) * (2 * k - 1))
        j = k[:-1]
        off_diagonal = c * c * (j + 1) * (j + 2) \
            / ((2 * j + 3) * np.sqrt((2 * j + 1) * (2 * j + 5)))
        # psi(0) (even) or psi'(0) (odd) is at_zero @ beta, from
        # P_m(0) = prod over even j <= m of -(j - 1) / j at the even
        # degrees m = k - parity, and P_k'(0) = k P_k-1(0) for odd k.
        m = k - parity
        at_zero = np.sqrt(k + 0.5) * (k if parity else 1.0) * np.cumprod(
            np.where(m > 0, (1.0 - m) / np.maximum(m, 1.0), 1.0))
        scale = c ** 3 / 3.0 if parity else c
        center = round(c / math.pi - 0.5 * parity)
        lower = upper = math.ceil(1.75 * math.log(c + 1.0)) + 4
        last = len(k) - 1
        while True:
            lo, hi = max(center - lower, 0), min(center + upper, last)
            # As on the lattice route, bisection to 1e-12 of the largest
            # eigenvalue (about size^2) is ample for the inverse
            # iteration that follows.
            _, vectors = eigh_tridiagonal(diagonal, off_diagonal, select="i",
                                          select_range=(lo, hi),
                                          tol=1e-12 * size * size)
            lam = scale * vectors[0] ** 2 \
                / (math.pi * (at_zero @ vectors) ** 2)
            gap = 1.0 - lam
            near_one = (lam > 0.5) & (gap < OUT_OF_BAND_TOL)
            if near_one.any():
                gap[near_one] = out_of_band(k, vectors[:, near_one])
                lam[near_one] = 1.0 - gap[near_one]
            interior = np.minimum(lam, gap) > INTERIOR_TOL
            tail = np.max(np.abs(vectors[-2:, interior]), initial=0.0)
            if tail > TAIL_TOL:
                raise SpectralViolationError(
                    f"prolate eigenvector tail {tail:.3g} over {TAIL_TOL:.1g} "
                    f"in a basis of {size} degrees (c={c:.6g})")
            grow_lo = lo > 0 and gap[0] >= SNAP_TOL
            grow_hi = hi < last and lam[-1] >= SNAP_TOL
            if not (grow_lo or grow_hi):
                break
            if grow_lo:
                lower *= 2
            if grow_hi:
                upper *= 2
        parts.append((np.append(lam, (1.0, 0.0)),
                      np.append(np.full(len(lam), 1), (lo, last - hi))))
    return tuple(map(np.concatenate, zip(*parts)))


def _sector_eigenvalues(nu: float, k: float, r: np.ndarray,
                        scale: np.ndarray) -> np.ndarray:
    """Unclamped eigenvalues of the angular-momentum sector of order nu.

    The matrix is scale_i scale_j K(r_i, r_j), scale = sqrt(w r) over a
    radial rule (r, w), where K is the Christoffel-Darboux form of
    integral_0^k p J_nu(p r) J_nu(p r') dp:

        k [r J_nu+1(kr) J_nu(kr') - r' J_nu(kr) J_nu+1(kr')] / (r^2 - r'^2),

    with diagonal k^2/2 (J_nu(kr)^2 - J_nu-1(kr) J_nu+1(kr)); scale
    carries the sqrt(r r') that symmetrizes the radial measure r^(d-1) dr.
    Numerator and denominator are both antisymmetric, so the matrix is
    exactly symmetric.
    """
    kr = k * r
    j_nu, j_next = jv(nu, kr), jv(nu + 1.0, kr)
    p = r * j_next
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = k * (np.outer(p, j_nu) - np.outer(j_nu, p)) \
            / np.subtract.outer(r * r, r * r)
    np.fill_diagonal(kernel, 0.5 * k * k * (j_nu * j_nu
                                            - jv(nu - 1.0, kr) * j_next))
    return np.linalg.eigvalsh(kernel * np.outer(scale, scale))


def _radial_spectrum(k: float, radius: float, d: int, n_r: int):
    """Unclamped (values, multiplicities) of the ball of momentum radius
    k localized to a ball of the given radius in d = 2 or 3.

    Rotations split the compression into one radial operator per angular
    momentum l, of Bessel order nu = l + (d - 2)/2, each solved on the
    same n_r-node Gauss-Legendre rule on [0, radius], its values stored
    once with the sector's multiplicity (1, then 2 in d = 2; 2l + 1 in
    d = 3).  Sectors run until the first l >= k radius whose largest
    eigenvalue is below SNAP_TOL; a sector at or past
    l = kR + SECTOR_EXCESS (1 + kR)^(1/3) that has not decayed raises
    SpectralViolationError.
    """
    x, w = roots_legendre(n_r)
    r = 0.5 * radius * (x + 1.0)
    scale = np.sqrt(0.5 * radius * w * r)
    kr_max = k * radius
    l_max = kr_max + SECTOR_EXCESS * (1.0 + kr_max) ** (1.0 / 3.0)
    sectors, multiplicities = [], []
    for l in itertools.count():
        vals = _sector_eigenvalues(l + 0.5 * (d - 2), k, r, scale)
        sectors.append(vals)
        multiplicities.append(2 * l + 1 if d == 3 else min(l + 1, 2))
        if l >= kr_max and vals[-1] < SNAP_TOL:
            break
        if l >= l_max:
            raise SpectralViolationError(
                f"radial sector l={l} still has eigenvalue {vals[-1]:.3g} "
                f"over {SNAP_TOL:.1g} (kR={kr_max:.6g})")
    return np.concatenate(sectors), np.repeat(multiplicities, n_r)


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
        return _clamped(*_lattice_spectrum(op.k_fermi, op.n))
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
    return _clamped(vals, np.full(len(vals), 1))


def _clamped(vals: np.ndarray, multiplicities: np.ndarray) -> Spectrum:
    """Spectrum of raw eigenvalues with multiplicities, clamped to [0, 1].

    A violation of EPS_ABORT or more raises SpectralViolationError;
    smaller ones are clamped and counted with their multiplicities.
    """
    clamped = np.clip(vals, 0.0, 1.0)
    max_violation = float(np.max(np.abs(vals - clamped), initial=0.0))
    if max_violation >= EPS_ABORT:
        raise SpectralViolationError(
            f"eigenvalues violate [0, 1] by {max_violation:.3g} "
            f"(abort threshold {EPS_ABORT:.1g}); the discretization "
            "is under-resolved")
    clamp_count = int(np.sum(multiplicities, where=clamped != vals))
    return Spectrum(clamped, multiplicities, clamp_count, max_violation)


def renyi_entropy(spectrum: Spectrum, alpha: float, L: float | None = None,
                  mode: str = "",
                  wall_time_s: float | None = None) -> EntropyResult:
    """S_alpha = sum of the two-point entropies of all eigenvalues.

    alpha = math.inf gives the min-entropy -sum ln max(lambda, 1-lambda);
    exp(-S_inf) is then the largest Fock-space eigenvalue of the
    quasi-free reduced state, the product of max(lambda, 1-lambda).
    Values count with their multiplicities, summed in stored order so
    results are reproducible run to run.  L, mode (the route
    pipeline_spectrum took) and wall_time_s are carried into the
    result, next to the spectrum's clamp bookkeeping and interior count.
    """
    values = entropy_function(spectrum.values, alpha)
    return EntropyResult(
        alpha=alpha, S=float(spectrum.multiplicities @ values),
        n=len(spectrum), L=L, mode=mode, clamp_count=spectrum.clamp_count,
        max_violation=spectrum.max_violation, interior=spectrum.interior,
        wall_time_s=wall_time_s)


def tensor_spectrum(spec_x: Spectrum, spec_y: Spectrum) -> Spectrum:
    """Spectrum of a tensor product of two compressions.

    For box-product geometries the localized projection factorizes per
    axis, so the d-dimensional eigenvalues are exactly the pairwise
    products of the 1D ones, each occurring as often as the product of
    its factors' multiplicities.  Clamp bookkeeping carries over by sum
    (products of clamped values need no new clamping).
    """
    return Spectrum(
        np.multiply.outer(spec_x.values, spec_y.values).ravel(),
        np.multiply.outer(spec_x.multiplicities,
                          spec_y.multiplicities).ravel(),
        spec_x.clamp_count + spec_y.clamp_count,
        max(spec_x.max_violation, spec_y.max_violation),
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the geometry -> entropy pipeline.

    mode: 'auto' (the prolate route when gamma and omega are single
    intervals, the tensor route for box-product geometries, radial
    sectors for ball/ball pairs in d = 2 and 3, else the Nystrom
    matrix), 'continuum' (the Nystrom matrix for every geometry),
    'tensor_box' (prolate axes), or 'lattice'.  In lattice mode gamma
    must be a symmetric interval (-k_F, k_F) with k_F < pi and the block
    has round(L * |omega|) sites, at most lattice_budget (default
    100000; the tridiagonal route takes seconds there, and no n x n
    matrix is formed).  budget caps the Nystrom matrix size, the
    Legendre basis of a prolate interval or tensor axis, and the radial
    rule's node count n_r.  nodes_per_unit sets the Nystrom and radial
    rules; the prolate route builds no rule and only holds it to the
    Nyquist guard, which a nodes_per_unit under it fails on every
    route.  EPS_ABORT, SECTOR_EXCESS and the prolate tolerances are
    fixed.
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
    if mode not in ("auto", "continuum", "lattice", "tensor_box"):
        raise ValueError(f"unknown pipeline mode {mode!r}")
    if mode != "auto":
        return mode
    if isinstance(gamma, Box) and isinstance(omega, Box) and gamma.dim >= 2:
        return "tensor_box"
    if isinstance(gamma, Ball) and isinstance(omega, Ball) \
            and gamma.dim == omega.dim >= 2:
        return "radial"
    if gamma.dim == omega.dim == 1 and all(
            len(region.as_interval_union().intervals) == 1
            for region in (gamma, omega)):
        return "prolate"
    return "continuum"


def _prolate_route(gamma: Domain, omega: Domain, L: float,
                   config: PipelineConfig) -> Spectrum:
    """Single-interval spectrum through the prolate tridiagonals.

    Gamma's center only multiplies the kernel by a phase and omega's
    only translates the region, so both drop out: the spectrum is that
    of the sinc kernel with c = |gamma| L |omega| / 4 on [-1, 1].  The
    basis has ceil(1.5 c) + PROLATE_PAD degrees, more than
    config.budget of them raise BudgetError before any solve, and the
    spectrum has one value per degree, exact 0s and 1s outside the
    solved windows.  A nodes_per_unit is held only to the Nyquist
    guard, as no rule is built.
    """
    if config.nodes_per_unit is not None:
        _disc.check_sampling(config.nodes_per_unit, gamma.momentum_bound())
    c = gamma.volume() * L * omega.volume() / 4.0
    size = math.ceil(1.5 * c) + PROLATE_PAD
    if size > config.budget:
        raise _disc.BudgetError(
            f"prolate basis would need {size} Legendre degrees, over the "
            f"budget {config.budget}; raise the budget")
    return _clamped(*_prolate_spectrum(c, size))


def _radial_route(gamma: Ball, omega: Ball, L: float, config: PipelineConfig):
    """Ball/ball spectrum by angular-momentum sectors.

    Gamma's center only multiplies the kernel by a phase and omega's
    only translates the region, so both drop out: the spectrum is that
    of momentum radius k = gamma.radius on a centered ball of radius
    R = L * omega.radius.  The radial rule has ceil(1.5 k R) + 20 nodes,
    or ceil(nodes_per_unit * R) (at least 4, as on Nystrom ball rules)
    under the Nyquist guard for k; more than config.budget nodes raise
    BudgetError before any sector is solved.
    """
    k, R = gamma.radius, omega.scaled(L).radius
    if config.nodes_per_unit is None:
        n_r = math.ceil(1.5 * k * R) + 20
    else:
        _disc.check_sampling(config.nodes_per_unit, k)
        n_r = max(math.ceil(config.nodes_per_unit * R), 4)
    if n_r > config.budget:
        raise _disc.BudgetError(
            f"radial rule would need n_r={n_r} nodes, over the budget "
            f"{config.budget}; raise the budget or lower nodes_per_unit")
    return _clamped(*_radial_spectrum(k, R, gamma.dim, n_r))


def pipeline_spectrum(gamma: Domain, omega: Domain, L: float,
                      config: PipelineConfig = PipelineConfig()
                      ) -> tuple[Spectrum, float, str]:
    """Clamped spectrum of the gamma Fermi projection localized to L * omega.

    Returns (spectrum, realized L, mode), mode being the route taken:
    'lattice', 'prolate', 'tensor_box', 'radial' or 'continuum'.  On
    the prolate and tensor_box routes the spectrum counts one eigenvalue
    per Legendre degree of each axis basis, as the lattice route counts
    one per site, but stores each axis's exact 0s and 1s once.  The
    realized L differs from the requested one only in lattice mode,
    where the block has an integer number of sites.  Every Renyi order
    at this L is renyi_entropy of the one spectrum.
    """
    mode = _resolve_mode(config.mode, gamma, omega)
    if mode == "lattice":
        k_fermi, sites = _lattice_parameters(gamma, omega, L)
        if sites > config.lattice_budget:
            raise _disc.BudgetError(
                f"lattice block n={sites} over budget {config.lattice_budget}")
        spectrum = eigenvalues(_disc.lattice_correlation(k_fermi, sites))
        # Report the realized dilation (integer site count over |omega|)
        # so downstream fits see the block size actually diagonalized.
        return spectrum, sites / omega.volume(), mode
    if mode == "tensor_box":
        if not (isinstance(gamma, Box) and isinstance(omega, Box)):
            raise GeometryError("tensor_box mode needs box momentum and "
                                "spatial regions")
        if gamma.dim != omega.dim:
            raise GeometryError("tensor_box mode needs matching dimensions")
        axis_spectra = [_prolate_route(g_axis, o_axis, L, config)
                        for g_axis, o_axis in zip(gamma.axis_intervals(),
                                                  omega.axis_intervals())]
        spectrum = functools.reduce(tensor_spectrum, axis_spectra)
    elif mode == "radial":
        spectrum = _radial_route(gamma, omega, L, config)
    elif mode == "prolate":
        spectrum = _prolate_route(gamma, omega, L, config)
    else:
        spectrum = eigenvalues(_disc.nystrom(
            gamma, omega, L, nodes_per_unit=config.nodes_per_unit,
            budget=config.budget))
    return spectrum, float(L), mode


def entropy_pipeline(gamma: Domain, omega: Domain, L: float, alpha: float,
                     config: PipelineConfig = PipelineConfig()) -> EntropyResult:
    """S_alpha of the gamma ground state reduced to the region L * omega.

    pipeline_spectrum followed by renyi_entropy at one order; the result
    names the route taken and carries the spectrum's clamp bookkeeping
    and interior count.  For several orders at one L, call
    pipeline_spectrum once and renyi_entropy per order (as sweep does)
    instead of repeating the eigensolve.
    """
    spectrum, realized_L, mode = pipeline_spectrum(gamma, omega, L, config)
    return renyi_entropy(spectrum, alpha, realized_L, mode)
