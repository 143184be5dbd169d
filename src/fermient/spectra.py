"""Spectra of localized Fermi projections and the entropies they carry.

A localized Fermi projection has spectrum in [0, 1]; each eigenvalue is
the occupation of one reduced-state mode, and the order-alpha Renyi
entropy of the reduced state is the plain spectral sum

    S_alpha = sum_i h_alpha(lambda_i).

Discretized matrices are only approximately contractions, so
eigenvalues poke slightly outside [0, 1]; _clamped clamps them with
bookkeeping (how many, and the worst violation) and a hard failure
past 1e-3 or on NaN or inf (a broken discretization, not roundoff).
A Spectrum stores values with multiplicities: the exact routes below
keep their exact 0s and 1s, which add nothing to any entropy, as one
entry each.

The lattice route never diagonalizes a block densely.  The discrete sine
kernel commutes with Slepian's tridiagonal matrix (Slepian 1978, Bell
Syst. Tech. J. 57:1371; Eisler & Peschel 2013, J. Stat. Mech. P04028),
whose eigenvectors are those of the kernel in the same ascending
order.  Only the window of eigenvectors around the Fermi level, where
lambda is neither 0 nor 1 to machine precision, is computed, on the
even and odd blocks into which the reflection j -> n-1-j splits the
tridiagonal, each solving its half of the window; the eigenvalues
there are Rayleigh quotients of the half-length block vectors, taken
with an FFT Toeplitz-plus-Hankel product, and every eigenvalue outside
the window is exactly 0 or 1.
That costs O(n * window) instead of O(n^3) and carries no eigensolver
noise floor into the small-alpha entropies.  eigenvalues() is the dense
solve of any matrix; eigenvalues(discretize.lattice_correlation(k_F, n))
is the oracle the tridiagonal route is tested against.

A single momentum interval localized to a single spatial interval is the
sinc kernel on [-1, 1] with c = |gamma| L |omega| / 4, up to a phase and
a translation.  It commutes with the prolate differential operator
(Slepian & Pollak 1961, Bell Syst. Tech. J. 40:43), two tridiagonals in
the Legendre basis, and is solved like the lattice, by the same window
loop (_window): a window of eigenvectors around 2c / pi, each eigenvalue
from a ratio of Legendre coefficients (Osipov, Rokhlin & Xiao 2013,
Prolate Spheroidal Wave Functions of Order Zero) or, near 1, from its
out-of-band energy, and exact 0s and 1s outside the window.  The
out-of-band energy is a Bessel series over the K = min(size, ceil(c +
11 c^(1/3)) + 10) degrees that the near-1 eigenvectors reach: a Gauss
rule on [1, T], T = (K + 30) / c, then the tail past T, whose
oscillatory part is taken to second order in 1 / (cT).  One 48-node
Gauss-Legendre rule per solve serves both, on equal panels of [1, T]
and once in s = T / t for the tail.  Its Hankel part is kept as real
and imaginary tables, so it runs on real BLAS products only.  One loop
builds every table: below degree K, Miller's backward recurrence for
j_k on the panels and the forward recurrence for j_k and y_k on the
tail step together, one row of a single table per step (Miller's steps
above K run on the panels alone), and row i ends up holding j_i on the
panels and j_(i-2) and y_(i-2) on the tail.  A near-1 vector with more
weight past K than its 1 - lambda allows raises SpectralViolationError.

pipeline_spectrum is the chain geometry -> matrix -> spectrum, on the
route the types of the two regions alone pick: a LatticeSea momentum
region takes the lattice route above (default budget 100000 sites),
every continuum pair one of the routes below (default budget 6000 in the
route's own unit).  A box pair's compression separates per axis, so its
eigenvalues are products of the axes' prolate eigenvalues and no
d-dimensional matrix is needed; a single-interval pair is the one-axis
case of that route.  An axis spectrum depends only on its c, so axes
with the same c (every axis of a square or cube pair) share one solve
within the call; nothing is cached across calls.  A ball/ball pair in
d = 2 or 3 commutes with rotations, so its compression splits into one
radial operator per angular momentum (Slepian 1964, Bell Syst. Tech. J.
43:3009): each sector is a small Gauss-Legendre matrix of a Bessel
Christoffel-Darboux kernel, solved densely and counted with its
multiplicity, and no n x n Nystrom matrix is formed; consecutive sectors
share two of the three Bessel orders each reads.  Every other continuum
geometry (interval unions and mixed ball/box pairs) takes the Nystrom
matrix, whose dense solve eigenvalues(discretize.nystrom(...)) is the
oracle for both reduced routes.  Every order is a sum over that one
spectrum, so a caller diagonalizes once per L and calls renyi_entropy
per order.  An EntropyResult holds the order, the entropy, the
spectrum's size, clamp bookkeeping and interior count, the realized L
and the route taken; its fields are the columns of an output row.

Each route imports the scipy functions it calls (eigh_tridiagonal, jv,
roots_legendre) inside the function that calls them, so importing this
module, and the jcoeff and functional commands that solve no spectrum,
load no scipy module.  The lattice route's products run on numpy.fft,
so that route loads scipy.linalg alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import discretize as _disc
from .functionals import entropy_function
from .geometry import (Ball, Box, Domain, GeometryError, LatticeSea,
                       _check_same_dim)

__all__ = [
    "SpectralViolationError",
    "Spectrum",
    "EntropyResult",
    "eigenvalues",
    "renyi_entropy",
    "tensor_spectrum",
    "pipeline_spectrum",
]

EPS_ABORT = 1e-3

# SNAP_TOL: a window edge with min(lambda, 1 - lambda) below it ends
# that side of the window (_window).  A lattice eigenpair residual
# |C v - lambda v| above RESIDUAL_TOL is a failed solve.
# Spectrum.interior counts eigenvalues with min(lambda, 1 - lambda)
# above INTERIOR_TOL.
SNAP_TOL = 1e-15
RESIDUAL_TOL = 1e-10
INTERIOR_TOL = 1e-12

# Prolate route: the Legendre basis holds ceil(1.5 c) + PROLATE_PAD
# degrees; an eigenvector carrying an interior eigenvalue whose last two
# coefficients exceed TAIL_TOL in magnitude has not converged in it.
# Near 1, an eigenvalue whose quotient leaves 1 - lambda under
# OUT_OF_BAND_TOL takes 1 - lambda from its out-of-band energy, whose
# Bessel tables hold the degrees below min(size, ceil(c + REACH_EXCESS
# c^(1/3)) + 10); a vector whose coefficients past them have a norm over
# REACH_TOL sqrt(1 - lambda) reaches too far for them (_out_of_band).
PROLATE_PAD = 40
TAIL_TOL = 1e-13
OUT_OF_BAND_TOL = 1e-10
REACH_EXCESS = 11.0
REACH_TOL = 1e-6

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

    values[i], finite and in [0, 1], occurs multiplicities[i] times;
    clamp_count says how many eigenvalues were moved, max_violation how
    far the worst one sat outside before _clamped clamped it.
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


def _fast_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target: scipy.fft.next_fast_len(target,
    real=True), the lengths pocketfft transforms fastest."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-target // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def _half_apply(column: np.ndarray, rows: np.ndarray,
                signs: np.ndarray) -> np.ndarray:
    """Half of C v, for each row u the half of an even or odd v.

    C is the n x n symmetric Toeplitz matrix of column.  Each row u, of
    length M = ceil(n/2), stands for v = [u; sign Ju] / sqrt(2), J the
    reversal and sign that row's entry of signs; for odd n the centre
    entry of v is u[-1] itself (0 for an odd v), so |v| = |u|.  C
    commutes with J, so C v is even or odd with v, and its half, scaled
    as u is, is the image S (T + sign H) S u, with T[i, l] =
    column[|i - l|], H[i, l] = column[n - 1 - i - l], and S the identity
    but for 1/sqrt(2) at the centre of odd n.  So u . image = v^T C v,
    and |image - q u| = |C v - q v|.

    T and H share one circulant length, size >= 2M - 1, about n, half
    that of C's own circulant.  H u = H' Ju with H' the Toeplitz matrix
    H'[i, l] = column[n - M + l - i], and Ju, padded to size, transforms
    to conj(U) times exp(-2 pi i k (M - 1) / size).  Its argument is
    reduced mod size in integers first: unreduced, it grows to about
    M / 2 turns, and its rounding put errors of 1.5e-15 rms on the
    quotients below 1e-6 (n <= 431), 35 times the product's own.  So
    each row takes one rfft and one irfft, of U T^ + sign conj(U) H'^.
    Each row is transformed on its own, so the product does not depend
    on how rows are grouped; they go in chunks of about 2**15 entries,
    which keeps a chunk's transforms in cache.
    """
    n, half = len(column), rows.shape[1]
    size = _fast_len(2 * half - 1)
    offset = np.arange(1 - half, half)
    toeplitz, hankel = np.zeros(size), np.zeros(size)
    toeplitz[offset % size] = column[np.abs(offset)]
    hankel[offset % size] = column[n - half - offset]
    turn = np.arange(size // 2 + 1) * (half - 1) % size
    symbols = (np.fft.rfft(toeplitz),
               np.fft.rfft(hankel) * np.exp(-2j * math.pi / size * turn))
    scale = np.ones(half)
    scale[-1] = math.sqrt(0.5) if n % 2 else 1.0
    out = np.empty_like(rows)
    chunk = max(1, 2 ** 15 // size)
    for start in range(0, len(rows), chunk):
        block = np.fft.rfft(rows[start:start + chunk] * scale, size)
        block = block * symbols[0] + signs[start:start + chunk, None] \
            * block.conj() * symbols[1]
        out[start:start + chunk] = np.fft.irfft(block, size)[:, :half] \
            * scale
    return out


def _window(solve, center: int, width: int, last: int, outside):
    """Unclamped (values, multiplicities) of a spectrum on indices 0..last
    solved in a window lo..hi: its values, then outside[0] lo times and
    outside[1] last - hi times.

    solve(lo, hi) returns (lambda, 1 - lambda) on lo..hi, each without
    cancellation.  The window starts at center +- width, clipped to
    [0, last]; each unclipped side whose edge min(lambda, 1 - lambda) is
    not below SNAP_TOL doubles its width, and the window is solved again.
    """
    lower = upper = width
    while True:
        lo, hi = max(center - lower, 0), min(center + upper, last)
        lam, gap = solve(lo, hi)
        edges = np.minimum(lam, gap)[[0, -1]]
        grow_lo = lo > 0 and edges[0] >= SNAP_TOL
        grow_hi = hi < last and edges[1] >= SNAP_TOL
        if not (grow_lo or grow_hi):
            return (np.append(lam, outside),
                    np.append(np.full(len(lam), 1), (lo, last - hi)))
        lower *= 2 if grow_lo else 1
        upper *= 2 if grow_hi else 1


def _lattice_spectrum(k_fermi: float, n: int):
    """Unclamped (values, multiplicities) of the n-site sine kernel C.

    T, with diagonal ((n-1-2j)/2)^2 cos k_F and off-diagonal
    (j+1)(n-1-j)/2, commutes with C and orders its eigenvectors as C's
    eigenvalues ascend; the 0 -> 1 transition sits near index
    c0 = n - round(n k_F / pi), around which _window solves.

    T is centrosymmetric (unchanged by j -> n-1-j, J the reversal), so
    each eigenvector is even or odd under J, and the parities alternate
    down the index: ascending index i is even when n-1-i is.  The window
    is solved on T's two parity blocks, each for its own indices.  For
    n = 2m both blocks are T[:m, :m] with e = T[m-1, m] added to (even)
    or taken from (odd) the last diagonal entry, and a block vector u
    stands for v = [u; +-Ju] / sqrt(2).  For n = 2m + 1 the even block
    is T[:m+1, :m+1] with its last coupling times sqrt(2), u standing
    for [u[:m]; sqrt(2) u[m]; Ju[:m]] / sqrt(2), and the odd block is
    T[:m, :m], u for [u; 0; -Ju] / sqrt(2).  Each block solve is half
    the size for half the indices, and inverse iteration
    reorthogonalizes two half-width clusters instead of one.  No vector
    is lifted to length n: _half_apply takes the half of C v from u by
    a Toeplitz-plus-Hankel product at half length, and v's quotient and
    residual are u's against it, so the window holds (window x n/2)
    floats, not (window x n).

    Below c0 the eigenvalue is v^T C v.  From c0 up it is
    1 - w^T C' w with w = (-1)^j v and C' the kernel at pi - k_F, since
    1 - C = D C' D with D = diag((-1)^j): that takes 1 - lambda
    directly, below the 1e-16 rounding of lambda near 1, so the edge
    test stays clear of roundoff at any n.  w is again even or odd,
    with v's sign times (-1)^(n-1), and its half is (-1)^j u.  Both
    kernel columns come
    first, from discretize._sine_column, which refuses n < 1 with
    DiscretizationError; k_F in (0, pi) is the caller's to check.
    """
    from scipy.linalg import eigh_tridiagonal

    columns = (_disc._sine_column(k_fermi, n),
               _disc._sine_column(math.pi - k_fermi, n))
    j = np.arange(n, dtype=float)
    diagonal = ((n - 1 - 2 * j) / 2) ** 2 * math.cos(k_fermi)
    off_diagonal = (j[1:] * (n - j[1:])) / 2
    half = n // 2
    if n % 2:
        couplings = off_diagonal[:half].copy()
        couplings[-1:] *= math.sqrt(2.0)
        blocks = ((diagonal[:half + 1], couplings),
                  (diagonal[:half], off_diagonal[:max(half - 1, 0)]))
    else:
        edge = np.zeros(half)
        edge[-1] = off_diagonal[half - 1]
        blocks = ((diagonal[:half] + edge, off_diagonal[:half - 1]),
                  (diagonal[:half] - edge, off_diagonal[:half - 1]))
    c0 = n - round(n * k_fermi / math.pi)
    alternating = np.where(j[:n - half] % 2, -1.0, 1.0)

    def solve(lo, hi):
        index = np.arange(lo, hi + 1)
        rows = np.zeros((len(index), n - half))
        signs = np.empty(len(index))
        for parity, (block_diagonal, block_off_diagonal) in enumerate(blocks):
            mine = index[(n - 1 - index) % 2 == parity]
            if not len(mine):
                continue
            position = len(block_diagonal) - 1 - (n - 1 - mine) // 2
            # Inverse iteration needs each shift close only on the scale
            # of the eigenvalue gap, and every gap in a block's share of
            # the window is at least 0.2 n sin k_F (measured for n up to
            # 10^5, k_F in 0.05..3.1).  Bisecting to 1e-5 n sin k_F, at
            # most 5e-5 of a gap, is ample; the residual check guards it.
            rows[mine - lo, :len(block_diagonal)] = eigh_tridiagonal(
                block_diagonal, block_off_diagonal, select="i",
                select_range=(position[0], position[-1]),
                tol=1e-5 * n * math.sin(k_fermi))[1].T
            signs[mine - lo] = (-1.0) ** parity
        split = min(max(c0 - lo, 0), len(rows))
        rows[split:] *= alternating
        signs[split:] *= (-1.0) ** (n - 1)
        quotients, residual = [], 0.0
        for column, part, part_signs in zip(columns, np.split(rows, [split]),
                                            np.split(signs, [split])):
            images = _half_apply(column, part, part_signs)
            quotients.append(np.einsum("ij,ij->i", part, images))
            images -= quotients[-1][:, None] * part
            residual = max(residual, math.sqrt(np.max(
                np.einsum("ij,ij->i", images, images), initial=0.0)))
            del images  # the next part's images replace these
        quotients = np.concatenate(quotients)
        if not residual <= RESIDUAL_TOL:
            raise SpectralViolationError(
                f"lattice eigenpair residual {residual:.3g} over "
                f"{RESIDUAL_TOL:.1g} (n={n}, k_fermi={k_fermi})")
        return (np.concatenate([quotients[:split], 1.0 - quotients[split:]]),
                np.concatenate([1.0 - quotients[:split], quotients[split:]]))

    # Near the Fermi level lambda = 1 / (1 + exp(eps)) with eps spaced
    # about pi^2 / ln n, so min(lambda, 1 - lambda) falls below SNAP_TOL
    # about ln(1/SNAP_TOL) ln(n) / pi^2 = 3.5 ln n indices from c0.
    return _window(solve, c0, math.ceil(3.5 * math.log(n)) + 4, n - 1,
                   (0.0, 1.0))


def _bessel_tables(x: np.ndarray, z: np.ndarray, size: int):
    """(j, h_real, h_imag) for k < size, rows k: j_k(x), and j_k(z) and
    y_k(z), the real and imaginary parts of h_k(z), as views of one
    table of size + 2 rows.

    j comes from Miller's backward recurrence j_k-1 = (2k + 1) / x j_k
    - j_k+1, started far enough past max(size, x) that the start does
    not show, then normalized by j_0 or j_1, whichever is larger; (j_k,
    y_k) at z from the forward recurrence f_k+1 = (2k + 1) / z f_k -
    f_k-1, which is stable for both while k < z.  Miller's steps above
    degree size run on the x columns alone and keep only their last two
    rows; then one loop takes both recurrences' remaining size steps in
    the same four numpy calls, on the x, z and z columns side by side,
    with 2k + 1 falling by 2 a step on the x columns and rising by 2 on
    the z columns.  Step i writes row size - 1 - i from the two rows
    below it: j_size-1-i(x) and (j, y)_i+2(z).  Each entry is bit for
    bit what a loop of its own recurrence gives.  The z columns' rows
    are then reversed in place, a block at a time, so row r of the
    table holds j_r(x) and (j, y)_r-2(z), and each table is a
    positive-stride view that a matrix product reads without a copy
    (BLAS takes no negative stride).

    The prolate route calls it on its own nodes only (x = c t on [1, T],
    z = cT and c T / s, degrees below the near-1 reach), where the
    backward recurrence grows by at most 1e97 for c >= 13.1, where tables
    are first built, 1e180 at c = 0.5 and 1e35 at the default budget's
    c = 3973, inside the float range without rescaling.  Tables over
    every degree of a large basis would not be: at c = 1200 the values
    pass 1e200.  z >= cT >= size + 30, so the forward rows past size,
    which nothing reads, stay inside it too."""
    top = math.ceil(max(size, x.max()) + 20 + 4 * x.max() ** (1 / 3))
    n, m = len(x), len(z)
    table = np.empty((size + 2, n + 2 * m))
    # Miller's steps down to degree size + 1 alternate between rows size
    # and size + 1, each overwriting the older value; the parity of
    # their count sets the start, so that j_size ends in row size.
    pair = table[size:, :n]
    current, previous = pair[::-1] if (top - size) % 2 else pair
    current[:], previous[:] = 1.0, 0.0
    quotient = np.empty(n)
    for k in range(top, size, -1):
        np.divide(2 * k + 1, x, out=quotient)
        quotient *= current
        np.subtract(quotient, previous, out=previous)
        current, previous = previous, current
    # Then both recurrences step down the rows together, the forward one
    # from its degrees 0 and 1 in rows size + 1 and size.
    real, imag = table[:, n:n + m], table[:, n + m:]
    real[size + 1], imag[size + 1] = np.sin(z) / z, -np.cos(z) / z
    real[size] = real[size + 1] / z + imag[size + 1]
    imag[size] = imag[size + 1] / z - real[size + 1]
    nodes = np.concatenate([x, z, z])
    odd = np.repeat([2.0 * size + 1, 3.0], [n, 2 * m])
    step = np.repeat([-2.0, 2.0], [n, 2 * m])
    for new, current, previous in zip(table[size - 1::-1], table[size::-1],
                                      table[size + 1::-1]):
        np.divide(odd, nodes, out=new)
        new *= current
        new -= previous
        odd += step
    j = table[:size, :n]
    j0 = np.sin(x) / x
    j1 = j0 / x - np.cos(x) / x
    # Whole rows are scaled, the z columns by 1: numpy buffers an in-place
    # product three times on the strided j, once on whole rows (up to 64
    # KB each).
    table[:size] *= np.concatenate([
        np.where(np.abs(j0) >= np.abs(j1), j0 / j[0], j1 / j[1]),
        np.ones(2 * m)])
    # Rows size + 1 down to 2 hold the forward degrees 0 to size - 1;
    # swapping them with their mirror rows, 32 at a time, puts degree k
    # in row k + 2.
    hankel = table[2:, n:]
    mirror = hankel[::-1]
    for start in range(0, size // 2, 32):
        block = slice(start, min(start + 32, size // 2))
        hankel[block], mirror[block] = mirror[block].copy(), \
            hankel[block].copy()
    return j, real[2:], imag[2:]


def _out_of_band(c: float, size: int):
    """Out-of-band energy of window eigenvectors: 1 - lambda without
    cancellation.

    A unit eigenvector beta on one parity's degrees k has transform
    psi^(c t) = sum_k a_k j_k(c t), a_k = 2 sqrt(k + 1/2) (-1)^(k // 2)
    beta_k, up to a unit phase, and 1 - lambda = (c/pi) int_1^inf
    psi^(c t)^2 dt.  The sum is taken pointwise, so a tiny
    psi^ beyond the band is not the difference of two numbers near 1.
    The tables hold the degrees k < K = min(size, ceil(c + REACH_EXCESS
    c^(1/3)) + 10), which the near-1 vectors' coefficients reach: from
    c = 13.1, where the first near-1 vector appears, to the default
    budget's c = 3973, the degrees whose norm the guard below would
    refuse end 20 to 36 degrees short of K.  Gauss-Legendre covers
    [1, T], T = (K + 30) / c, past which every k < K is below c t: one
    48-node rule on P = ceil(N / 48) equal panels, N = ceil(c (T - 1)
    / 2) + 40.  psi^(c t)^2 oscillates at up to 2c in t, which a Gauss
    rule resolves only with c (T - 1) / 2 nodes and a margin over them,
    the 40 of N, so the rule never has fewer than N nodes nor panels
    of fewer than 48: against a rule of 4N nodes on [1, T], 48
    round(N / 48) nodes read 5e-3 off at c = 1000, and panels of 16, 24
    or 32 nodes up to 0.23, 1.1e-2 and 9e-4 off at c = 1000 or 3900.
    Past T, with H = sum_k a_k h_k(c t) and psi^ = Re H, the
    integrand is |H|^2 / 2, smooth and integrated in s = T / t, plus
    Re(H^2) / 2.  With H^2 = e^(2iX) G(X), X = c t, integration by parts
    gives that part's integral as Re of -H^2 / (2i) - e^(2iX) G'(X) / 4
    at X = cT, over 2c, to second order in 1 / (c T); e^(2iX) G' is
    2 H (H' - i H), and H' comes from the same Hankel column through
    h_k' = h_k-1 - (k + 1) h_k / X (h_0' = -h_1).  The a_k are real,
    so Re H and Im H are two real products with the j_k and y_k tables.
    The complex product would go to complex BLAS, which at two threads
    runs a 49 x 245 x 10 product multithreaded in 8 ms, against 0.02 ms
    for the two real ones (2-vCPU VM, c = 300).
    The degrees from K up add to psi^ a part whose out-of-band energy is
    at most their squared norm (int_R j_m j_k dx = pi delta_mk /
    (2k + 1)), so leaving them out moves sqrt(1 - lambda) by at most
    that norm.  A vector whose norm there is over REACH_TOL
    sqrt(1 - lambda), which could move 1 - lambda by over 2 REACH_TOL
    relative, raises SpectralViolationError.
    The j_k table on the panels and the (j_k, y_k) tables at cT and on
    the tail come from one loop (_bessel_tables) that steps Miller's
    recurrence down and the forward one up in the same numpy calls, one
    row of one table per step: row r ends up holding j_r on the panels
    and (j, y)_(r-2) on the tail, and the tables are views of it.  At
    c = 800 the tables take 2.4 ms, against 4.7 ms for a loop per
    recurrence (2-vCPU VM, one BLAS thread).
    Returns a function of (k, coefficient columns), k one parity's
    degrees in ascending order; its rule and tables are built on its
    first call (never at c = 0), for both parities, and each call reads
    its parity's rows as a strided view of them.
    """
    from scipy.special import roots_legendre

    reach = min(size, math.ceil(c + REACH_EXCESS * c ** (1 / 3)) + 10)

    @functools.cache
    def tables():
        T = (reach + 30) / c
        x, w = roots_legendre(48)
        panels = math.ceil((math.ceil(0.5 * c * (T - 1)) + 40) / 48)
        half = 0.5 * (T - 1) / panels
        t = (1.0 + half * (2 * np.arange(panels) + 1))[:, None] \
            + half * x
        s = 0.5 * (x + 1.0)
        j_table, h_real, h_imag = _bessel_tables(
            c * t.ravel(), c * np.concatenate([[T], T / s]), reach)
        # j_k' and y_k' at cT.
        slopes = [np.concatenate([[-part[1, 0]], part[:-1, 0]
                                  - np.arange(2, reach + 1) * part[1:, 0]
                                  / (c * T)])
                  for part in (h_real, h_imag)]
        return (np.tile(half * w, panels), j_table, 0.25 * T * w / (s * s),
                h_real, h_imag, *slopes)

    def energy(k: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        a = (2 * np.sqrt(k + 0.5) * np.where(k % 4 > 1, -1.0, 1.0))[:, None] \
            * coefficients
        w, j_table, w_outer, h_real, h_imag, slope_real, slope_imag = tables()
        # k runs over one parity's degrees, ascending, so the reached
        # ones are a prefix and their table rows a strided view.
        reached = k < reach
        rows, a = slice(int(k[0]), reach, 2), a[reached]
        inner = w @ (j_table[rows].T @ a) ** 2
        H_real, H_imag = h_real[rows].T @ a, h_imag[rows].T @ a
        # Re(H (H' - i H)) at cT, the second-order term's factor.
        second = H_real[0] * (slope_real[rows] @ a + H_imag[0]) \
            - H_imag[0] * (slope_imag[rows] @ a - H_real[0])
        outer = w_outer @ (H_real[1:] ** 2 + H_imag[1:] ** 2) \
            - H_real[0] * H_imag[0] / (2 * c) - second / (4 * c)
        gaps = c / math.pi * (inner + outer)
        dropped = np.sqrt(np.sum(coefficients[~reached] ** 2, axis=0))
        if not np.all(dropped <= REACH_TOL * np.sqrt(gaps)):
            raise SpectralViolationError(
                f"prolate eigenvector near 1 has norm {np.max(dropped):.3g} "
                f"at degrees {reach} and up, over {REACH_TOL:.1g} "
                f"sqrt(1 - lambda) (c={c:.6g})")
        return gaps

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
    Each parity has about c / pi eigenvalues near 1 (trace 2c / pi), and
    _window solves around that index.  With F the transform
    int_-1^1 exp(icxt) f(t) dt, each eigenvector psi has F psi = mu psi
    and lambda = c |mu|^2 / (2 pi), mu = sqrt(2) beta_0 / psi(0) for
    even and c sqrt(2/3) beta_1 / psi'(0) for odd psi (Osipov, Rokhlin &
    Xiao 2013).  That quotient is accurate to about c * 1e-16 near 1, so
    where it leaves 1 - lambda under OUT_OF_BAND_TOL, 1 - lambda is the
    out-of-band energy instead.  A window eigenvector of an interior
    eigenvalue whose last two coefficients exceed TAIL_TOL raises
    SpectralViolationError: the basis is too small for it.
    """
    from scipy.linalg import eigh_tridiagonal

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

        def solve(lo, hi):
            # As on the lattice, inverse iteration needs each shift close
            # only on the scale of the eigenvalue gap: every gap in a
            # parity's window is at least 1.08 c, and at least 6 below
            # c = 1 (measured for c = 0.5 up to the default budget,
            # c = 3973).  Bisecting to 1e-5 max(c, 1), at most 1e-5 of
            # a gap, is ample; the tail check and oracle tests guard it.
            _, vectors = eigh_tridiagonal(diagonal, off_diagonal, select="i",
                                          select_range=(lo, hi),
                                          tol=1e-5 * max(c, 1.0))
            lam = scale * vectors[0] ** 2 \
                / (math.pi * (at_zero @ vectors) ** 2)
            gap = 1.0 - lam
            near_one = (lam > 0.5) & (gap < OUT_OF_BAND_TOL)
            if near_one.any():
                gap[near_one] = out_of_band(k, vectors[:, near_one])
                lam[near_one] = 1.0 - gap[near_one]
            interior = np.minimum(lam, gap) > INTERIOR_TOL
            tail = np.max(np.abs(vectors[-2:, interior]), initial=0.0)
            if not tail <= TAIL_TOL:
                raise SpectralViolationError(
                    f"prolate eigenvector tail {tail:.3g} over {TAIL_TOL:.1g} "
                    f"in a basis of {size} degrees (c={c:.6g})")
            return lam, gap

        parts.append(_window(solve, round(c / math.pi - 0.5 * parity),
                             math.ceil(1.75 * math.log(c + 1.0)) + 4,
                             len(k) - 1, (1.0, 0.0)))
    return tuple(map(np.concatenate, zip(*parts)))


def _sector_eigenvalues(k: float, r: np.ndarray, bessel, denominator,
                        weights) -> np.ndarray:
    """Unclamped eigenvalues of the angular-momentum sector of order nu.

    bessel holds J_nu-1, J_nu and J_nu+1 at the nodes k r of a radial
    rule (r, w).  The matrix is weights_ij K(r_i, r_j), weights =
    scale scale^T with scale = sqrt(w r), where K is the
    Christoffel-Darboux form of integral_0^k p J_nu(p r) J_nu(p r') dp:

        k [r J_nu+1(kr) J_nu(kr') - r' J_nu(kr) J_nu+1(kr')] / (r^2 - r'^2),

    denominator holding r_i^2 - r_j^2, with diagonal k^2/2 (J_nu(kr)^2 -
    J_nu-1(kr) J_nu+1(kr)); scale carries the sqrt(r r') that
    symmetrizes the radial measure r^(d-1) dr.  Numerator and
    denominator are both antisymmetric, so the matrix is exactly
    symmetric.
    """
    j_prev, j_nu, j_next = bessel
    kernel = np.outer(r * j_next, j_nu)
    kernel = kernel - kernel.T
    kernel *= k
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel /= denominator
    np.fill_diagonal(kernel, 0.5 * k * k * (j_nu * j_nu - j_prev * j_next))
    kernel *= weights
    return np.linalg.eigvalsh(kernel)


def _radial_spectrum(k: float, radius: float, d: int, n_r: int):
    """Unclamped (values, multiplicities) of the ball of momentum radius
    k localized to a ball of the given radius in d = 2 or 3.

    Rotations split the compression into one radial operator per angular
    momentum l, of Bessel order nu = l + (d - 2)/2, each solved on the
    same n_r-node Gauss-Legendre rule on [0, radius], its values stored
    once with the sector's multiplicity (1, then 2 in d = 2; 2l + 1 in
    d = 3).  Sector l reads J_nu-1, J_nu and J_nu+1 at the nodes; the
    first two are sector l - 1's J_nu and J_nu+1, so each sector calls
    jv once (sector 0 three times), and the node weights and r_i^2 -
    r_j^2 are formed once for all sectors.  Sectors run until the first
    l >= k radius whose largest eigenvalue is below SNAP_TOL; a sector
    at or past l = kR + SECTOR_EXCESS (1 + kR)^(1/3) that has not
    decayed raises SpectralViolationError.
    """
    from scipy.special import jv, roots_legendre

    x, w = roots_legendre(n_r)
    r = 0.5 * radius * (x + 1.0)
    scale = np.sqrt(0.5 * radius * w * r)
    weights = np.outer(scale, scale)
    denominator = np.subtract.outer(r * r, r * r)
    kr = k * r
    kr_max = k * radius
    l_max = kr_max + SECTOR_EXCESS * (1.0 + kr_max) ** (1.0 / 3.0)
    nu = 0.5 * (d - 2)
    bessel = (None, jv(nu - 1.0, kr), jv(nu, kr))
    sectors, multiplicities = [], []
    for l in itertools.count():
        bessel = (*bessel[1:], jv(l + nu + 1.0, kr))
        vals = _sector_eigenvalues(k, r, bessel, denominator, weights)
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
    """Full spectrum of a matrix, by a dense solve, clamped to [0, 1].

    op is a DiscretizedOperator (a Nystrom matrix or a
    discretize.lattice_correlation block) or a bare Hermitian ndarray;
    it is solved densely (continuum sizes are budget-capped upstream, so
    O(n^3) is fine) once its Hermiticity defect is at most 1e-12; a
    larger defect, or the NaN defect of a non-finite entry, raises
    SpectralViolationError.  This is the Nystrom route and the oracle
    of the lattice, prolate and radial routes; its eigenvalues pass
    _clamped.
    """
    matrix = np.asarray(op.matrix if hasattr(op, "matrix") else op)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"expected a square matrix, got shape {matrix.shape}")
    with np.errstate(invalid="ignore"):
        defect = np.max(np.abs(matrix - matrix.conj().T), initial=0.0)
    if not defect <= 1e-12:
        raise SpectralViolationError(
            f"matrix is not finite and Hermitian (defect {defect:.3g})")
    vals = np.linalg.eigvalsh(matrix)
    return _clamped(vals, np.full(len(vals), 1))


def _clamped(vals: np.ndarray, multiplicities: np.ndarray) -> Spectrum:
    """Spectrum of raw eigenvalues with multiplicities, clamped to [0, 1].

    A NaN or inf value, or a violation that is not below EPS_ABORT,
    raises SpectralViolationError; smaller ones are clamped and counted
    with their multiplicities.
    """
    non_finite = int(np.sum(multiplicities, where=~np.isfinite(vals)))
    if non_finite:
        raise SpectralViolationError(
            f"{non_finite} of {int(np.sum(multiplicities))} eigenvalues are "
            "NaN or inf; the input or its solve is broken")
    clamped = np.clip(vals, 0.0, 1.0)
    max_violation = float(np.max(np.abs(vals - clamped), initial=0.0))
    if not max_violation < EPS_ABORT:
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
    its factors' multiplicities.  Products of clamped values need no new
    clamping; a product counts as clamped when either factor was, so
    clamp_count is N_x N_y - (N_x - c_x)(N_y - c_y) with N = len().
    """
    n_x, n_y = len(spec_x), len(spec_y)
    return Spectrum(
        np.multiply.outer(spec_x.values, spec_y.values).ravel(),
        np.multiply.outer(spec_x.multiplicities,
                          spec_y.multiplicities).ravel(),
        n_x * n_y - (n_x - spec_x.clamp_count) * (n_y - spec_y.clamp_count),
        max(spec_x.max_violation, spec_y.max_violation),
    )


def lattice_sites(L, omega: Domain):
    """round(L * |omega|), the site count of the lattice block at
    dilation L, as a float (an overflowing L stays countable); L may be
    an array.  The realized L is this count over |omega|."""
    with np.errstate(over="ignore"):
        return np.round(np.asarray(L, dtype=float) * omega.volume())


def _resolve_mode(gamma: Domain, omega: Domain) -> str:
    """The route the types of gamma and omega pick, after the check
    every route shares: gamma and omega of one dimension."""
    _check_same_dim(gamma, omega)
    if isinstance(gamma, LatticeSea):
        return "lattice"
    if isinstance(gamma, Box) and isinstance(omega, Box):
        return "tensor_box"
    if isinstance(gamma, Ball) and isinstance(omega, Ball):
        return "radial"
    if gamma.dim == 1 and len(gamma.intervals) == len(omega.intervals) == 1:
        return "prolate"
    return "continuum"


def pipeline_spectrum(gamma: Domain, omega: Domain, L: float,
                      budget: int | None = None
                      ) -> tuple[Spectrum, float, str]:
    """Clamped spectrum of the gamma Fermi projection localized to L * omega.

    Returns (spectrum, realized L, mode), mode being the route that the
    types of gamma and omega alone pick: 'lattice' (a LatticeSea gamma),
    'tensor_box' (a box pair), 'radial' (a ball pair), 'prolate' (a
    single-interval pair) or 'continuum' (any other pair).  Each route
    checks its preconditions, its float size through
    discretize.check_budget among them, before it solves anything.
    budget caps that size in the route's unit: lattice sites, Legendre
    degrees per prolate axis, radial nodes or Nystrom rows.  None is
    DEFAULT_LATTICE_BUDGET (100000) on the lattice route, which forms no
    matrix, and DEFAULT_CONTINUUM_BUDGET (6000) on the others.
    'lattice' needs gamma = (-k_F, k_F) with k_F in (0, pi) and omega
    one interval (GeometryError otherwise), and solves its block of
    round(L |omega|) sites on the commuting tridiagonal
    (_lattice_spectrum); a block of 0 sites raises DiscretizationError.
    'prolate' and 'tensor_box' are one per-axis route: a box pair gives
    its axis intervals, and a single-interval pair is its own one axis.
    Every axis passes the budget on its basis of ceil(1.5 c) +
    PROLATE_PAD Legendre degrees, then each distinct
    c = |gamma_i| L |omega_i| / 4 is solved once, and tensor_spectrum
    combines the axes (one axis is its own spectrum).  The spectrum
    counts one eigenvalue per degree of each axis basis, as the lattice
    route counts one per site, but stores each axis's exact 0s and 1s
    once.  'radial' solves on ceil(1.5 k R) + 20 nodes, and 'continuum'
    on nystrom's default rule.  The realized L differs from the
    requested one only on the lattice route, where the block has an
    integer number of sites.  Every Renyi order at this L is
    renyi_entropy of the one spectrum.
    """
    mode = _resolve_mode(gamma, omega)
    if budget is None:
        budget = (_disc.DEFAULT_LATTICE_BUDGET if mode == "lattice"
                  else _disc.DEFAULT_CONTINUUM_BUDGET)
    if mode == "lattice":
        if not (len(gamma.intervals) == 1 and gamma.is_centrally_symmetric):
            raise GeometryError(
                "lattice mode needs a symmetric momentum interval (-k_F, k_F)")
        if len(omega.intervals) != 1:
            raise GeometryError("lattice mode needs a single spatial interval")
        k_fermi = gamma.intervals[0][1]
        if not 0.0 < k_fermi < math.pi:
            raise GeometryError(
                f"lattice Fermi momentum must lie in (0, pi), got {k_fermi}")
        sites = float(lattice_sites(L, omega))
        _disc.check_budget(sites, budget, "lattice sites")
        spectrum = _clamped(*_lattice_spectrum(k_fermi, int(sites)))
        # Report the realized dilation (integer site count over |omega|)
        # so downstream fits see the block size actually diagonalized.
        return spectrum, sites / omega.volume(), mode
    if mode in ("prolate", "tensor_box"):
        # Gamma's center only multiplies an axis kernel by a phase and
        # omega's only translates the axis, so each axis is the sinc
        # kernel on [-1, 1] at its c.
        axes = (list(zip(gamma.axis_intervals(), omega.axis_intervals()))
                if mode == "tensor_box" else [(gamma, omega)])
        axis_c = [gamma_axis.volume() * L * omega_axis.volume() / 4.0
                  for gamma_axis, omega_axis in axes]
        sizes = {c: np.ceil(1.5 * c) + PROLATE_PAD for c in axis_c}
        for size in sizes.values():
            _disc.check_budget(size, budget, "Legendre degrees")
        solved = {c: _clamped(*_prolate_spectrum(c, int(size)))
                  for c, size in sizes.items()}
        spectrum = functools.reduce(tensor_spectrum,
                                    [solved[c] for c in axis_c])
    elif mode == "radial":
        # Both centers drop out as on the prolate axes: the spectrum is
        # that of momentum radius k on a centered ball of radius R.  The
        # radial rule has ceil(1.5 k R) + 20 nodes.
        k, R = gamma.radius, omega.scaled(L).radius
        n_r = np.ceil(1.5 * k * R) + 20
        _disc.check_budget(n_r, budget, "radial nodes")
        spectrum = _clamped(*_radial_spectrum(k, R, gamma.dim, int(n_r)))
    else:
        spectrum = eigenvalues(_disc.nystrom(gamma, omega, L, budget=budget))
    return spectrum, float(L), mode
