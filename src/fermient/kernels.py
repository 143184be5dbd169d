"""Closed-form position-space kernels of Fermi projections.

For a bounded momentum region gamma, the spectral projection onto
momenta in gamma acts by convolution with

    K(u) = (2*pi)^(-d) * integral_gamma exp(i p . u) dp,   u = q - q',

and every catalog shape but ConvexPolygon admits a closed form: sinc
combinations for interval unions, per-axis products for boxes, and
Bessel or elementary radial forms for balls in d = 2 and 3.  Kernels
are Hermitian for any gamma (K(-u) = conj(K(u))) and real exactly when
gamma = -gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Ball, Box, Domain, GeometryError, IntervalUnion, TWO_PI

__all__ = ["FermiKernel"]

# Below this |p_F * r| the Bessel/elementary radial forms switch to
# Taylor branches: the d=3 numerator sin(x) - x*cos(x) loses ~x^{-2}
# relative digits to cancellation, and both forms divide by powers of r.
_SMALL_ARGUMENT = 0.25


def _interval_union_kernel(intervals, u):
    """Kernel of a union of momentum intervals at displacements u.

    Each interval [a, b] contributes (e^{ibu} - e^{iau}) / (2*pi*i*u),
    evaluated in the equivalent singularity-free form

        (len / 2*pi) * sinc(len * u / 2*pi) * e^{i * mid * u},

    np.sinc being sin(pi x)/(pi x) with the u = 0 limit built in.
    """
    out = np.zeros(np.shape(u), dtype=complex)
    for a, b in intervals:
        length = b - a
        mid = 0.5 * (a + b)
        out += (length / TWO_PI) * np.sinc(length * u / TWO_PI) \
            * np.exp(1j * mid * u)
    return out


def _ball_radial(p_fermi, d, r):
    """Radial factor of the d = 2 or 3 ball kernel at centered
    displacement radii r."""
    shape = np.shape(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    x = p_fermi * r
    small = np.abs(x) < _SMALL_ARGUMENT
    out = np.empty_like(r)
    if d == 2:
        from scipy.special import j1

        # p_F^2 / (2*pi) * J1(x)/x, with J1(x)/x -> 1/2 as x -> 0.
        xs = x[small]
        x2 = xs * xs
        out[small] = p_fermi ** 2 / TWO_PI * (
            0.5 - x2 / 16.0 + x2 * x2 / 384.0 - x2 ** 3 / 18432.0
        )
        xl = x[~small]
        out[~small] = p_fermi ** 2 / TWO_PI * j1(xl) / xl
        return out.reshape(shape)
    # d = 3: (sin x - x cos x) / (2*pi^2 r^3); the numerator's Taylor
    # series is sum_{k>=1} (-1)^{k+1} * 2k * x^{2k+1} / (2k+1)!.
    xs = x[small]
    x2 = xs * xs
    series = (1.0 / 3.0) + x2 * (-1.0 / 30.0 + x2 * (
        1.0 / 840.0 + x2 * (-1.0 / 45360.0 + x2 / 3991680.0)))
    out[small] = p_fermi ** 3 / (2.0 * math.pi ** 2) * series
    xl = x[~small]
    rl = r[~small]
    out[~small] = (np.sin(xl) - xl * np.cos(xl)) \
        / (2.0 * math.pi ** 2 * rl ** 3)
    return out.reshape(shape)


@dataclass(frozen=True)
class FermiKernel:
    """Translation-invariant kernel of the projection onto momenta in gamma.

    Immutable and reentrant; all evaluation is vectorized over
    displacement arrays.  A ConvexPolygon momentum region raises
    GeometryError: it has no closed form; so does a LatticeSea, whose
    kernel lives on lattice sites.
    """

    gamma: Domain

    def __post_init__(self):
        g = self.gamma
        if type(g) not in (IntervalUnion, Box, Ball):
            raise GeometryError(
                f"no closed-form Fermi kernel for {type(g).__name__}")

    @property
    def dim(self) -> int:
        return self.gamma.dim

    @property
    def is_real(self) -> bool:
        return self.gamma.is_centrally_symmetric

    def displacement(self, u) -> np.ndarray:
        """Kernel values at displacements u.

        u has shape (..., d) for d >= 2 and any shape for d = 1.
        Returns a complex array of the batch shape, or a real one when
        gamma is centrally symmetric (the exact kernel is then real, so
        the roundoff-level imaginary part is dropped).
        """
        g = self.gamma
        uv = np.asarray(u, dtype=float)
        if self.dim == 1:
            vals = _interval_union_kernel(g.intervals, uv)
        elif isinstance(g, Box):
            vals = np.ones(uv.shape[:-1], dtype=complex)
            for axis, bounds in enumerate(g.bounds):
                vals = vals * _interval_union_kernel((bounds,), uv[..., axis])
        else:
            center = np.array(g.center)
            r = np.sqrt(np.sum(uv * uv, axis=-1))
            radial = _ball_radial(g.radius, g.dim, r)
            if g.is_centrally_symmetric:
                vals = radial
            else:
                vals = radial * np.exp(1j * (uv @ center))
        if self.is_real and np.iscomplexobj(vals):
            return vals.real
        return vals
