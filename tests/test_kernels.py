"""Closed-form projection kernels against direct Fourier quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from fermient.geometry import (
    Ball,
    Box,
    ConvexPolygon,
    GeometryError,
    IntervalUnion,
    LatticeSea,
    interval,
)
from fermient.kernels import FermiKernel


def interval_union_oracle(union, u):
    """(2 pi)^-1 integral over the union of exp(i p u), by quadrature."""
    total = 0.0 + 0.0j
    for a, b in union.intervals:
        re = quad(lambda p: math.cos(p * u), a, b, limit=200)[0]
        im = quad(lambda p: math.sin(p * u), a, b, limit=200)[0]
        total += (re + 1j * im) / (2.0 * math.pi)
    return total


# ---------------------------------------------------------------------------
# Construction and bookkeeping
# ---------------------------------------------------------------------------

def test_kernel_rejects_polygon_momentum_regions():
    polygon = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(GeometryError):
        FermiKernel(polygon)


def test_kernel_rejects_lattice_momenta():
    # Lattice momenta have a kernel on sites, not in the continuum.
    with pytest.raises(GeometryError, match="LatticeSea"):
        FermiKernel(LatticeSea(((-1.0, 1.0),)))


def test_diagonal_value_is_density():
    for gamma in (interval(-1.0, 1.0),
                  IntervalUnion(((-2.0, -0.5), (0.25, 1.5))),
                  Box(((-1.0, 1.0), (-0.5, 0.5))),
                  Ball((0.0, 0.0, 0.0), 1.3)):
        kernel = FermiKernel(gamma)
        zero = np.zeros(gamma.dim) if gamma.dim > 1 else 0.0
        assert complex(np.asarray(kernel.displacement(zero))).real \
            == pytest.approx(gamma.volume() / (2 * math.pi) ** gamma.dim)


def test_reality_tracks_central_symmetry():
    symmetric = FermiKernel(interval(-1.0, 1.0))
    assert symmetric.is_real
    values = symmetric.displacement(np.linspace(-4, 4, 17))
    assert not np.iscomplexobj(values)

    shifted = FermiKernel(interval(0.0, 2.0))
    assert not shifted.is_real
    values = shifted.displacement(np.linspace(-4, 4, 17))
    assert np.iscomplexobj(values)
    assert np.max(np.abs(values.imag)) > 0.01


def test_a_tiny_asymmetry_keeps_the_imaginary_part():
    # Mid-point 5e-11: at u = 1000 the phase is 5e-8 and the kernel's
    # imaginary part 1.3e-11, which a real kernel would drop.
    kernel = FermiKernel(interval(-1.0, 1.0 + 1e-10))
    assert not kernel.is_real
    value = complex(kernel.displacement(1000.0))
    assert value.imag == pytest.approx(value.real * math.tan(5e-8), rel=1e-6)
    box = FermiKernel(Box(((-1.0, 1.0), (-0.5, 0.5 + 1e-10))))
    assert not box.is_real
    assert np.iscomplexobj(box.displacement(np.array([[0.0, 1000.0]])))


def test_hermiticity_conjugate_symmetry():
    u = np.linspace(-5.0, 5.0, 41)
    for gamma in (interval(0.3, 1.7),
                  IntervalUnion(((-2.0, -0.5), (0.25, 1.5)))):
        kernel = FermiKernel(gamma)
        np.testing.assert_allclose(kernel.displacement(-u),
                                   np.conj(kernel.displacement(u)),
                                   atol=1e-15)


# ---------------------------------------------------------------------------
# Closed forms against quadrature of the defining integral
# ---------------------------------------------------------------------------

def test_interval_union_kernel_against_quadrature():
    union = IntervalUnion(((-2.0, -0.5), (0.25, 1.5)))
    kernel = FermiKernel(union)
    for u in (-3.7, -0.2, 0.0, 0.04, 1.0, 8.5):
        closed = complex(np.asarray(kernel.displacement(u)))
        assert closed == pytest.approx(interval_union_oracle(union, u),
                                       abs=1e-10)


def test_shifted_interval_is_phase_times_symmetric():
    k, c = 0.8, 1.7
    shifted = FermiKernel(interval(c - k, c + k))
    centered = FermiKernel(interval(-k, k))
    u = np.linspace(-6.0, 6.0, 101)
    np.testing.assert_allclose(shifted.displacement(u),
                               np.exp(1j * c * u) * centered.displacement(u),
                               atol=1e-14)


def test_box_kernel_is_per_axis_product():
    box = Box(((-1.0, 1.0), (0.0, 0.5)))
    kernel = FermiKernel(box)
    kx = FermiKernel(interval(-1.0, 1.0))
    ky = FermiKernel(interval(0.0, 0.5))
    u = np.random.default_rng(2).normal(size=(40, 2))
    product = np.asarray(kx.displacement(u[:, 0]), dtype=complex) \
        * np.asarray(ky.displacement(u[:, 1]), dtype=complex)
    np.testing.assert_allclose(kernel.displacement(u), product, atol=1e-15)


def test_disk_kernel_against_bessel_quadrature():
    # (2pi)^-2 integral over |p| <= R of e^{ip.u} reduces to the radial
    # integral (1/2pi) int_0^R p J0(p r) dp; the closed form uses J1.
    gamma = Ball((0.0, 0.0), 1.3)
    kernel = FermiKernel(gamma)
    for r in (0.05, 0.2, 1.0, 4.0, 11.0):
        u = np.array([[r * 0.6, r * 0.8]])
        closed = float(np.asarray(kernel.displacement(u))[0])
        oracle = quad(lambda p: p * j0(p * r), 0.0, gamma.radius,
                      limit=200)[0] / (2.0 * math.pi)
        assert closed == pytest.approx(oracle, abs=1e-10)


def test_ball3_kernel_against_radial_quadrature():
    gamma = Ball((0.0, 0.0, 0.0), 0.9)
    kernel = FermiKernel(gamma)
    for r in (0.01, 0.2, 0.5, 3.0):
        u = np.array([[r, 0.0, 0.0]])
        closed = float(np.asarray(kernel.displacement(u))[0])
        oracle = quad(lambda p: p * math.sin(p * r), 0.0, gamma.radius,
                      limit=200)[0] / (2.0 * math.pi ** 2 * r)
        assert closed == pytest.approx(oracle, abs=1e-10)


def test_off_center_ball_carries_plane_wave_phase():
    center = np.array([0.4, -0.2, 0.1])
    shifted = FermiKernel(Ball(tuple(center), 0.9))
    symmetric = FermiKernel(Ball((0.0, 0.0, 0.0), 0.9))
    u = np.random.default_rng(9).normal(size=(30, 3))
    expected = np.asarray(symmetric.displacement(u)) * np.exp(1j * (u @ center))
    np.testing.assert_allclose(shifted.displacement(u), expected, atol=1e-15)


def test_ball_small_argument_branches_overlap():
    # Just below the |p_F r| = 0.25 handover the kernel runs on the
    # Taylor branch; it must match the Bessel/elementary form evaluated
    # at the same point to the series truncation level.
    r = 0.2499999
    disk = FermiKernel(Ball((0.0, 0.0), 1.0))
    taylor = float(np.asarray(disk.displacement(np.array([[r, 0.0]])))[0])
    from scipy.special import j1
    direct = j1(r) / r / (2.0 * math.pi)
    assert taylor == pytest.approx(direct, rel=1e-10)

    ball = FermiKernel(Ball((0.0, 0.0, 0.0), 1.0))
    taylor = float(np.asarray(ball.displacement(np.array([[r, 0.0, 0.0]])))[0])
    direct = (math.sin(r) - r * math.cos(r)) / (2.0 * math.pi ** 2 * r ** 3)
    assert taylor == pytest.approx(direct, rel=1e-12)


def test_dataclass_is_frozen():
    kernel = FermiKernel(interval(-1.0, 1.0))
    with pytest.raises(AttributeError):
        kernel.gamma = interval(0.0, 1.0)
