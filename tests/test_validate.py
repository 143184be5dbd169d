"""The structural invariant suite should pass, and should be able to fail."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

import fermient.validate as validate
from fermient import functionals
from fermient.discretize import DiscretizationError
from fermient.geometry import Ball, Box, IntervalUnion, SurfaceQuadrature
from fermient.kernels import FermiKernel
from fermient.validate import ALL_CHECKS, check_kernel_hermiticity, run_all


def test_all_checks_pass():
    results = run_all()
    assert [r.name for r in results] == [name for name, _ in ALL_CHECKS]
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, failed
    assert all(r.seconds >= 0.0 for r in results)


def test_hermiticity_check_catches_corruption(monkeypatch):
    displacement = FermiKernel.displacement

    def corrupted(self, u):
        # An imaginary part even in u breaks K(-u) = conj(K(u)).
        u = np.asarray(u, dtype=float)
        even = np.sum(u * u, axis=-1) if self.dim > 1 else u * u
        return displacement(self, u) + 1e-6j * even

    monkeypatch.setattr(FermiKernel, "displacement", corrupted)
    passed, detail = check_kernel_hermiticity()
    assert not passed
    assert "failed" in detail.lower()


def test_widom_cross_check_catches_a_bad_sphere_rule(monkeypatch):
    rule = Ball.surface_quadrature

    def inflated(self, resolution):
        quadrature = rule(self, resolution)
        return SurfaceQuadrature(1.001 * quadrature.weights,
                                 quadrature.normals)

    monkeypatch.setattr(Ball, "surface_quadrature", inflated)
    passed, detail = validate.check_widom_cross()
    assert not passed
    assert "square x disk" in detail


def test_run_all_captures_exceptions(monkeypatch):
    def exploding():
        raise RuntimeError("boom")

    monkeypatch.setattr(validate, "ALL_CHECKS",
                        (("exploding_check", exploding),))
    result = validate.run_all()[0]
    assert result.name == "exploding_check"
    assert not result.passed
    assert "raised RuntimeError" in result.detail
    assert "boom" in result.detail


def test_functional_check_requires_convergence(monkeypatch):
    # One refinement level cannot meet the halving tolerance, so the
    # first quadrature raises, and run_all fails the check even where
    # its values sit close to the closed form.
    monkeypatch.setattr(functionals, "MAX_LEVELS", 1)
    with pytest.raises(DiscretizationError, match="did not converge"):
        validate.check_functional()
    monkeypatch.setattr(validate, "ALL_CHECKS", tuple(
        check for check in validate.ALL_CHECKS
        if check[0] == "functional_closed_form"))
    (result,) = validate.run_all()
    assert not result.passed
    assert result.detail.startswith("raised DiscretizationError: ")
    assert "did not converge" in result.detail


def _quad_oracle(gamma, u):
    """The Fourier transform of the gamma indicator by adaptive quad."""
    if gamma.dim == 1:
        return sum(complex(quad(lambda p: math.cos(p * u), a, b, limit=200)[0],
                           quad(lambda p: math.sin(p * u), a, b, limit=200)[0])
                   for a, b in gamma.intervals) / (2.0 * math.pi)
    if isinstance(gamma, Box):
        return math.prod(_quad_oracle(IntervalUnion((bounds,)), u[axis])
                         for axis, bounds in enumerate(gamma.bounds))
    r = float(np.linalg.norm(u))
    if gamma.dim == 2:
        radial = quad(lambda p: p * j0(p * r), 0.0, gamma.radius,
                      limit=200)[0] / (2.0 * math.pi)
    else:
        radial = quad(lambda p: p * math.sin(p * r), 0.0, gamma.radius,
                      limit=200)[0] / (2.0 * math.pi ** 2 * r)
    return radial * np.exp(1j * float(np.array(gamma.center) @ u))


def _oracle_displacements():
    # The draws of check_kernel_fourier, in its order, then |u| = 10.
    rng = np.random.default_rng(11)
    shapes = validate._sample_shapes()
    for gamma in shapes:
        d = gamma.dim
        for _ in range(100 // len(shapes) + 1):
            yield gamma, (rng.normal(scale=2.0, size=d) if d > 1
                          else float(rng.normal(scale=2.0)))
    for gamma in shapes:
        d = gamma.dim
        for sign in (1.0, -1.0):
            yield gamma, (sign * 10.0 * np.ones(d) / math.sqrt(d) if d > 1
                          else sign * 10.0)


def test_kernel_oracle_matches_adaptive_quadrature():
    rule = np.polynomial.legendre.leggauss(validate._ORACLE_NODES)
    cases = list(_oracle_displacements())
    assert len(cases) == 5 * 21 + 5 * 2
    for gamma, u in cases:
        assert abs(validate._kernel_oracle(gamma, u, rule)
                   - _quad_oracle(gamma, u)) <= 1e-12, (gamma, u)


def test_fourier_check_catches_a_flipped_sine_part(monkeypatch):
    oracle = validate._kernel_oracle

    def flipped(gamma, u, rule):
        # Conjugating a 1D transform flips the sign of its sine integral.
        value = oracle(gamma, u, rule)
        return np.conj(value) if gamma.dim == 1 else value

    monkeypatch.setattr(validate, "_kernel_oracle", flipped)
    passed, detail = validate.check_kernel_fourier()
    assert not passed
    assert "deviation" in detail
