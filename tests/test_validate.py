"""The structural invariant suite should pass, and should be able to fail."""

import numpy as np

import fermient.validate as validate
from fermient import functionals
from fermient.geometry import Ball, SurfaceQuadrature
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
    # One refinement level cannot meet the halving tolerance, so every
    # quadrature reports converged = False and the check fails even
    # where its values sit close to the closed form.
    monkeypatch.setattr(functionals, "MAX_LEVELS", 1)
    passed, detail = validate.check_functional()
    assert not passed
    assert "did not converge" in detail
