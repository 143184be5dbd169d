"""Spectra, clamping policy, entropies, and the pipeline routes."""

import math

import numpy as np
import pytest

from fermient.discretize import BudgetError, lattice_correlation, nystrom
from fermient.geometry import Box, GeometryError, interval
from fermient.spectra import (
    EPS_ABORT,
    EPS_WARN,
    PipelineConfig,
    SpectralViolationError,
    Spectrum,
    eigenvalues,
    entropy_pipeline,
    pipeline_spectrum,
    renyi_entropy,
    tensor_spectrum,
    trace_power_diagnostic,
)

GAMMA = interval(-1.0, 1.0)
OMEGA = interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# eigenvalues()
# ---------------------------------------------------------------------------

def test_eigenvalues_accepts_bare_arrays():
    spectrum = eigenvalues(np.diag([0.25, 0.75]))
    np.testing.assert_allclose(spectrum.eigenvalues, [0.25, 0.75])
    assert spectrum.clamp_count == 0
    assert not spectrum.warn


def test_eigenvalues_sorted_ascending():
    spectrum = eigenvalues(np.diag([0.9, 0.1, 0.5]))
    np.testing.assert_allclose(spectrum.eigenvalues, [0.1, 0.5, 0.9])


def test_eigenvalues_clamps_roundoff_violations():
    spectrum = eigenvalues(np.diag([-1e-9, 0.5, 1.0 + 2e-9]))
    np.testing.assert_allclose(spectrum.eigenvalues, [0.0, 0.5, 1.0])
    assert spectrum.clamp_count == 2
    assert spectrum.max_violation == pytest.approx(2e-9)
    assert not spectrum.warn          # below the 1e-7 warning threshold


def test_eigenvalues_warn_flag():
    spectrum = eigenvalues(np.diag([0.5, 1.0 + 1e-6]))
    assert spectrum.warn
    assert spectrum.max_violation == pytest.approx(1e-6)


def test_eigenvalues_aborts_on_gross_violation():
    with pytest.raises(SpectralViolationError):
        eigenvalues(np.diag([0.5, 1.01]))
    assert EPS_WARN < EPS_ABORT


def test_eigenvalues_rejects_non_hermitian():
    matrix = np.array([[0.5, 0.1], [0.3, 0.5]])
    with pytest.raises(SpectralViolationError):
        eigenvalues(matrix)


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))


def test_spectrum_complement():
    spectrum = Spectrum(np.array([0.1, 0.4, 0.9]), 0, 0.0)
    np.testing.assert_allclose(spectrum.complement().eigenvalues,
                               [0.1, 0.6, 0.9])
    assert len(spectrum) == 3


# ---------------------------------------------------------------------------
# renyi_entropy()
# ---------------------------------------------------------------------------

def test_renyi_entropy_hand_values():
    half = Spectrum(np.array([0.5]), 0, 0.0)
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert renyi_entropy(half, alpha).S == pytest.approx(math.log(2.0))
    quarter = Spectrum(np.array([0.25]), 0, 0.0)
    assert renyi_entropy(quarter, 2.0).S == pytest.approx(-math.log(0.625))
    assert renyi_entropy(quarter, math.inf).S == pytest.approx(-math.log(0.75))


def test_renyi_entropy_projector_is_zero():
    projector = Spectrum(np.array([0.0, 0.0, 1.0, 1.0]), 0, 0.0)
    for alpha in (0.5, 1.0, 3.0, math.inf):
        assert renyi_entropy(projector, alpha).S == 0.0


def test_renyi_entropy_metadata():
    spectrum = Spectrum(np.array([0.5, 0.5]), 1, 3e-9)
    result = renyi_entropy(spectrum, 1.0)
    assert result.n == 2
    assert result.provenance["clamp_count"] == 1
    assert result.provenance["max_violation"] == 3e-9
    assert result.L is None


def test_entropy_decreases_with_alpha():
    spectrum = eigenvalues(lattice_correlation(math.pi / 2.0, 100))
    alphas = (0.25, 0.5, 1.0, 2.0, 4.0, math.inf)
    values = [renyi_entropy(spectrum, a).S for a in alphas]
    assert all(later <= earlier + 1e-12
               for earlier, later in zip(values, values[1:]))


def test_complement_symmetry_on_interior_spectrum():
    interior = Spectrum(
        np.sort(np.random.default_rng(1).uniform(0.05, 0.95, 100)), 0, 0.0)
    for alpha in (0.25, 0.5, 1.0, 2.0, math.inf):
        direct = renyi_entropy(interior, alpha).S
        flipped = renyi_entropy(interior.complement(), alpha).S
        assert direct == pytest.approx(flipped, abs=1e-11)


# ---------------------------------------------------------------------------
# Tensor spectra and the trace-power diagnostic
# ---------------------------------------------------------------------------

def test_tensor_spectrum_is_outer_product():
    a = Spectrum(np.array([0.2, 0.8]), 1, 1e-9, warn=False)
    b = Spectrum(np.array([0.5, 1.0, 0.1]), 2, 3e-8, warn=True)
    product = tensor_spectrum(a, b)
    expected = np.sort(np.outer([0.2, 0.8], [0.5, 1.0, 0.1]).ravel())
    np.testing.assert_allclose(product.eigenvalues, expected)
    assert product.clamp_count == 3
    assert product.max_violation == 3e-8
    assert product.warn


def test_trace_power_diagnostic():
    spectrum = Spectrum(np.array([0.5, 0.5]), 0, 0.0)
    assert trace_power_diagnostic(spectrum, 1.0) == pytest.approx(0.5)
    assert trace_power_diagnostic(spectrum, 0.5) == pytest.approx(1.0)
    projector = Spectrum(np.array([0.0, 1.0]), 0, 0.0)
    assert trace_power_diagnostic(projector, 0.5) == 0.0
    # Accepts matrices directly.
    assert trace_power_diagnostic(np.diag([0.5, 0.5]), 1.0) \
        == pytest.approx(0.5)
    with pytest.raises(ValueError):
        trace_power_diagnostic(spectrum, 0.0)
    with pytest.raises(ValueError):
        trace_power_diagnostic(spectrum, 1.5)


# ---------------------------------------------------------------------------
# entropy_pipeline routes
# ---------------------------------------------------------------------------

def test_pipeline_continuum():
    result = entropy_pipeline(GAMMA, OMEGA, 10.0, 1.0)
    assert result.L == 10.0
    assert result.alpha == 1.0
    assert result.S > 0.5
    assert result.provenance["mode"] == "continuum"


def test_pipeline_lattice_realized_dilation():
    gamma = interval(-math.pi / 2.0, math.pi / 2.0)
    config = PipelineConfig(mode="lattice")
    result = entropy_pipeline(gamma, OMEGA, 100.4, 1.0, config)
    # 100.4 sites round to 100; the realized dilation is recorded as L.
    assert result.L == 100.0
    assert result.n == 100
    assert result.provenance["requested_L"] == 100.4
    assert result.provenance["mode"] == "lattice"
    assert result.provenance["k_fermi"] == pytest.approx(math.pi / 2.0)


def test_pipeline_spectrum_serves_every_order():
    gamma = interval(-math.pi / 2.0, math.pi / 2.0)
    config = PipelineConfig(mode="lattice")
    spectrum, L, provenance = pipeline_spectrum(gamma, OMEGA, 100.4, config)
    assert (L, len(spectrum), provenance["mode"]) == (100.0, 100, "lattice")
    for alpha in (0.5, 1.0, math.inf):
        result = renyi_entropy(spectrum, alpha, L, provenance)
        assert result == entropy_pipeline(gamma, OMEGA, 100.4, alpha, config)
    # The shared provenance is copied, never extended in place.
    assert "clamp_count" not in provenance


def test_pipeline_lattice_requires_symmetric_interval():
    config = PipelineConfig(mode="lattice")
    with pytest.raises(GeometryError):
        entropy_pipeline(interval(0.0, 1.0), OMEGA, 50.0, 1.0, config)
    with pytest.raises(GeometryError):
        entropy_pipeline(interval(-4.0, 4.0), OMEGA, 50.0, 1.0, config)


def test_pipeline_lattice_budget():
    gamma = interval(-math.pi / 2.0, math.pi / 2.0)
    config = PipelineConfig(mode="lattice", lattice_budget=100)
    with pytest.raises(BudgetError):
        entropy_pipeline(gamma, OMEGA, 500.0, 1.0, config)


def test_pipeline_tensor_matches_direct_2d():
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    direct = entropy_pipeline(gamma, omega, 2.0, 1.0,
                              PipelineConfig(mode="continuum"))
    tensor = entropy_pipeline(gamma, omega, 2.0, 1.0,
                              PipelineConfig(mode="tensor_box"))
    # Same per-axis rules, so the agreement is structural, not asymptotic.
    assert tensor.S == pytest.approx(direct.S, abs=1e-10)
    assert tensor.provenance["mode"] == "tensor_box"
    assert tensor.n == direct.n
    assert int(np.prod(tensor.provenance["axis_ns"])) == direct.n


def test_pipeline_auto_routing():
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    auto = entropy_pipeline(gamma, omega, 2.0, 1.0)
    assert auto.provenance["mode"] == "tensor_box"
    auto_1d = entropy_pipeline(GAMMA, OMEGA, 2.0, 1.0)
    assert auto_1d.provenance["mode"] == "continuum"


def test_pipeline_tensor_requires_boxes():
    config = PipelineConfig(mode="tensor_box")
    with pytest.raises(GeometryError):
        entropy_pipeline(GAMMA, OMEGA, 2.0, 1.0, config)


def test_pipeline_unknown_mode():
    with pytest.raises(ValueError):
        entropy_pipeline(GAMMA, OMEGA, 2.0, 1.0, PipelineConfig(mode="exact"))


def test_pipeline_entropy_stable_under_refinement():
    # +50% node density moves the entropy by far less than the fit
    # tolerances; this is the resolution self-consistency check.
    base = entropy_pipeline(GAMMA, OMEGA, 50.0, 1.0)
    fine = entropy_pipeline(GAMMA, OMEGA, 50.0, 1.0,
                            PipelineConfig(nodes_per_unit=3.0))
    assert abs(fine.S - base.S) < 1e-4


def test_pipeline_alpha_consistency_with_direct_sum():
    op = nystrom(GAMMA, OMEGA, L=10.0)
    spectrum = eigenvalues(op)
    direct = renyi_entropy(spectrum, 2.0).S
    piped = entropy_pipeline(GAMMA, OMEGA, 10.0, 2.0).S
    assert piped == pytest.approx(direct, rel=1e-12)
