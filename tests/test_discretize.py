"""Quadrature discretization and lattice matrices."""

import math

import numpy as np
import pytest

from fermient.discretize import (
    DEFAULT_CONTINUUM_BUDGET,
    BudgetError,
    DiscretizationError,
    lattice_correlation,
    nystrom,
    ring_block_correlation,
)
from fermient.geometry import (
    Ball,
    Box,
    ConvexPolygon,
    GeometryError,
    IntervalUnion,
    interval,
    mean_density,
)
from fermient.spectra import eigenvalues

GAMMA = interval(-1.0, 1.0)
OMEGA = interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# Node rules
# ---------------------------------------------------------------------------

def test_weights_sum_to_region_size():
    gamma_2d = Box(((-1.0, 1.0), (-1.0, 1.0)))
    for gamma, omega, size in (
        (GAMMA, OMEGA, 1.0),
        (GAMMA, IntervalUnion(((0.0, 1.0), (2.0, 2.5))), 1.5),
        (gamma_2d, Box(((0.0, 1.0), (0.0, 2.0))), 2.0),
        (gamma_2d, Ball((0.0, 0.0), 1.0), math.pi),
    ):
        op = nystrom(gamma, omega, L=3.0, nodes_per_unit=4.0)
        assert op.weights.sum() == pytest.approx(size * 3.0 ** omega.dim,
                                                 rel=1e-12)
        assert np.all(op.weights > 0)
        assert op.n == len(op.nodes) == len(op.weights)


def test_nodes_lie_inside_the_dilated_region():
    op = nystrom(GAMMA, IntervalUnion(((0.0, 1.0), (2.0, 2.5))), L=2.0)
    inside = ((op.nodes >= 0.0) & (op.nodes <= 2.0)) \
        | ((op.nodes >= 4.0) & (op.nodes <= 5.0))
    assert np.all(inside)

    op = nystrom(Box(((-1.0, 1.0),) * 2), Ball((0.0, 0.0), 1.0), L=2.0,
                 nodes_per_unit=3.0)
    assert np.all(np.linalg.norm(op.nodes, axis=1) <= 2.0 + 1e-12)


# ---------------------------------------------------------------------------
# Matrix structure
# ---------------------------------------------------------------------------

def test_matrix_is_hermitian_and_trace_matches_density():
    for gamma, omega in (
        (GAMMA, OMEGA),
        (interval(0.25, 1.75), OMEGA),         # shifted: complex kernel
        (Box(((-1.0, 1.0),) * 2), Box(((0.0, 1.0),) * 2)),
        (Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 1.0)),
    ):
        L = 4.0
        op = nystrom(gamma, omega, L=L, nodes_per_unit=3.0)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) <= 1e-15
        expected = mean_density(gamma) * omega.volume() * L ** gamma.dim
        assert op.trace() == pytest.approx(expected, rel=1e-12)


def test_shifted_momentum_region_gives_complex_matrix():
    op = nystrom(interval(0.25, 1.75), OMEGA, L=4.0)
    assert np.iscomplexobj(op.matrix)
    assert np.max(np.abs(op.matrix.imag)) > 1e-3
    spectrum = eigenvalues(op)
    assert np.all(spectrum.eigenvalues >= 0.0)
    assert np.all(spectrum.eigenvalues <= 1.0)


def test_dilatation_equivalence_is_exact():
    direct = nystrom(GAMMA, OMEGA, L=6.0, nodes_per_unit=5.0)
    reduced = nystrom(GAMMA.scaled(6.0), OMEGA, L=1.0, nodes_per_unit=30.0)
    assert direct.n == reduced.n
    np.testing.assert_allclose(direct.matrix, reduced.matrix, atol=1e-13)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

def test_budget_guard():
    with pytest.raises(BudgetError):
        nystrom(GAMMA, OMEGA, L=100.0, nodes_per_unit=100.0, budget=500)
    # BudgetError is a DiscretizationError, so one except clause covers both.
    assert issubclass(BudgetError, DiscretizationError)


def test_nyquist_guard_strict_and_warn():
    wide = interval(-20.0, 20.0)
    with pytest.raises(DiscretizationError):
        nystrom(wide, OMEGA, L=5.0, nodes_per_unit=2.0)


def test_invalid_inputs():
    with pytest.raises(DiscretizationError):
        nystrom(GAMMA, OMEGA, L=0.0)
    with pytest.raises(GeometryError):
        nystrom(GAMMA, Box(((0.0, 1.0),) * 2))
    triangle = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(DiscretizationError):
        nystrom(Box(((-1.0, 1.0),) * 2), triangle)


def test_default_budget_is_sane():
    assert DEFAULT_CONTINUUM_BUDGET >= 1000


# ---------------------------------------------------------------------------
# Lattice matrices
# ---------------------------------------------------------------------------

def test_lattice_correlation_structure():
    block = lattice_correlation(math.pi / 2.0, 64)
    matrix = block.matrix
    assert matrix.shape == (64, 64)
    np.testing.assert_allclose(np.diag(matrix), 0.5)
    np.testing.assert_allclose(matrix, matrix.T)
    # Toeplitz: entry depends only on j - k.
    np.testing.assert_allclose(matrix[5, 9], matrix[20, 24])
    assert matrix[3, 4] == pytest.approx(math.sin(math.pi / 2) / math.pi)
    assert np.trace(matrix) == pytest.approx(32.0)


def test_lattice_correlation_spectrum_in_unit_interval():
    spectrum = eigenvalues(lattice_correlation(1.1, 200))
    assert spectrum.eigenvalues[0] >= 0.0
    assert spectrum.eigenvalues[-1] <= 1.0


def test_lattice_correlation_guards():
    for bad_k in (0.0, math.pi, -0.3, 4.0):
        with pytest.raises(DiscretizationError):
            lattice_correlation(bad_k, 10)
    with pytest.raises(DiscretizationError):
        lattice_correlation(1.0, 0)


def test_ring_block_structure():
    matrix = ring_block_correlation(42, 11)
    assert matrix.shape == (11, 11)
    np.testing.assert_allclose(np.diag(matrix), 0.5)
    np.testing.assert_allclose(matrix, matrix.T)


def test_ring_full_block_is_a_projection():
    # Taking the whole ring as the block reduces the correlation matrix
    # to the rank-N/2 projection onto the filled momenta.
    num_sites = 42
    matrix = ring_block_correlation(num_sites, num_sites)
    vals = np.linalg.eigvalsh(matrix)
    ones = np.sum(vals > 0.5)
    assert ones == num_sites // 2
    np.testing.assert_allclose(np.sort(vals)[-ones:], 1.0, atol=1e-10)
    np.testing.assert_allclose(np.sort(vals)[:-ones], 0.0, atol=1e-10)


def test_ring_block_guards():
    with pytest.raises(DiscretizationError):
        ring_block_correlation(40, 10)      # 0 mod 4: ambiguous filling
    with pytest.raises(DiscretizationError):
        ring_block_correlation(42, 0)
    with pytest.raises(DiscretizationError):
        ring_block_correlation(42, 43)
