"""Quadrature discretization and lattice matrices."""

import math
import re

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fermient.discretize import (
    DEFAULT_CONTINUUM_BUDGET,
    BudgetError,
    DiscretizationError,
    check_budget,
    lattice_correlation,
    nystrom,
)
from fermient import discretize
from fermient.geometry import (
    Ball,
    Box,
    ConvexPolygon,
    GeometryError,
    IntervalUnion,
    LatticeSea,
    interval,
)
from fermient.spectra import eigenvalues, pipeline_spectrum

GAMMA = interval(-1.0, 1.0)
OMEGA = interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# Node rules
# ---------------------------------------------------------------------------

def _axes_rule(region, nodes_per_unit):
    """nystrom's Gauss-panel rule on an interval union or a box, with
    panels at most one unit long."""
    axes = region.axis_intervals() if isinstance(region, Box) else [region]
    return discretize._rule_axes([discretize._panels(axis, nodes_per_unit,
                                                     1.0) for axis in axes])


def test_weights_sum_to_region_size():
    for region, size in (
        (OMEGA, 1.0),
        (IntervalUnion(((0.0, 1.0), (2.0, 2.5))), 1.5),
        (Box(((0.0, 1.0), (0.0, 2.0))), 2.0),
    ):
        nodes, weights = _axes_rule(region.scaled(3.0), 4.0)
        assert weights.sum() == pytest.approx(size * 3.0 ** region.dim,
                                              rel=1e-12)
        assert np.all(weights > 0)
        assert len(nodes) == len(weights)
    for ball in (Ball((0.0, 0.0), 3.0), Ball((1.0, -1.0, 0.5), 3.0)):
        nodes, weights = discretize._rule_ball(ball, 12, 76)
        assert weights.sum() == pytest.approx(ball.volume(), rel=1e-12)
        assert np.all(weights > 0)
        assert len(nodes) == len(weights)


def test_nodes_lie_inside_the_dilated_region():
    nodes, _ = _axes_rule(IntervalUnion(((0.0, 1.0), (2.0, 2.5))).scaled(2.0),
                          3.0)
    inside = ((nodes >= 0.0) & (nodes <= 2.0)) \
        | ((nodes >= 4.0) & (nodes <= 5.0))
    assert np.all(inside)

    for ball in (Ball((0.0, 0.0), 2.0), Ball((1.0, -1.0, 0.5), 2.0)):
        nodes, _ = discretize._rule_ball(ball, 6, 38)
        assert np.all(np.linalg.norm(nodes - ball.center, axis=1)
                      <= 2.0 + 1e-12)


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
        expected = gamma.volume() / (2 * math.pi) ** gamma.dim \
            * omega.volume() * L ** gamma.dim
        assert np.trace(op.matrix).real == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("gamma, omega, dtype", [
    (Ball((0.0, 0.0), 1.0), Box(((0.0, 1.0),) * 2), np.float64),
    (Ball((0.3, -0.2), 1.0), Box(((0.0, 1.0),) * 2), np.complex128),
    (IntervalUnion(((-0.7, 1.3), (2.0, 2.5))),
     IntervalUnion(((0.0, 1.0), (2.0, 3.0))), np.complex128),
], ids=["disk-square", "offcentre-disk-square", "interval-unions"])
def test_assembly_is_exactly_hermitian(gamma, omega, dtype):
    # q_j - q_k is exactly -(q_k - q_j) and K(-u) is exactly conj(K(u)),
    # so the assembled matrix needs no symmetrization.
    op = nystrom(gamma, omega, L=6.0)
    assert op.matrix.dtype == dtype
    assert np.array_equal(op.matrix, op.matrix.conj().T)


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
    assert direct.matrix.shape == reduced.matrix.shape
    np.testing.assert_allclose(direct.matrix, reduced.matrix, atol=1e-13)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

def test_budget_guard():
    with pytest.raises(BudgetError):
        nystrom(GAMMA, OMEGA, L=100.0, nodes_per_unit=100.0, budget=500)
    # BudgetError is a DiscretizationError, so one except clause covers both.
    assert issubclass(BudgetError, DiscretizationError)


def test_check_budget_refuses_only_past_the_budget():
    check_budget(500.0, 500, "nodes")
    for size, shown in ((501.0, "501"), (2.54648e8, "2.54648e+08"),
                        (math.inf, "inf"), (math.nan, "nan")):
        with pytest.raises(BudgetError, match=re.escape(
                f"would need {shown} nodes, over the budget 500")):
            check_budget(size, 500, "nodes")


def _forbid_node_rules(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a node rule was built")

    monkeypatch.setattr(discretize, "_gauss_panels", forbidden)
    monkeypatch.setattr(np, "meshgrid", forbidden)


@pytest.mark.parametrize("gamma, omega, L", [
    (GAMMA, IntervalUnion(((0.0, 1.0), (2.0, 2.5))), 7.0),
    (Box(((-1.0, 1.0),) * 2), Box(((0.0, 1.0), (0.0, 2.0))), 3.0),
    (Box(((-1.0, 1.0),) * 3), Box(((0.0, 1.0),) * 3), 1.5),
    (Ball((0.0, 0.0), 1.0), Ball((0.3, 0.0), 1.0), 3.0),
    (Ball((0.0, 0.0, 0.0), 1.0), Ball((0.0, 0.0, 0.0), 1.0), 1.5),
], ids=["interval-union", "square", "cube", "disk", "ball3"])
def test_nystrom_budget_counts_the_rule_before_building_it(
        monkeypatch, gamma, omega, L):
    # The count the gate sees is the node count of the rule: a budget of
    # exactly n builds it, and n - 1 refuses before any node exists.
    n = len(nystrom(gamma, omega, L).matrix)
    assert len(nystrom(gamma, omega, L, budget=n).matrix) == n
    _forbid_node_rules(monkeypatch)
    with pytest.raises(BudgetError, match=re.escape(
            f"would need {n} Nystrom nodes, over the budget {n - 1}")):
        nystrom(gamma, omega, L, budget=n - 1)


@pytest.mark.parametrize("gamma, omega, L", [
    # Panels and points per panel both overflow on one interval.
    (interval(-1e10, 1e10), OMEGA, 1e300),
    # About 1e200 nodes per axis: finite per axis, inf as a product.
    (Box(((-1.0, 1.0),) * 2), Box(((0.0, 1.0),) * 2), 5e199),
    (Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 1.0), 1e300),
], ids=["interval", "square", "disk"])
def test_nystrom_overflowing_count_fails_the_budget(monkeypatch, gamma, omega,
                                                    L):
    _forbid_node_rules(monkeypatch)
    with pytest.raises(BudgetError, match="would need inf Nystrom nodes"):
        nystrom(gamma, omega, L)


def test_nystrom_refuses_lattice_momenta_before_any_rule(monkeypatch):
    _forbid_node_rules(monkeypatch)
    with pytest.raises(GeometryError, match="LatticeSea"):
        nystrom(LatticeSea(((-1.0, 1.0),)), OMEGA, 10.0)


def test_nyquist_guard_rejects_undersampled_rule():
    wide = interval(-20.0, 20.0)
    with pytest.raises(DiscretizationError):
        nystrom(wide, OMEGA, L=5.0, nodes_per_unit=2.0)


@pytest.mark.parametrize("nodes_per_unit",
                         [math.nan, -1.0, 0.0, math.inf, -math.inf])
@pytest.mark.parametrize("gamma, omega, L", [
    (GAMMA, OMEGA, 10.0),
    (Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 1.0), 3.0),
], ids=["interval", "disk"])
def test_nystrom_refuses_a_density_not_finite_and_positive(
        monkeypatch, gamma, omega, L, nodes_per_unit):
    # Unchecked, NaN and negative densities fall to the rule's floor (an
    # 8 x 8 matrix for the interval, 32 x 32 for the disk), 0 divides by
    # zero and inf reaches the budget gate.
    _forbid_node_rules(monkeypatch)
    with pytest.raises(DiscretizationError,
                       match="nodes_per_unit must be finite and > 0") as info:
        nystrom(gamma, omega, L, nodes_per_unit=nodes_per_unit)
    assert not isinstance(info.value, BudgetError)


def test_invalid_inputs():
    with pytest.raises(DiscretizationError):
        nystrom(GAMMA, OMEGA, L=0.0)
    with pytest.raises(GeometryError):
        nystrom(GAMMA, Box(((0.0, 1.0),) * 2))
    triangle = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(DiscretizationError):
        nystrom(Box(((-1.0, 1.0),) * 2), triangle)
    # The pipeline sends polygon pairs to nystrom, which refuses them:
    # a polygon has no Fermi kernel, and no node rule yet.
    with pytest.raises(GeometryError):
        pipeline_spectrum(triangle, Box(((0.0, 1.0),) * 2), 4.0)
    with pytest.raises(DiscretizationError, match="no node rule"):
        pipeline_spectrum(Box(((-1.0, 1.0),) * 2), triangle, 4.0)


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
    np.testing.assert_array_equal(matrix, toeplitz(matrix[:, 0]))
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

