"""Entropy functions, the coefficient functional, and the dilogarithm."""

import math

import numpy as np
import pytest
from scipy.special import expit, spence

from fermient import functionals
from fermient.discretize import DiscretizationError
from fermient.functionals import (
    MIN_ENTROPY_LOG_PREFACTOR,
    dilog,
    entropy_function,
    entropy_log_coefficient,
    entropy_log_coefficient_dilog,
    log_coefficient_functional,
    predicted_log_prefactor,
)

ALPHAS = (0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 10.0, math.inf)


# ---------------------------------------------------------------------------
# Entropy functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ALPHAS)
def test_entropy_function_symmetry_and_range(alpha):
    t = np.linspace(0.0, 1.0, 501)
    values = entropy_function(t, alpha)
    np.testing.assert_allclose(values, entropy_function(1.0 - t, alpha),
                               atol=1e-14)
    assert np.all(values >= 0.0)
    assert np.all(values <= math.log(2.0) + 1e-15)
    # The maximum sits at t = 1/2 and equals ln 2 for every order.
    assert entropy_function(0.5, alpha) == pytest.approx(math.log(2.0))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_entropy_function_vanishes_at_endpoints(alpha):
    assert entropy_function(0.0, alpha) == 0.0
    assert entropy_function(1.0, alpha) == 0.0


def test_entropy_function_outside_unit_interval_is_zero():
    values = entropy_function(np.array([-0.5, -1e-13, 1.0 + 1e-13, 2.0]), 2.0)
    np.testing.assert_array_equal(values, 0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, math.inf])
def test_entropy_function_keeps_nan(alpha):
    # Clipping leaves NaN as it is: a NaN value is not read as 0.
    assert math.isnan(entropy_function(math.nan, alpha))
    values = entropy_function(np.array([0.25, math.nan, 2.0]), alpha)
    assert np.isnan(values).tolist() == [False, True, False]
    assert values[2] == 0.0


def test_entropy_function_known_values():
    # alpha = 2: h(t) = -ln(t^2 + (1-t)^2)
    assert entropy_function(0.25, 2.0) == pytest.approx(-math.log(0.625))
    # alpha = 1: binary Shannon entropy
    t = 0.3
    shannon = -t * math.log(t) - (1 - t) * math.log(1 - t)
    assert entropy_function(t, 1.0) == pytest.approx(shannon)
    # alpha = inf: min-entropy of the pair
    assert entropy_function(0.3, math.inf) == pytest.approx(-math.log(0.7))


def test_entropy_function_alpha_one_is_the_limit():
    t = np.linspace(0.01, 0.99, 99)
    near = entropy_function(t, 1.0 + 1e-7)
    np.testing.assert_allclose(near, entropy_function(t, 1.0), atol=1e-6)
    huge = entropy_function(t, 1e6)
    np.testing.assert_allclose(huge, entropy_function(t, math.inf), atol=1e-4)


def test_entropy_function_scalar_and_shape():
    assert isinstance(entropy_function(0.5, 2.0), float)
    out = entropy_function(np.zeros((3, 4)), 2.0)
    assert out.shape == (3, 4)


def test_entropy_function_rejects_bad_order():
    with pytest.raises(ValueError):
        entropy_function(0.5, 0.0)
    with pytest.raises(ValueError):
        entropy_function(0.5, -2.0)


def test_entropy_function_precision_near_endpoints():
    # For alpha > 1 the value near t = 1 is dominated by the complement
    # channel ((1-t)^alpha term); the stable form must not lose it.
    t = 1.0 - 1e-12
    expected = (1e-12) ** 2  # leading term of -ln(t^2 + (1-t)^2) / 1
    assert entropy_function(t, 2.0) == pytest.approx(2e-12, rel=1e-3)
    assert entropy_function(1e-12, 2.0) == pytest.approx(2e-12, rel=1e-3)
    del expected


# ---------------------------------------------------------------------------
# The coefficient functional on generic integrands
# ---------------------------------------------------------------------------

def test_functional_linear_function_is_zero():
    result = log_coefficient_functional(lambda t: t)
    assert abs(result.value) < 1e-14


def test_functional_parabola():
    # f = t(1-t): f(1) = 0 and the weight cancels exactly, so
    # I(f) = (1/4pi^2) * integral_0^1 dt = 1/(4 pi^2).
    result = log_coefficient_functional(lambda t: t * (1.0 - t))
    assert result.value == pytest.approx(1.0 / (4 * math.pi ** 2), abs=1e-13)


def test_functional_square():
    # f = t^2: (t^2 - t)/(t(1-t)) = -1, so I(f) = -1/(4 pi^2).
    result = log_coefficient_functional(lambda t: t ** 2)
    assert result.value == pytest.approx(-1.0 / (4 * math.pi ** 2), abs=1e-13)
    assert result.evaluations > 0


def test_functional_reports_nonconvergence(monkeypatch):
    # A rule that has not met TOL raises: no unconverged value is returned.
    monkeypatch.setattr(functionals, "TOL", 1e-30)
    monkeypatch.setattr(functionals, "MAX_LEVELS", 3)
    with pytest.raises(DiscretizationError, match="did not converge"):
        log_coefficient_functional(lambda t: t * (1.0 - t))


@pytest.mark.parametrize("alpha, evaluations", [
    (0.25, 514), (1.0, 514), (2.0, 258), (math.inf, 258),
])
def test_nested_trapezoid_equals_final_step_sum(alpha, evaluations):
    # Each halving evaluates only the new midpoints, so the count is the
    # final v grid's node count (two evaluations per node, one for each
    # half of the u-line), and the running sum is that grid's trapezoid
    # sum in v.  h_alpha is its own reflection and h_alpha(1) = 0, so
    # both halves of node v contribute 2 h_alpha(expit(-2|u|)) du/dv,
    # with |u| = exp((pi/2) sinh v).
    result = entropy_log_coefficient(alpha)
    assert result.evaluations == evaluations
    half_width = functionals.HALF_WIDTH
    nodes = evaluations // 2
    step = 2.0 * half_width / (nodes - 1)
    v = -half_width + step * np.arange(nodes)
    u = np.exp(0.5 * math.pi * np.sinh(v))
    weight = 0.5 * math.pi * np.cosh(v) * u
    scratch = step * float(np.sum(weight * 4.0 * entropy_function(
        expit(-2.0 * u), alpha))) / (4.0 * math.pi ** 2)
    assert abs(result.value - scratch) < 1e-15


@pytest.mark.parametrize("alpha", ALPHAS)
def test_entropy_log_coefficient_closed_form(alpha):
    # The min-entropy's kink at t = 1/2 sits at an end of the split
    # double-exponential rule, so alpha = inf converges like the rest.
    target = predicted_log_prefactor(alpha)
    result = entropy_log_coefficient(alpha)
    assert abs(result.value - target) < 1e-13
    assert result.evaluations <= 1000


def test_functional_tent():
    # f = min(t, 1-t): f(1) = 0 and f(t)/(t(1-t)) = 1/(1-t) on [0, 1/2]
    # and 1/t on [1/2, 1], so I(f) = 2 ln 2 / (4 pi^2) = ln 2 / (2 pi^2).
    result = log_coefficient_functional(lambda t: np.minimum(t, 1.0 - t))
    assert abs(result.value - math.log(2.0) / (2.0 * math.pi ** 2)) < 1e-15


def test_predicted_log_prefactor():
    assert predicted_log_prefactor(1.0) == pytest.approx(1.0 / 12.0)
    assert predicted_log_prefactor(math.inf) == MIN_ENTROPY_LOG_PREFACTOR
    assert MIN_ENTROPY_LOG_PREFACTOR == 1.0 / 24.0
    values = [predicted_log_prefactor(a) for a in (0.25, 0.5, 1.0, 2.0, 10.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        predicted_log_prefactor(0.0)


# ---------------------------------------------------------------------------
# Dilogarithm
# ---------------------------------------------------------------------------

def test_dilog_special_values():
    assert dilog(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
    assert dilog(-1.0) == pytest.approx(-math.pi ** 2 / 12.0, rel=1e-15)
    assert dilog(0.5) == pytest.approx(
        math.pi ** 2 / 12.0 - 0.5 * math.log(2.0) ** 2, rel=1e-15)
    assert dilog(0.0) == 0.0


def test_dilog_against_scipy_spence():
    # scipy's spence(z) is Li2(1 - z), so Li2(x) = spence(1 - x).
    for x in np.concatenate([np.linspace(-50.0, 1.0, 307),
                             [-1e8, -1e4, 0.499, 0.501, 0.999999]]):
        expected = float(spence(1.0 - x))
        assert dilog(float(x)) == pytest.approx(expected, rel=1e-13,
                                                abs=1e-14), x


def test_dilog_rejects_arguments_past_one():
    with pytest.raises(ValueError):
        dilog(1.0 + 1e-9)


def test_dilog_one_minus_matches_spence_everywhere():
    # Li2(1 - y) is spence(y).  1.0 - y rounds to exactly -(y - 1.0),
    # so large y loses nothing by forming 1 - y first.
    for y in (0.0, 0.3, 1.0, 2.0, 2.5, 10.0, 1e4, 1e8, 1e12):
        assert dilog(1.0 - y) == pytest.approx(float(spence(y)),
                                               rel=1e-13, abs=1e-13), y
    with pytest.raises(ValueError):
        dilog(1.0 - (-0.1))


def test_dilog_limit_constant():
    # Li2(1 - y) + ln(y)^2 / 2 -> -pi^2/6, deviation ~ (1 + ln y)/y.
    target = -math.pi ** 2 / 6.0

    dev_12 = dilog(1.0 - 1e12) + 0.5 * math.log(1e12) ** 2 - target
    assert abs(dev_12) < 3e-11

    # At y = 1e6 the true deviation is ~1.48e-5; assert both that the
    # limit holds at that scale and that the deviation is genuinely
    # there (so the check cannot be satisfied by a hard-coded constant).
    dev_6 = dilog(1.0 - 1e6) + 0.5 * math.log(1e6) ** 2 - target
    assert abs(dev_6) < 2e-5
    assert abs(dev_6) > 5e-6


# ---------------------------------------------------------------------------
# Closed-form route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ALPHAS)
def test_dilog_route_matches_closed_form(alpha):
    target = predicted_log_prefactor(alpha)
    assert abs(entropy_log_coefficient_dilog(alpha) - target) < 1e-11


def test_dilog_route_special_cases():
    assert entropy_log_coefficient_dilog(1.0) == 1.0 / 12.0
    assert entropy_log_coefficient_dilog(math.inf) == 1.0 / 24.0
    with pytest.raises(ValueError):
        entropy_log_coefficient_dilog(-1.0)


def test_two_routes_agree_without_the_closed_form():
    # Quadrature and dilogarithm never reference each other; their
    # agreement is a genuine cross-check, not a shared formula.
    for alpha in (0.3, 0.8, 3.0, 7.0):
        quadrature = entropy_log_coefficient(alpha).value
        closed = entropy_log_coefficient_dilog(alpha)
        assert quadrature == pytest.approx(closed, abs=2e-11)
