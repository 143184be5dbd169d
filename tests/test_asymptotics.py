"""Sweeps, scaling fits, and theory comparison."""

import math

import numpy as np
import pytest

from fermient import spectra
from fermient.asymptotics import (
    FitError,
    SweepResult,
    compare_theory,
    fit_scaling,
    predicted_prefactor,
    sweep,
    synthetic_sweep,
    widom_prediction,
)
from fermient.geometry import Ball, Box, interval
from fermient.spectra import EntropyResult, PipelineConfig

GAMMA = interval(-1.0, 1.0)
OMEGA = interval(0.0, 1.0)
GAMMA_LATTICE = interval(-math.pi / 2.0, math.pi / 2.0)


def make_sweep(L, S, gamma=GAMMA, omega=OMEGA, alpha=1.0, d=None):
    results = tuple(EntropyResult(alpha=alpha, S=float(s), n=0, L=float(l))
                    for l, s in zip(L, S))
    return SweepResult(gamma, omega, alpha, results)


# ---------------------------------------------------------------------------
# SweepResult bookkeeping
# ---------------------------------------------------------------------------

def test_sweep_result_sorts_by_L():
    result = make_sweep([30.0, 10.0, 20.0], [3.0, 1.0, 2.0])
    np.testing.assert_allclose(result.L_values, [10.0, 20.0, 30.0])
    np.testing.assert_allclose(result.S_values, [1.0, 2.0, 3.0])


def test_sweep_result_rejects_duplicate_L():
    with pytest.raises(ValueError):
        make_sweep([10.0, 10.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# fit_scaling
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_1d_law():
    L = np.geomspace(10.0, 300.0, 9)
    S = 0.37 * np.log(L) + 0.81
    fit = fit_scaling((L, S), d=1)
    assert fit.log_coefficient == pytest.approx(0.37, abs=1e-12)
    assert fit.area_coefficient == pytest.approx(0.81, abs=1e-12)
    assert fit.residual_norm < 1e-12
    assert fit.model == "S ~ a*ln(L) + b"


def test_fit_recovers_exact_2d_law():
    L = np.geomspace(10.0, 300.0, 9)
    S = 0.21 * L * np.log(L) - 0.05 * L
    fit = fit_scaling((L, S), d=2)
    assert fit.log_coefficient == pytest.approx(0.21, abs=1e-12)
    assert fit.area_coefficient == pytest.approx(-0.05, abs=1e-11)
    assert fit.stderr_log < 1e-12
    assert fit.condition_number > 1.0


def test_fit_noise_within_stderr():
    rng = np.random.default_rng(17)
    L = np.geomspace(10.0, 300.0, 40)
    S = 0.37 * np.log(L) + 0.81 + rng.normal(scale=1e-3, size=len(L))
    fit = fit_scaling((L, S), d=1)
    assert abs(fit.log_coefficient - 0.37) < 4.0 * fit.stderr_log
    assert fit.stderr_log > 0


def test_fit_window_restricts_points():
    L = np.arange(1.0, 11.0)
    S = 2.0 * np.log(L) + 1.0
    fit = fit_scaling((L, S), d=1, window=(3.0, 8.0))
    assert fit.npoints == 6
    assert fit.window == (3.0, 8.0)
    with pytest.raises(FitError):
        fit_scaling((L, S), d=1, window=(3.0, 5.0))   # only 3 points left


def test_fit_needs_dimension_for_bare_arrays():
    with pytest.raises(FitError):
        fit_scaling((np.arange(1.0, 9.0), np.arange(8.0)))


def test_fit_takes_dimension_from_sweep():
    omega = Ball((0.0, 0.0), 1.0)
    gamma = Ball((0.0, 0.0), 1.0)
    L = np.geomspace(5.0, 50.0, 8)
    S = 0.5 * L * np.log(L) + 0.1 * L
    result = make_sweep(L, S, gamma=gamma, omega=omega)
    fit = fit_scaling(result)
    assert fit.d == 2
    assert fit.log_coefficient == pytest.approx(0.5, abs=1e-12)


def test_fit_rejects_degenerate_grid():
    # All L equal: ln(L) and 1 are exactly collinear, rank 1.
    L = np.full(6, 10.0)
    S = np.ones(6)
    with pytest.raises(FitError):
        fit_scaling((L, S), d=1)


# ---------------------------------------------------------------------------
# sweep()
# ---------------------------------------------------------------------------

def test_sweep_collects_all_points():
    config = PipelineConfig(mode="lattice")
    result = sweep(GAMMA_LATTICE, OMEGA, 1.0, [20, 40, 80], config)
    assert len(result.results) == 3
    np.testing.assert_allclose(result.L_values, [20.0, 40.0, 80.0])
    assert all(r.wall_time_s > 0 for r in result.results)
    assert {r.mode for r in result.results} == {"lattice"}
    assert all(r.S > 0 for r in result.results)


def test_sweep_parallel_equals_serial():
    config = PipelineConfig(mode="lattice")
    grid = [20, 30, 40, 60]
    serial = sweep(GAMMA_LATTICE, OMEGA, 2.0, grid, config, jobs=1)
    parallel = sweep(GAMMA_LATTICE, OMEGA, 2.0, grid, config, jobs=3)
    np.testing.assert_array_equal(serial.S_values, parallel.S_values)
    np.testing.assert_array_equal(serial.L_values, parallel.L_values)


def test_sweep_orders_share_one_spectrum_per_L(monkeypatch):
    calls = []
    original = spectra.eigenvalues

    def counting(op, *args, **kwargs):
        calls.append(op)
        return original(op, *args, **kwargs)

    monkeypatch.setattr(spectra, "eigenvalues", counting)
    config = PipelineConfig(mode="lattice")
    grid = [20, 30, 40]
    orders = (0.5, 1.0, math.inf)
    by_order = sweep(GAMMA_LATTICE, OMEGA, orders, grid, config)
    assert len(calls) == len(grid)
    assert list(by_order) == list(orders)
    for alpha in orders:
        single = sweep(GAMMA_LATTICE, OMEGA, alpha, grid, config)
        assert by_order[alpha].alpha == alpha
        np.testing.assert_array_equal(by_order[alpha].S_values,
                                      single.S_values)


def test_sweep_orders_parallel_equals_serial():
    config = PipelineConfig(mode="lattice")
    grid = [20, 30, 40, 60]
    orders = [0.5, 1.0, 2.0]
    serial = sweep(GAMMA_LATTICE, OMEGA, orders, grid, config, jobs=1)
    parallel = sweep(GAMMA_LATTICE, OMEGA, orders, grid, config, jobs=2)
    for alpha in orders:
        for a, b in zip(serial[alpha].results, parallel[alpha].results):
            assert (a.alpha, a.L, a.n, a.S) == (b.alpha, b.L, b.n, b.S)


def test_sweep_orders_resume_only_missing_points():
    config = PipelineConfig(mode="lattice")
    sentinel = EntropyResult(alpha=1.0, S=99.0, n=40, L=40.0)
    seen = []
    by_order = sweep(GAMMA_LATTICE, OMEGA, [1.0, 2.0], [20, 40], config,
                     on_result=seen.append,
                     precomputed={1.0: {40.0: sentinel}})
    # L = 40 still lacks alpha = 2, so it is solved for that order only.
    assert sorted((r.alpha, r.L) for r in seen) == [
        (1.0, 20.0), (2.0, 20.0), (2.0, 40.0)]
    assert by_order[1.0].results[1] is sentinel


def test_sweep_on_result_callback():
    seen = []
    config = PipelineConfig(mode="lattice")
    sweep(GAMMA_LATTICE, OMEGA, 1.0, [20, 40], config,
          on_result=seen.append)
    assert sorted(r.L for r in seen) == [20.0, 40.0]


def test_sweep_precomputed_rows_are_not_recomputed():
    config = PipelineConfig(mode="lattice")
    sentinel = EntropyResult(alpha=1.0, S=99.0, n=40, L=40.0)
    result = sweep(GAMMA_LATTICE, OMEGA, 1.0, [20, 40], config,
                   precomputed={40.0: sentinel})
    by_L = {r.L: r for r in result.results}
    assert by_L[40.0].S == 99.0
    assert by_L[20.0].S != 99.0


def test_sweep_rejects_duplicate_grid():
    with pytest.raises(ValueError):
        sweep(GAMMA_LATTICE, OMEGA, 1.0, [20, 20],
              PipelineConfig(mode="lattice"))


def test_sweep_rejects_duplicate_orders():
    with pytest.raises(ValueError):
        sweep(GAMMA_LATTICE, OMEGA, [1.0, 2.0, 1.0], [20, 40],
              PipelineConfig(mode="lattice"))


def test_synthetic_sweep_recovers_theory():
    grid = np.geomspace(20.0, 200.0, 8)
    result = synthetic_sweep(GAMMA, OMEGA, 1.0, grid, area_coefficient=0.3)
    fit = fit_scaling(result)
    comparison = compare_theory(fit, GAMMA, OMEGA, 1.0)
    assert comparison["rel_dev"] < 1e-12
    assert fit.area_coefficient == pytest.approx(0.3, abs=1e-12)


def test_synthetic_sweep_noise_is_reproducible():
    grid = np.geomspace(20.0, 200.0, 8)
    a = synthetic_sweep(GAMMA, OMEGA, 1.0, grid, noise=0.01, seed=5)
    b = synthetic_sweep(GAMMA, OMEGA, 1.0, grid, noise=0.01, seed=5)
    np.testing.assert_array_equal(a.S_values, b.S_values)
    c = synthetic_sweep(GAMMA, OMEGA, 1.0, grid, noise=0.01, seed=6)
    assert np.any(a.S_values != c.S_values)


# ---------------------------------------------------------------------------
# Theory values
# ---------------------------------------------------------------------------

def test_predicted_prefactor_values():
    # Single interval pair: J = 4, so the coefficient is (1+a)/(6a).
    assert predicted_prefactor(GAMMA, OMEGA, 1.0) == pytest.approx(1.0 / 3.0)
    assert predicted_prefactor(GAMMA, OMEGA, 2.0) == pytest.approx(1.0 / 4.0)
    assert predicted_prefactor(GAMMA, OMEGA, 0.5) == pytest.approx(1.0 / 2.0)
    # Square pair: (1/12) * 8/pi.
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    assert predicted_prefactor(gamma, omega, 1.0) == pytest.approx(
        2.0 / (3.0 * math.pi))


def test_widom_prediction_for_entropy_orders():
    prediction = widom_prediction(2.0, GAMMA, OMEGA, 50.0)
    assert prediction["f_at_one"] == 0.0
    assert prediction["weyl_term"] == 0.0
    assert prediction["j_value"] == 4.0
    assert prediction["log_term"] == pytest.approx(0.25 * math.log(50.0))


def test_widom_prediction_for_generic_function():
    # f = t^2: f(1) = 1, I(f) = -1/(4 pi^2).
    prediction = widom_prediction(lambda t: t ** 2, GAMMA, OMEGA, 5.0)
    assert prediction["f_at_one"] == pytest.approx(1.0)
    assert prediction["weyl_term"] == pytest.approx(5.0 / math.pi)
    assert prediction["functional_value"] == pytest.approx(
        -1.0 / (4 * math.pi ** 2), abs=1e-12)
    assert prediction["log_term"] == pytest.approx(
        -math.log(5.0) / math.pi ** 2, rel=1e-10)


def test_compare_theory_structure():
    L = np.geomspace(10.0, 100.0, 8)
    S = (1.0 / 3.0) * np.log(L) + 0.2
    fit = fit_scaling((L, S), d=1)
    comparison = compare_theory(fit, GAMMA, OMEGA, 1.0)
    assert comparison["theory"] == pytest.approx(1.0 / 3.0)
    assert comparison["rel_dev"] < 1e-12
    assert set(comparison) == {"theory", "fitted", "rel_dev", "stderr"}
