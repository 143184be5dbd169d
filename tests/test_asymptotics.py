"""Sweeps, scaling fits, and theory comparison."""

import math

import numpy as np
import pytest

from fermient import asymptotics, spectra
from fermient.asymptotics import (
    FitError,
    SweepResult,
    compare_theory,
    fit_scaling,
    sweep,
)
from fermient.discretize import DiscretizationError
from fermient.functionals import predicted_log_prefactor
from fermient.geometry import Ball, Box, LatticeSea, interval, widom_J
from fermient.spectra import EntropyResult

GAMMA = interval(-1.0, 1.0)
OMEGA = interval(0.0, 1.0)
GAMMA_LATTICE = LatticeSea(((-math.pi / 2.0, math.pi / 2.0),))
GAMMA_2D = Box(((-1.0, 1.0), (-1.0, 1.0)))
OMEGA_2D = Box(((0.0, 1.0), (0.0, 1.0)))


def make_sweep(L, S, gamma=GAMMA, omega=OMEGA, alpha=1.0):
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
    fit = fit_scaling(make_sweep(L, S))
    assert fit.log_coefficient == pytest.approx(0.37, abs=1e-12)
    assert fit.area_coefficient == pytest.approx(0.81, abs=1e-12)
    assert fit.residual_norm < 1e-12
    assert fit.model == "S ~ a*ln(L) + b"


def test_fit_recovers_exact_2d_law():
    L = np.geomspace(10.0, 300.0, 9)
    S = 0.21 * L * np.log(L) - 0.05 * L
    fit = fit_scaling(make_sweep(L, S, gamma=GAMMA_2D, omega=OMEGA_2D))
    assert fit.model == "S ~ a*L^1*ln(L) + b*L^1"
    assert fit.log_coefficient == pytest.approx(0.21, abs=1e-12)
    assert fit.area_coefficient == pytest.approx(-0.05, abs=1e-11)
    assert fit.stderr_log < 1e-12
    assert fit.condition_number > 1.0


def test_fit_noise_within_stderr():
    rng = np.random.default_rng(17)
    L = np.geomspace(10.0, 300.0, 40)
    S = 0.37 * np.log(L) + 0.81 + rng.normal(scale=1e-3, size=len(L))
    fit = fit_scaling(make_sweep(L, S))
    assert abs(fit.log_coefficient - 0.37) < 4.0 * fit.stderr_log
    assert fit.stderr_log > 0


def test_fit_window_spans_the_sweep():
    # A fit over part of a grid is a sweep over that part.
    L = np.arange(3.0, 9.0)
    S = 2.0 * np.log(L) + 1.0
    fit = fit_scaling(make_sweep(L, S))
    assert fit.npoints == 6
    assert fit.window == (3.0, 8.0)
    with pytest.raises(FitError):
        fit_scaling(make_sweep(L[:3], S[:3]))


def test_fit_1d_design_is_ln_L_and_one():
    # L^0 is exactly 1, so in d = 1 the general columns are {ln L, 1}.
    L = np.geomspace(10.0, 300.0, 9)
    S = 0.37 * np.log(L) + 0.81 + 1e-3 * np.sin(L)
    fit = fit_scaling(make_sweep(L, S))
    X = np.column_stack([np.log(L), np.ones_like(L)])
    coef = np.linalg.lstsq(X, S, rcond=None)[0]
    assert (fit.log_coefficient, fit.area_coefficient) == tuple(coef)
    assert fit.condition_number == np.linalg.cond(X)


def test_fit_takes_dimension_from_sweep():
    omega = Ball((0.0, 0.0), 1.0)
    gamma = Ball((0.0, 0.0), 1.0)
    L = np.geomspace(5.0, 50.0, 8)
    S = 0.5 * L * np.log(L) + 0.1 * L
    result = make_sweep(L, S, gamma=gamma, omega=omega)
    fit = fit_scaling(result)
    assert fit.model == "S ~ a*L^1*ln(L) + b*L^1"
    assert fit.log_coefficient == pytest.approx(0.5, abs=1e-12)


def test_fit_rejects_degenerate_grid():
    # L one ulp apart: ln(L) and 1 are collinear to roundoff, rank 1.
    L = 10.0 + np.spacing(10.0) * np.arange(6)
    S = np.ones(6)
    with pytest.raises(FitError):
        fit_scaling(make_sweep(L, S))


# ---------------------------------------------------------------------------
# sweep()
# ---------------------------------------------------------------------------

def test_sweep_collects_all_points():
    result = sweep(GAMMA_LATTICE, OMEGA, [1.0], [20, 40, 80])[1.0]
    assert len(result.results) == 3
    np.testing.assert_allclose(result.L_values, [20.0, 40.0, 80.0])
    assert all(r.wall_time_s > 0 for r in result.results)
    assert {r.mode for r in result.results} == {"lattice"}
    assert all(r.S > 0 for r in result.results)


def test_sweep_orders_share_one_spectrum_per_L(monkeypatch):
    calls = []
    original = spectra._lattice_spectrum

    def counting(k_fermi, n):
        calls.append(n)
        return original(k_fermi, n)

    monkeypatch.setattr(spectra, "_lattice_spectrum", counting)
    grid = [20, 30, 40]
    orders = (0.5, 1.0, math.inf)
    by_order = sweep(GAMMA_LATTICE, OMEGA, orders, grid)
    assert len(calls) == len(grid)
    assert list(by_order) == list(orders)
    for alpha in orders:
        single = sweep(GAMMA_LATTICE, OMEGA, [alpha], grid)[alpha]
        assert by_order[alpha].alpha == alpha
        np.testing.assert_array_equal(by_order[alpha].S_values,
                                      single.S_values)


def test_sweep_runs_largest_L_first(monkeypatch):
    # Every route's size grows with L, so an L past the budget fails
    # before any smaller L is solved.
    started = []
    original = asymptotics.pipeline_spectrum

    def recording(gamma, omega, L, budget):
        started.append(L)
        return original(gamma, omega, L, budget)

    monkeypatch.setattr(asymptotics, "pipeline_spectrum", recording)
    seen = []
    sweep(GAMMA_LATTICE, OMEGA, [1.0], [40, 20, 80, 30],
          on_result=seen.append)
    assert started == [80.0, 40.0, 30.0, 20.0]
    assert [r.L for r in seen] == started


def test_sweep_stops_at_the_first_error(monkeypatch):
    # The L values run serially, largest first, so a failure at a middle
    # L leaves every smaller L unstarted and reports only the larger.
    failing = 50.0
    spectrum, _, mode = asymptotics.pipeline_spectrum(GAMMA_LATTICE, OMEGA,
                                                      10.0)
    started = []

    def solving(gamma, omega, L, budget):
        started.append(L)
        if L == failing:
            raise DiscretizationError("injected")
        return spectrum, L, mode

    monkeypatch.setattr(asymptotics, "pipeline_spectrum", solving)
    seen = []
    with pytest.raises(DiscretizationError, match="injected"):
        sweep(GAMMA_LATTICE, OMEGA, [1.0, 2.0], [20, 80, 30, 50, 90, 40],
              on_result=seen.append)
    assert started == [90.0, 80.0, 50.0]
    assert [(r.L, r.alpha) for r in seen] == [
        (90.0, 1.0), (90.0, 2.0), (80.0, 1.0), (80.0, 2.0)]


def test_lattice_sweep_refuses_L_values_sharing_a_block(monkeypatch):
    # 100.2 and 100.4 both round to a 100-site block, which would be
    # solved twice: refused before any block is solved.
    def forbidden(*args):
        raise AssertionError("a lattice block was solved")

    monkeypatch.setattr(spectra, "_lattice_spectrum", forbidden)
    with pytest.raises(ValueError, match="round to one lattice block"):
        sweep(LatticeSea(((-1.0, 1.0),)), OMEGA, [1.0], [100.2, 100.4, 300])


def test_sweep_orders_resume_only_missing_points():
    sentinel = EntropyResult(alpha=1.0, S=99.0, n=40, L=40.0)
    seen = []
    by_order = sweep(GAMMA_LATTICE, OMEGA, [1.0, 2.0], [20, 40],
                     on_result=seen.append,
                     precomputed={1.0: {40.0: sentinel}})
    # L = 40 still lacks alpha = 2, so it is solved for that order only.
    assert sorted((r.alpha, r.L) for r in seen) == [
        (1.0, 20.0), (2.0, 20.0), (2.0, 40.0)]
    assert by_order[1.0].results[1] is sentinel


def test_sweep_on_result_callback():
    seen = []
    sweep(GAMMA_LATTICE, OMEGA, [1.0], [20, 40], on_result=seen.append)
    assert sorted(r.L for r in seen) == [20.0, 40.0]


def test_sweep_precomputed_rows_are_not_recomputed():
    sentinel = EntropyResult(alpha=1.0, S=99.0, n=40, L=40.0)
    result = sweep(GAMMA_LATTICE, OMEGA, [1.0], [20, 40],
                   precomputed={1.0: {40.0: sentinel}})[1.0]
    by_L = {r.L: r for r in result.results}
    assert by_L[40.0].S == 99.0
    assert by_L[20.0].S != 99.0


def test_sweep_rejects_duplicate_grid():
    with pytest.raises(ValueError):
        sweep(GAMMA_LATTICE, OMEGA, [1.0], [20, 20])


def test_sweep_rejects_duplicate_orders():
    with pytest.raises(ValueError):
        sweep(GAMMA_LATTICE, OMEGA, [1.0, 2.0, 1.0], [20, 40])


def test_synthetic_sweep_recovers_theory():
    # S generated from the predicted law: the fit must return it.
    L = np.geomspace(20.0, 200.0, 8)
    theory = predicted_log_prefactor(1.0) * 4.0
    fit = fit_scaling(make_sweep(L, theory * np.log(L) + 0.3))
    comparison = compare_theory(fit, 4.0, 1.0)
    assert comparison["rel_dev"] < 1e-12
    assert fit.area_coefficient == pytest.approx(0.3, abs=1e-12)


# ---------------------------------------------------------------------------
# Theory values
# ---------------------------------------------------------------------------

def test_predicted_prefactor_values():
    # compare_theory's theory is (1+a)/(24a) * J, in that order.
    fit = fit_scaling(make_sweep(np.geomspace(10.0, 100.0, 8),
                                 np.linspace(1.0, 2.0, 8)))

    def theory(J, alpha):
        value = compare_theory(fit, J, alpha)["theory"]
        assert value == predicted_log_prefactor(alpha) * J
        return value

    # Single interval pair: J = 4, so the coefficient is (1+a)/(6a).
    J = widom_J(GAMMA, OMEGA).value
    assert theory(J, 1.0) == pytest.approx(1.0 / 3.0)
    assert theory(J, 2.0) == pytest.approx(1.0 / 4.0)
    assert theory(J, 0.5) == pytest.approx(1.0 / 2.0)
    # Square pair: (1/12) * 8/pi.
    J = widom_J(GAMMA_2D, OMEGA_2D).value
    assert theory(J, 1.0) == pytest.approx(2.0 / (3.0 * math.pi))
    with pytest.raises(FitError):
        compare_theory(fit, 0.0, 1.0)


def test_compare_theory_structure():
    L = np.geomspace(10.0, 100.0, 8)
    S = (1.0 / 3.0) * np.log(L) + 0.2
    fit = fit_scaling(make_sweep(L, S))
    comparison = compare_theory(fit, 4.0, 1.0)
    assert comparison["theory"] == pytest.approx(1.0 / 3.0)
    assert comparison["rel_dev"] < 1e-12
    assert set(comparison) == {"theory", "rel_dev"}
