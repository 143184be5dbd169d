"""Spectra, clamping policy, entropies, and the pipeline routes."""

import math

import numpy as np
import pytest

from fermient import asymptotics, discretize, spectra
from fermient.discretize import (DEFAULT_LATTICE_BUDGET, BudgetError,
                                 LatticeCorrelation, lattice_correlation,
                                 nystrom)
from fermient.functionals import entropy_function
from fermient.geometry import (Ball, Box, GeometryError, IntervalUnion,
                               interval)
from fermient.records import entropy_row
from fermient.spectra import (
    PipelineConfig,
    SpectralViolationError,
    Spectrum,
    eigenvalues,
    entropy_pipeline,
    pipeline_spectrum,
    renyi_entropy,
    tensor_spectrum,
)

GAMMA = interval(-1.0, 1.0)
OMEGA = interval(0.0, 1.0)
DISK = Ball((0.0, 0.0), 1.0)
BALL3 = Ball((0.0, 0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# eigenvalues()
# ---------------------------------------------------------------------------

def test_eigenvalues_accepts_bare_arrays():
    spectrum = eigenvalues(np.diag([0.25, 0.75]))
    np.testing.assert_allclose(spectrum.eigenvalues, [0.25, 0.75])
    assert spectrum.clamp_count == 0


def test_eigenvalues_sorted_ascending():
    spectrum = eigenvalues(np.diag([0.9, 0.1, 0.5]))
    np.testing.assert_allclose(spectrum.eigenvalues, [0.1, 0.5, 0.9])


def test_eigenvalues_clamps_roundoff_violations():
    spectrum = eigenvalues(np.diag([-1e-9, 0.5, 1.0 + 2e-9]))
    np.testing.assert_allclose(spectrum.eigenvalues, [0.0, 0.5, 1.0])
    assert spectrum.clamp_count == 2
    assert spectrum.max_violation == pytest.approx(2e-9)


def test_eigenvalues_warn_flag():
    spectrum = eigenvalues(np.diag([0.5, 1.0 + 1e-6]))
    assert spectrum.max_violation == pytest.approx(1e-6)


def test_eigenvalues_aborts_on_gross_violation():
    with pytest.raises(SpectralViolationError):
        eigenvalues(np.diag([0.5, 1.01]))


def test_eigenvalues_rejects_non_hermitian():
    matrix = np.array([[0.5, 0.1], [0.3, 0.5]])
    with pytest.raises(SpectralViolationError):
        eigenvalues(matrix)


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))


def test_spectrum_complement():
    spectrum = Spectrum(np.array([0.1, 0.4, 0.9]), np.array([1, 2, 1]),
                        0, 0.0)
    np.testing.assert_allclose(spectrum.complement().eigenvalues,
                               [0.1, 0.6, 0.6, 0.9])
    assert len(spectrum) == 4


# ---------------------------------------------------------------------------
# eigenvalues() of a LatticeCorrelation: the commuting tridiagonal route
# ---------------------------------------------------------------------------

def _snapped(spectrum, floor):
    """Spectrum with every min(lambda, 1 - lambda) below floor at 0 or 1."""
    lam = spectrum.values
    return Spectrum(np.where(np.minimum(lam, 1.0 - lam) < floor,
                             np.round(lam), lam), spectrum.multiplicities,
                    0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 200, 2000])
@pytest.mark.parametrize("k_fermi", [0.3, 1.0, math.pi / 2.0, 2.5, 3.0])
def test_lattice_route_matches_dense_oracle(k_fermi, n):
    block = lattice_correlation(k_fermi, n)
    fast = eigenvalues(block)
    assert "matrix" not in vars(block)     # the route never forms C
    dense = eigenvalues(block.matrix)      # a bare ndarray: dense eigvalsh
    assert len(fast) == n
    assert np.max(np.abs(fast.eigenvalues - dense.eigenvalues)) <= 1e-12
    for alpha in (1.0, 2.0, math.inf):
        assert abs(renyi_entropy(fast, alpha).S
                   - renyi_entropy(dense, alpha).S) <= 1e-9
    # At alpha = 1/2 the dense oracle's own noise floor (about n
    # eigenvalues of size ~1e-16, each worth ~2e-8 nats) shows; with it
    # snapped away in both spectra the two routes agree.
    floor = n * np.finfo(float).eps
    assert abs(renyi_entropy(_snapped(fast, floor), 0.5).S
               - renyi_entropy(_snapped(dense, floor), 0.5).S) <= 1e-7


def test_lattice_route_budget_block_without_matrix(monkeypatch):
    def forbidden(self):
        raise AssertionError("the n x n lattice matrix was built")

    monkeypatch.setattr(LatticeCorrelation, "matrix", property(forbidden))
    n = 20_000
    assert n <= DEFAULT_LATTICE_BUDGET
    gamma = interval(-math.pi / 2.0, math.pi / 2.0)
    spectrum, L, mode = pipeline_spectrum(
        gamma, OMEGA, float(n), PipelineConfig(mode="lattice"))
    assert (L, len(spectrum), mode) == (n, n, "lattice")
    assert spectrum.max_violation < 1e-14
    # Jin & Korepin (2004): S_1 = ln(2 n sin k_F) / 3 + 0.4950179 at
    # large n, with corrections far below 1e-6 here.
    expected = math.log(2.0 * n) / 3.0 + 0.4950179
    assert renyi_entropy(spectrum, 1.0).S == pytest.approx(expected, abs=1e-6)
    assert 0 < spectrum.interior < 100


def test_lattice_route_window_grows_to_whole_spectrum(monkeypatch):
    # With a negative snap tolerance no window edge ever counts as 0 or
    # 1, so the window doubles until it spans every index.
    monkeypatch.setattr(spectra, "SNAP_TOL", -1.0)
    block = lattice_correlation(1.0, 200)
    np.testing.assert_allclose(eigenvalues(block).eigenvalues,
                               eigenvalues(block.matrix).eigenvalues,
                               rtol=0.0, atol=1e-12)


def test_lattice_route_residual_check(monkeypatch):
    monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SpectralViolationError, match="residual"):
        eigenvalues(lattice_correlation(1.0, 64))


# ---------------------------------------------------------------------------
# Ball/ball pairs: the radial route against the Nystrom oracle
# ---------------------------------------------------------------------------

def _assert_matches_nystrom(gamma, omega, L, tol, nodes_per_unit=None):
    radial, _, mode = pipeline_spectrum(gamma, omega, L)
    dense, _, oracle = pipeline_spectrum(
        gamma, omega, L, PipelineConfig(mode="continuum",
                                        nodes_per_unit=nodes_per_unit))
    assert (mode, oracle) == ("radial", "continuum")
    for alpha in (1.0, 2.0, math.inf):
        assert abs(renyi_entropy(radial, alpha).S
                   - renyi_entropy(dense, alpha).S) <= tol
    return radial


# At L = 3 the default Nystrom disk rule (6 radial nodes) is off the
# converged value by 1.7e-8 at alpha = inf; at 3 nodes per unit it
# agrees with the radial route to 2e-10.
@pytest.mark.parametrize("L, nodes_per_unit", [(3.0, 3.0), (4.0, None),
                                               (6.0, None)])
def test_radial_disk_matches_nystrom(L, nodes_per_unit):
    _assert_matches_nystrom(DISK, DISK, L, 1e-8, nodes_per_unit)


def test_radial_off_center_pair_matches_nystrom():
    gamma = Ball((0.3, -0.2), 1.0)
    omega = Ball((1.0, 2.0), 1.0)
    radial = _assert_matches_nystrom(gamma, omega, 4.0, 1e-8)
    # Both centers drop out of the radial route.
    centered = pipeline_spectrum(DISK, DISK, 4.0)[0]
    np.testing.assert_array_equal(radial.eigenvalues, centered.eigenvalues)


def test_radial_ball3_matches_nystrom():
    _assert_matches_nystrom(BALL3, BALL3, 1.0, 1e-6)


@pytest.mark.parametrize("ball", [DISK, BALL3], ids=["d2", "d3"])
def test_radial_row_counts_every_stored_eigenvalue(ball, monkeypatch):
    orders = []
    original = spectra._sector_eigenvalues

    def counting(nu, *args):
        orders.append(nu)
        return original(nu, *args)

    monkeypatch.setattr(spectra, "_sector_eigenvalues", counting)
    spectrum, L, mode = pipeline_spectrum(ball, ball, 2.5)
    row = entropy_row(renyi_entropy(spectrum, 1.0, L, mode))
    sectors, n_r = len(orders), math.ceil(1.5 * 2.5) + 20
    # Sectors l < sectors repeat 1, 2, 2, ... times in d = 2 and
    # 2l + 1 times in d = 3, each with n_r eigenvalues.
    multiplicity = 2 * sectors - 1 if ball.dim == 2 else sectors ** 2
    assert row["n"] == len(spectrum) == multiplicity * n_r
    assert 0 < row["interior"] < row["n"]
    assert row["mode"] == "radial"


@pytest.mark.parametrize("ball", [DISK, BALL3], ids=["d2", "d3"])
def test_radial_is_the_auto_route_for_balls(ball, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Nystrom matrix was assembled")

    monkeypatch.setattr(discretize, "nystrom", forbidden)
    result = entropy_pipeline(ball, ball, 3.0, 2.0)
    assert result.mode == "radial"
    assert result.S > 0.0
    with pytest.raises(AssertionError, match="Nystrom"):
        entropy_pipeline(ball, ball, 3.0, 2.0,
                         PipelineConfig(mode="continuum"))


# ---------------------------------------------------------------------------
# Single intervals: the prolate route against the Nystrom oracle
# ---------------------------------------------------------------------------

# At L = 2 the default Nystrom rule has 4 nodes and is off the converged
# entropy by 1e-7; at 8 nodes per unit it agrees with the prolate route
# to 3e-15.
@pytest.mark.parametrize("L, nodes_per_unit", [(2.0, 8.0), (60.0, None),
                                               (200.0, None), (600.0, None)])
def test_prolate_matches_nystrom(L, nodes_per_unit):
    prolate, _, mode = pipeline_spectrum(GAMMA, OMEGA, L)
    dense, _, oracle = pipeline_spectrum(
        GAMMA, OMEGA, L, PipelineConfig(mode="continuum",
                                        nodes_per_unit=nodes_per_unit))
    assert (mode, oracle) == ("prolate", "continuum")
    assert len(prolate) == math.ceil(1.5 * L / 2.0) + spectra.PROLATE_PAD
    for alpha in (1.0, 2.0, math.inf):
        assert abs(renyi_entropy(prolate, alpha).S
                   - renyi_entropy(dense, alpha).S) <= 1e-9


def test_prolate_centers_drop_out():
    # |gamma| L |omega| / 4 is the same for both pairs.
    shifted, _, mode = pipeline_spectrum(interval(0.3, 2.1),
                                         interval(2.0, 3.5), 40.0)
    centered = pipeline_spectrum(interval(-0.9, 0.9), interval(0.0, 1.5),
                                 40.0)[0]
    assert mode == "prolate"
    np.testing.assert_allclose(shifted.eigenvalues, centered.eigenvalues,
                               rtol=0.0, atol=1e-14)
    # The Nystrom oracle of the shifted pair has a complex kernel.
    dense = pipeline_spectrum(interval(0.3, 2.1), interval(2.0, 3.5), 40.0,
                              PipelineConfig(mode="continuum"))[0]
    for alpha in (1.0, 2.0, math.inf):
        assert abs(renyi_entropy(shifted, alpha).S
                   - renyi_entropy(dense, alpha).S) <= 1e-9


@pytest.mark.parametrize("gamma, omega", [
    (GAMMA, OMEGA), (interval(0.3, 2.1), interval(2.0, 3.5))])
@pytest.mark.parametrize("L", [0.5, 7.0, 60.0, 600.0])
def test_prolate_trace_is_weyl_term(gamma, omega, L):
    spectrum = pipeline_spectrum(gamma, omega, L)[0]
    weyl = gamma.volume() * L * omega.volume() / (2.0 * math.pi)
    assert np.sum(spectrum.eigenvalues) == pytest.approx(weyl, rel=1e-12)


def test_prolate_window_grows_to_whole_basis(monkeypatch):
    windows = []
    original = spectra.eigh_tridiagonal

    def recording(diagonal, *args, select_range, **kwargs):
        windows.append((select_range, len(diagonal)))
        return original(diagonal, *args, select_range=select_range, **kwargs)

    monkeypatch.setattr(spectra, "eigh_tridiagonal", recording)
    default = pipeline_spectrum(GAMMA, OMEGA, 200.0)[0]
    assert all(hi - lo + 1 < size for (lo, hi), size in windows)
    # With a negative snap tolerance no window edge ever counts as 0 or
    # 1, so each parity's window doubles until it spans its whole basis.
    monkeypatch.setattr(spectra, "SNAP_TOL", -1.0)
    windows.clear()
    whole = pipeline_spectrum(GAMMA, OMEGA, 200.0)[0]
    # Each parity of the 190-degree basis has 95; its last window is all
    # of them.
    assert windows.count(((0, 94), 95)) == 2
    assert windows[-1] == ((0, 94), 95)
    # The values the default window leaves out are below SNAP_TOL, and a
    # quotient from a wider solve moves by its own accuracy, about
    # c * 1e-16 (c = 100).
    np.testing.assert_allclose(whole.eigenvalues, default.eigenvalues,
                               rtol=0.0, atol=1e-13)
    for alpha in (1.0, 2.0):
        assert renyi_entropy(whole, alpha).S == pytest.approx(
            renyi_entropy(default, alpha).S, abs=1e-12)


def test_prolate_tail_guard(monkeypatch):
    # A basis of ceil(1.5 c) degrees at c = 50 cuts the eigenvectors
    # near lambda = 1/2 off at a coefficient of about 1e-2.
    monkeypatch.setattr(spectra, "PROLATE_PAD", 0)
    with pytest.raises(SpectralViolationError, match="tail"):
        pipeline_spectrum(GAMMA, OMEGA, 100.0)


def test_prolate_keeps_only_the_nyquist_guard():
    coarse = pipeline_spectrum(GAMMA, OMEGA, 30.0,
                               PipelineConfig(nodes_per_unit=1.0))[0]
    fine = pipeline_spectrum(GAMMA, OMEGA, 30.0,
                             PipelineConfig(nodes_per_unit=9.0))[0]
    np.testing.assert_array_equal(coarse.eigenvalues, fine.eigenvalues)
    with pytest.raises(discretize.DiscretizationError, match="sampling"):
        pipeline_spectrum(GAMMA, OMEGA, 30.0,
                          PipelineConfig(nodes_per_unit=0.6))


def test_prolate_budget_caps_the_basis(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a prolate window was solved")

    monkeypatch.setattr(spectra, "eigh_tridiagonal", forbidden)
    size = math.ceil(1.5 * 50.0) + spectra.PROLATE_PAD
    with pytest.raises(BudgetError, match=f"{size} Legendre degrees"):
        pipeline_spectrum(GAMMA, OMEGA, 100.0,
                          PipelineConfig(budget=size - 1))


@pytest.mark.parametrize("gamma, omega, mode", [
    (GAMMA, OMEGA, "prolate"),
    (Box(((-1.0, 1.0),) * 2), Box(((0.0, 1.0),) * 2), "tensor_box"),
    (Box(((-1.0, 1.0),) * 3), Box(((0.0, 1.0),) * 3), "tensor_box"),
])
def test_prolate_routes_never_assemble_nystrom(gamma, omega, mode,
                                               monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Nystrom matrix was assembled")

    monkeypatch.setattr(discretize, "nystrom", forbidden)
    monkeypatch.setattr(spectra, "eigenvalues", forbidden)
    results = asymptotics.sweep(gamma, omega, (0.5, 1.0), [2.0, 5.0, 9.0])
    assert {r.mode for res in results.values() for r in res.results} \
        == {mode}
    with pytest.raises(AssertionError, match="Nystrom"):
        entropy_pipeline(gamma, omega, 2.0, 1.0,
                         PipelineConfig(mode="continuum"))


def _mp_prolate_gaps(c, size, parity, digits=40):
    """1 - lambda of one parity's prolate eigenvalues, ascending in the
    tridiagonal, from a digits-precision solve of the same basis."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        c = mpmath.mpf(c)
        degrees = range(parity, size, 2)
        matrix = mpmath.zeros(len(degrees))
        at_zero, value = [], mpmath.mpf(1)
        for i, k in enumerate(degrees):
            k = mpmath.mpf(k)
            matrix[i, i] = k * (k + 1) + c * c * (2 * k * (k + 1) - 1) \
                / ((2 * k + 3) * (2 * k - 1))
            if i + 1 < len(degrees):
                matrix[i, i + 1] = matrix[i + 1, i] = \
                    c * c * (k + 1) * (k + 2) \
                    / ((2 * k + 3) * mpmath.sqrt((2 * k + 1) * (2 * k + 5)))
            if k > 1:
                value *= -(k - 1 - parity) / (k - parity)
            at_zero.append(mpmath.sqrt(k + 0.5) * value * (k if parity else 1))
        chi, vectors = mpmath.eigsy(matrix)
        gaps = []
        for j in sorted(range(len(degrees)), key=lambda j: chi[j]):
            column = [vectors[i, j] for i in range(len(degrees))]
            psi = mpmath.fsum(a * b for a, b in zip(at_zero, column))
            scale = c ** 3 / 3 if parity else c
            gaps.append(float(1 - scale * column[0] ** 2
                              / (mpmath.pi * psi ** 2)))
        return np.array(gaps)


@pytest.mark.parametrize("parity", [0, 1])
def test_prolate_gap_near_one_against_mpmath(parity):
    # At c = 30 the quotient alone leaves 1 - lambda with an error of
    # up to 7e-15 (it reads -7e-15 for a true 3.5e-17); the out-of-band
    # energy takes it to 1e-5 relative, and the stored lambda = 1 - gap
    # then rounds at 1.1e-16.
    c, size = 30.0, math.ceil(1.5 * 30.0) + spectra.PROLATE_PAD
    exact = _mp_prolate_gaps(c, size, parity)
    # Every copy, even parity's first; exact lists one parity's gaps in
    # descending order of lambda.
    lam = np.repeat(*spectra._prolate_spectrum(c, size))
    half = lam[:(size + 1) // 2] if parity == 0 else lam[(size + 1) // 2:]
    half = np.sort(half)[::-1]
    near_one = exact < 1e-3
    assert np.count_nonzero(near_one) >= 5
    np.testing.assert_allclose((1.0 - half)[near_one], exact[near_one],
                               rtol=1e-4, atol=1.2e-16)
    deep = exact < 1e-16
    assert np.all(half[deep] == 1.0)


# ---------------------------------------------------------------------------
# renyi_entropy()
# ---------------------------------------------------------------------------

def test_renyi_entropy_hand_values():
    half = Spectrum(np.array([0.5]), np.array([1]), 0, 0.0)
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert renyi_entropy(half, alpha).S == pytest.approx(math.log(2.0))
    quarter = Spectrum(np.array([0.25]), np.array([1]), 0, 0.0)
    assert renyi_entropy(quarter, 2.0).S == pytest.approx(-math.log(0.625))
    assert renyi_entropy(quarter, math.inf).S == pytest.approx(-math.log(0.75))


def test_renyi_entropy_projector_is_zero():
    projector = Spectrum(np.array([0.0, 1.0]), np.array([2, 2]), 0, 0.0)
    for alpha in (0.5, 1.0, 3.0, math.inf):
        assert renyi_entropy(projector, alpha).S == 0.0


def test_renyi_entropy_metadata():
    spectrum = Spectrum(np.array([0.5]), np.array([2]), 1, 3e-9)
    result = renyi_entropy(spectrum, 1.0)
    assert result.n == 2
    assert result.clamp_count == 1
    assert result.max_violation == 3e-9
    assert result.interior == 2
    assert result.L is None
    assert (result.mode, result.wall_time_s) == ("", None)


def test_entropy_decreases_with_alpha():
    spectrum = eigenvalues(lattice_correlation(math.pi / 2.0, 100))
    alphas = (0.25, 0.5, 1.0, 2.0, 4.0, math.inf)
    values = [renyi_entropy(spectrum, a).S for a in alphas]
    assert all(later <= earlier + 1e-12
               for earlier, later in zip(values, values[1:]))


def test_complement_symmetry_on_interior_spectrum():
    interior = Spectrum(np.random.default_rng(1).uniform(0.05, 0.95, 100),
                        np.ones(100, dtype=int), 0, 0.0)
    for alpha in (0.25, 0.5, 1.0, 2.0, math.inf):
        direct = renyi_entropy(interior, alpha).S
        flipped = renyi_entropy(interior.complement(), alpha).S
        assert direct == pytest.approx(flipped, abs=1e-11)


# ---------------------------------------------------------------------------
# Tensor spectra
# ---------------------------------------------------------------------------

def test_tensor_spectrum_is_outer_product():
    a = Spectrum(np.array([0.2, 0.8]), np.array([1, 2]), 1, 1e-9)
    b = Spectrum(np.array([0.5, 1.0, 0.1]), np.array([1, 1, 3]), 2, 3e-8)
    product = tensor_spectrum(a, b)
    expected = np.sort(np.repeat(
        np.outer([0.2, 0.8], [0.5, 1.0, 0.1]).ravel(),
        np.outer([1, 2], [1, 1, 3]).ravel()))
    np.testing.assert_allclose(product.eigenvalues, expected)
    assert len(product) == 15
    assert product.clamp_count == 3
    assert product.max_violation == 3e-8


# ---------------------------------------------------------------------------
# entropy_pipeline routes
# ---------------------------------------------------------------------------

def test_pipeline_continuum():
    result = entropy_pipeline(GAMMA, OMEGA, 10.0, 1.0,
                              PipelineConfig(mode="continuum"))
    assert result.L == 10.0
    assert result.alpha == 1.0
    assert result.S > 0.5
    assert result.mode == "continuum"


def test_pipeline_lattice_realized_dilation():
    gamma = interval(-math.pi / 2.0, math.pi / 2.0)
    config = PipelineConfig(mode="lattice")
    result = entropy_pipeline(gamma, OMEGA, 100.4, 1.0, config)
    # 100.4 sites round to 100; the realized dilation is recorded as L.
    assert result.L == 100.0
    assert result.n == 100
    assert result.mode == "lattice"
    # The solved block is the one at k_F = pi/2.
    block = lattice_correlation(math.pi / 2.0, 100)
    assert result.S == renyi_entropy(eigenvalues(block), 1.0).S


def test_pipeline_spectrum_serves_every_order():
    gamma = interval(-math.pi / 2.0, math.pi / 2.0)
    config = PipelineConfig(mode="lattice")
    spectrum, L, mode = pipeline_spectrum(gamma, OMEGA, 100.4, config)
    assert (L, len(spectrum), mode) == (100.0, 100, "lattice")
    for alpha in (0.5, 1.0, math.inf):
        result = renyi_entropy(spectrum, alpha, L, mode)
        assert result == entropy_pipeline(gamma, OMEGA, 100.4, alpha, config)


@pytest.mark.parametrize("gamma, omega, L, mode", [
    (interval(-1.0, 1.0), OMEGA, 300.0, "lattice"),
    (GAMMA, OMEGA, 30.0, "continuum"),
    (Box(((-1.0, 1.0), (-1.0, 1.0))), Box(((0.0, 1.0), (0.0, 1.0))), 4.0,
     "tensor_box"),
    (DISK, DISK, 4.0, "auto"),
])
def test_pipeline_provenance_counts_interior(gamma, omega, L, mode):
    spectrum, _, route = pipeline_spectrum(gamma, omega, L,
                                           PipelineConfig(mode=mode))
    lam = spectrum.eigenvalues
    interior = spectrum.interior
    assert 0 < interior <= len(spectrum)
    assert interior == np.count_nonzero(np.minimum(lam, 1.0 - lam) > 1e-12)
    # The entropy row carries it.
    assert entropy_row(renyi_entropy(spectrum, 1.0, L, route))[
        "interior"] == interior


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
    # The default rule has 4 nodes per axis here and misses by 1.1e-7; at
    # 4 nodes per unit (8 per axis) the gap is 5e-15.
    direct = entropy_pipeline(gamma, omega, 2.0, 1.0,
                              PipelineConfig(mode="continuum",
                                             nodes_per_unit=4.0))
    tensor = entropy_pipeline(gamma, omega, 2.0, 1.0,
                              PipelineConfig(mode="tensor_box"))
    assert tensor.S == pytest.approx(direct.S, abs=1e-10)
    assert (tensor.mode, direct.mode) == ("tensor_box", "continuum")
    # Each axis is a prolate basis of ceil(1.5 c) + PROLATE_PAD degrees,
    # c = 1 here.
    assert tensor.n == (math.ceil(1.5) + spectra.PROLATE_PAD) ** 2


def test_pipeline_auto_routing():
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    auto = entropy_pipeline(gamma, omega, 2.0, 1.0)
    assert auto.mode == "tensor_box"
    auto_1d = entropy_pipeline(GAMMA, OMEGA, 2.0, 1.0)
    assert auto_1d.mode == "prolate"
    two_intervals = IntervalUnion(((0.0, 1.0), (1.5, 2.5)))
    union = entropy_pipeline(GAMMA, two_intervals, 2.0, 1.0)
    assert union.mode == "continuum"


def test_pipeline_off_center_boxes_take_tensor_route():
    # Neither box is centered: gamma's center is a phase and omega's a
    # translation on each axis, so the tensor route holds.
    gamma = Box(((0.2, 2.2), (-1.5, 0.5)))
    omega = Box(((1.0, 2.0), (-0.5, 1.0)))
    tensor, _, route = pipeline_spectrum(gamma, omega, 2.0)
    direct, _, _ = pipeline_spectrum(
        gamma, omega, 2.0, PipelineConfig(mode="continuum",
                                          nodes_per_unit=4.0))
    assert route == "tensor_box"
    for alpha in (1.0, 2.0, math.inf):
        assert renyi_entropy(tensor, alpha).S == pytest.approx(
            renyi_entropy(direct, alpha).S, abs=1e-12)


# (n, interior, clamp_count) of each route's spectrum, and the most
# entries it may store: exact 0s and 1s are one entry each, and radial
# sector values one entry per sector.
BOOKKEEPING = [
    (interval(-math.pi / 2.0, math.pi / 2.0), OMEGA, 2000.0, "lattice",
     (2000, 44, 0), 65),
    (GAMMA, OMEGA, 600.0, "auto", (490, 37, 0), 62),
    (Box(((-1.0, 1.0),) * 2), Box(((0.0, 1.0),) * 2), 200.0, "auto",
     (36_100, 3842, 0), 3364),
    (Box(((-1.0, 1.0),) * 3), Box(((0.0, 1.0),) * 3), 100.0, "auto",
     (1_520_875, 76_630, 0), 125_000),
    (DISK, DISK, 8.0, "auto", (1376, 127, 577), 704),
    (BALL3, BALL3, 16.0, "auto", (45_056, 2560, 19_440), 1408),
]


@pytest.mark.parametrize("gamma, omega, L, mode, counts, entries",
                         BOOKKEEPING,
                         ids=["lattice", "interval", "square", "cube",
                              "disk", "ball3"])
def test_multiplicities_count_every_eigenvalue(gamma, omega, L, mode,
                                               counts, entries):
    spectrum, _, _ = pipeline_spectrum(gamma, omega, L,
                                       PipelineConfig(mode=mode))
    assert (len(spectrum), spectrum.interior, spectrum.clamp_count) == counts
    assert spectrum.values.size <= entries
    lam = spectrum.eigenvalues
    assert len(lam) == len(spectrum)
    for alpha in (0.25, 1.0, 2.0, math.inf):
        assert renyi_entropy(spectrum, alpha).S == pytest.approx(
            entropy_function(lam, alpha).sum(), rel=1e-12)


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
    base = entropy_pipeline(GAMMA, OMEGA, 50.0, 1.0,
                            PipelineConfig(mode="continuum"))
    fine = entropy_pipeline(GAMMA, OMEGA, 50.0, 1.0,
                            PipelineConfig(mode="continuum",
                                           nodes_per_unit=3.0))
    assert base.n < fine.n
    assert abs(fine.S - base.S) < 1e-4


def test_pipeline_alpha_consistency_with_direct_sum():
    op = nystrom(GAMMA, OMEGA, L=10.0)
    spectrum = eigenvalues(op)
    direct = renyi_entropy(spectrum, 2.0).S
    piped = entropy_pipeline(GAMMA, OMEGA, 10.0, 2.0,
                             PipelineConfig(mode="continuum")).S
    assert piped == pytest.approx(direct, rel=1e-12)
