"""Spectra, clamping policy, entropies, and the pipeline routes."""

import dataclasses
import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from fermient import asymptotics, discretize, spectra
from fermient.config import RunConfig, mode_from_config, momenta_for_mode
from fermient.discretize import (DEFAULT_LATTICE_BUDGET, BudgetError,
                                 DiscretizationError, lattice_correlation,
                                 nystrom)
from fermient.functionals import entropy_function
from fermient.geometry import (Ball, Box, GeometryError, IntervalUnion,
                               LatticeSea, interval)
from fermient.records import entropy_row
from fermient.spectra import (
    SpectralViolationError,
    Spectrum,
    eigenvalues,
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


def test_eigenvalues_records_small_violation():
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


@pytest.mark.parametrize("entry", [(0, 0, math.nan), (0, 0, math.inf),
                                   (0, 1, math.nan)])
def test_eigenvalues_rejects_non_finite_entries(entry):
    # A non-finite entry makes the Hermiticity defect NaN, which must
    # fail the defect <= 1e-12 gate: solved, a NaN diagonal reads as
    # S = 0 at every order.
    i, j, value = entry
    matrix = np.diag([0.25, 0.5])
    matrix[i, j] = matrix[j, i] = value
    with pytest.raises(SpectralViolationError, match="defect nan"):
        eigenvalues(matrix)


def test_eigenvalues_of_an_empty_matrix():
    spectrum = eigenvalues(np.zeros((0, 0)))
    assert (len(spectrum), spectrum.clamp_count, spectrum.max_violation) \
        == (0, 0, 0.0)
    assert renyi_entropy(spectrum, 1.0).S == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_clamped_rejects_non_finite_values(value):
    # A NaN must fail the gate: summed as h = 0, the spectrum [nan, 0.5]
    # would read S_1 = ln 2.  The message counts the non-finite
    # eigenvalues, with multiplicities, instead of calling a NaN a
    # violation of [0, 1] by nan.
    with pytest.raises(SpectralViolationError) as info:
        spectra._clamped(np.array([value, 0.5, value]), np.array([1, 1, 2]))
    assert str(info.value) == ("3 of 4 eigenvalues are NaN or inf; the "
                               "input or its solve is broken")


def test_clamped_keeps_the_violation_message_for_finite_values():
    with pytest.raises(SpectralViolationError,
                       match=r"violate \[0, 1\] by 0\.002 .*under-resolved"):
        spectra._clamped(np.array([-0.002, 0.5]), np.array([1, 1]))


def test_spectrum_complement():
    spectrum = Spectrum(np.array([0.1, 0.4, 0.9]), np.array([1, 2, 1]),
                        0, 0.0)
    np.testing.assert_allclose(spectrum.complement().eigenvalues,
                               [0.1, 0.6, 0.6, 0.9])
    assert len(spectrum) == 4


# ---------------------------------------------------------------------------
# The lattice route (commuting tridiagonal) against the dense oracle
# eigenvalues(lattice_correlation(k_F, n))
# ---------------------------------------------------------------------------

def _lattice_route(k_fermi, n):
    """Spectrum of the n-site block at k_fermi on the lattice route."""
    spectrum, _, _ = pipeline_spectrum(LatticeSea(((-k_fermi, k_fermi),)),
                                       OMEGA, float(n))
    return spectrum


def _snapped(spectrum, floor):
    """Spectrum with every min(lambda, 1 - lambda) below floor at 0 or 1."""
    lam = spectrum.values
    return Spectrum(np.where(np.minimum(lam, 1.0 - lam) < floor,
                             np.round(lam), lam), spectrum.multiplicities,
                    0, 0.0)


# Odd n = 1 leaves the odd parity block empty; the other odd sizes put
# a center site in the even block.
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 200, 201, 2000, 2001])
@pytest.mark.parametrize("k_fermi", [0.3, 1.0, math.pi / 2.0, 2.5, 3.0])
def test_lattice_route_matches_dense_oracle(k_fermi, n):
    fast = _lattice_route(k_fermi, n)
    dense = eigenvalues(lattice_correlation(k_fermi, n))
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
    def forbidden(*args, **kwargs):
        raise AssertionError("the n x n lattice matrix was built or solved")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(discretize, "lattice_correlation", forbidden)
    n = 20_000
    assert n <= DEFAULT_LATTICE_BUDGET
    gamma = LatticeSea(((-math.pi / 2.0, math.pi / 2.0),))
    spectrum, L, mode = pipeline_spectrum(gamma, OMEGA, float(n))
    assert (L, len(spectrum), mode) == (n, n, "lattice")
    assert spectrum.max_violation < 1e-14
    # Jin & Korepin (2004): S_1 = ln(2 n sin k_F) / 3 + 0.4950179 at
    # large n, with corrections far below 1e-6 here.
    expected = math.log(2.0 * n) / 3.0 + 0.4950179
    assert renyi_entropy(spectrum, 1.0).S == pytest.approx(expected, abs=1e-6)
    assert 0 < spectrum.interior < 100


def test_lattice_route_low_hole_density_block():
    # Few holes: the window's eigenvalue gaps are about 0.3 n sin k_F,
    # small beside n^2, and bisection must resolve them.  At 1e-9 n^2
    # the residual check fails here (8.1e-10 over 1e-10).
    n, k_fermi = 30_000, 3.1
    spectrum, L, mode = pipeline_spectrum(
        LatticeSea(((-k_fermi, k_fermi),)), OMEGA, float(n))
    assert (L, len(spectrum), mode) == (n, n, "lattice")
    expected = math.log(2.0 * n * math.sin(k_fermi)) / 3.0 + 0.4950179
    assert renyi_entropy(spectrum, 1.0).S == pytest.approx(expected, abs=1e-6)


def test_lattice_route_window_grows_to_whole_spectrum(monkeypatch):
    # With a negative snap tolerance no window edge ever counts as 0 or
    # 1, so the window doubles until it spans every index.
    monkeypatch.setattr(spectra, "SNAP_TOL", -1.0)
    for n in (200, 201):
        dense = eigenvalues(lattice_correlation(1.0, n))
        np.testing.assert_allclose(_lattice_route(1.0, n).eigenvalues,
                                   dense.eigenvalues, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2000, 2001])
@pytest.mark.parametrize("k_fermi", [0.3, math.pi / 2.0])
def test_lattice_parity_blocks_match_unsplit_window(k_fermi, n):
    # The same index window solved on the whole of Slepian's T: the
    # Rayleigh quotients of its eigenvectors against the dense kernel.
    values, multiplicities = spectra._lattice_spectrum(k_fermi, n)
    lo, hi = multiplicities[-2], n - 1 - multiplicities[-1]
    j = np.arange(n, dtype=float)
    _, vectors = eigh_tridiagonal(((n - 1 - 2 * j) / 2) ** 2
                                  * math.cos(k_fermi),
                                  (j[1:] * (n - j[1:])) / 2, select="i",
                                  select_range=(lo, hi))
    kernel = lattice_correlation(k_fermi, n).matrix
    unsplit = np.einsum("ji,jk,ki->i", vectors, kernel, vectors)
    assert np.max(np.abs(values[:-2] - unsplit)) <= 1e-13


def _fermi_dirac_solve(center, width, calls):
    # lambda_i = 1 / (1 + exp((i - center) / width)), descending in i, and
    # 1 - lambda_i, each without cancellation; every (lo, hi) is recorded,
    # and a window that never settles fails instead of looping.
    def solve(lo, hi):
        calls.append((lo, hi))
        assert len(calls) < 20, "the window does not stop growing"
        x = (np.arange(lo, hi + 1) - center) / width
        return 1.0 / (1.0 + np.exp(x)), 1.0 / (1.0 + np.exp(-x))
    return solve


def test_window_doubles_only_the_side_not_yet_snapped():
    # The window starts 20 indices right of the profile's center: its
    # right edge is already below SNAP_TOL, its left edge is at 1/2.
    calls = []
    values, multiplicities = spectra._window(
        _fermi_dirac_solve(500, 1.0, calls), 520, 20, 999, (1.0, 0.0))
    assert calls == [(500, 540), (480, 540), (440, 540)]
    lam, gap = _fermi_dirac_solve(500, 1.0, [])(440, 540)
    np.testing.assert_array_equal(values, np.append(lam, (1.0, 0.0)))
    # The outside counts are lo and last - hi.
    np.testing.assert_array_equal(multiplicities,
                                  np.append(np.full(101, 1), (440, 459)))
    assert min(gap[0], lam[-1]) < spectra.SNAP_TOL


@pytest.mark.parametrize("center, clipped", [(5, 0), (994, 999)])
def test_window_side_clipped_at_the_end_stops_growing(center, clipped):
    # The profile's center is 5 indices from one end, so that side is
    # clipped there while its edge is still far from 0 or 1; only the
    # other side keeps doubling, until its edge is below SNAP_TOL.
    calls = []
    values, multiplicities = spectra._window(
        _fermi_dirac_solve(center, 1.0, calls), center, 4, 999, (1.0, 0.0))
    ends = [lo if clipped == 0 else hi for lo, hi in calls]
    assert ends[0] != clipped and set(ends[1:]) == {clipped}
    far = [hi - lo for lo, hi in calls]
    assert far == sorted(far) and len(set(far)) == len(far) == 5
    lo, hi = calls[-1]
    assert multiplicities[-2:].tolist() == [lo, 999 - hi]
    assert int(multiplicities.sum()) == 1000
    edge = values[0] if clipped == 0 else values[-3]
    assert min(edge, 1.0 - edge) > 1e-3


def test_fast_len_is_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    assert [spectra._fast_len(m) for m in range(1, 10_001)] == \
        [next_fast_len(m, real=True) for m in range(1, 10_001)]


def _lift(rows, signs, n):
    """The even (sign +1) or odd (-1) vectors v = [u; sign Ju] / sqrt(2)
    that half-length rows u stand for; for odd n the centre entry of v
    is u[-1]."""
    half = n // 2
    v = np.zeros((len(rows), n), dtype=rows.dtype)
    v[:, :half] = rows[:, :half] / np.sqrt(rows.dtype.type(2.0))
    v[:, n - half:] = signs[:, None] * v[:, :half][:, ::-1]
    if n % 2:
        v[:, half] = rows[:, half]
    return v


def _halved(images, n):
    """The inverse of _lift on vectors that are even or odd: sqrt(2)
    times their first ceil(n/2) entries, the centre of odd n as is."""
    out = np.sqrt(2.0) * images[:, :n - n // 2]
    if n % 2:
        out[:, -1] = images[:, n // 2]
    return out


def _half_rows(n, signs, seed):
    # Random unit rows for the given signs; an odd vector of odd n has
    # no centre entry.
    half = n - n // 2
    rows = np.random.default_rng(seed).normal(size=(len(signs), half))
    if n % 2:
        rows[signs < 0, -1] = 0.0
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# 2M - 1 = 1009 is prime, so the circulant of M = 505 is padded to
# 1024; n = 1009 has a centre entry.
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 1000, 1009, 1010])
@pytest.mark.parametrize("k_fermi", [1.0, math.pi - 1.0])
def test_half_apply_matches_dense_product(k_fermi, n):
    from scipy.linalg import toeplitz

    column = discretize._sine_column(k_fermi, n)
    # A single site has no odd vector.
    signs = np.array([1.0, -1.0, 1.0, -1.0]) if n > 1 else np.ones(2)
    rows = _half_rows(n, signs, n)
    images = spectra._half_apply(column, rows, signs)
    dense = _lift(rows, signs, n) @ toeplitz(column)
    np.testing.assert_allclose(images, _halved(dense, n), rtol=0, atol=1e-13)
    # Even and odd images stay even and odd: the halves carry all of
    # C v, and u . image is the quotient v^T C v.
    np.testing.assert_allclose(_lift(_halved(dense, n), signs, n), dense,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.einsum("ij,ij->i", rows, images),
                               np.einsum("ij,ij->i", _lift(rows, signs, n),
                                         dense), rtol=0, atol=1e-13)


def test_half_apply_across_chunks():
    # The circulant has 2025 entries, so a chunk holds 16 rows and 40
    # rows take three chunks.  Each row is transformed on its own: the
    # product is the same bit for bit as row by row.
    n = 2017
    column = discretize._sine_column(1.0, n)
    signs = np.where(np.arange(40) % 3, 1.0, -1.0)
    rows = _half_rows(n, signs, n)
    assert spectra._fast_len(2 * rows.shape[1] - 1) == 2025
    product = spectra._half_apply(column, rows, signs)
    np.testing.assert_array_equal(product, np.concatenate(
        [spectra._half_apply(column, row[None], sign[None])
         for row, sign in zip(rows, signs)]))


def _full_length_apply(column, rows):
    # C @ row through the circulant of length >= 2n - 1 that embeds the
    # whole of C: the full-length product the half-length one replaced.
    n = len(column)
    size = spectra._fast_len(2 * n - 1)
    circulant = np.zeros(size)
    circulant[:n] = column
    circulant[size - n + 1:] = column[:0:-1]
    return np.fft.irfft(np.fft.rfft(rows, size) * np.fft.rfft(circulant),
                        size)[:, :n]


def test_half_apply_small_quotients_as_accurate_as_full_length(monkeypatch):
    # The route's own window vectors, with the quotients below 1e-6 that
    # the small-alpha entropies rest on, against a long double dense
    # product.  Two symbols round about as much as one: pooled over this
    # grid the half-length rms error reads 4.6e-17 against the
    # full-length FFT's 3.7e-17, and each stays far below SNAP_TOL.
    calls = []
    original = spectra._half_apply

    def recording(column, rows, signs):
        calls.append((column, rows.copy(), signs.copy()))
        return original(column, rows, signs)

    monkeypatch.setattr(spectra, "_half_apply", recording)
    half_errors, full_errors = [], []
    for k_fermi in (math.pi / 2.0, 1.0, 0.3, 2.5, 0.05, 3.0):
        for n in (200, 201, 431):
            calls.clear()
            spectra._lattice_spectrum(k_fermi, n)
            for column, rows, signs in calls[-2:]:
                v = _lift(rows, signs, n)
                exact = column.astype(np.longdouble)[
                    np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
                wide = v.astype(np.longdouble)
                reference = np.einsum("ij,ij->i", wide, wide @ exact)
                small = reference < 1e-6
                half = np.einsum("ij,ij->i", rows,
                                 original(column, rows, signs))
                full = np.einsum("ij,ij->i", v, _full_length_apply(column, v))
                half_errors.append((half - reference)[small])
                full_errors.append((full - reference)[small])
    half_errors = np.concatenate(half_errors).astype(float)
    full_errors = np.concatenate(full_errors).astype(float)
    assert len(half_errors) > 400
    rms_half, rms_full = (math.sqrt(np.mean(e * e))
                          for e in (half_errors, full_errors))
    assert rms_half <= 1.5 * rms_full and rms_half < 1e-16
    assert np.max(np.abs(half_errors)) < 1e-15


def test_lattice_window_holds_no_full_length_array():
    # At n = 20000, half filling, the window holds 79 vectors of
    # M = 10000 entries: 6.3 MB.  The peak read 2.2 times that, the
    # half-length rows beside inverse iteration's output; a (window x n)
    # array on top of the rows would be 3 times, and the full-length
    # product held 9.2 times.
    n = 20_000
    tracemalloc.start()
    try:
        _, multiplicities = spectra._lattice_spectrum(math.pi / 2.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window = n - int(multiplicities[-2:].sum())
    assert window == 79
    assert peak <= 2.75 * window * (n // 2) * 8


def test_lattice_route_residual_check(monkeypatch):
    monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SpectralViolationError, match="residual"):
        _lattice_route(1.0, 64)


# 1 - C(k_F) = D C(pi - k_F) D with D = diag((-1)^j), so S_alpha(k_F) =
# S_alpha(pi - k_F) exactly.  The route solves both fillings as they
# come, so the difference is its noise floor: measured at n = 4000 as
# -3.25e-5 at alpha = 1/4, -4.2e-9 at 1/2 and at most 1.3e-15 from
# alpha = 1 on.  A fix of the small-order floor can tighten the first
# two bounds; a change that raises the floor fails them.
def test_lattice_particle_hole_identity():
    particles, holes = (_lattice_route(k_fermi, 4000)
                        for k_fermi in (1.0, math.pi - 1.0))
    bounds = {0.25: 5e-5, 0.5: 1e-8, 1.0: 1e-13, 2.0: 1e-13, math.inf: 1e-13}
    deviations = {alpha: abs(renyi_entropy(holes, alpha).S
                             / renyi_entropy(particles, alpha).S - 1.0)
                  for alpha in bounds}
    assert all(deviations[alpha] <= bounds[alpha] for alpha in bounds), \
        deviations


# ---------------------------------------------------------------------------
# Ball/ball pairs: the radial route against the Nystrom oracle
# ---------------------------------------------------------------------------

def _assert_matches_nystrom(gamma, omega, L, tol, nodes_per_unit=None):
    radial, _, mode = pipeline_spectrum(gamma, omega, L)
    dense = eigenvalues(nystrom(gamma, omega, L,
                                nodes_per_unit=nodes_per_unit))
    assert mode == "radial"
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
    solved = []
    original = spectra._sector_eigenvalues

    def counting(*args):
        solved.append(original(*args))
        return solved[-1]

    monkeypatch.setattr(spectra, "_sector_eigenvalues", counting)
    spectrum, L, mode = pipeline_spectrum(ball, ball, 2.5)
    row = entropy_row(renyi_entropy(spectrum, 1.0, L, mode))
    sectors, n_r = len(solved), math.ceil(1.5 * 2.5) + 20
    # Sectors l < sectors repeat 1, 2, 2, ... times in d = 2 and
    # 2l + 1 times in d = 3, each with n_r eigenvalues.
    multiplicity = 2 * sectors - 1 if ball.dim == 2 else sectors ** 2
    assert row["n"] == len(spectrum) == multiplicity * n_r
    assert 0 < row["interior"] < row["n"]
    assert row["mode"] == "radial"


@pytest.mark.parametrize("ball, L", [(DISK, 8.0), (BALL3, 4.0)],
                         ids=["d2", "d3"])
def test_radial_sectors_share_their_bessel_orders(ball, L, monkeypatch):
    # Sector l reads J_nu-1, J_nu and J_nu+1 at the nodes, nu = l +
    # (d - 2)/2; two of them carry over from sector l - 1, so the route
    # calls jv once per sector and twice more for sector 0.  Each order
    # it hands a sector is the fresh jv at the nodes, bit for bit.
    from scipy.special import jv

    calls, checked = [], []
    original = spectra._sector_eigenvalues

    def counting_jv(nu, x):
        calls.append(nu)
        return jv(nu, x)

    def checking(k, r, bessel, *args):
        nu = len(checked) + 0.5 * (ball.dim - 2)
        for order, values in zip((nu - 1.0, nu, nu + 1.0), bessel):
            np.testing.assert_array_equal(values, jv(order, k * r))
        checked.append(nu)
        return original(k, r, bessel, *args)

    # The route imports jv from scipy.special when it runs.
    monkeypatch.setattr("scipy.special.jv", counting_jv)
    monkeypatch.setattr(spectra, "_sector_eigenvalues", checking)
    spectrum = pipeline_spectrum(ball, ball, L)[0]
    n_r = math.ceil(1.5 * L) + 20
    sectors = len(spectrum.values) // n_r
    assert sectors * n_r == len(spectrum.values)
    assert len(checked) == sectors > 5
    assert len(calls) == sectors + 2


@pytest.mark.parametrize("ball", [DISK, BALL3], ids=["d2", "d3"])
def test_radial_is_the_auto_route_for_balls(ball, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Nystrom matrix was assembled")

    monkeypatch.setattr(discretize, "nystrom", forbidden)
    spectrum, _, mode = pipeline_spectrum(ball, ball, 3.0)
    assert mode == "radial"
    assert renyi_entropy(spectrum, 2.0).S > 0.0
    # A ball/box pair, which auto sends to Nystrom, reaches the patch.
    with pytest.raises(AssertionError, match="Nystrom"):
        pipeline_spectrum(ball, Box(((0.0, 1.0),) * ball.dim), 3.0)


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
    dense = eigenvalues(nystrom(GAMMA, OMEGA, L,
                                nodes_per_unit=nodes_per_unit))
    assert mode == "prolate"
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
    dense = eigenvalues(nystrom(interval(0.3, 2.1), interval(2.0, 3.5), 40.0))
    for alpha in (1.0, 2.0, math.inf):
        assert abs(renyi_entropy(shifted, alpha).S
                   - renyi_entropy(dense, alpha).S) <= 1e-9


@pytest.mark.parametrize("gamma, omega", [
    (GAMMA, OMEGA), (interval(0.3, 2.1), interval(2.0, 3.5))])
@pytest.mark.parametrize("L", [0.5, 7.0, 60.0, 600.0, 2400.0])
def test_prolate_trace_is_weyl_term(gamma, omega, L):
    spectrum = pipeline_spectrum(gamma, omega, L)[0]
    weyl = gamma.volume() * L * omega.volume() / (2.0 * math.pi)
    assert np.sum(spectrum.eigenvalues) == pytest.approx(weyl, rel=1e-12)


def test_prolate_window_grows_to_whole_basis(monkeypatch):
    windows = []
    original = eigh_tridiagonal

    def recording(diagonal, *args, select_range, **kwargs):
        windows.append((select_range, len(diagonal)))
        return original(diagonal, *args, select_range=select_range, **kwargs)

    # The route imports eigh_tridiagonal from scipy.linalg when it runs.
    monkeypatch.setattr("scipy.linalg.eigh_tridiagonal", recording)
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


def test_prolate_budget_caps_the_basis(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a prolate window was solved")

    monkeypatch.setattr("scipy.linalg.eigh_tridiagonal", forbidden)
    size = math.ceil(1.5 * 50.0) + spectra.PROLATE_PAD
    with pytest.raises(BudgetError, match=f"{size} Legendre degrees"):
        pipeline_spectrum(GAMMA, OMEGA, 100.0, budget=size - 1)


def test_tensor_axes_pass_the_budget_before_any_solve(monkeypatch):
    # The first axis (c = 15) fits the budget and the second (c = 3000)
    # does not: neither is solved.
    def forbidden(*args, **kwargs):
        raise AssertionError("a prolate axis was solved")

    monkeypatch.setattr(spectra, "_prolate_spectrum", forbidden)
    size = math.ceil(1.5 * 3000.0) + spectra.PROLATE_PAD
    with pytest.raises(BudgetError, match=f"{size} Legendre degrees"):
        pipeline_spectrum(Box(((-1.0, 1.0),) * 2),
                          Box(((0.0, 1.0), (0.0, 200.0))), 30.0,
                          budget=100)


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
    # A pair of the same dimension that auto sends to Nystrom reaches
    # the patch.
    other = (IntervalUnion(((0.0, 1.0), (2.0, 3.0))) if gamma.dim == 1
             else Ball((0.5,) * gamma.dim, 0.5))
    with pytest.raises(AssertionError, match="Nystrom"):
        pipeline_spectrum(gamma, other, 2.0)


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


def _record_out_of_band(monkeypatch):
    """Patch spectra._out_of_band so each energy call appends its
    (degrees, coefficient columns, gaps) to the returned list."""
    calls = []
    original = spectra._out_of_band

    def recording(c, size):
        energy = original(c, size)

        def recorded(k, coefficients):
            gaps = energy(k, coefficients)
            calls.append((k, coefficients, gaps))
            return gaps
        return recorded

    monkeypatch.setattr(spectra, "_out_of_band", recording)
    return calls


@pytest.mark.parametrize("parity", [0, 1])
def test_prolate_gap_near_one_against_mpmath(parity, monkeypatch):
    # At c = 30 the quotient alone leaves 1 - lambda with an error of
    # up to 7e-15 (it reads -7e-15 for a true 3.5e-17); the out-of-band
    # energy takes it to 2e-6 relative, and the stored lambda = 1 - gap
    # then rounds at 1.1e-16.
    c, size = 30.0, math.ceil(1.5 * 30.0) + spectra.PROLATE_PAD
    calls = _record_out_of_band(monkeypatch)
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
    # The gaps themselves, before lambda = 1 - gap rounds them away, run
    # from 3e-11 down to 3.4e-25 and read at most 1.8e-6 relative off
    # (2.4e-5 with the first-order tail alone, on tables of every
    # degree).  Each parity's window starts at index 0, so its near-1
    # vectors are the first of its gaps.
    mine = [gaps for k, _, gaps in calls if k[0] == parity]
    assert mine
    for gaps in mine:
        assert len(gaps) >= 4
        np.testing.assert_allclose(gaps, exact[:len(gaps)], rtol=5e-6,
                                   atol=0.0)


def test_prolate_reach_guard(monkeypatch):
    # Tables cut at c + 10 = 40 degrees leave the near-1 vectors at
    # c = 30 a norm of up to 5e-7 past the cut, far over REACH_TOL
    # sqrt(1 - lambda); at the default cut, 75 degrees, that norm is at
    # most 1.7e-11 sqrt(1 - lambda).
    monkeypatch.setattr(spectra, "REACH_EXCESS", 0.0)
    with pytest.raises(SpectralViolationError, match="degrees 40 and up"):
        pipeline_spectrum(GAMMA, OMEGA, 60.0)


def _out_of_band_cut(c):
    """(reach, T, N): the tables' degree cut, the end of the rule on
    [1, T], and the node count ceil(c (T - 1) / 2) + 40 its nodes must
    not fall below."""
    reach = math.ceil(c + spectra.REACH_EXCESS * c ** (1 / 3)) + 10
    T = (reach + 30) / c
    return reach, T, math.ceil(0.5 * c * (T - 1)) + 40


def _panel_rule(T, panels, points):
    """Gauss-Legendre rule of points nodes on each of panels equal
    panels of [1, T], in the route's arithmetic."""
    from scipy.special import roots_legendre

    x, w = roots_legendre(points)
    half = 0.5 * (T - 1) / panels
    t = (1.0 + half * (2 * np.arange(panels) + 1))[:, None] + half * x
    return t.ravel(), np.tile(half * w, panels)


def _tail_rule(c):
    """(z, v): the tail's Hankel nodes, cT and then c T / s at the
    48-node rule's s in (0, 1), and its weights in s, in the route's
    arithmetic."""
    from scipy.special import roots_legendre

    _, T, _ = _out_of_band_cut(c)
    s, w = roots_legendre(48)
    s = 0.5 * (s + 1.0)
    return c * np.concatenate([[T], T / s]), 0.25 * T * w / (s * s)


def _spherical_jn(x, size):
    """j_k(x) for k < size, rows k, by Miller's backward recurrence,
    one step per degree: the per-degree loop the route's one-loop
    tables must reproduce bit for bit."""
    top = math.ceil(max(size, x.max()) + 20 + 4 * x.max() ** (1 / 3))
    table = np.empty((size, len(x)))
    after, value = np.zeros_like(x), np.ones_like(x)
    for k in range(top, 0, -1):
        after, value = value, (2 * k + 1) / x * value - after
        if k <= size:
            table[k - 1] = value
    j0 = np.sin(x) / x
    j1 = j0 / x - np.cos(x) / x
    table *= np.where(np.abs(j0) >= np.abs(j1), j0 / table[0], j1 / table[1])
    return table


def _spherical_hn(x, size):
    """(j_k(x), y_k(x)) for k < size, rows k, by forward recurrence, one
    step per degree, both parts in one step: the oracle of the route's
    Hankel tables."""
    table = np.empty((size, 2, len(x)))
    real, imag = table[:, 0], table[:, 1]
    real[0], imag[0] = np.sin(x) / x, -np.cos(x) / x
    real[1], imag[1] = real[0] / x + imag[0], imag[0] / x - real[0]
    for k in range(1, size - 1):
        table[k + 1] = (2 * k + 1) / x * table[k] - table[k - 1]
    return real, imag


def _record_bessel_tables(monkeypatch):
    """Patch spectra._bessel_tables so each call appends its (x, z,
    size, (j, h_real, h_imag)) to the returned list."""
    calls = []
    original = spectra._bessel_tables

    def recording(x, z, size):
        tables = original(x, z, size)
        calls.append((x, z, size, tables))
        return tables

    monkeypatch.setattr(spectra, "_bessel_tables", recording)
    return calls


def _built_tables(c):
    """The route's (x, z, size, tables) at c: the out-of-band energy of
    one unit vector builds them, whether or not a solve at c sends a
    vector there."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _record_bessel_tables(patch)
        size = math.ceil(1.5 * c) + spectra.PROLATE_PAD
        k = np.arange(0, size, 2, dtype=float)
        assert spectra._out_of_band(c, size)(k, np.eye(len(k), 1))[0] > 0.0
    (call,) = calls
    return call


def _route_rule(c, monkeypatch):
    """(calls, (x, w), (z, v)) of one prolate solve at c: its
    out-of-band energy calls as _record_out_of_band lists them, and the
    rules whose nodes it hands to _bessel_tables, once per solve.  Those
    nodes must be c t on ceil(N / 48) equal panels of the 48-node rule
    on [1, T], at least N of them, and the tail's nodes, bit for bit;
    the weights are then the same rules'."""
    tables = _record_bessel_tables(monkeypatch)
    calls = _record_out_of_band(monkeypatch)
    spectra._prolate_spectrum(c, math.ceil(1.5 * c) + spectra.PROLATE_PAD)
    assert calls
    (x, z, size, _), = tables
    reach, T, N = _out_of_band_cut(c)
    panels = math.ceil(N / 48)
    t, w = _panel_rule(T, panels, 48)
    assert size == reach
    assert len(x) == 48 * panels >= N
    assert np.array_equal(x, c * t)
    tail = _tail_rule(c)
    assert np.array_equal(z, tail[0])
    return calls, (x, w), tail


def _reference_energy(c, k, coefficients, inner, outer):
    """(energy, rounding) of the out-of-band energy on the inner rule
    (x, w) in X = c t on [c, cT] and the outer rule (z, v), cT then the
    tail's nodes in X with their weights in s = T / t, from the
    per-degree tables, with H the complex product of the Hankel tables
    and H' that of the derivative column from h_k' = h_k-1 - (k + 1)
    h_k / X.  rounding is the first-order size of the rounding of the
    energy's sums: each squared sum taken as |sum| times the sum of
    absolute values."""
    (x, w), (z, v) = inner, outer
    reach = _out_of_band_cut(c)[0]
    j_table = _spherical_jn(x, reach)
    h_real, h_imag = _spherical_hn(z, reach)
    h_table = h_real + 1j * h_imag
    h_slope = np.concatenate([[-h_table[1, 0]], h_table[:-1, 0]
                              - np.arange(2, reach + 1) * h_table[1:, 0]
                              / z[0]])
    assert k[-1] >= reach
    reached = k < reach
    a = (2 * np.sqrt(k + 0.5) * np.where(k % 4 > 1, -1.0, 1.0))[:, None] \
        * coefficients
    a, rows = a[reached], k[reached].astype(int)
    J, H_table, H_slope = j_table[rows].T, h_table[rows].T, h_slope[rows]
    psi, H = J @ a, H_table @ a.astype(complex)
    D = H_slope @ a.astype(complex) - 1j * H[0]
    assert H.dtype == D.dtype == complex
    energy = c / math.pi * (w @ psi ** 2 + v @ np.abs(H[1:]) ** 2
                            - H[0].real * H[0].imag / (2 * c)
                            - (H[0] * D).real / (4 * c))
    psi_size = np.abs(J) @ np.abs(a)
    H_size = np.abs(H_table) @ np.abs(a)
    D_size = np.abs(H_slope) @ np.abs(a) + H_size[0]
    rounding = c / math.pi * (w @ (np.abs(psi) * psi_size)
                              + v @ (np.abs(H[1:]) * H_size[1:])
                              + np.abs(H[0]) * H_size[0] / (2 * c)
                              + (np.abs(H[0]) * D_size
                                 + np.abs(D) * H_size[0]) / (4 * c))
    return energy, rounding


def test_out_of_band_energy_matches_complex_product(monkeypatch):
    # The route takes Re H and Im H as two real products; here H is the
    # complex product of the per-degree Hankel tables, on the nodes the
    # route hands its table builder (ceil(N / 48) equal panels of 48
    # nodes on [1, T], checked by _route_rule), on every window
    # eigenvector the route sends to the out-of-band energy at c = 300,
    # over the degrees below the tables' cut.
    # The sums behind each energy cancel to 1e-10 and below, so its last
    # digits are the rounding of those sums in whatever order a product
    # takes them (the complex product itself moves them by up to 3e-8
    # relative between one and two BLAS threads).  The energies must
    # agree to 1e-14 of the first-order size of that rounding.
    c = 300.0
    calls, inner, outer = _route_rule(c, monkeypatch)
    assert len(calls) == 2
    assert _out_of_band_cut(c)[0] < math.ceil(1.5 * c) + spectra.PROLATE_PAD
    for k, coefficients, gaps in calls:
        expected, rounding = _reference_energy(c, k, coefficients, inner,
                                               outer)
        assert np.all(np.abs(gaps - expected) <= 1e-14 * rounding)
        assert np.all(gaps > 0.0)


# c: (bound, whether 48 round(N / 48) nodes fail it).  The largest
# relative deviation of the route's gaps from those on a plain Gauss
# rule of 4N nodes reads 8.6e-6, 6.8e-8, 3.8e-7 and 4.0e-7 at these c
# (on a plain N-node rule: 8.2e-6, 4.3e-8, 6.0e-7 and 4.1e-7): the
# rounding of sums that cancel to the gap, not quadrature error.  With
# round(N / 48) panels the gaps read 8.6e-6, 1.6e-7, 5.0e-3 and 3.2e-4
# off, the last two of 96 nodes for N = 115 and 144 for N = 148.
OUT_OF_BAND_DEV = {30.0: (3e-5, False), 300.0: (1e-6, False),
                   1000.0: (2e-6, True), 3900.0: (2e-6, True)}


@pytest.mark.parametrize("c", list(OUT_OF_BAND_DEV))
def test_out_of_band_rule_against_a_finer_rule(c, monkeypatch):
    # _route_rule also checks that the route's own nodes are the
    # panelled rule, so a route moved to a coarser rule fails here.
    bound, coarse_fails = OUT_OF_BAND_DEV[c]
    calls, _, outer = _route_rule(c, monkeypatch)
    _, T, N = _out_of_band_cut(c)
    finer, coarser = [(c * t, w) for t, w in (
        _panel_rule(T, 1, 4 * N), _panel_rule(T, round(N / 48), 48))]
    deviation = coarse = 0.0
    for k, coefficients, gaps in calls:
        exact = _reference_energy(c, k, coefficients, finer, outer)[0]
        deviation = max(deviation, np.max(np.abs(gaps / exact - 1.0)))
        coarse = max(coarse, np.max(np.abs(_reference_energy(
            c, k, coefficients, coarser, outer)[0] / exact - 1.0)))
    assert deviation <= bound
    assert (coarse > bound) == coarse_fails


@pytest.mark.parametrize("c", [13.1, 30.0, 300.0, 1000.0, 3900.0])
def test_bessel_tables_equal_the_per_degree_loops(c):
    # One loop steps both recurrences, column by column in the same
    # arithmetic as the per-degree loops, so every entry is bit for bit
    # theirs.  The three tables are views of one array, not copies, with
    # positive strides, so a BLAS product reads them without a copy.
    x, z, size, (j, h_real, h_imag) = _built_tables(c)
    assert size == _out_of_band_cut(c)[0]
    assert j.shape == (size, len(x))
    assert h_real.shape == h_imag.shape == (size, len(z))
    assert np.array_equal(j, _spherical_jn(x, size))
    real, imag = _spherical_hn(z, size)
    assert np.array_equal(h_real, real) and np.array_equal(h_imag, imag)
    assert j.base is h_real.base is h_imag.base is not None
    assert min(j.strides + h_real.strides + h_imag.strides) > 0


# c: bound on the Hankel tables' deviation from scipy, per node
# relative to the node's largest entry of each part.  Measured: 9.6e-16,
# 1.4e-15, 3.9e-15, 1.2e-14 and 2.2e-14 (the y_k part from c = 300 on):
# the forward recurrence's rounding, which grows with its step count.
HANKEL_DEV = {13.1: 5e-15, 30.0: 5e-15, 300.0: 2e-14, 1000.0: 5e-14,
              3900.0: 1e-13}


@pytest.mark.parametrize("c", list(HANKEL_DEV))
def test_hankel_tables_match_scipy_on_the_tail_nodes(c):
    from scipy.special import spherical_jn, spherical_yn

    _, z, size, (_, h_real, h_imag) = _built_tables(c)
    assert np.array_equal(z, _tail_rule(c)[0])
    k = np.arange(size)[:, None]
    for table, exact in ((h_real, spherical_jn(k, z)),
                         (h_imag, spherical_yn(k, z))):
        scale = np.max(np.abs(exact), axis=0)
        assert np.max(np.abs(table - exact) / scale) <= HANKEL_DEV[c]


def test_spherical_jn_matches_scipy_on_the_route_tables():
    # The j_k table exactly as the route builds it: degrees below the
    # near-1 reach on the panelled Gauss nodes of [1, T],
    # T = (reach + 30) / c.  There the backward recurrence grows by far
    # less than the float range, so it needs no rescaling.
    from scipy.special import spherical_jn

    for c in (300.0, 1200.0):
        x, _, size, (table, _, _) = _built_tables(c)
        assert size < math.ceil(1.5 * c) + spectra.PROLATE_PAD
        exact = spherical_jn(np.arange(size)[:, None], x)
        np.testing.assert_allclose(table, exact, rtol=1e-6, atol=0)


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
    spectrum = _lattice_route(math.pi / 2.0, 100)
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
    # 9 of the 15 products have a clamped factor: 15 - (3 - 1)(5 - 2).
    assert product.clamp_count == 9
    assert product.max_violation == 3e-8


def test_tensor_spectrum_counts_clamped_products_with_multiplicities():
    # The one clamped x eigenvalue meets all 4 y eigenvalues, so 4
    # product eigenvalues come from it, not 1 + 0.
    x = Spectrum(np.array([0.0, 0.5]), np.array([1, 1]), 1, 1e-15)
    y = Spectrum(np.array([0.3, 0.7, 1.0]), np.array([1, 1, 2]), 0, 0.0)
    assert tensor_spectrum(x, y).clamp_count == 4
    assert tensor_spectrum(y, x).clamp_count == 4


def _assert_same_spectrum(actual, expected):
    np.testing.assert_array_equal(actual.values, expected.values)
    np.testing.assert_array_equal(actual.multiplicities,
                                  expected.multiplicities)
    assert (actual.clamp_count, actual.max_violation) \
        == (expected.clamp_count, expected.max_violation)


@pytest.mark.parametrize("omega_axes", [
    ((0.0, 1.0), (0.0, 1.0)),
    ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
    ((0.0, 1.0), (0.0, 2.0)),
], ids=["square", "cube", "rectangle"])
def test_tensor_route_equals_separately_solved_axes(omega_axes):
    # Axes with the same c share one solve; the product is bit for bit
    # that of the axes solved one by one on the prolate route.
    gamma = Box(((-1.0, 1.0),) * len(omega_axes))
    L = 37.0
    spectrum, _, mode = pipeline_spectrum(gamma, Box(omega_axes), L)
    axes = [pipeline_spectrum(GAMMA, interval(*axis), L)[0]
            for axis in omega_axes]
    assert mode == "tensor_box"
    _assert_same_spectrum(spectrum, functools.reduce(tensor_spectrum, axes))


# ---------------------------------------------------------------------------
# pipeline_spectrum routes
# ---------------------------------------------------------------------------

def test_pipeline_continuum():
    two_intervals = IntervalUnion(((0.0, 0.5), (1.0, 1.5)))
    spectrum, L, mode = pipeline_spectrum(GAMMA, two_intervals, 10.0)
    assert L == 10.0
    assert renyi_entropy(spectrum, 1.0).S > 0.5
    assert mode == "continuum"


def test_pipeline_lattice_realized_dilation():
    gamma = LatticeSea(((-math.pi / 2.0, math.pi / 2.0),))
    spectrum, L, mode = pipeline_spectrum(gamma, OMEGA, 100.4)
    # 100.4 sites round to 100; the realized dilation is recorded as L.
    assert (L, len(spectrum), mode) == (100.0, 100, "lattice")
    # The solved block is the one at k_F = pi/2.
    dense = eigenvalues(lattice_correlation(math.pi / 2.0, 100))
    assert renyi_entropy(spectrum, 1.0).S == pytest.approx(
        renyi_entropy(dense, 1.0).S, abs=1e-9)


def test_pipeline_spectrum_serves_every_order():
    # A sweep's rows at one L are renyi_entropy of the one spectrum.
    gamma = LatticeSea(((-math.pi / 2.0, math.pi / 2.0),))
    spectrum, L, mode = pipeline_spectrum(gamma, OMEGA, 100.4)
    alphas = (0.5, 1.0, math.inf)
    swept = asymptotics.sweep(gamma, OMEGA, alphas, [100.4])
    for alpha in alphas:
        (row,) = swept[alpha].results
        assert dataclasses.replace(row, wall_time_s=None) \
            == renyi_entropy(spectrum, alpha, L, mode)


# Every pair of catalog shapes that a route takes, and its route.
@pytest.mark.parametrize("gamma, omega, L, mode", [
    (LatticeSea(((-1.0, 1.0),)), OMEGA, 300.0, "lattice"),
    (GAMMA, IntervalUnion(((0.0, 1.0), (1.5, 2.5))), 30.0, "continuum"),
    (Box(((-1.0, 1.0), (-1.0, 1.0))), Box(((0.0, 1.0), (0.0, 1.0))), 4.0,
     "tensor_box"),
    (DISK, DISK, 4.0, "radial"),
    (GAMMA, OMEGA, 30.0, "prolate"),
    (IntervalUnion(((-2.0, -1.0), (1.0, 2.0))), OMEGA, 10.0, "continuum"),
    (DISK, Box(((0.0, 1.0), (0.0, 1.0))), 4.0, "continuum"),
    (Box(((-1.0, 1.0), (-1.0, 1.0))), DISK, 4.0, "continuum"),
    (Box(((-1.0, 1.0),) * 3), Box(((0.0, 1.0),) * 3), 4.0, "tensor_box"),
    (BALL3, BALL3, 4.0, "radial"),
])
def test_pipeline_provenance_counts_interior(gamma, omega, L, mode):
    spectrum, _, route = pipeline_spectrum(gamma, omega, L)
    assert route == mode
    lam = spectrum.eigenvalues
    interior = spectrum.interior
    assert 0 < interior <= len(spectrum)
    assert interior == np.count_nonzero(np.minimum(lam, 1.0 - lam) > 1e-12)
    # The entropy row carries it.
    assert entropy_row(renyi_entropy(spectrum, 1.0, L, route))[
        "interior"] == interior


def test_pipeline_lattice_requires_symmetric_interval():
    with pytest.raises(GeometryError, match=re.escape(
            "lattice mode needs a symmetric momentum interval (-k_F, k_F)")):
        pipeline_spectrum(LatticeSea(((0.0, 1.0),)), OMEGA, 50.0)
    with pytest.raises(GeometryError, match=re.escape(
            "lattice Fermi momentum must lie in (0, pi), got 4.0")):
        pipeline_spectrum(LatticeSea(((-4.0, 4.0),)), OMEGA, 50.0)


def test_pipeline_lattice_rejects_interval_union():
    # Two intervals are not one block of round(L |omega|) sites.
    two_intervals = IntervalUnion(((0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(GeometryError,
                       match="^lattice mode needs a single spatial interval$"):
        pipeline_spectrum(LatticeSea(((-1.0, 1.0),)), two_intervals, 100.0)


def test_pipeline_lattice_rejects_2d_omega():
    with pytest.raises(GeometryError, match="dimension mismatch"):
        pipeline_spectrum(LatticeSea(((-1.0, 1.0),)), Box(((0.0, 1.0),) * 2),
                          10.0)


def test_lattice_sea_is_its_own_type():
    # The same set as the interval union, but not equal to it: the type
    # alone picks the route.
    sea = LatticeSea(((-1.0, 1.0),))
    assert sea != interval(-1.0, 1.0) and interval(-1.0, 1.0) != sea
    assert sea == LatticeSea(((-1.0, 1.0),))
    assert pipeline_spectrum(sea, OMEGA, 50.0)[2] == "lattice"
    assert pipeline_spectrum(interval(-1.0, 1.0), OMEGA, 50.0)[2] \
        == "prolate"


@pytest.mark.parametrize("mode", ["tensor_box", "auto"])
def test_dimension_mismatch_has_one_message(mode):
    # Forced tensor_box (a box pair passes the mode's type check), the
    # routing by type and the Nystrom assembly all report a gamma/omega
    # dimension mismatch through the one geometry check.
    message = "dimension mismatch: gamma has d=2, omega has d=3"
    square, cube = Box(((-1.0, 1.0),) * 2), Box(((0.0, 1.0),) * 3)
    with pytest.raises(GeometryError, match=message):
        pipeline_spectrum(momenta_for_mode(mode, square, cube), cube, 10.0)
    with pytest.raises(GeometryError, match=message):
        discretize.nystrom(square, cube, L=10.0)


def test_pipeline_lattice_budget():
    gamma = LatticeSea(((-math.pi / 2.0, math.pi / 2.0),))
    with pytest.raises(BudgetError):
        pipeline_spectrum(gamma, OMEGA, 500.0, budget=100)


SQUARE_MOMENTUM, SQUARE = Box(((-1.0, 1.0),) * 2), Box(((0.0, 1.0),) * 2)
HALF_FILLED = LatticeSea(((-math.pi / 2.0, math.pi / 2.0),))


@pytest.mark.parametrize("gamma, omega, L, budget, builder, message", [
    # c = 50: ceil(1.5 c) + 40 = 115 degrees.
    (GAMMA, OMEGA, 100.0, 114, "_prolate_spectrum",
     "115 Legendre degrees, over the budget 114"),
    (interval(-1e300, 1e300), OMEGA, 1e300, None,
     "_prolate_spectrum", "inf Legendre degrees, over the budget 6000"),
    (SQUARE_MOMENTUM, SQUARE, 100.0, 114,
     "_prolate_spectrum",
     "115 Legendre degrees, over the budget 114"),
    (Box(((-1e300, 1e300),) * 2), SQUARE, 1e300, None,
     "_prolate_spectrum", "inf Legendre degrees, over the budget 6000"),
    # n_r = ceil(1.5 k R) + 20 = 23 at R = 2.
    (DISK, DISK, 2.0, 22, "_radial_spectrum",
     "23 radial nodes, over the budget 22"),
    (Ball((0.0, 0.0), 1e300), DISK, 1e300, None,
     "_radial_spectrum", "inf radial nodes, over the budget 6000"),
    (HALF_FILLED, OMEGA, 101.0, 100,
     "_lattice_spectrum", "101 lattice sites, over the budget 100"),
    (HALF_FILLED, interval(0.0, 1e10), 1e300, None,
     "_lattice_spectrum", "inf lattice sites, over the budget 100000"),
], ids=["prolate", "prolate-inf", "tensor", "tensor-inf", "radial",
        "radial-inf", "lattice", "lattice-inf"])
def test_every_route_passes_the_budget_before_building(
        monkeypatch, gamma, omega, L, budget, builder, message):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{builder} was called")

    monkeypatch.setattr(spectra, builder, forbidden)
    with pytest.raises(BudgetError, match=re.escape(f"would need {message}")):
        pipeline_spectrum(gamma, omega, L, budget)


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan],
                         ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("gamma, omega, solver", [
    (HALF_FILLED, OMEGA, "_lattice_spectrum"),
    (GAMMA, OMEGA, "_prolate_spectrum"),
    (SQUARE_MOMENTUM, SQUARE, "_prolate_spectrum"),
    (DISK, DISK, "_radial_spectrum"),
    (GAMMA, IntervalUnion(((0.0, 0.5), (1.0, 1.5))), "eigenvalues"),
], ids=["lattice", "prolate", "tensor_box", "radial", "continuum"])
def test_every_route_refuses_a_dilation_not_above_zero(
        monkeypatch, gamma, omega, solver, L):
    # One check ahead of the routes, with nystrom's message: no route
    # builds anything for L = 0, a negative L or NaN.
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{solver} was called")

    monkeypatch.setattr(spectra, solver, forbidden)
    with pytest.raises(DiscretizationError, match=re.escape(
            f"dilation factor must be positive, got {L}")) as info:
        pipeline_spectrum(gamma, omega, L)
    assert not isinstance(info.value, BudgetError)


class _Solved(Exception):
    """Raised in place of a route's solve: its size passed the gate."""


@pytest.mark.parametrize("gamma, omega, L_fits, L_over, builder, over", [
    # round(L |omega|) sites.
    (HALF_FILLED, OMEGA, 100_000.0, 100_001.0, "_lattice_spectrum",
     "100001 lattice sites, over the budget 100000"),
    # ceil(1.5 c) + 40 degrees per axis at c = L / 2: 6000 at L = 7946.
    (GAMMA, OMEGA, 7946.0, 7947.0, "_prolate_spectrum",
     "6001 Legendre degrees, over the budget 6000"),
    (SQUARE_MOMENTUM, SQUARE, 7946.0, 7947.0, "_prolate_spectrum",
     "6001 Legendre degrees, over the budget 6000"),
    # ceil(1.5 L) + 20 radial nodes: 6000 at L = 3986.5.
    (DISK, DISK, 3986.5, 3987.0, "_radial_spectrum",
     "6001 radial nodes, over the budget 6000"),
    # L = 10 builds a small Nystrom matrix; L = 1e4 needs over 6000 nodes.
    (GAMMA, IntervalUnion(((0.0, 0.5), (1.0, 1.5))), 10.0, 1e4,
     "eigenvalues", "Nystrom nodes, over the budget 6000"),
], ids=["lattice", "prolate", "tensor_box", "radial", "continuum"])
def test_unset_budget_follows_the_mode(monkeypatch, gamma, omega, L_fits,
                                       L_over, builder, over):
    # Unset, the budget is the default of the route taken (the mode of
    # its rows): 100000 lattice sites, else 6000 in the route's unit.
    def solved(*args):
        raise _Solved

    monkeypatch.setattr(spectra, builder, solved)
    with pytest.raises(_Solved):
        pipeline_spectrum(gamma, omega, L_fits)
    with pytest.raises(BudgetError, match=f"{re.escape(over)}$"):
        pipeline_spectrum(gamma, omega, L_over)
    # None, not any falsy budget, is the default: a budget of 0 fits
    # nothing.
    with pytest.raises(BudgetError, match="over the budget 0$"):
        pipeline_spectrum(gamma, omega, L_fits, budget=0)


@pytest.mark.parametrize("gamma, omega, L, size", [
    # c = |gamma| L |omega| / 4 underflows to 0 ...
    (interval(-1e-200, 1e-200), OMEGA, 1e-200, 40),
    (Box(((-1e-200, 1e-200),) * 2), SQUARE, 1e-200, 40 * 40),
    # ... or is subnormal (5e-321).
    (GAMMA, OMEGA, 1e-320, 41),
    (SQUARE_MOMENTUM, SQUARE, 1e-320, 41 * 41),
], ids=["interval-zero", "square-zero", "interval-subnormal",
        "square-subnormal"])
def test_prolate_axis_with_tiny_c(gamma, omega, L, size):
    # No eigenvalue is near 1, so the out-of-band tables, whose interval
    # [1, (size + 30) / c] is not finite at c = 0, are never built.
    spectrum, _, _ = pipeline_spectrum(gamma, omega, L)
    assert len(spectrum) == size
    assert spectrum.eigenvalues[-1] <= 1e-320
    for alpha in (0.25, 1.0, math.inf):
        S = renyi_entropy(spectrum, alpha).S
        assert 0.0 <= S < 1e-70
        if L == 1e-200:
            assert S == 0.0


def test_pipeline_tensor_matches_direct_2d():
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    # The default rule has 4 nodes per axis here and misses by 1.1e-7; at
    # 4 nodes per unit (8 per axis) the gap is 5e-15.
    direct = eigenvalues(nystrom(gamma, omega, 2.0, nodes_per_unit=4.0))
    tensor, _, tensor_mode = pipeline_spectrum(gamma, omega, 2.0)
    assert renyi_entropy(tensor, 1.0).S == pytest.approx(
        renyi_entropy(direct, 1.0).S, abs=1e-10)
    assert tensor_mode == "tensor_box"
    # Each axis is a prolate basis of ceil(1.5 c) + PROLATE_PAD degrees,
    # c = 1 here.
    assert len(tensor) == (math.ceil(1.5) + spectra.PROLATE_PAD) ** 2


def test_pipeline_auto_routing():
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    assert pipeline_spectrum(gamma, omega, 2.0)[2] == "tensor_box"
    assert pipeline_spectrum(GAMMA, OMEGA, 2.0)[2] == "prolate"
    two_intervals = IntervalUnion(((0.0, 1.0), (1.5, 2.5)))
    assert pipeline_spectrum(GAMMA, two_intervals, 2.0)[2] == "continuum"


def test_pipeline_off_center_boxes_take_tensor_route():
    # Neither box is centered: gamma's center is a phase and omega's a
    # translation on each axis, so the tensor route holds.
    gamma = Box(((0.2, 2.2), (-1.5, 0.5)))
    omega = Box(((1.0, 2.0), (-0.5, 1.0)))
    tensor, _, route = pipeline_spectrum(gamma, omega, 2.0)
    direct = eigenvalues(nystrom(gamma, omega, 2.0, nodes_per_unit=4.0))
    assert route == "tensor_box"
    for alpha in (1.0, 2.0, math.inf):
        assert renyi_entropy(tensor, alpha).S == pytest.approx(
            renyi_entropy(direct, alpha).S, abs=1e-12)


# (n, interior, clamp_count) of each route's spectrum, and the most
# entries it may store: exact 0s and 1s are one entry each, and radial
# sector values one entry per sector.
BOOKKEEPING = [
    (HALF_FILLED, OMEGA, 2000.0, (2000, 44, 0), 65),
    (GAMMA, OMEGA, 600.0, (490, 37, 0), 62),
    (Box(((-1.0, 1.0),) * 2), Box(((0.0, 1.0),) * 2), 200.0,
     (36_100, 3842, 0), 3364),
    (Box(((-1.0, 1.0),) * 3), Box(((0.0, 1.0),) * 3), 100.0,
     (1_520_875, 76_630, 0), 125_000),
    (DISK, DISK, 8.0, (1376, 127, 577), 704),
    (BALL3, BALL3, 16.0, (45_056, 2560, 19_440), 1408),
]


@pytest.mark.parametrize("gamma, omega, L, counts, entries", BOOKKEEPING,
                         ids=["lattice", "interval", "square", "cube",
                              "disk", "ball3"])
def test_multiplicities_count_every_eigenvalue(gamma, omega, L, counts,
                                               entries):
    spectrum, _, _ = pipeline_spectrum(gamma, omega, L)
    assert (len(spectrum), spectrum.interior, spectrum.clamp_count) == counts
    assert spectrum.values.size <= entries
    lam = spectrum.eigenvalues
    assert len(lam) == len(spectrum)
    for alpha in (0.25, 1.0, 2.0, math.inf):
        assert renyi_entropy(spectrum, alpha).S == pytest.approx(
            entropy_function(lam, alpha).sum(), rel=1e-12)


def test_pipeline_unknown_mode():
    # The library takes no mode; the mode key is refused where it is read.
    with pytest.raises(ValueError):
        mode_from_config(RunConfig({"mode": "exact"}))


def test_pipeline_config_refuses_continuum_mode():
    # The Nystrom matrix is the route the types pick for interval unions
    # and mixed pairs, and eigenvalues(nystrom(...)) is the oracle for any
    # pair, so continuum is no mode.
    for mode in ("auto", "lattice", "tensor_box"):
        assert mode_from_config(RunConfig({"mode": mode}))[0] == mode
    with pytest.raises(ValueError, match="unknown mode 'continuum'"):
        mode_from_config(RunConfig({"mode": "continuum"}))
    two_intervals = IntervalUnion(((0.0, 0.5), (1.0, 1.5)))
    assert pipeline_spectrum(GAMMA, two_intervals, 10.0)[2] == "continuum"


def test_pipeline_entropy_stable_under_refinement():
    # +50% node density moves the entropy by far less than the fit
    # tolerances; this is the resolution self-consistency check.
    base = eigenvalues(nystrom(GAMMA, OMEGA, 50.0))
    fine = eigenvalues(nystrom(GAMMA, OMEGA, 50.0, nodes_per_unit=3.0))
    assert len(base) < len(fine)
    assert abs(renyi_entropy(fine, 1.0).S - renyi_entropy(base, 1.0).S) < 1e-4


def test_pipeline_alpha_consistency_with_direct_sum():
    two_intervals = IntervalUnion(((0.0, 0.5), (1.0, 1.5)))
    op = nystrom(GAMMA, two_intervals, L=10.0)
    spectrum = eigenvalues(op)
    direct = renyi_entropy(spectrum, 2.0).S
    piped = renyi_entropy(pipeline_spectrum(
        GAMMA, two_intervals, 10.0)[0], 2.0).S
    assert piped == pytest.approx(direct, rel=1e-12)
