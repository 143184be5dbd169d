"""Shape catalog and the boundary coefficient J."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from fermient import geometry, spectra
from fermient.geometry import (
    Ball,
    Box,
    ConvexPolygon,
    GeometryError,
    IntervalUnion,
    LatticeSea,
    interval,
    widom_J,
    widom_J_monte_carlo,
)

TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
DISK = Ball((0.0, 0.0), 1.0)
BALL3 = Ball((0.0, 0.0, 0.0), 1.0)
CUBE = Box(((0.0, 1.0),) * 3)
SQUARE = Box(((0.0, 1.0), (0.0, 1.0)))


# ---------------------------------------------------------------------------
# Construction and invariants
# ---------------------------------------------------------------------------

def test_interval_union_sorted_and_disjoint():
    union = IntervalUnion(((2.0, 3.0), (-1.0, 0.5)))
    assert union.intervals == ((-1.0, 0.5), (2.0, 3.0))
    assert union.volume() == pytest.approx(2.5)
    assert union.boundary_measure() == 4.0


@pytest.mark.parametrize("bad", [
    (),
    (((0.0, 0.0),)),
    (((1.0, 0.0),)),
    (((0.0, 1.0), (0.5, 2.0))),
    (((0.0, 1.0), (1.0, 2.0))),      # touching endpoints are not disjoint
])
def test_interval_union_rejects_degenerate(bad):
    with pytest.raises(GeometryError):
        IntervalUnion(tuple(bad))


def test_box_and_ball_validation():
    with pytest.raises(GeometryError):
        Box(((0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(GeometryError):
        Box(tuple((0.0, 1.0) for _ in range(4)))
    with pytest.raises(GeometryError):
        Ball((0.0, 0.0), 0.0)
    with pytest.raises(GeometryError):
        Ball((0.0,) * 4, 1.0)
    # IntervalUnion is the only 1D shape.
    with pytest.raises(GeometryError, match="box dimension 1"):
        Box(((0, 1),))
    with pytest.raises(GeometryError, match="ball dimension 1"):
        Ball((0.0,), 1.0)


@pytest.mark.parametrize("build", [
    lambda bad: IntervalUnion(((0.0, 1.0), (2.0, bad))),
    lambda bad: IntervalUnion(((-bad, 1.0),)),
    lambda bad: Box(((0.0, 1.0), (0.0, bad))),
    lambda bad: Box(((-bad, 1.0), (0.0, 1.0))),
    lambda bad: Ball((0.0, bad), 1.0),
    lambda bad: Ball((0.0, 0.0, 0.0), bad),
    lambda bad: ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (bad, 1.0))),
    lambda bad: ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, bad))),
], ids=["union-end", "union-start", "box-hi", "box-lo", "ball-center",
        "ball-radius", "polygon-x", "polygon-y"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_shapes_reject_non_finite_coordinates(build, bad):
    with pytest.raises(GeometryError, match="must be finite"):
        build(bad)


def test_polygon_orientation_and_convexity():
    with pytest.raises(GeometryError):
        ConvexPolygon(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))   # clockwise
    with pytest.raises(GeometryError):
        ConvexPolygon(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(GeometryError):
        # collinear mid-vertex: not strictly convex
        ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0)))


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def test_volumes():
    assert Ball((0.0, 0.0), 1.0).volume() == pytest.approx(math.pi)
    assert interval(-1.0, 1.0).volume() == 2.0
    assert Box(((0.0, 1.0), (0.0, 1.0))).volume() == 1.0
    assert Ball((0.0, 0.0, 0.0), 1.0).volume() == pytest.approx(4 * math.pi / 3)
    assert TRIANGLE.volume() == pytest.approx(0.5)


def test_boundary_measures():
    assert IntervalUnion(((0.0, 1.0), (2.0, 3.0))).boundary_measure() == 4.0
    assert Ball((0.0, 0.0), 1.0).boundary_measure() == pytest.approx(2 * math.pi)
    assert Box(((0.0, 1.0), (0.0, 1.0))).boundary_measure() == 4.0
    assert Box(((0.0, 1.0),) * 3).boundary_measure() == 6.0
    assert TRIANGLE.boundary_measure() == pytest.approx(2.0 + math.sqrt(2.0))


def test_scaling_laws():
    for domain in (interval(-1.0, 1.0), Box(((0.0, 2.0), (0.0, 1.0))),
                   Ball((0.0, 0.0), 1.5), TRIANGLE):
        d = domain.dim
        big = domain.scaled(3.0)
        assert big.volume() == pytest.approx(3.0 ** d * domain.volume())
        if d >= 2:
            assert big.boundary_measure() == pytest.approx(
                3.0 ** (d - 1) * domain.boundary_measure())
    with pytest.raises(GeometryError):
        interval(0.0, 1.0).scaled(-2.0)


def test_scaled_lattice_sea_keeps_its_type_and_route():
    # The type picks the lattice route, so a dilated sea stays a
    # LatticeSea and a dilated plain interval union stays continuum.
    sea = LatticeSea(((-1.0, 1.0),)).scaled(0.5)
    assert type(sea) is LatticeSea and sea.intervals == ((-0.5, 0.5),)
    assert spectra.pipeline_spectrum(sea, interval(0.0, 1.0), 20.0)[2] \
        == "lattice"
    assert type(interval(-1.0, 1.0).scaled(0.5)) is IntervalUnion


def test_momentum_bound():
    assert interval(-2.0, 0.5).momentum_bound() == 2.0
    assert Ball((1.0, 0.0), 0.5).momentum_bound() == pytest.approx(1.5)
    assert Box(((-1.0, 1.0), (-2.0, 0.5))).momentum_bound() == pytest.approx(
        math.sqrt(1.0 + 4.0))


def test_central_symmetry_flags():
    assert interval(-1.0, 1.0).is_centrally_symmetric
    assert not interval(0.0, 1.0).is_centrally_symmetric
    assert IntervalUnion(((-2.0, -1.0), (1.0, 2.0))).is_centrally_symmetric
    assert Box(((-1.0, 1.0), (-0.5, 0.5))).is_centrally_symmetric
    assert not Ball((0.1, 0.0), 1.0).is_centrally_symmetric


def test_central_symmetry_is_exact():
    # A 1e-10 asymmetry is an asymmetric region: its kernel is complex.
    assert not interval(-1.0, 1.0 + 1e-10).is_centrally_symmetric
    assert not IntervalUnion(((-2.0, -1.0), (1.0, 2.0 + 1e-10))) \
        .is_centrally_symmetric
    assert not Box(((-1.0, 1.0), (-0.5, 0.5 + 1e-10))).is_centrally_symmetric
    assert not Box(((-1.0 - 1e-10, 1.0),) * 3).is_centrally_symmetric


# ---------------------------------------------------------------------------
# Surface quadratures and faces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain", [
    Ball((0.0, 0.0), 1.0),
    Ball((1.0, -2.0, 0.5), 0.8),
    Box(((0.0, 1.0), (0.0, 1.0))),
    Box(((0.0, 2.0), (-1.0, 1.0), (0.0, 0.5))),
    TRIANGLE,
])
def test_surface_quadrature_invariants(domain):
    rule = domain.surface_quadrature(24)
    assert np.all(rule.weights > 0)
    np.testing.assert_allclose(np.linalg.norm(rule.normals, axis=1), 1.0,
                               atol=1e-12)
    assert rule.weights.sum() == pytest.approx(domain.boundary_measure(),
                                               rel=1e-12)
    assert len(rule) == len(rule.normals)
    # Each boundary is closed, so its weighted normals sum to zero.
    np.testing.assert_allclose(rule.weights @ rule.normals, 0.0, atol=1e-13)


@pytest.mark.parametrize("domain", [
    Box(((0.0, 2.0), (-1.0, 1.0))),
    Box(((0.0, 2.0), (-1.0, 1.0), (0.0, 0.5))),
    TRIANGLE,
])
@pytest.mark.parametrize("resolution", [1, 24, 256])
def test_polytope_rule_is_its_face_list(domain, resolution):
    rule = domain.surface_quadrature(resolution)
    measures, normals = zip(*domain.faces())
    np.testing.assert_array_equal(rule.weights, measures)
    np.testing.assert_array_equal(rule.normals, normals)


def test_surface_quadrature_normals_point_outward():
    box = Box(((0.0, 2.0), (-1.0, 1.0), (0.0, 0.5)))
    centroid = np.array([sum(b) / 2 for b in box.bounds])
    midpoints = []
    for axis, (lo, hi) in enumerate(box.bounds):
        for value in (lo, hi):
            midpoint = centroid.copy()
            midpoint[axis] = value
            midpoints.append(midpoint)
    rule = box.surface_quadrature(8)
    assert np.all(np.einsum("ij,ij->i", rule.normals,
                            np.array(midpoints) - centroid) > 0)

    vertices = np.array(TRIANGLE.vertices)
    edges = np.roll(vertices, -1, axis=0) - vertices
    midpoints = vertices + 0.5 * edges
    rule = TRIANGLE.surface_quadrature(8)
    np.testing.assert_allclose(np.einsum("ij,ij->i", rule.normals, edges),
                               0.0, atol=1e-15)
    assert np.all(np.einsum("ij,ij->i", rule.normals,
                            midpoints - vertices.mean(axis=0)) > 0)


def test_surface_quadrature_rejects_1d():
    with pytest.raises(GeometryError):
        interval(0.0, 1.0).surface_quadrature(8)


def test_faces():
    faces = Box(((0.0, 2.0), (0.0, 1.0))).faces()
    assert len(faces) == 4
    assert sum(measure for measure, _ in faces) == pytest.approx(6.0)
    for measure, normal in TRIANGLE.faces():
        assert measure > 0
        assert np.linalg.norm(normal) == pytest.approx(1.0)
    with pytest.raises(GeometryError):
        Ball((0.0, 0.0), 1.0).faces()


# ---------------------------------------------------------------------------
# Boundary coefficient J
# ---------------------------------------------------------------------------

def test_widom_J_1d_endpoint_products():
    one = interval(-1.0, 1.0)
    two = IntervalUnion(((0.0, 1.0), (2.0, 3.0)))
    assert widom_J(one, interval(0.0, 1.0)).value == 4.0
    assert widom_J(two, interval(0.0, 1.0)).value == 8.0
    assert widom_J(two, two).value == 16.0
    assert widom_J(one, one).method == "closed_form"
    assert widom_J(one, one).error_estimate == 0.0


def test_widom_J_square_pair_exact():
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    result = widom_J(gamma, omega)
    assert result.method == "face_pair_exact"
    assert result.value == pytest.approx(8.0 / math.pi, rel=1e-14)


def test_widom_J_quadrature_matches_face_pairs():
    # The unit square against the unit disk equals the face-pair value
    # of the square pair, 8/pi; only the disk side is discretized.
    square = Box(((0.0, 1.0), (0.0, 1.0)))
    exact = widom_J(Box(((-1.0, 1.0), (-1.0, 1.0))), square).value
    assert exact == pytest.approx(8.0 / math.pi, rel=1e-14)
    quad = widom_J(square, Ball((0.0, 0.0), 1.0), resolution=64)
    assert quad.method == "quadrature"
    assert abs(quad.value - exact) <= quad.error_estimate


def test_widom_J_disk_pair():
    disk = Ball((0.0, 0.0), 1.0)
    closed = widom_J(disk, disk)
    assert closed.method == "closed_form"
    assert closed.value == pytest.approx(4.0, rel=1e-14)
    quad = widom_J(disk, disk, resolution=512)
    assert abs(quad.value - 4.0) < 1e-3


def test_widom_J_polygon_pair():
    # Triangle against itself: exact face pairs, invariant under scaling.
    result = widom_J(TRIANGLE, TRIANGLE)
    assert result.method == "face_pair_exact"
    # Triangle against the unit disk: the disk side is discretized and
    # the closed form (2/pi)(2 + sqrt 2) is the reference.
    disk = Ball((0.0, 0.0), 1.0)
    exact = widom_J(disk, TRIANGLE).value
    assert exact == pytest.approx(2.0 / math.pi * (2.0 + math.sqrt(2.0)),
                                  rel=1e-14)
    quad = widom_J(TRIANGLE, disk, resolution=128)
    assert abs(quad.value - exact) <= quad.error_estimate


def test_widom_J_swap_symmetry():
    # The raw double integral is swap-invariant; the prefactor only
    # depends on d, so J itself is symmetric in its two arguments.
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    assert widom_J(gamma, TRIANGLE).value == pytest.approx(
        widom_J(TRIANGLE, gamma).value, rel=1e-14)
    disk = Ball((0.0, 0.0), 1.0)
    forward = widom_J(disk, gamma).value              # closed form
    backward = widom_J(gamma, disk, resolution=512).value
    assert backward == pytest.approx(forward, rel=1e-4)


def test_widom_J_closed_form_takes_the_ball_from_either_side():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    result = widom_J(Box(((-1.0, 1.0),) * 3), ball)
    assert result.method == "closed_form"
    assert result.value == pytest.approx(12.0 / math.pi, abs=1e-14)
    hexagon = ConvexPolygon(tuple(
        (math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0))
        for k in range(6)))
    disk = Ball((0.0, 0.0), 1.0)
    assert widom_J(hexagon, disk).method == "closed_form"
    assert widom_J(hexagon, disk).value == widom_J(disk, hexagon).value


@pytest.mark.parametrize("factor", [2.0, 3.0])
def test_widom_J_dilation_scaling(factor):
    pairs = [
        (Box(((-1.0, 1.0), (-1.0, 1.0))), Box(((0.0, 1.0), (0.0, 1.0)))),
        (Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 1.0)),
        (TRIANGLE, TRIANGLE),
    ]
    for gamma, omega in pairs:
        base = widom_J(gamma, omega).value
        dilated = widom_J(gamma, omega.scaled(factor)).value
        d = gamma.dim
        assert dilated == pytest.approx(factor ** (d - 1) * base, rel=1e-12)


def test_widom_J_sphere_values():
    # A spherical boundary of radius p, gamma's or omega's, has the
    # closed form 2 / h! (p^2 / 4 pi)^h |d other|, h = (d - 1) / 2.
    square = Box(((0.0, 0.5 * math.pi),) * 2)    # perimeter 2 pi
    for gamma, omega in ((DISK, square), (square, DISK)):
        J = widom_J(gamma, omega)
        assert J.method == "closed_form"
        assert J.value == pytest.approx(4.0, rel=1e-15)
    # d = 3 unit sphere at unit Fermi momentum: 2 * (1/4pi) * 4pi = 2.
    assert widom_J(BALL3, BALL3).value == pytest.approx(2.0, rel=1e-15)
    # J grows as p^(d-1).
    assert widom_J(Ball((0.0, 0.0), 3.0), DISK).value \
        == pytest.approx(12.0, rel=1e-15)
    assert widom_J(Ball((0.0, 0.0, 0.0), 3.0), BALL3).value \
        == pytest.approx(18.0, rel=1e-15)


def test_widom_J_sphere_matches_quadrature_in_3d():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    closed = widom_J(ball, ball).value
    quad = widom_J(ball, ball, resolution=96).value
    assert closed == pytest.approx(2.0, rel=1e-12)
    assert abs(quad - closed) < 1e-3


def test_cosine_sum_holds_one_block():
    # |qa| = 3200 rows in blocks of 36 against |qb| = 7200 columns: the
    # peak is one buffer of at most COSINE_BLOCK_FLOATS floats, not a
    # product and its abs copy, nor a block of a fixed row count.
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    qa, qb = ball.surface_quadrature(40), ball.surface_quadrature(60)
    assert (len(qa), len(qb)) == (3200, 7200)
    tracemalloc.start()
    try:
        geometry._cosine_sum(qa, qb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * geometry.COSINE_BLOCK_FLOATS * 8


def test_widom_J_quadrature_refuses_oversized_pair_block(monkeypatch):
    def forbidden(qa, qb):
        raise AssertionError("pair block built past the limit")

    monkeypatch.setattr(geometry, "_cosine_sum", forbidden)
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    # (2 * 256^2)^2 = 1.7e10 sphere node pairs at resolution 256.
    with pytest.raises(GeometryError, match="largest resolution that fits "
                                            "is 105$"):
        widom_J(ball, ball, resolution=256)
    # 4 * 105^4 = 4.9e8 pairs fit under the limit; 4 * 106^4 do not.
    assert 4 * 105 ** 4 <= geometry.MAX_COSINE_PAIRS < 4 * 106 ** 4
    with pytest.raises(GeometryError, match="resolution 106 "):
        widom_J(ball, ball, resolution=106)


def test_widom_J_quadrature_refuses_rule_over_node_cap(monkeypatch):
    def forbidden(qa, qb):
        raise AssertionError("pair block built past the limit")

    ball_rule = Ball.surface_quadrature

    def counted_only(self, resolution):
        if resolution > 1:
            raise AssertionError("sphere rule built past the limit")
        return ball_rule(self, resolution)

    monkeypatch.setattr(geometry, "_cosine_sum", forbidden)
    monkeypatch.setattr(Ball, "surface_quadrature", counted_only)
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    cube = Box(((0.0, 1.0),) * 3)
    # 6 faces x 2 * 10^12 sphere nodes: the pair root is 6454, but one
    # sphere rule may hold at most 2 * 1414^2 nodes.
    assert 2 * 1414 ** 2 <= geometry.MAX_SURFACE_NODES < 2 * 1415 ** 2
    for gamma, omega in ((cube, ball), (ball, cube)):
        with pytest.raises(GeometryError, match="largest resolution that "
                                                "fits is 1414$"):
            widom_J(gamma, omega, resolution=10 ** 6)
    assert geometry._largest_resolution(cube, ball, 1414) == 1414


def test_widom_J_monte_carlo_within_error():
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    exact = widom_J(gamma, omega).value
    estimate = widom_J_monte_carlo(gamma, omega, samples=100_000,
                                   rng=np.random.default_rng(42))
    assert estimate.method == "monte_carlo"
    assert abs(estimate.value - exact) < estimate.error_estimate


@pytest.mark.parametrize("domain", [
    Box(((0.0, 1.0), (0.0, 2.0), (0.0, 3.0))),
    ConvexPolygon(((0.0, 0.0), (3.0, 0.0), (2.0, 1.5), (0.0, 1.0))),
])
def test_sampled_normals_follow_face_measures(domain):
    faces = domain.faces()
    count = 100_000
    k, sampler = geometry._normal_sampler(domain, count)
    normals = sampler(np.random.default_rng(5).random((k, count)))
    assert normals.shape == (domain.dim, count)
    hits = np.array([np.all(normals == n[:, None], axis=0).sum()
                     for _, n in faces])
    assert hits.sum() == count          # every sample is some face normal
    share = np.array([m for m, _ in faces]) / domain.boundary_measure()
    sigma = np.sqrt(count * share * (1.0 - share))
    assert np.all(np.abs(hits - count * share) < 5.0 * sigma)


# The former rules, kept as oracles: the sphere rule on a meshgrid of
# (z, azimuth), with cos and sin at every node, and Monte Carlo normals
# as (m, d) rows, polytope faces found by searchsorted and gathered by
# fancy index, the dot products by einsum.

def _meshgrid_sphere_rule(resolution, r):
    nz, nphi = resolution, 2 * resolution
    z, wz = np.polynomial.legendre.leggauss(nz)
    phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
    Z, PHI = np.meshgrid(z, phi, indexing="ij")
    rho = np.sqrt(np.maximum(1.0 - Z ** 2, 0.0))
    normals = np.stack([(rho * np.cos(PHI)).ravel(),
                        (rho * np.sin(PHI)).ravel(), Z.ravel()], axis=1)
    weights = (np.repeat(wz, nphi) * (2.0 * math.pi / nphi)) * r * r
    return weights, normals


def _gathered_sampler(domain):
    if isinstance(domain, Ball):
        if domain.dim == 2:
            def normals(u):
                theta = 2.0 * math.pi * u[:, 0]
                return np.stack([np.cos(theta), np.sin(theta)], axis=1)
            return 1, normals

        def normals(u):
            z = 2.0 * u[:, 0] - 1.0
            phi = 2.0 * math.pi * u[:, 1]
            rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        return 2, normals
    faces = domain.surface_quadrature(1)
    cdf = np.cumsum(faces.weights)
    cdf /= cdf[-1]
    return 1, lambda u: faces.normals[np.searchsorted(cdf, u[:, 0],
                                                      side="right")]


def _gathered_monte_carlo(gamma, omega, samples, rng):
    k_gamma, gamma_normals = _gathered_sampler(gamma)
    k_omega, omega_normals = _gathered_sampler(omega)
    count, mean, square_sum = 0, 0.0, 0.0
    for start in range(0, samples, geometry.MC_CHUNK):
        size = min(geometry.MC_CHUNK, samples - start)
        u = rng.random((size, k_gamma + k_omega))
        vals = np.abs(np.einsum("ij,ij->i", gamma_normals(u[:, :k_gamma]),
                                omega_normals(u[:, k_gamma:])))
        chunk_mean = float(vals.mean())
        vals -= chunk_mean
        delta = chunk_mean - mean
        total = count + size
        mean += delta * size / total
        square_sum += float(vals @ vals) + delta * delta * count * size / total
        count = total
    scale = ((2.0 * math.pi) ** (1 - gamma.dim) * gamma.boundary_measure()
             * omega.boundary_measure())
    stderr = math.sqrt(square_sum / (samples - 1) / samples)
    return scale * mean, 3.0 * scale * stderr


@pytest.mark.parametrize("resolution", [1, 2, 64, 256])
def test_sphere_rule_equals_the_meshgrid_rule(resolution):
    rule = Ball((1.0, 2.0, 3.0), 1.5).surface_quadrature(resolution)
    weights, normals = _meshgrid_sphere_rule(resolution, 1.5)
    assert np.array_equal(rule.weights, weights)
    assert np.array_equal(rule.normals, normals)
    assert rule.normals.flags.c_contiguous


POLYGON = ConvexPolygon(((0.0, 0.0), (3.0, 0.0), (2.0, 1.5), (0.0, 1.0)))


@pytest.mark.parametrize("gamma, omega", [
    (BALL3, CUBE), (Box(((-1.0, 1.0),) * 3), BALL3), (DISK, SQUARE),
    (TRIANGLE, POLYGON), (POLYGON, DISK), (SQUARE, TRIANGLE),
], ids=["ball3-box3", "box3-ball3", "disk-square", "polygon-pair",
        "polygon-disk", "square-triangle"])
@pytest.mark.parametrize("seed", [0, 1, 17, 701])
def test_widom_J_monte_carlo_equals_the_gathered_estimate(gamma, omega,
                                                          seed):
    # The same uniforms give the same normals, and in these pairs every
    # sample's dot product has at most two nonzero terms, so its sum
    # does not depend on their order: the estimate is bit-identical.
    estimate = widom_J_monte_carlo(gamma, omega,
                                   rng=np.random.default_rng(seed))
    expected = _gathered_monte_carlo(gamma, omega, 200_000,
                                     np.random.default_rng(seed))
    assert (estimate.value, estimate.error_estimate) == expected


@pytest.mark.parametrize("seed", [0, 5, 18, 22])
def test_widom_J_monte_carlo_on_a_ball_pair_is_within_two_ulps(seed):
    # Two general 3D normals have three nonzero products.  They are added
    # in axis order, where einsum may group them otherwise (numpy's
    # 128-bit vector loop adds the third to the first), so a sample can
    # move by an ulp and the estimate by about one: 1 ulp at most over
    # seeds 0-99, moved at 4 of the 30 seeds 0-29.
    estimate = widom_J_monte_carlo(BALL3, BALL3,
                                   rng=np.random.default_rng(seed))
    value, error = _gathered_monte_carlo(BALL3, BALL3, 200_000,
                                         np.random.default_rng(seed))
    ulps = 2 * np.finfo(float).eps
    assert estimate.value == pytest.approx(value, rel=ulps, abs=0)
    assert estimate.error_estimate == pytest.approx(error, rel=ulps, abs=0)


@pytest.mark.parametrize("ball_first", [True, False])
def test_widom_J_monte_carlo_3d_within_error(ball_first):
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    cube = Box(((-1.0, 1.0),) * 3)
    gamma, omega = (ball, cube) if ball_first else (cube, ball)
    # J is symmetric in its two boundaries, so both orders have the
    # closed form of the spherical momentum region.
    exact = widom_J(ball, cube).value
    estimate = widom_J_monte_carlo(gamma, omega,
                                   rng=np.random.default_rng(3))
    assert abs(estimate.value - exact) < estimate.error_estimate


@pytest.mark.parametrize("gamma, omega", [
    (BALL3, CUBE), (CUBE, BALL3), (DISK, SQUARE), (BALL3, BALL3),
    (TRIANGLE, ConvexPolygon(((0.0, 0.0), (3.0, 0.0), (2.0, 1.5),
                              (0.0, 1.0)))),
], ids=["ball3-box3", "box3-ball3", "disk-square", "ball3-ball3",
        "polygon-pair"])
def test_widom_J_monte_carlo_does_not_depend_on_chunk_size(monkeypatch,
                                                           gamma, omega):
    # Each sample takes one row of uniforms, so the draws are the same
    # sequence at any chunk size; only the merge of the chunks' sums
    # rounds differently.
    samples = 50_000

    def estimate():
        return widom_J_monte_carlo(gamma, omega, samples,
                                   np.random.default_rng(17))

    default = estimate()
    for chunk in (1000, samples):
        monkeypatch.setattr(geometry, "MC_CHUNK", chunk)
        other = estimate()
        assert other.value == pytest.approx(default.value, rel=1e-14, abs=0)
        assert other.error_estimate == pytest.approx(default.error_estimate,
                                                     rel=1e-14, abs=0)


def test_widom_J_monte_carlo_memory_does_not_grow_with_samples():
    # Holding 2e6 normals of each side at once takes 122 MiB traced;
    # chunks of MC_CHUNK samples hold about 1.4 MiB.
    tracemalloc.start()
    try:
        widom_J_monte_carlo(BALL3, CUBE, samples=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("samples", [0, 1, -5, 2.5])
def test_widom_J_monte_carlo_refuses_bad_sample_count(samples):
    with pytest.raises(GeometryError, match=r"^samples: need an integer "
                                            r">= 2, got "):
        widom_J_monte_carlo(DISK, SQUARE, samples)


def test_widom_J_monte_carlo_takes_numpy_integer_samples():
    estimate = widom_J_monte_carlo(DISK, SQUARE, np.int64(2))
    assert np.isfinite(estimate.error_estimate)


def test_widom_J_argument_errors():
    disk = Ball((0.0, 0.0), 1.0)
    with pytest.raises(GeometryError):
        widom_J(disk, interval(0.0, 1.0))
    # One exact route per pair: no switch to force another.
    assert list(inspect.signature(widom_J).parameters) == [
        "gamma", "omega", "resolution"]
    with pytest.raises(TypeError):
        widom_J(disk, disk, method="closed_form")


def test_widom_J_polytope_quadrature_is_the_face_pair_sum():
    # A polytope's rule is its face list at every resolution, so its
    # quadrature repeats the exact sum bit for bit, with a zero estimate.
    square = Box(((-1.0, 1.0), (-1.0, 1.0)))
    exact = widom_J(square, TRIANGLE)
    for resolution in (1, 8, 256):
        quad = widom_J(square, TRIANGLE, resolution)
        assert quad.method == "quadrature"
        assert (quad.value, quad.error_estimate) == (exact.value, 0.0)
