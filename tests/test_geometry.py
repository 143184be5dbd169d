"""Shape catalog and the boundary coefficient J."""

import math

import numpy as np
import pytest

from fermient import geometry
from fermient.geometry import (
    Ball,
    Box,
    ConvexPolygon,
    GeometryError,
    IntervalUnion,
    domain_from_dict,
    interval,
    mean_density,
    widom_J,
    widom_J_density_form,
    widom_J_monte_carlo,
    widom_J_sphere,
)

TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


# ---------------------------------------------------------------------------
# Construction and invariants
# ---------------------------------------------------------------------------

def test_interval_union_sorted_and_disjoint():
    union = IntervalUnion(((2.0, 3.0), (-1.0, 0.5)))
    assert union.intervals == ((-1.0, 0.5), (2.0, 3.0))
    assert union.volume() == pytest.approx(2.5)
    assert union.boundary_measure() == 4.0
    np.testing.assert_allclose(union.endpoints(), [-1.0, 0.5, 2.0, 3.0])


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


def test_mean_density():
    assert mean_density(interval(-math.pi, math.pi)) == pytest.approx(1.0)
    assert mean_density(Ball((0.0, 0.0), 1.0)) == pytest.approx(1 / (4 * math.pi))
    assert mean_density(interval(-0.7, 0.7)) == pytest.approx(0.7 / math.pi)


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
    assert len(rule) == len(rule.points) == len(rule.normals)


def test_surface_quadrature_normals_point_outward():
    ball = Ball((2.0, -1.0), 1.5)
    rule = ball.surface_quadrature(16)
    radial = (rule.points - np.array(ball.center)) / ball.radius
    np.testing.assert_allclose(rule.normals, radial, atol=1e-12)

    centroid = np.mean(np.array(TRIANGLE.vertices), axis=0)
    rule = TRIANGLE.surface_quadrature(8)
    assert np.all(np.einsum("ij,ij->i", rule.normals,
                            rule.points - centroid) > 0)


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
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain", [
    IntervalUnion(((-2.0, -0.5), (0.25, 1.5))),
    Box(((-1.0, 1.0), (0.0, 0.5))),
    Ball((0.5, -0.25, 1.0), 2.0),
    TRIANGLE,
])
def test_describe_round_trip(domain):
    assert domain_from_dict(domain.describe()) == domain


def test_domain_from_dict_rejects_unknown():
    with pytest.raises(GeometryError):
        domain_from_dict({"shape": "torus"})


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
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    exact = widom_J(gamma, omega).value
    quad = widom_J(gamma, omega, resolution=64, method="quadrature")
    assert quad.method == "quadrature"
    assert abs(quad.value - exact) < 1e-6
    assert abs(quad.value - exact) <= quad.error_estimate + 1e-12


def test_widom_J_disk_pair():
    disk = Ball((0.0, 0.0), 1.0)
    closed = widom_J(disk, disk)
    assert closed.method == "closed_form"
    assert closed.value == pytest.approx(4.0, rel=1e-14)
    quad = widom_J(disk, disk, resolution=512, method="quadrature")
    assert abs(quad.value - 4.0) < 1e-3


def test_widom_J_polygon_pair():
    # Triangle against itself: exact face pairs, invariant under scaling.
    result = widom_J(TRIANGLE, TRIANGLE)
    assert result.method == "face_pair_exact"
    quad = widom_J(TRIANGLE, TRIANGLE, resolution=128, method="quadrature")
    assert quad.value == pytest.approx(result.value, rel=1e-10)


def test_widom_J_swap_symmetry():
    # The raw double integral is swap-invariant; the prefactor only
    # depends on d, so J itself is symmetric in its two arguments.
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    assert widom_J(gamma, TRIANGLE).value == pytest.approx(
        widom_J(TRIANGLE, gamma).value, rel=1e-14)
    disk = Ball((0.0, 0.0), 1.0)
    forward = widom_J(disk, gamma).value              # closed form
    backward = widom_J(gamma, disk, resolution=512).value   # quadrature
    assert backward == pytest.approx(forward, rel=1e-4)


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
    assert widom_J_sphere(1.0, 2 * math.pi, 2) == pytest.approx(4.0)
    assert widom_J_sphere(1.0, 2.0, 1) == pytest.approx(4.0)
    # d=3 unit sphere at unit Fermi momentum: 2 * (1/4pi) * 4pi = 2.
    assert widom_J_sphere(1.0, 4 * math.pi, 3) == pytest.approx(2.0)
    with pytest.raises(GeometryError):
        widom_J_sphere(-1.0, 1.0, 2)
    with pytest.raises(GeometryError):
        widom_J_sphere(1.0, 1.0, 4)


def test_widom_J_sphere_matches_quadrature_in_3d():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    closed = widom_J(ball, ball).value
    quad = widom_J(ball, ball, resolution=96, method="quadrature").value
    assert closed == pytest.approx(2.0, rel=1e-12)
    assert abs(quad - closed) < 1e-3


def test_widom_J_quadrature_refuses_oversized_pair_block(monkeypatch):
    def forbidden(qa, qb):
        raise AssertionError("pair block built past the limit")

    monkeypatch.setattr(geometry, "_cosine_sum", forbidden)
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    cube = Box(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
    # 2 * 256^2 sphere nodes times 6 * 256^2 face nodes = 5.2e10 pairs.
    with pytest.raises(GeometryError, match="largest resolution that fits "
                                            "is 80$"):
        widom_J(ball, cube, method="quadrature")
    # 12 * 80^4 = 4.9e8 pairs fit under the limit; 12 * 81^4 do not.
    assert 12 * 80 ** 4 <= geometry.MAX_COSINE_PAIRS < 12 * 81 ** 4
    with pytest.raises(GeometryError, match="resolution 81 "):
        widom_J(cube, ball, resolution=81, method="quadrature")


def test_widom_J_density_form_agrees():
    disk = Ball((0.0, 0.0), 1.0)
    assert widom_J_density_form(disk, disk) == pytest.approx(
        widom_J(disk, disk).value, rel=1e-12)
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    assert widom_J_density_form(ball, ball) == pytest.approx(
        widom_J_sphere(1.0, 4 * math.pi, 3), rel=1e-12)
    with pytest.raises(GeometryError):
        widom_J_density_form(Box(((-1.0, 1.0), (-1.0, 1.0))), disk)


def test_widom_J_monte_carlo_within_error():
    gamma = Box(((-1.0, 1.0), (-1.0, 1.0)))
    omega = Box(((0.0, 1.0), (0.0, 1.0)))
    exact = widom_J(gamma, omega).value
    estimate = widom_J_monte_carlo(gamma, omega, samples=100_000,
                                   rng=np.random.default_rng(42))
    assert estimate.method == "monte_carlo"
    assert abs(estimate.value - exact) < estimate.error_estimate


def test_widom_J_argument_errors():
    disk = Ball((0.0, 0.0), 1.0)
    with pytest.raises(GeometryError):
        widom_J(disk, interval(0.0, 1.0))
    with pytest.raises(GeometryError):
        widom_J(disk, disk, method="face_pair")
    with pytest.raises(GeometryError):
        widom_J(Box(((-1.0, 1.0), (-1.0, 1.0))), disk, method="closed_form")
    with pytest.raises(GeometryError):
        widom_J(disk, disk, method="simpson")
