"""Geometry catalog for Fermi seas and spatial regions.

The library works with a fixed catalog of shapes: unions of disjoint
intervals (the only d=1 shape, of lattice momenta as a LatticeSea),
axis-aligned boxes and balls in d in {2, 3}, and strictly convex
polygons (d=2).  A shape can play either role: the momentum region
whose occupied states define the ground state, or the position region
the state is reduced to.

Everything is dimensionless with hbar = 1, so the cosine-transform
surface coefficient

    J = (2*pi)^(1-d) * integral over dGamma x dOmega of |m(p) . n(q)|

carries no unit factors.  J reads each boundary through its normals
only, so a polytope's surface rule is its exact face list and only a
ball needs a resolution-dependent rule.  In d=1 the boundary "measure"
of an interval union is the number of its endpoints and J degenerates
to the product of the two endpoint counts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "Domain",
    "IntervalUnion",
    "LatticeSea",
    "Box",
    "Ball",
    "ConvexPolygon",
    "SurfaceQuadrature",
    "WidomCoefficient",
    "interval",
    "widom_J",
    "widom_J_monte_carlo",
]

TWO_PI = 2.0 * math.pi

# Most surface node pairs |qa| * |qb| the quadrature route of widom_J
# will sum, a bound on its time: in 3D, a ball/ball pair at resolution
# 105 (4.9e8 pairs) fits and 106 does not.
MAX_COSINE_PAIRS = 500_000_000
# Most floats in _cosine_sum's row block (2 MiB), or one row of |qb|
# floats when a row alone is larger: 11 rows x 22050 columns for the
# ball/ball pair at resolution 105.
COSINE_BLOCK_FLOATS = 2 ** 18
# Most nodes in one surface rule.  A polytope's rule is its few faces,
# so a ball/polytope pair is bounded by the ball's rule alone: in 3D,
# resolution 1414 (4.0e6 nodes, about 0.3 GB at peak) fits.
MAX_SURFACE_NODES = 4_000_000
# Samples widom_J_monte_carlo draws and reduces at a time, so that its
# memory (about 1.4 MiB) does not grow with the sample count.
MC_CHUNK = 2 ** 14


class GeometryError(ValueError):
    """Invalid shape parameters or an unsupported domain combination."""


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Quadrature rule for J on a boundary surface (d >= 2).

    Attributes
    ----------
    weights : (n,) positive weights, summing to the boundary measure
    normals : (n, d) exterior unit normals at the nodes
    """

    weights: np.ndarray
    normals: np.ndarray

    def __len__(self):
        return len(self.weights)


class Domain:
    """Base class of the shape catalog.

    Subclasses are immutable value objects; all derived quantities
    (volume, boundary measure, quadratures) are computed on demand.
    """

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def boundary_measure(self) -> float:
        """d=1: number of boundary points; d>=2: perimeter or area."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "Domain":
        """The dilated domain {factor * q : q in self}, factor > 0."""
        raise NotImplementedError

    def momentum_bound(self) -> float:
        """Largest |p| over the domain (Nyquist guard for kernels)."""
        raise NotImplementedError

    @property
    def is_polytope(self) -> bool:
        return False

    @property
    def is_centrally_symmetric(self) -> bool:
        """True when the domain equals its reflection through the origin."""
        return False

    def faces(self) -> list[tuple[float, np.ndarray]]:
        """(measure, outward unit normal) per flat boundary face."""
        raise GeometryError(f"{type(self).__name__} has no flat faces")

    def surface_quadrature(self, resolution: int) -> SurfaceQuadrature:
        """Boundary rule for J.  A polytope's is its face list, exact at
        every resolution; a ball's has c * resolution^(d-1) nodes."""
        if not self.is_polytope:
            raise GeometryError(
                "surface quadrature requires d >= 2; the d=1 boundary is a "
                "finite point set handled analytically"
            )
        measures, normals = zip(*self.faces())
        return SurfaceQuadrature(np.array(measures), np.array(normals))

    def describe(self) -> dict:
        """Plain data in a config's spelling: "shape" is the
        {prefix}.shape value, and every other entry but "dim" is one of
        that shape's keys."""
        raise NotImplementedError


def _check_positive(value, name):
    if not (value > 0):
        raise GeometryError(f"{name} must be positive, got {value}")


def _check_finite(values, name):
    """GeometryError unless every value is a finite float (no NaN, no
    +-inf): a shape's coordinates must describe a bounded region."""
    if not all(math.isfinite(v) for v in values):
        raise GeometryError(f"{name} must be finite, got {list(values)}")


def _check_ball(center, radius):
    """GeometryError unless center is finite and radius finite and > 0."""
    _check_finite(center, "ball center")
    _check_finite([radius], "ball radius")
    _check_positive(radius, "ball radius")


@dataclass(frozen=True)
class IntervalUnion(Domain):
    """Union of finitely many pairwise disjoint closed intervals (d=1)."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.intervals:
            raise GeometryError("interval union must be non-empty")
        ivs = tuple(
            (float(a), float(b)) for a, b in
            sorted(self.intervals, key=lambda iv: iv[0])
        )
        _check_finite([e for iv in ivs for e in iv], "interval endpoints")
        for a, b in ivs:
            if not b > a:
                raise GeometryError(f"interval [{a}, {b}] has non-positive length")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 <= b0:
                raise GeometryError("intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", ivs)

    @property
    def dim(self):
        return 1

    def volume(self):
        return float(sum(b - a for a, b in self.intervals))

    def boundary_measure(self):
        return float(2 * len(self.intervals))

    def scaled(self, factor):
        _check_positive(factor, "scale factor")
        return type(self)(tuple((factor * a, factor * b)
                                for a, b in self.intervals))

    def momentum_bound(self):
        return max(max(abs(a), abs(b)) for a, b in self.intervals)

    @property
    def is_centrally_symmetric(self):
        return sorted((-b, -a) for a, b in self.intervals) \
            == list(self.intervals)

    def describe(self):
        return {"shape": "interval", "dim": 1,
                "intervals": [list(iv) for iv in self.intervals]}


def interval(a: float, b: float) -> IntervalUnion:
    """Single closed interval [a, b] as an IntervalUnion."""
    return IntervalUnion(((a, b),))


class LatticeSea(IntervalUnion):
    """Interval union of lattice momenta, in the Brillouin zone (-pi, pi]:
    its type picks the lattice route, and J is its endpoint count."""


@dataclass(frozen=True)
class Box(Domain):
    """Axis-aligned box given by per-axis closed intervals, d in {2, 3}."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if not 2 <= len(bounds) <= 3:
            raise GeometryError(f"box dimension {len(bounds)} outside 2..3")
        _check_finite([e for side in bounds for e in side], "box bounds")
        for lo, hi in bounds:
            if not hi > lo:
                raise GeometryError(f"box side [{lo}, {hi}] has non-positive length")
        object.__setattr__(self, "bounds", bounds)

    @property
    def dim(self):
        return len(self.bounds)

    def side_lengths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.bounds])

    def volume(self):
        return float(np.prod(self.side_lengths()))

    def boundary_measure(self):
        d = self.dim
        sides = self.side_lengths()
        if d == 2:
            return float(2.0 * sides.sum())
        vol = float(np.prod(sides))
        return float(2.0 * sum(vol / s for s in sides))

    def scaled(self, factor):
        _check_positive(factor, "scale factor")
        return Box(tuple((factor * lo, factor * hi) for lo, hi in self.bounds))

    def momentum_bound(self):
        return math.sqrt(sum(max(lo * lo, hi * hi) for lo, hi in self.bounds))

    @property
    def is_polytope(self):
        return True

    @property
    def is_centrally_symmetric(self):
        return all(lo == -hi for lo, hi in self.bounds)

    def axis_intervals(self) -> list[IntervalUnion]:
        """Per-axis 1D factors; the box is their Cartesian product."""
        return [IntervalUnion((b,)) for b in self.bounds]

    def faces(self):
        d = self.dim
        sides = self.side_lengths()
        vol = float(np.prod(sides))
        out = []
        for axis in range(d):
            measure = vol / sides[axis]
            for sign in (-1.0, 1.0):
                normal = np.zeros(d)
                normal[axis] = sign
                out.append((float(measure), normal))
        return out

    def describe(self):
        return {"shape": "box", "dim": self.dim,
                "bounds": [list(b) for b in self.bounds]}


@dataclass(frozen=True)
class Ball(Domain):
    """Ball of given center and radius, d in {2, 3}."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        if not 2 <= len(center) <= 3:
            raise GeometryError(f"ball dimension {len(center)} outside 2..3")
        _check_ball(center, self.radius)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self):
        return len(self.center)

    def volume(self):
        d, r = self.dim, self.radius
        return float(math.pi ** (d / 2) / math.gamma(d / 2 + 1) * r ** d)

    def boundary_measure(self):
        d, r = self.dim, self.radius
        if d == 2:
            return TWO_PI * r
        return 4.0 * math.pi * r * r

    def scaled(self, factor):
        _check_positive(factor, "scale factor")
        return Ball(tuple(factor * c for c in self.center), factor * self.radius)

    def momentum_bound(self):
        return math.hypot(*self.center) + self.radius

    @property
    def is_centrally_symmetric(self):
        return all(c == 0.0 for c in self.center)

    def surface_quadrature(self, resolution):
        """Midpoint rule in angle on the circle (resolution nodes); on
        the sphere, resolution Gauss-Legendre nodes in z times 2 *
        resolution azimuths, whose cos and sin are taken once and shared
        by every z row.  Nodes run z-major, azimuth-minor."""
        d, r = self.dim, self.radius
        if d == 2:
            theta = TWO_PI * (np.arange(resolution) + 0.5) / resolution
            normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            weights = np.full(resolution, TWO_PI * r / resolution)
            return SurfaceQuadrature(weights, normals)
        # Gauss-Legendre in cos(polar angle), uniform in azimuth: every
        # row of constant z shares the azimuths, so cos and sin are taken
        # once per azimuth and each row scales them by its rho(z).
        nz, nphi = resolution, 2 * resolution
        z, wz = np.polynomial.legendre.leggauss(nz)
        phi = TWO_PI * (np.arange(nphi) + 0.5) / nphi
        rho = np.sqrt(np.maximum(1.0 - z ** 2, 0.0))[:, None]
        normals = np.empty((nz, nphi, 3))
        np.multiply(rho, np.cos(phi), out=normals[:, :, 0])
        np.multiply(rho, np.sin(phi), out=normals[:, :, 1])
        normals[:, :, 2] = z[:, None]
        normals = normals.reshape(nz * nphi, 3)
        weights = (np.repeat(wz, nphi) * (TWO_PI / nphi)) * r * r
        return SurfaceQuadrature(weights, normals)

    def describe(self):
        return {"shape": "ball", "dim": self.dim,
                "center": list(self.center), "radius": self.radius}


@dataclass(frozen=True)
class ConvexPolygon(Domain):
    """Strictly convex polygon with counter-clockwise vertices (d=2)."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        _check_finite([c for vertex in verts for c in vertex],
                      "polygon vertices")
        v = np.array(verts)
        nv = len(verts)
        for i in range(nv):
            e1 = v[(i + 1) % nv] - v[i]
            e2 = v[(i + 2) % nv] - v[(i + 1) % nv]
            cross = e1[0] * e2[1] - e1[1] * e2[0]
            if cross <= 0:
                raise GeometryError(
                    "vertices must be counter-clockwise and strictly convex"
                )
        object.__setattr__(self, "vertices", verts)

    @property
    def dim(self):
        return 2

    def _vertex_array(self):
        return np.array(self.vertices)

    def volume(self):
        v = self._vertex_array()
        x, y = v[:, 0], v[:, 1]
        return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def boundary_measure(self):
        v = self._vertex_array()
        edges = np.roll(v, -1, axis=0) - v
        return float(np.hypot(edges[:, 0], edges[:, 1]).sum())

    def scaled(self, factor):
        _check_positive(factor, "scale factor")
        return ConvexPolygon(tuple((factor * x, factor * y) for x, y in self.vertices))

    def momentum_bound(self):
        return float(max(math.hypot(x, y) for x, y in self.vertices))

    @property
    def is_polytope(self):
        return True

    def faces(self):
        v = self._vertex_array()
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        # CCW orientation: outward normal is the edge direction rotated -90 deg.
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
        return [(float(l), n) for l, n in zip(lengths, normals)]

    def describe(self):
        return {"shape": "polygon", "dim": 2,
                "vertices": [list(v) for v in self.vertices]}


# ---------------------------------------------------------------------------
# Surface-integral coefficient J
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WidomCoefficient:
    """Value of the boundary coefficient J with its provenance.

    method is one of 'closed_form', 'face_pair_exact', 'quadrature',
    'monte_carlo'; error_estimate is an empirical absolute error bound
    (0 for exact paths up to roundoff).  A value that is not finite
    raises GeometryError: the regions are too large for float arithmetic.
    """

    value: float
    method: str
    error_estimate: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise GeometryError(
                f"J by {self.method} is {self.value}: the regions are too "
                "large for float arithmetic")


def _check_same_dim(gamma, omega):
    if gamma.dim != omega.dim:
        raise GeometryError(
            f"dimension mismatch: gamma has d={gamma.dim}, omega has d={omega.dim}"
        )


def _cosine_sum(qa: SurfaceQuadrature, qb: SurfaceQuadrature) -> float:
    """Double sum of w_a w_b |m . n| over two surface quadratures.

    Blocked over rows into one reused buffer of at most
    COSINE_BLOCK_FLOATS floats (at least one row) to bound memory.  The
    blocks' sums are added in a fixed order, but the block size groups
    the additions: blocks of 2048 rows gave sums up to 2.4e-14 relative
    off these (1.1e-15 on the 3D ball pair at resolution 105).
    """
    total = 0.0
    block = max(1, COSINE_BLOCK_FLOATS // len(qb))
    buffer = np.empty((min(block, len(qa)), len(qb)))
    for i0 in range(0, len(qa), block):
        rows = qa.normals[i0:i0 + block]
        dots = np.matmul(rows, qb.normals.T, out=buffer[:len(rows)])
        np.abs(dots, out=dots)
        total += float(qa.weights[i0:i0 + block] @ dots @ qb.weights)
    return total


def _largest_resolution(gamma: Domain, omega: Domain, resolution: int) -> int:
    """The largest resolution up to this one (itself when it fits, 0
    when none does) whose quadrature J needs at most MAX_SURFACE_NODES
    nodes per rule and MAX_COSINE_PAIRS node pairs.

    A polytope's rule is its face list at every resolution and a ball's
    has c * resolution^(d-1) nodes, so the counts are read off the
    resolution-1 rules (whose weights may overflow: only their length
    is read) and nothing of the requested size is built."""
    with np.errstate(over="ignore"):
        sizes = [(len(domain.surface_quadrature(1)),
                  0 if domain.is_polytope else domain.dim - 1)
                 for domain in (gamma, omega)]

    def fits(res):
        na, nb = [count * res ** power for count, power in sizes]
        return max(na, nb) <= MAX_SURFACE_NODES and na * nb <= MAX_COSINE_PAIRS

    if fits(resolution):
        return resolution
    lo, hi = 0, resolution            # fits(lo), not fits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def widom_J(gamma: Domain, omega: Domain,
            resolution: int | None = None) -> WidomCoefficient:
    """Boundary coefficient J for a momentum region and a spatial region.

    With no resolution, J is exact: in d=1 the product of the two
    endpoint counts; for two polytopes the face-pair sum; and, since J
    is symmetric in its two boundaries, the ball closed form when
    either boundary is a ball (gamma's, when both are).  Every d >= 2
    catalog shape is a polytope or a ball.  For a ball of radius p and
    h = (d-1)/2 the closed form is

        J = 2 / h! * (p^2 / (4*pi))^h * |d other|,

    with the half-integer factorial taken as gamma(h+1), and the power
    taken as p^h (p / (4*pi))^h, so p is never squared: a J past the
    float range comes out inf, which WidomCoefficient refuses, instead
    of raising OverflowError.

    A resolution asks for the quadrature oracle instead (d >= 2): the
    double surface integral of |m . n| times (2*pi)^(1-d), summed over
    the two surface rules at that resolution, with a coarser companion
    rule for the error estimate.  A resolution over MAX_SURFACE_NODES
    or MAX_COSINE_PAIRS raises GeometryError, naming the largest
    resolution that fits.  The Monte Carlo estimate is
    widom_J_monte_carlo.
    """
    _check_same_dim(gamma, omega)
    d = gamma.dim
    if d == 1:
        value = gamma.boundary_measure() * omega.boundary_measure()
        return WidomCoefficient(value, "closed_form", 0.0)

    prefactor = TWO_PI ** (1 - d)

    def cosine_integral(res):
        return prefactor * _cosine_sum(gamma.surface_quadrature(res),
                                       omega.surface_quadrature(res))

    if resolution is not None:
        largest = _largest_resolution(gamma, omega, resolution)
        if largest < resolution:
            raise GeometryError(
                f"quadrature J at resolution {resolution} is over the "
                f"limits of {MAX_SURFACE_NODES:.3g} surface nodes per rule "
                f"and {MAX_COSINE_PAIRS:.3g} node pairs; the largest "
                f"resolution that fits is {largest}")
        value = cosine_integral(resolution)
        # Error estimate from a coarser companion rule.
        coarse = cosine_integral(max(resolution // 2, 2))
        return WidomCoefficient(value, "quadrature", abs(value - coarse))
    if gamma.is_polytope and omega.is_polytope:
        # The rules are the face lists at every resolution.
        value = cosine_integral(1)
        return WidomCoefficient(value, "face_pair_exact", 1e-14 * abs(value))
    ball, other = (gamma, omega) if isinstance(gamma, Ball) else (omega, gamma)
    p, half = ball.radius, (d - 1) / 2.0
    value = float(2.0 / math.gamma(half + 1.0)
                  * p ** half * (p / (4.0 * math.pi)) ** half
                  * other.boundary_measure())
    return WidomCoefficient(value, "closed_form", 1e-14 * abs(value))


def _normal_sampler(domain: Domain, chunk: int):
    """(k, normals) for a d >= 2 boundary: normals maps a (k, m) array
    of uniforms on [0, 1), m <= chunk, to the outward normals at m
    boundary points uniform in surface measure, as a (d, m) array of
    components.  The array is a view of one buffer of d * chunk floats
    that each call overwrites, so a caller may overwrite it too.

    A ball's normals are directions: a 2D ball takes the angle 2*pi*u,
    a 3D ball z = 2u - 1 and the azimuth 2*pi*u, whose cos and sin are
    written straight into the buffer.  A polytope's are its faces drawn
    by measure: the face index counts the cumulative measures at or
    below u (the index Generator.choice finds by searchsorted), and the
    normals are taken from a (d, faces) table."""
    d = domain.dim
    buffer = np.empty(d * chunk)
    if isinstance(domain, Ball):
        def normals(u):
            out = buffer[:d * u.shape[1]].reshape(d, -1)
            phi = np.multiply(TWO_PI, u[-1], out=out[1])
            np.cos(phi, out=out[0])
            np.sin(phi, out=out[1])
            if d == 3:
                z = np.multiply(2.0, u[0], out=out[2])
                z -= 1.0
                rho = z * z
                np.subtract(1.0, rho, out=rho)
                np.maximum(rho, 0.0, out=rho)
                out[:2] *= np.sqrt(rho, out=rho)
            return out
        return d - 1, normals
    faces = domain.surface_quadrature(1)
    cdf = np.cumsum(faces.weights)
    cdf /= cdf[-1]
    thresholds = cdf[:-1, None]
    table = np.ascontiguousarray(faces.normals.T)

    def normals(u):
        index = np.count_nonzero(u[0] >= thresholds, axis=0)
        # Every index is in range: "clip" only spares take a copy.
        return table.take(index, axis=1, mode="clip",
                          out=buffer[:d * u.shape[1]].reshape(d, -1))
    return 1, normals


def widom_J_monte_carlo(gamma: Domain, omega: Domain, samples: int = 200_000,
                        rng: np.random.Generator | None = None) -> WidomCoefficient:
    """Monte Carlo estimate of J; a cross-check oracle, not a default path.

    J depends on the normals only: the mean of |m . n| over `samples`
    pairs, each normal uniform in surface measure on its boundary, times
    (2*pi)^(1-d) and both boundary measures.  error_estimate is three
    standard errors (ddof = 1).  Balls and polytopes in d = 2, 3 are
    supported; samples must be an integer >= 2.

    The pairs are drawn and reduced MC_CHUNK at a time, so memory does
    not grow with `samples`; the chunks' means and squared deviations
    are merged by the pairwise update of Chan, Golub & LeVeque.  Each
    pair takes one row of uniforms, gamma's columns then omega's, so the
    sample sequence does not depend on the chunk size.  The uniforms
    and each side's normals, (d, m) component rows, reuse one buffer
    each from chunk to chunk; each dot product is the d row products
    added in axis order, formed in gamma's buffer.
    """
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise GeometryError(f"samples: need an integer >= 2, got {samples!r}")
    _check_same_dim(gamma, omega)
    d = gamma.dim
    if d == 1:
        return widom_J(gamma, omega)
    if rng is None:
        rng = np.random.default_rng(0)
    chunk = min(MC_CHUNK, samples)
    k_gamma, gamma_normals = _normal_sampler(gamma, chunk)
    k_omega, omega_normals = _normal_sampler(omega, chunk)
    uniforms = np.empty((chunk, k_gamma + k_omega))
    count, mean, square_sum = 0, 0.0, 0.0
    for start in range(0, samples, chunk):
        size = min(chunk, samples - start)
        u = rng.random(out=uniforms[:size]).T
        products = gamma_normals(u[:k_gamma])
        products *= omega_normals(u[k_gamma:])
        vals = products[0]
        for axis in range(1, d):
            vals += products[axis]
        np.abs(vals, out=vals)
        chunk_mean = float(vals.mean())
        vals -= chunk_mean
        delta = chunk_mean - mean
        total = count + size
        mean += delta * size / total
        square_sum += float(vals @ vals) + delta * delta * count * size / total
        count = total
    scale = TWO_PI ** (1 - d) * gamma.boundary_measure() * omega.boundary_measure()
    stderr = math.sqrt(square_sum / (samples - 1) / samples)
    return WidomCoefficient(scale * mean, "monte_carlo", 3.0 * scale * stderr)
