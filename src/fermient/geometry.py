"""Geometry catalog for Fermi seas and spatial regions.

The library works with a fixed catalog of shapes in dimensions 1 to 3:
unions of disjoint intervals, axis-aligned boxes, balls, and strictly
convex polygons (d=2 only).  A shape can play either role: the momentum
region whose occupied states define the ground state, or the position
region the state is reduced to.

Everything is dimensionless with hbar = 1, so the cosine-transform
surface coefficient

    J = (2*pi)^(1-d) * integral over dGamma x dOmega of |m(p) . n(q)|

carries no unit factors.  In d=1 the boundary "measure" of an interval
union is the number of its endpoints and J degenerates to the product
of the two endpoint counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma_fn

__all__ = [
    "GeometryError",
    "Domain",
    "IntervalUnion",
    "Box",
    "Ball",
    "ConvexPolygon",
    "SurfaceQuadrature",
    "WidomCoefficient",
    "interval",
    "mean_density",
    "domain_from_dict",
    "widom_J",
    "widom_J_sphere",
    "widom_J_density_form",
    "widom_J_monte_carlo",
]

TWO_PI = 2.0 * math.pi

# Most surface node pairs |qa| * |qb| the quadrature route of widom_J
# will sum.  _cosine_sum materializes 2048 x |qb| products per block, so
# past this a block runs to gigabytes: a 3D pair at the default
# resolution 256 would need 5.2e10 pairs.  Ball/ball in 3D at
# resolution 96 (3.4e8 pairs) fits; no 3D pair at 128 (>= 1.07e9) does.
MAX_COSINE_PAIRS = 500_000_000


class GeometryError(ValueError):
    """Invalid shape parameters or an unsupported domain combination."""


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Quadrature rule on a boundary surface (d >= 2).

    Attributes
    ----------
    points : (n, d) array of boundary points
    weights : (n,) positive weights, summing to the boundary measure
    normals : (n, d) exterior unit normals at the points
    """

    points: np.ndarray
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
        raise GeometryError(
            "surface quadrature requires d >= 2; the d=1 boundary is a "
            "finite point set handled analytically"
        )

    def as_interval_union(self) -> "IntervalUnion":
        raise GeometryError(f"{type(self).__name__} is not one-dimensional")

    def describe(self) -> dict:
        """Plain-data description used in configs and result provenance."""
        raise NotImplementedError


def _check_positive(value, name):
    if not (value > 0):
        raise GeometryError(f"{name} must be positive, got {value}")


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

    def endpoints(self) -> np.ndarray:
        return np.array([e for iv in self.intervals for e in iv])

    def scaled(self, factor):
        _check_positive(factor, "scale factor")
        return IntervalUnion(tuple((factor * a, factor * b) for a, b in self.intervals))

    def momentum_bound(self):
        return max(max(abs(a), abs(b)) for a, b in self.intervals)

    @property
    def is_centrally_symmetric(self):
        ivs = self.intervals
        mirrored = sorted((-b, -a) for a, b in ivs)
        return all(
            math.isclose(x[0], y[0], abs_tol=1e-15) and math.isclose(x[1], y[1], abs_tol=1e-15)
            for x, y in zip(mirrored, ivs)
        )

    def as_interval_union(self):
        return self

    def describe(self):
        return {"shape": "interval_union", "dim": 1,
                "intervals": [list(iv) for iv in self.intervals]}


def interval(a: float, b: float) -> IntervalUnion:
    """Single closed interval [a, b] as an IntervalUnion."""
    return IntervalUnion(((a, b),))


@dataclass(frozen=True)
class Box(Domain):
    """Axis-aligned box given by per-axis closed intervals, d in {1, 2, 3}."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if not 1 <= len(bounds) <= 3:
            raise GeometryError(f"box dimension {len(bounds)} outside 1..3")
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
        if d == 1:
            return 2.0
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
        return self.dim >= 2

    @property
    def is_centrally_symmetric(self):
        return all(math.isclose(lo, -hi, abs_tol=1e-15) for lo, hi in self.bounds)

    def as_interval_union(self):
        if self.dim != 1:
            raise GeometryError("only a 1D box reduces to an interval union")
        return IntervalUnion((self.bounds[0],))

    def axis_intervals(self) -> list[IntervalUnion]:
        """Per-axis 1D factors; the box is their Cartesian product."""
        return [IntervalUnion((b,)) for b in self.bounds]

    def faces(self):
        d = self.dim
        if d < 2:
            raise GeometryError("1D boxes have point boundaries, not faces")
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

    def surface_quadrature(self, resolution):
        d = self.dim
        if d < 2:
            return super().surface_quadrature(resolution)
        pts, wts, nrm = [], [], []
        gl_x, gl_w = np.polynomial.legendre.leggauss(resolution)
        for axis in range(d):
            lo, hi = self.bounds[axis]
            others = [i for i in range(d) if i != axis]
            if d == 2:
                o = others[0]
                olo, ohi = self.bounds[o]
                t = 0.5 * (ohi - olo) * gl_x + 0.5 * (ohi + olo)
                w = 0.5 * (ohi - olo) * gl_w
                for sign, val in ((-1.0, lo), (1.0, hi)):
                    p = np.zeros((resolution, 2))
                    p[:, axis] = val
                    p[:, o] = t
                    n = np.zeros((resolution, 2))
                    n[:, axis] = sign
                    pts.append(p); wts.append(w); nrm.append(n)
            else:
                o1, o2 = others
                t1 = 0.5 * (self.bounds[o1][1] - self.bounds[o1][0]) * gl_x \
                    + 0.5 * sum(self.bounds[o1])
                w1 = 0.5 * (self.bounds[o1][1] - self.bounds[o1][0]) * gl_w
                t2 = 0.5 * (self.bounds[o2][1] - self.bounds[o2][0]) * gl_x \
                    + 0.5 * sum(self.bounds[o2])
                w2 = 0.5 * (self.bounds[o2][1] - self.bounds[o2][0]) * gl_w
                T1, T2 = np.meshgrid(t1, t2, indexing="ij")
                W = np.outer(w1, w2).ravel()
                for sign, val in ((-1.0, lo), (1.0, hi)):
                    p = np.zeros((resolution * resolution, 3))
                    p[:, axis] = val
                    p[:, o1] = T1.ravel()
                    p[:, o2] = T2.ravel()
                    n = np.zeros_like(p)
                    n[:, axis] = sign
                    pts.append(p); wts.append(W); nrm.append(n)
        return SurfaceQuadrature(np.vstack(pts), np.concatenate(wts), np.vstack(nrm))

    def describe(self):
        return {"shape": "box", "dim": self.dim,
                "bounds": [list(b) for b in self.bounds]}


@dataclass(frozen=True)
class Ball(Domain):
    """Ball of given center and radius, d in {1, 2, 3}."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        if not 1 <= len(center) <= 3:
            raise GeometryError(f"ball dimension {len(center)} outside 1..3")
        _check_positive(self.radius, "ball radius")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self):
        return len(self.center)

    def volume(self):
        d, r = self.dim, self.radius
        return float(math.pi ** (d / 2) / _gamma_fn(d / 2 + 1) * r ** d)

    def boundary_measure(self):
        d, r = self.dim, self.radius
        if d == 1:
            return 2.0
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

    def as_interval_union(self):
        if self.dim != 1:
            raise GeometryError("only a 1D ball reduces to an interval union")
        c = self.center[0]
        return IntervalUnion(((c - self.radius, c + self.radius),))

    def surface_quadrature(self, resolution):
        d, r = self.dim, self.radius
        c = np.array(self.center)
        if d == 2:
            theta = TWO_PI * (np.arange(resolution) + 0.5) / resolution
            normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            points = c + r * normals
            weights = np.full(resolution, TWO_PI * r / resolution)
            return SurfaceQuadrature(points, weights, normals)
        if d == 3:
            # Gauss-Legendre in cos(polar angle), uniform in azimuth.
            nz, nphi = resolution, 2 * resolution
            z, wz = np.polynomial.legendre.leggauss(nz)
            phi = TWO_PI * (np.arange(nphi) + 0.5) / nphi
            Z, PHI = np.meshgrid(z, phi, indexing="ij")
            rho = np.sqrt(np.maximum(1.0 - Z ** 2, 0.0))
            normals = np.stack(
                [(rho * np.cos(PHI)).ravel(), (rho * np.sin(PHI)).ravel(), Z.ravel()],
                axis=1,
            )
            weights = (np.repeat(wz, nphi) * (TWO_PI / nphi)) * r * r
            return SurfaceQuadrature(c + r * normals, weights, normals)
        return super().surface_quadrature(resolution)

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

    def surface_quadrature(self, resolution):
        v = self._vertex_array()
        gl_x, gl_w = np.polynomial.legendre.leggauss(resolution)
        t = 0.5 * (gl_x + 1.0)
        pts, wts, nrm = [], [], []
        for (length, normal), a, b in zip(self.faces(), v, np.roll(v, -1, axis=0)):
            pts.append(a + t[:, None] * (b - a))
            wts.append(0.5 * length * gl_w)
            nrm.append(np.tile(normal, (resolution, 1)))
        return SurfaceQuadrature(np.vstack(pts), np.concatenate(wts), np.vstack(nrm))

    def describe(self):
        return {"shape": "convex_polygon", "dim": 2,
                "vertices": [list(v) for v in self.vertices]}


def domain_from_dict(data: dict) -> Domain:
    """Inverse of Domain.describe()."""
    shape = data.get("shape")
    if shape == "interval_union":
        return IntervalUnion(tuple(tuple(iv) for iv in data["intervals"]))
    if shape == "box":
        return Box(tuple(tuple(b) for b in data["bounds"]))
    if shape == "ball":
        return Ball(tuple(data["center"]), data["radius"])
    if shape == "convex_polygon":
        return ConvexPolygon(tuple(tuple(v) for v in data["vertices"]))
    raise GeometryError(f"unknown shape {shape!r}")


def mean_density(gamma: Domain) -> float:
    """Bulk particle density of the ground state with momentum region gamma."""
    return gamma.volume() / TWO_PI ** gamma.dim


# ---------------------------------------------------------------------------
# Surface-integral coefficient J
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WidomCoefficient:
    """Value of the boundary coefficient J with its provenance.

    method is one of 'closed_form', 'face_pair_exact', 'quadrature',
    'monte_carlo'; error_estimate is an empirical absolute error bound
    (0 for exact paths up to roundoff).
    """

    value: float
    method: str
    error_estimate: float


def _check_same_dim(gamma, omega):
    if gamma.dim != omega.dim:
        raise GeometryError(
            f"dimension mismatch: gamma has d={gamma.dim}, omega has d={omega.dim}"
        )


def _cosine_sum(qa: SurfaceQuadrature, qb: SurfaceQuadrature) -> float:
    """Double sum of w_a w_b |m . n| over two surface quadratures.

    Blocked over rows to bound memory; summation order is fixed, so the
    result does not depend on block size.
    """
    total = 0.0
    block = 2048
    na = qa.normals
    for i0 in range(0, len(qa), block):
        dots = np.abs(na[i0:i0 + block] @ qb.normals.T)
        total += float(qa.weights[i0:i0 + block] @ dots @ qb.weights)
    return total


def _check_pair_count(gamma: Domain, omega: Domain, resolution: int) -> None:
    """GeometryError when quadrature at this resolution needs more than
    MAX_COSINE_PAIRS node pairs.

    Every catalog surface rule has c * resolution^(d-1) nodes, so the
    constants c are read off the resolution-1 rules and nothing of the
    requested size is built before the check."""
    power = 2 * (gamma.dim - 1)
    per_step = len(gamma.surface_quadrature(1)) * len(omega.surface_quadrature(1))
    pairs = per_step * resolution ** power
    if pairs <= MAX_COSINE_PAIRS:
        return
    # The float root can be off by one either way; settle it exactly.
    fits = int((MAX_COSINE_PAIRS / per_step) ** (1.0 / power)) + 1
    while fits > 0 and per_step * fits ** power > MAX_COSINE_PAIRS:
        fits -= 1
    raise GeometryError(
        f"quadrature J at resolution {resolution} needs {pairs:.3g} surface "
        f"node pairs, over the limit {MAX_COSINE_PAIRS:.3g}; the largest "
        f"resolution that fits is {fits}")


def _face_pair_sum(gamma: Domain, omega: Domain) -> float:
    total = 0.0
    for fa, na in gamma.faces():
        for fb, nb in omega.faces():
            total += fa * fb * abs(float(na @ nb))
    return total


def widom_J(gamma: Domain, omega: Domain, resolution: int = 256,
            method: str = "auto") -> WidomCoefficient:
    """Boundary coefficient J for a momentum region and a spatial region.

    d=1: the product of the two endpoint counts (exact).
    d>=2: (2*pi)^(1-d) times the double surface integral of |m . n|.
    Polytope pairs use the exact face-pair sum; a spherical first factor
    admits the closed form; anything else is integrated by product
    quadrature at the given per-face resolution; a resolution needing
    more than MAX_COSINE_PAIRS surface node pairs raises GeometryError,
    naming the largest resolution that fits.

    method 'auto' picks the most exact applicable path; 'quadrature',
    'face_pair', 'closed_form' and 'monte_carlo' force a path.
    """
    _check_same_dim(gamma, omega)
    d = gamma.dim
    if d == 1:
        value = gamma.boundary_measure() * omega.boundary_measure()
        return WidomCoefficient(value, "closed_form", 0.0)

    if method == "auto":
        if gamma.is_polytope and omega.is_polytope:
            method = "face_pair"
        elif isinstance(gamma, Ball):
            method = "closed_form"
        else:
            method = "quadrature"

    prefactor = TWO_PI ** (1 - d)
    if method == "face_pair":
        if not (gamma.is_polytope and omega.is_polytope):
            raise GeometryError("face-pair sum needs two polytopes")
        value = prefactor * _face_pair_sum(gamma, omega)
        return WidomCoefficient(value, "face_pair_exact", 1e-14 * abs(value))
    if method == "closed_form":
        if not isinstance(gamma, Ball):
            raise GeometryError("closed form needs a spherical momentum region")
        value = widom_J_sphere(gamma.radius, omega.boundary_measure(), d)
        return WidomCoefficient(value, "closed_form", 1e-14 * abs(value))
    if method == "monte_carlo":
        return widom_J_monte_carlo(gamma, omega)
    if method != "quadrature":
        raise GeometryError(f"unknown widom_J method {method!r}")

    _check_pair_count(gamma, omega, resolution)
    qa = gamma.surface_quadrature(resolution)
    qb = omega.surface_quadrature(resolution)
    value = prefactor * _cosine_sum(qa, qb)
    # Error estimate from a coarser companion rule.
    half = max(resolution // 2, 2)
    coarse = prefactor * _cosine_sum(
        gamma.surface_quadrature(half), omega.surface_quadrature(half)
    )
    return WidomCoefficient(value, "quadrature", abs(value - coarse))


def widom_J_sphere(p_fermi: float, omega_boundary_measure: float, d: int) -> float:
    """Closed form of J for a spherical momentum boundary of radius p_fermi:

        J = 2 / ((d-1)/2)! * (p_fermi^2 / (4*pi))^((d-1)/2) * |dOmega|

    with half-integer factorials taken as gamma(z+1).
    """
    if d not in (1, 2, 3):
        raise GeometryError(f"dimension {d} outside 1..3")
    _check_positive(p_fermi, "p_fermi")
    _check_positive(omega_boundary_measure, "omega boundary measure")
    half = (d - 1) / 2.0
    return float(
        2.0 / _gamma_fn(half + 1.0)
        * (p_fermi ** 2 / (4.0 * math.pi)) ** half
        * omega_boundary_measure
    )


def widom_J_density_form(gamma: Domain, omega: Domain) -> float:
    """J re-expressed through the bulk density rho = |gamma| / (2*pi)^d:

        J = 2 / ((d-1)/2)! * ((d/2)!)^((d-1)/d) * rho^((d-1)/d) * |dOmega|

    Valid for spherical momentum regions only; agrees with widom_J_sphere
    to machine precision.
    """
    _check_same_dim(gamma, omega)
    if not isinstance(gamma, Ball):
        raise GeometryError("density form needs a spherical momentum region")
    d = gamma.dim
    rho = mean_density(gamma)
    boundary_particles = rho ** ((d - 1) / d) * omega.boundary_measure()
    return float(
        2.0 / _gamma_fn((d - 1) / 2.0 + 1.0)
        * _gamma_fn(d / 2.0 + 1.0) ** ((d - 1) / d)
        * boundary_particles
    )


def _sample_boundary(domain: Domain, count: int, rng: np.random.Generator):
    """Uniform boundary samples (points, normals) w.r.t. surface measure."""
    d = domain.dim
    if isinstance(domain, Ball):
        c = np.array(domain.center)
        if d == 2:
            theta = rng.uniform(0.0, TWO_PI, count)
            normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        else:
            z = rng.uniform(-1.0, 1.0, count)
            phi = rng.uniform(0.0, TWO_PI, count)
            rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            normals = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        return c + domain.radius * normals, normals
    if domain.is_polytope and d == 2:
        faces = domain.faces() if isinstance(domain, ConvexPolygon) else None
        if isinstance(domain, ConvexPolygon):
            v = np.array(domain.vertices)
            starts, ends = v, np.roll(v, -1, axis=0)
        else:
            starts, ends, faces = _box2d_edges(domain)
        lengths = np.array([f[0] for f in faces])
        normals_per_face = np.array([f[1] for f in faces])
        idx = rng.choice(len(faces), size=count, p=lengths / lengths.sum())
        t = rng.uniform(0.0, 1.0, count)[:, None]
        points = starts[idx] + t * (ends[idx] - starts[idx])
        return points, normals_per_face[idx]
    if isinstance(domain, Box) and d == 3:
        faces = domain.faces()
        areas = np.array([f[0] for f in faces])
        idx = rng.choice(len(faces), size=count, p=areas / areas.sum())
        points = np.empty((count, 3))
        normals = np.empty((count, 3))
        for k, face_id in enumerate(idx):
            axis, sign = divmod(face_id, 2)
            fixed = domain.bounds[axis][sign]
            pt = [0.0] * 3
            for ax in range(3):
                lo, hi = domain.bounds[ax]
                pt[ax] = fixed if ax == axis else rng.uniform(lo, hi)
            points[k] = pt
            n = np.zeros(3)
            n[axis] = -1.0 if sign == 0 else 1.0
            normals[k] = n
        return points, normals
    raise GeometryError(f"no boundary sampler for {type(domain).__name__} in d={d}")


def _box2d_edges(box: Box):
    (x0, x1), (y0, y1) = box.bounds
    starts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    ends = np.array([[x1, y0], [x1, y1], [x0, y1], [x0, y0]])
    faces = [
        (x1 - x0, np.array([0.0, -1.0])),
        (y1 - y0, np.array([1.0, 0.0])),
        (x1 - x0, np.array([0.0, 1.0])),
        (y1 - y0, np.array([-1.0, 0.0])),
    ]
    return starts, ends, faces


def widom_J_monte_carlo(gamma: Domain, omega: Domain, samples: int = 200_000,
                        rng: np.random.Generator | None = None) -> WidomCoefficient:
    """Monte Carlo estimate of J; a cross-check oracle, not a default path."""
    _check_same_dim(gamma, omega)
    d = gamma.dim
    if d == 1:
        return widom_J(gamma, omega)
    if rng is None:
        rng = np.random.default_rng(0)
    _, m = _sample_boundary(gamma, samples, rng)
    _, n = _sample_boundary(omega, samples, rng)
    vals = np.abs(np.einsum("ij,ij->i", m, n))
    scale = TWO_PI ** (1 - d) * gamma.boundary_measure() * omega.boundary_measure()
    value = scale * float(vals.mean())
    stderr = scale * float(vals.std(ddof=1) / math.sqrt(samples))
    return WidomCoefficient(value, "monte_carlo", 3.0 * stderr)
