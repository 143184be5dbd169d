"""Flat key = value run configuration.

Configs are plain text: one `key = value` per line, dotted keys for
sections, `#` comment lines and blank lines ignored.  Values stay
strings until a typed accessor asks for them, and serialization writes
keys sorted, so parse(serialize(config)) round-trips exactly.

Key reference (all optional unless a command requires them).  A
command reads a key only where its value is used, and a key the command
does not read for its input is a config error that names it:

    mode                    auto | lattice | tensor_box.  auto routes by
                            region type: prolate for single intervals,
                            tensor_box for box pairs, radial sectors for
                            ball pairs in d = 2, 3, else the Nystrom
                            matrix (continuum).  lattice reads gamma as
                            lattice momenta (-k_F, k_F), k_F < pi, on one
                            omega interval; tensor_box needs a box pair
    alpha                   Renyi order, or comma list of at least one;
                            'inf' allowed
    seed                    integer >= 0, read by jcoeff's Monte Carlo
                            estimate only (jcoeff --seed sets it too),
                            so d >= 2 pairs only
    gamma.shape             interval | box | ball | polygon; interval is
                            the only d = 1 shape
    gamma.intervals         a:b[,c:d...]        (interval)
    gamma.bounds            lo:hi,lo:hi[,lo:hi] (box, one per axis, d = 2
                                                or 3)
    gamma.center            x,y[,z]             (ball, d = 2 or 3)
    gamma.radius            r                   (ball)
    gamma.vertices          x:y[,x:y...]        (polygon, ccw)
    gamma.k_fermi           k                   (shorthand: interval -k:k)
    omega.*                 same scheme as gamma.*, but k_fermi
    entropy.L               dilation for single-point runs (finite, > 0)
    sweep.L                 lo:hi:count (geometric grid) or explicit list
                            of distinct finite L > 0; the fit takes every
                            L and needs >= 4, counted after lattice
                            rounding
    disc.budget             max size of the route, integer >= 1: lattice
                            sites (default 100000), else Nystrom rows,
                            Legendre degrees per prolate axis or radial
                            nodes (default 6000); checked before any
                            build, and inf sizes fail too
    jcoeff.resolution       ball surface rule resolution, integer >= 1
                            (default: the largest up to 256 that fits
                            geometry's node limits); read only where a
                            boundary is a ball
    functional.alphas       nonempty comma list for the functional command
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (Ball, Box, ConvexPolygon, Domain, GeometryError,
                       IntervalUnion, LatticeSea, interval)

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_text",
    "load_config",
    "serialize_config",
    "domain_from_config",
    "grid_from_config",
    "alphas_from_config",
    "mode_from_config",
    "momenta_for_mode",
]


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass
class RunConfig:
    """Raw key -> value strings plus typed accessors, which add each key
    they are asked for to `read`, so check_read can name the keys set but
    never read."""

    values: dict = field(default_factory=dict)
    read: set = field(default_factory=set, init=False, compare=False)

    def get(self, key: str, default: str | None = None) -> str | None:
        self.read.add(key)
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required config key {key!r}")
        return self.get(key)

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a number, got {raw!r}")

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}")

    def get_floats(self, key: str, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return [float(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"key {key!r}: expected comma-separated numbers, "
                              f"got {raw!r}")

    def check_read(self, command: str) -> None:
        """ConfigError naming every key that is set but was never read."""
        unread = sorted(set(self.values) - self.read)
        if unread:
            raise ConfigError(f"{', '.join(unread)}: not read by {command} "
                              "for this input")

    def updated(self, overrides: dict) -> "RunConfig":
        merged = dict(self.values)
        merged.update(overrides)
        return RunConfig(merged)


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return RunConfig(values)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_config_text(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def serialize_config(config: RunConfig) -> str:
    lines = [f"{key} = {config.values[key]}"
             for key in sorted(config.values)]
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_pairs(raw: str, what: str):
    pairs = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{what}: expected lo:hi pairs, got {chunk!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"{what}: non-numeric pair {chunk!r}")
    if not pairs:
        raise ConfigError(f"{what}: empty list")
    return tuple(pairs)


def domain_from_config(config: RunConfig, prefix: str) -> Domain:
    """Build the gamma/omega domain from keys under the given prefix;
    gamma.k_fermi = k, a Fermi momentum, is the interval (-k, k)."""
    k_fermi = config.get_float("gamma.k_fermi") if prefix == "gamma" else None
    try:
        if k_fermi is not None:
            return interval(-k_fermi, k_fermi)
        shape = config.get(f"{prefix}.shape")
        if shape is None:
            raise ConfigError(f"missing {prefix}.shape" + (
                " (or gamma.k_fermi)" if prefix == "gamma" else ""))
        shape = shape.strip().lower()
        if shape == "interval":
            raw = config.require(f"{prefix}.intervals")
            return IntervalUnion(_parse_pairs(raw, f"{prefix}.intervals"))
        if shape == "box":
            return Box(_parse_pairs(config.require(f"{prefix}.bounds"),
                                    f"{prefix}.bounds"))
        if shape == "ball":
            center = config.get_floats(f"{prefix}.center")
            if center is None:
                raise ConfigError(f"missing {prefix}.center")
            radius = config.get_float(f"{prefix}.radius")
            if radius is None:
                raise ConfigError(f"missing {prefix}.radius")
            return Ball(tuple(center), radius)
        if shape == "polygon":
            raw = config.require(f"{prefix}.vertices")
            return ConvexPolygon(_parse_pairs(raw, f"{prefix}.vertices"))
    except GeometryError as exc:
        raise ConfigError(f"{prefix}: {exc}")
    raise ConfigError(f"{prefix}.shape: unknown shape {shape!r}")


def grid_from_config(raw: str) -> np.ndarray:
    """L grid: 'lo:hi:count' is geometric (log-spaced, best conditioning
    for the scaling design matrix); a comma list is taken verbatim."""
    raw = raw.strip()
    if ":" in raw and "," not in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid: expected lo:hi:count, got {raw!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"grid: non-numeric field in {raw!r}")
        if not (0 < lo < hi < math.inf) or count < 2:
            raise ConfigError(f"grid: need 0 < lo < hi < inf and count >= 2, "
                              f"got {raw!r}")
        return np.geomspace(lo, hi, count)
    try:
        grid = np.array([float(part) for part in raw.split(",") if part.strip()])
    except ValueError:
        raise ConfigError(f"grid: non-numeric entry in {raw!r}")
    if len(grid) == 0:
        raise ConfigError("grid: empty")
    if not all(0 < L < math.inf for L in grid) or len(set(grid)) < len(grid):
        raise ConfigError(f"grid: need distinct finite L > 0, got {raw!r}")
    return grid


def alphas_from_config(config: RunConfig, key: str = "alpha",
                       default=(1.0,)) -> list[float]:
    alphas = config.get_floats(key, list(default))
    if not alphas:
        raise ConfigError(f"{key}: need at least one Renyi order")
    for alpha in alphas:
        if not alpha > 0:
            raise ConfigError(f"{key}: Renyi orders must be positive, "
                              f"got {alpha}")
    if len(set(alphas)) != len(alphas):
        raise ConfigError(f"{key}: Renyi orders must be distinct, "
                          f"got {alphas}")
    return alphas


def mode_from_config(config: RunConfig) -> tuple[str, int | None]:
    """(mode, budget) from mode and disc.budget, None the route's default."""
    mode = config.get("mode", "auto").strip().lower()
    budget = config.get_int("disc.budget")
    if mode not in ("auto", "lattice", "tensor_box"):
        raise ConfigError(f"mode: unknown mode {mode!r}")
    if budget is not None and budget < 1:
        raise ConfigError(f"disc.budget: need an integer >= 1, got {budget}")
    return mode, budget


def momenta_for_mode(mode: str, gamma: Domain, omega: Domain) -> Domain:
    """gamma as mode reads it: lattice makes an interval union a
    LatticeSea, and tensor_box needs a box pair (else GeometryError)."""
    if mode == "lattice":
        if not isinstance(gamma, IntervalUnion):
            raise GeometryError(
                "lattice mode needs a symmetric momentum interval (-k_F, k_F)")
        return LatticeSea(gamma.intervals)
    if mode == "tensor_box" and not (isinstance(gamma, Box)
                                     and isinstance(omega, Box)):
        raise GeometryError("tensor_box mode needs box momentum and "
                            "spatial regions")
    return gamma
