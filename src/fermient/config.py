"""Flat key = value run configuration.

Configs are plain text: one `key = value` per line, dotted keys for
sections, `#` comment lines and blank lines ignored.  Values stay
strings until a typed accessor asks for them, and serialization writes
keys sorted, so parse(serialize(config)) round-trips exactly.

Key reference (all optional unless a command requires them; any other
key is a config error):

    mode                    auto | continuum | lattice | tensor_box
                            (auto: tensor_box for box pairs, radial
                            sectors for ball/ball pairs in d = 2, 3,
                            else continuum; continuum forces the
                            Nystrom matrix)
    alpha                   Renyi order, or comma list of at least one;
                            'inf' allowed
    seed                    integer >= 0, Monte Carlo cross-checks only
                            (not part of the sweep resume hash)
    gamma.shape             interval_union | box | ball | polygon
    gamma.intervals         a:b[,c:d...]        (interval_union)
    gamma.bounds            lo:hi[,lo:hi...]    (box, one per axis)
    gamma.center            x[,y[,z]]           (ball)
    gamma.radius            r                   (ball)
    gamma.vertices          x:y[,x:y...]        (polygon, ccw)
    gamma.k_fermi           k                   (shorthand: interval -k:k)
    omega.*                 same scheme as gamma.*
    entropy.L               dilation for single-point runs (finite, > 0)
    sweep.L                 lo:hi:count (geometric grid) or explicit list
                            of distinct finite L > 0
    sweep.window            lo:hi fit window, lo < hi (default: whole
                            grid); it must keep >= 4 grid points, counted
                            after lattice rounding
    disc.nodes_per_unit     finite float > 0 (default: resolution from
                            the kernel)
    disc.budget             max continuum matrix size (and tensor axis
                            or radial rule size), integer >= 1
    disc.lattice_budget     max lattice block size in sites, integer >= 1
    jcoeff.resolution       ball surface rule resolution, integer >= 1
    functional.alphas       nonempty comma list for the functional command
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (Ball, Box, ConvexPolygon, Domain, GeometryError,
                       IntervalUnion, interval)
from .spectra import PipelineConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_text",
    "load_config",
    "serialize_config",
    "domain_from_config",
    "grid_from_config",
    "window_from_config",
    "alphas_from_config",
    "pipeline_config_from",
    "KNOWN_KEYS",
]

_SHAPE_KEYS = ("shape", "intervals", "bounds", "center", "radius",
               "vertices", "k_fermi")

# Every key the program reads: the key reference above, with omega.*
# spelled out.
KNOWN_KEYS = frozenset(
    ("mode", "alpha", "seed", "entropy.L", "sweep.L", "sweep.window",
     "disc.nodes_per_unit", "disc.budget", "disc.lattice_budget",
     "jcoeff.resolution", "functional.alphas")
    + tuple(f"{prefix}.{key}" for prefix in ("gamma", "omega")
            for key in _SHAPE_KEYS))


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass
class RunConfig:
    """Raw key -> value strings plus typed accessors."""

    values: dict = field(default_factory=dict)

    def __contains__(self, key):
        return key in self.values

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required config key {key!r}")
        return self.values[key]

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return _parse_order(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a number, got {raw!r}")

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}")

    def get_floats(self, key: str, default=None):
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return [_parse_order(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"key {key!r}: expected comma-separated numbers, "
                              f"got {raw!r}")

    def updated(self, overrides: dict) -> "RunConfig":
        merged = dict(self.values)
        merged.update(overrides)
        return RunConfig(merged)


def _parse_order(raw: str) -> float:
    """Float parser that admits 'inf' spellings for the min-entropy order."""
    text = raw.strip().lower()
    if text in ("inf", "infinity", "+inf"):
        return math.inf
    return float(text)


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
    """Build the gamma/omega domain from keys under the given prefix."""
    k_fermi = config.get_float(f"{prefix}.k_fermi")
    if k_fermi is not None:
        return interval(-k_fermi, k_fermi)
    shape = config.get(f"{prefix}.shape")
    if shape is None:
        raise ConfigError(f"missing {prefix}.shape (or {prefix}.k_fermi)")
    shape = shape.strip().lower()
    try:
        if shape in ("interval", "interval_union"):
            raw = config.require(f"{prefix}.intervals")
            return IntervalUnion(_parse_pairs(raw, f"{prefix}.intervals"))
        if shape == "box":
            raw = config.require(f"{prefix}.bounds")
            return Box(_parse_pairs(raw, f"{prefix}.bounds"))
        if shape == "ball":
            center = config.get_floats(f"{prefix}.center")
            if center is None:
                raise ConfigError(f"missing {prefix}.center")
            radius = config.get_float(f"{prefix}.radius")
            if radius is None:
                raise ConfigError(f"missing {prefix}.radius")
            return Ball(tuple(center), radius)
        if shape in ("polygon", "convex_polygon"):
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


def window_from_config(raw: str):
    parts = raw.split(":")
    if len(parts) != 2:
        raise ConfigError(f"window: expected lo:hi, got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"window: non-numeric field in {raw!r}")
    if not lo < hi:
        raise ConfigError(f"window: need lo < hi, got {raw!r}")
    return lo, hi


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


def pipeline_config_from(config: RunConfig) -> PipelineConfig:
    """PipelineConfig from mode and the disc.* keys."""
    mode = config.get("mode", "auto").strip().lower()
    if mode not in ("auto", "continuum", "lattice", "tensor_box"):
        raise ConfigError(f"mode: unknown mode {mode!r}")
    nodes_per_unit = config.get_float("disc.nodes_per_unit")
    if nodes_per_unit is not None and not 0 < nodes_per_unit < math.inf:
        raise ConfigError(f"disc.nodes_per_unit: need a finite positive "
                          f"density, got {nodes_per_unit}")
    budgets = {key: config.get_int(f"disc.{key}", getattr(PipelineConfig, key))
               for key in ("budget", "lattice_budget")}
    for key, value in budgets.items():
        if value < 1:
            raise ConfigError(f"disc.{key}: need an integer >= 1, got {value}")
    return PipelineConfig(mode=mode, nodes_per_unit=nodes_per_unit, **budgets)
