"""Result records: canonical JSON, flat CSV, and resumable partial rows.

Every command emits one record: a dict with schema_version, the exact
config it ran from, and command-specific blocks.  JSON is written with
sorted keys and default float repr (shortest exact round-trip), so
identical configs give bit-identical records apart from wall times.
Sweeps additionally append each finished row to a JSON-lines partial
file tagged with a config hash, letting interrupted runs resume.  An
entropy row is an EntropyResult's fields: entropy_row writes one and
entropy_result reads it back.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os

from .asymptotics import ScalingFit
from .config import RunConfig, serialize_config
from .geometry import WidomCoefficient
from .spectra import EntropyResult

__all__ = [
    "SCHEMA_VERSION",
    "entropy_row",
    "entropy_result",
    "fit_block",
    "j_block",
    "make_record",
    "write_json",
    "write_csv",
    "config_hash",
    "append_partial_row",
    "load_partial_rows",
]

SCHEMA_VERSION = 1


def _json_safe(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


_ROW_FIELDS = tuple(f.name for f in dataclasses.fields(EntropyResult))


def entropy_row(result: EntropyResult) -> dict:
    """The result's fields as a JSON-safe dict; None fields are left out."""
    row = {name: getattr(result, name) for name in _ROW_FIELDS}
    row["alpha"] = _json_safe(result.alpha)
    return {key: value for key, value in row.items() if value is not None}


def entropy_result(row: dict) -> EntropyResult:
    """Inverse of entropy_row; keys that are not fields are ignored."""
    fields = {name: row[name] for name in _ROW_FIELDS if name in row}
    fields["alpha"] = float(fields["alpha"])
    return EntropyResult(**fields)


def fit_block(fit: ScalingFit, comparison: dict | None = None,
              alpha: float | None = None) -> dict:
    block = {
        "a": fit.log_coefficient,
        "b": fit.area_coefficient,
        "stderr_a": fit.stderr_log,
        "stderr_b": fit.stderr_area,
        "window": list(fit.window),
        "npoints": fit.npoints,
        "residual_norm": fit.residual_norm,
        "condition_number": fit.condition_number,
        "model": fit.model,
    }
    if alpha is not None:
        block["alpha"] = _json_safe(alpha)
    if comparison is not None:
        block["theory"] = comparison["theory"]
        block["rel_dev"] = comparison["rel_dev"]
    return block


def j_block(coefficient: WidomCoefficient) -> dict:
    return {
        "value": coefficient.value,
        "method": coefficient.method,
        "error_estimate": coefficient.error_estimate,
    }


def make_record(command: str, config: RunConfig, rows=None, **blocks) -> dict:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": dict(sorted(config.values.items())),
    }
    if rows is not None:
        record["rows"] = sorted(
            rows, key=lambda r: (_sort_alpha(r.get("alpha")), r.get("L") or 0))
    for name, block in blocks.items():
        if block is not None:
            record[name] = block
    return record


def _sort_alpha(alpha):
    if isinstance(alpha, str):
        return math.inf
    return alpha if alpha is not None else -1.0


def write_json(record: dict, path=None) -> str:
    text = json.dumps(record, sort_keys=True, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text


_CSV_COLUMNS = ("alpha", "L", "n", "S", "clamp_count", "max_violation",
                "interior", "mode", "wall_time_s", "ln_L", "S_scaled")


def write_csv(rows, path, d: int = 1) -> None:
    """Flat per-row CSV with the rectified columns appended.

    ln_L and S_scaled = S / L^(d-1) are the coordinates in which the
    enhanced area law is a straight line; d is the spatial dimension
    used for the rectification."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS,
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            full = dict(row)
            L = row.get("L")
            if L:
                full["ln_L"] = repr(math.log(L))
                full["S_scaled"] = repr(row["S"] / L ** (d - 1))
            writer.writerow({k: _csv_cell(full.get(k)) for k in _CSV_COLUMNS})


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return value if value is not None else ""


def config_hash(config: RunConfig) -> str:
    """Hash of the config (resume identity).

    Output paths and job counts are command-line flags, not config keys,
    so changing them does not orphan partial rows.  seed is left out:
    only jcoeff's Monte Carlo reads it, so a sweep resumed under another
    --seed, or none, keeps its rows."""
    semantic = RunConfig({key: value for key, value in config.values.items()
                          if key != "seed"})
    digest = hashlib.sha256(serialize_config(semantic).encode()).hexdigest()
    return digest[:16]


def append_partial_row(path, row: dict, digest: str) -> None:
    tagged = dict(row)
    tagged["config_hash"] = digest
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(tagged, sort_keys=True) + "\n")


def load_partial_rows(path, digest: str) -> dict:
    """Rows previously persisted for the same semantic config.

    Returns {(alpha, L): row}; rows from other configs, or malformed
    lines (a crash mid-write leaves at most one), are skipped."""
    if not os.path.exists(path):
        return {}
    rows = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if row.get("config_hash") != digest:
                continue
            rows[(row.get("alpha"), row.get("L"))] = row
    return rows
