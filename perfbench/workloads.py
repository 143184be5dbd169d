"""The three workloads: fixed command lists and the gate on every output.

An operation is one `fermient` CLI call.  Its check returns a Verdict:
whether every output passed, the relative deviations of its gated
results from their closed forms, and named values the workload's
summary needs.  Tolerances are those of tests/test_acceptance.py.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

PI = math.pi
# Gated fit tolerances from tests/test_acceptance.py: A2 per order for
# the half-filled lattice, A3 for the 1D continuum, A4 for 2D sweeps.
A2 = {0.5: 0.03, 1.0: 0.02, 2.0: 0.03}
A3 = {1.0: 0.05, 2.0: 0.05}
A4 = {1.0: 0.10, 2.0: 0.10}
FUNCTIONAL_TOL = 1e-8          # A1
# widom_J_monte_carlo reports 3 standard errors.  A 3-sigma gate fails
# by chance once in ~370 calls, and a benchmark session makes hundreds,
# so Monte Carlo values are held to 5 standard errors instead.
MC_GATE = 5.0 / 3.0
# A default-resolution 3D jcoeff needs a 6 GiB block; its child process
# runs under this address-space limit so it fails instead of exhausting
# the machine.
PROBE_LIMIT_MIB = 2048


def prefactor(alpha: float) -> float:
    """(1 + alpha) / (24 alpha), with the alpha -> inf limit 1/24."""
    return 1.0 / 24.0 if math.isinf(alpha) else (1.0 + alpha) / (24.0 * alpha)


def _alpha(value) -> float:
    return math.inf if value == "inf" else float(value)


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    stderr: str


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    gated: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    argv: list
    check: object                 # Outcome -> Verdict
    outputs: tuple = ()           # files removed before each call
    probe: bool = False           # run in a child under PROBE_LIMIT_MIB


def _config_file(workdir, name, items: dict) -> str:
    path = os.path.join(workdir, name + ".cfg")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{k} = {v}\n" for k, v in items.items()))
    return path


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_op(workdir, name, items, points, j_exact, gates) -> Op:
    """One CLI sweep with --out, --csv and its .partial file."""
    cfg = _config_file(workdir, name, items)
    out = os.path.join(workdir, name + ".json")
    table = os.path.join(workdir, name + ".csv")
    alphas = [_alpha(a) for a in items["alpha"].split(",")]

    def check(outcome: Outcome) -> Verdict:
        if outcome.exit_code != 0:
            return Verdict(False, f"exit {outcome.exit_code}: "
                                  f"{outcome.stderr.strip()[-300:]}")
        record = _load(out)
        if os.path.exists(out + ".partial"):
            return Verdict(False, ".partial left after a finished sweep")
        with open(table, newline="", encoding="utf-8") as handle:
            csv_rows = list(csv.DictReader(handle))
        rows = record["rows"]
        if len(rows) != points * len(alphas) or len(csv_rows) != len(rows):
            return Verdict(False, f"{len(rows)} rows, {len(csv_rows)} csv "
                                  f"rows, expected {points * len(alphas)}")
        by_L = {}
        for row in rows:
            S = row["S"]
            if not (math.isfinite(S) and S >= 0.0):
                return Verdict(False, f"S={S} at L={row['L']}")
            by_L.setdefault(row["L"], {})[_alpha(row["alpha"])] = S
        for L, series in by_L.items():
            if sorted(series) != sorted(alphas):
                return Verdict(False, f"orders {sorted(series)} at L={L}")
            values = [series[a] for a in sorted(series)]
            for lo, hi in zip(values, values[1:]):
                if hi > lo + 1e-12 * max(1.0, lo):
                    return Verdict(False, f"S_alpha increases in alpha "
                                          f"at L={L}: {values}")
        gated, devs = [], {}
        fits = {_alpha(f["alpha"]): f for f in record["fits"]}
        for alpha in alphas:
            fit = fits[alpha]
            theory = prefactor(alpha) * j_exact
            if abs(fit["theory"] - theory) > 1e-12 * theory:
                return Verdict(False, f"theory {fit['theory']} != {theory} "
                                      f"at alpha={alpha}")
            if not math.isfinite(fit["a"]):
                return Verdict(False, f"fit a={fit['a']} at alpha={alpha}")
            devs[alpha] = abs(fit["a"] / theory - 1.0)
            if alpha in gates:
                gated.append(devs[alpha])
                if devs[alpha] >= gates[alpha]:
                    return Verdict(False, f"alpha={alpha}: fit deviates "
                                          f"{devs[alpha]:.3%}, tolerance "
                                          f"{gates[alpha]:.0%}")
        return Verdict(True, "", gated, {"quarter": devs.get(0.25, math.nan)})

    argv = ["sweep", "--config", cfg, "--out", out, "--csv", table,
            "--jobs", "1"]
    return Op(name, argv, check, outputs=(out, out + ".partial", table))


# ---------------------------------------------------------------------------
# jcoeff, functional, validate
# ---------------------------------------------------------------------------

def jcoeff_op(workdir, name, items, seed, j_exact, probe=False) -> Op:
    cfg = _config_file(workdir, name, items)
    out = os.path.join(workdir, name + ".json")

    def check(outcome: Outcome) -> Verdict:
        if outcome.exit_code != 0:
            return Verdict(False, f"exit {outcome.exit_code}: "
                                  f"{outcome.stderr.strip()[-300:]}")
        block = _load(out)["j"]
        gated = []
        for method in block["methods"]:
            error = abs(method["value"] - j_exact)
            allowed = method["error_estimate"]
            if method["method"] == "monte_carlo":
                allowed *= MC_GATE
            else:
                gated.append(error / j_exact)
            if not error <= allowed:
                return Verdict(False, f"{method['method']} J="
                                      f"{method['value']} vs {j_exact}, "
                                      f"error {error:.3g} > {allowed:.3g}")
        return Verdict(True, "", gated, {"J": block["value"]})

    argv = ["jcoeff", "--config", cfg, "--out", out, "--seed", str(seed)]
    return Op(name, argv, check, outputs=(out,), probe=probe)


def functional_op(workdir) -> Op:
    items = {"functional.alphas": "0.25,0.5,1,1.5,2,4,10,inf"}
    cfg = _config_file(workdir, "functional", items)
    out = os.path.join(workdir, "functional.json")
    alphas = [_alpha(a) for a in items["functional.alphas"].split(",")]

    def check(outcome: Outcome) -> Verdict:
        if outcome.exit_code != 0:
            return Verdict(False, f"exit {outcome.exit_code}")
        rows = {_alpha(r["alpha"]): r for r in _load(out)["functional_rows"]}
        if sorted(rows) != sorted(alphas):
            return Verdict(False, f"orders {sorted(rows)}")
        gated = []
        for alpha, row in rows.items():
            target = prefactor(alpha)
            for key in ("numeric", "dilog_route"):
                if not abs(row[key] - target) < FUNCTIONAL_TOL:
                    return Verdict(False, f"I(h_{alpha}) {key} {row[key]} "
                                          f"vs {target}")
            gated.append(abs(row["numeric"] / target - 1.0))
        return Verdict(True, "", gated, {"I_quarter": rows[0.25]["numeric"]})

    argv = ["functional", "--config", cfg, "--out", out]
    return Op("functional", argv, check, outputs=(out,))


def validate_op(workdir) -> Op:
    out = os.path.join(workdir, "validate.json")

    def check(outcome: Outcome) -> Verdict:
        if outcome.exit_code != 0:
            return Verdict(False, f"exit {outcome.exit_code}: "
                                  f"{outcome.stderr.strip()[-300:]}")
        record = _load(out)
        checks = record["checks"]
        summary = outcome.stdout.strip().splitlines()[-1]
        if not (record["passed"] and all(c["passed"] for c in checks)
                and summary == f"{len(checks)}/{len(checks)} checks passed"):
            return Verdict(False, summary)
        return Verdict(True)

    return Op("validate", ["validate", "--out", out], check, outputs=(out,))


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

LATTICE = {
    "mode": "lattice",
    "gamma.k_fermi": repr(PI / 2.0),
    "omega.shape": "interval",
    "omega.intervals": "0:1",
    "sweep.L": "200:2000:10",
    "alpha": "0.25,0.5,1,2,inf",
}
INTERVAL_1D = {
    "gamma.shape": "interval", "gamma.intervals": "-1:1",
    "omega.shape": "interval", "omega.intervals": "0:1",
    "sweep.L": "60:600:8", "alpha": "0.25,1,2",
}
DISK_DISK = {
    "gamma.shape": "ball", "gamma.center": "0,0", "gamma.radius": "1",
    "omega.shape": "ball", "omega.center": "0,0", "omega.radius": "1",
    "sweep.L": "2:8:6", "alpha": "0.25,1,2",
}
BOX_BOX = {
    "mode": "tensor_box",
    "gamma.shape": "box", "gamma.bounds": "-1:1,-1:1",
    "omega.shape": "box", "omega.bounds": "0:1,0:1",
    "sweep.L": "20:200:8", "alpha": "0.25,1,2",
}
BALL3 = {"shape": "ball", "center": "0,0,0", "radius": "1"}
DISK = {"shape": "ball", "center": "0,0", "radius": "1"}
CUBE_MOMENTUM = {"shape": "box", "bounds": "-1:1,-1:1,-1:1"}
CUBE = {"shape": "box", "bounds": "0:1,0:1,0:1"}
SQUARE = {"shape": "box", "bounds": "0:1,0:1"}


def _pair(gamma: dict, omega: dict, **extra) -> dict:
    items = {f"gamma.{k}": v for k, v in gamma.items()}
    items.update({f"omega.{k}": v for k, v in omega.items()})
    items.update(extra)
    return items


def lattice_sweep(workdir, seed, pass_index):
    return [sweep_op(workdir, "lattice", LATTICE, 10, 4.0, A2)]


def continuum_sweep(workdir, seed, pass_index):
    return [
        sweep_op(workdir, "interval-1d", INTERVAL_1D, 8, 4.0, A3),
        sweep_op(workdir, "disk-disk", DISK_DISK, 6, 4.0, A4),
        sweep_op(workdir, "box-box", BOX_BOX, 8, 8.0 / PI, A4),
    ]


def boundary_coefficient(workdir, seed, pass_index):
    mc = [seed * 1000 + pass_index * 10 + k for k in range(4)]
    return [
        jcoeff_op(workdir, "ball3-box3", _pair(
            BALL3, CUBE, **{"jcoeff.resolution": "64"}), mc[0], 3.0 / PI),
        jcoeff_op(workdir, "box3-ball3", _pair(
            CUBE_MOMENTUM, BALL3, **{"jcoeff.resolution": "64"}), mc[1],
            12.0 / PI),
        jcoeff_op(workdir, "disk-square", _pair(DISK, SQUARE), mc[2],
                  8.0 / PI),
        jcoeff_op(workdir, "ball3-box3-default", _pair(BALL3, CUBE), mc[3],
                  3.0 / PI, probe=True),
        functional_op(workdir),
        validate_op(workdir),
    ]


def _quarter_of(op_name):
    def quarter(values):
        return values[op_name]["quarter"]
    return quarter


def _boundary_quarter(values):
    """The alpha = 1/4 coefficient (5/24) J of box3/ball3 as a user gets
    it: the numeric I(h_1/4) times the quadrature J (this pair has no
    closed form), against 5/24 * 12/pi."""
    coefficient = values["functional"]["I_quarter"] * values["box3-ball3"]["J"]
    return abs(coefficient / (prefactor(0.25) * 12.0 / PI) - 1.0)


WORKLOADS = {
    "lattice-sweep": (lattice_sweep, _quarter_of("lattice")),
    "continuum-sweep": (continuum_sweep, _quarter_of("interval-1d")),
    "boundary-coefficient": (boundary_coefficient, _boundary_quarter),
}
