"""Command line interface.

Subcommands:

    entropy     S_alpha(gamma, L*omega) at every requested order, all
                from one spectrum
    sweep       L sweep + scaling fit + comparison to the predicted
                coefficient, one spectrum per L shared by every order;
                persists partial rows and resumes
    jcoeff      boundary coefficient J by every applicable method
    functional  I(h_alpha) numeric vs closed form over an alpha grid
    validate    structural invariant suite

Each command reads `--config PATH` plus inline `key=value` overrides
(same syntax as config lines) and writes a canonical JSON record to
`--out` (stdout if omitted), optionally a flat CSV to `--csv`.  Exit
codes: 0 success, 2 config error, 3 computation error, 4 validation
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import (MIN_FIT_POINTS, FitError, compare_theory,
                          fit_scaling, sweep, synthetic_sweep)
from .config import (KNOWN_KEYS, ConfigError, RunConfig, alphas_from_config,
                     domain_from_config, grid_from_config, load_config,
                     pipeline_config_from, window_from_config)
from .discretize import DiscretizationError
from .functionals import (dilog_one_minus, entropy_log_coefficient,
                          entropy_log_coefficient_dilog,
                          log_coefficient_functional, predicted_log_prefactor)
from .geometry import Ball, GeometryError, widom_J, widom_J_monte_carlo
from .records import (append_partial_row, config_hash, entropy_result,
                      entropy_row, fit_block, j_block, load_partial_rows,
                      make_record, write_csv, write_json)
from .spectra import SpectralViolationError
from .validate import run_all

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_VALIDATION = 4

_COMPUTE_ERRORS = (DiscretizationError, SpectralViolationError, FitError,
                   GeometryError, np.linalg.LinAlgError)


def _error_object(exc, kind: str) -> str:
    return json.dumps({"error": {"kind": kind, "type": type(exc).__name__,
                                 "message": str(exc)}}, sort_keys=True)


def _domains(config: RunConfig):
    gamma = domain_from_config(config, "gamma")
    omega = domain_from_config(config, "omega")
    if gamma.dim != omega.dim:
        raise ConfigError(
            f"gamma has d={gamma.dim} but omega has d={omega.dim}")
    return gamma, omega


def _gather_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig({})
    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"override {item!r} is not of the form key=value")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if overrides:
        config = config.updated(overrides)
    unknown = sorted(set(config.values) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; the keys are "
                          "listed in the fermient.config docstring")
    return config


def _emit(record: dict, args, rows=None, d: int = 1) -> None:
    text = write_json(record, args.out)
    if args.out is None:
        print(text)
    if args.csv and rows is not None:
        write_csv(rows, args.csv, d=d)


def cmd_entropy(args) -> int:
    config = _gather_config(args)
    gamma, omega = _domains(config)
    alphas = alphas_from_config(config)
    L = config.get_float("entropy.L", 1.0)
    if not 0 < L < math.inf:
        raise ConfigError(f"entropy.L: need a finite positive dilation, "
                          f"got {L}")
    # A one-point sweep: one spectrum, summed once per order.
    by_order = sweep(gamma, omega, alphas, [L], pipeline_config_from(config))
    rows = [entropy_row(result) for result_set in by_order.values()
            for result in result_set.results]
    record = make_record("entropy", config, rows=rows)
    _emit(record, args, rows, d=gamma.dim)
    return EXIT_OK


def _lattice_grid(grid, omega):
    """Round an L grid to realizable lattice block sizes, deduplicated."""
    sites = np.unique(np.round(np.asarray(grid) * omega.volume()).astype(int))
    sites = sites[sites >= 1]
    if len(sites) == 0:
        raise ConfigError("sweep.L: no realizable lattice sizes in grid")
    return sites / omega.volume()


def cmd_sweep(args) -> int:
    config = _gather_config(args)
    gamma, omega = _domains(config)
    alphas = alphas_from_config(config)
    pipeline = pipeline_config_from(config)
    grid = grid_from_config(config.require("sweep.L"))
    if pipeline.mode == "lattice":
        grid = _lattice_grid(grid, omega)
    window = None
    if "sweep.window" in config:
        window = window_from_config(config.require("sweep.window"))
    lo, hi = window or (grid.min(), grid.max())
    inside = int(np.count_nonzero((grid >= lo) & (grid <= hi)))
    if inside < MIN_FIT_POINTS:
        raise ConfigError(
            f"fit window [{lo:g}, {hi:g}] keeps {inside} of the {len(grid)} "
            f"sweep.L points; the fit needs at least {MIN_FIT_POINTS}")

    partial_path = args.out + ".partial" if args.out else None
    if args.self_test:
        by_order = {alpha: synthetic_sweep(gamma, omega, alpha, grid)
                    for alpha in alphas}
    else:
        # Partial rows are one line per (alpha, L); an L is solved again
        # unless every requested order was persisted for it.
        precomputed = {alpha: {} for alpha in alphas}
        on_result = None
        if partial_path:
            digest = config_hash(config)
            for (_, L), row in load_partial_rows(partial_path,
                                                 digest).items():
                result = entropy_result(row)
                if result.alpha in precomputed:
                    precomputed[result.alpha][L] = result

            def on_result(res):
                append_partial_row(partial_path, entropy_row(res), digest)
        by_order = sweep(gamma, omega, alphas, grid, pipeline,
                         jobs=args.jobs, on_result=on_result,
                         precomputed=precomputed)

    rows, fits = [], []
    for alpha, result_set in by_order.items():
        rows.extend(entropy_row(r) for r in result_set.results)
        fit = fit_scaling(result_set, window=window)
        comparison = compare_theory(fit, gamma, omega, alpha)
        fits.append(fit_block(fit, comparison, alpha=alpha))

    record = make_record(
        "sweep", config, rows=rows,
        fits=fits,
        fit=fits[0] if len(fits) == 1 else None,
        j=j_block(widom_J(gamma, omega)),
        self_test=bool(args.self_test) or None,
    )
    _emit(record, args, rows, d=gamma.dim)
    if partial_path and os.path.exists(partial_path):
        os.remove(partial_path)
    return EXIT_OK


def cmd_jcoeff(args) -> int:
    config = _gather_config(args)
    gamma, omega = _domains(config)
    resolution = config.get_int("jcoeff.resolution", 256)
    if resolution < 1:
        raise ConfigError(f"jcoeff.resolution: need an integer >= 1, "
                          f"got {resolution}")
    seed = config.get_int("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed: need an integer >= 0, got {seed}")

    coefficients = []
    if gamma.dim == 1:
        coefficients.append(widom_J(gamma, omega))
    else:
        if gamma.is_polytope and omega.is_polytope:
            coefficients.append(widom_J(gamma, omega, method="face_pair"))
        if isinstance(gamma, Ball):
            coefficients.append(widom_J(gamma, omega, method="closed_form"))
        coefficients.append(widom_J(gamma, omega, resolution=resolution,
                                    method="quadrature"))
        coefficients.append(widom_J_monte_carlo(
            gamma, omega, rng=np.random.default_rng(seed)))

    values = [c.value for c in coefficients]
    agreement = max(values) - min(values) if len(values) > 1 else 0.0
    block = {
        "value": values[0],
        "agreement": agreement,
        "methods": [j_block(c) for c in coefficients],
    }
    record = make_record("jcoeff", config, j=block)
    _emit(record, args)
    return EXIT_OK


def cmd_functional(args) -> int:
    config = _gather_config(args)
    alphas = alphas_from_config(config, key="functional.alphas",
                                default=(0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 10.0))

    rows = []
    for alpha in alphas:
        target = predicted_log_prefactor(alpha)
        numeric = entropy_log_coefficient(alpha)
        dilog_value = entropy_log_coefficient_dilog(alpha)
        rows.append({
            "alpha": "inf" if math.isinf(alpha) else alpha,
            "numeric": numeric.value,
            "closed_form": target,
            "abs_dev": abs(numeric.value - target),
            "dilog_route": dilog_value,
            "dilog_abs_dev": abs(dilog_value - target),
            "evaluations": numeric.evaluations,
            "converged": numeric.converged,
        })

    y = 1.0e6
    limit_value = dilog_one_minus(y) + 0.5 * math.log(y) ** 2
    checks = {
        "linear_function_value": log_coefficient_functional(lambda t: t).value,
        "dilog_limit": {
            "y": y,
            "value": limit_value,
            "target": -math.pi ** 2 / 6.0,
            "abs_dev": abs(limit_value + math.pi ** 2 / 6.0),
        },
    }
    record = make_record("functional", config, functional_rows=rows,
                         checks=checks)
    _emit(record, args)
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_all()
    failures = [r for r in results if not r.passed]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {status}  {r.seconds:7.3f}s"
        if args.verbose or not r.passed:
            line += f"  {r.detail}"
        print(line)
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if args.out:
        record = {
            "schema_version": 1,
            "command": "validate",
            "checks": [{"name": r.name, "passed": r.passed,
                        "detail": r.detail, "seconds": r.seconds}
                       for r in results],
            "passed": not failures,
        }
        write_json(record, args.out)
    if failures:
        print("failed: " + ", ".join(r.name for r in failures),
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermient",
        description="Renyi entanglement entropies of the free Fermi gas: "
                    "spectra, boundary coefficients, and scaling fits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="path to a key = value config file")
        sp.add_argument("--out", help="write the JSON record here "
                                      "(default: stdout)")
        sp.add_argument("--csv", help="also write flat CSV rows here")
        sp.add_argument("--jobs", type=_positive_int, default=1,
                        help="parallel sweep jobs (default 1)")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed for Monte Carlo cross-checks")
        sp.add_argument("overrides", nargs="*", metavar="key=value",
                        help="inline config overrides")

    sp = sub.add_parser("entropy", help="single entropy evaluation")
    add_common(sp)
    sp.set_defaults(handler=cmd_entropy)

    sp = sub.add_parser("sweep", help="L sweep, scaling fit, theory check")
    add_common(sp)
    sp.add_argument("--self-test", action="store_true", dest="self_test",
                    help="fit synthetic data generated from the predicted "
                         "law instead of computing spectra")
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("jcoeff", help="boundary coefficient J, all methods")
    add_common(sp)
    sp.set_defaults(handler=cmd_jcoeff)

    sp = sub.add_parser("functional", help="I(h_alpha) vs closed form")
    add_common(sp)
    sp.set_defaults(handler=cmd_functional)

    sp = sub.add_parser("validate", help="run the invariant suite")
    sp.add_argument("--out", help="write a JSON report here")
    sp.add_argument("--verbose", action="store_true",
                    help="print per-check details and timings")
    sp.set_defaults(handler=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(_error_object(exc, "config"), file=sys.stderr)
        return EXIT_CONFIG
    except _COMPUTE_ERRORS as exc:
        print(_error_object(exc, "computation"), file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
