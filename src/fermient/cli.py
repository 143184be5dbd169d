"""Command line interface.

Subcommands:

    entropy     S_alpha(gamma, L*omega) at every requested order, all
                from one spectrum
    sweep       L sweep + scaling fit + comparison to the predicted
                coefficient, one spectrum per L shared by every order;
                persists partial rows and resumes
    jcoeff      the exact boundary coefficient J, checked by quadrature
                where a boundary is a ball and by Monte Carlo in d >= 2
    functional  I(h_alpha) by quadrature vs the closed form over an
                alpha grid
    validate    structural invariants and each route against its oracle,
                one table line per check with its detail

Each command but validate reads `--config PATH` plus inline `key=value`
overrides (same syntax as config lines, before or after any flag; a
later override of a key wins) and writes a canonical JSON record to
`--out` (stdout if omitted).  entropy and sweep also write flat CSV
rows to `--csv`, sweep accepts `--jobs 1` (its L values run serially),
and jcoeff seeds its Monte Carlo estimate with `--seed` (or the `seed`
key).  A flag on a command that does not read it is an argparse error,
and a config key it does not read for its input a config error.  Exit
codes: 0 success, 2 config error (an --out or --csv that cannot be
written too, refused before any solve if its directory is missing), 3
computation error (a GeometryError, any geometry.ComputationError, or a
numpy LinAlgError), 4 validation failure.  A stdout closed early
(`| head`) drops only the rest of the record or of validate's table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, alphas_from_config,
                     domain_from_config, grid_from_config, load_config,
                     mode_from_config, momenta_for_mode)
from .geometry import (ComputationError, GeometryError, _check_same_dim,
                       _largest_resolution)
from .records import (SCHEMA_VERSION, _json_safe, append_partial_row,
                      config_hash, entropy_result, entropy_row, fit_block,
                      j_block, load_partial_rows, make_record, write_csv,
                      write_json)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_VALIDATION = 4

def _error_object(exc, kind: str) -> str:
    return json.dumps({"error": {"kind": kind, "type": type(exc).__name__,
                                 "message": str(exc)}}, sort_keys=True)


def _domains(config: RunConfig):
    gamma = domain_from_config(config, "gamma")
    omega = domain_from_config(config, "omega")
    try:
        _check_same_dim(gamma, omega)
    except GeometryError as exc:
        raise ConfigError(str(exc))
    return gamma, omega


def _gather_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig({})
    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"override {item!r} is not of the form key=value")
        overrides[key.strip()] = value.strip()
    if overrides:
        config = config.updated(overrides)
    return config


def _print(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:  # reader gone: keep the exit flush silent
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _emit(record: dict, out) -> None:
    text = write_json(record, out)
    if out is None:
        _print(text)


def cmd_entropy(args) -> int:
    from .asymptotics import sweep
    config = _gather_config(args)
    gamma, omega = _domains(config)
    alphas = alphas_from_config(config)
    L = config.get_float("entropy.L", 1.0)
    if not 0 < L < math.inf:
        raise ConfigError(f"entropy.L: need a finite positive dilation, "
                          f"got {L}")
    mode, budget = mode_from_config(config)
    config.check_read("entropy")
    gamma = momenta_for_mode(mode, gamma, omega)
    # A one-point sweep: one spectrum, summed once per order.
    by_order = sweep(gamma, omega, alphas, [L], budget)
    rows = [entropy_row(result) for result_set in by_order.values()
            for result in result_set.results]
    record = make_record("entropy", config, rows=rows)
    _emit(record, args.out)
    if args.csv:
        write_csv(rows, args.csv, d=gamma.dim)
    return EXIT_OK


def _lattice_grid(grid, omega):
    """Round an L grid to lattice block sizes (floats), deduplicated."""
    from .spectra import lattice_sites
    sites = lattice_sites(grid, omega)
    if (sites < 1).any():
        raise ConfigError(f"sweep.L: L={grid[np.argmax(sites < 1)]:g} "
                          "rounds to a lattice block of 0 sites")
    return np.unique(sites) / omega.volume()


def cmd_sweep(args) -> int:
    from .asymptotics import MIN_FIT_POINTS, compare_theory, fit_scaling, sweep
    from .geometry import widom_J
    config = _gather_config(args)
    gamma, omega = _domains(config)
    alphas = alphas_from_config(config)
    mode, budget = mode_from_config(config)
    grid = grid_from_config(config.require("sweep.L"))
    if mode == "lattice":
        grid = _lattice_grid(grid, omega)
    config.check_read("sweep")
    if len(grid) < MIN_FIT_POINTS:
        raise ConfigError(
            f"sweep.L has {len(grid)} distinct L values; the fit needs at "
            f"least {MIN_FIT_POINTS}")
    gamma = momenta_for_mode(mode, gamma, omega)

    # Partial rows are one line per (alpha, L), written through one
    # handle that the first row opens; an L is solved again unless every
    # requested order was persisted for it.
    partial_path = args.out + ".partial" if args.out else None
    precomputed = {alpha: {} for alpha in alphas}
    on_result, handles = None, {}
    if partial_path:
        digest = config_hash(config)
        for (_, L), row in load_partial_rows(partial_path, digest).items():
            result = entropy_result(row)
            if result.alpha in precomputed:
                precomputed[result.alpha][L] = result

        def on_result(res):
            append_partial_row(partial_path, entropy_row(res), digest,
                               handles)
    try:
        by_order = sweep(gamma, omega, alphas, grid, budget,
                         on_result=on_result, precomputed=precomputed)
    finally:
        for handle in handles.values():
            handle.close()

    J = widom_J(gamma, omega)
    rows, fits = [], []
    for alpha, result_set in by_order.items():
        rows.extend(entropy_row(r) for r in result_set.results)
        fit = fit_scaling(result_set)
        comparison = compare_theory(fit, J.value, alpha)
        fits.append(fit_block(fit, comparison, alpha))

    record = make_record("sweep", config, rows=rows, fits=fits,
                         j=j_block(J))
    _emit(record, args.out)
    if args.csv:
        write_csv(rows, args.csv, d=gamma.dim)
    if partial_path and os.path.exists(partial_path):
        os.remove(partial_path)
    return EXIT_OK


def cmd_jcoeff(args) -> int:
    from .geometry import widom_J, widom_J_monte_carlo
    config = _gather_config(args)
    if args.seed is not None:
        config = config.updated({"seed": str(args.seed)})
    gamma, omega = _domains(config)
    # A d = 1 J is an endpoint count with no estimate to seed, and a
    # polytope pair's quadrature is its face-pair sum again: a ball's
    # closed form alone is checked against its surface rule, by default
    # at the largest resolution up to 256 that fits the node limits.
    seed = resolution = None
    if gamma.dim > 1:
        seed = config.get_int("seed", 0)
        if seed < 0:
            raise ConfigError(f"seed: need an integer >= 0, got {seed}")
        if not (gamma.is_polytope and omega.is_polytope):
            resolution = config.get_int(
                "jcoeff.resolution", _largest_resolution(gamma, omega, 256))
            if resolution < 1:
                raise ConfigError(f"jcoeff.resolution: need an integer "
                                  f">= 1, got {resolution}")
    config.check_read("jcoeff")

    coefficients = [widom_J(gamma, omega)]
    if resolution is not None:
        coefficients.append(widom_J(gamma, omega, resolution))
    if seed is not None:
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
    _emit(record, args.out)
    return EXIT_OK


def cmd_functional(args) -> int:
    from .discretize import DiscretizationError
    from .functionals import (TOL, entropy_log_coefficient,
                              entropy_log_coefficient_dilog,
                              predicted_log_prefactor)
    config = _gather_config(args)
    alphas = alphas_from_config(config, key="functional.alphas",
                                default=(0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 10.0))
    config.check_read("functional")

    rows = []
    for alpha in alphas:
        target = predicted_log_prefactor(alpha)
        numeric = entropy_log_coefficient(alpha)
        abs_dev = abs(numeric.value - target)
        if not abs_dev <= TOL:
            raise DiscretizationError(
                f"I(h_alpha) at alpha={alpha:g}: the quadrature is "
                f"{abs_dev:.3g} off the closed form, over {TOL:g}")
        dilog_value = entropy_log_coefficient_dilog(alpha)
        dilog_dev = abs(dilog_value - target)
        if not dilog_dev <= 1e-12:
            raise DiscretizationError(
                f"I(h_alpha) at alpha={alpha:g}: the dilogarithm route is "
                f"{dilog_dev:.3g} off the closed form, over 1e-12")
        rows.append({
            "alpha": _json_safe(alpha),
            "numeric": numeric.value,
            "closed_form": target,
            "abs_dev": abs_dev,
            "dilog_route": dilog_value,
            "dilog_abs_dev": dilog_dev,
            "evaluations": numeric.evaluations,
        })

    record = make_record("functional", config, functional_rows=rows)
    _emit(record, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validate import run_all
    results = run_all()
    failures = [r for r in results if not r.passed]
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.seconds:7.3f}s  "
                     f"{r.detail}")
    lines.append(
        f"{len(results) - len(failures)}/{len(results)} checks passed")
    _print("\n".join(lines))
    if args.out:
        record = {
            "schema_version": SCHEMA_VERSION,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermient",
        description="Renyi entanglement entropies of the free Fermi gas: "
                    "spectra, boundary coefficients, and scaling fits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="path to a key = value config file")
        sp.add_argument("--out", help="write the JSON record here "
                                      "(default: stdout)")
        sp.add_argument("overrides", nargs="*", metavar="key=value",
                        help="inline config overrides")
        sp.set_defaults(handler=handler)
        return sp

    entropy_parser = add_command("entropy", cmd_entropy,
                                 "single entropy evaluation")
    sweep_parser = add_command("sweep", cmd_sweep,
                               "L sweep, scaling fit, theory check")
    for sp in (entropy_parser, sweep_parser):
        sp.add_argument("--csv", help="also write flat CSV rows here")
    sweep_parser.add_argument("--jobs", type=int, choices=(1,), default=1,
                              help="only 1: sweeps run their L values "
                                   "serially")
    jcoeff_parser = add_command("jcoeff", cmd_jcoeff,
                                "boundary coefficient J and its checks")
    jcoeff_parser.add_argument("--seed", type=int, default=None,
                               help="seed for the Monte Carlo estimate "
                                    "(d >= 2 pairs only)")
    add_command("functional", cmd_functional, "I(h_alpha) vs closed form")

    sp = sub.add_parser("validate", help="run the invariant suite")
    sp.add_argument("--out", help="write a JSON report here")
    sp.set_defaults(handler=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # An overrides positional is filled by one run of arguments, so
    # key=value items after an option flag come back unparsed; they
    # join the others in command-line order.  (parse_intermixed_args
    # would gather them but refuses a parser with subcommands.)
    args, stray = parser.parse_known_args(argv)
    if stray and hasattr(args, "overrides") \
            and not any(item.startswith("-") for item in stray):
        args.overrides += stray
    elif stray:
        parser.error(f"unrecognized arguments: {' '.join(stray)}")
    try:
        for flag in ("out", "csv"):
            path = getattr(args, flag, None)
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigError(f"--{flag} {path}: no such directory")
        return args.handler(args)
    except (ConfigError, OSError) as exc:
        # An OSError left here is a file the run could not write or read.
        print(_error_object(exc, "config"), file=sys.stderr)
        return EXIT_CONFIG
    except (GeometryError, ComputationError, np.linalg.LinAlgError) as exc:
        print(_error_object(exc, "computation"), file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
