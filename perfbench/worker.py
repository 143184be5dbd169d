"""One benchmark worker: a fresh process that runs one workload.

    worker.py --workload W --seed N --seconds T --trace 0|1
              --workdir DIR --result PATH [--setup-only]

The worker imports fermient.cli, makes one tiny warm-up call (BLAS and
LAPACK initialised) and prints "ready"; the parent times set-up up to
that line.  It then repeats full passes of the workload's command list
until T seconds have passed, checks every output, and writes its
measurements as JSON to PATH.  With --trace 1 untraced and traced passes
alternate, so the difference between them is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer, layer_metrics, targets
from workloads import PROBE_LIMIT_MIB, WORKLOADS, Outcome, Verdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120
THREAD_BLOCK = 2000            # the largest lattice-sweep block
THREAD_REPEATS = 3


def _cli_call(argv):
    """fermient.cli.main(argv) in-process, output captured."""
    from fermient import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
    return Outcome(code, out.getvalue(), err.getvalue())


def _probe_call(argv):
    """The CLI call in a child process under an address-space cap."""
    command = [sys.executable, os.path.join(HERE, "child.py"), "probe",
               str(PROBE_LIMIT_MIB)] + argv
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return Outcome(-9, "", f"timed out after {exc.timeout} s")
    return Outcome(done.returncode, done.stdout, done.stderr)


def _config_text(argv):
    if "--config" not in argv:
        return None
    with open(argv[argv.index("--config") + 1], encoding="utf-8") as handle:
        return handle.read()


def run_pass(factory, quarter, workdir, seed, index, tracer=None):
    """One full pass of the command list; wall time counts the calls only."""
    ops = factory(workdir, seed, index)
    for op in ops:
        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)
    wall = 0.0
    results, gated, values = [], [], {}
    for op in ops:
        start = time.perf_counter()
        if op.probe:
            if tracer is None:
                outcome = _probe_call(op.argv)
            else:
                with tracer.span("bench.probe"):
                    outcome = _probe_call(op.argv)
        else:
            outcome = _cli_call(op.argv)
        seconds = time.perf_counter() - start
        wall += seconds
        try:
            verdict = op.check(outcome)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            verdict = Verdict(False, f"unreadable output: {exc!r}")
        # The known defect: the probe's child ends with an error exit.
        known = op.probe and not verdict.ok and outcome.exit_code > 0
        results.append({"op": op.name, "ok": verdict.ok, "known": known,
                        "exit": outcome.exit_code, "seconds": seconds,
                        "detail": verdict.detail})
        if verdict.ok:
            gated.extend(verdict.gated)
            values[op.name] = verdict.values
    try:
        quarter_dev = quarter(values)
    except KeyError:
        quarter_dev = None
    return {"wall": wall, "ops": results,
            "max_rel_dev": max(gated) if gated else None,
            "quarter_rel_dev": quarter_dev}


def thread_speedup():
    """Eigensolve time of the largest lattice block, 1 BLAS thread over
    all of them, each in a fresh child."""
    timings = {}
    nproc = len(os.sched_getaffinity(0))
    for threads in (1, nproc):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "eigen",
             str(THREAD_BLOCK), str(THREAD_REPEATS)],
            capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S,
            check=True)
        timings[threads] = float(done.stdout.strip().splitlines()[-1])
    return timings[1] / timings[nproc], timings


def provenance():
    import numpy as np
    import scipy

    import fermient

    config = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fermient": fermient.__version__,
        "blas": config.get("blas"),
        "lapack": config.get("lapack"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import fermient.cli

    source = os.path.realpath(fermient.cli.__file__)
    if not source.startswith(os.path.realpath(os.path.join(ROOT, "src"))):
        sys.exit(f"fermient imported from {source}, not from this checkout")
    warmup = _cli_call([
        "entropy", "--out", os.path.join(args.workdir, "warmup.json"),
        "mode=lattice", "gamma.k_fermi=1.5707963267948966",
        "omega.shape=interval", "omega.intervals=0:1", "entropy.L=8"])
    if warmup.exit_code != 0:
        sys.exit(f"warm-up call failed: {warmup.stderr}")
    print("ready", flush=True)
    if args.setup_only:
        return

    factory, quarter = WORKLOADS[args.workload]
    passes, traced, spans = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        passes.append(run_pass(factory, quarter, args.workdir, args.seed,
                               index))
        index += 1
        if args.trace:
            tracer = Tracer()
            tracer.install(targets())
            try:
                result = run_pass(factory, quarter, args.workdir, args.seed,
                                  index, tracer)
            finally:
                tracer.uninstall()
            index += 1
            result["layers"] = layer_metrics(tracer, result["wall"])
            traced.append(result)
            spans.append(tracer.dump())
        if (time.perf_counter() - start >= args.seconds
                and len(passes) >= (1 if args.trace else MIN_PASSES)):
            break

    report = {"passes": passes, "traced": traced, "spans": spans,
              "commands": [{"argv": op.argv, "config": _config_text(op.argv)}
                           for op in factory(args.workdir, args.seed, 0)],
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "provenance": provenance()}
    if args.trace:
        speedup, timings = thread_speedup()
        report["thread_speedup"] = speedup
        report["thread_timings"] = timings
        report["trace_overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(p["wall"] for p in passes))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
