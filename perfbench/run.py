"""fermient benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; fermient is imported from its
src/ directory, so nothing needs to be built or installed.  Workloads
(see perfbench/README.md): lattice-sweep, continuum-sweep,
boundary-coefficient.

--trace 0 measures the end-to-end metrics: set-up time of fresh worker
processes, wall time of full passes of the workload's commands, peak
resident memory, the share of operations that succeed, and the
deviations of results from their closed forms.  --trace 1 runs
untraced and traced passes and reports per-layer metrics.  Every output
is checked; the last line printed is a JSON object with the keys
correct, attempted, failed and metrics.  Full measurements, provenance
and spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("lattice-sweep", "continuum-sweep", "boundary-coefficient")
SETUP_SAMPLES = 5              # fresh workers timed per run, median kept
DEADLINE_S = 170.0             # a run ends within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "success_rate": "ratio", "max_rel_dev": "ratio",
                    "quarter_rel_dev": "ratio"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_fraction", "_per_point", "speedup", "coverage")):
        return "ratio"
    return "count"


class Worker:
    """A fresh worker process; set-up time ends at its "ready" line."""

    def __init__(self, args, workdir, result, setup_only):
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", workdir, "--result", result]
        if setup_only:
            command.append("--setup-only")
        start = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True, env=_worker_env())
        line = self.process.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == "ready"

    def wait(self, timeout):
        try:
            return self.process.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return None
        finally:
            self.process.stdout.close()


def _worker_env():
    nproc = str(len(os.sched_getaffinity(0)))
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""),
                OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc,
                MKL_NUM_THREADS=nproc)


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def _spread(values):
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "min": None, "max": None, "n": 0}
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def _end_to_end(report, setup):
    passes = report["passes"]
    ops = [op for p in passes for op in p["ops"]]
    succeeded = sum(op["ok"] for op in ops)
    stats = {
        "setup_s": _spread(setup),
        "wall_s": _spread([p["wall"] for p in passes]),
        "peak_rss_mb": _spread([report["peak_rss_mb"]]),
        "success_rate": _spread([succeeded / len(ops)]),
        "max_rel_dev": _spread([p["max_rel_dev"] for p in passes]),
        "quarter_rel_dev": _spread([p["quarter_rel_dev"] for p in passes]),
    }
    print(f"error_rate = {len(ops) - succeeded}/{len(ops)} operations "
          f"failed ({(len(ops) - succeeded) / len(ops):.4f})")
    return stats


def _per_layer(report):
    traced = report["traced"]
    names = list(traced[0]["layers"])
    stats = {name: _spread([p["layers"][name] for p in traced])
             for name in names}
    stats["spectra.thread_speedup"] = _spread([report["thread_speedup"]])
    stats["trace.overhead_s"] = _spread([report["trace_overhead_s"]])
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fermient", "cli.py")):
        print(f"no fermient sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    start = time.perf_counter()
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                worker = Worker(args, workdir, result, setup_only=True)
                code = worker.wait(DEADLINE_S - (time.perf_counter() - start))
                if not worker.ready or code != 0:
                    print("set-up worker failed", file=sys.stderr)
                    return 1
                setup.append(worker.setup_s)
        worker = Worker(args, workdir, result, setup_only=False)
        setup.append(worker.setup_s)
        code = worker.wait(DEADLINE_S - (time.perf_counter() - start))
        if not worker.ready or code != 0 or not os.path.exists(result):
            print(f"worker failed (exit {code})", file=sys.stderr)
            return 1
        with open(result, encoding="utf-8") as handle:
            report = json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in report["passes"] + report["traced"] for op in p["ops"]]
    unexpected = [op for op in ops if not op["ok"] and not op["known"]]
    for op in unexpected:
        print(f"FAILED {op['op']}: {op['detail']}")
    known = [op for op in ops if op["known"]]
    if known:
        print(f"known defect {known[0]['op']}: exit {known[0]['exit']} in "
              f"{len(known)} of {len(ops)} operations")
    stats = _per_layer(report) if args.trace else _end_to_end(report, setup)

    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, setup_s=setup, stats=stats)
    report["provenance"]["git_sha"] = _git_sha()
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    print("commands: " + json.dumps([c["argv"] for c in report["commands"]]))
    for name, s in stats.items():
        unit = END_TO_END_UNITS.get(name) or _unit(name)
        print(f"{name} = {s['median']!r} {unit} (median of {s['n']}; "
              f"min {s['min']!r}, max {s['max']!r})")
    correct = not unexpected and all(
        s["median"] is not None for s in stats.values())
    if args.trace:
        correct = correct and all(
            p["layers"]["trace.coverage"] > 0.95 for p in report["traced"])
    metrics = {name: {"value": s["median"],
                      "unit": END_TO_END_UNITS.get(name) or _unit(name)}
               for name, s in stats.items()}
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
