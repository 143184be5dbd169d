"""Spans and counters recorded around calls into fermient's public functions.

The wrappers are installed from the benchmark's side, so the package
itself is unchanged: every module attribute (and class attribute, for
methods) that refers to a traced function is replaced by a wrapper for
the traced pass and restored afterwards.  Each call opens a span with
its name, start, end and the span that caused it; counters record the
work done at the same boundary.  Spans stay in memory until the run
ends.  Sweeps run with `--jobs 1`, so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans of one traced pass plus its counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counters = defaultdict(float)
        self.points = set()      # distinct (geometry, L) swept
        self._patches = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- wrapping ------------------------------------------------------
    def _wrapper(self, fn, name, observe, before):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = (signature.bind(*args, **kwargs).arguments
                     if observe or before else None)
            state = before(bound) if before else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
            if observe:
                observe(self, bound, result, state)
            return result
        return wrapper

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, observe, before).

        owner is a module or a class; a module-level function is also
        replaced wherever another fermient module imported it by name.
        span name None records counters only.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "fermient" or key.startswith("fermient.")]
        for owner, attr, name, observe, before in targets:
            original = inspect.getattr_static(owner, attr)
            wrapper = self._wrapper(original, name, observe, before)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict:
        """Total self time per span name (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return totals

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


# ---------------------------------------------------------------------------
# What is counted at each boundary
# ---------------------------------------------------------------------------

def _eigen(tr, bound, spectrum, _):
    lam = spectrum.eigenvalues
    n = len(lam)
    tr.counters["spectra.eigen_calls"] += 1
    tr.counters["spectra.eigen_n3"] += float(n) ** 3
    tr.counters["spectra.eigenvalues"] += n
    tr.counters["spectra.interior"] += int(
        np.count_nonzero(np.minimum(lam, 1.0 - lam) > 1e-12))
    tr.counters["spectra.clamp_count"] += spectrum.clamp_count
    if tr.inside("asymptotics.sweep"):
        tr.counters["spectra.sweep_solves"] += 1


def _sweep(tr, bound, result, _):
    key = (repr(bound["gamma"].describe()), repr(bound["omega"].describe()))
    for L in bound["L_grid"]:
        tr.points.add(key + (float(L),))


def _matrix(tr, bound, op, _):
    n = op.matrix.shape[0]
    tr.counters["discretize.entries"] += float(n) * n
    tr.counters["discretize.bytes"] += op.matrix.nbytes


def _displacement(tr, bound, values, _):
    shape = np.shape(bound["u"])
    if bound["self"].dim > 1:
        shape = shape[:-1]
    tr.counters["kernels.evals"] += math.prod(shape)


def _surface(tr, bound, quadrature, _):
    tr.counters["geometry.surface_nodes"] += len(quadrature)


def _cosine(tr, bound, total, _):
    tr.counters["geometry.cosine_pairs"] += len(bound["qa"]) * len(bound["qb"])


def _functional(tr, bound, result, _):
    tr.counters["functionals.evaluations"] += result.evaluations


def _json_bytes(tr, bound, text, _):
    if bound.get("path") is not None:
        tr.counters["records.bytes"] += len(text.encode()) + 1


def _size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _size_before(bound):
    return _size(bound["path"])


def _grown(tr, bound, _, before):
    tr.counters["records.bytes"] += _size(bound["path"]) - before


def targets():
    """The traced boundaries: (owner, attribute, span, observe, before)."""
    from fermient import (asymptotics, cli, config, discretize, functionals,
                          geometry, kernels, records, spectra, validate)
    surfaces = [(cls, "surface_quadrature", None, _surface, None)
                for cls in (geometry.Box, geometry.Ball,
                            geometry.ConvexPolygon)]
    return [
        (cli, "main", "cli.main", None, None),
        (config, "load_config", "config.load_config", None, None),
        (records, "write_json", "records.write_json", _json_bytes, None),
        (records, "write_csv", "records.write_csv", _grown, _size_before),
        (records, "append_partial_row", "records.append_partial_row",
         _grown, _size_before),
        (asymptotics, "sweep", "asymptotics.sweep", _sweep, None),
        (asymptotics, "fit_scaling", "asymptotics.fit_scaling", None, None),
        (discretize, "nystrom", "discretize.nystrom", _matrix, None),
        (discretize, "lattice_correlation", "discretize.lattice_correlation",
         _matrix, None),
        (kernels.FermiKernel, "displacement", "kernels.displacement",
         _displacement, None),
        (spectra, "eigenvalues", "spectra.eigenvalues", _eigen, None),
        (spectra, "renyi_entropy", "spectra.renyi_entropy", None, None),
        (spectra, "tensor_spectrum", "spectra.tensor_spectrum", None, None),
        (geometry, "widom_J", "geometry.widom_J", None, None),
        (geometry, "widom_J_monte_carlo", "geometry.widom_J_monte_carlo",
         None, None),
        (geometry, "_cosine_sum", None, _cosine, None),
        (functionals, "log_coefficient_functional",
         "functionals.log_coefficient_functional", _functional, None),
        (validate, "run_all", "validate.run_all", None, None),
    ] + surfaces


def layer_metrics(tr: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass (self times in seconds)."""
    own = tr.self_times()
    c = tr.counters
    eigen_n = c["spectra.eigenvalues"]
    return {
        "spectra.eigen_s": own["spectra.eigenvalues"],
        "spectra.eigen_calls": c["spectra.eigen_calls"],
        "spectra.eigen_n3": c["spectra.eigen_n3"],
        "spectra.solves_per_point": (c["spectra.sweep_solves"] / len(tr.points)
                                     if tr.points else 0.0),
        "spectra.interior_fraction": (c["spectra.interior"] / eigen_n
                                      if eigen_n else 0.0),
        "spectra.clamp_count": c["spectra.clamp_count"],
        "spectra.entropy_s": own["spectra.renyi_entropy"],
        "spectra.tensor_s": own["spectra.tensor_spectrum"],
        "discretize.assemble_s": (own["discretize.nystrom"]
                                  + own["discretize.lattice_correlation"]),
        "discretize.entries": c["discretize.entries"],
        "discretize.bytes": c["discretize.bytes"],
        "kernels.displacement_s": own["kernels.displacement"],
        "kernels.evals": c["kernels.evals"],
        "asymptotics.sweep_self_s": own["asymptotics.sweep"],
        "asymptotics.fit_s": own["asymptotics.fit_scaling"],
        "geometry.quadrature_s": own["geometry.widom_J"],
        "geometry.monte_carlo_s": own["geometry.widom_J_monte_carlo"],
        "geometry.surface_nodes": c["geometry.surface_nodes"],
        "geometry.cosine_pairs": c["geometry.cosine_pairs"],
        "functionals.coefficient_s":
            own["functionals.log_coefficient_functional"],
        "functionals.evaluations": c["functionals.evaluations"],
        "validate.run_s": own["validate.run_all"],
        "config.parse_s": own["config.load_config"],
        "records.write_s": (own["records.write_json"]
                            + own["records.write_csv"]
                            + own["records.append_partial_row"]),
        "records.bytes": c["records.bytes"],
        "cli.self_s": own["cli.main"],
        "trace.coverage": tr.root_seconds() / wall,
    }
