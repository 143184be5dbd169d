"""fermient: Renyi entanglement entropies of the free Fermi gas.

Spectra of localized Fermi projections, surface-integral boundary
coefficients, and scaling fits verifying the logarithmically enhanced
area law

    S_alpha(L) ~ (1+alpha)/(24 alpha) * J * L^(d-1) * ln L.

The usual entry points:

    pipeline_spectrum  geometry -> spectrum on the route the region types
                       pick (a LatticeSea Fermi sea: the lattice route),
                       the one solve per L every Renyi order is summed from
    renyi_entropy      the entropy of a spectrum at one order
    eigenvalues        the dense solve of a nystrom or lattice_correlation
                       matrix: the Nystrom route, and the oracle that
                       `fermient validate` checks every other route against
    sweep, fit_scaling, compare_theory
                       scaling runs: {alpha: SweepResult} from one
                       spectrum per L, one fit per SweepResult, and the
                       fit against the coefficient predicted from J
    widom_J            the boundary coefficient J, exact, or by
                       quadrature at a given resolution
    entropy_log_coefficient, predicted_log_prefactor
                       the functional I(h_alpha) and its closed form

Every export resolves on first use: `import fermient` loads none of the
modules above (nor numpy), and `from fermient import Ball` loads
geometry alone.
"""

import importlib

__version__ = "0.1.0"

# Each export and the module it is read from.  A name is imported on
# first access (PEP 562), so `import fermient` loads no submodule and a
# command loads only the modules it runs.
_EXPORTS = {name: module for module, names in [
    ("geometry", ("Ball", "Box", "ConvexPolygon", "Domain", "GeometryError",
                  "IntervalUnion", "LatticeSea", "interval",
                  "widom_J", "widom_J_monte_carlo")),
    ("functionals", ("entropy_function", "entropy_log_coefficient",
                     "log_coefficient_functional",
                     "predicted_log_prefactor")),
    ("kernels", ("FermiKernel",)),
    ("discretize", ("nystrom", "lattice_correlation")),
    ("spectra", ("Spectrum", "EntropyResult", "eigenvalues",
                 "renyi_entropy", "tensor_spectrum", "pipeline_spectrum")),
    ("asymptotics", ("SweepResult", "ScalingFit", "sweep", "fit_scaling",
                     "compare_theory")),
] for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
