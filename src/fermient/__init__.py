"""fermient: Renyi entanglement entropies of the free Fermi gas.

Spectra of localized Fermi projections, surface-integral boundary
coefficients, and scaling fits verifying the logarithmically enhanced
area law

    S_alpha(L) ~ (1+alpha)/(24 alpha) * J * L^(d-1) * ln L.

The usual entry points:

    pipeline_spectrum  geometry -> matrix -> spectrum, the one eigensolve
                       every Renyi order at that L is summed from
    entropy_pipeline   the same, then the entropy at one order
    sweep, fit_scaling, compare_theory
                       scaling runs (one spectrum per L for any set of
                       orders) against the predicted coefficient
    widom_J            the boundary coefficient J by exact or
                       quadrature routes
    entropy_log_coefficient, predicted_log_prefactor
                       the functional I(h_alpha) and its closed form
"""

from .asymptotics import (ScalingFit, SweepResult, compare_theory,
                          fit_scaling, predicted_prefactor, sweep,
                          synthetic_sweep, widom_prediction)
from .discretize import (DiscretizedOperator, LatticeCorrelation,
                         lattice_correlation, load_operator, nystrom,
                         ring_block_correlation, save_operator)
from .functionals import (dilog, dilog_one_minus, entropy_function,
                          entropy_log_coefficient,
                          entropy_log_coefficient_dilog,
                          log_coefficient_functional,
                          predicted_log_prefactor)
from .geometry import (Ball, Box, ConvexPolygon, Domain, GeometryError,
                       IntervalUnion, interval, mean_density, widom_J,
                       widom_J_density_form, widom_J_monte_carlo,
                       widom_J_sphere)
from .kernels import FermiKernel, fermi_kernel, is_hermitian_sample, kernel_eval
from .spectra import (EntropyResult, PipelineConfig, Spectrum,
                      entropy_pipeline, eigenvalues, pipeline_spectrum,
                      renyi_entropy, tensor_spectrum, trace_power_diagnostic)

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "ConvexPolygon", "Domain", "GeometryError",
    "IntervalUnion", "interval", "mean_density",
    "widom_J", "widom_J_density_form", "widom_J_monte_carlo",
    "widom_J_sphere",
    "entropy_function", "entropy_log_coefficient",
    "entropy_log_coefficient_dilog", "log_coefficient_functional",
    "predicted_log_prefactor", "dilog", "dilog_one_minus",
    "FermiKernel", "fermi_kernel", "kernel_eval", "is_hermitian_sample",
    "DiscretizedOperator", "LatticeCorrelation", "nystrom",
    "lattice_correlation", "ring_block_correlation",
    "save_operator", "load_operator",
    "Spectrum", "EntropyResult", "PipelineConfig", "eigenvalues",
    "renyi_entropy", "tensor_spectrum", "trace_power_diagnostic",
    "pipeline_spectrum", "entropy_pipeline",
    "SweepResult", "ScalingFit", "sweep", "synthetic_sweep",
    "fit_scaling", "predicted_prefactor", "widom_prediction",
    "compare_theory",
    "__version__",
]
