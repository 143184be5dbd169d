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
                       scaling runs: {alpha: SweepResult} from one
                       spectrum per L, one fit per SweepResult, and the
                       fit against the coefficient predicted from J
    widom_J            the boundary coefficient J, exact, or by
                       quadrature at a given resolution
    entropy_log_coefficient, predicted_log_prefactor
                       the functional I(h_alpha) and its closed form
"""

from .asymptotics import (ScalingFit, SweepResult, compare_theory,
                          fit_scaling, sweep)
from .discretize import (DiscretizedOperator, LatticeCorrelation,
                         lattice_correlation, nystrom,
                         ring_block_correlation)
from .functionals import (dilog, entropy_function, entropy_log_coefficient,
                          entropy_log_coefficient_dilog,
                          log_coefficient_functional,
                          predicted_log_prefactor)
from .geometry import (Ball, Box, ConvexPolygon, Domain, GeometryError,
                       IntervalUnion, interval, mean_density, widom_J,
                       widom_J_density_form, widom_J_monte_carlo,
                       widom_J_sphere)
from .kernels import FermiKernel
from .spectra import (EntropyResult, PipelineConfig, Spectrum,
                      entropy_pipeline, eigenvalues, pipeline_spectrum,
                      renyi_entropy, tensor_spectrum)

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "ConvexPolygon", "Domain", "GeometryError",
    "IntervalUnion", "interval", "mean_density",
    "widom_J", "widom_J_density_form", "widom_J_monte_carlo",
    "widom_J_sphere",
    "entropy_function", "entropy_log_coefficient",
    "entropy_log_coefficient_dilog", "log_coefficient_functional",
    "predicted_log_prefactor", "dilog",
    "FermiKernel",
    "DiscretizedOperator", "LatticeCorrelation", "nystrom",
    "lattice_correlation", "ring_block_correlation",
    "Spectrum", "EntropyResult", "PipelineConfig", "eigenvalues",
    "renyi_entropy", "tensor_spectrum",
    "pipeline_spectrum", "entropy_pipeline",
    "SweepResult", "ScalingFit", "sweep", "fit_scaling", "compare_theory",
    "__version__",
]
