"""fermient: Renyi entanglement entropies of the free Fermi gas.

Spectra of localized Fermi projections, surface-integral boundary
coefficients, and scaling fits verifying the logarithmically enhanced
area law

    S_alpha(L) ~ (1+alpha)/(24 alpha) * J * L^(d-1) * ln L.

The usual entry points:

    pipeline_spectrum  geometry -> spectrum, the one solve per L that
                       every Renyi order is summed from
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
"""

from .asymptotics import (ScalingFit, SweepResult, compare_theory,
                          fit_scaling, sweep)
from .discretize import DiscretizedOperator, lattice_correlation, nystrom
from .functionals import (entropy_function, entropy_log_coefficient,
                          log_coefficient_functional,
                          predicted_log_prefactor)
from .geometry import (Ball, Box, ConvexPolygon, Domain, GeometryError,
                       IntervalUnion, interval, widom_J, widom_J_monte_carlo,
                       widom_J_sphere)
from .kernels import FermiKernel
from .spectra import (EntropyResult, PipelineConfig, Spectrum, eigenvalues,
                      pipeline_spectrum, renyi_entropy, tensor_spectrum)

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "ConvexPolygon", "Domain", "GeometryError",
    "IntervalUnion", "interval",
    "widom_J", "widom_J_monte_carlo", "widom_J_sphere",
    "entropy_function", "entropy_log_coefficient",
    "log_coefficient_functional", "predicted_log_prefactor",
    "FermiKernel",
    "DiscretizedOperator", "nystrom", "lattice_correlation",
    "Spectrum", "EntropyResult", "PipelineConfig", "eigenvalues",
    "renyi_entropy", "tensor_spectrum",
    "pipeline_spectrum",
    "SweepResult", "ScalingFit", "sweep", "fit_scaling", "compare_theory",
    "__version__",
]
