"""The public names the package and its modules export."""

import importlib

import pytest

import fermient

MODULES = ["asymptotics", "cli", "config", "discretize", "functionals",
           "geometry", "kernels", "records", "spectra", "validate"]


def test_package_exports_are_pinned():
    assert sorted(fermient.__all__) == sorted([
        "Ball", "Box", "ConvexPolygon", "Domain", "GeometryError",
        "IntervalUnion", "interval",
        "widom_J", "widom_J_monte_carlo", "widom_J_sphere",
        "entropy_function", "entropy_log_coefficient",
        "log_coefficient_functional", "predicted_log_prefactor",
        "FermiKernel",
        "DiscretizedOperator", "nystrom", "lattice_correlation",
        "Spectrum", "EntropyResult", "PipelineConfig", "eigenvalues",
        "renyi_entropy", "tensor_spectrum", "pipeline_spectrum",
        "SweepResult", "ScalingFit", "sweep", "fit_scaling",
        "compare_theory",
        "__version__",
    ])


def test_package_exports_resolve():
    missing = [name for name in fermient.__all__
               if not hasattr(fermient, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"fermient.{module}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(mod, name)] == []


def test_config_exports_the_parsers_the_cli_uses():
    from fermient import config
    assert {"alphas_from_config", "window_from_config"} <= set(config.__all__)
