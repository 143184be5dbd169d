"""The public names the package and its modules export."""

import importlib

import pytest

import fermient

MODULES = ["asymptotics", "cli", "config", "discretize", "functionals",
           "geometry", "kernels", "records", "spectra", "validate"]


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
