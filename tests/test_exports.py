"""Every exported name resolves, and the package re-exports only those."""

import importlib
import types

import pytest

import vsbdf3

MODULES = ("time_grid", "bdf_kernels", "ratio_analysis", "spectral", "allen_cahn", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"vsbdf3.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_package_reexports_only_exported_names():
    exported = {attr for name in MODULES
                for attr in importlib.import_module(f"vsbdf3.{name}").__all__}
    public = {attr for attr, value in vars(vsbdf3).items()
              if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - exported == set()
