"""The export contract: each module's __all__ and the names deadcore re-exports."""

import inspect
import sys

import deadcore as dc
from deadcore import analysis, cli, fraclap, grid, kernels, profiles, solver


def test_all_names_exist_and_every_export_is_listed_where_it_is_defined():
    for module in (analysis, cli, fraclap, grid, kernels, profiles, solver):
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
    public = [name for name, obj in vars(dc).items() if not name.startswith("_") and not inspect.ismodule(obj)]
    unlisted = [name for name in public if name not in sys.modules[getattr(dc, name).__module__].__all__]
    assert public and unlisted == []
