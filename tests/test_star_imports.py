"""Every module's __all__ names only what the module defines."""

import pkgutil

import pytest

import prepotential

MODULES = ["prepotential"] + [f"prepotential.{m.name}"
                              for m in pkgutil.iter_modules(prepotential.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a stale __all__ entry raises AttributeError here
    exec(f"from {module} import *", {})

