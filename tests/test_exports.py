"""Every name a heislab module lists in ``__all__`` exists in that module, so a
deleted function left in ``__all__`` fails here rather than at import time of
a caller's ``from heislab.x import *``."""

import importlib
import pkgutil

import pytest

import heislab

MODULES = ["heislab"] + [f"heislab.{m.name}" for m in pkgutil.iter_modules(heislab.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_are_defined(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"
