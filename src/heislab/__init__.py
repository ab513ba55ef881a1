"""Computational laboratory for generalized Heisenberg groups.

Builds step-two algebras of Heisenberg type over the four real normed
division algebras, their simply connected groups in exponential coordinates
with the Koranyi gauge metric, the gauge inversion with certification of
its exact distance identity, and desk-scale inversion, sphericalization and
distortion machinery for finite metric spaces.

The submodules load on first use (PEP 562), so that a command imports only
the modules it runs.
"""

import importlib

__all__ = ["algebra", "distortion", "finite_metric", "hgroup", "hlie", "inversion", "util"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
