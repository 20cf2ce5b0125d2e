"""Numerical laboratory for modular-form solutions of self-dual Bianchi IX
geometries and torus lattice sums from string perturbation theory."""

import importlib

__version__ = "0.1.0"

# Submodules load on first access (PEP 562), so a CLI call imports numpy
# only when its subcommand needs it.
_SUBMODULES = frozenset(
    {
        "amplitudes",
        "conformal",
        "errors",
        "flows",
        "geometry",
        "halphen",
        "maass",
        "modforms",
        "numdiff",
    }
)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
