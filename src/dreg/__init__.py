"""dreg: exact regularity analyses for differential operators and modules.

Importing the package loads none of its modules.  A submodule loads the
first time it is read as an attribute (`dreg.regularity`); every name is
imported from the module that defines it.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "corpus", "dmod", "errors", "ideals", "lattices", "linalg",
               "operators", "parser", "polelattice", "polynomials", "regularity",
               "systems", "weyl")


def __getattr__(name: str):
    """A submodule, loaded on first access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
