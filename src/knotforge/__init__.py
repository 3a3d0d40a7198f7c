"""Exact curve calculus on handlebody boundaries, disk-busting
certification, bound inversion, combinatorial-map verification, and
certified knot-family catalogs.

`import knotforge` imports torus only.  Each other module is imported on
first attribute access (knotforge.maps, PEP 562) or by name
(`from knotforge import maps`)."""

import importlib

from .torus import (
    EXCEPTIONAL_SET,
    LAMBDA,
    MU,
    NU,
    TorusCurve,
    dehn_twist,
    intersection,
    is_exceptional,
    normalize,
    twist,
)

__version__ = "0.1.0"

__all__ = [
    "EXCEPTIONAL_SET",
    "LAMBDA",
    "MU",
    "NU",
    "TorusCurve",
    "dehn_twist",
    "intersection",
    "is_exceptional",
    "normalize",
    "twist",
    "__version__",
]

_SUBMODULES = ("bounds", "catalog", "cli", "maps", "pants", "plumbing")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
