"""Exact curve calculus on handlebody boundaries, disk-busting
certification, bound inversion, combinatorial-map verification, and
certified knot-family catalogs."""

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
