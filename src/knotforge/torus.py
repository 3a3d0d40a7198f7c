"""Exact arithmetic of unoriented essential simple closed curves on the
once-punctured torus.

A curve class is a primitive integer vector (p, q) in the homology basis
(mu, lambda), identified with its negative.  The normal form has p > 0, or
(p, q) = (0, 1).  All arithmetic is exact (Python integers).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class CurveError(ValueError):
    """Base class for invalid curve data."""


class ZeroClass(CurveError):
    """(0, 0) does not represent an essential curve."""


class NonPrimitive(CurveError):
    """gcd(|p|, |q|) > 1: the class is a multiple of a simple curve."""


@dataclass(frozen=True, order=True)
class TorusCurve:
    """Normal-form slope (p, q).  Construct via :func:`normalize`."""

    p: int
    q: int

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def normalize(p: int, q: int) -> TorusCurve:
    """Return the normal-form representative of the unoriented class of (p, q).

    Raises ZeroClass for (0, 0) and NonPrimitive when gcd(|p|, |q|) > 1.
    """
    if p == 0 and q == 0:
        raise ZeroClass("(0, 0) is not an essential curve class")
    if gcd(abs(p), abs(q)) != 1:
        raise NonPrimitive(f"({p}, {q}) is not primitive")
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return TorusCurve(p, q)


MU = normalize(1, 0)
LAMBDA = normalize(0, 1)
NU = normalize(1, 1)

# The six classes for which the 3-arc lower bound on compressing-disk
# intersections with the pants P fails: lambda, mu, nu, lambda-mu,
# lambda+nu, mu+nu (in normal form).
EXCEPTIONAL_SET = frozenset(
    {
        LAMBDA,
        MU,
        NU,
        normalize(-1, 1),
        normalize(1, 2),
        normalize(2, 1),
    }
)


def intersection(a: TorusCurve, b: TorusCurve) -> int:
    """Geometric intersection number |a.p * b.q - a.q * b.p| (the distance)."""
    return abs(a.p * b.q - a.q * b.p)


def dehn_twist(kappa: TorusCurve, alpha: TorusCurve, n: int) -> TorusCurve:
    """Apply n positive Dehn twists along alpha to kappa.

    With kappa = (r, s), alpha = (t, v) and d their intersection number the
    result is (r + n*d*t, s + n*d*v).  The lift of alpha used in the formula
    is its normal form, which fixes the sign convention: positive n is a
    right-handed twist in the right-handed (mu, lambda) basis.
    """
    d = intersection(kappa, alpha)
    return normalize(kappa.p + n * d * alpha.p, kappa.q + n * d * alpha.q)


def is_exceptional(tau: TorusCurve) -> bool:
    """True iff tau is one of the six classes in EXCEPTIONAL_SET."""
    return tau in EXCEPTIONAL_SET
