"""Exact arithmetic of unoriented essential simple closed curves on the
once-punctured torus.

A curve class is a primitive integer vector (p, q) in the homology basis
(mu, lambda), identified with its negative.  The normal form has p > 0, or
(p, q) = (0, 1).  All arithmetic is exact (Python integers).

`normalize` is the one checked constructor of curves: it rejects (0, 0) and
non-primitive vectors and flips the sign into normal form.  A curve is a
NamedTuple of (p, q), so it equals, hashes and sorts like that tuple, and
its constructor `TorusCurve(p, q)` checks nothing.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

_new = tuple.__new__


class CurveError(ValueError):
    """Base class for invalid curve data."""


class ZeroClass(CurveError):
    """(0, 0) does not represent an essential curve."""


class NonPrimitive(CurveError):
    """gcd(|p|, |q|) > 1: the class is a multiple of a simple curve."""


class TorusCurve(NamedTuple):
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
    return _new(TorusCurve, (p, q))


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
    """Geometric intersection number |a.p * b.q - a.q * b.p| (the distance).

    No crossing-sign check is needed for torus curves.  Lemma: two oriented
    essential simple closed curves (p, q) and (r, s) on the torus,
    straightened to lines, cross |ps - qr| times, and every crossing has the
    sign of ps - qr.  So all crossings of coherently oriented curves have
    one sign, and a rule that asks each crossing to join parallel endpoint
    classes on one side and antiparallel ones on the other holds by
    construction.
    """
    return abs(a.p * b.q - a.q * b.p)


def twist(kappa: TorusCurve, alpha: TorusCurve, m: int) -> TorusCurve:
    """The signed twist T_alpha^m(kappa) = normalize(kappa + m*w*alpha), with
    w = kappa.p*alpha.q - kappa.q*alpha.p (Farb & Margalit, Primer on Mapping
    Class Groups, Prop. 6.3).  Negating the lift of kappa negates the sum and
    negating that of alpha keeps it, so the class is well defined; twisting
    fixes w, so T^m(T^n(kappa)) = T^(m+n)(kappa) and T^0 is the identity.
    """
    w = kappa.p * alpha.q - kappa.q * alpha.p
    return dehn_twist(kappa, alpha, m if w >= 0 else -m)


def dehn_twist(kappa: TorusCurve, alpha: TorusCurve, n: int) -> TorusCurve:
    """n Dehn twists along alpha, each moving kappa by d = |w| copies of alpha:
    normalize(kappa + n*|w|*alpha).  A negative count can flip the normal
    form of kappa and so the sign of w, hence counts compose only when both
    are >= 0; `twist` is the group action.

    Lemma: for each integer c, v -> v + c*w(v, alpha)*alpha has
    determinant 1, and n*|w| = c*w for c = n or c = -n; so a primitive kappa
    gives a primitive, nonzero result, and a twist of normal-form inputs,
    by this function or by `twist`, never raises.
    """
    w = kappa.p * alpha.q - kappa.q * alpha.p
    m = n * abs(w)
    return normalize(kappa.p + m * alpha.p, kappa.q + m * alpha.q)


def is_exceptional(tau: TorusCurve) -> bool:
    """True iff tau is one of the six classes in EXCEPTIONAL_SET."""
    return tau in EXCEPTIONAL_SET
