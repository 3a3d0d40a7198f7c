"""Numerical bound formulas: the essential-surface intersection threshold
and its inversion into hitting-number lower bounds, catching-surface Euler
characteristic bookkeeping, the bridge-number lower bound, and the strong
threshold.

Conventions.  Hitting-number bounds come from inequalities of the shape
max(h, 1) >= |i| * N - c; these certify a bound on h itself only when the
right-hand side exceeds 1, so the integerized functions return
ceil(|i| * N - c) in that regime and 0 otherwise.  The bridge bound is
returned as an exact Fraction; its consumers do their own rounding.
"""

from __future__ import annotations

from fractions import Fraction

from .torus import NU, TorusCurve, intersection


class BadChi(ValueError):
    """A negative Euler characteristic input was required."""


class BadGenus(ValueError):
    """Genus outside the formula's range."""


def threshold(chi_Q: int, f_K: int, f_L: int, f_M: int, chi_F_hat: int, Delta_K: int) -> int:
    """The distance threshold above which the dichotomy (Mobius band or
    spanning annulus) applies: 6 f'_M max(-6 chi(Q), 2)
    (f'_K Delta'_K + f_M - chi(F^) + 2).

    f_K, f_L, f_M count boundary components of a properly embedded surface
    F on the three boundary pieces, chi_F_hat is the Euler characteristic
    of F capped off, and the primes are f'_K = max(f_K, 1),
    f'_M = max(f_M, 1) and Delta'_K = max(Delta_K, 1).
    """
    if f_L < 1:
        raise ValueError("f_L >= 1 is a standing assumption")
    if min(f_K, f_M, Delta_K) < 0:
        raise ValueError("boundary counts and distances are nonnegative")
    return (
        6
        * max(f_M, 1)
        * max(-6 * chi_Q, 2)
        * (max(f_K, 1) * max(Delta_K, 1) + f_M - chi_F_hat + 2)
    )


def parallelism_class_bound(chi_Q: int) -> int:
    """Max number of parallelism classes of nontrivial edges on Q."""
    return max(-3 * chi_Q, 1)


def parallel_edges_threshold(V: int, chi_S: int) -> int:
    """Edge count above which a monogon-free graph in S has parallel edges.

    Strictly above forces parallel edges; when chi(S) > 0 or S has
    boundary, equality already suffices.
    """
    if V < 1:
        raise ValueError("V >= 1 required")
    return 3 * V * max(1 - chi_S, 1)


def catching_chi(base_chi: int, tube_pairs: int, punctures: int) -> int:
    """Euler characteristic of a catching surface: a base surface, tube
    pairs joining oppositely oriented intersections, and punctures from
    removed neighborhoods; chi = base_chi - 2 * tube_pairs - punctures."""
    return base_chi - 2 * tube_pairs - punctures


# The tubed meridian disk caught by the gamma_g curve; its tube pairs and
# its puncture are counted in pants.gamma2.
GAMMA_DISK = catching_chi(1, 3, 1)  # -6


def nu_chi(kappa: TorusCurve) -> int:
    """Euler characteristic of the catching surface for twisting along the
    (1,1)-annulus: a 3-punctured
    sphere pushed off the splitting, punctured once by the lower annulus
    boundary and once per crossing of the companion curve with (1,1)."""
    return catching_chi(-1, 0, 1 + intersection(kappa, NU))


def _check_chi(chi_Q: int) -> int:
    if chi_Q >= 0:
        raise BadChi("a catching surface with chi(Q) < 0 is required")
    return abs(chi_Q)


def _hitting(i: int, chi_Q: int, width: int, k: int) -> int:
    """ceil(|i| / d - k) for d = width |chi|, the inversion of
    max(h, 1) >= |i| / d - k; informative only when the right side exceeds
    1, i.e. |i| > (k + 1) d, and 0 otherwise."""
    d = width * _check_chi(chi_Q)
    if abs(i) <= (k + 1) * d:
        return 0
    return -((k * d - abs(i)) // d)


def disk_hitting_lower_bound(i: int, chi_Q: int) -> int:
    """Certified lower bound on the disk hitting number after |i| twists:
    from max(h, 1) >= |i| / (36 |chi|) - 1, informative when |i| > 72 |chi|.
    """
    return _hitting(i, chi_Q, 36, 1)


def annulus_hitting_lower_bound(i: int, chi_Q: int) -> int:
    """Certified lower bound on the annulus hitting number after |i| twists:
    from max(h, 1) >= |i| / (72 |chi|) - 2, informative when |i| > 216 |chi|.
    """
    return _hitting(i, chi_Q, 72, 2)


_ZERO = Fraction(0)


def bridge_lower_bound(n: int, chi_Q: int, g: int) -> Fraction:
    """Lower bound (1/2)(|n| / (36 |chi|) - 2g) on the genus-g bridge
    number, clamped at 0; exact rational.  It is excess / (72 |chi|) for
    the integer excess |n| - 72 |chi| g, so only a positive excess builds
    a Fraction."""
    c = _check_chi(chi_Q)
    if g < 2:
        raise BadGenus("bridge bound needs g >= 2")
    d = 72 * c
    excess = abs(n) - d * g
    return Fraction(excess, d) if excess > 0 else _ZERO


def n_strong(chi_Q_nu: int) -> int:
    """Smallest threshold T with |i| > T certifying hitting numbers
    h_D > 3 and h_A > 1 for the core curve; equals 216 |chi|
    (= max(4 * 36 |chi|, 3 * 72 |chi|))."""
    c = _check_chi(chi_Q_nu)
    return 216 * c
