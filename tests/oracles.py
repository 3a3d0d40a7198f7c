"""Independent oracles used by the test suite.

Everything here recomputes library results by a different method: lattice
crossing enumeration for intersection numbers, explicit threshold scans
for the inverted hitting bounds and the strong threshold, the plain
exhaustive form of the canonical map key, and a Burnside count of chord
diagrams for the one-vertex map enumerator.  Pure integer arithmetic
throughout.
"""

from __future__ import annotations

from knotforge import bounds


def lattice_crossing_count(a, b) -> int:
    """Crossings of the (p,q) and (r,s) line families in the unit square
    torus model.

    The curves lift to t (p, q) + (m, n) and u (r, s); a crossing in the
    fundamental domain is an integer pair (m, n) whose solution (t, u) of
    t p - u r = m, t q - u s = n lies in [0, 1) x [0, 1).  Solved by
    Cramer's rule with integer comparisons only.
    """
    p, q = a.p, a.q
    r, s = b.p, b.q
    D = r * q - s * p
    if D == 0:
        return 0
    count = 0
    M = abs(p) + abs(r) + 1
    N = abs(q) + abs(s) + 1
    for m in range(-M, M + 1):
        for n in range(-N, N + 1):
            t_num = -s * m + r * n
            u_num = p * n - q * m
            if D > 0:
                if 0 <= t_num < D and 0 <= u_num < D:
                    count += 1
            else:
                if D < t_num <= 0 and D < u_num <= 0:
                    count += 1
    return count


class DiskBoundScan:
    """Incremental oracle for the disk hitting bound over increasing i.

    Inverts the threshold formula directly: a hitting number h is ruled
    out when i exceeds threshold(stats with f_K = h, f_M = 1,
    chi_F_hat = 2, Delta_K = 0), and the certified lower bound is one more
    than the largest ruled-out h.  The bound is informative only once h=0
    is ruled out (the h=0 and h=1 rows coincide through f'_K).
    """

    def __init__(self, chi_Q: int):
        self.chi_Q = chi_Q
        self.level = 0

    def _threshold(self, h: int) -> int:
        stats = bounds.CatchingStats(
            chi_Q=self.chi_Q, f_K=h, f_L=1, f_M=1, chi_F_hat=2, Delta_K=0
        )
        return bounds.threshold(stats)

    def value(self, i: int) -> int:
        """Certified lower bound at this i; call with nondecreasing i."""
        if self.level == 0:
            # informative only once both the h=0 and h=1 rows are beaten
            if i > self._threshold(0) and i > self._threshold(1):
                self.level = 2
            else:
                return 0
        while i > self._threshold(self.level):
            self.level += 1
        return self.level

    def reset(self):
        self.level = 0


def n_strong_scan(chi_Q_nu: int, limit: int = 10**6) -> int:
    """Smallest T with disk bound > 3 and annulus bound > 1 at every
    i > T, found by scanning (both bounds are nondecreasing in i)."""
    for i in range(1, limit):
        if (
            bounds.disk_hitting_lower_bound(i, chi_Q_nu) > 3
            and bounds.annulus_hitting_lower_bound(i, chi_Q_nu) > 1
        ):
            return i - 1
    raise AssertionError("scan limit reached")


def reference_canonical_key(m):
    """The canonical map key computed in full: breadth-first relabeling
    (rotation, then pairing) from every start dart in both orientations,
    minimum over all relabeled (sigma, alpha) pairs, with nothing cut
    short."""
    n = len(m.sigma)
    sigma_inv = [0] * n
    for d in range(n):
        sigma_inv[m.sigma[d]] = d
    best = None
    for orient in (m.sigma, tuple(sigma_inv)):
        for start in range(n):
            labels = {start: 0}
            order = [start]
            i = 0
            while i < len(order):
                d = order[i]
                for nxt in (orient[d], m.alpha[d]):
                    if nxt not in labels:
                        labels[nxt] = len(order)
                        order.append(nxt)
                i += 1
            key = (
                tuple(labels[orient[d]] for d in order),
                tuple(labels[m.alpha[d]] for d in order),
            )
            if best is None or key < best:
                best = key
    return best


def _matchings(points, partner):
    """Fill `partner` with every perfect matching of `points` in turn."""
    if not points:
        yield partner
        return
    first = points[0]
    for j in range(1, len(points)):
        partner[first], partner[points[j]] = points[j], first
        yield from _matchings(points[1:j] + points[j + 1 :], partner)


def chord_diagrams_up_to_dihedral(E: int) -> int:
    """Chord diagrams with E chords on 2E points of a circle, up to rotation
    and reflection, counted by Burnside's lemma: the mean number of the
    (2E - 1)!! perfect matchings fixed by each element of the dihedral
    group of order 4E.  These are the one-vertex maps with E edges up to
    orientation-reversing isomorphism (OEIS A054499)."""
    n = 2 * E
    group = [[(x + k) % n for x in range(n)] for k in range(n)]
    group += [[(k - x) % n for x in range(n)] for k in range(n)]
    fixed = sum(
        all(partner[g[x]] == g[partner[x]] for x in range(n))
        for partner in _matchings(list(range(n)), [0] * n)
        for g in group
    )
    assert fixed % len(group) == 0
    return fixed // len(group)
