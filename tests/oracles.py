"""Independent oracles used by the test suite.

Everything here recomputes library results by a different method: lattice
crossing enumeration for intersection numbers, explicit threshold scans
for the inverted hitting bounds and the strong threshold, the plain
exhaustive form of the canonical map key, a Burnside count of chord
diagrams for the one-vertex map enumerator, and the row-by-row catalog
(one certificate built and rendered per (n, i)).  Pure integer arithmetic
throughout.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from knotforge import bounds
from knotforge.catalog import (
    _COLUMNS,
    SCHEMA,
    CatalogRow,
    Certificate,
    ExteriorFlags,
    KnotSpec,
    bridge_upper_heuristic,
)
from knotforge.torus import LAMBDA, MU, NU, TorusCurve, dehn_twist, is_exceptional


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


def reference_build_certificate(
    spec: KnotSpec,
    chi_Q_bridge: int | None = None,
    chi_Q_nu: int | None = None,
    chi_Q_hit: int | None = None,
) -> Certificate:
    """The certificate of one knot spec, every field computed for it alone."""
    tau = dehn_twist(spec.kappa, spec.alpha, spec.n)
    exceptional = is_exceptional(tau)
    if chi_Q_hit is None:
        chi_Q_hit = bounds.GAMMA_DISK
    if chi_Q_nu is None:
        chi_Q_nu = bounds.catching_chi(bounds.nu_recipe(spec.kappa))
    strong = abs(spec.i) > bounds.n_strong(chi_Q_nu)
    hbar_D = bounds.disk_hitting_lower_bound(spec.i, chi_Q_hit)
    hbar_A = bounds.annulus_hitting_lower_bound(spec.i, chi_Q_hit)

    bridge_lower = None
    reason = ""
    if not strong:
        reason = "needs |i| above the strong threshold"
    elif spec.alpha in (MU, LAMBDA):
        reason = "alpha must miss the product-disk classes"
    else:
        if chi_Q_bridge is None and spec.alpha == NU:
            chi_Q_bridge = bounds.catching_chi(bounds.nu_recipe(spec.kappa))
        if chi_Q_bridge is None:
            reason = "not i-uniform; supply a catching chi"
        else:
            bridge_lower = bounds.bridge_lower_bound(spec.n, chi_Q_bridge, spec.g)

    if spec.family == "S":
        seifert = (tau.p, tau.q)
        surgery = f"D({tau.p},{tau.q})-Seifert + {spec.g - 1} 1-handles"
    else:
        seifert = None
        surgery = "handlebody"

    flags_all = strong and not exceptional
    flags = ExteriorFlags(flags_all, flags_all, flags_all, flags_all)
    return Certificate(
        tau=tau,
        exceptional=exceptional,
        seifert=seifert,
        surgery=surgery,
        bridge_lower=bridge_lower,
        bridge_lower_reason=reason,
        bridge_upper_heuristic=bridge_upper_heuristic(tau),
        hbar_D_lower=hbar_D,
        hbar_A_lower=hbar_A,
        strong=strong,
        exterior_flags=flags,
        unique_surgery=flags.all_true(),
    )


@dataclass(frozen=True)
class ReferenceCatalog:
    g: int
    family: str
    kappa: TorusCurve
    alpha: TorusCurve
    statements: tuple[str, ...]
    rows: tuple[CatalogRow, ...]

    @property
    def errored(self) -> bool:
        return any(row.error for row in self.rows)


def reference_generate_family(
    g,
    family,
    kappa,
    alpha,
    n_range,
    i_range,
    chi_Q_bridge=None,
    chi_Q_nu=None,
    chi_Q_hit=None,
) -> ReferenceCatalog:
    """One KnotSpec and one certificate per (n, i), in sorted order; a row
    whose spec or certificate raises carries the message."""
    rows = []
    for n in sorted(set(n_range)):
        for i in sorted(set(i_range)):
            try:
                spec = KnotSpec(g=g, family=family, kappa=kappa, alpha=alpha, n=n, i=i)
                cert = reference_build_certificate(spec, chi_Q_bridge, chi_Q_nu, chi_Q_hit)
                rows.append(CatalogRow(n, i, cert))
            except (ValueError, ArithmeticError) as exc:
                rows.append(CatalogRow(n, i, None, error=str(exc)))
    statements = ()
    if alpha not in (MU, LAMBDA):
        statements = ("distinctness: hbar_D lower bound unbounded in |i|",)
    return ReferenceCatalog(g, family, kappa, alpha, statements, tuple(rows))


def _na(reason: str) -> str:
    return f"n/a({reason})"


def reference_row_values(row: CatalogRow) -> list[str]:
    """Every column value of one row, formatted on its own."""
    if row.certificate is None:
        out = [str(row.n), str(row.i)]
        out += [_na("row error")] * (len(_COLUMNS) - 3)
        out.append(row.error)
        return out
    c = row.certificate
    seifert = f"({c.seifert[0]},{c.seifert[1]})" if c.seifert else _na("handlebody family")
    bridge = (
        str(c.bridge_lower) if c.bridge_lower is not None else _na(c.bridge_lower_reason)
    )
    f = c.exterior_flags
    return [
        str(row.n),
        str(row.i),
        str(c.tau),
        str(c.exceptional).lower(),
        seifert,
        c.surgery,
        bridge,
        f"{c.bridge_upper_heuristic} (heuristic)",
        str(c.hbar_D_lower),
        str(c.hbar_A_lower),
        str(c.strong).lower(),
        str(f.irreducible).lower(),
        str(f.boundary_irreducible).lower(),
        str(f.atoroidal).lower(),
        str(f.anannular).lower(),
        str(c.unique_surgery).lower(),
        "",
    ]


def reference_render_csv(catalog) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([SCHEMA])
    writer.writerow(
        [
            f"g={catalog.g}",
            f"family={catalog.family}",
            f"kappa={catalog.kappa}",
            f"alpha={catalog.alpha}",
        ]
    )
    for s in catalog.statements:
        writer.writerow(["statement", s])
    writer.writerow(_COLUMNS)
    for row in catalog.rows:
        writer.writerow(reference_row_values(row))
    return buf.getvalue()


def reference_render_txt(catalog) -> str:
    lines = [
        SCHEMA,
        f"g={catalog.g} family={catalog.family}"
        f" kappa={catalog.kappa} alpha={catalog.alpha}",
    ]
    lines.extend(f"statement: {s}" for s in catalog.statements)
    for row in catalog.rows:
        values = reference_row_values(row)
        fields = " ".join(
            f"{name}={value}" for name, value in zip(_COLUMNS, values) if value != ""
        )
        lines.append(fields)
    return "\n".join(lines) + "\n"
