"""Independent oracles used by the test suite.

Everything here recomputes library results by a different method: lattice
crossing enumeration for intersection numbers, explicit threshold scans
for the inverted hitting bounds and the strong threshold, the canonical
map key (pruned and plain exhaustive forms), the monogon test phi(d) = d,
the map enumerator that drops duplicates by the key, a Burnside count of
chord diagrams, the parallel-class count of a map by breadth-first search
over its bigons, the Harer-Zagier recurrence for one-vertex maps, the
rooted-map census of a (V, E) cell, the closed-form count of the connected
pairings of a cycle type, and the row-by-row catalog (one
certificate built and rendered per (n, i)).  Pure integer arithmetic
throughout.
"""

from __future__ import annotations

import csv
import io
import math
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
from knotforge.maps import (
    CombinatorialMap,
    MapError,
    _involutions,
    _partitions_into,
    _standard_sigma,
    trace_faces,
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


def canonical_key(m):
    """Isomorphism-invariant key for connected maps.

    Relabels darts by breadth-first traversal (successor order: rotation
    then pairing) from every start dart, in both orientations, and takes
    the lexicographically smallest relabeled (sigma, alpha) pair.

    The sigma sequence is emitted during the traversal, and a start is
    dropped as soon as its prefix exceeds the best one so far; alpha
    sequences are compared only when the sigma sequences tie.
    """
    n = len(m.sigma)
    alpha = m.alpha
    sigma_inv = [0] * n
    for d in range(n):
        sigma_inv[m.sigma[d]] = d
    best_sigma = best_alpha = None
    for orient in (m.sigma, sigma_inv):
        for start in range(n):
            label = [-1] * n
            label[start] = 0
            order = [start]
            seq = []
            tied = best_sigma is not None
            # order grows while it is iterated: a breadth-first traversal
            for i, d in enumerate(order):
                s = orient[d]
                x = label[s]
                if x < 0:
                    label[s] = x = len(order)
                    order.append(s)
                a = alpha[d]
                if label[a] < 0:
                    label[a] = len(order)
                    order.append(a)
                if tied:
                    b = best_sigma[i]
                    if x > b:
                        break
                    tied = x == b
                seq.append(x)
            else:
                if len(order) != n:
                    raise MapError("canonical_key needs a connected map")
                alpha_seq = [label[alpha[d]] for d in order]
                if not tied or alpha_seq < best_alpha:
                    best_sigma, best_alpha = seq, alpha_seq
    return tuple(best_sigma), tuple(best_alpha)


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


def has_monogon(m: CombinatorialMap) -> bool:
    """Whether some face of a map has degree 1, i.e. phi = sigma alpha has
    a fixed point; O(E), without tracing faces."""
    sigma, alpha = m.sigma, m.alpha
    return any(sigma[alpha[d]] == d for d in range(len(sigma)))


def dart_graph_connected(m: CombinatorialMap) -> bool:
    """Whether the dart graph of a map, with an edge from each dart d to
    sigma(d) and to alpha(d), is connected: a breadth-first search over all
    2E darts from dart 0.  It reads sigma and alpha only, never the map's
    vertex partition."""
    sigma, alpha = m.sigma, m.alpha
    seen = [False] * len(sigma)
    seen[0] = True
    order = [0]
    # order grows while it is iterated: a breadth-first traversal
    for d in order:
        for e in (sigma[d], alpha[d]):
            if not seen[e]:
                seen[e] = True
                order.append(e)
    return len(order) == len(sigma)


def reference_enumerate_maps(V: int, E: int, monogon_free: bool = False):
    """The connected maps of the (V, E) cell, one per isomorphism class,
    found by keeping the first candidate with each canonical key: cycle
    types in _partitions_into order, pairings in _matchings order."""
    seen = set()
    out = []
    for cycle_lengths in _partitions_into(2 * E, V):
        sigma = _standard_sigma(cycle_lengths)
        for partner in _matchings(list(range(2 * E)), [0] * (2 * E)):
            m = CombinatorialMap(sigma, tuple(partner))
            if not dart_graph_connected(m) or (monogon_free and has_monogon(m)):
                continue
            key = canonical_key(m)
            if key not in seen:
                seen.add(key)
                out.append(m)
    return out


def parallel_class_count(m: CombinatorialMap) -> int:
    """The parallelism classes of the edges of a map, counted as the
    connected components of the graph on edges that joins the two edges
    holding the two darts of each bigon face.  An edge is the pair
    {d, alpha(d)}; a dart d lies on a bigon when phi(d) != d and
    phi(phi(d)) = d, for phi(d) = sigma(alpha(d)); the components are found
    by breadth-first search."""
    sigma, alpha = m.sigma, m.alpha
    phi = [sigma[alpha[d]] for d in range(len(sigma))]
    neighbours = {frozenset((d, alpha[d])): set() for d in range(len(sigma))}
    for d in range(len(sigma)):
        if phi[d] != d and phi[phi[d]] == d:
            e, f = frozenset((d, alpha[d])), frozenset((phi[d], alpha[phi[d]]))
            neighbours[e].add(f)
            neighbours[f].add(e)
    components = 0
    unvisited = set(neighbours)
    while unvisited:
        components += 1
        queue = [unvisited.pop()]
        for e in queue:
            for f in neighbours[e] & unvisited:
                unvisited.remove(f)
                queue.append(f)
    return components


def harer_zagier(n: int) -> list[dict[int, int]]:
    """eps_g(m) for m = 0..n: the gluings of the sides of a 2m-gon in pairs
    that give a surface of genus g, which are the one-vertex maps with m
    labelled edges (rooted at dart 0), by the Harer-Zagier recurrence
    (m + 1) eps_g(m) = 2 (2m - 1) eps_g(m - 1)
                       + (m - 1)(2m - 1)(2m - 3) eps_{g-1}(m - 2)
    from eps_0(0) = 1 (Harer & Zagier, Invent. Math. 85 (1986))."""
    eps = [{0: 1}]
    for m in range(1, n + 1):
        row = {}
        for g in range(m // 2 + 1):
            total = 2 * (2 * m - 1) * eps[m - 1].get(g, 0)
            if m >= 2 and g >= 1:
                total += (m - 1) * (2 * m - 1) * (2 * m - 3) * eps[m - 2].get(g - 1, 0)
            assert total % (m + 1) == 0
            row[g] = total // (m + 1)
        eps.append(row)
    return eps


def centralizer_order(cycle_lengths: tuple[int, ...]) -> int:
    """z_lambda = prod_k k^m_k m_k!, for m_k cycles of length k: the number
    of permutations that commute with one of cycle type lambda."""
    z = 1
    for k in set(cycle_lengths):
        m = cycle_lengths.count(k)
        z *= k**m * math.factorial(m)
    return z


def _pairings(cycle_lengths, monogon_free: bool) -> int:
    """The perfect matchings of the darts of these cycles of sigma, by
    inclusion-exclusion over the forbidden pairs {d, sigma(d)} when
    monogon_free (a monogon is alpha(d) = sigma^-1(d)):
    sum_k (-1)^k m_k (n - 2k - 1)!! for n darts, where m_k counts the
    k-matchings of the forbidden pairs.  m_k is the coefficient of x^k in the
    product over the cycles of their matching polynomials: 1 for L = 1 (no
    pair), 1 + x for L = 2 (one pair), and the cycle graph's
    sum_k L / (L - k) C(L - k, k) x^k for L >= 3 (Touchard 1934)."""
    n = sum(cycle_lengths)
    if n % 2:
        return 0
    m = [1]
    for L in cycle_lengths:
        if not monogon_free or L == 1:
            continue
        factor = [1, 1] if L == 2 else [
            L * math.comb(L - k, k) // (L - k) for k in range(L // 2 + 1)
        ]
        product = [0] * (len(m) + len(factor) - 1)
        for a, x in enumerate(m):
            for b, y in enumerate(factor):
                product[a + b] += x * y
        m = product
    # (n - 2k - 1)!!, with (-1)!! = 1
    return sum(
        (-1) ** k * m_k * math.prod(range(n - 2 * k - 1, 0, -2))
        for k, m_k in enumerate(m)
    )


def connected_pairings(cycle_lengths: tuple[int, ...], monogon_free: bool) -> int:
    """The fixed-point-free involutions alpha of the darts of
    sigma = _standard_sigma(cycle_lengths) that make (sigma, alpha) a
    connected map (with no monogon, when monogon_free), in closed form.

    A pairing splits the cycles into the blocks it joins, so the pairings
    of a set S of cycles are sum_T connected(T) pairings(S - T) over the
    subsets T of S that hold S's least cycle; Moebius inversion over the
    set partitions of the cycles (Stanley, EC2 5.1) solves this for
    connected(S).  Reads no candidate."""
    cycles = tuple(cycle_lengths)

    def lengths(mask):
        return [L for c, L in enumerate(cycles) if mask >> c & 1]

    connected = {}
    for mask in range(1, 1 << len(cycles)):
        low = mask & -mask
        rest = mask ^ low
        total = _pairings(lengths(mask), monogon_free)
        # each proper T holding the least cycle is low | sub, sub a proper subset of rest
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            total -= connected[low | sub] * _pairings(lengths(rest ^ sub), monogon_free)
        connected[mask] = total
    return connected[(1 << len(cycles)) - 1]


def rooted_map_census(V: int, E: int) -> dict[int, int]:
    """Rooted maps with V vertices and E edges, by genus, counted from the
    raw connected candidates (sigma_lambda, alpha) the enumerator builds:

        count(V, E, g) = sum over lambda of 2E N_lambda,g / z_lambda,

    where N_lambda,g counts the connected alpha of genus g with the standard
    sigma of cycle type lambda.  The (2E)! / z_lambda vertex permutations of
    type lambda give (2E)! N_lambda,g / z_lambda labelled maps, and a rooted
    map has (2E - 1)! labellings that keep its root dart at 0.  Each term is
    the number of rooted maps with vertex degrees lambda, so it is an
    integer.  Published totals over V: A000168 (g = 0, Tutte 1963), A006300
    (g = 1) and A006301 (g = 2) (Walsh & Lehman, JCT B 13 (1972))."""
    census: dict[int, int] = {}
    for cycle_lengths in _partitions_into(2 * E, V):
        sigma = _standard_sigma(cycle_lengths)
        by_genus: dict[int, int] = {}
        for alpha in _involutions(2 * E):
            m = CombinatorialMap(sigma, alpha)
            if dart_graph_connected(m):
                g = (2 - trace_faces(m).euler_characteristic) // 2
                by_genus[g] = by_genus.get(g, 0) + 1
        z = centralizer_order(cycle_lengths)
        for g, n in by_genus.items():
            assert 2 * E * n % z == 0
            census[g] = census.get(g, 0) + 2 * E * n // z
    return dict(sorted(census.items()))


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
    whose spec or certificate raises carries the message.  A request whose
    spec raises makes no statement."""
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
    try:  # the spec checks read neither n nor i
        KnotSpec(g=g, family=family, kappa=kappa, alpha=alpha, n=0, i=0)
    except ValueError:
        pass
    else:
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
