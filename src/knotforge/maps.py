"""Combinatorial maps (graphs embedded in orientable surfaces via rotation
systems), face tracing, and exhaustive small-scale verification of two
parallel-edge claims:

* a monogon-free map in a closed orientable surface S with E > 3V max(1 - chi(S), 1)
  has parallel edges (edges joined by a chain of bigon faces);
* the number of pairwise-nonparallel nontrivial arc classes on a surface Q
  is at most max(-3 chi(Q), 1), with equality realized by ideal
  triangulations (E = -3 chi).

Maps are encoded by a vertex permutation sigma (cycles = vertices, giving
the rotation) and a fixed-point-free edge involution alpha pairing darts.
The face permutation is phi(d) = sigma(alpha(d)); chi = V - E + F.  Only
orientable maps arise from this encoding.  A monogon is a degree-1 face,
that is a fixed point of phi, so enumeration rejects monogons with an O(E)
scan of alpha against sigma^-1 and traces faces only on the
representatives it yields.

Enumeration is orderly: it keeps no set of seen maps and computes no
canonical form, but yields a candidate only when its pairing is least
among its conjugates under the symmetries of sigma.  It validates sigma
once per cycle type and builds each candidate without re-validating it.
It walks the edge pairings once per cell and tests each against every
cycle type, holding the classes of all but the first type until the walk
ends.  The three lemmas are stated once, in enumerate_maps.

The parallel-edge claim holds in every cell by a degree-count lemma,
stated once in verify_parallelP.  Exhaustive enumeration is feasible for
small cells only (at most V_MAX vertices and E_MAX edges), so it serves as
an independent check of the cells whose raw candidate count fits a work
budget.

Both claims read the same monogon-free cells.  verify_graphs runs the two
verifiers over one cell store, a dict that lives for that call only, so
each cell is enumerated and face-traced once per call.

No crossing-sign check is needed for torus curves.  Lemma: two oriented
essential simple closed curves (p, q) and (r, s) on the torus, straightened
to lines, cross |ps - qr| times, and every crossing has the sign of
ps - qr.  So all crossings of coherently oriented curves have one sign,
and a rule that asks each crossing to join parallel endpoint classes on
one side and antiparallel ones on the other holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from operator import eq

from .bounds import parallel_edges_threshold, parallelism_class_bound


class MapError(ValueError):
    """Base class for graph-verifier errors."""


class MalformedMap(MapError):
    """Permutation data does not define a combinatorial map."""


class LimitExceeded(MapError):
    """Requested enumeration exceeds V_MAX vertices or E_MAX edges."""


def _cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return out


@dataclass(frozen=True)
class CombinatorialMap:
    """A graph in an orientable surface: rotation system plus edge pairing.

    sigma and alpha act on darts 0..2E-1; cycles of sigma are vertices,
    orbits of alpha are edges.
    """

    sigma: tuple[int, ...]
    alpha: tuple[int, ...]

    def __post_init__(self):
        n = len(self.sigma)
        if n == 0 or n % 2:
            raise MalformedMap("dart count must be positive and even")
        if len(self.alpha) != n:
            raise MalformedMap("sigma and alpha must act on the same darts")
        if sorted(self.sigma) != list(range(n)):
            raise MalformedMap("sigma is not a permutation of the darts")
        for d in range(n):
            a = self.alpha[d]
            if not 0 <= a < n or a == d or self.alpha[a] != d:
                raise MalformedMap("alpha is not a fixed-point-free involution")

    @property
    def num_edges(self) -> int:
        return len(self.sigma) // 2

    @property
    def num_vertices(self) -> int:
        return len(_cycles(self.sigma))

    def is_connected(self) -> bool:
        """Connectivity of the dart graph."""
        sigma, alpha = self.sigma, self.alpha
        seen = [False] * len(sigma)
        seen[0] = True
        order = [0]
        # order grows while it is iterated: a breadth-first traversal
        for d in order:
            s = sigma[d]
            if not seen[s]:
                seen[s] = True
                order.append(s)
            a = alpha[d]
            if not seen[a]:
                seen[a] = True
                order.append(a)
        return len(order) == len(sigma)


def standard_involution(num_edges: int) -> tuple[int, ...]:
    """The pairing (0 1)(2 3)...: dart d with d xor 1."""
    return tuple(d ^ 1 for d in range(2 * num_edges))


@dataclass(frozen=True)
class FaceReport:
    """What the verifiers read from a map: its sorted face degrees, its
    Euler characteristic V - E + F, and its number of parallelism classes
    (edges joined by a chain of bigon faces)."""

    degrees: tuple[int, ...]
    euler_characteristic: int
    num_parallel_classes: int


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def trace_faces(m: CombinatorialMap) -> FaceReport:
    """Trace the faces of a map: the cycles of phi(d) = sigma(alpha(d)),
    which partition the darts, so the degrees sum to 2E.

    An edge is named by its smaller dart.  A bigon face holds one dart of
    each of two edges, or both darts of an edge whose two ends have
    valence 1.  A union-find over edge names merges the classes of the two
    edges of each bigon when they differ, so there are E classes minus
    one per merge.
    """
    sigma, alpha = m.sigma, m.alpha
    faces = _cycles(tuple(sigma[alpha[d]] for d in range(len(sigma))))
    parent = list(range(len(sigma)))
    classes = m.num_edges
    for face in faces:
        if len(face) == 2:
            a, b = (_root(parent, min(d, alpha[d])) for d in face)
            if a != b:
                parent[max(a, b)] = min(a, b)
                classes -= 1
    chi = m.num_vertices - m.num_edges + len(faces)
    return FaceReport(tuple(sorted(map(len, faces))), chi, classes)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


# Hard caps keeping exhaustive runs tractable.
V_MAX = 3
E_MAX = 12


def _partitions_into(n: int, k: int, largest: int | None = None):
    """Partitions of n into exactly k positive parts, nonincreasing."""
    if largest is None:
        largest = n
    if k == 1:
        if n <= largest:
            yield (n,)
        return
    for first in range(min(n - k + 1, largest), 0, -1):
        for rest in _partitions_into(n - first, k - 1, first):
            yield (first,) + rest


def _standard_sigma(cycle_lengths: tuple[int, ...]) -> tuple[int, ...]:
    sigma = []
    start = 0
    for length in cycle_lengths:
        sigma.extend(start + (j + 1) % length for j in range(length))
        start += length
    return tuple(sigma)


def _involutions(n: int):
    """Every fixed-point-free involution of the darts 0..n-1, as a tuple,
    in lexicographic order.

    Iterative backtracking: level k pairs the smallest dart still unpaired
    with each unpaired larger dart in increasing order.  The darts before
    it are already fixed, so the tuples come out in increasing order.
    """
    if n == 0:
        yield ()
        return
    alpha = [-1] * n
    last = n // 2 - 1
    first = [0] * (last + 1)
    partner = [0] * (last + 1)  # partner[k] == first[k]: none tried yet
    k = 0
    while k >= 0:
        f, p = first[k], partner[k]
        if p != f:
            alpha[p] = -1
        p += 1
        while p < n and alpha[p] >= 0:
            p += 1
        if p == n:
            alpha[f] = -1
            k -= 1
            continue
        alpha[f], alpha[p] = p, f
        partner[k] = p
        if k == last:
            yield tuple(alpha)
            continue
        f += 1
        while alpha[f] >= 0:
            f += 1
        k += 1
        first[k] = partner[k] = f


def _sigma_symmetries(cycle_lengths: tuple[int, ...]) -> list[tuple[int, ...]]:
    """H_lambda: every permutation tau of the darts with
    tau sigma tau^-1 in {sigma, sigma^-1}, for sigma = _standard_sigma.

    These are the permutations of equal-length cycles, each cycle rotated,
    all cycles reflected or none; the identity comes first.  There are
    2 z_lambda of them, or z_lambda when sigma^2 = 1 (every cycle of length
    at most 2, where reflecting is a rotation), with
    z_lambda = prod k^m_k m_k! over the m_k cycles of length k.
    """
    starts = []
    n = 0
    for length in cycle_lengths:
        starts.append(n)
        n += length
    by_length: dict[int, list[int]] = {}
    for c, length in enumerate(cycle_lengths):
        by_length.setdefault(length, []).append(c)
    # per length: each (target cycle, rotation) assignment of its cycles
    choices = [
        [
            tuple(zip(cycles, targets, shifts))
            for targets in permutations(cycles)
            for shifts in product(range(length), repeat=len(cycles))
        ]
        for length, cycles in by_length.items()
    ]
    out = {}  # keyed by tau: drops the repeats when sigma^2 = 1, keeps order
    for sign in (1, -1):
        for choice in product(*choices):
            tau = [0] * n
            for moves in choice:
                for c, target, shift in moves:
                    length = cycle_lengths[c]
                    src, dst = starts[c], starts[target]
                    for j in range(length):
                        tau[src + j] = dst + (sign * j + shift) % length
            out[tuple(tau)] = None
    return list(out)


def _least_in_orbit(alpha: tuple[int, ...], conjugators) -> bool:
    """Whether alpha is lexicographically at most tau alpha tau^-1 for
    every (tau, tau^-1) in conjugators.  The conjugate maps tau(d) to
    tau(alpha(d)), so its value at d is tau(alpha(tau^-1(d))); the first
    position where it differs from alpha decides."""
    n = len(alpha)
    for tau, tau_inv in conjugators:
        for d in range(n):
            b = tau[alpha[tau_inv[d]]]
            a = alpha[d]
            if b != a:
                if b < a:
                    return False
                break
    return True


def _double_factorial_odd(k: int) -> int:
    """(2k - 1)!! = number of perfect matchings on 2k points."""
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out


def candidate_count(V: int, E: int) -> int:
    """Raw candidates examined when enumerating the (V, E) cell."""
    types = sum(1 for _ in _partitions_into(2 * E, V)) if V <= 2 * E else 0
    return types * _double_factorial_odd(E)


def enumerate_maps(V: int, E: int, monogon_free: bool = False):
    """Yield one representative per isomorphism class of connected maps
    with V vertices and E edges, in a deterministic order.

    Up to isomorphism the vertex permutation can be fixed per cycle type
    lambda (a partition of 2E into V parts), so the search runs over cycle
    types times fixed-point-free involutions alpha, in lexicographic order.
    Lemma: two candidates (sigma_lambda, alpha) and (sigma_lambda, alpha')
    are isomorphic, preserving or reversing orientation, exactly when
    alpha' = tau alpha tau^-1 for some tau in H_lambda, the permutations
    with tau sigma_lambda tau^-1 = sigma_lambda^(+-1); distinct cycle types
    are never isomorphic.  Connectivity and monogons are class invariants,
    so the candidate kept for each class is the one whose alpha is least
    in its H_lambda-orbit (orderly generation).

    Candidates are built without validation.  Lemma: sigma_lambda is
    checked once per cycle type, by the public constructor, and
    _involutions yields only fixed-point-free involutions of the same
    darts, so every candidate is a valid map.  A monogon is a fixed point
    of phi = sigma alpha, and sigma(alpha(d)) = d exactly when
    alpha(d) = sigma^-1(d), so with monogon_free a candidate is dropped
    when alpha and sigma_lambda^-1, computed once per cycle type, agree at
    some dart.  Each candidate is tested for connectivity, then for
    monogons, and only then for orbit-leastness.

    The involutions are walked once per cell, and each alpha is tested
    against every cycle type in turn.  Lemma (swap): the candidates are
    the same (sigma_lambda, alpha) pairs as in a walk per cycle type, and
    each type's survivors are found in lexicographic alpha order, so
    yielding the first type's survivors as they are found and each later
    type's, held until the walk ends, type by type gives the same maps in
    the same order.  Memory per cell is O(E) plus H_lambda plus the held
    classes.
    """
    if V < 1 or E < 1:
        raise MapError("V >= 1 and E >= 1 required")
    if V > V_MAX or E > E_MAX:
        raise LimitExceeded(f"cell V={V}, E={E} exceeds limits {V_MAX}, {E_MAX}")
    types = []  # (sigma, sigma^-1, conjugators, held survivors) per cycle type
    for cycle_lengths in _partitions_into(2 * E, V):
        sigma = CombinatorialMap(_standard_sigma(cycle_lengths), standard_involution(E)).sigma
        sigma_inv = tuple(sorted(range(2 * E), key=sigma.__getitem__))
        conjugators = [
            (tau, tuple(sorted(range(2 * E), key=tau.__getitem__)))
            for tau in _sigma_symmetries(cycle_lengths)[1:]
        ]
        types.append((sigma, sigma_inv, conjugators, []))
    if not types:  # V > 2E
        return
    first = types[0][3]  # at most one survivor per alpha
    # read at call time, so that a wrapper installed on the class is called
    new, is_connected = object.__new__, CombinatorialMap.is_connected
    for alpha in _involutions(2 * E):
        for sigma, sigma_inv, conjugators, held in types:
            m = new(CombinatorialMap)
            fields = m.__dict__
            fields["sigma"] = sigma
            fields["alpha"] = alpha
            if not is_connected(m):
                continue
            if monogon_free and any(map(eq, alpha, sigma_inv)):
                continue
            if _least_in_orbit(alpha, conjugators):
                held.append(m)
        if first:
            yield first.pop()
    for _, _, _, held in types[1:]:
        yield from held


# ---------------------------------------------------------------------------
# Parallel-edge verification
# ---------------------------------------------------------------------------


def _monogon_free_cell(V: int, E: int, cell_store: dict):
    """The monogon-free representatives of the (V, E) cell, each with its
    face report, enumerated on first use and then read from `cell_store`,
    a dict owned by one verification run and keyed by (V, E).
    """
    if (V, E) not in cell_store:
        cell_store[V, E] = tuple(
            (m, trace_faces(m)) for m in enumerate_maps(V, E, monogon_free=True)
        )
    return cell_store[V, E]


@dataclass(frozen=True)
class CellResult:
    V: int
    E: int
    method: str  # "enumerated" or "degree-count"
    maps_checked: int
    above_threshold_checked: int
    counterexamples: tuple[str, ...]
    tightness_witnesses: int


@dataclass(frozen=True)
class ParallelEdgeReport:
    v_max: int
    e_budget: int
    chi_min: int
    cells: tuple[CellResult, ...]
    isolated_vertex_note: str

    @property
    def counterexamples(self) -> tuple[str, ...]:
        return tuple(c for cell in self.cells for c in cell.counterexamples)

    @property
    def total_checked(self) -> int:
        return sum(cell.maps_checked for cell in self.cells)

    def render(self) -> str:
        lines = [
            "parallel-edge verification report",
            f"cells: V <= {self.v_max}, E <= {self.e_budget}, chi >= {self.chi_min}",
        ]
        for c in self.cells:
            lines.append(
                f"  V={c.V} E={c.E} [{c.method}] maps={c.maps_checked}"
                f" above-threshold={c.above_threshold_checked}"
                f" tight={c.tightness_witnesses}"
                f" counterexamples={len(c.counterexamples)}"
            )
        lines.append(f"total maps checked: {self.total_checked}")
        lines.append(f"counterexamples: {len(self.counterexamples)}")
        for c in self.counterexamples:
            lines.append(f"  !! {c}")
        lines.append(self.isolated_vertex_note)
        return "\n".join(lines) + "\n"


# Defaults of a verification run: every surface from the sphere down to
# chi = -2, and exhaustive enumeration of the cells with at most this many
# raw candidates.
CHI_MIN = -2
WORK_BUDGET = 150_000


def verify_parallelP(
    V_max: int,
    E_budget: int,
    chi_min: int = CHI_MIN,
    work_budget: int = WORK_BUDGET,
    *,
    cell_store: dict | None = None,
) -> ParallelEdgeReport:
    """Verify that monogon-free maps above the edge threshold have parallel
    edges, over every cell V <= V_max, E <= E_budget, chi >= chi_min.

    Lemma (degree count): a connected monogon-free map with V vertices in
    a closed orientable surface of Euler characteristic chi and with
    E > parallel_edges_threshold(V, chi) = 3V max(1 - chi, 1) edges has
    parallel edges.  The threshold is at least 3, so E >= 2.  Without
    parallel edges every face then has degree >= 3: monogons are excluded,
    and a bigon either joins two distinct edges (parallel) or uses both
    darts of one edge, which forces the single-edge map (E = 1).  So
    2E >= 3F, and chi = V - E + F gives E <= 3(V - chi), which is at most
    the threshold: the difference is 3(V - 1)(-chi) >= 0 for chi <= 0 and
    3 chi > 0 for chi in {1, 2}.

    The lemma covers every cell.  Cells whose candidate count fits
    `work_budget` are also enumerated exhaustively as an independent check;
    the others are reported as covered by "degree-count".  `cell_store`
    shares enumerated cells with the other verifier of the same run (see
    verify_graphs).

    A range with no cell or no surface raises MapError: V_max or E_budget
    below 1, or chi_min above 2, the Euler characteristic of the sphere.
    So does a negative work_budget; a budget of 0 enumerates no cell and
    leaves every cell to the lemma.
    """
    if V_max > V_MAX or E_budget > E_MAX:
        raise LimitExceeded(f"requested range exceeds limits {V_MAX}, {E_MAX}")
    if V_max < 1 or E_budget < 1:
        raise MapError(f"empty range: V_max = {V_max} and E_budget = {E_budget} must be >= 1")
    if chi_min > 2:
        raise MapError(
            f"empty range: chi_min = {chi_min}, but no closed orientable surface has chi > 2"
        )
    if work_budget < 0:
        raise MapError(f"work_budget = {work_budget} must be >= 0")
    if cell_store is None:
        cell_store = {}
    cells = []
    for V in range(1, V_max + 1):
        for E in range(1, E_budget + 1):
            if candidate_count(V, E) <= work_budget:
                checked = above = tight = 0
                bad = []
                for m, report in _monogon_free_cell(V, E, cell_store):
                    chi = report.euler_characteristic
                    if chi < chi_min:
                        continue
                    checked += 1
                    threshold = parallel_edges_threshold(V, chi)
                    if E > threshold:
                        above += 1
                        if report.num_parallel_classes == E:
                            bad.append(
                                f"V={V} E={E} chi={chi} sigma={m.sigma} alpha={m.alpha}"
                            )
                    elif E == threshold and report.num_parallel_classes == E:
                        tight += 1
                cells.append(
                    CellResult(V, E, "enumerated", checked, above, tuple(bad), tight)
                )
            else:
                cells.append(CellResult(V, E, "degree-count", 0, 0, (), 0))
    note = (
        "isolated vertices only increase V, hence the threshold;"
        " they cannot create counterexamples"
    )
    return ParallelEdgeReport(V_max, E_budget, chi_min, tuple(cells), note)


# ---------------------------------------------------------------------------
# Arc-class bound via ideal triangulations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangulationResult:
    V: int
    E: int
    ideal_chi: int
    triangulations: int
    class_counts: tuple[int, ...]
    bound: int

    @property
    def ok(self) -> bool:
        return all(c <= self.bound for c in self.class_counts)


@dataclass(frozen=True)
class TriangulationReport:
    results: tuple[TriangulationResult, ...]
    annulus_bound: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) and self.annulus_bound == 1

    def render(self) -> str:
        lines = ["arc-class bound verification (ideal triangulations)"]
        for r in self.results:
            lines.append(
                f"  V={r.V} E={r.E} ideal-chi={r.ideal_chi}"
                f" triangulations={r.triangulations}"
                f" classes={sorted(set(r.class_counts))} bound={r.bound}"
            )
        lines.append(f"annulus (chi=0) bound: {self.annulus_bound}")
        lines.append(f"ok: {self.ok}")
        return "\n".join(lines) + "\n"


def verify_parallel_class_bound(*, cell_store: dict | None = None) -> TriangulationReport:
    """Confirm the max(-3 chi, 1) arc-class bound on enumerated ideal
    triangulations with ideal chi in {-1, -2}.

    Vertices model punctures, so the ideal Euler characteristic is
    chi = F - E = chi(map) - V.  An all-triangle map has 2E = 3F, so
    chi = -E/3 identically, and no bigons, so every edge is its own
    parallelism class and the bound holds with equality.  Cell lemma: chi
    in {-1, -2} means E in {3, 6}, and the map Euler characteristic V - E/3
    is even only in the cells (1, 3), (3, 3) and (2, 6) of V <= V_MAX.
    `cell_store` shares enumerated cells with the other verifier of the
    same run (see verify_graphs).
    """
    if cell_store is None:
        cell_store = {}
    results = []
    for V, E in ((1, 3), (3, 3), (2, 6)):
        counts = tuple(
            report.num_parallel_classes
            for _, report in _monogon_free_cell(V, E, cell_store)
            if all(d == 3 for d in report.degrees)
        )
        ideal_chi = -E // 3
        bound = parallelism_class_bound(ideal_chi)
        results.append(TriangulationResult(V, E, ideal_chi, len(counts), counts, bound))
    return TriangulationReport(tuple(results), annulus_bound=parallelism_class_bound(0))


def verify_graphs(
    V_max: int,
    E_budget: int,
    chi_min: int = CHI_MIN,
    work_budget: int = WORK_BUDGET,
) -> tuple[ParallelEdgeReport, TriangulationReport]:
    """Both graph claims in one run: verify_parallelP over the given cells,
    then verify_parallel_class_bound.

    The two verifiers share one cell store that lives for this call only,
    so a cell both of them read is enumerated and face-traced once.  The
    arc-class report does not depend on V_max, E_budget, chi_min or
    work_budget: it always enumerates the cells (1, 3), (3, 3) and (2, 6),
    so even verify_graphs(1, 1) takes about a fifth of a second (0.17 to
    0.23 s on Python 3.11 with 2 vCPUs).
    """
    store: dict = {}
    report = verify_parallelP(V_max, E_budget, chi_min, work_budget, cell_store=store)
    tri = verify_parallel_class_bound(cell_store=store)
    return report, tri
