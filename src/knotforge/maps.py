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
that is a fixed point of phi.  Connectivity is a walk over the vertex
partition of sigma (is_connected).  Maps are __slots__ records and the
reports are NamedTuples, so the module declares no dataclass.

Enumeration is orderly: it keeps no set of seen maps and computes no
canonical form, but yields a candidate only when its pairing is least
among its conjugates under the symmetries of sigma.  Its lemmas (the
monogon mask, the probe map and the one walk per cell) are stated once,
in enumerate_maps.

The parallel-edge claim holds in every cell by a degree-count lemma,
stated once in verify_parallelP.  Exhaustive enumeration is feasible for
small cells only (at most V_MAX vertices and E_MAX edges), so it serves as
an independent check of the cells whose raw candidate count fits a work
budget.

Both claims read the same monogon-free cells, enumerated once per call of
verify_graphs.
"""

from __future__ import annotations

from itertools import permutations, product
from math import prod
from operator import index
from typing import NamedTuple

from .bounds import parallel_edges_threshold, parallelism_class_bound

_new = tuple.__new__


class MapError(ValueError):
    """Base class for graph-verifier errors."""


class MalformedMap(MapError):
    """Permutation data does not define a combinatorial map."""


class LimitExceeded(MapError):
    """Requested enumeration exceeds V_MAX vertices or E_MAX edges."""


def _cycles(perm) -> list[tuple[int, ...]]:
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


class CombinatorialMap:
    """A graph in an orientable surface: rotation system plus edge pairing.

    sigma and alpha act on darts 0..2E-1; cycles of sigma are vertices,
    orbits of alpha are edges.  Both are stored as tuples of ints, so maps
    given as lists and as tuples are equal and hashable alike.  sigma,
    alpha and the vertex partition are read-only properties over slots;
    the constructor validates sigma and alpha and computes the partition.
    A map equals only another map, and hashes, prints and pickles as its
    (sigma, alpha) pair.
    """

    __slots__ = ("_sigma", "_alpha", "_partition")

    def __init__(self, sigma, alpha):
        try:
            sigma = tuple(map(index, sigma))
            alpha = tuple(map(index, alpha))
        except TypeError:
            raise MalformedMap("sigma and alpha must be sequences of integer darts") from None
        n = len(sigma)
        if n == 0 or n % 2:
            raise MalformedMap("dart count must be positive and even")
        if len(alpha) != n:
            raise MalformedMap("sigma and alpha must act on the same darts")
        if sorted(sigma) != list(range(n)):
            raise MalformedMap("sigma is not a permutation of the darts")
        for d in range(n):
            a = alpha[d]
            if not 0 <= a < n or a == d or alpha[a] != d:
                raise MalformedMap("alpha is not a fixed-point-free involution")
        self._sigma = sigma
        self._alpha = alpha
        cycles = _cycles(sigma)
        vertex_of = [0] * n
        for v, cycle in enumerate(cycles):
            for d in cycle:
                vertex_of[d] = v
        self._partition = tuple(cycles), tuple(vertex_of)

    @property
    def sigma(self) -> tuple[int, ...]:
        return self._sigma

    @property
    def alpha(self) -> tuple[int, ...]:
        return self._alpha

    @property
    def vertex_partition(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The vertices: the cycles of sigma, dart 0's cycle first, and the
        index of each dart's cycle.  It depends on sigma alone."""
        return self._partition

    @property
    def num_vertices(self) -> int:
        return len(self._partition[0])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._sigma == other._sigma and self._alpha == other._alpha

    def __hash__(self) -> int:
        return hash((self._sigma, self._alpha))

    def __repr__(self) -> str:
        return f"CombinatorialMap(sigma={self._sigma!r}, alpha={self._alpha!r})"

    def __reduce__(self):
        return CombinatorialMap, (self._sigma, self._alpha)

    def is_connected(self) -> bool:
        """Connectivity of the vertex graph: the sigma-cycles, joined by
        alpha.  The darts of one sigma-cycle are already joined in the dart
        graph (sigma and alpha as edges), so the vertex graph is connected
        exactly when the dart graph is.

        Lemma (odd vertex): a fixed-point-free involution cannot pair an
        odd set of darts among themselves, so some edge leaves every vertex
        of odd length.  Lemma (two vertices): with vertices 0 and 1 the
        vertex graph is connected exactly when some edge joins them, that
        is when alpha pairs some dart of vertex 0 into vertex 1; so the
        answer is True at once when vertex 0 has odd length, and otherwise
        one scan of vertex 0's darts answers.  With more vertices a
        breadth-first walk from vertex 0 stops as soon as every vertex is
        reached.  Both read alpha and the vertex partition at call time
        (see enumerate_maps).
        """
        cycles, vertex_of = self._partition
        count = len(cycles)
        if count == 1:
            return True
        alpha = self._alpha
        if count == 2:
            first = cycles[0]
            if len(first) & 1:
                return True
            for d in first:
                if vertex_of[alpha[d]]:
                    return True
            return False
        reached = [False] * count
        reached[0] = True
        order = [0]
        # order grows while it is iterated: a breadth-first traversal
        for v in order:
            for d in cycles[v]:
                w = vertex_of[alpha[d]]
                if not reached[w]:
                    reached[w] = True
                    order.append(w)
                    if len(order) == count:
                        return True
        return False


def standard_involution(num_edges: int) -> tuple[int, ...]:
    """The pairing (0 1)(2 3)...: dart d with d xor 1."""
    return tuple(d ^ 1 for d in range(2 * num_edges))


class FaceReport(NamedTuple):
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
    sigma, alpha = m._sigma, m._alpha
    faces = _cycles([sigma[a] for a in alpha])
    parent = list(range(len(sigma)))
    edges = classes = len(sigma) // 2
    for face in faces:
        if len(face) == 2:
            d, e = face
            a = _root(parent, min(d, alpha[d]))
            b = _root(parent, min(e, alpha[e]))
            if a != b:
                parent[max(a, b)] = min(a, b)
                classes -= 1
    chi = len(m._partition[0]) - edges + len(faces)
    return _new(FaceReport, (tuple(sorted(map(len, faces))), chi, classes))


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
    in lexicographic order, each with its edge mask: the int with bit
    f * n + p set for each pair f < p.

    Iterative backtracking: level k pairs the smallest dart still unpaired
    with each unpaired larger dart in increasing order.  The darts before
    it are already fixed, so the tuples come out in increasing order.
    Level k ORs its pair's bit into the mask of the levels before it.
    The last three levels are unrolled.  When six darts f < r1 < ... < r5
    remain, f is paired with each r in increasing order, and the four
    darts a < b < c < d left over have exactly three completions,
    (a b)(c d), (a c)(b d) and (a d)(b c), in increasing order since
    alpha(a) = b < c < d; they are yielded without backtracking.
    """
    bits = [1 << b for b in range(n * n)]
    if n < 6:
        # at most four darts: their pairings, listed
        for alpha in ((), (1, 0), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
            if len(alpha) == n:
                yield alpha, sum(bits[d * n + a] for d, a in enumerate(alpha) if d < a)
        return
    alpha = [-1] * n
    last = n // 2 - 4  # the last backtracking level; -1 when n == 6
    first = [0] * (last + 2)
    partner = [0] * (last + 2)  # partner[k] == first[k]: none tried yet
    below_mask = [0] * (last + 2)  # below_mask[k]: the pairs of the levels below k
    k = 0
    while k >= 0:
        f = first[k]
        if k > last:
            # six darts remain: f, the least, and r1 < ... < r5
            r1, r2, r3, r4, r5 = [x for x in range(f + 1, n) if alpha[x] < 0]
            below = below_mask[k]
            row = f * n
            for p, a, b, c, d in (
                (r1, r2, r3, r4, r5),
                (r2, r1, r3, r4, r5),
                (r3, r1, r2, r4, r5),
                (r4, r1, r2, r3, r5),
                (r5, r1, r2, r3, r4),
            ):
                alpha[f] = p
                alpha[p] = f
                mask = below | bits[row + p]
                an, bn = a * n, b * n
                alpha[a], alpha[b], alpha[c], alpha[d] = b, a, d, c
                yield tuple(alpha), mask | bits[an + b] | bits[c * n + d]
                alpha[a], alpha[b], alpha[c], alpha[d] = c, d, a, b
                yield tuple(alpha), mask | bits[an + c] | bits[bn + d]
                alpha[a], alpha[b], alpha[c], alpha[d] = d, c, b, a
                yield tuple(alpha), mask | bits[an + d] | bits[bn + c]
            alpha[f] = alpha[r1] = alpha[r2] = alpha[r3] = alpha[r4] = alpha[r5] = -1
            k -= 1
            continue
        p = partner[k]
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
        mask = below_mask[k] | bits[f * n + p]
        f += 1
        while alpha[f] >= 0:
            f += 1
        k += 1
        first[k] = partner[k] = f
        below_mask[k] = mask


def monogon_edges(sigma: tuple[int, ...]) -> int:
    """The edge mask of the pairs {d, sigma(d)} with sigma(d) != d: a
    pairing alpha has a monogon exactly when its edge mask meets this one
    (the monogon lemma in enumerate_maps)."""
    n = len(sigma)
    mask = 0
    for d, s in enumerate(sigma):
        if s != d:
            mask |= 1 << (min(d, s) * n + max(d, s))
    return mask


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


def _conjugators(group) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(tau, tau^-1, tau^-1(0)) for each tau in group, in order: the
    entries _least_in_orbit reads."""
    out = []
    for tau in group:
        tau_inv = tuple(sorted(range(len(tau)), key=tau.__getitem__))
        out.append((tau, tau_inv, tau_inv[0]))
    return out


def _least_in_orbit(alpha: tuple[int, ...], conjugators) -> bool:
    """Whether alpha is lexicographically at most tau alpha tau^-1 for
    every (tau, tau^-1, tau^-1(0)) in conjugators (see _conjugators).  The
    conjugate maps tau(d) to tau(alpha(d)), so its value at d is
    tau(alpha(tau^-1(d))); the first position where it differs from alpha
    decides."""
    first = alpha[0]
    for tau, tau_inv, zero in conjugators:
        # position 0 decides for most conjugators; a tie there scans on
        b = tau[alpha[zero]]
        if b == first:
            for d in range(1, len(alpha)):
                b, a = tau[alpha[tau_inv[d]]], alpha[d]
                if b != a:
                    if b < a:
                        return False
                    break
        elif b < first:
            return False
    return True


def candidate_count(V: int, E: int) -> int:
    """Raw candidates examined when enumerating the (V, E) cell: the cycle
    types times the (2E - 1)!! perfect matchings on 2E darts."""
    types = sum(1 for _ in _partitions_into(2 * E, V))
    return types * prod(range(1, 2 * E, 2))


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
    darts, so every candidate is a valid map.  Lemma (monogon): a monogon
    is a fixed point of phi = sigma alpha, and sigma(alpha(d)) = d exactly
    when alpha(d) = sigma^-1(d); alpha is an involution, so that holds at
    some dart d exactly when alpha(e) = sigma(e) at some dart, e = alpha(d).
    There sigma(e) = alpha(e) != e, so alpha has a monogon exactly when
    some pair {e, sigma(e)} with sigma(e) != e is an edge of alpha, that is
    when the edge mask _involutions yields with alpha meets
    monogon_edges(sigma_lambda).  So with monogon_free a candidate is
    dropped when its edge mask meets that one; without it the monogon mask
    is 0, which meets none.  Each candidate is tested for connectivity,
    then for monogons, and only then for orbit-leastness.

    The vertex partition is computed once per cycle type.  Lemma (shared
    partition): the candidates of one cycle type share the sigma_lambda
    tuple, and the vertex partition depends on sigma alone, so the
    partition of the validated sigma_lambda map, computed by its
    constructor, is each candidate's.

    Each cycle type tests its candidates on one probe map.  Lemma (probe):
    the candidates of one cycle type differ only in alpha, so setting the
    _alpha slot of the validated sigma_lambda map makes it each candidate
    in turn.  Only a candidate that is kept becomes a map of its own, whose
    three slots are the probe's sigma, the candidate's alpha and the
    shared partition.  So a wrapper installed on
    CombinatorialMap.is_connected sees each candidate once, and must read
    the probe during its call: after the call the probe holds the next
    alpha.

    The involutions are walked once per cell, and each alpha is tested
    against every cycle type in turn.  Lemma (swap): the candidates are
    the same (sigma_lambda, alpha) pairs as in a walk per cycle type, and
    each type's survivors are found in lexicographic alpha order, so
    holding them until the walk ends and yielding them type by type gives
    the same maps in the same order.  Memory per cell is O(E) plus
    H_lambda plus the held classes.
    """
    if V < 1 or E < 1:
        raise MapError("V >= 1 and E >= 1 required")
    if V > V_MAX or E > E_MAX:
        raise LimitExceeded(f"cell V={V}, E={E} exceeds limits {V_MAX}, {E_MAX}")
    # per cycle type: the probe, its sigma and vertex partition, the edge
    # mask of its monogons (0 unless monogon_free), the conjugators and the
    # held survivors
    types = []
    for cycle_lengths in _partitions_into(2 * E, V):
        probe = CombinatorialMap(_standard_sigma(cycle_lengths), standard_involution(E))
        conjugators = _conjugators(_sigma_symmetries(cycle_lengths)[1:])
        monogons = monogon_edges(probe._sigma) if monogon_free else 0
        types.append((probe, probe._sigma, probe._partition, monogons, conjugators, []))
    # read at call time, so that a wrapper installed on the class is called
    new, is_connected = object.__new__, CombinatorialMap.is_connected
    for alpha, edges in _involutions(2 * E):
        for probe, sigma, partition, monogons, conjugators, held in types:
            probe._alpha = alpha
            if not is_connected(probe):
                continue
            if edges & monogons:
                continue
            if _least_in_orbit(alpha, conjugators):
                m = new(CombinatorialMap)
                m._sigma = sigma
                m._alpha = alpha
                m._partition = partition
                held.append(m)
    for *_, held in types:
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


class CellResult(NamedTuple):
    V: int
    E: int
    method: str  # "enumerated" or "degree-count"
    maps_checked: int
    above_threshold_checked: int
    counterexamples: tuple[str, ...]
    tightness_witnesses: int


class ParallelEdgeReport(NamedTuple):
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


# Defaults of a verification run: every vertex count up to 3 (the CLI's
# --v-max; V_MAX is the cap), every surface from the sphere down to
# chi = -2, and exhaustive enumeration of the cells with at most this many
# raw candidates.
V_DEFAULT = 3
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


class TriangulationResult(NamedTuple):
    V: int
    E: int
    ideal_chi: int
    triangulations: int
    class_counts: tuple[int, ...]
    bound: int

    @property
    def ok(self) -> bool:
        return all(c <= self.bound for c in self.class_counts)


class TriangulationReport(NamedTuple):
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
    of a closed orientable surface is even and at most 2; the cells are
    read from this lemma for every V <= V_MAX, E first.  `cell_store` is
    as in verify_parallelP.
    """
    if cell_store is None:
        cell_store = {}
    results = []
    cells = [
        (V, E)
        for E in (3, 6)
        for V in range(1, V_MAX + 1)
        if (V - E // 3) % 2 == 0 and V - E // 3 <= 2
    ]
    for V, E in cells:
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
    work_budget: it always enumerates the cells of its cell lemma, even for
    verify_graphs(1, 1).
    """
    store: dict = {}
    report = verify_parallelP(V_max, E_budget, chi_min, work_budget, cell_store=store)
    tri = verify_parallel_class_bound(cell_store=store)
    return report, tri
