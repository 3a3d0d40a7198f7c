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
scan and traces faces only on the representatives it yields.

The parallel-edge claim holds in every cell by a degree-count lemma,
stated once in verify_parallelP.  Exhaustive enumeration is feasible for
small cells only (at most V_MAX vertices and E_MAX edges), so it serves as
an independent check of the cells whose raw candidate count fits a work
budget.

Both claims read the same monogon-free cells.  verify_graphs runs the two
verifiers over one cell store, a dict that lives for that call only, so
each cell is enumerated and face-traced once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import parallel_edges_threshold, parallelism_class_bound


class MapError(ValueError):
    """Base class for graph-verifier errors."""


class MalformedMap(MapError):
    """Permutation data does not define a combinatorial map."""


class MalformedSample(MapError):
    """Labeled pair data is inconsistent."""


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
    orbits of alpha are edges.  isolated_vertices counts extra valence-0
    vertices carrying no darts; they raise V (and chi) but nothing else.
    """

    sigma: tuple[int, ...]
    alpha: tuple[int, ...]
    isolated_vertices: int = 0

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
        if self.isolated_vertices < 0:
            raise MalformedMap("isolated vertex count must be nonnegative")

    @property
    def num_edges(self) -> int:
        return len(self.sigma) // 2

    @property
    def num_vertices(self) -> int:
        return len(_cycles(self.sigma)) + self.isolated_vertices

    def edge_of(self, dart: int) -> int:
        """Canonical edge id of a dart: the smaller dart of its pair."""
        return min(dart, self.alpha[dart])

    def has_monogon(self) -> bool:
        """Whether some face has degree 1, i.e. phi = sigma alpha has a
        fixed point; O(E), without tracing faces."""
        sigma, alpha = self.sigma, self.alpha
        return any(sigma[alpha[d]] == d for d in range(len(sigma)))

    def is_connected(self) -> bool:
        """Connectivity of the dart graph (ignores isolated vertices)."""
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
    faces: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    monogons: int
    bigons: tuple[tuple[int, int], ...]
    parallel_classes: tuple[tuple[int, ...], ...]
    num_vertices: int
    num_edges: int
    euler_characteristic: int

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_parallel_classes(self) -> int:
        return len(self.parallel_classes)

    def has_parallel_edges(self) -> bool:
        return self.num_parallel_classes < self.num_edges


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def trace_faces(m: CombinatorialMap) -> FaceReport:
    """Trace the faces of a map and classify them.

    Faces are orbits of phi(d) = sigma(alpha(d)).  Monogons are degree-1
    faces.  Two edges are parallel when linked by a chain of bigon faces;
    classes are computed with a union-find seeded by the bigons.
    """
    n = len(m.sigma)
    phi = tuple(m.sigma[m.alpha[d]] for d in range(n))
    faces = tuple(tuple(c) for c in _cycles(phi))
    degrees = tuple(sorted(len(f) for f in faces))
    if sum(degrees) != n:
        raise MalformedMap("face degrees do not sum to the dart count")
    monogons = sum(1 for f in faces if len(f) == 1)
    edges = sorted({m.edge_of(d) for d in range(n)})
    uf = _UnionFind(edges)
    bigons = []
    for f in faces:
        if len(f) == 2:
            e1, e2 = m.edge_of(f[0]), m.edge_of(f[1])
            bigons.append((min(e1, e2), max(e1, e2)))
            uf.union(e1, e2)
    groups: dict[int, list[int]] = {}
    for e in edges:
        groups.setdefault(uf.find(e), []).append(e)
    classes = tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))
    V = m.num_vertices
    E = m.num_edges
    return FaceReport(
        faces=faces,
        degrees=degrees,
        monogons=monogons,
        bigons=tuple(sorted(bigons)),
        parallel_classes=classes,
        num_vertices=V,
        num_edges=E,
        euler_characteristic=V - E + len(faces),
    )


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


def _involutions(darts: list[int]):
    """All fixed-point-free involutions on the given darts, as dicts."""
    if not darts:
        yield {}
        return
    first = darts[0]
    for j in range(1, len(darts)):
        partner = darts[j]
        rest = darts[1:j] + darts[j + 1 :]
        for sub in _involutions(rest):
            sub[first] = partner
            sub[partner] = first
            yield sub


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


def canonical_key(m: CombinatorialMap):
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


def enumerate_maps(V: int, E: int, monogon_free: bool = False):
    """Yield one representative per isomorphism class of connected maps
    with V vertices and E edges, in a deterministic order.

    Up to isomorphism the vertex permutation can be fixed per cycle type,
    so the search runs over cycle types (partitions of 2E into V parts)
    times fixed-point-free involutions; duplicates are removed by
    canonical form.  With monogon_free, maps with a monogon are dropped
    by the O(E) fixed-point test before their key is computed.
    """
    if V < 1 or E < 1:
        raise MapError("V >= 1 and E >= 1 required")
    if V > V_MAX or E > E_MAX:
        raise LimitExceeded(f"cell V={V}, E={E} exceeds limits {V_MAX}, {E_MAX}")
    darts = list(range(2 * E))
    seen = set()
    for cycle_lengths in _partitions_into(2 * E, V):
        sigma = _standard_sigma(cycle_lengths)
        for pairing in _involutions(darts):
            alpha = tuple(pairing[d] for d in darts)
            m = CombinatorialMap(sigma, alpha)
            if not m.is_connected():
                continue
            if monogon_free and m.has_monogon():
                continue
            key = canonical_key(m)
            if key in seen:
                continue
            seen.add(key)
            yield m


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


def verify_parallelP(
    V_max: int,
    E_budget: int,
    chi_min: int = -2,
    work_budget: int = 150_000,
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
    """
    if V_max > V_MAX or E_budget > E_MAX:
        raise LimitExceeded(f"requested range exceeds limits {V_MAX}, {E_MAX}")
    if V_max < 1 or E_budget < 1:
        raise MapError(f"empty range: V_max = {V_max} and E_budget = {E_budget} must be >= 1")
    if chi_min > 2:
        raise MapError(
            f"empty range: chi_min = {chi_min}, but no closed orientable surface has chi > 2"
        )
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
                        if not report.has_parallel_edges():
                            bad.append(
                                f"V={V} E={E} chi={chi} sigma={m.sigma} alpha={m.alpha}"
                            )
                    elif E == threshold and not report.has_parallel_edges():
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
    chi = F - E = chi(map) - V.  Every edge of an all-triangle map borders
    two triangle sides, so 2E = 3F, and then E = -3 (F - E) = -3 chi
    identically; such maps have no bigons, so every edge is its own
    parallelism class and the bound holds with equality.  Hence only the
    cells with E in {3, 6} can hold such triangulations.  `cell_store` shares enumerated cells with
    the other verifier of the same run (see verify_graphs).
    """
    if cell_store is None:
        cell_store = {}
    results = []
    for E in (3, 6):
        for V in range(1, V_MAX + 1):
            # all-triangle maps have F = 2E/3 and even Euler characteristic
            if (V - E + 2 * E // 3) % 2:
                continue
            counts = []
            ideal_chi = None
            for _, report in _monogon_free_cell(V, E, cell_store):
                if any(d != 3 for d in report.degrees):
                    continue
                chi = report.euler_characteristic - V
                if chi not in (-1, -2):
                    continue
                ideal_chi = chi
                counts.append(report.num_parallel_classes)
            if counts:
                bound = parallelism_class_bound(ideal_chi)
                results.append(
                    TriangulationResult(
                        V, E, ideal_chi, len(counts), tuple(counts), bound
                    )
                )
    return TriangulationReport(tuple(results), annulus_bound=parallelism_class_bound(0))


def verify_graphs(
    V_max: int,
    E_budget: int,
    chi_min: int = -2,
    work_budget: int = 150_000,
) -> tuple[ParallelEdgeReport, TriangulationReport]:
    """Both graph claims in one run: verify_parallelP over the given cells,
    then verify_parallel_class_bound.

    The two verifiers share one cell store that lives for this call only,
    so a cell both of them read is enumerated and face-traced once.
    """
    store: dict = {}
    report = verify_parallelP(V_max, E_budget, chi_min, work_budget, cell_store=store)
    tri = verify_parallel_class_bound(cell_store=store)
    return report, tri


# ---------------------------------------------------------------------------
# Parity rule on labeled pair samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledPairSample:
    """Corresponded edges of two labeled graphs, recorded as per-endpoint
    orientation signs.  Edge k of the first graph has endpoint signs
    edges_a[k]; the corresponded edge of the second graph has edges_b[k].
    An edge joins parallel vertex classes when its two signs agree.
    """

    edges_a: tuple[tuple[int, int], ...]
    edges_b: tuple[tuple[int, int], ...]


def validate_parity(sample: LabeledPairSample) -> bool:
    """True iff every corresponded edge joins parallel vertex classes in
    exactly one of the two graphs."""
    if len(sample.edges_a) != len(sample.edges_b):
        raise MalformedSample("edge sets are not in bijection")
    for pair in sample.edges_a + sample.edges_b:
        if len(pair) != 2 or any(s not in (-1, 1) for s in pair):
            raise MalformedSample("endpoint signs must be +1 or -1")
    for (a1, a2), (b1, b2) in zip(sample.edges_a, sample.edges_b):
        if (a1 == a2) == (b1 == b2):
            return False
    return True


def make_torus_parity_sample(a, b) -> LabeledPairSample:
    """Labeled pair sample from the crossings of two oriented torus curves.

    All crossings of two coherently oriented curves have the same sign, so
    the boundary-side graph sees parallel endpoint classes at every
    crossing while the companion graph sees antiparallel ones.
    """
    from .torus import intersection

    d = intersection(a, b)
    if d == 0:
        raise MalformedSample("disjoint classes give no crossings")
    sign = 1 if a.p * b.q - a.q * b.p > 0 else -1
    return LabeledPairSample(
        edges_a=tuple((sign, sign) for _ in range(d)),
        edges_b=tuple((1, -1) for _ in range(d)),
    )
