import copy
import math
import pickle
import random
from collections import Counter
from itertools import islice, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotforge import bounds, maps
from knotforge.maps import (
    CombinatorialMap,
    LimitExceeded,
    MalformedMap,
    MapError,
    enumerate_maps,
    standard_involution,
    trace_faces,
    verify_graphs,
    verify_parallelP,
    verify_parallel_class_bound,
)
from oracles import (
    canonical_key,
    centralizer_order,
    chord_diagrams_up_to_dihedral,
    connected_pairings,
    dart_graph_connected,
    harer_zagier,
    has_monogon,
    parallel_class_count,
    reference_canonical_key,
    reference_enumerate_maps,
    reference_involutions,
    rooted_map_census,
)

LOOP_ON_SPHERE = CombinatorialMap(sigma=(1, 0), alpha=(1, 0))
# theta graph: two trivalent vertices, three edges, all faces bigons
THETA_ON_SPHERE = CombinatorialMap(sigma=(2, 5, 4, 1, 0, 3), alpha=standard_involution(3))
# one vertex, two interleaved loops
TORUS_MAP = CombinatorialMap(sigma=(2, 3, 1, 0), alpha=standard_involution(2))


def random_map(rng, E):
    """A uniformly random (not necessarily connected) map on 2E darts."""
    darts = list(range(2 * E))
    rng.shuffle(darts)
    alpha = [0] * (2 * E)
    for k in range(E):
        a, b = darts[2 * k], darts[2 * k + 1]
        alpha[a], alpha[b] = b, a
    sigma = list(range(2 * E))
    rng.shuffle(sigma)
    return CombinatorialMap(tuple(sigma), tuple(alpha))


def relabeled(m, perm):
    """The same map with dart d renamed perm[d]."""
    n = len(perm)
    sigma = [0] * n
    alpha = [0] * n
    for d in range(n):
        sigma[perm[d]] = perm[m.sigma[d]]
        alpha[perm[d]] = perm[m.alpha[d]]
    return CombinatorialMap(tuple(sigma), tuple(alpha))


def mirrored(m):
    """The map with every rotation reversed (sigma inverted)."""
    sigma = [0] * len(m.sigma)
    for d, s in enumerate(m.sigma):
        sigma[s] = d
    return CombinatorialMap(tuple(sigma), m.alpha)


def labeled_candidates(V, E):
    """Every connected map the enumerator builds for the (V, E) cell."""
    for cycle_lengths in maps._partitions_into(2 * E, V):
        sigma = maps._standard_sigma(cycle_lengths)
        for alpha, _ in maps._involutions(2 * E):
            m = CombinatorialMap(sigma, alpha)
            if m.is_connected():
                yield m


@st.composite
def map_unions(draw):
    """A map from the public constructor, given lists, that is the disjoint
    union of 1 to 3 random maps with 1 to 5 edges each, darts relabelled at
    random; with its number of parts.  Each part may itself be
    disconnected, and a union of two or more parts always is."""
    sigma, alpha = [], []
    parts = draw(st.integers(1, 3))
    for _ in range(parts):
        n = 2 * draw(st.integers(1, 5))
        offset = len(sigma)
        sigma.extend(offset + s for s in draw(st.permutations(range(n))))
        order = draw(st.permutations(range(n)))
        pairing = [0] * n
        for a, b in zip(order[::2], order[1::2]):
            pairing[a], pairing[b] = b, a
        alpha.extend(offset + a for a in pairing)
    perm = draw(st.permutations(range(len(sigma))))
    return relabeled(CombinatorialMap(sigma, alpha), perm), parts


def conjugate(perm, tau):
    """tau perm tau^-1: the permutation perm with dart d renamed tau[d]."""
    out = [0] * len(perm)
    for d, p in enumerate(perm):
        out[tau[d]] = tau[p]
    return tuple(out)


class TestValidation:
    def test_fixed_point_rejected(self):
        with pytest.raises(MalformedMap):
            CombinatorialMap(sigma=(0, 1), alpha=(0, 1))

    def test_non_permutation_rejected(self):
        with pytest.raises(MalformedMap):
            CombinatorialMap(sigma=(0, 0), alpha=(1, 0))

    def test_odd_darts_rejected(self):
        with pytest.raises(MalformedMap):
            CombinatorialMap(sigma=(0,), alpha=(0,))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(MalformedMap, match="sigma and alpha must act on the same darts"):
            CombinatorialMap(sigma=(1, 0), alpha=(1, 0, 3, 2))

    def test_lists_give_the_same_hashable_map(self):
        from_lists = CombinatorialMap([1, 0], [1, 0])
        assert from_lists == LOOP_ON_SPHERE
        assert hash(from_lists) == hash(LOOP_ON_SPHERE)
        assert from_lists.sigma == (1, 0) and from_lists.alpha == (1, 0)

    def test_integer_like_darts_stored_as_ints(self):
        m = CombinatorialMap(sigma=(True, False), alpha=range(1, -1, -1))
        assert m == LOOP_ON_SPHERE
        assert all(type(d) is int for d in m.sigma + m.alpha)

    @pytest.mark.parametrize(
        "sigma, alpha",
        [
            ((0, 1), (1, 0.0)),
            ((0, 1), ("1", 0)),
            ((1.0, 0), (1, 0)),
            ((0, 1), (None, 0)),
            (2, (1, 0)),
        ],
    )
    def test_non_integer_darts_rejected(self, sigma, alpha):
        with pytest.raises(MalformedMap):
            CombinatorialMap(sigma, alpha)

    def test_record_protocol(self):
        m = THETA_ON_SPHERE
        pair = (m.sigma, m.alpha)
        # a map equals only other maps, and hashes as its (sigma, alpha) pair
        assert m == CombinatorialMap(*pair) and m != TORUS_MAP
        assert m != pair and pair != m and m != list(pair)
        assert hash(m) == hash(pair)
        assert repr(m) == "CombinatorialMap(sigma=(2, 5, 4, 1, 0, 3), alpha=(1, 0, 3, 2, 5, 4))"
        for name in ("sigma", "alpha", "vertex_partition"):
            with pytest.raises(AttributeError):
                setattr(m, name, ())
            with pytest.raises(AttributeError):
                delattr(m, name)
        with pytest.raises(TypeError):
            vars(m)
        # pickle and copy rebuild through the validating constructor
        for clone in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert clone == m and clone is not m
            assert clone.vertex_partition == m.vertex_partition
        bad = object.__new__(CombinatorialMap)
        bad._sigma, bad._alpha, bad._partition = (0, 1), (0, 1), LOOP_ON_SPHERE.vertex_partition
        for rebuild in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
            with pytest.raises(MalformedMap, match="fixed-point-free"):
                rebuild(bad)
        # list inputs give the map of the tuple inputs, partition included
        from_lists = CombinatorialMap(list(m.sigma), list(m.alpha))
        assert from_lists == m and hash(from_lists) == hash(m)
        assert from_lists.vertex_partition == m.vertex_partition


class TestTraceFaces:
    def test_loop_on_sphere(self):
        report = trace_faces(LOOP_ON_SPHERE)
        assert report.degrees == (1, 1)
        assert report.degrees.count(1) == 2
        assert report.euler_characteristic == 2

    def test_theta_graph(self):
        report = trace_faces(THETA_ON_SPHERE)
        assert report.degrees == (2, 2, 2)
        assert report.euler_characteristic == 2
        assert report.num_parallel_classes == 1

    def test_torus_map(self):
        report = trace_faces(TORUS_MAP)
        assert report.degrees == (4,)
        assert report.euler_characteristic == 0

    def test_reports_are_named_tuples(self):
        report = trace_faces(THETA_ON_SPHERE)
        assert type(report) is maps.FaceReport
        assert report == ((2, 2, 2), 2, 1)
        assert report._fields == ("degrees", "euler_characteristic", "num_parallel_classes")

    @settings(max_examples=100)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_euler_and_degree_sum(self, seed, E):
        m = random_map(random.Random(seed), E)
        report = trace_faces(m)
        assert sum(report.degrees) == 2 * E
        assert report.euler_characteristic == len(m.vertex_partition[0]) - E + len(report.degrees)
        if m.is_connected():
            assert report.euler_characteristic % 2 == 0

    @settings(max_examples=100)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_parallel_classes_match_bigon_components(self, seed, E):
        m = random_map(random.Random(seed), E)
        assert trace_faces(m).num_parallel_classes == parallel_class_count(m)

    @pytest.mark.parametrize(
        "V, E", [(V, E) for V in (1, 2, 3) for E in range(1, 6)] + [(2, 6)]
    )
    def test_parallel_classes_match_bigon_components_on_cells(self, V, E):
        for m in enumerate_maps(V, E, monogon_free=True):
            assert trace_faces(m).num_parallel_classes == parallel_class_count(m)


class TestConnectivity:
    @settings(max_examples=300)
    @given(map_unions())
    def test_vertex_walk_matches_the_dart_graph(self, drawn):
        m, parts = drawn
        assert m.is_connected() == dart_graph_connected(m)
        if parts > 1:
            assert not m.is_connected()

    @settings(max_examples=100)
    @given(map_unions())
    def test_vertex_partition_is_the_cycles_of_sigma(self, drawn):
        m, _ = drawn
        cycles, vertex_of = m.vertex_partition
        assert cycles[0][0] == 0
        assert sorted(d for cycle in cycles for d in cycle) == list(range(len(m.sigma)))
        for v, cycle in enumerate(cycles):
            for j, d in enumerate(cycle):
                assert vertex_of[d] == v
                assert m.sigma[d] == cycle[(j + 1) % len(cycle)]


class TestEnumeration:
    def test_single_loop(self):
        out = list(enumerate_maps(1, 1))
        assert len(out) == 1

    def test_one_vertex_two_edges(self):
        out = list(enumerate_maps(1, 2))
        chis = sorted(trace_faces(m).euler_characteristic for m in out)
        assert len(out) >= 2
        assert 2 in chis and 0 in chis

    def test_single_edge_two_vertices(self):
        out = list(enumerate_maps(2, 1))
        assert len(out) == 1
        report = trace_faces(out[0])
        assert report.degrees == (2,)
        assert report.euler_characteristic == 2

    def test_monogon_filter(self):
        noisy = list(enumerate_maps(1, 2))
        clean = list(enumerate_maps(1, 2, monogon_free=True))
        assert len(clean) < len(noisy)
        assert all(trace_faces(m).degrees.count(1) == 0 for m in clean)

    def test_deterministic_and_duplicate_free(self):
        first = [canonical_key(m) for m in enumerate_maps(2, 3)]
        second = [canonical_key(m) for m in enumerate_maps(2, 3)]
        assert first == second
        assert len(first) == len(set(first))

    def test_all_connected(self):
        assert all(m.is_connected() for m in enumerate_maps(2, 3))

    @pytest.mark.parametrize("monogon_free", [False, True])
    @pytest.mark.parametrize(
        "V, E", [(V, E) for V in (1, 2, 3) for E in range(1, 6)] + [(2, 6)]
    )
    def test_yielded_maps_pass_the_validating_constructor(self, V, E, monogon_free):
        # candidates are built unchecked; rebuilding one through the public
        # constructor validates it and must give an equal map
        for m in enumerate_maps(V, E, monogon_free):
            assert m == CombinatorialMap(m.sigma, m.alpha)

    @pytest.mark.parametrize("monogon_free", [False, True])
    @pytest.mark.parametrize(
        "V, E", [(V, E) for V in (1, 2, 3) for E in range(1, 6)] + [(2, 6)]
    )
    def test_one_connectivity_test_per_raw_candidate(self, monkeypatch, V, E, monogon_free):
        # perfbench's traced run counts the candidates built as is_connected
        # calls on the class and checks them against candidate_count
        calls = 0
        original = CombinatorialMap.is_connected

        def counting(m):
            nonlocal calls
            calls += 1
            return original(m)

        monkeypatch.setattr(CombinatorialMap, "is_connected", counting)
        list(enumerate_maps(V, E, monogon_free))
        assert calls == maps.candidate_count(V, E)

    @pytest.mark.parametrize("monogon_free", [False, True])
    @pytest.mark.parametrize(
        "V, E", [(V, E) for V in (1, 2, 3) for E in range(1, 6)] + [(2, 6)]
    )
    def test_every_connectivity_answer_matches_the_dart_graph(
        self, monkeypatch, V, E, monogon_free
    ):
        # candidates carry their cycle type's shared vertex partition; each
        # answer is checked against a search that reads sigma and alpha only
        calls = 0
        wrong = []
        original = CombinatorialMap.is_connected

        def checked(m):
            nonlocal calls
            calls += 1
            answer = original(m)
            if answer != dart_graph_connected(m):
                wrong.append((m.sigma, m.alpha))
            return answer

        monkeypatch.setattr(CombinatorialMap, "is_connected", checked)
        list(enumerate_maps(V, E, monogon_free))
        assert calls == maps.candidate_count(V, E)
        assert wrong == []

    @pytest.mark.parametrize("monogon_free", [False, True])
    @pytest.mark.parametrize(
        "V, E", [(V, E) for V in (1, 2, 3) for E in range(1, 6)] + [(2, 6)]
    )
    def test_each_raw_candidate_tested_exactly_once(self, monkeypatch, V, E, monogon_free):
        # the set behind the count: every (sigma_lambda, alpha) pair is tested
        # once, read during the call, since the probe map's alpha then changes
        tested = []
        original = CombinatorialMap.is_connected

        def recording(m):
            tested.append((m.sigma, m.alpha))
            return original(m)

        monkeypatch.setattr(CombinatorialMap, "is_connected", recording)
        yielded = [(m, (m.sigma, m.alpha)) for m in enumerate_maps(V, E, monogon_free)]
        raw = [
            (maps._standard_sigma(cycle_lengths), alpha)
            for cycle_lengths in maps._partitions_into(2 * E, V)
            for alpha, _ in maps._involutions(2 * E)
        ]
        assert sorted(tested) == sorted(raw)
        assert len(set(raw)) == len(raw)
        # each yielded map is its own object and keeps the pairing it was
        # yielded with after the generator is exhausted
        assert len({id(m) for m, _ in yielded}) == len(yielded)
        for m, pair in yielded:
            assert (m.sigma, m.alpha) == pair
            rebuilt = CombinatorialMap(m.sigma, m.alpha)
            assert m == rebuilt
            assert m.vertex_partition == rebuilt.vertex_partition

    def test_limits_enforced(self):
        with pytest.raises(LimitExceeded):
            list(enumerate_maps(4, 1))
        with pytest.raises(LimitExceeded):
            list(enumerate_maps(1, 13))

    def test_empty_cell_rejected(self):
        with pytest.raises(MapError, match=r"V >= 1 and E >= 1 required"):
            list(enumerate_maps(0, 1))

    def test_canonical_key_invariant_under_relabeling(self):
        # conjugating both permutations by a dart bijection preserves the key
        rng = random.Random(7)
        for _ in range(20):
            m = random_map(rng, 4)
            if not m.is_connected():
                continue
            perm = list(range(8))
            rng.shuffle(perm)
            assert canonical_key(relabeled(m, perm)) == canonical_key(m)

    @pytest.mark.parametrize("V", [1, 2, 3])
    @pytest.mark.parametrize("E", [1, 2, 3, 4])
    def test_canonical_key_matches_reference_on_small_cells(self, V, E):
        for m in labeled_candidates(V, E):
            assert canonical_key(m) == reference_canonical_key(m)

    @settings(max_examples=150)
    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_canonical_key_matches_reference_on_random_maps(self, seed, E):
        rng = random.Random(seed)
        m = random_map(rng, E)
        assume(m.is_connected())
        key = canonical_key(m)
        assert key == reference_canonical_key(m)
        perm = list(range(2 * E))
        rng.shuffle(perm)
        for other in (relabeled(m, perm), mirrored(m), mirrored(relabeled(m, perm))):
            assert canonical_key(other) == key == reference_canonical_key(other)

    def test_canonical_key_needs_connected_map(self):
        two_loops = CombinatorialMap(sigma=(1, 0, 3, 2), alpha=(1, 0, 3, 2))
        with pytest.raises(maps.MapError):
            canonical_key(two_loops)

    @settings(max_examples=200)
    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_fixed_point_monogon_test_matches_face_tracing(self, seed, E):
        m = random_map(random.Random(seed), E)
        assert has_monogon(m) == (trace_faces(m).degrees.count(1) > 0)

    @pytest.mark.parametrize("V, E", [(1, 4), (2, 3), (3, 3)])
    def test_monogon_free_is_the_filtered_enumeration(self, V, E):
        clean = list(enumerate_maps(V, E, monogon_free=True))
        filtered = [m for m in enumerate_maps(V, E) if trace_faces(m).degrees.count(1) == 0]
        assert clean == filtered

    def test_one_vertex_counts_match_burnside(self):
        # chord diagrams up to rotation and reflection, OEIS A054499
        counts = [len(list(enumerate_maps(1, E))) for E in range(1, 7)]
        assert counts == [1, 2, 5, 17, 79, 554]
        assert counts == [chord_diagrams_up_to_dihedral(E) for E in range(1, 7)]


class TestOrderlyGeneration:
    @pytest.mark.parametrize("E", range(0, 7))
    def test_involutions_in_strictly_increasing_order(self, E):
        n = 2 * E
        out = [alpha for alpha, _ in maps._involutions(n)]
        assert len(out) == math.prod(range(1, n, 2))  # (n - 1)!!
        assert all(a < b for a, b in zip(out, out[1:]))
        for alpha in out:
            assert all(alpha[d] != d and alpha[alpha[d]] == d for d in range(n))

    @pytest.mark.parametrize("n, pairings", [(n, None) for n in range(0, 13, 2)] + [(24, 1000)])
    def test_unrolled_walk_matches_the_reference_walk(self, n, pairings):
        # the walk unrolls its last levels: the same (alpha, mask) sequence
        # as backtracking over every level
        expected = list(islice(reference_involutions(n), pairings))
        assert list(islice(maps._involutions(n), pairings)) == expected

    @pytest.mark.parametrize("E, pairings", [(E, None) for E in range(1, 6)] + [(maps.E_MAX, 1000)])
    def test_edge_masks_and_the_monogon_lemma(self, E, pairings):
        # the mask the walk yields is alpha's edge set, and it meets the
        # cycle type's monogon edges exactly when the map has a monogon;
        # at E_MAX the masks are far wider than 64 bits
        n = 2 * E
        sigmas = [
            maps._standard_sigma(cycle_lengths)
            for V in (1, 2, 3)
            for cycle_lengths in maps._partitions_into(n, V)
        ]
        monogons = [maps.monogon_edges(sigma) for sigma in sigmas]
        widest = 0
        for alpha, mask in islice(maps._involutions(n), pairings):
            assert mask == sum(1 << (d * n + a) for d, a in enumerate(alpha) if d < a)
            widest = max(widest, mask.bit_length())
            for sigma, edges in zip(sigmas, monogons):
                assert bool(mask & edges) == has_monogon(CombinatorialMap(sigma, alpha))
        if E == maps.E_MAX:
            assert widest > 64

    @pytest.mark.parametrize("V, E", [(V, E) for V in (1, 2, 3) for E in range(1, 5)])
    def test_orbit_test_matches_the_least_conjugate(self, V, E):
        # against every conjugate built as a full tuple, the identity included
        late_ties = 0
        for cycle_lengths in maps._partitions_into(2 * E, V):
            group = maps._sigma_symmetries(cycle_lengths)
            conjugators = maps._conjugators(group)
            for tau, (same, tau_inv, zero) in zip(group, conjugators):
                assert same == tau and zero == tau_inv[0]
                assert all(tau[tau_inv[d]] == d for d in range(2 * E))
            for alpha, _ in maps._involutions(2 * E):
                conjugates = [conjugate(alpha, tau) for tau in group]
                assert maps._least_in_orbit(alpha, conjugators) == (alpha <= min(conjugates))
                # a tie at position 0 that a later position decides against
                # alpha: the fast path must not take such a tie as a pass
                late_ties += any(c[0] == alpha[0] and c < alpha for c in conjugates)
        if E >= 3:
            assert late_ties

    @pytest.mark.parametrize("E", range(1, 7))
    def test_symmetries_fix_sigma_up_to_inversion(self, E):
        for V in (1, 2, 3):
            for cycle_lengths in maps._partitions_into(2 * E, V):
                sigma = maps._standard_sigma(cycle_lengths)
                sigma_inv = tuple(sorted(range(2 * E), key=sigma.__getitem__))
                group = maps._sigma_symmetries(cycle_lengths)
                assert group[0] == tuple(range(2 * E))
                assert len(set(group)) == len(group)
                for tau in group:
                    assert sorted(tau) == list(range(2 * E))
                    assert conjugate(sigma, tau) in (sigma, sigma_inv)
                involutive = all(sigma[s] == d for d, s in enumerate(sigma))
                z = centralizer_order(cycle_lengths)
                assert len(group) == (z if involutive else 2 * z)

    @pytest.mark.parametrize("E", [1, 2, 3])
    def test_symmetries_are_all_such_permutations(self, E):
        # brute force over every permutation of the 2E darts
        for V in (1, 2, 3):
            for cycle_lengths in maps._partitions_into(2 * E, V):
                sigma = maps._standard_sigma(cycle_lengths)
                sigma_inv = tuple(sorted(range(2 * E), key=sigma.__getitem__))
                expected = {
                    tau
                    for tau in permutations(range(2 * E))
                    if conjugate(sigma, tau) in (sigma, sigma_inv)
                }
                assert set(maps._sigma_symmetries(cycle_lengths)) == expected

    @pytest.mark.parametrize("monogon_free", [False, True])
    @pytest.mark.parametrize(
        "V, E", [(V, E) for V in (1, 2, 3) for E in range(1, 5)] + [(1, 5), (2, 5)]
    )
    def test_orbit_stabilizer_counts_the_yield(self, V, E, monogon_free):
        # each H-orbit of kept candidates contributes sum |Stab(alpha)| = |H|
        yielded = Counter(m.sigma for m in enumerate_maps(V, E, monogon_free))
        for cycle_lengths in maps._partitions_into(2 * E, V):
            sigma = maps._standard_sigma(cycle_lengths)
            group = maps._sigma_symmetries(cycle_lengths)
            fixed = 0
            for m in labeled_candidates(V, E):
                if m.sigma != sigma or (monogon_free and has_monogon(m)):
                    continue
                fixed += sum(conjugate(m.alpha, tau) == m.alpha for tau in group)
            assert fixed == len(group) * yielded[sigma]

    @pytest.mark.parametrize(
        "V, E, monogon_free",
        [(V, E, m) for V in (1, 2, 3) for E in range(1, 7) for m in (False, True)]
        + [(1, 7, True)],
    )
    def test_orbit_sums_match_the_closed_form(self, V, E, monogon_free):
        # orbit-stabilizer: the H-orbit of a yielded alpha has |H| / |Stab(alpha)|
        # pairings, and the orbits of one cycle type hold all its connected ones
        by_sigma = {}
        for m in enumerate_maps(V, E, monogon_free):
            by_sigma.setdefault(m.sigma, []).append(m.alpha)
        for cycle_lengths in maps._partitions_into(2 * E, V):
            group = maps._sigma_symmetries(cycle_lengths)
            orbit_sizes = sum(
                len(group) // sum(conjugate(alpha, tau) == alpha for tau in group)
                for alpha in by_sigma.get(maps._standard_sigma(cycle_lengths), [])
            )
            assert orbit_sizes == connected_pairings(cycle_lengths, monogon_free)

    @pytest.mark.parametrize("monogon_free", [False, True])
    @pytest.mark.parametrize(
        "V, E", [(V, E) for V in (1, 2, 3) for E in range(1, 6)] + [(1, 6), (2, 6)]
    )
    def test_matches_canonical_key_dedup(self, V, E, monogon_free):
        assert list(enumerate_maps(V, E, monogon_free)) == reference_enumerate_maps(
            V, E, monogon_free
        )

    @pytest.mark.parametrize("E", range(1, 7))
    def test_one_vertex_genus_counts_match_harer_zagier(self, E):
        sigma = maps._standard_sigma((2 * E,))
        genera = Counter(
            (2 - trace_faces(CombinatorialMap(sigma, alpha)).euler_characteristic) // 2
            for alpha, _ in maps._involutions(2 * E)
        )
        assert dict(genera) == harer_zagier(E)[E]

    def test_harer_zagier_values(self):
        eps = harer_zagier(5)
        assert eps[5] == {0: 42, 1: 420, 2: 483}
        assert [sum(row.values()) for row in eps] == [1, 1, 3, 15, 105, 945]


# rooted maps with E edges summed over V, by genus, for E = 1..5: OEIS
# A000168 (planar), A006300 (genus 1) and A006301 (genus 2)
ROOTED_MAP_TOTALS = {
    0: [2, 9, 54, 378, 2916],
    1: [0, 1, 20, 307, 4280],
    2: [0, 0, 0, 21, 966],
}
CENSUS_CELLS = [(V, E) for V in (1, 2, 3) for E in range(1, 6)]


@pytest.fixture(scope="module")
def census():
    return {cell: rooted_map_census(*cell) for cell in CENSUS_CELLS}


class TestRootedMapCensus:
    def test_cells(self, census):
        assert census[1, 5] == harer_zagier(5)[5]
        assert census[2, 3] == {0: 22, 1: 10}
        assert census[3, 5] == {0: 1030, 1: 1720}
        assert census[2, 5] == {0: 386, 1: 1720, 2: 483}
        assert census[3, 1] == {}

    @pytest.mark.parametrize("V, E", CENSUS_CELLS)
    def test_vertex_face_duality(self, census, V, E):
        # count(V, E, g) = count(F, E, g) for F = E + 2 - 2g - V faces
        for g, count in census[V, E].items():
            F = E + 2 - 2 * g - V
            assert F >= 1
            if F <= 3:
                assert census[F, E][g] == count

    @pytest.mark.parametrize("E", range(1, 6))
    def test_totals_over_vertices(self, census, E):
        # V runs over 1..E+1-2g; for E <= 5, min(V, F) <= 3 is a census cell
        for g, totals in ROOTED_MAP_TOTALS.items():
            cells = [(min(V, E + 2 - 2 * g - V), E) for V in range(1, E + 2 - 2 * g)]
            assert sum(census[cell].get(g, 0) for cell in cells) == totals[E - 1]


class TestVerifyParallelP:
    def test_small_run_no_counterexamples(self):
        report = verify_parallelP(2, 5)
        assert report.counterexamples == ()
        assert report.total_checked > 0
        assert any(c.above_threshold_checked > 0 for c in report.cells)

    def test_hybrid_cells_marked(self):
        report = verify_parallelP(1, 9, work_budget=2000)
        methods = {(c.V, c.E): c.method for c in report.cells}
        assert methods[(1, 2)] == "enumerated"
        assert methods[(1, 9)] == "degree-count"

    def test_degree_count_lemma_covers_every_cell(self):
        # the lemma in verify_parallelP: no map without parallel edges
        # exceeds 3 (V - chi) edges, which is at most the threshold
        for V in range(1, 201):
            for chi in range(-399, 3):
                assert 3 * (V - chi) <= bounds.parallel_edges_threshold(V, chi)

    def test_render_mentions_counts(self):
        text = verify_parallelP(1, 4).render()
        assert "counterexamples: 0" in text

    def test_limits(self):
        # the requested range is checked before any cell, so (4, 1) fails
        # there and not in enumerate_maps
        for V_max, E_budget in [(5, 4), (4, 1), (1, 13)]:
            with pytest.raises(LimitExceeded) as caught:
                verify_parallelP(V_max, E_budget)
            assert str(caught.value) == "requested range exceeds limits 3, 12"

    @pytest.mark.parametrize("V_max, E_budget", [(0, 0), (0, 4), (2, 0), (-1, 3)])
    def test_empty_range_rejected(self, V_max, E_budget):
        with pytest.raises(MapError):
            verify_parallelP(V_max, E_budget)
        with pytest.raises(MapError):
            verify_graphs(V_max, E_budget)

    @pytest.mark.parametrize("chi_min", [3, 5])
    def test_chi_above_the_sphere_rejected(self, chi_min):
        # chi <= 2 on every closed orientable surface, so no map is checked
        with pytest.raises(MapError, match="chi > 2"):
            verify_parallelP(1, 2, chi_min)
        with pytest.raises(MapError):
            verify_graphs(1, 2, chi_min)

    @pytest.mark.parametrize("work_budget", [-1, -5])
    def test_negative_work_budget_rejected(self, work_budget):
        with pytest.raises(MapError, match="work_budget"):
            verify_parallelP(1, 2, work_budget=work_budget)
        with pytest.raises(MapError):
            verify_graphs(1, 2, work_budget=work_budget)

    def test_sphere_chi_still_checked(self):
        report = verify_parallelP(2, 2, 2)
        assert sum(cell.maps_checked for cell in report.cells) == 2

    @pytest.mark.parametrize("chi_min, checked", [(-2, 114), (-3, 114), (-4, 196)])
    def test_odd_chi_min_keeps_the_even_chi_above_it(self, chi_min, checked):
        # map chi is even, so chi_min = -3 keeps the maps of chi >= -2 only
        (cell,) = [c for c in verify_parallelP(1, 6, chi_min).cells if (c.V, c.E) == (1, 6)]
        assert cell.method == "enumerated" and cell.maps_checked == checked


class TestVerifyGraphs:
    def test_same_reports_one_enumeration_per_cell(self, monkeypatch):
        calls = []
        original = maps.enumerate_maps

        def counting(V, E, *args, **kwargs):
            calls.append((V, E))
            return original(V, E, *args, **kwargs)

        monkeypatch.setattr(maps, "enumerate_maps", counting)
        report, tri = verify_graphs(2, 6)
        assert len(calls) == len(set(calls))
        # both verifiers read (1, 3) and (2, 6)
        assert {(1, 3), (2, 6)} <= set(calls)
        assert report.render() == verify_parallelP(2, 6).render()
        assert tri.render() == verify_parallel_class_bound().render()
        calls.clear()
        verify_graphs(1, 2)
        assert (2, 6) in calls  # the cell store does not outlive a call


class TestVerifyClassBound:
    def test_triangulation_bound(self):
        report = verify_parallel_class_bound()
        assert report.ok
        assert report.annulus_bound == 1
        chis = {r.ideal_chi for r in report.results}
        assert -1 in chis
        for r in report.results:
            # ideal triangulations realize the bound exactly
            assert set(r.class_counts) == {-3 * r.ideal_chi}
            assert r.E == -3 * r.ideal_chi

    @pytest.mark.parametrize("V, E", [(1, 3), (3, 3), (2, 6)])
    def test_all_triangle_maps_have_E_equal_minus_three_chi(self, V, E):
        # the identity in verify_parallel_class_bound: 2E = 3F and ideal
        # chi = F - E give E = -3 chi on every all-triangle map
        triangulations = 0
        for m in enumerate_maps(V, E, monogon_free=True):
            report = trace_faces(m)
            if any(d != 3 for d in report.degrees):
                continue
            triangulations += 1
            assert E == -3 * (report.euler_characteristic - V)
        assert triangulations > 0

    def test_cell_lemma(self):
        # ideal chi in {-1, -2} means E in {3, 6}; an all-triangle map has
        # F = 2E/3, so its Euler characteristic V - E/3 must be even
        even = {(V, E) for V in range(1, maps.V_MAX + 1) for E in (3, 6) if (V - E // 3) % 2 == 0}
        assert even == {(1, 3), (3, 3), (2, 6)}
        report = verify_parallel_class_bound()
        assert [(r.V, r.E) for r in report.results] == [(1, 3), (3, 3), (2, 6)]
        assert all(r.triangulations > 0 for r in report.results)

    def test_cells_follow_V_MAX(self, monkeypatch):
        # the cells are read from the cell lemma, not written out, so
        # V_MAX = 4 adds (4, 6): V - E/3 = 2, the sphere
        asked = []

        def recording(V, E, cell_store):
            asked.append((V, E))
            return ()

        monkeypatch.setattr(maps, "V_MAX", 4)
        monkeypatch.setattr(maps, "_monogon_free_cell", recording)
        verify_parallel_class_bound()
        assert asked == [(1, 3), (3, 3), (2, 6), (4, 6)]

    @pytest.mark.parametrize("V, E, representatives", [(2, 3, 4), (1, 6, 196), (3, 6, 762)])
    def test_odd_cells_hold_no_triangulation(self, V, E, representatives):
        reports = [trace_faces(m) for m in enumerate_maps(V, E, monogon_free=True)]
        assert len(reports) == representatives
        assert not any(all(d == 3 for d in r.degrees) for r in reports)
