import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotforge import bounds, maps
from knotforge.maps import (
    CombinatorialMap,
    LabeledPairSample,
    LimitExceeded,
    MalformedMap,
    MapError,
    MalformedSample,
    canonical_key,
    enumerate_maps,
    make_torus_parity_sample,
    standard_involution,
    trace_faces,
    validate_parity,
    verify_graphs,
    verify_parallelP,
    verify_parallel_class_bound,
)
from knotforge.torus import normalize
from oracles import chord_diagrams_up_to_dihedral, reference_canonical_key

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
    darts = list(range(2 * E))
    for cycle_lengths in maps._partitions_into(2 * E, V):
        sigma = maps._standard_sigma(cycle_lengths)
        for pairing in maps._involutions(darts):
            m = CombinatorialMap(sigma, tuple(pairing[d] for d in darts))
            if m.is_connected():
                yield m


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


class TestTraceFaces:
    def test_loop_on_sphere(self):
        report = trace_faces(LOOP_ON_SPHERE)
        assert report.degrees == (1, 1)
        assert report.monogons == 2
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

    def test_isolated_vertices_shift_chi(self):
        padded = CombinatorialMap(
            sigma=TORUS_MAP.sigma, alpha=TORUS_MAP.alpha, isolated_vertices=2
        )
        assert trace_faces(padded).euler_characteristic == 2

    @settings(max_examples=100)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_euler_and_degree_sum(self, seed, E):
        m = random_map(random.Random(seed), E)
        report = trace_faces(m)
        assert sum(report.degrees) == 2 * E
        assert report.euler_characteristic == report.num_vertices - E + report.num_faces
        if m.is_connected():
            assert report.euler_characteristic % 2 == 0

    @settings(max_examples=100)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_parallelism_partitions_edges(self, seed, E):
        m = random_map(random.Random(seed), E)
        report = trace_faces(m)
        flattened = sorted(e for cls in report.parallel_classes for e in cls)
        assert flattened == sorted({m.edge_of(d) for d in range(2 * E)})


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
        assert all(trace_faces(m).monogons == 0 for m in clean)

    def test_deterministic_and_duplicate_free(self):
        first = [canonical_key(m) for m in enumerate_maps(2, 3)]
        second = [canonical_key(m) for m in enumerate_maps(2, 3)]
        assert first == second
        assert len(first) == len(set(first))

    def test_all_connected(self):
        assert all(m.is_connected() for m in enumerate_maps(2, 3))

    def test_limits_enforced(self):
        with pytest.raises(LimitExceeded):
            list(enumerate_maps(4, 1))
        with pytest.raises(LimitExceeded):
            list(enumerate_maps(1, 13))

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
        assert m.has_monogon() == (trace_faces(m).monogons > 0)

    @pytest.mark.parametrize("V, E", [(1, 4), (2, 3), (3, 3)])
    def test_monogon_free_is_the_filtered_enumeration(self, V, E):
        clean = list(enumerate_maps(V, E, monogon_free=True))
        filtered = [m for m in enumerate_maps(V, E) if trace_faces(m).monogons == 0]
        assert clean == filtered

    def test_one_vertex_counts_match_burnside(self):
        # chord diagrams up to rotation and reflection, OEIS A054499
        counts = [len(list(enumerate_maps(1, E))) for E in range(1, 7)]
        assert counts == [1, 2, 5, 17, 79, 554]
        assert counts == [chord_diagrams_up_to_dihedral(E) for E in range(1, 7)]


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
        with pytest.raises(LimitExceeded):
            verify_parallelP(5, 4)

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

    def test_sphere_chi_still_checked(self):
        report = verify_parallelP(2, 2, 2)
        assert sum(cell.maps_checked for cell in report.cells) == 2


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
            assert report.num_edges == -3 * (report.euler_characteristic - V)
        assert triangulations > 0


class TestParity:
    def test_mixed_sample_valid(self):
        sample = LabeledPairSample(edges_a=((1, 1), (-1, -1)), edges_b=((1, -1), (-1, 1)))
        assert validate_parity(sample)

    def test_double_parallel_invalid(self):
        sample = LabeledPairSample(edges_a=((1, 1),), edges_b=((1, 1),))
        assert not validate_parity(sample)

    def test_malformed_rejected(self):
        with pytest.raises(MalformedSample):
            validate_parity(LabeledPairSample(edges_a=((1, 1),), edges_b=()))
        with pytest.raises(MalformedSample):
            validate_parity(LabeledPairSample(edges_a=((2, 1),), edges_b=((1, 1),)))

    def test_torus_sample(self):
        sample = make_torus_parity_sample(normalize(2, 3), normalize(1, 1))
        assert len(sample.edges_a) == 1
        assert validate_parity(sample)

    def test_disjoint_classes_rejected(self):
        with pytest.raises(MalformedSample):
            make_torus_parity_sample(normalize(1, 1), normalize(1, 1))
