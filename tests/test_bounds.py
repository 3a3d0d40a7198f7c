from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforge import bounds
from knotforge.pants import gamma2
from knotforge.torus import normalize
from oracles import DiskBoundScan, n_strong_scan


def threshold(chi_Q, f_K=0, f_M=1, chi_F_hat=2, Delta_K=0, f_L=1):
    return bounds.threshold(chi_Q, f_K, f_L, f_M, chi_F_hat, Delta_K)


class TestThreshold:
    def test_examples(self):
        assert threshold(-6) == 432
        assert threshold(0) == 24
        assert threshold(-6, f_K=5, f_M=2) == 3024

    def test_f_L_floor(self):
        with pytest.raises(ValueError, match="f_L >= 1 is a standing assumption"):
            threshold(-6, f_L=0)

    @pytest.mark.parametrize("field", ["f_K", "f_M", "Delta_K"])
    def test_negative_count_rejected(self, field):
        with pytest.raises(ValueError, match="boundary counts and distances are nonnegative"):
            threshold(-6, **{field: -1})

    @given(
        st.integers(-10, 0),
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(-3, 3),
        st.integers(0, 5),
    )
    @settings(max_examples=200)
    def test_monotone(self, chi, f_K, f_M, chi_F_hat, Delta_K):
        base = threshold(chi, f_K, max(f_M, 1), chi_F_hat, Delta_K)
        assert threshold(chi - 1, f_K, max(f_M, 1), chi_F_hat, Delta_K) >= base
        assert threshold(chi, f_K + 1, max(f_M, 1), chi_F_hat, Delta_K) >= base
        assert threshold(chi, f_K, max(f_M, 1) + 1, chi_F_hat, Delta_K) >= base
        assert threshold(chi, f_K, max(f_M, 1), chi_F_hat - 1, Delta_K) >= base
        assert threshold(chi, f_K, max(f_M, 1), chi_F_hat, Delta_K + 1) >= base


class TestSmallFormulas:
    def test_parallelism_class_bound(self):
        assert bounds.parallelism_class_bound(-6) == 18
        assert bounds.parallelism_class_bound(0) == 1
        assert bounds.parallelism_class_bound(1) == 1

    def test_parallel_edges_threshold(self):
        assert bounds.parallel_edges_threshold(1, 2) == 3
        assert bounds.parallel_edges_threshold(2, 0) == 6
        assert bounds.parallel_edges_threshold(1, -2) == 9

    def test_parallel_edges_threshold_needs_vertex(self):
        with pytest.raises(ValueError):
            bounds.parallel_edges_threshold(0, 0)


class TestRecipes:
    def test_gamma_disk(self):
        assert bounds.catching_chi(1, 3, 1) == -6
        assert bounds.GAMMA_DISK == -6

    def test_gamma_disk_from_shipped_gamma2_data(self):
        # the gamma_2 curve meets the disk that cuff c0 bounds at the arc
        # endpoints on side 0 of pants p0, 4 + 3 of them; all but one pair
        # off into tubes.  The algebraic count 1 stays an axiom.
        curve, _ = gamma2()
        meets = curve.side_endpoints(0, 0)
        assert meets == 7
        assert bounds.catching_chi(1, (meets - 1) // 2, 1) == bounds.GAMMA_DISK

    def test_plain_base(self):
        assert bounds.catching_chi(1, 0, 0) == 1

    @pytest.mark.parametrize(
        "kappa,expected", [((1, 1), -2), ((2, 1), -3), ((5, 2), -5), ((0, 1), -3)]
    )
    def test_nu_recipe(self, kappa, expected):
        assert bounds.nu_chi(normalize(*kappa)) == expected


class TestHittingBounds:
    def test_disk_examples(self):
        assert bounds.disk_hitting_lower_bound(1000, -6) == 4
        assert bounds.disk_hitting_lower_bound(0, -6) == 0
        assert bounds.disk_hitting_lower_bound(216, -6) == 0

    def test_annulus_examples(self):
        assert bounds.annulus_hitting_lower_bound(2000, -6) == 3
        assert bounds.annulus_hitting_lower_bound(0, -1) == 0
        assert bounds.annulus_hitting_lower_bound(432, -6) == 0

    def test_bad_chi(self):
        with pytest.raises(bounds.BadChi):
            bounds.disk_hitting_lower_bound(10, 0)
        with pytest.raises(bounds.BadChi):
            bounds.annulus_hitting_lower_bound(10, 1)

    @given(st.integers(-10**6, 10**6), st.integers(-20, -1))
    @settings(max_examples=300)
    def test_sign_symmetry(self, i, chi):
        assert bounds.disk_hitting_lower_bound(i, chi) == bounds.disk_hitting_lower_bound(
            -i, chi
        )
        assert bounds.annulus_hitting_lower_bound(
            i, chi
        ) == bounds.annulus_hitting_lower_bound(-i, chi)

    @given(st.integers(0, 10**5), st.integers(1, 1000), st.integers(-20, -1))
    @settings(max_examples=300)
    def test_monotone_in_i(self, i, step, chi):
        assert bounds.disk_hitting_lower_bound(
            i + step, chi
        ) >= bounds.disk_hitting_lower_bound(i, chi)
        assert bounds.annulus_hitting_lower_bound(
            i + step, chi
        ) >= bounds.annulus_hitting_lower_bound(i, chi)

    @given(st.integers(0, 10**5), st.integers(-20, -2))
    @settings(max_examples=300)
    def test_nonincreasing_in_chi_magnitude(self, i, chi):
        assert bounds.disk_hitting_lower_bound(
            i, chi
        ) <= bounds.disk_hitting_lower_bound(i, chi + 1)

    @pytest.mark.parametrize("chi", [-1, -3, -6])
    def test_inversion_matches_threshold_scan(self, chi):
        scan = DiskBoundScan(chi)
        for i in range(0, 3000):
            assert bounds.disk_hitting_lower_bound(i, chi) == scan.value(i), (i, chi)

    @given(st.integers(0, 10**5), st.integers(-20, -1))
    @settings(max_examples=300)
    def test_threshold_closed_form(self, f_K, chi):
        # with f_M=1, chi_F_hat=2, Delta_K=0 the threshold collapses
        assert threshold(chi, f_K=f_K) == 36 * abs(chi) * (max(f_K, 1) + 1)


class TestBridgeBound:
    def test_examples(self):
        assert bounds.bridge_lower_bound(1296, -6, 2) == 1
        assert bounds.bridge_lower_bound(0, -6, 2) == 0
        assert bounds.bridge_lower_bound(4320, -6, 2) == 8

    def test_exact_rational(self):
        value = bounds.bridge_lower_bound(1300, -6, 2)
        assert value == Fraction(1300, 432) - 2

    def test_errors(self):
        with pytest.raises(bounds.BadChi):
            bounds.bridge_lower_bound(10, 0, 2)
        with pytest.raises(bounds.BadGenus):
            bounds.bridge_lower_bound(10, -6, 1)

    @given(st.integers(-10**6, 10**6), st.integers(-20, -1), st.integers(2, 10))
    @settings(max_examples=300)
    def test_positive_needs_twisting(self, n, chi, g):
        if bounds.bridge_lower_bound(n, chi, g) > 0:
            assert n != 0

    @given(
        st.one_of(st.integers(-10**6, 10**6), st.integers(-15000, 15000)),
        st.integers(-20, -1),
        st.integers(2, 10),
    )
    @settings(max_examples=300)
    def test_matches_the_fraction_formula(self, n, chi, g):
        value = bounds.bridge_lower_bound(n, chi, g)
        assert type(value) is Fraction
        assert value == max(Fraction(abs(n), 72 * abs(chi)) - g, Fraction(0))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("chi, g", [(-1, 2), (-3, 3), (-6, 2), (-20, 5)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_clamp_boundary(self, offset, chi, g, sign):
        # |n| = 72|chi|g + offset: the excess over the clamp is offset
        d = 72 * abs(chi)
        value = bounds.bridge_lower_bound(sign * (d * g + offset), chi, g)
        assert type(value) is Fraction and value == Fraction(max(offset, 0), d)
        # a clamped bound is the one shared zero, built at import
        assert (value is bounds._ZERO) == (offset <= 0)


class TestNStrong:
    @pytest.mark.parametrize("chi,expected", [(-6, 1296), (-1, 216), (-3, 648)])
    def test_examples(self, chi, expected):
        assert bounds.n_strong(chi) == expected

    @pytest.mark.parametrize("chi", [-1, -2, -4, -6])
    def test_matches_scan(self, chi):
        assert bounds.n_strong(chi) == n_strong_scan(chi)

    def test_bad_chi(self):
        with pytest.raises(bounds.BadChi):
            bounds.n_strong(0)
