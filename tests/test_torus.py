import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforge.torus import (
    EXCEPTIONAL_SET,
    LAMBDA,
    MU,
    NU,
    NonPrimitive,
    TorusCurve,
    ZeroClass,
    dehn_twist,
    intersection,
    is_exceptional,
    normalize,
)
from oracles import lattice_crossing_count

from math import gcd


def curves(bound=30):
    return (
        st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))
        .filter(lambda t: (t[0], t[1]) != (0, 0) and gcd(abs(t[0]), abs(t[1])) == 1)
        .map(lambda t: normalize(*t))
    )


def all_normal_forms(bound):
    out = []
    for p in range(0, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) == (0, 0) or gcd(p, abs(q)) != 1:
                continue
            c = normalize(p, q)
            if c == TorusCurve(p, q):
                out.append(c)
    return out


class TestNormalize:
    def test_negation_identification(self):
        assert normalize(-3, 2) == TorusCurve(3, -2)
        assert normalize(0, -1) == TorusCurve(0, 1)

    def test_non_primitive_rejected(self):
        with pytest.raises(NonPrimitive):
            normalize(2, 4)

    def test_zero_rejected(self):
        with pytest.raises(ZeroClass):
            normalize(0, 0)

    @given(curves())
    def test_idempotent(self, c):
        assert normalize(c.p, c.q) == c

    @given(curves())
    def test_normal_form_shape(self, c):
        assert c.p > 0 or (c.p == 0 and c.q == 1)


class TestIntersection:
    def test_basis(self):
        assert intersection(MU, LAMBDA) == 1

    def test_self(self):
        assert intersection(TorusCurve(2, 3), TorusCurve(2, 3)) == 0

    def test_example(self):
        assert intersection(normalize(2, 3), normalize(4, 5)) == 2

    @given(curves(), curves())
    def test_symmetric(self, a, b):
        assert intersection(a, b) == intersection(b, a)

    @given(curves(), curves())
    def test_zero_iff_equal(self, a, b):
        assert (intersection(a, b) == 0) == (a == b)

    @pytest.mark.parametrize("a", all_normal_forms(5))
    def test_matches_lattice_crossings(self, a):
        for b in all_normal_forms(5):
            assert intersection(a, b) == lattice_crossing_count(a, b), (a, b)


class TestDehnTwist:
    def test_identity_twist(self):
        c = normalize(5, -3)
        assert dehn_twist(c, NU, 0) == c

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_twist_families(self, k, n):
        assert dehn_twist(normalize(0, 1), normalize(1, k), n) == TorusCurve(n, k * n + 1)
        assert dehn_twist(normalize(1, k - 1), normalize(1, k), n - 1) == normalize(
            n, k * n - 1
        )

    @given(curves(20), curves(20), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=200)
    def test_group_action_same_direction(self, kappa, alpha, m, n):
        # the unsigned-distance formula composes along a fixed twist
        # direction; mixed-sign twist counts are not a group action because
        # normalization forgets the orientation between calls
        once = dehn_twist(dehn_twist(kappa, alpha, m), alpha, n)
        assert once == dehn_twist(kappa, alpha, m + n)

    @given(curves(20), curves(20), st.integers(-20, 20))
    def test_output_primitive(self, kappa, alpha, n):
        out = dehn_twist(kappa, alpha, n)
        assert gcd(abs(out.p), abs(out.q)) == 1

    @given(curves(10), curves(10), st.integers(-10, 10))
    def test_distance_to_axis_fixed(self, kappa, alpha, n):
        out = dehn_twist(kappa, alpha, n)
        assert intersection(out, alpha) == intersection(kappa, alpha)

    @given(curves(10), curves(10), st.integers(-10, 10))
    def test_twist_distance_law(self, kappa, alpha, n):
        out = dehn_twist(kappa, alpha, n)
        assert intersection(out, kappa) == abs(n) * intersection(kappa, alpha) ** 2

    @pytest.mark.parametrize("r,s", [(1, 0), (2, 1), (3, 1), (3, 2), (5, 2), (7, 4)])
    @pytest.mark.parametrize("n", range(0, 6))
    def test_nu_twist_closed_form(self, r, s, n):
        # twisting along (1,1) lands on ((n+1)r - ns, nr - (n-1)s)
        out = dehn_twist(normalize(r, s), NU, n)
        assert out == normalize((n + 1) * r - n * s, n * r - (n - 1) * s)


class TestExceptional:
    def test_members(self):
        assert is_exceptional(NU)
        assert is_exceptional(normalize(1, 2))
        assert not is_exceptional(normalize(3, 2))

    def test_set_contents(self):
        expected = {(0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1)}
        assert {(c.p, c.q) for c in EXCEPTIONAL_SET} == expected
