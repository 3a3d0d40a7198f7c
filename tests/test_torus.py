import copy
import pickle

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
    twist,
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


class TestNormalizeBuildsConstructorCurves:
    """normalize builds a new curve with tuple.__new__; the curve behaves in
    every way like one from the TorusCurve(p, q) constructor."""

    @given(curves())
    def test_same_as_the_constructor(self, c):
        made = TorusCurve(c.p, c.q)
        assert c == made and not c != made and hash(c) == hash(made)
        assert str(c) == str(made) and repr(c) == repr(made)
        assert c._asdict() == made._asdict() and list(c._asdict()) == ["p", "q"]
        assert tuple(c) == (made.p, made.q)
        assert c._replace(q=c.q + 1) == TorusCurve(c.p, c.q + 1)
        assert pickle.dumps(c) == pickle.dumps(made)
        assert pickle.loads(pickle.dumps(c)) == made
        assert copy.copy(c) == made and copy.deepcopy(c) == made
        assert {c: 1}[made] == 1

    @given(curves())
    def test_frozen(self, c):
        with pytest.raises(AttributeError):
            c.p = c.p + 1
        with pytest.raises(AttributeError):
            del c.q

    @given(st.lists(curves(), max_size=8))
    def test_sorts_like_the_constructor(self, cs):
        made = [TorusCurve(c.p, c.q) for c in cs]
        assert sorted(cs) == sorted(made)
        assert [(c.p, c.q) for c in sorted(cs + made)] == sorted((c.p, c.q) for c in cs + made)
        for a, b in zip(cs, made[::-1]):
            assert (a < b, a <= b, a > b, a >= b) == (
                (a.p, a.q) < (b.p, b.q),
                (a.p, a.q) <= (b.p, b.q),
                (a.p, a.q) > (b.p, b.q),
                (a.p, a.q) >= (b.p, b.q),
            )

    def test_constructor_is_unchecked(self):
        # only normalize checks: the constructor keeps what it is given
        assert TorusCurve(2, 4)._asdict() == {"p": 2, "q": 4}
        assert TorusCurve(0, 0)._asdict() == {"p": 0, "q": 0}
        assert TorusCurve(-1, 0)._asdict() == {"p": -1, "q": 0}

    def test_a_curve_is_its_tuple(self):
        # a NamedTuple: equal to and hashed like (p, q), and it unpacks
        curve = normalize(-3, 2)
        assert type(curve) is TorusCurve
        assert curve == (3, -2) and hash(curve) == hash((3, -2))
        p, q = curve
        assert (p, q) == (curve.p, curve.q) == (3, -2)


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
        # dehn_twist is twist(kappa, alpha, s*n) with s read off kappa's
        # normal form; counts >= 0 never flip that form, so they compose,
        # while a negative count can flip it (see TestTwist for the action)
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


def transvection(alpha, m):
    """The matrix of v -> v + m*w(v, alpha)*alpha, entry by entry."""
    t, v = alpha.p, alpha.q
    return ((1 + m * t * v, -m * t * t), (m * v * v, 1 - m * t * v))


def apply(matrix, curve):
    (a, b), (c, d) = matrix
    return normalize(a * curve.p + b * curve.q, c * curve.p + d * curve.q)


def negated(curve):
    return TorusCurve(-curve.p, -curve.q)


COUNTS = st.integers(-20, 20)


class TestTwist:
    def test_inverse_counterexample_of_dehn_twist(self):
        # T^1(T^-1(lambda)) along nu: the unsigned count drifts to (2,1)
        assert twist(twist(LAMBDA, NU, -1), NU, 1) == LAMBDA
        assert twist(LAMBDA, NU, -1) == TorusCurve(1, 2)
        assert dehn_twist(dehn_twist(LAMBDA, NU, -1), NU, 1) == TorusCurve(2, 1)

    @given(curves(20), curves(20), COUNTS, COUNTS)
    @settings(max_examples=300)
    def test_composition_and_inverse(self, kappa, alpha, m, n):
        assert twist(twist(kappa, alpha, m), alpha, n) == twist(kappa, alpha, m + n)
        assert twist(twist(kappa, alpha, m), alpha, -m) == kappa
        assert twist(kappa, alpha, 0) == kappa

    @given(curves(20), curves(20), COUNTS)
    @settings(max_examples=300)
    def test_defining_identity(self, kappa, alpha, m):
        (a, b), (c, d) = transvection(alpha, m)
        assert a * d - b * c == 1
        assert twist(kappa, alpha, m) == apply(transvection(alpha, m), kappa)
        # T^m is the m-th power of T^1 on the lattice
        step = transvection(alpha, 1 if m >= 0 else -1)
        tau = kappa
        for _ in range(abs(m)):
            tau = apply(step, tau)
        assert twist(kappa, alpha, m) == tau

    @given(curves(20), curves(20), COUNTS)
    def test_lift_independence(self, kappa, alpha, m):
        tau = twist(kappa, alpha, m)
        assert twist(negated(kappa), alpha, m) == tau
        assert twist(kappa, negated(alpha), m) == tau
        assert twist(negated(kappa), negated(alpha), m) == tau

    @given(curves(20), curves(20), COUNTS)
    def test_dehn_twist_is_the_signed_twist(self, kappa, alpha, n):
        w = kappa.p * alpha.q - kappa.q * alpha.p
        s = (w > 0) - (w < 0)
        assert dehn_twist(kappa, alpha, n) == twist(kappa, alpha, s * n)

    @given(curves(10**6), curves(10**6), st.integers(-(10**6), 10**6))
    @settings(max_examples=300)
    def test_never_raises_on_normal_forms(self, kappa, alpha, m):
        tau = twist(kappa, alpha, m)
        assert normalize(tau.p, tau.q) == tau
        assert intersection(tau, alpha) == intersection(kappa, alpha)


def nu_closed_form(r, s, n):
    """T_nu^n(r, s) written out: ((n+1)r - ns, nr - (n-1)s)."""
    return ((n + 1) * r - n * s, n * r - (n - 1) * s)


class TestNuTwistIdentity:
    """T_nu^n(r, s) = ((n+1)r - ns, nr - (n-1)s): the exceptional-fiber
    orders of the Seifert family after n annulus twists."""

    def test_examples(self):
        assert twist(normalize(2, 1), NU, 1) == TorusCurve(3, 2)
        assert twist(normalize(1, 0), NU, 0) == TorusCurve(1, 0)
        assert twist(normalize(3, 2), NU, 2) == TorusCurve(5, 4)

    def test_coprime_exhaustive_small(self):
        for r in range(-12, 13):
            for s in range(-12, 13):
                if gcd(abs(r), abs(s)) != 1:
                    continue
                for n in range(-12, 13):
                    p, q = nu_closed_form(r, s, n)
                    assert gcd(abs(p), abs(q)) == 1, (r, s, n)
                    assert twist(normalize(r, s), NU, n) == normalize(p, q), (r, s, n)

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
    @settings(max_examples=300)
    def test_coprime_property(self, r, s, n):
        if (r, s) == (0, 0) or gcd(abs(r), abs(s)) != 1:
            return
        p, q = nu_closed_form(r, s, n)
        assert gcd(abs(p), abs(q)) == 1
        assert twist(normalize(r, s), NU, n) == normalize(p, q)

    def test_matches_nu_twist(self):
        # the Seifert family's counts: dehn_twist along (1,1), n >= 0
        for r, s in [(2, 1), (3, 2), (5, 2)]:
            for n in range(0, 8):
                tau = dehn_twist(normalize(r, s), NU, n)
                assert (tau.p, tau.q) == nu_closed_form(r, s, n)


class TestExceptional:
    def test_members(self):
        assert is_exceptional(NU)
        assert is_exceptional(normalize(1, 2))
        assert not is_exceptional(normalize(3, 2))

    def test_set_contents(self):
        expected = {(0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1)}
        assert {(c.p, c.q) for c in EXCEPTIONAL_SET} == expected
