import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotforge import pants
from knotforge.pants import (
    GAMMA2_DATA,
    BustingCertificate,
    IncompatibleDecomposition,
    PantsDecomposition,
    PantsError,
    SeamedCurve,
    ShapeMismatch,
    dump_seam_data,
    empty_curve,
    gamma2,
    load_seam_data,
    promote,
    seamed_level,
    validate,
)


def genus2_pd(compatible=True):
    return PantsDecomposition(
        genus=2,
        cuffs=("c0", "c1", "c2"),
        pants=(("c0", "c1", "c2"), ("c0", "c1", "c2")),
        compatible=compatible,
    )


def symmetric_curve(s0, s1, s2):
    """Same seam counts on both pants of the genus-2 decomposition."""
    return SeamedCurve(
        seams=((s0, s1, s2), (s0, s1, s2)),
        parallels=((0, 0, 0), (0, 0, 0)),
        closed=(0, 0, 0),
    )


class TestDecomposition:
    def test_counts_enforced(self):
        with pytest.raises(PantsError):
            PantsDecomposition(2, ("c0",), (("c0", "c0", "c0"),), True)

    def test_each_cuff_two_sides(self):
        with pytest.raises(PantsError):
            PantsDecomposition(
                2,
                ("c0", "c1", "c2"),
                (("c0", "c0", "c1"), ("c0", "c1", "c2")),
                True,
            )

    def test_genus_floor(self):
        with pytest.raises(PantsError):
            PantsDecomposition(1, (), (), True)


class TestValidate:
    def test_empty_curve(self):
        pd = genus2_pd()
        assert validate(empty_curve(pd), pd)

    def test_mismatched_endpoints(self):
        pd = genus2_pd()
        curve = SeamedCurve(
            seams=((1, 0, 0), (0, 0, 0)),
            parallels=((0, 0, 0), (0, 0, 0)),
            closed=(0, 0, 0),
        )
        assert not validate(curve, pd)

    def test_shape_mismatch(self):
        pd = genus2_pd()
        with pytest.raises(ShapeMismatch):
            validate(
                SeamedCurve(seams=((1, 1, 1),), parallels=((0, 0, 0),), closed=(0,)),
                pd,
            )

    def test_gamma2_data_validates(self):
        curve, pd = load_seam_data(GAMMA2_DATA)
        assert validate(curve, pd)


class TestSeamedLevel:
    def test_gamma2_level(self):
        curve, pd = load_seam_data(GAMMA2_DATA)
        assert seamed_level(curve, pd) == 3

    def test_all_zero(self):
        pd = genus2_pd()
        assert seamed_level(empty_curve(pd), pd) == 0

    def test_minimum_rule(self):
        pd = genus2_pd()
        assert seamed_level(symmetric_curve(2, 5, 5), pd) == 2

    def test_incompatible_rejected(self):
        pd = genus2_pd(compatible=False)
        with pytest.raises(IncompatibleDecomposition):
            seamed_level(empty_curve(pd), pd)

    def test_parallels_spoil_level(self):
        pd = genus2_pd()
        curve = dataclasses.replace(
            symmetric_curve(3, 3, 3), parallels=((1, 0, 0), (1, 0, 0))
        )
        assert seamed_level(curve, pd) == 0

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), st.integers(0, 4))
    def test_monotone_in_counts(self, a, b, c, extra):
        pd = genus2_pd()
        base = seamed_level(symmetric_curve(a, b, c), pd)
        more = seamed_level(symmetric_curve(a + extra, b + extra, c + extra), pd)
        assert more >= base

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    def test_disjoint_union_doubles(self, a, b, c):
        pd = genus2_pd()
        single = seamed_level(symmetric_curve(a, b, c), pd)
        double = seamed_level(symmetric_curve(2 * a, 2 * b, 2 * c), pd)
        assert double == 2 * single

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    def test_level_forces_total_arcs(self, a, b, c):
        pd = genus2_pd()
        curve = symmetric_curve(a, b, c)
        k = seamed_level(curve, pd)
        assert all(sum(t) >= 3 * k for t in curve.seams)


class TestPromote:
    def test_promotes_level_one(self):
        cert = BustingCertificate(level=1, method="seamed", annulus_busting=False)
        out = promote(cert, 2)
        assert out.level == 2 and out.method == "promoted"

    def test_genus_one_unchanged(self):
        cert = BustingCertificate(level=1, method="seamed", annulus_busting=False)
        assert promote(cert, 1) == cert

    def test_higher_levels_unchanged(self):
        cert = BustingCertificate(level=3, method="seamed", annulus_busting=True)
        assert promote(cert, 4) == cert


class TestSerialization:
    def test_round_trip(self):
        curve, pd = load_seam_data(GAMMA2_DATA)
        text = dump_seam_data(curve, pd)
        curve2, pd2 = load_seam_data(text)
        assert (curve2, pd2) == (curve, pd)

    def test_bad_header(self):
        with pytest.raises(PantsError):
            load_seam_data("seamcurve v99\ngenus 2\n")

    def test_unknown_key(self):
        with pytest.raises(PantsError):
            load_seam_data(GAMMA2_DATA + "mystery 1\n")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("genus 2", "genus"),
            ("genus 2", "genus two"),
            ("genus 2", "genus 2 3"),
            ("compatible true", "compatible yes"),
            ("compatible true", "compatible True"),
            ("compatible true", "compatible"),
            ("cuff c0", "cuff"),
            ("pants p0 c0 c1 c2", "pants p0 c0 c1"),
            ("seams p0 4 4 3", "seams p0 4 4"),
            ("seams p0 4 4 3", "seams p0 4 4 x"),
            ("parallels p0 0 0 0", "parallels p0 0 0.5 0"),
            ("closed c0 0", "closed c0"),
            ("closed c0 0", "closed c0 none"),
        ],
    )
    def test_malformed_line_rejected(self, old, new):
        assert old in GAMMA2_DATA
        with pytest.raises(PantsError):
            load_seam_data(GAMMA2_DATA.replace(old, new, 1))

    def test_compatible_false_read(self):
        _, pd = load_seam_data(GAMMA2_DATA.replace("compatible true", "compatible false"))
        assert pd.compatible is False

    @given(st.lists(st.text(max_size=30), max_size=6))
    def test_arbitrary_lines_raise_only_pants_errors(self, extra):
        text = GAMMA2_DATA + "\n".join(extra)
        try:
            load_seam_data(text)
        except PantsError:
            pass

    def test_failing_cuff_match_rejected(self):
        bad = GAMMA2_DATA.replace("seams p1 4 4 3", "seams p1 4 4 5")
        with pytest.raises(PantsError):
            load_seam_data(bad)


class TestGamma2:
    def test_certificate(self):
        curve, pd, cert = gamma2()
        assert cert.level == 3
        assert cert.annulus_busting
        assert cert.method == "seamed"
        assert pd.compatible

    def test_seam_minimum(self):
        curve, _, _ = gamma2()
        assert min(min(t) for t in curve.seams) == 3

    def test_seam_data_parsed_once(self, monkeypatch):
        parsed = []

        def counting_load(text):
            parsed.append(text)
            return load_seam_data(text)

        monkeypatch.setattr(pants, "load_seam_data", counting_load)
        gamma2.cache_clear()
        try:
            first = gamma2()
            second = gamma2()
        finally:
            gamma2.cache_clear()
        assert parsed == [GAMMA2_DATA]
        assert first == second
        assert first is second
