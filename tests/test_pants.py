import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotforge import pants
from knotforge.pants import (
    GAMMA2_DATA,
    IncompatibleDecomposition,
    PantsDecomposition,
    PantsError,
    SeamedCurve,
    ShapeMismatch,
    gamma2,
    load_seam_data,
    seamed_level,
    validate,
)
from knotforge.plumbing import gamma2_pair
from oracles import dump_seam_data, empty_curve


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

    def test_replace_checks_the_shape(self):
        # _replace and _make build through the checked constructor
        pd = genus2_pd()
        assert pd._replace(compatible=False) == genus2_pd(compatible=False)
        with pytest.raises(PantsError, match="expected 6 cuffs, got 3"):
            pd._replace(genus=3)
        with pytest.raises(PantsError, match="unknown cuff 'c9'"):
            PantsDecomposition._make((2, pd.cuffs, (("c0", "c1", "c9"), pd.pants[1]), True))

    @pytest.mark.parametrize(
        "pants, message",
        [
            ((("c0", "c1", "c2"),), "expected 2 pants, got 1"),
            ((("c0", "c1", "c9"), ("c0", "c1", "c2")), "unknown cuff 'c9'"),
        ],
    )
    def test_pants_rejected(self, pants, message):
        with pytest.raises(PantsError, match=message):
            PantsDecomposition(2, ("c0", "c1", "c2"), pants, True)


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

    def test_non_triple_arc_count(self):
        pd = genus2_pd()
        curve = empty_curve(pd)._replace(seams=((1, 1), (0, 0, 0)))
        with pytest.raises(ShapeMismatch, match="arc counts must be triples"):
            validate(curve, pd)

    def test_negative_closed_count(self):
        pd = genus2_pd()
        curve = empty_curve(pd)._replace(closed=(-1, 0, 0))
        with pytest.raises(ShapeMismatch, match="closed-component counts"):
            validate(curve, pd)

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

    def test_failing_cuff_match_rejected(self):
        pd = genus2_pd()
        curve = empty_curve(pd)._replace(seams=((1, 0, 0), (0, 0, 0)))
        with pytest.raises(ShapeMismatch, match="curve fails cuff matching"):
            seamed_level(curve, pd)

    def test_incompatible_rejected(self):
        pd = genus2_pd(compatible=False)
        with pytest.raises(IncompatibleDecomposition):
            seamed_level(empty_curve(pd), pd)

    def test_parallels_spoil_level(self):
        pd = genus2_pd()
        curve = symmetric_curve(3, 3, 3)._replace(parallels=((1, 0, 0), (1, 0, 0)))
        assert seamed_level(curve, pd) == 0

    def test_closed_components_spoil_level(self):
        # closed components leave cuff matching alone, so only the level sees them
        curve, pd = load_seam_data(GAMMA2_DATA.replace("closed c0 0", "closed c0 1"))
        assert curve.closed == (1, 0, 0)
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

    @pytest.mark.parametrize(
        "text",
        [
            *(
                GAMMA2_DATA + line + "\n"
                for line in (
                    "genus 2",
                    "compatible true",
                    "seams p0 4 4 3",
                    "parallels p1 0 0 0",
                    "closed c0 0",
                    "seams p9 1 1 1",
                    "parallels p9 0 0 0",
                    "closed c9 5",
                )
            ),
            # two `pants p0` lines make a valid two-pants decomposition
            GAMMA2_DATA.replace("p1", "p0"),
        ],
    )
    def test_repeated_or_undeclared_line_rejected(self, text):
        # each text would load if repeats and undeclared ids went unchecked
        with pytest.raises(PantsError, match="repeats|undeclared"):
            load_seam_data(text)

    @pytest.mark.parametrize("line", ["genus 2\n", "compatible true\n"])
    def test_missing_genus_or_compatible_rejected(self, line):
        with pytest.raises(PantsError, match="missing genus or compatible line"):
            load_seam_data(GAMMA2_DATA.replace(line, ""))

    def test_declared_pants_without_counts_rejected(self):
        with pytest.raises(PantsError, match="missing counts for 'p1'"):
            load_seam_data(GAMMA2_DATA.replace("seams p1 4 4 3\n", ""))

    def test_counts_may_precede_their_declarations(self):
        lines = GAMMA2_DATA.splitlines()
        counts = [ln for ln in lines[1:] if ln.split()[0] in ("seams", "parallels", "closed")]
        declarations = [ln for ln in lines[1:] if ln not in counts]
        text = "\n".join([lines[0], *counts, *declarations])
        assert load_seam_data(text) == load_seam_data(GAMMA2_DATA)


class TestGamma2:
    def test_certificate(self):
        # the level is the seamed one; annulus-busting is the axiom that
        # the gamma2 base pair carries
        curve, pd = gamma2()
        assert seamed_level(curve, pd) == 3
        assert gamma2_pair().flags.annulus_busting
        assert pd.compatible

    def test_seam_minimum(self):
        curve, _ = gamma2()
        assert min(min(t) for t in curve.seams) == 3

    def test_level_below_three_rejected(self, monkeypatch):
        monkeypatch.setattr(pants, "GAMMA2_DATA", GAMMA2_DATA.replace(" 4 4 3", " 4 4 2"))
        with pytest.raises(PantsError, match="built-in gamma_2 data is not 3-seamed"):
            gamma2()
