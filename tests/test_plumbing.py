import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotforge.plumbing import (
    InvalidGenus,
    MarkedPair,
    MissingPrecondition,
    PlumbingBand,
    PlumbingError,
    TrivialBand,
    eta,
    eta1,
    eta1_doubled,
    gamma,
    gamma2_pair,
    plumb,
    replay,
)


# two pairs that a well-formed plumb step joins
PAIRS = "base eta1\nbase eta1x2\n"
# traces built from lineage vocabulary, so that fuzzing reaches every step kind
TOKENS = st.sampled_from(
    "base plumb eta1 eta1x2 gamma2 mystery spans_a=0 spans_a=1 spans_b=0"
    " spans_b=1 nonsep=0 nonsep=1 spans_a=2 nonsep= = x".split()
)
TRACES = st.one_of(
    st.text(),
    st.lists(st.lists(TOKENS, max_size=5).map(" ".join), max_size=8).map("\n".join),
)


def band(nontrivial=True, spans=False):
    return PlumbingBand(host="x", nontrivial=nontrivial, spans_two_components=spans)


class TestPlumb:
    def test_genus_additive(self):
        out = plumb(eta1(), gamma2_pair(), band(), band())
        assert out.genus == 3

    def test_eta1_with_doubled_copy(self):
        out = plumb(eta1(), eta1_doubled(), band(), band(spans=True))
        assert out.genus == 2
        assert out.components == 1
        assert out.flags.three_disk_busting
        assert out.flags.annulus_busting

    def test_trivial_band_rejected(self):
        with pytest.raises(TrivialBand):
            plumb(eta1(), eta1(), band(nontrivial=False), band())

    def test_missing_flag_rejected(self):
        import dataclasses

        weak = eta1()
        weak = dataclasses.replace(
            weak, flags=dataclasses.replace(weak.flags, three_disk_busting=False)
        )
        with pytest.raises(MissingPrecondition):
            plumb(weak, eta1(), band(), band())

    def test_annulus_busting_needs_both(self):
        import dataclasses

        soft = eta1()
        soft = dataclasses.replace(
            soft, flags=dataclasses.replace(soft.flags, annulus_busting=False)
        )
        out = plumb(soft, eta1(), band(), band())
        assert not out.flags.annulus_busting

    def test_component_counting(self):
        out = plumb(eta1_doubled(), eta1_doubled(), band(), band())
        assert out.components == 3
        out = plumb(eta1_doubled(), eta1_doubled(), band(spans=True), band(spans=True))
        assert out.components == 1

    def test_over_merging_rejected(self):
        with pytest.raises(PlumbingError):
            plumb(eta1(), eta1(), band(spans=True), band(spans=True))


class TestEta:
    def test_base_case(self):
        pair = eta(1)
        assert pair.genus == 1 and pair.components == 1
        assert pair.flags.all_true()

    def test_genus_two(self):
        pair = eta(2)
        assert pair.genus == 2 and pair.components == 1
        assert pair.flags.nonseparating

    @pytest.mark.parametrize("g", [3, 5, 17])
    def test_recursion(self, g):
        pair = eta(g)
        assert pair.genus == g
        assert pair.components == 1
        assert pair.flags.all_true()

    def test_bad_genus(self):
        with pytest.raises(InvalidGenus):
            eta(0)


class TestGamma:
    def test_base_case(self):
        pair = gamma(2)
        assert pair.genus == 2 and pair.components == 1
        assert pair.flags.three_disk_busting and pair.flags.annulus_busting

    @pytest.mark.parametrize("g", [3, 7, 12])
    def test_recursion(self, g):
        pair = gamma(g)
        assert pair.genus == g
        assert pair.components == 1
        assert pair.flags.all_true()

    def test_bad_genus(self):
        with pytest.raises(InvalidGenus):
            gamma(1)


class TestReplay:
    @pytest.mark.parametrize("g", [1, 2, 5, 9])
    def test_eta_round_trip(self, g):
        pair = eta(g)
        assert replay(pair.trace()) == pair

    @pytest.mark.parametrize("g", [2, 3, 8])
    def test_gamma_round_trip(self, g):
        pair = gamma(g)
        assert replay(pair.trace()) == pair

    def test_unknown_base_rejected(self):
        with pytest.raises(PlumbingError):
            replay("base mystery\n")

    def test_underflow_rejected(self):
        with pytest.raises(PlumbingError):
            replay("base eta1\nplumb spans_a=0 spans_b=0 nonsep=1\n")

    def test_leftover_stack_rejected(self):
        with pytest.raises(PlumbingError):
            replay("base eta1\nbase eta1\n")

    @pytest.mark.parametrize(
        "trace",
        [
            PAIRS + "plumb x",
            PAIRS + "plumb spans_b=0 nonsep=1",
            PAIRS + "plumb spans_a=0 spans_b=0",
            PAIRS + "plumb spans_a=0 spans_b=0 nonsep=1 extra=1",
            PAIRS + "plumb spans_a=0 spans_a=1 spans_b=0 nonsep=1",
            PAIRS + "plumb spans_a=2 spans_b=0 nonsep=1",
            PAIRS + "plumb spans_a=x spans_b=0 nonsep=1",
            PAIRS + "plumb spans_a= spans_b=0 nonsep=1",
            PAIRS + "plumb spans_a=0=1 spans_b=0 nonsep=1",
            "base",
            "base eta1 eta1",
        ],
    )
    def test_malformed_step_rejected(self, trace):
        with pytest.raises(PlumbingError):
            replay(trace)

    @given(TRACES)
    def test_any_text_replays_or_raises_plumbing_error(self, text):
        try:
            pair = replay(text)
        except PlumbingError:
            return
        assert replay(pair.trace()) == pair


class TestMarkedPair:
    def test_genus_floor(self):
        from knotforge.plumbing import Flags

        with pytest.raises(InvalidGenus):
            MarkedPair(0, 1, Flags(True, True, True, True), ("base x",))
