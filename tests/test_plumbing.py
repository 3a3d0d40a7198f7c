import copy
import itertools
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from knotforge.plumbing import (
    Flags,
    InvalidGenus,
    Lineage,
    MarkedPair,
    MissingPrecondition,
    PlumbingError,
    _PLUMB_BANDS,
    eta,
    eta1,
    eta1_doubled,
    gamma,
    gamma2_pair,
    plumb,
    replay,
)
from oracles import reference_plumb, reference_replay, reference_step


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
LINES = [
    "base eta1", "base eta1x2", "base gamma2", *(line for line, *_ in _PLUMB_BANDS.values())
]


@st.composite
def line_traces(draw):
    """A trace of the eleven lines that holds two pairs at each plumb line,
    so that many replay; then maybe one line replaced by any line or a near
    miss, and maybe the final newline dropped, so that replays fail at
    every kind of line."""
    lines, pairs = [], 0
    for line in draw(st.lists(st.sampled_from(LINES), max_size=16)):
        if line.startswith("plumb"):
            if pairs < 2:
                continue
            pairs -= 1
        else:
            pairs += 1
        lines.append(line)
    if lines and draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from([*LINES, "", "base", "base eta1 "]))
    text = "".join(line + "\n" for line in lines)
    return text[:-1] if text and draw(st.integers(0, 9)) == 0 else text


BASES = {"eta1": eta1, "eta1x2": eta1_doubled, "gamma2": gamma2_pair}
# a plumb tree in postfix: push a base pair, plumb the top two, or push the
# top again, so that one lineage is shared by several nodes
TREE_OPS = st.lists(
    st.one_of(
        st.sampled_from(sorted(BASES)).map(lambda name: ("base", name)),
        st.tuples(st.just("plumb"), st.booleans(), st.booleans(), st.booleans()),
        st.just(("dup",)),
    ),
    max_size=40,
)


class TestPlumb:
    def test_genus_additive(self):
        out = plumb(eta1(), gamma2_pair())
        assert out.genus == 3

    def test_eta1_with_doubled_copy(self):
        out = plumb(eta1(), eta1_doubled(), spans_b=True)
        assert out.genus == 2
        assert out.components == 1
        assert out.flags.three_disk_busting
        assert out.flags.annulus_busting

    def test_missing_flag_rejected(self):
        weak = _weaken(eta1(), three_disk_busting=False)
        with pytest.raises(MissingPrecondition):
            plumb(weak, eta1())

    def test_annulus_busting_needs_both(self):
        soft = _weaken(eta1(), annulus_busting=False)
        out = plumb(soft, eta1())
        assert not out.flags.annulus_busting

    def test_component_counting(self):
        out = plumb(eta1_doubled(), eta1_doubled())
        assert out.components == 3
        out = plumb(eta1_doubled(), eta1_doubled(), spans_a=True, spans_b=True)
        assert out.components == 1

    def test_over_merging_rejected(self):
        with pytest.raises(PlumbingError):
            plumb(eta1(), eta1(), spans_a=True, spans_b=True)

    @pytest.mark.parametrize("key", sorted(_PLUMB_BANDS), ids="%d%d%d".__mod__)
    def test_every_step_traces_and_replays(self, key):
        # each band that spans two components is plumbed onto the doubled
        # pair, which has two
        spans_a, spans_b, nonsep = key
        a = eta1_doubled() if spans_a else eta1()
        b = eta1_doubled() if spans_b else gamma2_pair()
        out = plumb(a, b, *key)
        assert out.components == a.components + b.components - 1 - spans_a - spans_b
        assert out.flags.nonseparating is nonsep
        assert out.trace() == a.trace() + b.trace() + reference_step(*key) + "\n"
        assert replay(out.trace()) == out

    @pytest.mark.parametrize(
        "bits, key",
        [
            ((0, 1, 1), (False, True, True)),
            ((1, 0, 0), (True, False, False)),
            ((2, "", [1]), (True, False, True)),
            ((None, "x", 0.0), (False, True, False)),
            # every step's three bools, then their 0/1 int spellings
            *((key, key) for key in sorted(_PLUMB_BANDS)),
            *((tuple(map(int, key)), key) for key in sorted(_PLUMB_BANDS)),
        ],
    )
    def test_bits_read_by_truth_value(self, bits, key):
        for annulus in (False, True):
            a, b = _weaken(eta1_doubled(), annulus_busting=annulus), eta1_doubled()
            out, ref = plumb(a, b, *bits), reference_plumb(a, b, *key)
            assert out == ref and out.lineage == ref.lineage
            assert all(type(flag) is bool for flag in out.flags)
            assert out.trace() == ref.trace()


FIELDS = ("genus", "components", "flags", "lineage")


def _rebuilt(pair, **changes):
    """The pair built again through MarkedPair's public constructor, with
    the fields in `changes` replaced."""
    return MarkedPair(**{**{name: getattr(pair, name) for name in FIELDS}, **changes})


def _weaken(pair, **flags):
    return _rebuilt(pair, flags=pair.flags._replace(**flags))


# the faults plumb detects, in the order it checks them: each takes the
# arguments (a, b, spans_a, spans_b) and returns them with the fault added
PLUMB_FAULTS = [
    (
        lambda a, b, x, y: (_weaken(a, three_disk_busting=False), b, x, y),
        MissingPrecondition,
        "first pair is not certified 3-disk-busting",
    ),
    (
        lambda a, b, x, y: (_weaken(a, essential_components=False), b, x, y),
        MissingPrecondition,
        "first pair lacks essential components",
    ),
    (
        lambda a, b, x, y: (a, _weaken(b, three_disk_busting=False), x, y),
        MissingPrecondition,
        "second pair is not certified 3-disk-busting",
    ),
    (
        lambda a, b, x, y: (a, _weaken(b, essential_components=False), x, y),
        MissingPrecondition,
        "second pair lacks essential components",
    ),
    (
        lambda a, b, x, y: (a, b, True, True),
        PlumbingError,
        "band data merges more components than exist",
    ),
]


class TestPlumbErrors:
    @pytest.mark.parametrize("first", range(len(PLUMB_FAULTS)))
    def test_first_fault_in_check_order_wins(self, first):
        # fault `first` and every fault checked after it: plumb must report
        # `first`, with its exact type and message
        args = (eta1(), eta1(), False, False)
        for add_fault, _, _ in PLUMB_FAULTS[first:]:
            args = add_fault(*args)
        _, error, message = PLUMB_FAULTS[first]
        with pytest.raises(PlumbingError) as caught:
            plumb(*args, nonseparating_witness=True)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_fault_free_arguments_plumb(self):
        assert plumb(eta1(), eta1(), False, False).components == 1

    @pytest.mark.parametrize("bits_a", itertools.product((False, True), repeat=4))
    def test_every_pair_of_flags(self, bits_a):
        # plumb reads the flags by position: it raises exactly when a named
        # precondition is false, with that precondition's message, and the
        # result is annulus-busting exactly when both inputs are
        a = _rebuilt(eta1(), flags=Flags(*bits_a))
        for bits_b in itertools.product((False, True), repeat=4):
            b = _rebuilt(eta1(), flags=Flags(*bits_b))
            fa, fb = a.flags, b.flags
            failed = [
                message
                for holds, message in [
                    (fa.three_disk_busting, "first pair is not certified 3-disk-busting"),
                    (fa.essential_components, "first pair lacks essential components"),
                    (fb.three_disk_busting, "second pair is not certified 3-disk-busting"),
                    (fb.essential_components, "second pair lacks essential components"),
                ]
                if not holds
            ]
            if failed:
                with pytest.raises(MissingPrecondition) as caught:
                    plumb(a, b)
                assert str(caught.value) == failed[0]
                continue
            for nonsep in (False, True):
                out = plumb(a, b, nonseparating_witness=nonsep)
                both = fa.annulus_busting and fb.annulus_busting
                assert out.flags == Flags(True, both, nonsep, True)


def _public(pair):
    """The pair rebuilt through MarkedPair's public constructor, from a flat
    Lineage of its steps."""
    return MarkedPair(
        genus=pair.genus,
        components=pair.components,
        flags=pair.flags,
        lineage=Lineage(*pair.lineage),
    )


BUILT_PAIRS = {
    "plumb-doubled": lambda: plumb(eta1(), eta1_doubled(), False, True, True),
    "plumb-gamma2": lambda: plumb(eta1(), gamma2_pair()),
    **{f"eta{g}": lambda g=g: eta(g) for g in (1, 2, 5)},
    **{f"gamma{g}": lambda g=g: gamma(g) for g in (2, 3, 6)},
    "replay-eta4": lambda: replay(eta(4).trace()),
    "replay-gamma5": lambda: replay(gamma(5).trace()),
}


class TestBuiltPairsMatchPublicConstructor:
    @pytest.mark.parametrize("name", sorted(BUILT_PAIRS))
    def test_indistinguishable(self, name):
        pair = BUILT_PAIRS[name]()
        ref = _public(pair)
        assert type(pair) is MarkedPair and type(pair.lineage) is Lineage
        assert pair == ref and ref == pair and hash(pair) == hash(ref)
        assert repr(pair) == repr(ref)
        for name in FIELDS:
            assert getattr(pair, name) == getattr(ref, name)
            assert type(getattr(pair, name)) is type(getattr(ref, name))
        assert _rebuilt(pair) == ref
        assert _rebuilt(pair, components=2) == _rebuilt(ref, components=2)
        for copied in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair), copy.copy(pair)):
            assert copied == ref and hash(copied) == hash(ref) and repr(copied) == repr(ref)
        assert pickle.dumps(pair) == pickle.dumps(ref)
        for name in FIELDS:
            with pytest.raises(AttributeError):
                setattr(pair, name, getattr(ref, name))
            with pytest.raises(AttributeError):
                delattr(pair, name)
        assert pair == ref


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
            # trace() writes none of these: fields out of order, or spacing
            # and line breaks other than its own
            PAIRS + "plumb nonsep=1 spans_b=1 spans_a=0",
            " base eta1",
            "base\teta1",
            "base eta1\n\n",
            "base eta1 ",
            # nor a line break other than "\n", nor a last line without one
            "base eta1\r\n",
            "base eta1\x0c",
            "base eta1\u2028",
            "base eta1",
        ],
    )
    def test_malformed_step_rejected(self, trace):
        with pytest.raises(PlumbingError, match="not a trace line"):
            replay(trace)

    @given(st.one_of(TRACES, line_traces()))
    # a plumb line with no pair and with one pair, two pairs left over, two
    # spanning bands on one-component pairs, and a fault after a bad line
    @example("plumb spans_a=0 spans_b=0 nonsep=0\n")
    @example("base eta1\nplumb spans_a=0 spans_b=0 nonsep=0\n")
    @example("base eta1\nbase gamma2\n")
    @example("base eta1\nbase eta1\nplumb spans_a=1 spans_b=1 nonsep=0\n")
    @example("base eta1\nbase eta1x2\nbase\nplumb spans_a=0 spans_b=0 nonsep=0\n")
    def test_matches_reference_replay(self, text):
        # the same pair with the same trace, or the same error type and
        # message, hence the same first faulty line
        try:
            ref = reference_replay(text)
        except PlumbingError as exc:
            with pytest.raises(PlumbingError) as caught:
                replay(text)
            assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
            return
        pair = replay(text)
        assert pair == ref and pair.trace() == ref.trace()

    @given(TRACES)
    def test_any_text_replays_or_raises_plumbing_error(self, text):
        try:
            pair = replay(text)
        except PlumbingError:
            return
        assert replay(pair.trace()) == pair


class TestMarkedPair:
    def test_genus_floor(self):
        with pytest.raises(InvalidGenus):
            MarkedPair(0, 1, Flags(True, True, True, True), Lineage("base x"))

    def test_plain_tuple_lineage(self):
        # a lineage is a Lineage: a tuple of steps is not converted
        with pytest.raises(TypeError, match="a lineage is a Lineage"):
            MarkedPair(1, 1, eta1().flags, ("base eta1",))
        pair = MarkedPair(1, 1, eta1().flags, Lineage("base eta1"))
        assert pair == eta1() and hash(pair) == hash(eta1())
        assert tuple(pair.lineage) == ("base eta1",)
        assert replay(pair.trace()) == pair

    def test_record_protocol(self):
        # equal only to a MarkedPair, hashed as the tuple of its four fields,
        # and printed as the fields by name
        pair = eta1()
        fields = (1, 1, (True, True, True, True), Lineage("base eta1"))
        assert hash(pair) == hash(fields) and pair != fields and fields != pair
        assert pair.__eq__(fields) is NotImplemented
        assert repr(pair) == (
            "MarkedPair(genus=1, components=1, flags=Flags(three_disk_busting=True,"
            " annulus_busting=True, nonseparating=True, essential_components=True),"
            " lineage=Lineage('base eta1',))"
        )

    def test_flags_are_a_tuple(self):
        flags = Flags(True, False, True, True)
        assert flags == (True, False, True, True) and hash(flags) == hash(tuple(flags))
        assert flags._replace(annulus_busting=True).all_true()
        assert not flags.all_true()

    def test_str_lineage_rejected(self):
        # a str is a sequence of characters, not of steps
        with pytest.raises(TypeError, match="a lineage is a Lineage"):
            MarkedPair(1, 1, eta1().flags, "base eta1")


class TestLineage:
    def test_parts_are_steps_or_lineages(self):
        # Lineage(*steps) is a flat leaf: only plumb nests lineages
        with pytest.raises(TypeError):
            Lineage("base eta1", 3)
        with pytest.raises(TypeError):
            Lineage("base eta1", Lineage("base eta1x2"))

    @pytest.mark.parametrize("build", [eta, gamma])
    def test_tree_holds_only_plain_tuples_and_strs(self, build):
        # no Lineage or MarkedPair sits inside a tree, so a tree keeps no
        # pair alive
        stack = [build(64).lineage._tree]
        while stack:
            node = stack.pop()
            assert type(node) in (tuple, str)
            if type(node) is tuple:
                stack.extend(node)

    def test_one_step_leaf_is_a_plain_str(self):
        for pair in (eta1(), eta1_doubled(), gamma2_pair()):
            lineage = pair.lineage
            assert type(lineage._tree) is str and len(lineage) == 1
            steps = tuple(lineage)
            assert lineage == Lineage(*steps) and hash(lineage) == hash(Lineage(*steps))
        assert type(Lineage()._tree) is tuple and type(Lineage("a", "b")._tree) is tuple

    @pytest.mark.parametrize(
        "steps, text",
        [
            ((), "\n"),
            (("",), "\n"),
            (("", ""), "\n\n"),
            (("base eta1", "base eta1x2"), "base eta1\nbase eta1x2\n"),
        ],
    )
    def test_trace_ends_each_step_with_a_newline(self, steps, text):
        # a pair with no steps keeps the trace "\n", as one empty step has
        assert MarkedPair(1, 1, eta1().flags, Lineage(*steps)).trace() == text

    def test_str_subclass_steps_are_plain_steps(self):
        class Step(str):
            pass

        lineage = Lineage(Step("base eta1"), Step("base eta1x2"))
        assert [type(step) for step in lineage] == [str, str]
        assert tuple(lineage) == ("base eta1", "base eta1x2")

    def test_flat_and_nested_agree(self):
        step = "plumb spans_a=0 spans_b=1 nonsep=1"
        flat = Lineage("base eta1", "base eta1x2", step)
        pair = plumb(eta1(), eta1_doubled(), False, True, True)
        nested = pair.lineage
        assert len(flat) == 3 and list(flat) == ["base eta1", "base eta1x2", step]
        assert len(nested) == 3 and list(nested) == list(flat)
        # both hash as the tuple of their steps
        assert nested == flat and hash(nested) == hash(flat) == hash(tuple(flat))
        # plumb the result again, onto a pair whose lineage is the flat leaf
        flat_pair = MarkedPair(1, 2, eta1_doubled().flags, flat)
        doubled = plumb(pair, flat_pair, False, True, True).lineage
        assert len(doubled) == 7 and tuple(doubled) == tuple(flat) * 2 + (step,)
        # a Lineage equals only a Lineage
        assert doubled != flat and flat != tuple(flat) and flat != list(flat)

    @given(TREE_OPS)
    def test_matches_flat_tuple_reference(self, ops):
        # each stack entry pairs a built pair with a reference lineage, a
        # flat tuple built by concatenation
        stack = []
        for op in ops:
            if op[0] == "base":
                pair = BASES[op[1]]()
                stack.append((pair, (f"base {op[1]}",)))
            elif op[0] == "dup":
                if stack:
                    stack.append(stack[-1])
            elif len(stack) >= 2:
                (b, ref_b), (a, ref_a) = stack.pop(), stack.pop()
                _, spans_a, spans_b, nonsep = op
                args = (a, b, spans_a, spans_b, nonsep)
                if a.components + b.components - 1 - spans_a - spans_b < 1:
                    with pytest.raises(PlumbingError):
                        plumb(*args)
                    continue
                step = reference_step(spans_a, spans_b, nonsep)
                stack.append((plumb(*args), ref_a + ref_b + (step,)))
        for pair, ref in stack:
            lineage = pair.lineage
            assert len(lineage) == len(ref)
            assert list(lineage) == list(ref)
            assert pair.trace() == "\n".join(ref) + "\n"
            assert tuple(lineage) == ref and lineage == Lineage(*ref)
            assert hash(lineage) == hash(Lineage(*ref)) == hash(ref)
            flat = MarkedPair(pair.genus, pair.components, pair.flags, Lineage(*ref))
            assert pair == flat and hash(pair) == hash(flat)
            again = replay(pair.trace())
            assert again == pair and hash(again) == hash(pair)

    @given(TREE_OPS)
    def test_pair_holds_its_lineage_tree(self, ops):
        # each stack entry pairs a built pair with its count of base pairs;
        # a tree of k base pairs has k - 1 plumb steps, so 2k - 1 steps
        stack = [(BASES[name](), 1) for name in sorted(BASES)]
        for op in ops:
            if op[0] == "base":
                stack.append((BASES[op[1]](), 1))
            elif op[0] == "dup":
                stack.append(stack[-1])
            elif len(stack) >= 2:
                (b, leaves_b), (a, leaves_a) = stack.pop(), stack.pop()
                try:
                    stack.append((plumb(a, b, *op[1:]), leaves_a + leaves_b))
                except PlumbingError:
                    stack.append((a, leaves_a))
        for pair, leaves in stack:
            lineage = pair.lineage
            assert type(lineage) is Lineage and lineage == Lineage(*lineage)
            assert len(lineage) == 2 * leaves - 1
            again = replay(pair.trace())
            assert again == pair and hash(again) == hash(pair)
            for copied in (pickle.loads(pickle.dumps(pair)), copy.copy(pair), copy.deepcopy(pair)):
                assert copied == pair and hash(copied) == hash(pair)

    def test_plumb_walks_no_tree(self, monkeypatch):
        # plumb and the constructor share their input trees without walking them
        import knotforge.plumbing

        walks = []
        steps = knotforge.plumbing._steps
        monkeypatch.setattr(knotforge.plumbing, "_steps", lambda tree: walks.append(1) or steps(tree))
        pair = plumb(eta(3), gamma2_pair(), nonseparating_witness=True)
        assert walks == []
        lineage = Lineage(*pair.lineage)  # one walk, of pair's tree
        walks.clear()
        MarkedPair(pair.genus, pair.components, pair.flags, lineage)
        assert walks == []

    @pytest.mark.parametrize("build, steps", [(eta, 2 * 20_000 - 1), (gamma, 2 * 20_000 - 3)])
    def test_large_genus_round_trip(self, build, steps):
        # plumb is O(1) and trace/replay O(g): a quadratic lineage takes tens
        # of seconds here.  Iteration, hashing and freeing must not recurse.
        pair = build(20_000)
        assert len(pair.lineage) == steps
        again = replay(pair.trace())
        assert again == pair and hash(again) == hash(pair)
        assert again.genus == 20_000 and again.components == 1
        assert copy.deepcopy(pair) == pickle.loads(pickle.dumps(pair)) == pair
        del pair, again
