"""Boundary plumbing of (handlebody, curve system) pairs as a certificate
calculus, and the recursive eta_g / gamma_g constructions.

A MarkedPair tracks genus, component count, and certified flags only; no
embedding is stored.  Plumbing is along nontrivial bands by definition;
a plumb step records only whether each band spans two components of its
host system and whether a nonseparating witness is certified, the three
bits of its trace line.  Plumbing two pairs adds the genera, keeps
3-disk-busting, and keeps annulus-busting when both inputs have it.  The
glued bands merge the curve components they touch into one, so the count
drops by one per spanning band, plus one for the join itself.

Every construction records a lineage: a postfix trace (base pairs pushed,
plumb steps popping two) that can be serialized and replayed.  Lineages
are immutable shared postfix trees of plain tuples, and `trace` and
`replay` are O(g) for a genus-g construction.

The trace language has exactly eleven lines: `base eta1`, `base eta1x2`,
`base gamma2`, and the eight `plumb spans_a=A spans_b=B nonsep=N` with A,
B and N each 0 or 1, fields in that order and one space apart, each line
ended by "\\n".  `plumb` writes its line from the table _PLUMB_BANDS, and
replay reads every line from _TRACE_LINES, which takes its plumb lines
from that same table; any other line (blank, respaced, reordered, ended by
another line break or by none) is not a trace line and raises
PlumbingError.  The three base pairs are frozen values built once, at
import, after gamma2() has checked the shipped seam data.

Per-step invariant: every MarkedPair has genus >= 1 and holds the tree
and length of a Lineage (its constructor accepts nothing else, and its
public fields are read-only properties over private slots).  So a plumb
step checks no genus, since its genus is the sum of two genera >= 1,
converts nothing and scans no parts.  It looks its three bits up once in
_PLUMB_BANDS, which gives its trace line, the components it merges and its
flags.  Its tree is one new tuple (a, b, step) of the two input trees,
shared, and its length is len(a) + len(b) + 1; plumb reads its inputs'
slots and fills its result's slots directly.  Each step is O(1) and
allocates two objects: the pair and its tree tuple, a tuple of plain tuples
and strs, which the collector untracks.  A pair's `lineage` is a Lineage
over its tree, built when the property is read.

replay keeps the top pair of its stack in a local and only the pairs
under it on the stack, so a base line is one push and a plumb line one
pop and one plumb call.
"""

from __future__ import annotations

from typing import NamedTuple

from .pants import gamma2

_new = object.__new__


class PlumbingError(ValueError):
    """Base class for invalid plumbing operations."""


class MissingPrecondition(PlumbingError):
    """An input pair lacks a certified flag the operation needs."""


class InvalidGenus(PlumbingError):
    """Genus outside the construction's range."""


class Flags(NamedTuple):
    """The certified flags of a marked pair, equal to the plain 4-tuple of
    its bools.  The benchmark's lineage check (perfbench/checks.py) reads
    all_true.

    plumb reads the flags by position, so the fields keep this order:
    three_disk_busting [0], annulus_busting [1], nonseparating [2],
    essential_components [3].
    """

    three_disk_busting: bool
    annulus_busting: bool
    nonseparating: bool
    essential_components: bool

    def all_true(self) -> bool:
        return all(self)


def _steps(tree) -> list[str]:
    """The steps of a lineage tree in order.  It walks the tree last step
    first, then puts the steps in order.  A 3-tuple whose middle entry is a
    step is a plumb node whose right input is one step (each node of eta and
    gamma), or a flat leaf of three steps: its last two entries are steps, so
    both go straight to `steps` and the walk descends into its first entry."""
    steps: list[str] = []
    stack: list[str | tuple] = [tree]
    pop, extend, append = stack.pop, stack.extend, steps.append
    while stack:
        node = pop()
        while type(node) is tuple and len(node) == 3 and type(node[1]) is str:
            append(node[2])
            append(node[1])
            node = node[0]
        if type(node) is str:
            append(node)
        else:
            extend(node)
    steps.reverse()
    return steps


class Lineage:
    """The steps of a construction in postfix order, as an immutable tree.

    The tree `_tree` is built of plain values only: a str for a one-step
    leaf, a tuple of step strings for any other leaf `Lineage(*steps)`, and
    the 3-tuple (a_tree, b_tree, step) for the node of a plumb step, which
    `plumb` makes by sharing both input trees rather than copying them.  A
    tuple's entries are walked alike whether it is a leaf or a node.  A
    MarkedPair holds the tree and its length, not a Lineage, and builds a
    Lineage over them each time its `lineage` is read.  A Lineage acts as
    the flat sequence of its steps: len() is O(1), iteration yields the
    steps in order without recursion, and equality and hashing go by
    content.
    """

    __slots__ = ("_tree", "_len")

    def __init__(self, *steps: str):
        for step in steps:
            if not isinstance(step, str):
                raise TypeError(f"lineage steps are strings, got {step!r}")
        # a step is kept as a plain str, which is what _steps tests for
        self._tree = str(steps[0]) if len(steps) == 1 else tuple(map(str, steps))
        self._len = len(steps)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(_steps(self._tree))

    def __eq__(self, other) -> bool:
        if isinstance(other, Lineage):
            return self._len == other._len and _steps(self._tree) == _steps(other._tree)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(_steps(self._tree)))

    def __repr__(self) -> str:
        return f"Lineage{tuple(_steps(self._tree))!r}"

    def __reduce__(self):
        # pickle and copy the flat steps: the tree is as deep as the genus
        return Lineage, tuple(_steps(self._tree))


class MarkedPair:
    """A (handlebody, curve system) pair: genus, curve components, certified
    flags and lineage, each a read-only property.  The constructor checks
    genus >= 1 and that the lineage is a Lineage, and keeps its tree and
    length; `lineage` builds a Lineage over them on each read.  Pairs equal,
    hash, print and pickle as the tuple of their four fields.
    """

    __slots__ = ("_genus", "_components", "_flags", "_tree", "_len")

    def __init__(self, genus: int, components: int, flags: Flags, lineage: Lineage):
        if genus < 1:
            raise InvalidGenus("marked pairs need genus >= 1")
        if not isinstance(lineage, Lineage):
            raise TypeError(f"a lineage is a Lineage, got {lineage!r}")
        self._genus = genus
        self._components = components
        self._flags = flags
        self._tree = lineage._tree
        self._len = lineage._len

    @property
    def genus(self) -> int:
        return self._genus

    @property
    def components(self) -> int:
        return self._components

    @property
    def flags(self) -> Flags:
        return self._flags

    @property
    def lineage(self) -> Lineage:
        lineage = _new(Lineage)
        lineage._tree, lineage._len = self._tree, self._len
        return lineage

    def _fields(self) -> tuple:
        return self._genus, self._components, self._flags, self.lineage

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"MarkedPair(genus={self._genus!r}, components={self._components!r},"
            f" flags={self._flags!r}, lineage={self.lineage!r})"
        )

    def __reduce__(self):
        return MarkedPair, self._fields()

    def trace(self) -> str:
        """Serialize the lineage as a replayable text trace; a pair with no
        steps has the trace "\\n"."""
        steps = _steps(self._tree)
        steps.append("")  # the join ends the text, so it is built once
        return "\n".join(steps) or "\n"


_ALL_FLAGS = Flags(True, True, True, True)

# What plumb reads from its three bits: the trace line, shared by the
# lineages that record it, the components the bands merge, and the plumbed
# flags without and with annulus-busting
_PLUMB_BANDS = {
    (spans_a, spans_b, nonsep): (
        f"plumb spans_a={int(spans_a)} spans_b={int(spans_b)} nonsep={int(nonsep)}",
        1 + spans_a + spans_b,
        Flags(True, False, nonsep, True),
        Flags(True, True, nonsep, True),
    )
    for spans_a in (False, True)
    for spans_b in (False, True)
    for nonsep in (False, True)
}

# the shipped gamma_2 seam data is checked once, before its base pair exists
gamma2()

# What replay does with each of the eleven trace lines: a base line pushes
# its pair, a frozen value built once here; a plumb line plumbs the top two
# pairs with the three bits of its _PLUMB_BANDS key.
_TRACE_LINES = {
    f"base {name}": MarkedPair(genus, components, _ALL_FLAGS, Lineage(f"base {name}"))
    for name, genus, components in (("eta1", 1, 1), ("eta1x2", 1, 2), ("gamma2", 2, 1))
}
_TRACE_LINES.update((line, key) for key, (line, *_) in _PLUMB_BANDS.items())


def eta1() -> MarkedPair:
    """Solid torus with a winding-number-3 boundary curve (axiom flags)."""
    return _TRACE_LINES["base eta1"]


def eta1_doubled() -> MarkedPair:
    """Two parallel copies of the eta1 curve on the solid torus."""
    return _TRACE_LINES["base eta1x2"]


def gamma2_pair() -> MarkedPair:
    """The genus-2 pair on the 3-seamed gamma_2 curve, whose seam data
    gamma2() checks when this module is imported; its annulus-busting flag
    is the axiom that gamma2() states."""
    return _TRACE_LINES["base gamma2"]


def plumb(
    a: MarkedPair,
    b: MarkedPair,
    spans_a: bool = False,
    spans_b: bool = False,
    nonseparating_witness: bool = False,
) -> MarkedPair:
    """Boundary-plumb two certified pairs along nontrivial bands.

    spans_a (spans_b) is true when the band's two attachments lie on
    distinct components of a's (b's) curve system, e.g. the band joining
    the two copies of the doubled core curve; the plumb then merges one
    extra component.  The result is 3-disk-busting with essential
    components; it is annulus-busting iff both inputs are.  The
    nonseparating flag is only set when the caller certifies a witness (the
    built-in recursions do).  The checks run in this order: the first
    pair's flags, the second pair's flags, the component count.  The step
    is O(1) by the per-step invariant in the module docstring.
    """
    flags_a, flags_b = a._flags, b._flags
    # the flags by position, in the field order stated on Flags
    if not flags_a[0]:
        raise MissingPrecondition("first pair is not certified 3-disk-busting")
    if not flags_a[3]:
        raise MissingPrecondition("first pair lacks essential components")
    if not flags_b[0]:
        raise MissingPrecondition("second pair is not certified 3-disk-busting")
    if not flags_b[3]:
        raise MissingPrecondition("second pair lacks essential components")
    try:
        line, merged, plain, busting = _PLUMB_BANDS[spans_a, spans_b, nonseparating_witness]
    except (KeyError, TypeError):
        # bits other than bools and 0/1 ints, unhashable ones included, are
        # read by their truth value
        line, merged, plain, busting = _PLUMB_BANDS[
            bool(spans_a), bool(spans_b), bool(nonseparating_witness)
        ]
    components = a._components + b._components - merged
    if components < 1:
        raise PlumbingError("band data merges more components than exist")
    pair = _new(MarkedPair)
    pair._genus = a._genus + b._genus
    pair._components = components
    pair._flags = busting if flags_a[1] and flags_b[1] else plain
    # the node of this step, sharing both input trees
    pair._tree = (a._tree, b._tree, line)
    pair._len = a._len + b._len + 1
    return pair


def eta(g: int) -> MarkedPair:
    """Nonseparating 3-disk-busting, annulus-busting curve on genus g >= 1.

    Base case is the winding-number-3 curve on the solid torus; each step
    plumbs the doubled copy onto the current pair, with the band on the
    doubled side joining its two components.
    """
    if g < 1:
        raise InvalidGenus("eta needs g >= 1")
    # the pair plumbed on at every step is a frozen value, built once
    doubled = eta1_doubled()
    pair = eta1()
    for _ in range(g - 1):
        pair = plumb(pair, doubled, False, True, True)
    return pair


def gamma(g: int) -> MarkedPair:
    """The gamma_g curve: gamma_2 for g = 2, else eta_{g-2} plumbed to gamma_2."""
    if g < 2:
        raise InvalidGenus("gamma needs g >= 2")
    if g == 2:
        return gamma2_pair()
    return plumb(eta(g - 2), gamma2_pair(), nonseparating_witness=True)


def replay(trace: str) -> MarkedPair:
    """Re-run a serialized lineage trace; returns the reconstructed pair.

    Each line ends with "\\n", the one line break trace() writes, and is
    looked up in _TRACE_LINES; plumb checks every step.  Raises
    PlumbingError on any malformed trace.
    """
    lines = trace.split("\n")
    unterminated = lines.pop()  # "" when the trace ends with its newline
    if unterminated:
        raise PlumbingError(f"not a trace line: {unterminated!r} has no final newline")
    # the top pair is held in `top`, the pairs under it on `stack`.  The
    # stack starts as [None] and the first base line pushes the empty top,
    # so two Nones lie under the pairs: a plumb line that pops None has
    # fewer than two pairs, and a trace that reduces to one pair leaves the
    # stack at [None, None].
    top, stack = None, [None]
    push, pop = stack.append, stack.pop
    for step in map(_TRACE_LINES.get, lines):
        if type(step) is MarkedPair:
            push(top)
            top = step
        elif step is None:
            # every earlier line was found, so this is the first that is not
            line = next(line for line in lines if line not in _TRACE_LINES)
            raise PlumbingError(f"not a trace line: {line!r}")
        else:
            a = pop()
            if a is None:
                raise PlumbingError("plumb step without two pairs on the stack")
            # unpacked: a call with plain positional arguments costs less than *step
            spans_a, spans_b, nonsep = step
            top = plumb(a, top, spans_a, spans_b, nonsep)
    if len(stack) != 2:
        raise PlumbingError("trace did not reduce to a single pair")
    return top
