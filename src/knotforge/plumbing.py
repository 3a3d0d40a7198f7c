"""Boundary plumbing of (handlebody, curve system) pairs as a certificate
calculus, and the recursive eta_g / gamma_g constructions.

A MarkedPair tracks genus, component count, and certified flags only; no
embedding is stored.  Plumbing two pairs along nontrivial bands adds the
genera, keeps 3-disk-busting, and keeps annulus-busting when both inputs
have it.  Component bookkeeping: the glued bands merge the curve
components they touch into one, so the count drops by one per band that
spans two components of its host system, plus one for the join itself.

Every construction records a lineage: a flat postfix trace (base pairs
pushed, plumb steps popping two) that can be serialized and replayed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pants import gamma2


class PlumbingError(ValueError):
    """Base class for invalid plumbing operations."""


class TrivialBand(PlumbingError):
    """Plumbing bands must be nontrivial."""


class MissingPrecondition(PlumbingError):
    """An input pair lacks a certified flag the operation needs."""


class InvalidGenus(PlumbingError):
    """Genus outside the construction's range."""


@dataclass(frozen=True)
class PlumbingBand:
    host: str
    nontrivial: bool
    # True when the band's two attachments lie on distinct components of
    # the host curve system (e.g. the band joining the two copies of the
    # doubled core curve); the plumb then merges one extra component.
    spans_two_components: bool = False


@dataclass(frozen=True)
class Flags:
    three_disk_busting: bool
    annulus_busting: bool
    nonseparating: bool
    essential_components: bool

    def all_true(self) -> bool:
        return (
            self.three_disk_busting
            and self.annulus_busting
            and self.nonseparating
            and self.essential_components
        )


@dataclass(frozen=True)
class MarkedPair:
    genus: int
    components: int
    flags: Flags
    lineage: tuple[str, ...]

    def __post_init__(self):
        if self.genus < 1:
            raise InvalidGenus("marked pairs need genus >= 1")

    def trace(self) -> str:
        """Serialize the lineage as a replayable text trace."""
        return "\n".join(self.lineage) + "\n"


_ALL_FLAGS = Flags(True, True, True, True)


def _base(name: str, genus: int, components: int) -> MarkedPair:
    return MarkedPair(
        genus=genus,
        components=components,
        flags=_ALL_FLAGS,
        lineage=(f"base {name}",),
    )


def eta1() -> MarkedPair:
    """Solid torus with a winding-number-3 boundary curve (axiom flags)."""
    return _base("eta1", 1, 1)


def eta1_doubled() -> MarkedPair:
    """Two parallel copies of the eta1 curve on the solid torus."""
    return _base("eta1x2", 1, 2)


def gamma2_pair() -> MarkedPair:
    """The genus-2 pair built from the 3-seamed curve certificate."""
    _, _, cert = gamma2()
    if cert.level < 3 or not cert.annulus_busting:
        raise MissingPrecondition("gamma_2 certificate lost its flags")
    return _base("gamma2", 2, 1)


_BASES = {"eta1": eta1, "eta1x2": eta1_doubled, "gamma2": gamma2_pair}


def plumb(
    a: MarkedPair,
    b: MarkedPair,
    band_a: PlumbingBand,
    band_b: PlumbingBand,
    nonseparating_witness: bool = False,
) -> MarkedPair:
    """Boundary-plumb two certified pairs along nontrivial bands.

    The result is 3-disk-busting with essential components; it is
    annulus-busting iff both inputs are.  The nonseparating flag is only
    set when the caller certifies a witness (the built-in recursions do).
    """
    for band in (band_a, band_b):
        if not band.nontrivial:
            raise TrivialBand(f"band on {band.host!r} is trivial")
    for name, pair in (("first", a), ("second", b)):
        if not pair.flags.three_disk_busting:
            raise MissingPrecondition(f"{name} pair is not certified 3-disk-busting")
        if not pair.flags.essential_components:
            raise MissingPrecondition(f"{name} pair lacks essential components")
    components = a.components + b.components - 1
    if band_a.spans_two_components:
        components -= 1
    if band_b.spans_two_components:
        components -= 1
    if components < 1:
        raise PlumbingError("band data merges more components than exist")
    step = (
        f"plumb spans_a={int(band_a.spans_two_components)}"
        f" spans_b={int(band_b.spans_two_components)}"
        f" nonsep={int(nonseparating_witness)}"
    )
    return MarkedPair(
        genus=a.genus + b.genus,
        components=components,
        flags=Flags(
            three_disk_busting=True,
            annulus_busting=a.flags.annulus_busting and b.flags.annulus_busting,
            nonseparating=nonseparating_witness,
            essential_components=True,
        ),
        lineage=a.lineage + b.lineage + (step,),
    )


def _self_band(host: str) -> PlumbingBand:
    return PlumbingBand(host=host, nontrivial=True)


def _joining_band(host: str) -> PlumbingBand:
    return PlumbingBand(host=host, nontrivial=True, spans_two_components=True)


def eta(g: int) -> MarkedPair:
    """Nonseparating 3-disk-busting, annulus-busting curve on genus g >= 1.

    Base case is the winding-number-3 curve on the solid torus; each step
    plumbs the doubled copy onto the current pair, with the band on the
    doubled side joining its two components.
    """
    if g < 1:
        raise InvalidGenus("eta needs g >= 1")
    pair = eta1()
    for _ in range(g - 1):
        pair = plumb(
            pair,
            eta1_doubled(),
            _self_band("a"),
            _joining_band("b"),
            nonseparating_witness=True,
        )
    return pair


def gamma(g: int) -> MarkedPair:
    """The gamma_g curve: gamma_2 for g = 2, else eta_{g-2} plumbed to gamma_2."""
    if g < 2:
        raise InvalidGenus("gamma needs g >= 2")
    if g == 2:
        return gamma2_pair()
    return plumb(
        eta(g - 2),
        gamma2_pair(),
        _self_band("a"),
        _self_band("b"),
        nonseparating_witness=True,
    )


_PLUMB_KEYS = ("spans_a", "spans_b", "nonsep")


def _plumb_fields(tokens: list[str]) -> dict[str, bool]:
    """The 0/1 fields of a plumb step, each of _PLUMB_KEYS exactly once."""
    fields: dict[str, bool] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or key not in _PLUMB_KEYS:
            raise PlumbingError(f"bad plumb field {token!r}")
        if key in fields:
            raise PlumbingError(f"duplicate plumb field {key!r}")
        if value not in ("0", "1"):
            raise PlumbingError(f"plumb field {key!r} must be 0 or 1, got {value!r}")
        fields[key] = value == "1"
    missing = [key for key in _PLUMB_KEYS if key not in fields]
    if missing:
        raise PlumbingError(f"plumb step lacks {', '.join(missing)}")
    return fields


def replay(trace: str) -> MarkedPair:
    """Re-run a serialized lineage trace; returns the reconstructed pair.

    Raises PlumbingError on any malformed trace.
    """
    stack: list[MarkedPair] = []
    for line in trace.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "base":
            if len(parts) != 2:
                raise PlumbingError(f"base step needs one pair name: {line.strip()!r}")
            name = parts[1]
            if name not in _BASES:
                raise PlumbingError(f"unknown base pair {name!r}")
            stack.append(_BASES[name]())
        elif parts[0] == "plumb":
            fields = _plumb_fields(parts[1:])
            if len(stack) < 2:
                raise PlumbingError("plumb step without two pairs on the stack")
            b = stack.pop()
            a = stack.pop()
            band_a = PlumbingBand("a", True, fields["spans_a"])
            band_b = PlumbingBand("b", True, fields["spans_b"])
            stack.append(plumb(a, b, band_a, band_b, nonseparating_witness=fields["nonsep"]))
        else:
            raise PlumbingError(f"unknown lineage step {parts[0]!r}")
    if len(stack) != 1:
        raise PlumbingError("trace did not reduce to a single pair")
    return stack[0]
