"""Multicurves on handlebody boundaries in seam coordinates, and the
k-seamed disk-busting certificate.

A pants decomposition of a genus-g boundary has 3g-3 cuffs and 2g-2 pairs
of pants; each cuff contributes exactly two pants-sides.  A multicurve is
recorded per pants as three seam-class counts (classes xy, yz, xz between
the pants' sides x, y, z), three cuff-parallel arc counts, and a count of
closed components parallel to each cuff.  Twisting parameters are not
modeled: the k-seamed criterion depends only on the arc class counts.

Seam data serialization (version 1) is a plain line-oriented text format::

    seamcurve v1
    genus <g>
    compatible <true|false>
    cuff <cuff-id>                      # one line per cuff, in order
    pants <pants-id> <cuff> <cuff> <cuff>
    seams <pants-id> <s_xy> <s_yz> <s_xz>
    parallels <pants-id> <p_x> <p_y> <p_z>
    closed <cuff-id> <count>

Lines may appear in any order after the header; unknown keys are rejected.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace


class PantsError(ValueError):
    """Base class for malformed pants/seam data."""


class ShapeMismatch(PantsError):
    """Curve data does not match the shape of the decomposition."""


class IncompatibleDecomposition(PantsError):
    """The seamed criterion needs every cuff to bound a disk."""


@dataclass(frozen=True)
class PantsDecomposition:
    genus: int
    cuffs: tuple[str, ...]
    pants: tuple[tuple[str, str, str], ...]
    compatible: bool

    def __post_init__(self):
        g = self.genus
        if g < 2:
            raise PantsError("pants decompositions need genus >= 2")
        if len(self.cuffs) != 3 * g - 3:
            raise PantsError(f"expected {3 * g - 3} cuffs, got {len(self.cuffs)}")
        if len(self.pants) != 2 * g - 2:
            raise PantsError(f"expected {2 * g - 2} pants, got {len(self.pants)}")
        sides: dict[str, int] = {c: 0 for c in self.cuffs}
        for trip in self.pants:
            for c in trip:
                if c not in sides:
                    raise PantsError(f"unknown cuff {c!r}")
                sides[c] += 1
        bad = [c for c, k in sides.items() if k != 2]
        if bad:
            raise PantsError(f"cuffs without exactly two pants-sides: {bad}")


# Seam class -> the two side indices it joins.
SEAM_SIDES = ((0, 1), (1, 2), (0, 2))


@dataclass(frozen=True)
class SeamedCurve:
    """Per-pants arc counts plus closed components per cuff.

    seams[i] and parallels[i] belong to pants i of the decomposition;
    closed[j] to cuff j.
    """

    seams: tuple[tuple[int, int, int], ...]
    parallels: tuple[tuple[int, int, int], ...]
    closed: tuple[int, ...]

    def side_endpoints(self, pants_index: int, side: int) -> int:
        """Arc endpoints on one side of one pants."""
        s = self.seams[pants_index]
        contrib = sum(s[k] for k, pair in enumerate(SEAM_SIDES) if side in pair)
        return contrib + 2 * self.parallels[pants_index][side]


def empty_curve(pd: PantsDecomposition) -> SeamedCurve:
    zero = (0, 0, 0)
    return SeamedCurve(
        seams=tuple(zero for _ in pd.pants),
        parallels=tuple(zero for _ in pd.pants),
        closed=tuple(0 for _ in pd.cuffs),
    )


@dataclass(frozen=True)
class BustingCertificate:
    level: int
    method: str  # one of: seamed, promoted, plumbed, hitting-bound
    annulus_busting: bool
    notes: str = ""


def _check_shape(curve: SeamedCurve, pd: PantsDecomposition) -> None:
    if (
        len(curve.seams) != len(pd.pants)
        or len(curve.parallels) != len(pd.pants)
        or len(curve.closed) != len(pd.cuffs)
    ):
        raise ShapeMismatch("curve data does not match decomposition shape")
    for trip in curve.seams + curve.parallels:
        if len(trip) != 3 or any(x < 0 for x in trip):
            raise ShapeMismatch("arc counts must be triples of nonnegative ints")
    if any(x < 0 for x in curve.closed):
        raise ShapeMismatch("closed-component counts must be nonnegative")


def validate(curve: SeamedCurve, pd: PantsDecomposition) -> bool:
    """True iff the cuff-matching condition holds.

    Every cuff has two pants-sides; the arc endpoint counts those sides
    receive must agree.  Realizability of each pants' arc system is
    automatic in these coordinates (each side count is the sum of its two
    adjacent seam classes plus twice its cuff-parallel count).
    """
    _check_shape(curve, pd)
    slots: dict[str, list[int]] = {c: [] for c in pd.cuffs}
    for i, trip in enumerate(pd.pants):
        for side, cuff in enumerate(trip):
            slots[cuff].append(curve.side_endpoints(i, side))
    return all(counts[0] == counts[1] for counts in slots.values())


def seamed_level(curve: SeamedCurve, pd: PantsDecomposition) -> int:
    """Largest k such that every pants carries >= k arcs in each seam class.

    For a compatible decomposition this k certifies that the curve is
    k-disk-busting.  A curve with cuff-parallel arcs or closed components
    is not a union of seams, so its level is 0.
    """
    if not pd.compatible:
        raise IncompatibleDecomposition(
            "the seamed criterion needs every cuff to bound a disk"
        )
    if not validate(curve, pd):
        raise ShapeMismatch("curve fails cuff matching")
    if any(sum(t) for t in curve.parallels) or any(curve.closed):
        return 0
    return min(min(t) for t in curve.seams)


def promote(cert: BustingCertificate, genus: int) -> BustingCertificate:
    """A 1-disk-busting curve on a genus >= 2 boundary is 2-disk-busting."""
    if cert.level == 1 and genus >= 2:
        return replace(cert, level=2, method="promoted")
    return cert


# ---------------------------------------------------------------------------
# The built-in gamma_2 curve on the genus-2 handlebody.
#
# Transcribed from the defining picture: both pants see seam classes
# (4, 4, 3); the curve meets the leftmost cuff disk 7 times (algebraically
# once), the middle cuff 8 times (four bands from one side), and is
# 3-seamed with minimum exactly 3.  The annulus-busting flag is carried as
# an axiom (the attached 2-handle gives a hyperbolic knot exterior); it is
# not recomputed here.
# ---------------------------------------------------------------------------

GAMMA2_DATA = """\
seamcurve v1
genus 2
compatible true
cuff c0
cuff c1
cuff c2
pants p0 c0 c1 c2
pants p1 c0 c1 c2
seams p0 4 4 3
parallels p0 0 0 0
seams p1 4 4 3
parallels p1 0 0 0
closed c0 0
closed c1 0
closed c2 0
"""


def dump_seam_data(curve: SeamedCurve, pd: PantsDecomposition) -> str:
    """Serialize seam data in the version-1 text format."""
    lines = ["seamcurve v1", f"genus {pd.genus}"]
    lines.append(f"compatible {'true' if pd.compatible else 'false'}")
    for c in pd.cuffs:
        lines.append(f"cuff {c}")
    for i, trip in enumerate(pd.pants):
        lines.append(f"pants p{i} {trip[0]} {trip[1]} {trip[2]}")
    for i in range(len(pd.pants)):
        s = curve.seams[i]
        p = curve.parallels[i]
        lines.append(f"seams p{i} {s[0]} {s[1]} {s[2]}")
        lines.append(f"parallels p{i} {p[0]} {p[1]} {p[2]}")
    for j, c in enumerate(pd.cuffs):
        lines.append(f"closed {c} {curve.closed[j]}")
    return "\n".join(lines) + "\n"


# Seam data key -> number of fields after the key.
_SEAM_FIELDS = {
    "genus": 1,
    "compatible": 1,
    "cuff": 1,
    "pants": 4,
    "seams": 4,
    "parallels": 4,
    "closed": 2,
}


def _seam_int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise PantsError(f"expected an integer, got {token!r} in {line!r}") from None


def load_seam_data(text: str) -> tuple[SeamedCurve, PantsDecomposition]:
    """Parse the version-1 seam data format; validates on load.

    Every malformed line (unknown key, wrong field count, a non-integer
    count, a `compatible` value other than true or false) raises
    PantsError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "seamcurve v1":
        raise PantsError("missing or unsupported seamcurve header")
    genus = None
    compatible = None
    cuffs: list[str] = []
    pants_ids: list[str] = []
    pants_sides: dict[str, tuple[str, str, str]] = {}
    seams: dict[str, tuple[int, int, int]] = {}
    parallels: dict[str, tuple[int, int, int]] = {}
    closed: dict[str, int] = {}
    for ln in lines[1:]:
        key, *fields = ln.split()
        if key not in _SEAM_FIELDS:
            raise PantsError(f"unknown key {key!r} in seam data")
        if len(fields) != _SEAM_FIELDS[key]:
            raise PantsError(
                f"{key!r} line needs {_SEAM_FIELDS[key]} fields, got {ln.strip()!r}"
            )
        if key == "genus":
            genus = _seam_int(fields[0], ln)
        elif key == "compatible":
            if fields[0] not in ("true", "false"):
                raise PantsError(f"compatible must be true or false, got {fields[0]!r}")
            compatible = fields[0] == "true"
        elif key == "cuff":
            cuffs.append(fields[0])
        elif key == "pants":
            pants_ids.append(fields[0])
            pants_sides[fields[0]] = tuple(fields[1:])
        elif key == "seams":
            seams[fields[0]] = tuple(_seam_int(t, ln) for t in fields[1:])
        elif key == "parallels":
            parallels[fields[0]] = tuple(_seam_int(t, ln) for t in fields[1:])
        else:
            closed[fields[0]] = _seam_int(fields[1], ln)
    if genus is None or compatible is None:
        raise PantsError("seam data missing genus or compatible line")
    pd = PantsDecomposition(
        genus=genus,
        cuffs=tuple(cuffs),
        pants=tuple(pants_sides[p] for p in pants_ids),
        compatible=compatible,
    )
    try:
        curve = SeamedCurve(
            seams=tuple(seams[p] for p in pants_ids),
            parallels=tuple(parallels[p] for p in pants_ids),
            closed=tuple(closed[c] for c in cuffs),
        )
    except KeyError as exc:
        raise PantsError(f"seam data missing counts for {exc}") from exc
    if not validate(curve, pd):
        raise PantsError("seam data fails cuff matching")
    return curve, pd


@functools.cache
def gamma2() -> tuple[SeamedCurve, PantsDecomposition, BustingCertificate]:
    """The built-in 3-seamed, annulus-busting curve on the genus-2 handlebody.

    The shipped data is parsed and checked on the first call only; every
    call returns the same frozen values."""
    curve, pd = load_seam_data(GAMMA2_DATA)
    level = seamed_level(curve, pd)
    if level < 3:
        raise PantsError("built-in gamma_2 data is not 3-seamed")
    cert = BustingCertificate(
        level=level,
        method="seamed",
        annulus_busting=True,
        notes="annulus-busting carried as an axiom (hyperbolic 2-handle attachment)",
    )
    return curve, pd, cert
