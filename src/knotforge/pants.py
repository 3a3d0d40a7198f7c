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

Lines may appear in any order after the header.  Unknown keys, a second
genus or compatible line, a second line of another key for one id, and a
count line for an undeclared id are rejected.
"""

from __future__ import annotations

from typing import NamedTuple


class PantsError(ValueError):
    """Base class for malformed pants/seam data."""


class ShapeMismatch(PantsError):
    """Curve data does not match the shape of the decomposition."""


class IncompatibleDecomposition(PantsError):
    """The seamed criterion needs every cuff to bound a disk."""


class _Decomposition(NamedTuple):
    genus: int
    cuffs: tuple[str, ...]
    pants: tuple[tuple[str, str, str], ...]
    compatible: bool


class PantsDecomposition(_Decomposition):
    """Cuff ids and the three cuffs of each pants, equal to the plain tuple
    (genus, cuffs, pants, compatible).  The constructor checks the shape
    (3g-3 cuffs, 2g-2 pants, two pants-sides per cuff), and so do _make
    and _replace, which build through it."""

    __slots__ = ()

    def __new__(cls, genus, cuffs, pants, compatible):
        if genus < 2:
            raise PantsError("pants decompositions need genus >= 2")
        if len(cuffs) != 3 * genus - 3:
            raise PantsError(f"expected {3 * genus - 3} cuffs, got {len(cuffs)}")
        if len(pants) != 2 * genus - 2:
            raise PantsError(f"expected {2 * genus - 2} pants, got {len(pants)}")
        sides: dict[str, int] = {c: 0 for c in cuffs}
        for trip in pants:
            for c in trip:
                if c not in sides:
                    raise PantsError(f"unknown cuff {c!r}")
                sides[c] += 1
        bad = [c for c, k in sides.items() if k != 2]
        if bad:
            raise PantsError(f"cuffs without exactly two pants-sides: {bad}")
        return super().__new__(cls, genus, cuffs, pants, compatible)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# Seam class -> the two side indices it joins.
SEAM_SIDES = ((0, 1), (1, 2), (0, 2))


class SeamedCurve(NamedTuple):
    """Per-pants arc counts plus closed components per cuff, equal to the
    plain tuple (seams, parallels, closed); validate checks the shape.

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


# ---------------------------------------------------------------------------
# The built-in gamma_2 curve on the genus-2 handlebody.
#
# Transcribed from the defining picture: both pants see seam classes
# (4, 4, 3); the curve meets the middle cuff 8 times (four bands from one
# side), and is 3-seamed with minimum exactly 3.  gamma2() states its two
# axioms.
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
    count, a `compatible` value other than true or false, a repeated line
    as the module docstring defines it, a count for an undeclared id)
    raises PantsError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "seamcurve v1":
        raise PantsError("missing or unsupported seamcurve header")
    genus = None
    compatible = None
    cuffs: list[str] = []
    pants_sides: dict[str, tuple[str, str, str]] = {}  # in line order
    seams: dict[str, tuple[int, int, int]] = {}
    parallels: dict[str, tuple[int, int, int]] = {}
    closed: dict[str, int] = {}
    seen: set[str] = set()
    for ln in lines[1:]:
        key, *fields = ln.split()
        if key not in _SEAM_FIELDS:
            raise PantsError(f"unknown key {key!r} in seam data")
        if len(fields) != _SEAM_FIELDS[key]:
            raise PantsError(
                f"{key!r} line needs {_SEAM_FIELDS[key]} fields, got {ln.strip()!r}"
            )
        what = key if key in ("genus", "compatible") else f"{key} {fields[0]}"
        if what in seen:
            raise PantsError(f"seam data repeats {what!r}: {ln.strip()!r}")
        seen.add(what)
        if key == "genus":
            genus = _seam_int(fields[0], ln)
        elif key == "compatible":
            if fields[0] not in ("true", "false"):
                raise PantsError(f"compatible must be true or false, got {fields[0]!r}")
            compatible = fields[0] == "true"
        elif key == "cuff":
            cuffs.append(fields[0])
        elif key == "pants":
            pants_sides[fields[0]] = tuple(fields[1:])
        elif key == "seams":
            seams[fields[0]] = tuple(_seam_int(t, ln) for t in fields[1:])
        elif key == "parallels":
            parallels[fields[0]] = tuple(_seam_int(t, ln) for t in fields[1:])
        else:
            closed[fields[0]] = _seam_int(fields[1], ln)
    if genus is None or compatible is None:
        raise PantsError("seam data missing genus or compatible line")
    undeclared = sorted((seams.keys() | parallels.keys()) - pants_sides.keys())
    undeclared += sorted(closed.keys() - set(cuffs))
    if undeclared:
        raise PantsError(f"seam data counts undeclared ids {undeclared}")
    pd = PantsDecomposition(
        genus=genus,
        cuffs=tuple(cuffs),
        pants=tuple(pants_sides.values()),
        compatible=compatible,
    )
    try:
        curve = SeamedCurve(
            seams=tuple(seams[p] for p in pants_sides),
            parallels=tuple(parallels[p] for p in pants_sides),
            closed=tuple(closed[c] for c in cuffs),
        )
    except KeyError as exc:
        raise PantsError(f"seam data missing counts for {exc}") from exc
    if not validate(curve, pd):
        raise PantsError("seam data fails cuff matching")
    return curve, pd


def gamma2() -> tuple[SeamedCurve, PantsDecomposition]:
    """The built-in 3-seamed, annulus-busting curve on the genus-2 handlebody.

    Its seamed level (at least 3) is checked.  Two facts are axioms, not
    recomputed:
    * annulus-busting: the attached 2-handle gives a hyperbolic knot
      exterior;
    * algebraic count 1: the curve meets the disk that cuff c0 bounds
      7 times (side_endpoints(0, 0)) but algebraically once, so 6 of the
      meets pair off into 3 tube pairs and one remains a puncture.
      bounds.GAMMA_DISK = catching_chi(1, 3, 1) reads this, and
      tests/test_bounds.py::TestRecipes::test_gamma_disk_from_shipped_gamma2_data
      derives GAMMA_DISK from the 7 meets.
    Each call parses and checks the shipped data; the plumbing module calls
    it once, at import."""
    curve, pd = load_seam_data(GAMMA2_DATA)
    if seamed_level(curve, pd) < 3:
        raise PantsError("built-in gamma_2 data is not 3-seamed")
    return curve, pd
