"""Certified knot-family catalogs.

A KnotSpec names a knot K(tau, g, *, i): the curve tau = T_alpha^n(kappa)
sits on the boundary of a genus-g handlebody (family H) or of a Seifert
piece with 1-handles (family S), and i counts twists along the annulus
neighborhood of the gamma_g curve.  A Certificate collects everything the
bound engine can certify about that knot, with every uncertified field
carrying an explicit reason instead of a silent default.

Catalogs are deterministic: identical inputs give byte-identical csv/txt
output (schema "knotforge-catalog v1").

A catalog is stored as an n column and an i column: every field of a row
is fixed by n (the twisted curve and what follows from it), by i (the
strong flag and the hitting bounds), or by n and the strong flag (the
bridge bound and the exterior flags).  Rows are the outer product of the
columns, and the renderers format each fragment of a row once per column
entry, not once per row.  An error is a cell: each n entry holds, per
strong flag, its bridge cell or that cell's error message.  A rejected
request has an infinite strong threshold, so its i entries are all weak,
and each n entry's weak cell is the request's error.

Guard lemma: the only Certificate guard that can fail on a catalog row is
the bridge bound against the heuristic upper bound.  tau comes from
`normalize`, so its Seifert data are coprime, and the hyperbolicity-
precondition flags and unique_surgery are all `strong and not exceptional`
(they hold exactly for strong twisting of a non-exceptional tau).

Verdict lemma: the request's own errors read neither n nor i, so a request
either fails on every row with one error or fails on no row.  The KnotSpec
checks read g, family, kappa and alpha, and n_strong fails only on
chi_Q_nu.  The hitting bounds read the constant GAMMA_DISK < 0, so their
_check_chi cannot fail.  Once the request passes, no twist raises (the
lemma in `torus.twist`), the chi defaults are negative, and a weak row
cannot fail: its bridge bound is None, which the guard accepts.  A strong
row fails only through its n's strong cell: the bridge bound's chi check
(its genus check is the KnotSpec's g >= 2) or the bridge guard.  All of
this arithmetic is on exact integers, and every divisor is 36|chi| or
72|chi|, nonzero after _check_chi, so every error is a ValueError.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from types import SimpleNamespace
from typing import NamedTuple

from . import bounds
from .torus import LAMBDA, MU, NU, TorusCurve, dehn_twist, is_exceptional, normalize


class CertificateError(ValueError):
    """A certificate failed its internal consistency guards."""


@dataclass(frozen=True)
class KnotSpec:
    g: int
    family: str  # "H" (handlebody) or "S" (Seifert)
    kappa: TorusCurve
    alpha: TorusCurve
    n: int
    i: int

    def __post_init__(self):
        _check_request(self.g, self.family, self.kappa, self.alpha)


def _check_request(g: int, family: str, kappa: TorusCurve, alpha: TorusCurve) -> None:
    """The checks of a knot spec, none of which reads n or i.  After them no
    twist of kappa along alpha raises (the lemma in `torus.twist`)."""
    if g < 2:
        raise CertificateError("knot specs need g >= 2")
    if family not in ("H", "S"):
        raise CertificateError("family must be 'H' or 'S'")
    for name, curve in (("kappa", kappa), ("alpha", alpha)):
        if gcd(curve.p, curve.q) != 1 or normalize(curve.p, curve.q) != curve:
            raise CertificateError(f"{name} {curve} is not a primitive class in normal form")
    if kappa == alpha:
        raise CertificateError("kappa and alpha must be distinct classes")


@dataclass(frozen=True)
class ExteriorFlags:
    irreducible: bool
    boundary_irreducible: bool
    atoroidal: bool
    anannular: bool

    def all_true(self) -> bool:
        return (
            self.irreducible
            and self.boundary_irreducible
            and self.atoroidal
            and self.anannular
        )


@dataclass(frozen=True)
class Certificate:
    """Certified data for one knot.  Optional fields are None with a
    reason string when not certified; reasons render as "n/a(reason)"."""

    tau: TorusCurve
    exceptional: bool
    seifert: tuple[int, int] | None
    surgery: str
    bridge_lower: Fraction | None
    bridge_lower_reason: str
    bridge_upper_heuristic: int
    hbar_D_lower: int
    hbar_A_lower: int
    strong: bool
    exterior_flags: ExteriorFlags
    unique_surgery: bool

    def __post_init__(self):
        if self.seifert is not None:
            p, q = self.seifert
            if gcd(abs(p), abs(q)) != 1:
                raise CertificateError(f"seifert data {self.seifert} not coprime")
        flags_all = self.exterior_flags.all_true()
        if flags_all and not (self.strong and not self.exceptional):
            raise CertificateError("exterior flags require strong and non-exceptional")
        if self.unique_surgery != flags_all:
            raise CertificateError("unique surgery must track the exterior flags")
        _check_bridge(self.bridge_lower, self.bridge_upper_heuristic)


def _check_bridge(bridge_lower: Fraction | None, bridge_upper_heuristic: int) -> None:
    if bridge_lower is not None and bridge_lower > bridge_upper_heuristic:
        raise CertificateError(
            f"bridge lower bound {bridge_lower} exceeds the"
            f" heuristic upper bound {bridge_upper_heuristic}"
        )


def bridge_upper_heuristic(tau: TorusCurve) -> int:
    """|p| + |q|: maxima of the standard bridge presentation of tau in a
    collar of the splitting surface.  A presentation heuristic, not a
    certified bound; rendered with a heuristic marker."""
    return abs(tau.p) + abs(tau.q)


# ---------------------------------------------------------------------------
# Column helpers: generate_family runs each once per column entry, and
# build_certificate is their one-cell case.
# ---------------------------------------------------------------------------


def _default_chis(
    kappa: TorusCurve,
    alpha: TorusCurve,
    chi_Q_bridge: int | None,
    chi_Q_nu: int | None,
) -> tuple[int | None, int]:
    """(chi_Q_bridge, chi_Q_nu) with build_certificate's defaults filled in;
    chi_Q_bridge stays None when alpha is not the (1,1) class."""
    nu_chi = bounds.catching_chi(bounds.nu_recipe(kappa))
    if chi_Q_bridge is None and alpha == NU:
        chi_Q_bridge = nu_chi
    if chi_Q_nu is None:
        chi_Q_nu = nu_chi
    return chi_Q_bridge, chi_Q_nu


class _Twisted(NamedTuple):
    """The certificate fields fixed by n."""

    tau: TorusCurve
    exceptional: bool
    seifert: tuple[int, int] | None
    surgery: str
    bridge_upper_heuristic: int

    def flags_all(self, strong: bool) -> bool:
        """Each exterior flag, and unique_surgery, of a row with this strong
        flag (see the guard lemma)."""
        return strong and not self.exceptional


def _twisted(g: int, family: str, kappa: TorusCurve, alpha: TorusCurve, n: int) -> _Twisted:
    tau = dehn_twist(kappa, alpha, n)
    if family == "S":
        seifert = (tau.p, tau.q)
        surgery = f"D({tau.p},{tau.q})-Seifert + {g - 1} 1-handles"
    else:
        seifert = None
        surgery = "handlebody"
    return _Twisted(tau, is_exceptional(tau), seifert, surgery, bridge_upper_heuristic(tau))


def _cell(
    fields: _Twisted, g: int, alpha: TorusCurve, n: int, strong: bool, chi_Q_bridge: int | None
) -> tuple[Fraction | None, str]:
    """(bridge_lower, bridge_lower_reason) of n's rows whose i has this
    strong flag, after the bridge guard, the one Certificate guard that can
    fail on those rows (the guard lemma in the module docstring).  Raises
    the bridge bound's or the guard's error."""
    bridge_lower = None
    reason = ""
    if not strong:
        reason = "needs |i| above the strong threshold"
    elif alpha in (MU, LAMBDA):
        reason = "alpha must miss the product-disk classes"
    elif chi_Q_bridge is None:
        reason = "not i-uniform; supply a catching chi"
    else:
        bridge_lower = bounds.bridge_lower_bound(n, chi_Q_bridge, g)
    _check_bridge(bridge_lower, fields.bridge_upper_heuristic)
    return bridge_lower, reason


class _NEntry(NamedTuple):
    """What the rows of one n share: the fields fixed by n (None when the
    request is rejected) and `cells[strong]` (from _cell, or an error
    message) for each strong flag of the i column."""

    n: int
    fields: _Twisted | None
    cells: tuple


class _IEntry(NamedTuple):
    """What the rows of one i share: the strong flag and the hitting bounds
    of the gamma_g curve's catching disk."""

    i: int
    strong: bool
    hbar_D_lower: int
    hbar_A_lower: int


def _i_entry(i: int, threshold: float) -> _IEntry:
    return _IEntry(
        i,
        abs(i) > threshold,
        bounds.disk_hitting_lower_bound(i, bounds.GAMMA_DISK),
        bounds.annulus_hitting_lower_bound(i, bounds.GAMMA_DISK),
    )


def _certificate(
    fields: _Twisted, cell: tuple[Fraction | None, str], i_entry: _IEntry
) -> Certificate:
    flags_all = fields.flags_all(i_entry.strong)
    bridge_lower, reason = cell
    return Certificate(
        **fields._asdict(),
        bridge_lower=bridge_lower,
        bridge_lower_reason=reason,
        hbar_D_lower=i_entry.hbar_D_lower,
        hbar_A_lower=i_entry.hbar_A_lower,
        strong=i_entry.strong,
        exterior_flags=ExteriorFlags(flags_all, flags_all, flags_all, flags_all),
        unique_surgery=flags_all,
    )


def build_certificate(
    spec: KnotSpec,
    chi_Q_bridge: int | None = None,
    chi_Q_nu: int | None = None,
) -> Certificate:
    """Assemble the certificate for one knot spec.

    The hitting bounds use the tubed meridian disk caught by the gamma_g
    curve, chi = GAMMA_DISK = -6; chi_Q_nu (the strong threshold) defaults
    to the 3-punctured-sphere recipe for spec.kappa; chi_Q_bridge defaults
    to the same recipe when alpha is the (1,1) class and is otherwise
    required explicitly (the catching surface depends on i there).

    This is the one-cell catalog: the column helpers of generate_family,
    with the first error raised instead of recorded.
    """
    chi_Q_bridge, chi_Q_nu = _default_chis(spec.kappa, spec.alpha, chi_Q_bridge, chi_Q_nu)
    fields = _twisted(spec.g, spec.family, spec.kappa, spec.alpha, spec.n)
    i_entry = _i_entry(spec.i, bounds.n_strong(chi_Q_nu))
    cell = _cell(fields, spec.g, spec.alpha, spec.n, i_entry.strong, chi_Q_bridge)
    return _certificate(fields, cell, i_entry)


@dataclass(frozen=True)
class CatalogRow:
    n: int
    i: int
    certificate: Certificate | None
    error: str = ""


@dataclass(frozen=True)
class Catalog:
    """A family catalog held as its n column and its i column; its rows
    are their outer product, sorted by n, then i.  A row whose n entry's
    cell for its strong flag is a message is an error row; a rejected
    request makes every row one (the column model in the module
    docstring)."""

    g: int
    family: str
    kappa: TorusCurve
    alpha: TorusCurve
    statements: tuple[str, ...]
    n_column: tuple[_NEntry, ...]
    i_column: tuple[_IEntry, ...]

    @property
    def rows(self) -> tuple[CatalogRow, ...]:
        """The rows, built from the columns on every access."""
        return tuple(
            CatalogRow(n_entry.n, i_entry.i, None, error=cell)
            if isinstance(cell, str)
            else CatalogRow(n_entry.n, i_entry.i, _certificate(n_entry.fields, cell, i_entry))
            for n_entry in self.n_column
            for i_entry in self.i_column
            for cell in (n_entry.cells[i_entry.strong],)
        )

    @property
    def errored(self) -> bool:
        """Some n's cell is an error message (cells exist only for the strong
        flags of rows)."""
        return any(isinstance(cell, str) for n_entry in self.n_column for cell in n_entry.cells)


def _n_entry(
    g: int,
    family: str,
    kappa: TorusCurve,
    alpha: TorusCurve,
    n: int,
    rows: int,
    strongs: set[bool],
    chi_Q_bridge: int | None,
) -> _NEntry:
    fields = _twisted(g, family, kappa, alpha, n)
    # One twist per row: perfbench/test_perfbench.py::test_smoke_traced_run pins it.
    for _ in range(rows - 1):
        dehn_twist(kappa, alpha, n)
    cells: list = [None, None]
    for strong in strongs:
        try:
            cells[strong] = _cell(fields, g, alpha, n, strong, chi_Q_bridge)
        except ValueError as exc:
            cells[strong] = str(exc)
    return _NEntry(n, fields, tuple(cells))


def generate_family(
    g: int,
    family: str,
    kappa: TorusCurve,
    alpha: TorusCurve,
    n_range,
    i_range,
    chi_Q_bridge: int | None = None,
    chi_Q_nu: int | None = None,
) -> Catalog:
    """One certificate row per (n, i), sorted lexicographically; failed
    rows carry their error message and are never dropped.

    The request (KnotSpec checks, chi defaults, n_strong) is checked once.
    By the verdict lemma in the module docstring, a rejected request gives
    every row its one error, as the weak cell of every n entry, and twists
    nothing; a request rejected by the KnotSpec checks also makes no
    statement.  Each i is computed once, and an accepted request computes
    each n once and runs the bridge bound and guard once per (n, strong)
    pair that has rows.
    """
    n_values = sorted(set(n_range))
    i_values = sorted(set(i_range))
    if not i_values:  # no rows, so nothing to twist
        n_values = []
    statements = ()
    try:
        _check_request(g, family, kappa, alpha)
        if alpha not in (MU, LAMBDA):
            statements = ("distinctness: hbar_D lower bound unbounded in |i|",)
        chi_Q_bridge, chi_Q_nu = _default_chis(kappa, alpha, chi_Q_bridge, chi_Q_nu)
        threshold = bounds.n_strong(chi_Q_nu)
    except ValueError as exc:
        # every i is weak, so every row reads its n's weak cell: the error
        threshold = math.inf
        n_column = tuple(_NEntry(n, None, (str(exc), None)) for n in n_values)
    else:
        strongs = {abs(i) > threshold for i in i_values}
        n_column = tuple(
            _n_entry(g, family, kappa, alpha, n, len(i_values), strongs, chi_Q_bridge)
            for n in n_values
        )
    i_column = tuple(_i_entry(i, threshold) for i in i_values)
    return Catalog(g, family, kappa, alpha, statements, n_column, i_column)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

SCHEMA = "knotforge-catalog v1"

_COLUMNS = (
    "n",
    "i",
    "tau",
    "exceptional",
    "seifert",
    "surgery",
    "bridge_lower",
    "bridge_upper_heuristic",
    "hbar_D_lower",
    "hbar_A_lower",
    "strong",
    "irreducible",
    "boundary_irreducible",
    "atoroidal",
    "anannular",
    "unique_surgery",
    "error",
)
# A certified row reads _COLUMNS[_HBAR:_TAIL] from its i entry, the columns
# before from its n entry and cell, and those from _TAIL on from its strong
# flag and exterior flags.
_HBAR, _TAIL = 8, 10


def _na(reason: str) -> str:
    return f"n/a({reason})"


def _row_texts(catalog: Catalog, format_values, sep: str) -> Iterator[str]:
    """Each row's line: fragments joined by sep, where format_values(start,
    values) formats values of _COLUMNS[start:].  The three tails (strong
    flag, exterior flags, unique_surgery and an empty error) and each n
    entry, i entry and cell, error cells included, are formatted once."""
    na = [_na("row error")] * (len(_COLUMNS) - 3)
    # flags_all implies strong, so no tail has strong false and flags true
    tails = {}
    for strong, flags in ((False, False), (True, False), (True, True)):
        values = (str(strong).lower(), *[str(flags).lower()] * 5, "")
        tails[strong, flags] = f"{sep}{format_values(_TAIL, values)}\n"
    i_parts = [
        (
            e.strong,
            f"{sep}{format_values(1, (str(e.i),))}",
            format_values(_HBAR, (str(e.hbar_D_lower), str(e.hbar_A_lower))),
        )
        for e in catalog.i_column
    ]
    for n_entry in catalog.n_column:
        head = format_values(0, (str(n_entry.n),))
        # per strong flag: the line after i, or the parts around the hbar fragment
        rests: list = [None, None]
        f = n_entry.fields
        for strong, cell in zip((False, True), n_entry.cells):
            if isinstance(cell, str):  # an errored row's line after its i
                rests[strong] = f"{sep}{format_values(2, (*na, cell))}\n"
            elif cell is not None:
                bridge_lower, reason = cell
                mid = format_values(
                    2,
                    (
                        str(f.tau),
                        str(f.exceptional).lower(),
                        f"({f.seifert[0]},{f.seifert[1]})" if f.seifert else _na("handlebody family"),
                        f.surgery,
                        str(bridge_lower) if bridge_lower is not None else _na(reason),
                        f"{f.bridge_upper_heuristic} (heuristic)",
                    ),
                )
                rests[strong] = (f"{sep}{mid}{sep}", tails[strong, f.flags_all(strong)])
        for strong, i_text, hbar in i_parts:
            rest = rests[strong]
            if isinstance(rest, str):
                yield f"{head}{i_text}{rest}"
            else:
                yield f"{head}{i_text}{rest[0]}{hbar}{rest[1]}"


def _txt_values(start: int, values: tuple[str, ...]) -> str:
    return " ".join(
        f"{name}={value}" for name, value in zip(_COLUMNS[start:], values) if value != ""
    )


def render_csv(catalog: Catalog) -> str:
    # writerow returns what write returns: here, the formatted line
    writer = csv.writer(SimpleNamespace(write=lambda line: line), lineterminator="\n")
    header = [
        [SCHEMA],
        [
            f"g={catalog.g}",
            f"family={catalog.family}",
            f"kappa={catalog.kappa}",
            f"alpha={catalog.alpha}",
        ],
        *(["statement", s] for s in catalog.statements),
        _COLUMNS,
    ]
    rows = _row_texts(catalog, lambda start, values: writer.writerow(values)[:-1], ",")
    return "".join(chain(map(writer.writerow, header), rows))


def render_txt(catalog: Catalog) -> str:
    header = [
        SCHEMA,
        f"g={catalog.g} family={catalog.family}"
        f" kappa={catalog.kappa} alpha={catalog.alpha}",
        *(f"statement: {s}" for s in catalog.statements),
    ]
    rows = _row_texts(catalog, _txt_values, " ")
    return "".join(chain((f"{line}\n" for line in header), rows))
