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
entry, not once per row.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from types import SimpleNamespace
from typing import NamedTuple

from . import bounds
from .torus import LAMBDA, MU, NU, TorusCurve, dehn_twist, is_exceptional


class CertificateError(ValueError):
    """A certificate failed its internal consistency guards."""


class NonPrimitiveBase(ValueError):
    """Seifert base coordinates must be coprime."""


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
    """The checks of a knot spec, none of which reads n or i."""
    if g < 2:
        raise CertificateError("knot specs need g >= 2")
    if family not in ("H", "S"):
        raise CertificateError("family must be 'H' or 'S'")
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
        _check_certificate(
            self.seifert,
            self.exceptional,
            self.strong,
            self.exterior_flags.all_true(),
            self.unique_surgery,
            self.bridge_lower,
            self.bridge_upper_heuristic,
        )


def _check_certificate(
    seifert: tuple[int, int] | None,
    exceptional: bool,
    strong: bool,
    flags_all: bool,
    unique_surgery: bool,
    bridge_lower: Fraction | None,
    bridge_upper_heuristic: int,
) -> None:
    """The Certificate guards; none reads a hitting bound or i itself."""
    if seifert is not None:
        p, q = seifert
        if gcd(abs(p), abs(q)) != 1:
            raise CertificateError(f"seifert data {seifert} not coprime")
    if flags_all and not (strong and not exceptional):
        raise CertificateError("exterior flags require strong and non-exceptional")
    if unique_surgery != flags_all:
        raise CertificateError("unique surgery must track the exterior flags")
    if bridge_lower is not None and bridge_lower > bridge_upper_heuristic:
        raise CertificateError(
            f"bridge lower bound {bridge_lower} exceeds the"
            f" heuristic upper bound {bridge_upper_heuristic}"
        )


def seifert_invariants(r: int, s: int, n: int) -> tuple[int, int]:
    """Exceptional-fiber orders after n annulus twists:
    ((n+1)r - ns, nr - (n-1)s)."""
    if gcd(abs(r), abs(s)) != 1:
        raise NonPrimitiveBase(f"({r}, {s}) is not primitive")
    return ((n + 1) * r - n * s, n * r - (n - 1) * s)


def bridge_upper_heuristic(tau: TorusCurve) -> int:
    """|p| + |q|: maxima of the standard bridge presentation of tau in a
    collar of the splitting surface.  A presentation heuristic, not a
    certified bound; rendered with a heuristic marker."""
    return abs(tau.p) + abs(tau.q)






# ---------------------------------------------------------------------------
# Column helpers: generate_family runs each once per column entry, and
# build_certificate is their one-cell case.
# ---------------------------------------------------------------------------

_ROW_ERRORS = (ValueError, ArithmeticError)


def _default_chis(
    kappa: TorusCurve,
    alpha: TorusCurve,
    chi_Q_bridge: int | None,
    chi_Q_nu: int | None,
    chi_Q_hit: int | None,
) -> tuple[int | None, int, int]:
    """(chi_Q_bridge, chi_Q_nu, chi_Q_hit) with build_certificate's defaults
    filled in; chi_Q_bridge stays None when alpha is not the (1,1) class."""
    nu_chi = bounds.catching_chi(bounds.nu_recipe(kappa))
    if chi_Q_bridge is None and alpha == NU:
        chi_Q_bridge = nu_chi
    if chi_Q_nu is None:
        chi_Q_nu = nu_chi
    if chi_Q_hit is None:
        chi_Q_hit = bounds.GAMMA_DISK
    return chi_Q_bridge, chi_Q_nu, chi_Q_hit


class _Twisted(NamedTuple):
    """The certificate fields fixed by n."""

    tau: TorusCurve
    exceptional: bool
    seifert: tuple[int, int] | None
    surgery: str
    bridge_upper_heuristic: int

    def flags_all(self, strong: bool) -> bool:
        """Each exterior flag, and unique_surgery, of a row with this strong
        flag: the flags hold exactly for strong twisting of a
        non-exceptional curve."""
        return strong and not self.exceptional


def _twisted(g: int, family: str, kappa: TorusCurve, alpha: TorusCurve, n: int) -> _Twisted:
    """Raises the twist's error."""
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
    strong flag, after the Certificate guards on those rows.  Raises the
    bridge bound's or a guard's error."""
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
    flags_all = fields.flags_all(strong)
    _check_certificate(
        fields.seifert,
        fields.exceptional,
        strong,
        flags_all,
        flags_all,
        bridge_lower,
        fields.bridge_upper_heuristic,
    )
    return bridge_lower, reason


class _NEntry(NamedTuple):
    """What the rows of one n share: the fields fixed by n and `cells[strong]`
    (from _cell, or that cell's error message) for each strong flag that
    some error-free i entry has; or the KnotSpec or twist error of every
    row."""

    n: int
    fields: _Twisted | None = None
    cells: tuple = (None, None)
    error: str | None = None


class _IEntry(NamedTuple):
    """What the rows of one i share: the strong flag and the hitting bounds,
    or the KnotSpec, n_strong or hitting-bound error of every row."""

    i: int
    strong: bool = False
    hbar_D_lower: int = 0
    hbar_A_lower: int = 0
    error: str | None = None


def _i_entry(i: int, threshold: int, chi_Q_hit: int) -> _IEntry:
    """Raises the hitting bounds' error."""
    return _IEntry(
        i,
        abs(i) > threshold,
        bounds.disk_hitting_lower_bound(i, chi_Q_hit),
        bounds.annulus_hitting_lower_bound(i, chi_Q_hit),
    )


def _row_cell(n_entry: _NEntry, i_entry: _IEntry) -> tuple[Fraction | None, str] | str:
    """The row's cell, or its error message: the first error in the order
    KnotSpec, twist, n_strong, hitting bounds, bridge bound, guards."""
    if n_entry.error is not None:
        return n_entry.error
    if i_entry.error is not None:
        return i_entry.error
    return n_entry.cells[i_entry.strong]


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
    chi_Q_hit: int | None = None,
) -> Certificate:
    """Assemble the certificate for one knot spec.

    chi_Q_hit (hitting bounds) defaults to the tubed-meridian-disk value
    GAMMA_DISK; chi_Q_nu (the strong threshold) defaults to the
    3-punctured-sphere recipe for spec.kappa; chi_Q_bridge defaults to the
    same recipe when alpha is the (1,1) class and is otherwise required
    explicitly (the catching surface depends on i there).

    This is the one-cell catalog: the column helpers of generate_family,
    with the first error raised instead of recorded.
    """
    chi_Q_bridge, chi_Q_nu, chi_Q_hit = _default_chis(
        spec.kappa, spec.alpha, chi_Q_bridge, chi_Q_nu, chi_Q_hit
    )
    fields = _twisted(spec.g, spec.family, spec.kappa, spec.alpha, spec.n)
    i_entry = _i_entry(spec.i, bounds.n_strong(chi_Q_nu), chi_Q_hit)
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
    are their outer product, sorted by n, then i."""

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
            for cell in (_row_cell(n_entry, i_entry),)
        )

    @property
    def errored(self) -> bool:
        # i entries with the same error and strong flag give the same cells
        kinds = {(e.error, e.strong): e for e in self.i_column}.values()
        return any(
            isinstance(cell, str) and cell != ""
            for n_entry in self.n_column
            for cell in (_row_cell(n_entry, i_entry) for i_entry in kinds)
        )


def _i_column(i_values: list, chi_Q_nu: int, chi_Q_hit: int) -> tuple[_IEntry, ...]:
    try:
        threshold = bounds.n_strong(chi_Q_nu)
    except _ROW_ERRORS as exc:
        return tuple(_IEntry(i, error=str(exc)) for i in i_values)
    column = []
    for i in i_values:
        try:
            column.append(_i_entry(i, threshold, chi_Q_hit))
        except _ROW_ERRORS as exc:
            column.append(_IEntry(i, error=str(exc)))
    return tuple(column)


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
    try:
        fields = _twisted(g, family, kappa, alpha, n)
    except _ROW_ERRORS as exc:
        return _NEntry(n, error=str(exc))
    # One twist per row: perfbench/test_perfbench.py::test_smoke_traced_run pins it.
    for _ in range(rows - 1):
        dehn_twist(kappa, alpha, n)
    cells: list = [None, None]
    for strong in strongs:
        try:
            cells[strong] = _cell(fields, g, alpha, n, strong, chi_Q_bridge)
        except _ROW_ERRORS as exc:
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
    chi_Q_hit: int | None = None,
) -> Catalog:
    """One certificate row per (n, i), sorted lexicographically; failed
    rows carry their error message and are never dropped.

    The request (KnotSpec checks, chi defaults, n_strong) is checked once,
    each n and each i once, and the Certificate guards run once per
    (n, strong) pair that has rows.
    """
    n_values = sorted(set(n_range))
    i_values = sorted(set(i_range))
    if not i_values:  # no rows, so nothing to twist
        n_values = []
    statements = ()
    if alpha not in (MU, LAMBDA):
        statements = ("distinctness: hbar_D lower bound unbounded in |i|",)
    try:
        _check_request(g, family, kappa, alpha)
    except CertificateError as exc:
        return Catalog(
            g,
            family,
            kappa,
            alpha,
            statements,
            tuple(_NEntry(n, error=str(exc)) for n in n_values),
            tuple(_IEntry(i, error=str(exc)) for i in i_values),
        )
    chi_Q_bridge, chi_Q_nu, chi_Q_hit = _default_chis(
        kappa, alpha, chi_Q_bridge, chi_Q_nu, chi_Q_hit
    )
    i_column = _i_column(i_values, chi_Q_nu, chi_Q_hit)
    strongs = {e.strong for e in i_column if e.error is None}
    n_column = tuple(
        _n_entry(g, family, kappa, alpha, n, len(i_values), strongs, chi_Q_bridge)
        for n in n_values
    )
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
    values) formats values of _COLUMNS[start:].  Each n entry, i entry and
    cell formats its own fragments once; tails and error fragments, shared
    across entries, are formatted once per distinct value."""
    shared: dict[tuple, str] = {}

    def shared_fragment(start: int, *values: str) -> str:
        key = (start, *values)
        if key not in shared:
            shared[key] = format_values(start, values)
        return shared[key]

    na = [_na("row error")] * (len(_COLUMNS) - 3)
    i_parts = [
        (
            e,
            format_values(1, (str(e.i),)),
            format_values(_HBAR, (str(e.hbar_D_lower), str(e.hbar_A_lower))),
        )
        for e in catalog.i_column
    ]
    for n_entry in catalog.n_column:
        head = format_values(0, (str(n_entry.n),))
        f = n_entry.fields
        around_hbar = [None, None]
        for strong, cell in zip((False, True), n_entry.cells):
            if not isinstance(cell, tuple):
                continue
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
            # the four exterior flags and unique_surgery, then an empty error
            flags = str(f.flags_all(strong)).lower()
            tail = shared_fragment(_TAIL, str(strong).lower(), *[flags] * 5, "")
            around_hbar[strong] = (f"{sep}{mid}{sep}", f"{sep}{tail}\n")
        for i_entry, i_text, hbar in i_parts:
            cell = _row_cell(n_entry, i_entry)
            if isinstance(cell, str):
                yield f"{head}{sep}{i_text}{sep}{shared_fragment(2, *na, cell)}\n"
            else:
                before, after = around_hbar[i_entry.strong]
                yield f"{head}{sep}{i_text}{before}{hbar}{after}"


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
