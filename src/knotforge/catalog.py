"""Certified knot-family catalogs.

A family request names the knots K(tau, g; i): the curve
tau = T_alpha^n(kappa) sits on the boundary of a genus-g handlebody
(family H) or of a Seifert piece with 1-handles (family S), and i counts
twists along the annulus neighborhood of the gamma_g curve.
`generate_family` certifies one knot per (n, i) of its grid; one knot is
the 1x1 catalog `generate_family(g, family, kappa, alpha, [n], [i])`, whose
one rendered row holds its certificate or its error message.  A
certificate collects everything the bound engine can certify about its
knot, with every uncertified field carrying an explicit reason instead of
a silent default.

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

Quoting lemma: csv output is `csv.QUOTE_MINIMAL` (RFC 4180 section 2),
which quotes a field exactly when it contains `,`, `"`, `\r` or `\n`.
The fields of fixed shape are n, i, the hbar_D_lower/hbar_A_lower pair and
the fields fixed by n and the cell: tau, exceptional, seifert, surgery,
bridge_lower and the heuristic.  Among them only the curve texts `(p,q)`
(tau, and the S family's seifert) and the S family's surgery text contain
such a character; each contains a comma and never a quote or a line
break.  So those fields are always quoted and no other is, and none is
empty (txt drops empty fields).  Each fixed-shape fragment of a row is
therefore one format string per schema, and `csv.writer` formats only text
whose shape is not fixed: the header, the three tails and the error cells,
which carry arbitrary exception text.

Row lemma: every certified row that the renderers emit already holds
what a per-row guard would check, so no such guard runs.  tau comes from
`normalize`, so its Seifert data are coprime.  The four exterior flag
columns are equal, and they and unique_surgery all read `strong and not
exceptional` (the hyperbolicity preconditions hold exactly for strong
twisting of a non-exceptional tau); this is why `_row_texts` has exactly
three tails.  The bridge lower bound is at most the heuristic upper bound:
`_cell` checks that once per (n, strong) cell, and a cell that fails it is
an error cell, which certifies no row.  That bridge guard is an integer
cross-multiplication: a bound a/b (b > 0) fails a heuristic h exactly
when a > h*b.

Verdict lemma: the request's own errors read neither n nor i, so a request
either fails on every row with one error or fails on no row.  The request
check (_check_request) reads g, family, kappa and alpha, and n_strong fails
only on chi_Q_nu.  The hitting bounds read the constant GAMMA_DISK < 0, so
their _check_chi cannot fail.  Once the request passes, no twist raises
(the lemma in `torus.dehn_twist`), the chi defaults are negative, and a
weak row cannot fail: it has no bridge bound, so no bridge guard runs.  A
strong row fails only through its n's strong cell: the bridge bound's chi
check (its genus check is the request check's g >= 2) or the bridge guard.
All of this arithmetic is on exact integers, and every divisor is 36|chi|
or 72|chi|, nonzero after _check_chi, so every error is a ValueError.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain
from math import gcd
from types import SimpleNamespace
from typing import NamedTuple

from . import bounds
from .torus import LAMBDA, MU, NU, TorusCurve, dehn_twist, is_exceptional, normalize


class CertificateError(ValueError):
    """A request check or the bridge guard failed."""


def _check_request(g: int, family: str, kappa: TorusCurve, alpha: TorusCurve) -> None:
    """The checks of a request, none of which reads n or i.  After them no
    twist of kappa along alpha raises (the lemma in `torus.dehn_twist`).
    Their messages are catalog bytes, so each keeps its wording."""
    if g < 2:
        raise CertificateError("knot specs need g >= 2")
    if family not in ("H", "S"):
        raise CertificateError("family must be 'H' or 'S'")
    for name, curve in (("kappa", kappa), ("alpha", alpha)):
        if gcd(curve.p, curve.q) != 1 or normalize(curve.p, curve.q) != curve:
            raise CertificateError(f"{name} {curve} is not a primitive class in normal form")
    if kappa == alpha:
        raise CertificateError("kappa and alpha must be distinct classes")


def bridge_upper_heuristic(tau: TorusCurve) -> int:
    """|p| + |q|: maxima of the standard bridge presentation of tau in a
    collar of the splitting surface.  A presentation heuristic, not a
    certified bound; rendered with a heuristic marker."""
    return abs(tau.p) + abs(tau.q)


# ---------------------------------------------------------------------------
# Column helpers: generate_family runs each once per column entry.
# ---------------------------------------------------------------------------


def _cell(
    heuristic: int, g: int, alpha: TorusCurve, n: int, strong: bool, chi_Q_bridge: int | None
) -> tuple[Fraction | None, str]:
    """(bridge_lower, bridge_lower_reason) of n's rows whose i has this
    strong flag, after the bridge guard (the row lemma in the module
    docstring).  Raises the bridge bound's or the guard's error."""
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
        if bridge_lower.numerator > heuristic * bridge_lower.denominator:
            raise CertificateError(
                f"bridge lower bound {bridge_lower} exceeds the"
                f" heuristic upper bound {heuristic}"
            )
    return bridge_lower, reason


class _NEntry(NamedTuple):
    """What the rows of one n share: the certificate fields fixed by n
    (None when the request is rejected) and `cells[strong]` (from _cell, or
    an error message) for each strong flag of the i column."""

    n: int
    tau: TorusCurve | None
    exceptional: bool | None
    heuristic: int | None
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


class Catalog(NamedTuple):
    """A family catalog held as its n column and its i column; the
    renderers emit its rows, their outer product, sorted by n, then i.  A
    row whose n entry's cell for its strong flag is a message is an error
    row; a rejected request makes every row one (the column model in the
    module docstring)."""

    g: int
    family: str
    kappa: TorusCurve
    alpha: TorusCurve
    statements: tuple[str, ...]
    n_column: tuple[_NEntry, ...]
    i_column: tuple[_IEntry, ...]

    @property
    def errored(self) -> bool:
        """Some n's cell is an error message (cells exist only for the strong
        flags of rows)."""
        return any(isinstance(cell, str) for n_entry in self.n_column for cell in n_entry.cells)


def _n_entry(
    g: int,
    kappa: TorusCurve,
    alpha: TorusCurve,
    n: int,
    rows: int,
    strongs: set[bool],
    chi_Q_bridge: int | None,
) -> _NEntry:
    tau = dehn_twist(kappa, alpha, n)
    heuristic = bridge_upper_heuristic(tau)
    # One twist per row: perfbench/test_perfbench.py::test_smoke_traced_run pins it.
    for _ in range(rows - 1):
        dehn_twist(kappa, alpha, n)
    cells: list = [None, None]
    for strong in strongs:
        try:
            cells[strong] = _cell(heuristic, g, alpha, n, strong, chi_Q_bridge)
        except ValueError as exc:
            cells[strong] = str(exc)
    return _NEntry(n, tau, is_exceptional(tau), heuristic, tuple(cells))


def _sorted_values(values):
    """The distinct values in increasing order.  A range with a positive
    step (what cli.parse_range returns for 'a:b[:step]') already is that,
    so it is kept as given and never turned into a set or a list."""
    if type(values) is range and values.step > 0:
        return values
    return sorted(set(values))


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
    rows carry their error message and are never dropped.  One knot is the
    1x1 catalog: `generate_family(g, family, kappa, alpha, [n], [i])`.

    The hitting bounds use the tubed meridian disk caught by the gamma_g
    curve, chi = GAMMA_DISK = -6; chi_Q_nu (the strong threshold) defaults
    to the 3-punctured sphere's chi, bounds.nu_chi(kappa); chi_Q_bridge
    defaults to the same chi when alpha is the (1,1) class and is otherwise
    required explicitly (the catching surface depends on i there).

    The request (_check_request, chi defaults, n_strong) is checked once.
    By the verdict lemma in the module docstring, a rejected request gives
    every row its one error, as the weak cell of every n entry, and twists
    nothing; a request that _check_request rejects also makes no statement.
    Each i is computed once, and an accepted request computes each n once
    and runs the bridge bound and guard once per (n, strong) pair that has
    rows.
    """
    n_values = _sorted_values(n_range)
    i_values = _sorted_values(i_range)
    if not i_values:  # no rows, so nothing to twist
        n_values = []
    statements = ()
    try:
        _check_request(g, family, kappa, alpha)
        if alpha not in (MU, LAMBDA):
            statements = ("distinctness: hbar_D lower bound unbounded in |i|",)
        nu_chi = bounds.nu_chi(kappa)
        if chi_Q_bridge is None and alpha == NU:
            chi_Q_bridge = nu_chi
        if chi_Q_nu is None:
            chi_Q_nu = nu_chi
        threshold = bounds.n_strong(chi_Q_nu)
    except ValueError as exc:
        # every i is weak, so every row reads its n's weak cell: the error
        threshold = math.inf
        n_column = tuple(_NEntry(n, None, None, None, (str(exc), None)) for n in n_values)
    else:
        strongs = {abs(i) > threshold for i in i_values}
        n_column = tuple(
            _n_entry(g, kappa, alpha, n, len(i_values), strongs, chi_Q_bridge)
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
_HBAR, _TAIL = _COLUMNS.index("hbar_D_lower"), _COLUMNS.index("strong")


def _na(reason: str) -> str:
    return f"n/a({reason})"


def _row_texts(catalog: Catalog, format_values, sep: str, field: str, quoted: str) -> Iterator[str]:
    """Each row's line: fragments joined by sep.  A fixed-shape fragment is
    one %-format over _COLUMNS[start:stop] that writes a value of column
    name as field.format(name), or as quoted.format(name) if the value holds
    a comma (the quoting lemma in the module docstring).  format_values(start,
    values) formats values of _COLUMNS[start:] for the text whose shape is
    not fixed: the three tails (strong flag, exterior flags, unique_surgery
    and an empty error) and the error cells.  Each n entry, i entry and cell
    is formatted once, and each error text once per render."""
    commas = ("tau", "seifert", "surgery") if catalog.family == "S" else ("tau",)

    def fragment(start: int, stop: int) -> str:
        names = _COLUMNS[start:stop]
        return sep.join((quoted if name in commas else field).format(name) for name in names)

    n_format, i_format, hbar_format = fragment(0, 1), sep + fragment(1, 2), fragment(_HBAR, _TAIL)
    mid_format = f"{sep}{fragment(2, _HBAR)} (heuristic){sep}"
    na = [_na("row error")] * (len(_COLUMNS) - 3)
    # the flags read strong and not exceptional (the row lemma), so no tail
    # has strong false and flags true
    tails = {}
    for strong, flags in ((False, False), (True, False), (True, True)):
        values = (str(strong).lower(), *[str(flags).lower()] * 5, "")
        tails[strong, flags] = f"{sep}{format_values(_TAIL, values)}\n"
    # an errored row's line after its i, by error text: a rejected request
    # gives every n entry the same one
    errors: dict[str, str] = {}
    i_parts = [
        (e.strong, i_format % e.i, hbar_format % (e.hbar_D_lower, e.hbar_A_lower))
        for e in catalog.i_column
    ]
    for n_entry in catalog.n_column:
        head = n_format % n_entry.n
        # per strong flag: the line after i, or the parts around the hbar fragment
        rests: list = [None, None]
        fixed = None  # the texts of the fields fixed by n, made once
        for strong, cell in zip((False, True), n_entry.cells):
            if isinstance(cell, str):
                if cell not in errors:
                    errors[cell] = f"{sep}{format_values(2, (*na, cell))}\n"
                rests[strong] = errors[cell]
            elif cell is not None:
                if fixed is None:
                    tau = str(n_entry.tau)
                    if catalog.family == "S":
                        seifert, surgery = tau, f"D{tau}-Seifert + {catalog.g - 1} 1-handles"
                    else:
                        seifert, surgery = _na("handlebody family"), "handlebody"
                    fixed = (tau, str(n_entry.exceptional).lower(), seifert, surgery)
                bridge_lower, reason = cell
                bridge = _na(reason) if bridge_lower is None else bridge_lower
                mid = mid_format % (*fixed, bridge, n_entry.heuristic)
                rests[strong] = (mid, tails[strong, strong and not n_entry.exceptional])
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
    rows = _row_texts(
        catalog, lambda start, values: writer.writerow(values)[:-1], ",", "%s", '"%s"'
    )
    return "".join(chain(map(writer.writerow, header), rows))


def render_txt(catalog: Catalog) -> str:
    header = [
        SCHEMA,
        f"g={catalog.g} family={catalog.family}"
        f" kappa={catalog.kappa} alpha={catalog.alpha}",
        *(f"statement: {s}" for s in catalog.statements),
    ]
    rows = _row_texts(catalog, _txt_values, " ", "{}=%s", "{}=%s")
    return "".join(chain((f"{line}\n" for line in header), rows))
