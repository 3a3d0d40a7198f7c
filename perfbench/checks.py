"""Output checks, one per workload.

Each check takes one request's exit code and captured stdout (and, for
lineage, the pair rebuilt by plumbing.replay), returns the number of work
items the output shows, and raises CheckFailed when the output is wrong.
"""

from __future__ import annotations

import hashlib
import re

from workloads import DEFAULT_SEED


class CheckFailed(Exception):
    """A request's output does not pass its workload's check."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# --- verify ---------------------------------------------------------------

_CELL = re.compile(
    r"^\s*V=(\d+) E=(\d+) \[([\w-]+)\] maps=(\d+) above-threshold=(\d+) tight=(\d+)"
    r".* counterexamples=(\d+)"
)
_TRIANGULATION = re.compile(r"^\s*V=(\d+) E=(\d+) ideal-chi=-?\d+ triangulations=(\d+)")


def verify_table(out: str) -> dict:
    """Per-cell (V, E, method, maps, above-threshold, tight) and per-cell
    triangulation counts parsed from a verify-graphs report."""
    cells, triangulations = [], []
    for line in out.splitlines():
        m = _CELL.match(line)
        if m:
            _require(m.group(7) == "0", f"counterexample in {line.strip()!r}")
            v, e, method, maps_, above, tight = m.groups()[:6]
            cells.append([int(v), int(e), method, int(maps_), int(above), int(tight)])
            continue
        m = _TRIANGULATION.match(line)
        if m:
            triangulations.append([int(x) for x in m.groups()])
    return {"cells": cells, "triangulations": triangulations}


def check_verify(request, rc, out, pins) -> int:
    _require(rc == 0, f"exit code {rc}")
    lines = out.splitlines()
    _require("counterexamples: 0" in lines, "counterexamples reported")
    _require("ok: True" in lines, "class bound not ok")
    table = verify_table(out)
    _require(table == pins["verify"], "per-cell table differs from the pinned table")
    return sum(c[3] for c in table["cells"]) + sum(t[2] for t in table["triangulations"])


# --- catalog --------------------------------------------------------------


def _catalog_grid(lines: list[str], fmt: str) -> list[tuple[int, int]]:
    """(n, i) of every row, after checking that no row carries an error."""
    grid = []
    if fmt == "csv":
        header = next((k for k, l in enumerate(lines) if l.startswith("n,i,tau,")), None)
        _require(header is not None, "csv column header missing")
        for row in lines[header + 1 :]:
            n, i, _ = row.split(",", 2)
            _require(row.endswith(","), f"row error: {row!r}")
            grid.append((int(n), int(i)))
    else:
        for row in lines[2:]:
            if row.startswith("statement: "):
                continue
            n, i, _ = row.split(" ", 2)
            _require(n[:2] == "n=" and i[:2] == "i=", f"unexpected row {row!r}")
            _require(" error=" not in row, f"row error: {row!r}")
            grid.append((int(n[2:]), int(i[2:])))
    return grid


def sha256(text: str) -> str:
    """sha256 of the UTF-8 text, encoded in chunks so that the check does not
    hold a second copy of a large output (peak memory is a metric)."""
    digest = hashlib.sha256()
    for start in range(0, len(text), 1 << 16):
        digest.update(text[start : start + (1 << 16)].encode())
    return digest.hexdigest()


def check_catalog(request, rc, out, pins, seed) -> int:
    spec = request.spec
    _require(rc == 0, f"exit code {rc}")
    if seed == DEFAULT_SEED:
        pinned = pins["catalog"][request.index]
        _require(sha256(out) == pinned, "output differs from the pinned sha256")
    _require(out.endswith("\n"), "output not newline-terminated")
    lines = out[:-1].split("\n")
    _require(lines[0] == "knotforge-catalog v1", "schema line missing")
    try:
        grid = _catalog_grid(lines, spec["format"])
    except ValueError as exc:
        raise CheckFailed(f"unparsable row: {exc}") from exc
    expected = [(n, i) for n in spec["n"] for i in spec["i"]]
    _require(grid == expected, f"{len(grid)} rows, expected the {len(expected)}-row grid")
    return len(grid)


# --- lineage --------------------------------------------------------------

_FLAGS = (
    "flags: three_disk_busting=true annulus_busting=true"
    " nonseparating=true essential_components=true"
)


def lineage_steps(construction: str, g: int) -> int:
    """Lines of the eta_g / gamma_g trace: one per base pair and plumb step."""
    if construction == "eta":
        return 2 * g - 1
    return 1 if g == 2 else 2 * g - 3


def lineage_copied(construction: str, g: int) -> int:
    """Lineage entries copied by one build, sum of len(a.lineage) + len(b.lineage)
    over its plumb calls: eta_g plumbs eta_k (2k - 1 entries) with eta1x2 for
    k < g, and gamma_g plumbs eta_{g-2} (2g - 5 entries) with gamma2."""
    if construction == "eta":
        return g * (g - 1)
    return (g - 1) * (g - 2)


def check_lineage(request, rc, out, replayed) -> int:
    construction, g = request.spec["construction"], request.spec["genus"]
    _require(rc == 0, f"exit code {rc}")
    head, sep, trace = out.partition("trace:\n")
    _require(sep != "", "trace section missing")
    _require(
        head == f"{construction}_{g}: genus={g} components=1\n{_FLAGS}\n",
        f"unexpected header {head!r}",
    )
    steps = trace.count("\n")
    _require(steps == lineage_steps(construction, g), f"{steps} trace lines")
    _require(replayed.genus == g and replayed.components == 1, "replayed pair differs")
    _require(replayed.flags.all_true(), "replayed pair lost a flag")
    _require(replayed.trace() == trace, "replayed trace is not byte-identical")
    return steps
