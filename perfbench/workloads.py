"""Seeded request lists for the three benchmark workloads.

A workload is one pass: a list of requests, each a knotforge CLI argv plus
what the output checks need to know about it.  The seed changes which
requests are made, never how much work a pass holds: every seed gives the
catalog pass the same row total and the lineage pass the same sum of g^2.
This module uses only the standard library, so building the lists costs
the same on every commit of knotforge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
WORKLOADS = ("verify", "catalog", "lineage")


@dataclass(frozen=True)
class Request:
    index: int
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict)


# verify: one verify-graphs request per pass.  V <= 2, E <= 6 covers the
# parallel-edge path up to its (2,6) cell, and every verify-graphs call
# also runs the class-bound path, whose largest cell is (2,6) as well.
VERIFY_ARGV = ("verify-graphs", "--v-max", "2", "--e-budget", "6")

# catalog: grid sizes are the log-uniform quantiles of 1..CATALOG_MAX_ROWS
# rows, so the median request is small (CLI overhead matters) and the top
# decile is large (per-row work matters).
CATALOG_REQUESTS = 120
CATALOG_MAX_ROWS = 4096
NARROW_SIDES = (1, 2, 3, 5, 8)
# Alpha classes: (1,1) certifies the bridge bound with its own recipe;
# other classes need --chi-bridge for it; the product-disk classes never get it.
ALPHAS = {"nu": ((1, 1),), "other": ((1, 2), (2, 1), (1, -1), (1, 3), (3, 2), (2, -1)),
          "product": ((1, 0), (0, 1))}
# Kappas by d = i(kappa, (1,1)), which sets the strong threshold 216 (2 + d).
KAPPAS = {1: ((2, 1), (1, 2), (3, 2), (2, 3), (0, 1)), 2: ((3, 1), (1, 3), (5, 3), (3, 5)),
          3: ((1, -2), (4, 1), (5, 2), (2, 5))}
# lineage: genera are the log-uniform quantiles of 2..LINEAGE_MAX_GENUS.
LINEAGE_REQUESTS = 120
LINEAGE_MAX_GENUS = 4096


def _balanced(rng: random.Random, options, count: int) -> list:
    """`count` values: each run of len(options) neighbours is the options in
    seeded order, so every size stratum gets the same mix on every seed."""
    out = []
    while len(out) < count:
        block = list(options)
        rng.shuffle(block)
        out += block
    return out[:count]


def _fmt(curve) -> str:
    return f"{curve[0]},{curve[1]}"


def catalog_shapes() -> list[tuple[int, int]]:
    """(wide side, narrow side) of every catalog grid; the same for all seeds."""
    shapes = []
    for k in range(CATALOG_REQUESTS):
        rows = round(CATALOG_MAX_ROWS ** ((k + 0.5) / CATALOG_REQUESTS))
        narrow = min(NARROW_SIDES[k % len(NARROW_SIDES)], rows)
        shapes.append((max(1, round(rows / narrow)), narrow))
    return shapes


def catalog_requests(seed: int) -> list[Request]:
    """Everything that sets the cost of a grid is the same on every seed:
    its shape, orientation, format, family, alpha class, kappa class (hence
    the strong threshold), the --chi-nu/--chi-bridge flags, the step and how
    many of its i values lie above the strong threshold.  So are the largest
    outputs, which set peak memory.  The seed picks the curves within their
    classes, the genus, the n and i values within their windows, and the
    order of the requests."""
    shapes = catalog_shapes()
    count = len(shapes)
    fixed = random.Random("catalog-strata")
    n_wide = _balanced(fixed, (True, False), count)
    formats = _balanced(fixed, ("csv", "txt"), count)
    families = _balanced(fixed, ("H", "S"), count)
    alpha_classes = _balanced(fixed, ("nu", "nu", "other", "product"), count)
    kappa_classes = _balanced(fixed, (1, 2, 3), count)
    chi_nus = _balanced(fixed, (None, -6), count)
    chi_bridges = _balanced(fixed, (None, -6), count)
    steps = _balanced(fixed, (1, 2, 3), count)
    odd_above = _balanced(fixed, (0, 1), count)

    rng = random.Random(f"catalog-{seed}")
    specs = []
    for k, (wide, narrow) in enumerate(shapes):
        alpha = rng.choice(ALPHAS[alpha_classes[k]])
        kappa = rng.choice([c for c in KAPPAS[kappa_classes[k]] if c != alpha])
        chi_nu, step = chi_nus[k], steps[k]
        chi_bridge = chi_bridges[k] if alpha_classes[k] == "other" else None
        pivot = 216 * (-chi_nu if chi_nu is not None else 2 + kappa_classes[k])
        if n_wide[k]:
            n0 = rng.randint(-40, 40)
            n_values = list(range(n0, n0 + wide * step, step))
            n_arg = f"{n0}:{n_values[-1]}:{step}"
            above = (narrow + odd_above[k]) // 2
            i_values = rng.sample(range(pivot + 1, pivot + 401), above)
            i_values += rng.sample(range(pivot - 399, pivot + 1), narrow - above)
            i_arg = ",".join(map(str, i_values))
        else:
            above = (wide + odd_above[k]) // 2
            i0 = pivot - (wide - above - 1) * step
            i_values = list(range(i0, i0 + wide * step, step))
            i_arg = f"{i0}:{i_values[-1]}:{step}"
            n_values = rng.sample(range(-30, 400), narrow)
            n_arg = ",".join(map(str, n_values))
        argv = [
            "family",
            f"--genus={rng.randint(2, 5)}",
            f"--type={families[k]}",
            f"--kappa={_fmt(kappa)}",
            f"--alpha={_fmt(alpha)}",
            f"--n-range={n_arg}",
            f"--i-range={i_arg}",
            f"--format={formats[k]}",
        ]
        if chi_nu is not None:
            argv.append(f"--chi-nu={chi_nu}")
        if chi_bridge is not None:
            argv.append(f"--chi-bridge={chi_bridge}")
        spec = {"n": sorted(n_values), "i": sorted(i_values), "format": formats[k]}
        specs.append((argv, spec))
    order = list(range(count))
    rng.shuffle(order)
    return [Request(j, tuple(specs[k][0]), specs[k][1]) for j, k in enumerate(order)]


def lineage_genera() -> list[int]:
    """The genus of every lineage request; the same for all seeds."""
    top = LINEAGE_MAX_GENUS / 2
    return [round(2 * top ** ((k + 0.5) / LINEAGE_REQUESTS)) for k in range(LINEAGE_REQUESTS)]


def lineage_requests(seed: int) -> list[Request]:
    """The seed orders the requests and picks, within each pair of adjacent
    genera, which one eta builds and which one gamma builds."""
    rng = random.Random(f"lineage-{seed}")
    genera = lineage_genera()
    constructions = _balanced(rng, ("eta", "gamma"), len(genera))
    order = list(range(len(genera)))
    rng.shuffle(order)
    return [
        Request(
            j,
            ("plumb", "--construction", constructions[k], "--genus", str(genera[k])),
            {"construction": constructions[k], "genus": genera[k]},
        )
        for j, k in enumerate(order)
    ]


def verify_requests(seed: int) -> list[Request]:
    """The input is a cell range, not data; the seed is accepted for uniformity."""
    return [Request(0, VERIFY_ARGV)]


def requests(workload: str, seed: int) -> list[Request]:
    return {
        "verify": verify_requests,
        "catalog": catalog_requests,
        "lineage": lineage_requests,
    }[workload](seed)
