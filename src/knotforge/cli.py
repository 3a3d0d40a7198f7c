"""Command-line interface.

Subcommands: twist (curve arithmetic), bounds (bound formulas), plumb
(construction traces), family (catalog generation), verify-graphs
(combinatorial map checks).  A plain key-value configuration file
(lines of "key = value", # comments allowed) may preload defaults via
--config; explicit flags override it.  Each key must name an option of
the subcommand, and its value passes the option's choices.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import bounds, catalog, maps, plumbing
from .torus import dehn_twist, intersection, is_exceptional, normalize


def parse_curve(text: str):
    """Parse 'p,q' into a normal-form curve."""
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'p,q', got {text!r}") from exc
    return normalize(p, q)


def parse_range(text: str) -> list[int]:
    """Parse 'a:b' (inclusive), 'a:b:step', or a comma list of integers;
    a range with no values is an error."""
    if ":" in text:
        parts = [int(x) for x in text.split(":")]
        if len(parts) == 2:
            a, b, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            a, b, step = parts
        else:
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        if step <= 0:
            raise argparse.ArgumentTypeError("range step must be positive")
        values = list(range(a, b + 1, step))
    else:
        values = [int(x) for x in text.split(",")]
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            key, value = line.split("=", 1)
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def _check_config(subparser: argparse.ArgumentParser, config: dict[str, str]) -> None:
    """Reject a config key that names no option of the subcommand, and a
    value outside its option's choices, as the same flag would be."""
    options = {
        action.dest: action
        for action in subparser._actions
        if action.option_strings and action.dest != "help"
    }
    for key, value in config.items():
        action = options.get(key)
        if action is None:
            raise ValueError(f"config key {key!r} is not an option of {subparser.prog!r}")
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise ValueError(f"config key {key!r}: invalid choice {value!r} (choose from {choices})")


def _flag(args, key: str) -> str | None:
    """The value given to flag `key`, or None when it is absent."""
    value = getattr(args, key, None)
    if value is not None and not isinstance(value, str):  # "--key=--" parses as []
        raise ValueError(f"--{key.replace('_', '-')} needs a value")
    return value


def _resolve(args, config: dict[str, str], key: str, fallback=None):
    value = _flag(args, key)
    if value is None:
        value = config.get(key, fallback)
    return value


def _curve(args, config: dict[str, str], key: str):
    """The curve named by flag or config key `key`, which is required."""
    text = _resolve(args, config, key)
    if text is None:
        raise ValueError(f"--{key} is required (as a flag or a config key)")
    return parse_curve(text)


def _cmd_twist(args, config) -> int:
    kappa = _curve(args, config, "kappa")
    alpha = _curve(args, config, "alpha")
    n = int(_resolve(args, config, "n", "1"))
    tau = dehn_twist(kappa, alpha, n)
    print(f"tau = {tau}")
    print(f"distance(kappa, alpha) = {intersection(kappa, alpha)}")
    print(f"distance(tau, kappa) = {intersection(tau, kappa)}")
    print(f"exceptional = {str(is_exceptional(tau)).lower()}")
    return 0


def _cmd_bounds(args, config) -> int:
    op = args.op
    i = int(_resolve(args, config, "i", "0"))
    chi = int(_resolve(args, config, "chi", str(bounds.GAMMA_DISK)))
    if op == "disk":
        print(bounds.disk_hitting_lower_bound(i, chi))
    elif op == "annulus":
        print(bounds.annulus_hitting_lower_bound(i, chi))
    elif op == "bridge":
        n = int(_resolve(args, config, "n", "0"))
        g = int(_resolve(args, config, "genus", "2"))
        print(bounds.bridge_lower_bound(n, chi, g))
    elif op == "n-strong":
        print(bounds.n_strong(chi))
    elif op == "parallel-classes":
        print(bounds.parallelism_class_bound(chi))
    elif op == "edges-threshold":
        v = int(_resolve(args, config, "vertices", "1"))
        print(bounds.parallel_edges_threshold(v, chi))
    elif op == "threshold":
        stats = bounds.CatchingStats(
            chi_Q=chi,
            f_K=int(_resolve(args, config, "f_k", "0")),
            f_L=int(_resolve(args, config, "f_l", "1")),
            f_M=int(_resolve(args, config, "f_m", "1")),
            chi_F_hat=int(_resolve(args, config, "chi_f_hat", "2")),
            Delta_K=int(_resolve(args, config, "delta_k", "0")),
        )
        print(bounds.threshold(stats))
    else:
        raise AssertionError(op)
    return 0


def _cmd_plumb(args, config) -> int:
    construction = _resolve(args, config, "construction", "gamma")
    g = int(_resolve(args, config, "genus", "2"))
    pair = plumbing.eta(g) if construction == "eta" else plumbing.gamma(g)
    print(f"{construction}_{g}: genus={pair.genus} components={pair.components}")
    print(
        "flags:"
        f" three_disk_busting={str(pair.flags.three_disk_busting).lower()}"
        f" annulus_busting={str(pair.flags.annulus_busting).lower()}"
        f" nonseparating={str(pair.flags.nonseparating).lower()}"
        f" essential_components={str(pair.flags.essential_components).lower()}"
    )
    print("trace:")
    print(pair.trace(), end="")
    return 0


def _cmd_family(args, config) -> int:
    cat = catalog.generate_family(
        g=int(_resolve(args, config, "genus", "2")),
        family=_resolve(args, config, "type", "H"),
        kappa=_curve(args, config, "kappa"),
        alpha=_curve(args, config, "alpha"),
        n_range=parse_range(_resolve(args, config, "n_range", "0:0")),
        i_range=parse_range(_resolve(args, config, "i_range", "0:0")),
        chi_Q_bridge=_maybe_int(_resolve(args, config, "chi_bridge")),
        chi_Q_nu=_maybe_int(_resolve(args, config, "chi_nu")),
    )
    fmt = _resolve(args, config, "format", "txt")
    text = catalog.render_csv(cat) if fmt == "csv" else catalog.render_txt(cat)
    out = _resolve(args, config, "out")
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if cat.errored else 0


def _maybe_int(value):
    return None if value is None else int(value)


def _cmd_verify_graphs(args, config) -> int:
    report, tri = maps.verify_graphs(
        V_max=int(_resolve(args, config, "v_max", maps.V_MAX)),
        E_budget=int(_resolve(args, config, "e_budget", maps.E_MAX)),
        chi_min=int(_resolve(args, config, "chi_min", maps.CHI_MIN)),
        work_budget=int(_resolve(args, config, "work_budget", maps.WORK_BUDGET)),
    )
    sys.stdout.write(report.render())
    sys.stdout.write(tri.render())
    return 0 if not report.counterexamples and tri.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knotforge")
    parser.add_argument("--config", help="key=value file preloading defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("twist", help="curve arithmetic on the punctured torus")
    p.add_argument("--kappa", help="base curve 'r,s'")
    p.add_argument("--alpha", help="twisting curve 't,v'")
    p.add_argument("--n", help="twist count")
    p.set_defaults(func=_cmd_twist, subparser=p)

    p = sub.add_parser("bounds", help="bound formulas")
    p.add_argument(
        "op",
        choices=(
            "disk",
            "annulus",
            "bridge",
            "n-strong",
            "parallel-classes",
            "edges-threshold",
            "threshold",
        ),
    )
    p.add_argument("--i", help="twist count")
    p.add_argument("--chi", help="catching surface Euler characteristic")
    p.add_argument("--n", help="annulus twist count (bridge)")
    p.add_argument("--genus", help="splitting genus (bridge)")
    p.add_argument("--vertices", help="vertex count (edges-threshold)")
    p.add_argument("--f-k", dest="f_k")
    p.add_argument("--f-l", dest="f_l")
    p.add_argument("--f-m", dest="f_m")
    p.add_argument("--chi-f-hat", dest="chi_f_hat")
    p.add_argument("--delta-k", dest="delta_k")
    p.set_defaults(func=_cmd_bounds, subparser=p)

    p = sub.add_parser("plumb", help="construction traces")
    p.add_argument("--construction", choices=("eta", "gamma"))
    p.add_argument("--genus")
    p.set_defaults(func=_cmd_plumb, subparser=p)

    p = sub.add_parser("family", help="generate a certified catalog")
    p.add_argument("--genus")
    p.add_argument("--type", choices=("H", "S"))
    p.add_argument("--kappa", help="base curve 'r,s'")
    p.add_argument("--alpha", help="twisting curve 't,v'")
    p.add_argument("--n-range", dest="n_range", help="'a:b', 'a:b:step', or comma list")
    p.add_argument("--i-range", dest="i_range", help="'a:b', 'a:b:step', or comma list")
    p.add_argument("--chi-bridge", dest="chi_bridge")
    p.add_argument("--chi-nu", dest="chi_nu")
    p.add_argument("--format", choices=("csv", "txt"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_family, subparser=p)

    p = sub.add_parser("verify-graphs", help="combinatorial map verification")
    p.add_argument("--v-max", dest="v_max")
    p.add_argument("--e-budget", dest="e_budget")
    p.add_argument("--chi-min", dest="chi_min")
    p.add_argument("--work-budget", dest="work_budget")
    p.set_defaults(func=_cmd_verify_graphs, subparser=p)

    # no option starts with -<digit>, so such a token (--kappa -3,2) is a value
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\d")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser shared by every main() call of the process, built on first
    use; parsing leaves it unchanged, and config values never touch it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        path = _flag(args, "config")
        config = load_config(path) if path is not None else {}
        _check_config(args.subparser, config)
        return args.func(args, config)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
