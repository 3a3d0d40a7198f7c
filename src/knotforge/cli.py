"""Command-line interface.

Subcommands: twist (curve arithmetic), bounds (bound formulas), plumb
(construction traces), family (catalog generation), verify-graphs
(combinatorial map checks).  A plain key-value configuration file
(lines of "key = value", # comments allowed) may preload option values via
--config.  Each key must name an option of the subcommand, and its value
passes the option's choices.

Each option takes its flag's value, else its config key's, else its
default (flag > config > default).  Every option that is given, as a flag
or as a config key, is parsed, also when the chosen bounds op does not read
it, so a malformed value never passes silently.

Imports: at module level this module imports only the standard library and
torus, which the package imports anyway.  Each command function imports the
modules it reads, and a default held by another module is named here by
module and attribute (_Default) and read only for the chosen subcommand.
So a command pays at start-up for its own modules only.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import re
import sys

from .torus import dehn_twist, intersection, is_exceptional, normalize


def parse_curve(text: str):
    """Parse 'p,q' into a normal-form curve."""
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'p,q', got {text!r}") from exc
    return normalize(p, q)


# the most rows a family catalog may have, checked on the distinct values of
# each column and on their product before any row is built; one row costs a
# few hundred bytes
ROW_LIMIT = 1_000_000
# the largest genus plumb builds, checked before any step; the eta run at
# this genus takes about 1.4 s and peaks at about 136 MB (Python 3.11.7, 2
# vCPUs), a peak set by building the 47 MB trace text while the lineage
# tree is still held; _cmd_plumb releases the tree before writing the text.
# tests/test_cli.py's main() re-measures both on every CI run
GENUS_LIMIT = 1_000_000
# the most decimal digits a number read or printed may have: Python's
# int-string conversion limit, 4300 unless PYTHONINTMAXSTRDIGITS or
# -X int_max_str_digits sets another (0, no limit, before Python 3.10.7);
# main names it when a number exceeds it
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def parse_range(text: str) -> range | list[int]:
    """Parse 'a:b' (inclusive) or 'a:b:step' into a range, or a comma list
    of integers into the list of its distinct values in increasing order,
    the values a catalog reads; a range with no values, or with more than
    ROW_LIMIT, is an error."""
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
        values = range(a, b + 1, step)
    else:
        values = sorted({int(x) for x in text.split(",")})
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if values[ROW_LIMIT:]:  # a slice: len() of a range past sys.maxsize overflows
        raise argparse.ArgumentTypeError(
            f"range {text!r} has more values than the row limit {ROW_LIMIT}"
        )
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
            key = key.strip().replace("-", "_")
            if key in config:
                raise ValueError(f"config key {key!r} is given twice")
            config[key] = value.strip()
    return config


def _flag(args, key: str) -> str | None:
    """The value given to flag `key`, or None when it is absent."""
    value = getattr(args, key, None)
    if value is not None and not isinstance(value, str):  # "--key=--" parses as []
        raise ValueError(f"--{key.replace('_', '-')} needs a value")
    return value


_REQUIRED = object()  # the default of an option that must be given


class _Default:
    """The default held by attribute `name` of knotforge module `module`,
    read when the options are parsed, so that building the parser imports
    no module and the default keeps one source."""

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name

    def value(self):
        return getattr(importlib.import_module(f".{self.module}", __package__), self.name)


def _option(p: argparse.ArgumentParser, flag: str, parse=int, default=None, **kwargs) -> None:
    """Declare option `flag` of subcommand `p` with the function that parses
    its value and its default: a value that `parse` reads, a _Default
    holding one, None for an option the command can go without, or
    _REQUIRED."""
    p.add_argument(flag, **kwargs).spec = (parse, default)


def _parse_options(args, config: dict[str, str]) -> None:
    """Set every option of the subcommand on `args`, parsed: the flag value,
    else the config value, else the default.  A config key that names no
    option, or a value outside the option's choices, is rejected first, as
    the same flag would be."""
    options = {a.dest: a for a in args.subparser._actions if hasattr(a, "spec")}
    for key, value in config.items():
        action = options.get(key)
        if action is None:
            raise ValueError(f"config key {key!r} is not an option of {args.subparser.prog!r}")
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise ValueError(f"config key {key!r}: invalid choice {value!r} (choose from {choices})")
    for key, action in options.items():
        parse, default = action.spec
        text = _flag(args, key)
        if text is None:
            text = config.get(key, default)
        if text is _REQUIRED:
            raise ValueError(f"{action.option_strings[0]} is required (as a flag or a config key)")
        if isinstance(text, _Default):
            text = text.value()
        setattr(args, key, None if text is None else parse(text))


def _cmd_twist(args) -> int:
    tau = dehn_twist(args.kappa, args.alpha, args.n)
    # every line is formatted before any is printed, so a number above the
    # digit limit prints nothing
    lines = (
        f"tau = {tau}",
        f"distance(kappa, alpha) = {intersection(args.kappa, args.alpha)}",
        f"distance(tau, kappa) = {intersection(tau, args.kappa)}",
        f"exceptional = {str(is_exceptional(tau)).lower()}",
    )
    print("\n".join(lines))
    return 0


# each bounds op: the bounds function it prints and the options it passes
_BOUNDS = {
    "disk": ("disk_hitting_lower_bound", "i", "chi"),
    "annulus": ("annulus_hitting_lower_bound", "i", "chi"),
    "bridge": ("bridge_lower_bound", "n", "chi", "genus"),
    "n-strong": ("n_strong", "chi"),
    "parallel-classes": ("parallelism_class_bound", "chi"),
    "edges-threshold": ("parallel_edges_threshold", "vertices", "chi"),
    "threshold": ("threshold", "chi", "f_k", "f_l", "f_m", "chi_f_hat", "delta_k"),
}


def _cmd_bounds(args) -> int:
    from . import bounds

    name, *keys = _BOUNDS[args.op]
    print(getattr(bounds, name)(*(getattr(args, key) for key in keys)))
    return 0


def _cmd_plumb(args) -> int:
    construction, g = args.construction, args.genus
    if g > GENUS_LIMIT:
        raise ValueError(f"genus {g} is above the genus limit {GENUS_LIMIT}")
    from . import plumbing

    pair = plumbing.eta(g) if construction == "eta" else plumbing.gamma(g)
    print(f"{construction}_{g}: genus={pair.genus} components={pair.components}")
    flags = zip(plumbing.Flags._fields, pair.flags)
    print("flags: " + " ".join([f"{name}={str(flag).lower()}" for name, flag in flags]))
    print("trace:")
    text = pair.trace()
    del pair
    sys.stdout.write(text)
    return 0


def _cmd_family(args) -> int:
    from . import catalog

    rows = len(args.n_range) * len(args.i_range)
    if rows > ROW_LIMIT:
        raise ValueError(f"the catalog has {rows} rows, above the row limit {ROW_LIMIT}")
    cat = catalog.generate_family(
        args.genus,
        args.type,
        args.kappa,
        args.alpha,
        args.n_range,
        args.i_range,
        chi_Q_bridge=args.chi_bridge,
        chi_Q_nu=args.chi_nu,
    )
    text = catalog.render_csv(cat) if args.format == "csv" else catalog.render_txt(cat)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if cat.errored else 0


def _cmd_verify_graphs(args) -> int:
    from . import maps

    report, tri = maps.verify_graphs(args.v_max, args.e_budget, args.chi_min, args.work_budget)
    sys.stdout.write(report.render())
    sys.stdout.write(tri.render())
    return 0 if not report.counterexamples and tri.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knotforge")
    parser.add_argument("--config", help="key=value file preloading defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("twist", help="curve arithmetic on the punctured torus")
    _option(p, "--kappa", parse_curve, _REQUIRED, help="base curve 'r,s'")
    _option(p, "--alpha", parse_curve, _REQUIRED, help="twisting curve 't,v'")
    _option(p, "--n", default=1, help="twist count")
    p.set_defaults(func=_cmd_twist, subparser=p)

    p = sub.add_parser("bounds", help="bound formulas")
    p.add_argument("op", choices=tuple(_BOUNDS))
    _option(p, "--i", default=0, help="twist count")
    _option(
        p, "--chi", default=_Default("bounds", "GAMMA_DISK"),
        help="catching surface Euler characteristic",
    )
    _option(p, "--n", default=0, help="annulus twist count (bridge)")
    _option(p, "--genus", default=2, help="splitting genus (bridge)")
    _option(p, "--vertices", default=1, help="vertex count (edges-threshold)")
    _option(p, "--f-k", default=0)
    _option(p, "--f-l", default=1)
    _option(p, "--f-m", default=1)
    _option(p, "--chi-f-hat", default=2)
    _option(p, "--delta-k", default=0)
    p.set_defaults(func=_cmd_bounds, subparser=p)

    p = sub.add_parser("plumb", help="construction traces")
    _option(p, "--construction", str, "gamma", choices=("eta", "gamma"))
    _option(p, "--genus", default=2)
    p.set_defaults(func=_cmd_plumb, subparser=p)

    p = sub.add_parser("family", help="generate a certified catalog")
    _option(p, "--genus", default=2)
    _option(p, "--type", str, "H", choices=("H", "S"))
    _option(p, "--kappa", parse_curve, _REQUIRED, help="base curve 'r,s'")
    _option(p, "--alpha", parse_curve, _REQUIRED, help="twisting curve 't,v'")
    _option(p, "--n-range", parse_range, "0:0", help="'a:b', 'a:b:step', or comma list")
    _option(p, "--i-range", parse_range, "0:0", help="'a:b', 'a:b:step', or comma list")
    _option(p, "--chi-bridge")
    _option(p, "--chi-nu")
    _option(p, "--format", str, "txt", choices=("csv", "txt"))
    _option(p, "--out", str)
    p.set_defaults(func=_cmd_family, subparser=p)

    p = sub.add_parser("verify-graphs", help="combinatorial map verification")
    _option(p, "--v-max", default=_Default("maps", "V_DEFAULT"))
    _option(p, "--e-budget", default=_Default("maps", "E_MAX"))
    _option(p, "--chi-min", default=_Default("maps", "CHI_MIN"))
    _option(p, "--work-budget", default=_Default("maps", "WORK_BUDGET"))
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
        _parse_options(args, load_config(path) if path is not None else {})
        return args.func(args)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        message = str(exc)
        # Python raises a plain ValueError, told apart only by its text,
        # when int() reads or str() writes a number above the digit limit
        if isinstance(exc, ValueError) and "for integer string conversion" in message:
            message = f"a number read or printed has more digits than the digit limit {DIGIT_LIMIT}"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
