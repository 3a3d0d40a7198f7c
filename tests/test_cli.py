import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotforge
from contracts import CONTRACTS
from knotforge import maps
from knotforge.catalog import generate_family, render_txt
from knotforge.cli import (
    _BOUNDS,
    DIGIT_LIMIT,
    GENUS_LIMIT,
    ROW_LIMIT,
    build_parser,
    load_config,
    parse_curve,
    parse_range,
)
from knotforge.cli import main as cli_main
from knotforge.torus import normalize


@pytest.mark.parametrize("row", CONTRACTS, ids=lambda row: row.name)
def test_contract(row, tmp_path, capsys):
    code = cli_main(row.argv(tmp_path))
    captured = capsys.readouterr()
    assert (code, hashlib.sha256(captured.out.encode()).hexdigest()) == (row.code, row.digest)
    assert captured.err == ""


def test_contracts_runner_imports_no_test_framework():
    # a spawned row's peak RSS starts from the runner's, so the runner
    # leaves pytest and hypothesis unloaded
    paths = (pathlib.Path(knotforge.__file__).parents[1], pathlib.Path(__file__).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    probe = "import sys, contracts; print(*sorted({'pytest', 'hypothesis'} & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout == "\n"


def readme_commands() -> list[str]:
    """The arguments of each `knotforge …` line in README's sh blocks, with
    backslash continuations joined."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = re.sub(r"\s*\\\n\s*", " ", "".join(re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)))
    prefix = "knotforge "
    return [line[len(prefix) :] for line in lines.splitlines() if line.startswith(prefix)]


def test_readme_shows_every_subcommand():
    commands = {args.split()[0] for args in readme_commands()}
    assert commands == {command for command, _ in _options()}


@pytest.mark.parametrize("args", readme_commands())
def test_readme_command_runs(args, tmp_path, monkeypatch, capsys):
    # in a temporary directory, where `--out fam.csv` writes its catalog
    monkeypatch.chdir(tmp_path)
    argv = args.split()
    assert cli_main(argv) == 0
    assert capsys.readouterr().err == ""
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")


def test_version_matches_pyproject():
    # the package declares its version once, as knotforge.__version__, which
    # pyproject.toml reads; read with a regex: Python 3.10 has no tomllib
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^dynamic\s*=\s*\[\s*"version"\s*\]$', project, re.M)
    dynamic = re.search(r"^\[tool\.setuptools\.dynamic\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert re.search(
        r'^version\s*=\s*\{\s*attr\s*=\s*"knotforge\.__version__"\s*\}$', dynamic.group(1), re.M
    )
    assert not re.search(r'^version\s*=\s*"', text, re.M)
    assert re.fullmatch(r"\d+\.\d+\.\d+", knotforge.__version__)


# the knotforge modules that `import knotforge.cli` and then main(args)
# leave imported; the empty args stand for the import alone
IMPORTS = {
    "": {"cli", "torus"},
    "twist --kappa 2,1 --alpha 1,1": {"cli", "torus"},
    "bounds disk": {"bounds", "cli", "torus"},
    "plumb": {"cli", "pants", "plumbing", "torus"},
    "family --kappa 2,1 --alpha 1,1": {"bounds", "catalog", "cli", "torus"},
    "verify-graphs --v-max 1 --e-budget 1": {"bounds", "cli", "maps", "torus"},
}
# run in a fresh interpreter: prints to stderr the exit code and the modules
# imported, then which of dataclasses and inspect are loaded, then what two
# attribute lookups on the package give
IMPORT_PROBE = """
import sys
import knotforge.cli
code = knotforge.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
names = sorted(m.removeprefix("knotforge.") for m in sys.modules if m.startswith("knotforge."))
print(code, *names, file=sys.stderr)
print(*(m for m in ("dataclasses", "inspect") if m in sys.modules), file=sys.stderr)
print(knotforge.maps.__name__, hasattr(knotforge, "nope"), file=sys.stderr)
"""


@pytest.mark.parametrize("args", IMPORTS, ids=lambda args: args.split(" ")[0] or "import")
def test_command_imports_only_what_it_reads(args):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(knotforge.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", IMPORT_PROBE, *args.split()],
        capture_output=True, text=True, env=env, check=True,
    )
    imported, dataclass_modules, lookups = run.stderr.splitlines()
    assert imported.split() == ["0", *sorted(IMPORTS[args])]
    # no knotforge module declares a dataclass, so neither dataclasses nor
    # inspect (which it imports) is loaded
    assert dataclass_modules == ""
    # knotforge.maps is imported on first access, and any other name is an error
    assert lookups == "knotforge.maps False"


def _run_in_600_mb(argv):
    """cli.main(argv) in a child that limits its own address space to 600 MB."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))\n"
        "from knotforge.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(knotforge.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )


def _run_captured(argv, out_path=None):
    """(exit code, stdout, stderr, text written to out_path) of one CLI run;
    an argparse usage error or -h counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    written = out_path.read_text() if out_path is not None and out_path.exists() else None
    if written is not None:
        out_path.unlink()
    return code, out.getvalue(), err.getvalue(), written


class TestParsers:
    def test_parse_curve(self):
        assert parse_curve("-3,2").p == 3

    def test_parse_range(self):
        # 'a:b[:step]' gives the range itself, a comma list the sorted list
        # of its distinct values
        assert parse_range("1:4") == range(1, 5)
        assert parse_range("0:10:5") == range(0, 11, 5)
        assert parse_range("7,3,5") == [3, 5, 7]
        assert parse_range("1,1") == [1]
        assert parse_range("5:5") == range(5, 6)
        assert type(parse_range("5:5")) is range and type(parse_range("5")) is list

    @pytest.mark.parametrize("text", ["5:1", "0:-1", "3:2:4"])
    def test_empty_range_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="empty range"):
            parse_range(text)

    @pytest.mark.parametrize(
        "text, message",
        [("1:2:3:4", "bad range '1:2:3:4'"), ("1:5:0", "range step must be positive")],
    )
    def test_malformed_range_exit_code(self, text, message, capsys):
        assert cli_main(["family", "--kappa", "2,1", "--alpha", "1,1", "--n-range", text]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_range_above_the_row_limit(self):
        assert len(parse_range(f"2:{2 * ROW_LIMIT}:2")) == ROW_LIMIT
        for text in (f"0:{2 * ROW_LIMIT}:2", f"0:{10**30}"):  # the second has no len()
            with pytest.raises(argparse.ArgumentTypeError, match="than the row limit"):
                parse_range(text)

    def test_huge_range_exits_2_before_allocating(self):
        # a parse that built the list would die with MemoryError (exit 1)
        # in the child before it took much memory
        argv = ["family", "--kappa", "2,1", "--alpha", "1,1", "--n-range", "0:10000000000"]
        run = _run_in_600_mb(argv)
        message = f"range '0:10000000000' has more values than the row limit {ROW_LIMIT}"
        assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: {message}\n")

    def test_catalog_above_the_row_limit_exits_2(self, monkeypatch, capsys):
        # both columns pass, their product does not: no row is built.
        # 1,000,001 = 101 * 9,901 rows is the least product above the limit
        import knotforge.catalog

        monkeypatch.setattr(knotforge.catalog, "generate_family", None)
        for n_range, i_range, rows in [
            ("0:999", "0:1000", 1_001_000), ("1:101", "1:9901", ROW_LIMIT + 1)
        ]:
            argv = ["family", "--kappa", "2,1", "--alpha", "1,1", "--n-range", n_range]
            assert cli_main([*argv, "--i-range", i_range]) == 2
            message = f"the catalog has {rows} rows, above the row limit {ROW_LIMIT}"
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_catalog_at_the_row_limit_runs(self, monkeypatch, capsys):
        # a catalog of exactly ROW_LIMIT rows runs; one row more does not
        import knotforge.cli

        monkeypatch.setattr(knotforge.cli, "ROW_LIMIT", 6)
        argv = ["family", "--kappa", "2,1", "--alpha", "1,1", "--n-range", "1:2"]
        assert cli_main([*argv, "--i-range", "1:3"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and sum(line.startswith("n=") for line in out.splitlines()) == 6
        assert cli_main([*argv, "--i-range", "1:4"]) == 2
        message = "the catalog has 8 rows, above the row limit 6"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_repeated_list_values_are_one_row(self, monkeypatch, capsys):
        # a catalog holds one row per distinct (n, i), so a repeated comma
        # list value adds no row to the count checked against ROW_LIMIT
        import knotforge.cli

        monkeypatch.setattr(knotforge.cli, "ROW_LIMIT", 6)
        argv = ["family", "--kappa", "2,1", "--alpha", "1,1", "--n-range", "1,1"]
        assert cli_main([*argv, "--i-range", "0:5"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and sum(line.startswith("n=") for line in out.splitlines()) == 6

    def test_load_config(self, tmp_path):
        path = tmp_path / "knotforge.conf"
        path.write_text("# defaults\nkappa = 2,1\nn-range = 1:3\n")
        assert load_config(str(path)) == {"kappa": "2,1", "n_range": "1:3"}


class TestTwist:
    def test_config_preload_and_override(self, tmp_path, capsys):
        conf = tmp_path / "c"
        conf.write_text("kappa = 0,1\nalpha = 1,1\nn = 4\n")
        code = cli_main(["--config", str(conf), "twist", "--n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau = (1,2)" in out  # flag n=1 overrides config n=4

    # a repeated key, also one spelled once with '-' and once with '_', is
    # an error that names it, not the last value silently
    REPEATED = {"n = 3\nn = 5\n": "n", "n-range = 0:1\nn_range = 0:2\n": "n_range"}

    @pytest.mark.parametrize("text", [None, "kappa 0,1\nalpha = 1,1\n", *REPEATED])
    def test_missing_or_malformed_config_exit_code(self, text, tmp_path, capsys):
        conf = tmp_path / "c"
        if text is not None:
            conf.write_text(text)
        assert cli_main(["--config", str(conf), "twist", "--kappa", "0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        if text in self.REPEATED:
            assert f"config key {self.REPEATED[text]!r} is given twice" in err

    @pytest.mark.parametrize(
        "n",
        [
            # tau = (3n + 2, 6n + 1) has 4,301 digits
            "9" * 4300,
            # tau has 4,300 digits, distance(tau, kappa) = 9n has 4,301
            "12" + "0" * 4298,
            # the input itself has 4,301 digits
            "9" * 4301,
        ],
        ids=["tau", "distance", "input"],
    )
    def test_number_above_the_digit_limit_exits_2(self, n, capsys):
        assert DIGIT_LIMIT == 4300 == sys.get_int_max_str_digits()
        assert cli_main(["twist", "--kappa", "2,1", "--alpha", "1,2", "--n", n]) == 2
        message = f"a number read or printed has more digits than the digit limit {DIGIT_LIMIT}"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["twist"],
            ["twist", "--kappa", "0,1"],
            ["twist", "--alpha", "1,1"],
            ["twist", "--kappa", "abc", "--alpha", "1,1"],
        ],
    )
    def test_missing_or_bad_curve_exit_code(self, argv, capsys):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestNegativeValues:
    # a value whose first coordinate is negative, given as its own argument,
    # parses as the same value given with "="
    FAMILY = ["family", "--kappa", "2,1", "--alpha", "1,1", "--format", "csv"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["twist", "--kappa", "-3,2", "--alpha", "1,1"], "--kappa"),
            (["twist", "--kappa", "2,1", "--alpha", "-1,2"], "--alpha"),
            ([*FAMILY, "--n-range", "-2:2", "--i-range", "0:0"], "--n-range"),
            ([*FAMILY, "--n-range", "1:1", "--i-range", "-10,10"], "--i-range"),
        ],
    )
    def test_separate_value_parses_like_equals_form(self, argv, flag, capsys):
        at = argv.index(flag)
        joined = argv[:at] + [f"{flag}={argv[at + 1]}"] + argv[at + 2 :]
        assert cli_main(joined) == 0
        expected = capsys.readouterr().out
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""

    def test_other_dash_tokens_stay_options(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["twist", "--kappa", "-x", "--alpha", "1,1"])
        assert "expected one argument" in capsys.readouterr().err


class TestConfigValidation:
    FAMILY = ["family", "--kappa", "2,1", "--alpha", "1,1"]

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("type = X\n", FAMILY),
            ("format = json\n", FAMILY),
            ("kapa = 2,1\n", FAMILY),
            ("construction = zeta\n", ["plumb"]),
            ("format = csv\n", ["twist", "--kappa", "0,1", "--alpha", "1,1"]),
            ("op = disk\n", ["bounds", "n-strong"]),
            ("config = other.conf\n", ["bounds", "n-strong"]),
        ],
    )
    def test_bad_key_or_value_exit_code(self, text, argv, tmp_path, capsys):
        conf = tmp_path / "c"
        conf.write_text(text)
        assert cli_main(["--config", str(conf), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_valid_choice_accepted(self, tmp_path, capsys):
        conf = tmp_path / "c"
        conf.write_text("type = S\nformat = csv\nn-range = 1:2\n")
        assert cli_main(["--config", str(conf), *self.FAMILY]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "knotforge-catalog v1"
        assert out[1].startswith("g=2,family=S,")

    def test_calls_do_not_share_state(self, tmp_path, capsys):
        # the parser is built once per process; no call may change it
        conf = tmp_path / "c"
        conf.write_text("format = csv\n")
        assert cli_main([*self.FAMILY, "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert cli_main(["--config", str(conf), *self.FAMILY]) == 0
        assert capsys.readouterr().out == csv_out
        assert cli_main(self.FAMILY) == 0
        txt_out = capsys.readouterr().out
        assert txt_out != csv_out
        assert txt_out == render_txt(
            generate_family(2, "H", normalize(2, 1), normalize(1, 1), [0], [0])
        )


class TestBounds:
    def test_bad_chi_exit_code(self, capsys):
        assert cli_main(["bounds", "disk", "--i", "10", "--chi", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--f-l", "0"], "f_L >= 1 is a standing assumption"),
            (["--f-k", "-1"], "boundary counts and distances are nonnegative"),
            # the f_L check comes first
            (["--f-m", "-1", "--f-l", "0"], "f_L >= 1 is a standing assumption"),
        ],
    )
    def test_threshold_counts_rejected(self, capsys, flags, message):
        assert cli_main(["bounds", "threshold", *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestPlumb:
    @pytest.mark.parametrize("construction", ["eta", "gamma"])
    def test_genus_limit(self, construction, monkeypatch, capsys):
        # the limit is checked before any plumb step: genus = limit builds,
        # limit + 1 builds nothing
        import knotforge.cli

        monkeypatch.setattr(knotforge.cli, "GENUS_LIMIT", 5)
        argv = ["plumb", "--construction", construction, "--genus"]
        assert cli_main([*argv, "5"]) == 0
        assert capsys.readouterr().out.startswith(f"{construction}_5: genus=5 components=1\n")
        import knotforge.plumbing

        monkeypatch.setattr(knotforge.plumbing, "plumb", None)
        assert cli_main([*argv, "6"]) == 2
        assert capsys.readouterr() == ("", "error: genus 6 is above the genus limit 5\n")

    def test_huge_genus_exits_2(self):
        # a build of this genus would die with MemoryError (exit 1) in the
        # child before it took much memory
        assert GENUS_LIMIT >= 100_000  # CI pins the genus-100000 eta digest
        run = _run_in_600_mb(["plumb", "--construction", "eta", "--genus", "100000000"])
        message = f"genus 100000000 is above the genus limit {GENUS_LIMIT}"
        assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: {message}\n")


class TestFamily:
    def test_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "fam.csv"
        code = cli_main(
            [
                "family",
                "--genus", "2",
                "--type", "H",
                "--kappa", "2,1",
                "--alpha", "1,1",
                "--n-range", "1:1",
                "--i-range", "0:0",
                "--format", "csv",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.read_text().startswith("knotforge-catalog v1")

    @pytest.mark.parametrize(
        "request_args",
        [
            ["--kappa", "2,1", "--alpha", "2,1"],
            ["--genus", "1", "--kappa", "2,1", "--alpha", "1,1"],
        ],
    )
    def test_rejected_request_prints_no_statement(self, capsys, request_args):
        # kappa = alpha and genus 1 are rejected: every row is an error, so
        # the catalog exits 1
        code = cli_main(["family", *request_args, "--n-range", "1", "--i-range", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "error=" in out
        assert "statement" not in out

    @pytest.mark.parametrize("flag, text", [("--n-range", "5:1"), ("--i-range", "3:0:2")])
    def test_empty_grid_exit_code(self, capsys, flag, text):
        argv = ["family", "--kappa", "2,1", "--alpha", "1,1", "--n-range", "1:2", "--i-range", "0:0"]
        argv[argv.index(flag) + 1] = text
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: empty range")
        assert captured.out == ""

    def test_number_above_the_digit_limit_exits_2(self, capsys):
        # the 4,300-digit n parses; its tau has 4,301 digits
        argv = ["family", "--kappa", "2,1", "--alpha", "1,2", "--chi-bridge", "-6"]
        assert cli_main([*argv, "--n-range", "9" * 4300]) == 2
        message = f"a number read or printed has more digits than the digit limit {DIGIT_LIMIT}"
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestVerifyGraphs:
    def test_empty_range_exit_code(self, capsys):
        assert cli_main(["verify-graphs", "--v-max", "0", "--e-budget", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_chi_above_the_sphere_exit_code(self, capsys):
        argv = ["verify-graphs", "--v-max", "1", "--e-budget", "2", "--chi-min", "5"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_negative_work_budget_exit_code(self, capsys):
        argv = ["verify-graphs", "--v-max", "1", "--e-budget", "2", "--work-budget", "-5"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: work_budget")
        assert captured.out == ""

    def test_zero_work_budget_is_valid(self, capsys):
        argv = ["verify-graphs", "--v-max", "1", "--e-budget", "2", "--work-budget", "0"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "[degree-count]" in out and "[enumerated]" not in out

    def test_counterexample_exits_1(self, monkeypatch, capsys):
        # with a threshold of 0 every map is above it, and the two maps of
        # (1,2) and (1,3) without parallel edges are counterexamples
        monkeypatch.setattr(maps, "parallel_edges_threshold", lambda V, chi: 0)
        assert cli_main(["verify-graphs", "--v-max", "1", "--e-budget", "3"]) == 1
        out, err = capsys.readouterr()
        assert "\ncounterexamples: 2\n" in out and err == ""

    def test_class_bound_failure_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(maps, "parallelism_class_bound", lambda chi: 0)
        assert cli_main(["verify-graphs", "--v-max", "1", "--e-budget", "3"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("\nok: False\n") and err == ""


# --- fuzzing: random argv and --config files ---------------------------------

# well-formed option values are small, so that every run is cheap; one value
# in eight is replaced by text that no option accepts
JUNK = st.sampled_from(["", "x", "1.5", "0x10", " 3", "1,2,3", "-", "--", "=", "é"])
INTS = st.integers(-40, 40).map(str) | st.sampled_from(["9" * 30, "-" + "9" * 30])
CURVES = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map("{0[0]},{0[1]}".format)
SMALL = st.integers(-10, 10)
RANGES = (
    st.tuples(SMALL, SMALL).map("{0[0]}:{0[1]}".format)
    | st.tuples(SMALL, SMALL, st.integers(-2, 4)).map("{0[0]}:{0[1]}:{0[2]}".format)
    | st.lists(SMALL, min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs)))
)
BOUNDS_OPS = [*_BOUNDS, "mystery"]
# (subcommand, flag) -> (a valid value other than the default, a malformed
# value, the fuzz's value strategy); the fuzz sets every option that has a
# strategy, which --out, since it writes files, has not
OPTIONS = {
    ("twist", "--kappa"): ("-3,2", "abc", CURVES),
    ("twist", "--alpha"): ("1,2", "1", CURVES),
    ("twist", "--n"): ("-2", "two", st.integers(-10**6, 10**6).map(str)),
    ("bounds", "--i"): ("5000", "1.5", INTS),
    ("bounds", "--chi"): ("-3", "x", INTS),
    ("bounds", "--n"): ("700", "x", INTS),
    ("bounds", "--genus"): ("3", "x", INTS),
    ("bounds", "--vertices"): ("2", "x", INTS),
    ("bounds", "--f-k"): ("1", "x", INTS),
    ("bounds", "--f-l"): ("2", "x", INTS),
    ("bounds", "--f-m"): ("3", "x", INTS),
    ("bounds", "--chi-f-hat"): ("1", "x", INTS),
    ("bounds", "--delta-k"): ("2", "x", INTS),
    ("plumb", "--construction"): ("eta", "zeta", st.sampled_from(["eta", "gamma", "delta"])),
    ("plumb", "--genus"): ("4", "four", st.integers(-2, 64).map(str)),
    ("family", "--genus"): ("3", "x", st.integers(-1, 5).map(str)),
    ("family", "--type"): ("S", "Q", st.sampled_from(["H", "S", "Q"])),
    ("family", "--kappa"): ("3,1", "3;1", CURVES),
    ("family", "--alpha"): ("1,2", "", CURVES),
    ("family", "--n-range"): ("-1:1", "5:1", RANGES),
    ("family", "--i-range"): ("1000:3000:1000", "x", RANGES),
    ("family", "--chi-bridge"): ("-3", "x", INTS),
    ("family", "--chi-nu"): ("-3", "x", INTS),
    ("family", "--format"): ("csv", "json", st.sampled_from(["csv", "txt", "pdf"])),
    ("family", "--out"): ("@OUT", "@MISSING/catalog.txt", None),
    ("verify-graphs", "--v-max"): ("2", "x", st.just("1")),
    ("verify-graphs", "--e-budget"): ("2", "x", st.integers(1, 3).map(str)),
    ("verify-graphs", "--chi-min"): ("0", "x", INTS),
    ("verify-graphs", "--work-budget"): ("0", "x", st.integers(-5, 10**5).map(str)),
}
# subcommand -> (positional strategies, options set in seven runs of eight,
# options set in every run); the fuzz's verify-graphs runs always set
# --v-max 1 and --e-budget <= 3, so that no run is long
COMMANDS = {
    "twist": ([], ("kappa", "alpha"), ()),
    "bounds": ([st.sampled_from(BOUNDS_OPS)], (), ()),
    "plumb": ([], ("genus",), ()),
    "family": ([], ("kappa", "alpha"), ()),
    "verify-graphs": ([], (), ("v-max", "e-budget")),
}
BAD_LINES = st.sampled_from(["no equals sign", "mystery = 1", "= 3", "type = Q"]) | st.text(max_size=12)


def _one_in_eight(draw) -> bool:
    return draw(st.integers(0, 7)) == 0


@st.composite
def invocations(draw, commands):
    """(argv, config text or None) for one of `commands`: each chosen option
    goes to argv as a flag, to the config file as a key, or to both, and one
    file in eight carries a line that is malformed or names no option."""
    command = draw(st.sampled_from(commands))
    positionals, usual, always = COMMANDS[command]
    options = {
        flag[2:]: strategy
        for (name, flag), (_, _, strategy) in OPTIONS.items()
        if name == command and strategy is not None
    }
    keys = list(always) + [key for key in usual if not _one_in_eight(draw)]
    keys += [k for k in draw(st.lists(st.sampled_from(sorted(options)), unique=True)) if k not in keys]
    flags, lines = [], []
    for key in keys:
        value = draw(options[key])
        if key not in always and _one_in_eight(draw):
            value = draw(JUNK)
        where = draw(st.sampled_from(["argv", "config", "both"]))
        if where != "config":
            flags += [f"--{key}", value] if draw(st.booleans()) else [f"--{key}={value}"]
        if where != "argv":
            lines.append(f"{key} = {value}")
    lines += draw(st.lists(st.sampled_from(["# comment", "", "  # x = y"]), max_size=2))
    if _one_in_eight(draw):
        lines.append(draw(BAD_LINES))
    argv = [command] + [draw(s) for s in positionals] + flags
    if _one_in_eight(draw):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-h"])))
    config = "\n".join(draw(st.permutations(lines))) if lines or draw(st.booleans()) else None
    return argv, config


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "knotforge.conf"


def _run_exits_0_1_or_2(config_path, argv, config):
    """Run the CLI; it must exit 0, 1 or 2, and on 2 print `error: ...` or
    an argparse usage line, never a traceback."""
    if config is not None:
        config_path.write_text(config, encoding="utf-8")
        argv = ["--config", str(config_path)] + argv
    code, _, err, _ = _run_captured(argv)
    assert code in (0, 1, 2), (argv, config, err)
    if code == 2:
        assert err.splitlines()[0].startswith(("error: ", "usage: ")), (argv, config, err)


class TestFuzz:
    @settings(max_examples=250, deadline=None)
    @given(invocations(["bounds", "family", "plumb", "twist"]))
    def test_every_run_exits_0_1_or_2(self, config_path, invocation):
        _run_exits_0_1_or_2(config_path, *invocation)

    # every run past the argument checks also enumerates the class-bound
    # cells, which takes about half a second
    @settings(max_examples=8, deadline=None)
    @given(invocations(["verify-graphs"]))
    def test_verify_graphs_runs_exit_0_1_or_2(self, config_path, invocation):
        _run_exits_0_1_or_2(config_path, *invocation)

    @pytest.mark.parametrize(
        "argv", [["plumb", "--genus=--"], ["twist", "--kappa=--"], ["--config=--", "plumb"]]
    )
    def test_option_given_only_a_double_dash_exit_code(self, argv, capsys):
        # argparse parses "--genus=--" as an empty list, not a string
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --")


# --- every option, as a flag and as a config key ------------------------------

def _options():
    """(subcommand, flag) of every option that the parser declares."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action.option_strings[0])
        for command, p in sub.choices.items()
        for action in p._actions
        if action.option_strings and action.dest != "help"
    ]


# the positional arguments and required or cheap options of each subcommand
BASES = {
    "twist": ([[]], {"--kappa": "2,1", "--alpha": "1,1"}),
    "bounds": ([[op] for op in _BOUNDS], {}),
    "plumb": ([[]], {}),
    "family": ([[]], {"--kappa": "2,1", "--alpha": "1,1", "--i-range": "0,3000"}),
    "verify-graphs": ([[]], {"--v-max": "1", "--e-budget": "1"}),
}


class TestFlagConfigEquivalence:
    # driven by the parser, so that an option added later needs an OPTIONS
    # entry, and so is checked here and fuzzed too
    @pytest.mark.parametrize("command, flag", _options())
    def test_flag_and_config_key_agree(self, command, flag, tmp_path):
        assert (command, flag) in OPTIONS, f"no OPTIONS entry for {command} {flag}"
        out_path = tmp_path / "catalog.txt"
        conf = tmp_path / "knotforge.conf"
        positionals, base = BASES[command]
        rest = [token for key, value in base.items() if key != flag for token in (key, value)]
        valid, malformed = (
            value.replace("@OUT", str(out_path)).replace("@MISSING", str(tmp_path / "missing"))
            for value in OPTIONS[command, flag][:2]
        )
        for pos in positionals:
            for value in (valid, malformed):
                conf.write_text(f"{flag[2:]} = {value}\n")
                by_flag = _run_captured([command, *pos, *rest, flag, value], out_path)
                by_config = _run_captured(["--config", str(conf), command, *pos, *rest], out_path)
                if value == valid:
                    assert by_flag[0] in (0, 1), by_flag
                    assert (by_flag[0], by_flag[1], by_flag[3]) == (by_config[0], by_config[1], by_config[3])
                else:
                    for code, out, err, _ in (by_flag, by_config):
                        assert code == 2 and out == "" and "error:" in err, (pos, value, code, err)


class TestEveryGivenOptionIsParsed:
    @pytest.mark.parametrize("op", _BOUNDS)
    def test_malformed_unread_option_exit_code(self, op, tmp_path, capsys):
        # the op reads only some options; a malformed value of any other one
        # is still an error, as a flag and as a config key
        conf = tmp_path / "knotforge.conf"
        for command, flag in _options():
            if command != "bounds":
                continue
            assert cli_main(["bounds", op, f"{flag}=x"]) == 2
            assert capsys.readouterr().err.startswith("error: invalid literal for int()")
            conf.write_text(f"{flag[2:]} = x\n")
            assert cli_main(["--config", str(conf), "bounds", op]) == 2
            assert capsys.readouterr().err.startswith("error: invalid literal for int()")

    @pytest.mark.parametrize("command", ["twist", "family"])
    def test_missing_curve_message(self, command, tmp_path, capsys):
        conf = tmp_path / "knotforge.conf"
        conf.write_text("alpha = 1,1\n")
        for argv in ([command, "--alpha", "1,1"], ["--config", str(conf), command]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: --kappa is required (as a flag or a config key)\n"
            assert captured.out == ""


def main() -> None:
    """Run every CONTRACTS and SLOW_CONTRACTS row through the installed
    knotforge console script, with warnings turned into errors, as
    test_contract runs a row in process: each must exit with its code,
    print its pinned bytes and print nothing to stderr.  Each row's line
    ends with its wall time and peak RSS, and a FAIL line is followed by
    the row's stderr.  On Linux a child's peak includes the runner's peak
    at spawn, so the runner's own peak is printed last: a row at or below
    it says nothing about its command.  Exit 1 if any row differs.  Run it
    with

        PYTHONPATH=tests python -c "import test_cli as t; t.main()"
    """
    failed = 0
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    with tempfile.TemporaryDirectory() as tmp:
        for row in CONTRACTS + SLOW_CONTRACTS:
            # stdout goes to a file hashed in blocks, so that the runner never
            # holds a large output; wait4 reads this child's resource usage
            with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
                dup2 = [(os.POSIX_SPAWN_DUP2, f.fileno(), fd) for fd, f in ((1, out), (2, err))]
                argv = ["knotforge", *row.argv(tmp)]
                start = time.perf_counter()
                _, status, usage = os.wait4(os.posix_spawnp(argv[0], argv, env, file_actions=dup2), 0)
                seconds = time.perf_counter() - start
                sha256 = hashlib.sha256()
                out.seek(0)
                while block := out.read(1 << 20):
                    sha256.update(block)
                err.seek(0)
                stderr = err.read().decode(errors="replace")
            code, digest = os.waitstatus_to_exitcode(status), sha256.hexdigest()
            ok = (code, digest, stderr) == (row.code, row.digest, "")
            peak = f"{usage.ru_maxrss / 1024:.1f} MB"
            print("ok  " if ok else "FAIL", code, digest, row.name, f"({seconds:.2f} s, {peak})")
            print(stderr, end="")  # empty on an ok row
            failed += not ok
    print(f"runner peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    sys.exit(1 if failed else 0)
