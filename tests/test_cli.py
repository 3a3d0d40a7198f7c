import argparse
import contextlib
import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforge.catalog import generate_family, render_csv, render_txt
from knotforge.cli import load_config, main, parse_curve, parse_range
from knotforge.torus import normalize


class TestParsers:
    def test_parse_curve(self):
        assert parse_curve("-3,2").p == 3

    def test_parse_range(self):
        assert parse_range("1:4") == [1, 2, 3, 4]
        assert parse_range("0:10:5") == [0, 5, 10]
        assert parse_range("7,3,5") == [7, 3, 5]
        assert parse_range("5:5") == [5]

    @pytest.mark.parametrize("text", ["5:1", "0:-1", "3:2:4"])
    def test_empty_range_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="empty range"):
            parse_range(text)

    def test_load_config(self, tmp_path):
        path = tmp_path / "knotforge.conf"
        path.write_text("# defaults\nkappa = 2,1\nn-range = 1:3\n")
        assert load_config(str(path)) == {"kappa": "2,1", "n_range": "1:3"}


class TestTwist:
    def test_output(self, capsys):
        code = main(["twist", "--kappa", "0,1", "--alpha", "1,1", "--n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau = (4,5)" in out

    def test_config_preload_and_override(self, tmp_path, capsys):
        conf = tmp_path / "c"
        conf.write_text("kappa = 0,1\nalpha = 1,1\nn = 4\n")
        code = main(["--config", str(conf), "twist", "--n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau = (1,2)" in out  # flag n=1 overrides config n=4

    @pytest.mark.parametrize("text", [None, "kappa 0,1\nalpha = 1,1\n"])
    def test_missing_or_malformed_config_exit_code(self, text, tmp_path, capsys):
        conf = tmp_path / "c"
        if text is not None:
            conf.write_text(text)
        assert main(["--config", str(conf), "twist", "--kappa", "0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

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
        assert main(argv) == 2
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
        assert main(joined) == 0
        expected = capsys.readouterr().out
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""

    def test_other_dash_tokens_stay_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["twist", "--kappa", "-x", "--alpha", "1,1"])
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
        assert main(["--config", str(conf), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_valid_choice_accepted(self, tmp_path, capsys):
        conf = tmp_path / "c"
        conf.write_text("type = S\nformat = csv\nn-range = 1:2\n")
        assert main(["--config", str(conf), *self.FAMILY]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "knotforge-catalog v1"
        assert out[1].startswith("g=2,family=S,")

    def test_calls_do_not_share_state(self, tmp_path, capsys):
        # the parser is built once per process; no call may change it
        conf = tmp_path / "c"
        conf.write_text("format = csv\n")
        assert main([*self.FAMILY, "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert main(["--config", str(conf), *self.FAMILY]) == 0
        assert capsys.readouterr().out == csv_out
        assert main(self.FAMILY) == 0
        txt_out = capsys.readouterr().out
        assert txt_out != csv_out
        assert txt_out == render_txt(
            generate_family(2, "H", normalize(2, 1), normalize(1, 1), [0], [0])
        )


class TestBounds:
    def test_disk(self, capsys):
        assert main(["bounds", "disk", "--i", "1000", "--chi", "-6"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_n_strong(self, capsys):
        assert main(["bounds", "n-strong", "--chi", "-6"]) == 0
        assert capsys.readouterr().out.strip() == "1296"

    def test_bridge(self, capsys):
        assert main(["bounds", "bridge", "--n", "4320", "--chi", "-6", "--genus", "2"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_threshold(self, capsys):
        assert main(["bounds", "threshold", "--chi", "-6"]) == 0
        assert capsys.readouterr().out.strip() == "432"

    def test_bad_chi_exit_code(self, capsys):
        assert main(["bounds", "disk", "--i", "10", "--chi", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPlumb:
    def test_gamma_trace(self, capsys):
        assert main(["plumb", "--construction", "gamma", "--genus", "4"]) == 0
        out = capsys.readouterr().out
        assert "genus=4" in out
        assert "base gamma2" in out

    def test_eta(self, capsys):
        assert main(["plumb", "--construction", "eta", "--genus", "3"]) == 0
        out = capsys.readouterr().out
        assert "components=1" in out


class TestFamily:
    def test_stdout_txt(self, capsys):
        code = main(
            [
                "family",
                "--genus", "2",
                "--type", "S",
                "--kappa", "2,1",
                "--alpha", "1,1",
                "--n-range", "1:2",
                "--i-range", "2000,10",
                "--chi-nu", "-6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "knotforge-catalog v1" in out
        assert "seifert=(3,2)" in out

    def test_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "fam.csv"
        code = main(
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

    def test_errored_rows_set_exit_code(self, capsys):
        code = main(
            [
                "family",
                "--genus", "2",
                "--type", "H",
                "--kappa", "1,1",
                "--alpha", "1,1",
                "--n-range", "0:0",
                "--i-range", "0:0",
            ]
        )
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize(
        "request_args",
        [
            ["--kappa", "2,1", "--alpha", "2,1"],
            ["--genus", "1", "--kappa", "2,1", "--alpha", "1,1"],
        ],
    )
    def test_rejected_request_prints_no_statement(self, capsys, request_args):
        code = main(["family", *request_args, "--n-range", "1", "--i-range", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "error=" in out
        assert "statement" not in out

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("txt", "6b9c18c384d37e5d6c9967e2f4145a54a917c6decd1db9b8db33b31dc737aceb"),
            ("csv", "040a7d977c444629c38e68cbaae2bfaeecbe5598d02591124b6fc150cab92620"),
        ],
    )
    def test_mixed_verdict_bytes_pinned(self, capsys, fmt, digest):
        # an accepted request whose bridge chi is >= 0: only the strong rows
        # (i = 5000 > 216 * 3) err, the weak ones are certified
        argv = (
            "family --kappa 2,1 --alpha 1,1 --chi-bridge 0"
            f" --n-range 0:1 --i-range 0,5000 --format {fmt}"
        )
        assert main(argv.split()) == 1
        out = capsys.readouterr().out
        rows = out.splitlines()[-4:]
        erred = [row for row in rows if "a catching surface with chi(Q) < 0 is required" in row]
        assert len(erred) == 2
        assert all("5000" in row for row in erred)
        assert all("5000" not in row for row in rows if row not in erred)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flag, text", [("--n-range", "5:1"), ("--i-range", "3:0:2")])
    def test_empty_grid_exit_code(self, capsys, flag, text):
        argv = ["family", "--kappa", "2,1", "--alpha", "1,1", "--n-range", "1:2", "--i-range", "0:0"]
        argv[argv.index(flag) + 1] = text
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: empty range")
        assert captured.out == ""

    def test_desk_demo_catalog(self, capsys):
        # the hitting chi is bounds.GAMMA_DISK = -6, as in the demo
        code = main(
            [
                "family",
                "--genus", "2",
                "--type", "H",
                "--kappa", "2,1",
                "--alpha", "1,1",
                "--n-range", "4752,5000,10000",
                "--i-range", "2592,5184,10368",
                "--chi-bridge", "-6",
                "--chi-nu", "-6",
                "--format", "csv",
            ]
        )
        demo = generate_family(
            g=2,
            family="H",
            kappa=normalize(2, 1),
            alpha=normalize(1, 1),
            n_range=[4752, 5000, 10000],
            i_range=[2592, 5184, 10368],
            chi_Q_bridge=-6,
            chi_Q_nu=-6,
        )
        assert code == 0
        assert capsys.readouterr().out == render_csv(demo)

    def test_desk_demo_catalog_bytes_pinned(self, capsys):
        # the README's desk-demo command; CI runs it through the console script
        argv = (
            "family --genus 2 --type H --kappa 2,1 --alpha 1,1"
            " --n-range 4752,5000,10000 --i-range 2592,5184,10368"
            " --chi-bridge -6 --chi-nu -6 --format csv"
        )
        assert main(argv.split()) == 0
        out = capsys.readouterr().out
        digest = "23b78c6453961b4a01c87e9b081010648598ec1d1618d906622f6a13013ca686"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyGraphs:
    def test_small_run(self, capsys):
        code = main(
            ["verify-graphs", "--v-max", "1", "--e-budget", "4", "--chi-min", "-2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "counterexamples: 0" in out
        assert "arc-class bound" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "c69ebaee0a43f76c846cb088aa62f2ba06fa0368d58ab811e1dbb962a730f53d"),
            (
                ["--v-max", "2", "--e-budget", "6"],
                "1e8084d5e9a135de48dc56db7cb0825e246fe1015d33d18110611dcb65e5dfb6",
            ),
        ],
    )
    def test_report_bytes_pinned(self, argv, digest, capsys):
        assert main(["verify-graphs", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_empty_range_exit_code(self, capsys):
        assert main(["verify-graphs", "--v-max", "0", "--e-budget", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_chi_above_the_sphere_exit_code(self, capsys):
        argv = ["verify-graphs", "--v-max", "1", "--e-budget", "2", "--chi-min", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_negative_work_budget_exit_code(self, capsys):
        argv = ["verify-graphs", "--v-max", "1", "--e-budget", "2", "--work-budget", "-5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: work_budget")
        assert captured.out == ""

    def test_zero_work_budget_is_valid(self, capsys):
        argv = ["verify-graphs", "--v-max", "1", "--e-budget", "2", "--work-budget", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[degree-count]" in out and "[enumerated]" not in out


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
BOUNDS_OPS = ["disk", "annulus", "bridge", "n-strong", "parallel-classes", "edges-threshold",
              "threshold", "mystery"]
BOUNDS_KEYS = ("i", "chi", "n", "genus", "vertices", "f-k", "f-l", "f-m", "chi-f-hat", "delta-k")
# subcommand -> (positional strategies, {option: value strategy}, options set
# in seven runs of eight, options set in every run); verify-graphs always
# sets --v-max 1 and --e-budget <= 3, so that no run is long
COMMANDS = {
    "twist": (
        [],
        {"kappa": CURVES, "alpha": CURVES, "n": st.integers(-10**6, 10**6).map(str)},
        ("kappa", "alpha"),
        (),
    ),
    "bounds": ([st.sampled_from(BOUNDS_OPS)], {key: INTS for key in BOUNDS_KEYS}, (), ()),
    "plumb": (
        [],
        {"construction": st.sampled_from(["eta", "gamma", "delta"]),
         "genus": st.integers(-2, 64).map(str)},
        ("genus",),
        (),
    ),
    "family": (
        [],
        {"genus": st.integers(-1, 5).map(str), "type": st.sampled_from(["H", "S", "Q"]),
         "kappa": CURVES, "alpha": CURVES, "n-range": RANGES, "i-range": RANGES,
         "chi-bridge": INTS, "chi-nu": INTS, "format": st.sampled_from(["csv", "txt", "pdf"])},
        ("kappa", "alpha"),
        (),
    ),
    "verify-graphs": (
        [],
        {"v-max": st.just("1"), "e-budget": st.integers(1, 3).map(str),
         "chi-min": INTS, "work-budget": st.integers(-5, 10**5).map(str)},
        (),
        ("v-max", "e-budget"),
    ),
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
    positionals, options, usual, always = COMMANDS[command]
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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and -h
            code = exc.code
    assert code in (0, 1, 2), (argv, config, err.getvalue())
    if code == 2:
        first = err.getvalue().splitlines()[0]
        assert first.startswith(("error: ", "usage: ")), (argv, config, err.getvalue())


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
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --")
