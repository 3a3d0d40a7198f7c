import argparse

import pytest

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

    @pytest.mark.parametrize("flag, text", [("--n-range", "5:1"), ("--i-range", "3:0:2")])
    def test_empty_grid_exit_code(self, capsys, flag, text):
        argv = ["family", "--kappa", "2,1", "--alpha", "1,1", "--n-range", "1:2", "--i-range", "0:0"]
        argv[argv.index(flag) + 1] = text
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: empty range")
        assert captured.out == ""

    def test_desk_demo_catalog(self, capsys):
        # the default hitting chi is bounds.GAMMA_DISK = -6, as in the demo
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
            chi_Q_hit=-6,
        )
        assert code == 0
        assert capsys.readouterr().out == render_csv(demo)


class TestVerifyGraphs:
    def test_small_run(self, capsys):
        code = main(
            ["verify-graphs", "--v-max", "1", "--e-budget", "4", "--chi-min", "-2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "counterexamples: 0" in out
        assert "arc-class bound" in out

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
