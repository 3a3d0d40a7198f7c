import re
import textwrap
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotforge import bounds, catalog
from knotforge.catalog import bridge_upper_heuristic, generate_family, render_csv, render_txt
from knotforge.torus import LAMBDA, MU, NU, TorusCurve, dehn_twist, intersection, normalize
from oracles import (
    read_catalog_csv,
    reference_generate_family,
    reference_render_csv,
    reference_render_txt,
)


class TestBridgeUpper:
    def test_examples(self):
        assert bridge_upper_heuristic(normalize(1, 1)) == 2
        assert bridge_upper_heuristic(normalize(1, 0)) == 1
        assert bridge_upper_heuristic(normalize(5, 3)) == 8


FLAGS = ("irreducible", "boundary_irreducible", "atoroidal", "anannular")


def csv_rows(cat) -> list[dict[str, str]]:
    return read_catalog_csv(render_csv(cat))


def one_knot(g, family, kappa, alpha, n, i, chi_Q_bridge=None, chi_Q_nu=None) -> dict[str, str]:
    """The certificate of one knot: the one rendered csv row of its 1x1
    catalog, which must not be an error row."""
    (row,) = csv_rows(generate_family(g, family, kappa, alpha, [n], [i], chi_Q_bridge, chi_Q_nu))
    assert row["error"] == ""
    return row


class TestKnotSpec:
    """The request check, read from 1x1 catalogs: a rejected knot's row
    holds the check's message and no certificate."""

    def test_validation(self):
        for g, family, kappa, message in [
            (1, "H", normalize(2, 1), "knot specs need g >= 2"),
            (2, "X", normalize(2, 1), "family must be 'H' or 'S'"),
            (2, "H", NU, "kappa and alpha must be distinct classes"),
        ]:
            (row,) = csv_rows(generate_family(g, family, kappa, NU, [1], [1]))
            assert (row["tau"], row["error"]) == ("n/a(row error)", message)

    @pytest.mark.parametrize(
        "kappa,alpha",
        [
            (TorusCurve(2, 4), NU),
            (TorusCurve(0, 0), NU),
            (normalize(2, 1), TorusCurve(0, -1)),
            (normalize(2, 1), TorusCurve(-1, -1)),
        ],
    )
    def test_non_normal_form_curves_rejected(self, kappa, alpha):
        # twists of these would raise, or depend on the sign of the lift
        (row,) = csv_rows(generate_family(2, "H", kappa, alpha, [0], [0]))
        assert row["tau"] == "n/a(row error)"
        assert row["error"].endswith("is not a primitive class in normal form")
        cat = generate_family(2, "H", kappa, alpha, [0, 1], [0, 5])
        assert cat.errored
        rows = csv_rows(cat)
        assert len(rows) == 4
        assert all(r["tau"] == "n/a(row error)" and "normal form" in r["error"] for r in rows)


class TestBuildCertificate:
    """Certificates of single knots, each the one row of a 1x1 catalog, and
    the bridge guard at its boundary."""

    def test_twist_family(self):
        cert = one_knot(2, "H", normalize(0, 1), NU, 4, 0)
        assert cert["tau"] == "(4,5)"
        assert cert["seifert"] == "n/a(handlebody family)"
        assert cert["surgery"] == "handlebody"

    def test_zero_twist(self):
        cert = one_knot(2, "H", normalize(5, 2), NU, 0, 0)
        assert cert["tau"] == str(normalize(5, 2))
        assert cert["bridge_lower"].startswith("n/a(")

    def test_seifert_family(self):
        cert = one_knot(2, "S", normalize(2, 1), NU, 1, 2000, chi_Q_nu=-6)
        assert cert["seifert"] == "(3,2)"
        assert cert["strong"] == "true"  # 2000 > 1296
        assert cert["exceptional"] == "false"
        assert all(cert[flag] == "true" for flag in FLAGS)
        assert cert["unique_surgery"] == "true"
        assert cert["surgery"] == "D(3,2)-Seifert + 1 1-handles"

    def test_weak_twisting_blocks_flags(self):
        cert = one_knot(2, "S", normalize(2, 1), NU, 1, 10, chi_Q_nu=-6)
        assert cert["strong"] == "false"
        assert not all(cert[flag] == "true" for flag in FLAGS)
        assert cert["unique_surgery"] == "false"
        assert cert["bridge_lower"].startswith("n/a(")
        assert "strong" in cert["bridge_lower"]

    def test_exceptional_blocks_flags(self):
        # tau stays exceptional: kappa=(0,1), alpha=(1,1), n=... tau=(n, n+1)
        cert = one_knot(2, "H", normalize(0, 1), NU, 1, 10**6, chi_Q_nu=-6)
        assert cert["tau"] == str(normalize(1, 2))
        assert cert["exceptional"] == "true"
        assert cert["strong"] == "true"
        assert not all(cert[flag] == "true" for flag in FLAGS)

    def test_product_disk_alpha_blocks_bridge(self):
        cert = one_knot(2, "H", normalize(2, 1), MU, 50, 10**6, chi_Q_nu=-6)
        assert cert["bridge_lower"].startswith("n/a(")
        assert "product-disk" in cert["bridge_lower"]

    def test_bridge_defaults_from_nu_recipe(self):
        # kappa=(2,1): chi = -2 - 1 = -3, so bound = n/216 - 2
        cert = one_knot(2, "H", normalize(2, 1), NU, 2160, 10**6, chi_Q_nu=-6)
        assert Fraction(cert["bridge_lower"]) == Fraction(2160, 216) - 2

    def test_non_nu_alpha_needs_explicit_chi(self):
        knot = (3, "H", normalize(5, 1), normalize(1, 2), 100, 10**6)
        cert = one_knot(*knot, chi_Q_nu=-6)
        assert cert["bridge_lower"].startswith("n/a(")
        assert "i-uniform" in cert["bridge_lower"]
        cert = one_knot(*knot, chi_Q_bridge=-6, chi_Q_nu=-6)
        assert not cert["bridge_lower"].startswith("n/a(")

    def test_hitting_bounds_default_chi(self):
        cert = one_knot(2, "H", normalize(2, 1), NU, 1, 2592, chi_Q_nu=-6)
        assert cert["hbar_D_lower"] == "11"
        assert cert["hbar_A_lower"] == "4"

    @pytest.mark.parametrize(
        "excess, rejected", [(Fraction(0), False), (Fraction(1, 2), True), (Fraction(1, 72), True)]
    )
    def test_bridge_guard_at_its_boundary(self, excess, rejected):
        # the bridge lower bound may reach the heuristic upper bound, not pass
        # it: tau = (N, N-1) - N (1,1) = (0,1) has heuristic 1, and with
        # chi = -1 the bound at n = -N is (N - 144)/72 = 1 + excess
        N = 216 + int(72 * excess)
        cat = generate_family(2, "H", normalize(N, N - 1), NU, [-N], [10**6], -1, -1)
        (row,) = csv_rows(cat)
        if rejected:
            assert row["tau"] == "n/a(row error)"
            assert row["error"] == (
                f"bridge lower bound {1 + excess} exceeds the heuristic upper bound 1"
            )
        else:
            assert row["error"] == ""
            assert (row["bridge_lower"], row["bridge_upper_heuristic"]) == ("1", "1 (heuristic)")


def test_readme_example():
    # README's python block runs as printed and renders the knot's row
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(textwrap.dedent(block), namespace)
    (row,) = [line for line in namespace["text"].splitlines() if line.startswith("n=")]
    assert "seifert=(3,2)" in row.split()


class TestGenerateFamily:
    def test_rows_sorted_and_complete(self):
        cat = generate_family(
            2, "H", normalize(2, 1), NU, n_range=[3, 1, 2], i_range=[10, 5]
        )
        assert [(int(r["n"]), int(r["i"])) for r in csv_rows(cat)] == [
            (1, 5),
            (1, 10),
            (2, 5),
            (2, 10),
            (3, 5),
            (3, 10),
        ]
        assert not cat.errored

    @pytest.mark.parametrize(
        "values", [range(1, 6, 2), range(5, 0, -2), [5, 3, 1, 3], (1, 3, 5)], ids=repr
    )
    def test_ranges_and_lists_give_the_same_catalog(self, values):
        # a positive-step range is kept as given; anything else is sorted
        # and deduplicated first
        cat = generate_family(2, "H", normalize(2, 1), NU, values, values)
        ref = generate_family(2, "H", normalize(2, 1), NU, [1, 3, 5], [1, 3, 5])
        assert cat == ref and render_csv(cat) == render_csv(ref)

    def test_empty_range(self):
        cat = generate_family(2, "H", normalize(2, 1), NU, [], [])
        assert cat.n_column == cat.i_column == ()
        assert csv_rows(cat) == []

    def test_distinctness_statement(self):
        cat = generate_family(2, "H", normalize(2, 1), NU, [1], [1])
        assert any("unbounded" in s for s in cat.statements)
        cat = generate_family(2, "H", normalize(2, 1), MU, [1], [1])
        assert cat.statements == ()

    @pytest.mark.parametrize(
        "g, kappa, alpha",
        [
            (2, normalize(2, 1), normalize(2, 1)),
            (1, normalize(2, 1), NU),
            (2, normalize(2, 1), TorusCurve(0, -1)),
        ],
    )
    def test_rejected_request_makes_no_statement(self, g, kappa, alpha):
        cat = generate_family(g, "H", kappa, alpha, [1], [1])
        assert cat.errored
        assert all(r["tau"] == "n/a(row error)" and r["error"] for r in csv_rows(cat))
        assert cat.statements == ()
        assert "statement" not in render_txt(cat) + render_csv(cat)

    def test_error_rows_kept(self):
        # n = 0 with kappa = alpha-translate... use kappa equal to alpha to error
        cat = generate_family(2, "H", NU, NU, [0], [1, 2])
        rows = csv_rows(cat)
        assert len(rows) == 2
        assert cat.errored
        assert all(r["tau"] == "n/a(row error)" and r["error"] for r in rows)

    def test_hbar_monotone_in_i(self):
        cat = generate_family(
            2, "H", normalize(2, 1), NU, [1], [0, 500, 5000, 50000], chi_Q_nu=-6
        )
        values = [int(r["hbar_D_lower"]) for r in csv_rows(cat)]
        assert values == sorted(values)


class TestRendering:
    def _catalog(self):
        return generate_family(
            2, "S", normalize(2, 1), NU, [0, 1], [10, 2000], chi_Q_nu=-6
        )

    def test_deterministic_bytes(self):
        a, b = self._catalog(), self._catalog()
        assert render_csv(a) == render_csv(b)
        assert render_txt(a) == render_txt(b)

    def test_csv_schema_and_tokens(self):
        text = render_csv(self._catalog())
        assert text.startswith(catalog.SCHEMA)
        assert "n/a(" in text  # uncertified fields are explicit
        assert "(heuristic)" in text

    def test_txt_has_all_rows(self):
        cat = self._catalog()
        text = render_txt(cat)
        assert text.count("tau=") == len(cat.n_column) * len(cat.i_column) == 4

    def test_error_row_rendering(self):
        cat = generate_family(2, "H", NU, NU, [0], [1])
        text = render_csv(cat)
        assert "n/a(row error)" in text


def _primitive(coordinate):
    return (
        st.tuples(coordinate, coordinate)
        .filter(lambda pq: gcd(abs(pq[0]), abs(pq[1])) == 1)
        .map(lambda pq: normalize(*pq))
    )


CURVES = st.one_of(
    st.sampled_from([MU, LAMBDA, NU, normalize(-1, 1), normalize(1, 2), normalize(2, 1)]),
    _primitive(st.integers(-9, 9)),
    _primitive(st.integers(-1200, 1200)),
)
# also curves that bypass normalize, such as (0,0), (2,4) and (-1,0), which the
# request check rejects
RAW_CURVES = st.one_of(CURVES, st.builds(TorusCurve, st.integers(-4, 4), st.integers(-4, 4)))
CHIS = st.one_of(st.none(), st.integers(-8, 2))
N_VALUES = st.lists(st.one_of(st.integers(-30, 30), st.integers(-1300, 1300)), max_size=7)
# around the strong thresholds 216 |chi| and the informative hitting ranges
I_VALUES = st.lists(
    st.one_of(
        st.integers(-3000, 3000),
        st.sampled_from([0, 216, 217, 432, 433, 648, 649, 1296, 1297, 2592, 5184]),
    ),
    max_size=7,
)


@st.composite
def family_requests(draw):
    kappa = draw(RAW_CURVES)
    return (
        draw(st.integers(0, 5)),
        draw(st.sampled_from(["H", "S", "X"])),
        kappa,
        draw(st.one_of(RAW_CURVES, st.just(kappa))),
        draw(N_VALUES),
        draw(I_VALUES),
        draw(CHIS),
        draw(CHIS),
    )


# tau = (1000,999) + n (1,1) reaches (0,1) and (1,0) at n = -1000, -999, so with
# chi_Q_bridge = -1 the bridge bound exceeds the heuristic upper bound there
GUARD_GRID = (2, "S", normalize(1000, 999), NU, [5, -999, -1000, 5], [300, 0], -1, -1)


class TestColumnarCatalogMatchesRowOracle:
    @given(family_requests())
    @example(GUARD_GRID)
    @example((2, "H", normalize(2, 1), NU, [3, 1], [], None, None))
    @example((2, "H", normalize(2, 1), NU, [], [5], None, None))
    # rejected requests with no rows are not errored
    @example((2, "H", normalize(2, 1), NU, [], [5], None, 0))
    @example((2, "H", normalize(2, 1), NU, [3, 1], [], None, 0))
    # rows that the spec check rejects
    @example((1, "H", normalize(2, 1), NU, [0, 1], [0, 5000], None, None))
    # each fragment shape of the renderers' format strings, every run:
    # an S family (quoted seifert and surgery) with n < 0 and a Fraction bridge
    @example((3, "S", normalize(2, 1), NU, [-649, -652], [0, 649], None, None))
    # an exceptional tau, (0,1) at n = -2, on a strong row
    @example((2, "S", normalize(2, 1), NU, [-2, 1], [0, 700], None, None))
    # a product-disk alpha
    @example((2, "S", normalize(2, 1), MU, [1, 2], [5000], None, None))
    # an "other" alpha without chi_Q_bridge: not i-uniform
    @example((3, "H", normalize(3, 1), normalize(1, 2), [0, 1], [0, 5000], None, None))
    # error cells that csv.writer must quote (a comma) and that hold quotes
    @example((2, "H", TorusCurve(2, 4), NU, [0, 1], [0, 5000], None, None))
    @example((2, "X", normalize(2, 1), NU, [0, 1], [0, 5000], None, None))
    # a rejected request with several n values: one error text on every line
    @example((2, "H", normalize(2, 1), NU, [0, 3, -1, 7], [0, 5000], None, 0))
    @settings(max_examples=400, deadline=None)
    def test_rows_errored_and_renderings(self, grid):
        cat = generate_family(*grid)
        ref = reference_generate_family(*grid)
        assert cat.errored == ref.errored
        assert cat.statements == ref.statements
        assert render_csv(cat) == reference_render_csv(ref)
        assert render_txt(cat) == reference_render_txt(ref)

    def test_guard_grid_fires(self):
        cat = generate_family(*GUARD_GRID)
        errors = [row["error"] for row in csv_rows(cat) if row["error"]]
        assert len(errors) == 2
        assert all("exceeds the heuristic upper bound" in e for e in errors)
        assert cat.errored


class TestVerdictLemma:
    @given(family_requests())
    @example((2, "H", normalize(2, 1), NU, [1, 2], [5, 3000], None, 0))
    # chi_Q_bridge >= 0: the strong rows err, the weak ones do not
    @example((2, "H", normalize(2, 1), NU, [0, 40], [-3, 0, 216, 217, 5000], 1, -1))
    @example(GUARD_GRID)
    @settings(max_examples=400, deadline=None)
    def test_row_oracle_errors_are_the_requests_or_strong(self, grid):
        # either every row carries one and the same error (the request's), or
        # only strong rows err; checked on the row oracle alone
        rows = reference_generate_family(*grid).rows
        if all(row.error for row in rows) and len({row.error for row in rows}) <= 1:
            return
        kappa, chi_Q_nu = grid[2], grid[7]
        if chi_Q_nu is None:
            chi_Q_nu = -2 - intersection(kappa, NU)
        threshold = bounds.n_strong(chi_Q_nu)
        assert all(abs(row.i) > threshold for row in rows if row.error)

    @pytest.mark.parametrize("chis", [(None, 0)])
    def test_rejected_request_makes_no_twist(self, monkeypatch, chis):
        calls = []

        def counted(*args):
            calls.append(args)
            return dehn_twist(*args)

        monkeypatch.setattr(catalog, "dehn_twist", counted)
        cat = generate_family(2, "H", normalize(2, 1), NU, range(100), range(50), *chis)
        assert calls == []
        rows = csv_rows(cat)
        assert len(rows) == 5000
        assert {(row["tau"], row["error"]) for row in rows} == {
            ("n/a(row error)", "a catching surface with chi(Q) < 0 is required")
        }
        assert cat.errored
