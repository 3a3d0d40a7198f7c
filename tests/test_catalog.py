from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotforge import bounds, catalog
from knotforge.catalog import (
    Certificate,
    CertificateError,
    ExteriorFlags,
    KnotSpec,
    bridge_upper_heuristic,
    build_certificate,
    generate_family,
    render_csv,
    render_txt,
)
from knotforge.torus import LAMBDA, MU, NU, TorusCurve, dehn_twist, normalize
from oracles import (
    reference_build_certificate,
    reference_generate_family,
    reference_render_csv,
    reference_render_txt,
)


class TestBridgeUpper:
    def test_examples(self):
        assert bridge_upper_heuristic(normalize(1, 1)) == 2
        assert bridge_upper_heuristic(normalize(1, 0)) == 1
        assert bridge_upper_heuristic(normalize(5, 3)) == 8


class TestKnotSpec:
    def test_validation(self):
        with pytest.raises(CertificateError):
            KnotSpec(1, "H", normalize(2, 1), NU, 1, 1)
        with pytest.raises(CertificateError):
            KnotSpec(2, "X", normalize(2, 1), NU, 1, 1)
        with pytest.raises(CertificateError):
            KnotSpec(2, "H", NU, NU, 1, 1)

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
        with pytest.raises(CertificateError, match="not a primitive class in normal form"):
            KnotSpec(2, "H", kappa, alpha, 0, 0)
        cat = generate_family(2, "H", kappa, alpha, [0, 1], [0, 5])
        assert cat.errored
        assert len(cat.rows) == 4
        assert all(r.certificate is None and "normal form" in r.error for r in cat.rows)


class TestBuildCertificate:
    def test_twist_family(self):
        spec = KnotSpec(2, "H", normalize(0, 1), NU, 4, 0)
        cert = build_certificate(spec)
        assert (cert.tau.p, cert.tau.q) == (4, 5)
        assert cert.seifert is None
        assert cert.surgery == "handlebody"

    def test_zero_twist(self):
        spec = KnotSpec(2, "H", normalize(5, 2), NU, 0, 0)
        cert = build_certificate(spec)
        assert cert.tau == normalize(5, 2)
        assert cert.bridge_lower is None

    def test_seifert_family(self):
        spec = KnotSpec(2, "S", normalize(2, 1), NU, 1, 2000)
        cert = build_certificate(spec, chi_Q_nu=-6)
        assert cert.seifert == (3, 2)
        assert cert.strong  # 2000 > 1296
        assert not cert.exceptional
        assert cert.exterior_flags.all_true()
        assert cert.unique_surgery
        assert cert.surgery == "D(3,2)-Seifert + 1 1-handles"

    def test_weak_twisting_blocks_flags(self):
        spec = KnotSpec(2, "S", normalize(2, 1), NU, 1, 10)
        cert = build_certificate(spec, chi_Q_nu=-6)
        assert not cert.strong
        assert not cert.exterior_flags.all_true()
        assert not cert.unique_surgery
        assert cert.bridge_lower is None
        assert "strong" in cert.bridge_lower_reason

    def test_exceptional_blocks_flags(self):
        # tau stays exceptional: kappa=(0,1), alpha=(1,1), n=... tau=(n, n+1)
        spec = KnotSpec(2, "H", normalize(0, 1), NU, 1, 10**6)
        cert = build_certificate(spec, chi_Q_nu=-6)
        assert cert.tau == normalize(1, 2)
        assert cert.exceptional
        assert cert.strong
        assert not cert.exterior_flags.all_true()

    def test_product_disk_alpha_blocks_bridge(self):
        spec = KnotSpec(2, "H", normalize(2, 1), MU, 50, 10**6)
        cert = build_certificate(spec, chi_Q_nu=-6)
        assert cert.bridge_lower is None
        assert "product-disk" in cert.bridge_lower_reason

    def test_bridge_defaults_from_nu_recipe(self):
        # kappa=(2,1): chi = -2 - 1 = -3, so bound = n/216 - 2
        spec = KnotSpec(2, "H", normalize(2, 1), NU, 2160, 10**6)
        cert = build_certificate(spec, chi_Q_nu=-6)
        assert cert.bridge_lower == Fraction(2160, 216) - 2

    def test_non_nu_alpha_needs_explicit_chi(self):
        spec = KnotSpec(3, "H", normalize(5, 1), normalize(1, 2), 100, 10**6)
        cert = build_certificate(spec, chi_Q_nu=-6)
        assert cert.bridge_lower is None
        assert "i-uniform" in cert.bridge_lower_reason
        cert = build_certificate(spec, chi_Q_bridge=-6, chi_Q_nu=-6)
        assert cert.bridge_lower is not None

    def test_hitting_bounds_default_chi(self):
        spec = KnotSpec(2, "H", normalize(2, 1), NU, 1, 2592)
        cert = build_certificate(spec, chi_Q_nu=-6)
        assert cert.hbar_D_lower == 11
        assert cert.hbar_A_lower == 4

    def test_inconsistent_certificate_rejected(self):
        with pytest.raises(CertificateError):
            Certificate(
                tau=normalize(1, 0),
                exceptional=True,
                seifert=None,
                surgery="handlebody",
                bridge_lower=Fraction(5),
                bridge_lower_reason="",
                bridge_upper_heuristic=1,
                hbar_D_lower=0,
                hbar_A_lower=0,
                strong=False,
                exterior_flags=ExteriorFlags(False, False, False, False),
                unique_surgery=False,
            )

    def test_flag_implication_guarded(self):
        with pytest.raises(CertificateError):
            Certificate(
                tau=normalize(1, 0),
                exceptional=True,
                seifert=None,
                surgery="handlebody",
                bridge_lower=None,
                bridge_lower_reason="x",
                bridge_upper_heuristic=1,
                hbar_D_lower=0,
                hbar_A_lower=0,
                strong=True,
                exterior_flags=ExteriorFlags(True, True, True, True),
                unique_surgery=True,
            )


class TestGenerateFamily:
    def test_rows_sorted_and_complete(self):
        cat = generate_family(
            2, "H", normalize(2, 1), NU, n_range=[3, 1, 2], i_range=[10, 5]
        )
        assert [(r.n, r.i) for r in cat.rows] == [
            (1, 5),
            (1, 10),
            (2, 5),
            (2, 10),
            (3, 5),
            (3, 10),
        ]
        assert not cat.errored

    def test_empty_range(self):
        cat = generate_family(2, "H", normalize(2, 1), NU, [], [])
        assert cat.rows == ()

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
        assert all(r.certificate is None for r in cat.rows)
        assert cat.statements == ()
        assert "statement" not in render_txt(cat) + render_csv(cat)

    def test_error_rows_kept(self):
        # n = 0 with kappa = alpha-translate... use kappa equal to alpha to error
        cat = generate_family(2, "H", NU, NU, [0], [1, 2])
        assert len(cat.rows) == 2
        assert cat.errored
        assert all(r.certificate is None and r.error for r in cat.rows)

    def test_hbar_monotone_in_i(self):
        cat = generate_family(
            2, "H", normalize(2, 1), NU, [1], [0, 500, 5000, 50000], chi_Q_nu=-6
        )
        values = [r.certificate.hbar_D_lower for r in cat.rows]
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
        assert text.count("tau=") == len(cat.rows)

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
    @settings(max_examples=400, deadline=None)
    def test_rows_errored_and_renderings(self, grid):
        cat = generate_family(*grid)
        ref = reference_generate_family(*grid)
        assert cat.rows == ref.rows
        assert cat.errored == ref.errored
        assert cat.statements == ref.statements
        assert render_csv(cat) == reference_render_csv(ref)
        assert render_txt(cat) == reference_render_txt(ref)

    def test_guard_grid_fires(self):
        cat = generate_family(*GUARD_GRID)
        errors = [row.error for row in cat.rows if row.error]
        assert len(errors) == 2
        assert all("exceeds the heuristic upper bound" in e for e in errors)
        assert cat.errored

    @given(
        st.integers(2, 5),
        st.sampled_from(["H", "S"]),
        RAW_CURVES,
        RAW_CURVES,
        st.integers(-1300, 1300),
        st.integers(-3000, 3000),
        CHIS,
        CHIS,
    )
    @example(2, "S", normalize(1000, 999), NU, -1000, 300, -1, -1)
    @settings(max_examples=300, deadline=None)
    def test_build_certificate_is_the_one_cell_catalog(
        self, g, family, kappa, alpha, n, i, chi_bridge, chi_nu
    ):
        chis = (chi_bridge, chi_nu)
        (row,) = generate_family(g, family, kappa, alpha, [n], [i], *chis).rows
        try:
            spec = KnotSpec(g, family, kappa, alpha, n, i)
        except CertificateError as exc:
            assert str(exc) == row.error
            assert row.certificate is None
            return
        try:
            expected = reference_build_certificate(spec, *chis)
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc)) as info:
                build_certificate(spec, *chis)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc) == row.error
            assert row.certificate is None
        else:
            assert build_certificate(spec, *chis) == expected == row.certificate
            assert row.error == ""

    def test_errored_does_not_build_rows(self, monkeypatch):
        cat = generate_family(2, "H", normalize(2, 1), NU, range(50), range(50))
        monkeypatch.setattr(catalog, "CatalogRow", None)
        monkeypatch.setattr(catalog, "Certificate", None)
        assert not cat.errored


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
            chi_Q_nu = bounds.catching_chi(bounds.nu_recipe(kappa))
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
        assert len(cat.rows) == 5000
        assert {(row.certificate, row.error) for row in cat.rows} == {
            (None, "a catching surface with chi(Q) < 0 is required")
        }
        assert cat.errored
