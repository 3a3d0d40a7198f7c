"""End-to-end acceptance checks.

Each test covers one headline criterion and prints a single PASS line on
success (run with -s to see them); any failure is a hard assert.
"""

from fractions import Fraction
from math import gcd

import pytest

from knotforge import bounds, catalog, maps, pants, plumbing
from knotforge.torus import TorusCurve, dehn_twist, intersection, normalize
from oracles import DiskBoundScan, lattice_crossing_count, n_strong_scan, read_catalog_csv


def _normal_forms(bound):
    out = []
    for p in range(0, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) == (0, 0) or gcd(p, abs(q)) != 1:
                continue
            c = normalize(p, q)
            if c == TorusCurve(p, q):
                out.append(c)
    return out


def test_criterion_1_twist_family_reproduction():
    for k in range(1, 11):
        alpha = normalize(1, k)
        for n in range(1, 101):
            assert dehn_twist(normalize(0, 1), alpha, n) == TorusCurve(n, k * n + 1)
            assert dehn_twist(normalize(1, k - 1), alpha, n - 1) == normalize(
                n, k * n - 1
            )
    print("criterion 1 PASS: twist families (n, kn+1) and (n, kn-1) reproduced")


def test_criterion_2_intersection_oracle():
    curves = _normal_forms(10)
    mismatches = 0
    for a in curves:
        for b in curves:
            if intersection(a, b) != lattice_crossing_count(a, b):
                mismatches += 1
    assert mismatches == 0
    print(
        f"criterion 2 PASS: intersection = lattice crossings on"
        f" {len(curves) ** 2} pairs, 0 mismatches"
    )


def test_criterion_3_twist_distance_law():
    curves = _normal_forms(10)
    for kappa in curves:
        for alpha in curves:
            d = intersection(kappa, alpha)
            for n in range(-10, 11):
                out = dehn_twist(kappa, alpha, n)
                assert intersection(out, kappa) == abs(n) * d * d, (kappa, alpha, n)
    print("criterion 3 PASS: distance(T^n k, k) = |n| d^2, 0 mismatches")


def test_criterion_4_bound_engine_consistency():
    for chi in range(-1, -21, -1):
        scan = DiskBoundScan(chi)
        for i in range(0, 10**5 + 1):
            assert bounds.disk_hitting_lower_bound(i, chi) == scan.value(i), (i, chi)
    assert bounds.catching_chi(1, 3, 1) == -6
    assert bounds.GAMMA_DISK == -6
    assert bounds.n_strong(-6) == 1296 == n_strong_scan(-6)
    print(
        "criterion 4 PASS: threshold inversion matches disk bound for"
        " |i| <= 1e5, |chi| <= 20; catching chi = -6; n_strong(-6) = 1296"
    )


# the annulus bound at its threshold 216|chi|: (chi, 216|chi|); nothing is
# certified there, and one twist more certifies h_A >= 2
ANNULUS_THRESHOLDS = [(-1, 216), (-2, 432), (-3, 648), (-6, 1296), (-20, 4320)]


@pytest.mark.parametrize("chi, threshold", ANNULUS_THRESHOLDS)
def test_criterion_4_annulus_bound_at_its_threshold(chi, threshold):
    for sign in (1, -1):
        assert bounds.annulus_hitting_lower_bound(sign * threshold, chi) == 0
        assert bounds.annulus_hitting_lower_bound(sign * (threshold + 1), chi) == 2
    print(f"criterion 4 PASS: annulus bound at chi = {chi} is 0 at |i| = {threshold}, 2 past it")


def test_criterion_5_graph_claims():
    report = maps.verify_parallelP(3, 12, -2)
    assert report.counterexamples == ()
    assert {(c.V, c.E) for c in report.cells} == {
        (V, E) for V in range(1, 4) for E in range(1, 13)
    }
    tri = maps.verify_parallel_class_bound()
    assert tri.ok
    assert {r.ideal_chi for r in tri.results} == {-1, -2}
    for r in tri.results:
        assert set(r.class_counts) == {-3 * r.ideal_chi}
    print(
        f"criterion 5 PASS: {report.total_checked} monogon-free maps checked"
        " (remaining cells discharged by degree count), 0 counterexamples;"
        " triangulation arc counts equal -3 chi for chi in {-1, -2}"
    )


def test_criterion_6_plumbing_recursion():
    for g in range(2, 65):
        for pair in (plumbing.eta(g), plumbing.gamma(g)):
            assert pair.genus == g
            assert pair.components == 1
            assert pair.flags.all_true()
            replayed = plumbing.replay(pair.trace())
            assert replayed == pair
            assert replayed.trace() == pair.trace()
    curve, pd = pants.gamma2()
    assert pants.validate(curve, pd)
    assert pants.seamed_level(curve, pd) == 3
    print(
        "criterion 6 PASS: eta/gamma for g <= 64 genus-correct, fully"
        " flagged, traces replay byte-identically; gamma_2 is 3-seamed"
    )


def _assert_row_lemma(row, family):
    """The row lemma in the catalog docstring, on one rendered csv row of
    a certified knot."""
    assert row["error"] == ""
    assert row["seifert"] == (row["tau"] if family == "S" else "n/a(handlebody family)")
    if family == "S":
        assert gcd(*map(int, row["seifert"].strip("()").split(","))) == 1
    flags = {row[c] for c in ("irreducible", "boundary_irreducible", "atoroidal", "anannular")}
    strong_not_exceptional = row["strong"] == "true" and row["exceptional"] == "false"
    assert flags == {row["unique_surgery"]} == {str(strong_not_exceptional).lower()}
    heuristic = int(row["bridge_upper_heuristic"].removesuffix(" (heuristic)"))
    if not row["bridge_lower"].startswith("n/a("):
        assert Fraction(row["bridge_lower"]) <= heuristic
    assert int(row["hbar_D_lower"]) >= 0 and int(row["hbar_A_lower"]) >= 0


def test_criterion_7_certificate_soundness_audit():
    import random

    rng = random.Random(20260823)

    def random_curve():
        while True:
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                return normalize(p, q)

    audited = 0
    while audited < 1000:
        kappa, alpha = random_curve(), random_curve()
        if kappa == alpha:
            continue
        g, family = rng.randint(2, 6), rng.choice("HS")
        n, i = rng.randint(-50, 50), rng.randint(-5000, 5000)
        chi_b = rng.choice([None, -1, -2, -4, -6, -8])
        chi_nu = rng.choice([None, -1, -2, -4, -6, -8])
        # one knot is the 1x1 catalog; its one rendered row must be certified
        knot = (g, family, kappa, alpha, [n], [i], chi_b, chi_nu)
        text = catalog.render_csv(catalog.generate_family(*knot))
        (row,) = read_catalog_csv(text)
        assert (int(row["n"]), int(row["i"])) == (n, i)
        _assert_row_lemma(row, family)
        assert catalog.render_csv(catalog.generate_family(*knot)) == text
        audited += 1

    cat1 = catalog.generate_family(
        2, "S", normalize(3, 2), normalize(1, 1), range(0, 5), range(0, 4000, 500)
    )
    cat2 = catalog.generate_family(
        2, "S", normalize(3, 2), normalize(1, 1), range(0, 5), range(0, 4000, 500)
    )
    assert catalog.render_csv(cat1) == catalog.render_csv(cat2)
    assert catalog.render_txt(cat1) == catalog.render_txt(cat2)
    rows = read_catalog_csv(catalog.render_csv(cat1))
    assert len(rows) == 5 * 8
    for row in rows:
        _assert_row_lemma(row, "S")
    print(
        "criterion 7 PASS: 1000 randomized certificates satisfy the row"
        " lemma; catalogs regenerate byte-identically"
    )


def test_criterion_8_desk_demo():
    kappa, alpha = normalize(2, 1), normalize(1, 1)
    i_values = [1296 * 2, 1296 * 4, 1296 * 8]
    cat = catalog.generate_family(
        2,
        "H",
        kappa,
        alpha,
        n_range=[4752, 5000, 10000, 50000],
        i_range=i_values,
        chi_Q_bridge=-6,
        chi_Q_nu=-6,
    )
    assert not cat.errored
    by_n = {}
    rows = read_catalog_csv(catalog.render_csv(cat))
    assert len(rows) == 4 * 3
    for row in rows:
        assert row["error"] == "" and Fraction(row["bridge_lower"]) >= 5, row
        by_n.setdefault(int(row["n"]), []).append(int(row["hbar_D_lower"]))
    for n, hbars in by_n.items():
        assert hbars == sorted(hbars) and len(set(hbars)) == len(hbars), (n, hbars)
    assert by_n[4752][0] >= 1  # hitting bound informative at i = 2592
    print(
        "criterion 8 PASS: bridge_lower >= 5 for all n >= 4752 and disk"
        " hitting bounds strictly increase along i = 2592, 5184, 10368"
    )
