"""Acceptance suite.

One test per acceptance criterion, in order; run with -v to get a
pass/fail line per criterion.  The desk-scale pipeline (criterion 8) runs
once and is shared, also by the check that the window scan of
tests/window_scan.py finds the same rows at that bound, which is the
slowest test here.
"""

import hashlib
import random

import pytest

from buchi4 import factorint, families
from buchi4.curves import curve_rhs, is_squarefree, scan_integer_points
from buchi4.families import (
    F_POLY,
    NonIntegral,
    classify,
    extends_left,
    extends_right,
    p_eval,
    p_family,
    prop33_solve,
    r_family,
    thirds_family,
    verify_classification,
    xi_closed_form,
    xi_eval,
    xi_poly,
)
from buchi4.maps import (
    apply_zeta,
    as_int_point,
    pell_point,
    zeta_orbit,
)
from buchi4.poly import UPoly
from buchi4.search import (
    SearchRecord,
    bundled_table,
    compare_with_table,
    enumerate_sequences,
    records_csv,
    run_pipeline,
)
from buchi4.verify import (
    growth_check,
    symmetry_check,
    verify_families,
    verify_group_relations,
)

from test_families import XI1, XI2, XI3
from window_scan import window_scan


def test_criterion_01_group_identity_suite():
    report = verify_group_relations()
    assert report.ok, report.failures()


def test_criterion_02_orbit_and_linearization():
    orbit = [as_int_point(p) for p in zeta_orbit((1, 2, 3, 4), 20)]
    assert orbit[1] == (6, 23, 32, 39)
    assert orbit[2] == (59, 228, 317, 386)
    for n in range(19):
        for i in range(4):
            assert orbit[n + 2][i] == 10 * orbit[n + 1][i] - orbit[n][i]
    for n, pt in enumerate(orbit):
        assert pell_point(n) == pt


def test_criterion_03_xi_printed_coefficients_and_degrees():
    assert xi_poly(1) == XI1
    assert xi_poly(2) == XI2
    assert xi_poly(3) == XI3
    for n in range(1, 13):
        assert all(p.degree == 2 * n + 1 for p in xi_poly(n))


def test_criterion_04_closed_form_and_binomial_solver():
    for n in range(7):
        assert xi_closed_form(n) == xi_poly(n)
    rng = random.Random(20260816)
    for _ in range(100):
        alpha = rng.randint(-25, 25)
        u0 = rng.randint(-25, 25)
        u1 = rng.randint(-25, 25)
        n = rng.randint(1, 10)
        seq = [u0, u1]
        while len(seq) <= 2 * n:
            seq.append(alpha * seq[-1] - seq[-2])
        assert prop33_solve(alpha, u0, u1, seq[2], n, "even") == seq[2 * n]
        assert prop33_solve(alpha, u0, u1, seq[2], n, "odd") == seq[2 * n - 1]


def test_criterion_05_symbolic_tower_step():
    for n in range(5):
        image = apply_zeta(xi_poly(n))
        expected = xi_poly(n + 1)
        for got, want in zip(image, expected):
            assert got == want, f"row {n}: {got!r} != {want!r}"


def test_criterion_06_structure_suite():
    for n in range(1, 7):
        assert symmetry_check(n)
    for n in range(1, 11):
        assert xi_closed_form(n) == xi_poly(n)
    assert growth_check(10, 10).ok


def test_criterion_07_other_families_and_integrality():
    for variant in ("quartic", "quartic-even", "quartic-odd", "thirds"):
        den, (p1, p2, p3, p4) = p_family(variant)
        two = UPoly((2 * den * den,))
        assert p1 * p1 - 2 * p2 * p2 + p3 * p3 == two
        assert p2 * p2 - 2 * p3 * p3 + p4 * p4 == two
    assert thirds_family()[0] == 3
    for i in range(1, 16):
        den, (r1, r2, r3, r4) = r_family(i)
        two = 2 * den * den
        assert r1 * r1 - 2 * r2 * r2 + r3 * r3 == two
        assert r2 * r2 - 2 * r3 * r3 + r4 * r4 == two
    with pytest.raises(NonIntegral):
        p_eval(3)
    assert verify_families().ok


@pytest.fixture(scope="module")
def desk_pipeline():
    return run_pipeline(30000)


# sha256 prefix of the desk CSV (the 100 rows at x2 <= 30000, header included)
DESK_CSV_DIGEST = "de0a037703aa3bc4"


def _csv_digest(records):
    csv = "\n".join(records_csv(records)) + "\n"
    return hashlib.sha256(csv.encode()).hexdigest()


def test_criterion_08_desk_scale_table_reproduction(desk_pipeline):
    sporadic = [
        r for r in desk_pipeline if r.classification.kind == "sporadic"
    ]
    assert all(
        r.extends_left is None and r.extends_right is None for r in sporadic
    )
    comparison = compare_with_table(desk_pipeline, 30000)
    assert comparison.extras == (), str(comparison)

    by_seq = {r.seq: r for r in desk_pipeline}
    reference = {row for _, row in bundled_table() if row[1] <= 30000}
    assert reference <= set(by_seq), reference - set(by_seq)
    for row in comparison.misses:
        verdict = by_seq[row].classification
        assert verdict.kind != "sporadic", row
        assert verify_classification(row, verdict), (row, verdict)

    # The table header allows rows that lie on parametrized families.  Row 41
    # is one: it is the n = 4, t = 0 value of the polynomial tower and the
    # fifth point of the Pell orbit of (1, 2, 3, 4), so it is the one exact
    # miss and every other table row under the bound is matched.
    row41 = dict(bundled_table())[41]
    assert row41 == xi_eval(4, 0) == pell_point(4)
    assert by_seq[row41].classification.serialize() == "xi:4:0"
    assert comparison.misses == (row41,), str(comparison)
    assert set(comparison.matches) == reference - {row41}

    # every verdict, byte for byte: the CSV of the 100 desk rows, header
    # included
    assert _csv_digest(desk_pipeline).startswith(DESK_CSV_DIGEST)


def test_desk_verdicts_do_not_need_long_descent_chains(desk_pipeline, monkeypatch):
    # No desk row is a lift, yet the mu2 chains of xi(1, t) run long there
    # (192 steps at t = 22) and reach the 200-step cap from t = 23, past
    # the desk bound.  Cut at 8 steps, every desk verdict is unchanged.
    monkeypatch.setattr(families, "_MAX_CHAIN", 8)
    records = [
        SearchRecord(r.seq, classify(r.seq), r.extends_left, r.extends_right)
        for r in desk_pipeline
    ]
    assert _csv_digest(records).startswith(DESK_CSV_DIGEST)


def test_engines_agree_at_the_desk_bound(desk_pipeline):
    rows = window_scan(30000)
    assert rows == [r.seq for r in desk_pipeline]


def test_sieve_blocks_do_not_change_the_desk_rows(desk_pipeline, monkeypatch):
    # blocks of 7 values of x carry most primes across many block edges
    monkeypatch.setattr(factorint, "_BLOCK", 7)
    rows = enumerate_sequences(30000)
    assert rows == [r.seq for r in desk_pipeline]


def test_exact_reproduction_where_the_table_is_complete():
    # The bundled table is complete for x2 <= 47163; the first Sporadic row
    # it lacks is (1413, 47164, 66685, 81666).  The search spans three
    # sieve blocks here, and the two table rows it misses lie on the xi
    # tower, each verdict replaying exactly.
    records = run_pipeline(47163)
    comparison = compare_with_table(records, 47163)
    assert len(comparison.matches) == 71 and comparison.extras == (), str(comparison)
    table = dict(bundled_table())
    assert comparison.misses == (table[41], table[69])
    assert table[69] == (18793, 33744, 43865, 52054)
    by_seq = {r.seq: r.classification for r in records}
    for row, verdict in zip(comparison.misses, ("xi:4:0", "xi:3:1")):
        assert by_seq[row].serialize() == verdict, row
        assert verify_classification(row, by_seq[row]), row


def test_criterion_09_full_table_extension_check():
    rows = bundled_table()
    assert len(rows) == 121
    for _, row in rows:
        assert extends_left(row) is None, row
        assert extends_right(row) is None, row


def test_criterion_10_extension_curves():
    assert (
        curve_rhs(1, "right").display()
        == "4t^6 + 80t^5 + 620t^4 + 2400t^3 + 4905t^2 + 5020t + 2020"
    )
    assert curve_rhs(2, "right").display() == (
        "16t^10 + 480t^9 + 6240t^8 + 46400t^7 + 218812t^6 + 684120t^5"
        " + 1436320t^4 + 1999600t^3 + 1766797t^2 + 894990t + 197505"
    )
    assert curve_rhs(3, "right").display() == (
        "64t^14 + 2560t^13 + 46400t^12 + 505600t^11 + 3702416t^10"
        " + 19280000t^9 + 73635280t^8 + 209537600t^7 + 446403560t^6"
        " + 708503520t^5 + 824619920t^4 + 682516400t^3 + 379789209t^2"
        " + 127204040t + 19353040"
    )
    for n in range(1, 19):
        assert is_squarefree(curve_rhs(n, "right")), n
        assert is_squarefree(curve_rhs(n, "left")), n
    for side, y_at in (("right", {-4: 2, -3: 1, -2: 4, -1: 7}),
                       ("left", {-4: 7, -3: 4, -2: 1, -1: 2})):
        hits = scan_integer_points(curve_rhs(1, side), -(10**4), 10**4)
        assert hits == sorted(y_at.items()), (side, hits)
