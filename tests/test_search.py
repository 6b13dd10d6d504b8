"""Bounded exhaustive search, the record pipeline, and table comparison."""

import json

import pytest

from buchi4.arith import as_perfect_square
from buchi4.factorint import gaussian_factorizations, gaussian_products, reps_from_primes
from buchi4.families import is_trivial
from buchi4.maps import on_surface
from buchi4.search import (
    CSV_HEADER,
    SearchRecord,
    bundled_table,
    compare_with_table,
    enumerate_sequences,
    plot_data,
    records_csv,
    records_json,
    run_pipeline,
    search_records,
)

from window_scan import window_scan

# every non-trivial strictly increasing positive solution with x2 <= 700
ROWS_700 = [
    (6, 23, 32, 39),
    (16, 87, 122, 149),
    (39, 70, 91, 108),
    (51, 148, 203, 246),
    (59, 228, 317, 386),
    (59, 630, 889, 1088),
    (79, 242, 333, 404),
    (83, 516, 725, 886),
    (108, 157, 194, 225),
    (147, 302, 401, 480),
    (225, 296, 353, 402),
    (324, 557, 718, 849),
    (402, 499, 580, 651),
]


def test_enumeration_anchor_700():
    assert enumerate_sequences(700) == ROWS_700


def test_enumeration_is_sound():
    for seq in enumerate_sequences(400):
        assert on_surface(seq)
        assert 0 < seq[0] < seq[1] < seq[2] < seq[3]
        assert not is_trivial(seq)


def test_enumeration_is_exhaustive_against_the_table():
    found = set(enumerate_sequences(1000))
    for _, row in bundled_table():
        if row[1] <= 1000:
            assert row in found


def test_engines_agree():
    assert enumerate_sequences(1500) == window_scan(1500)


def test_trivial_filter_agrees_with_is_trivial():
    # the search never forms the all-conjugate product, the first of
    # gaussian_products, instead of calling is_trivial; the x2
    # the stream leaves out have only that representation
    stream = dict(gaussian_factorizations(3000))
    expected = []
    for x2 in range(2, 3001):
        if x2 not in stream:
            assert is_trivial((x2 - 1, x2, x2 + 1, x2 + 2))
            continue
        trivial = gaussian_products(1 + (x2 & 1), stream[x2])[0]
        assert sorted(map(abs, trivial)) == [x2 - 1, x2 + 1], x2
        for x1, x3 in reps_from_primes(1, 1 + (x2 & 1), stream[x2]):
            x4 = as_perfect_square(2 * x3 * x3 - x2 * x2 + 2)
            if x1 == 0 or x4 is None:
                assert x1 != x2 - 1, (x1, x2, x3)
                continue
            seq = (x1, x2, x3, x4)
            assert is_trivial(seq) == (x1 == x2 - 1), seq
            if x1 != x2 - 1:
                expected.append(seq)
    assert enumerate_sequences(3000) == sorted(expected)


def test_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_sequences(1)
    with pytest.raises(ValueError):
        enumerate_sequences(100, engine="sieve")
    with pytest.raises(ValueError):
        enumerate_sequences(100, engine="window")


def test_bundled_table_shape():
    rows = bundled_table()
    assert len(rows) == 121
    assert [i for i, _ in rows] == list(range(1, 122))
    assert rows[0][1] == (59, 630, 889, 1088)
    assert rows[1][1] == (83, 516, 725, 886)
    # one duplicated row ships verbatim
    quads = [row for _, row in rows]
    assert quads[103] == quads[104]
    assert len(set(quads)) == 120
    # sorted by first coordinate
    assert all(quads[i][0] <= quads[i + 1][0] for i in range(120))


def test_pipeline_and_comparison_700():
    records = run_pipeline(700)
    assert [r.seq for r in records] == ROWS_700
    by_seq = {r.seq: r for r in records}
    assert by_seq[(6, 23, 32, 39)].classification.describe() == "Xi(n=1, t=0)"
    assert by_seq[(16, 87, 122, 149)].classification.describe() == "R(i=4, t=6)"
    assert by_seq[(51, 148, 203, 246)].classification.describe() == "P(t=0)"
    sporadic = {r.seq for r in records if r.classification.kind == "sporadic"}
    assert sporadic == {(59, 630, 889, 1088), (83, 516, 725, 886)}
    assert all(r.extends_left is None and r.extends_right is None for r in records)

    comparison = compare_with_table(records, 700)
    assert comparison.ok
    assert len(comparison.matches) == 2
    assert comparison.misses == () and comparison.extras == ()
    assert "2 matches, 0 misses, 0 extras" in str(comparison)


def test_comparison_at_1000_adds_five_rows():
    records = run_pipeline(1000)
    comparison = compare_with_table(records, 1000)
    assert comparison.ok
    assert set(comparison.matches) == {
        (59, 630, 889, 1088),
        (83, 516, 725, 886),
        (108, 707, 994, 1215),
        (311, 752, 1017, 1226),
        (430, 801, 1048, 1247),
        (240, 839, 1162, 1413),
        (177, 878, 1229, 1500),
    }


def test_comparison_names_the_first_unclassified_record():
    records = search_records(700, False, False)
    with pytest.raises(ValueError, match=r"\(6, 23, 32, 39\) is unclassified"):
        compare_with_table(records, 700)


def test_comparison_at_0_is_vacuous():
    records = run_pipeline(700)
    comparison = compare_with_table(records, 0)
    assert comparison.ok
    assert comparison.matches == ()


def test_csv_and_json_emission():
    records = run_pipeline(700)
    lines = list(records_csv(records))
    assert lines[0] == CSV_HEADER
    assert lines[1] == "6,23,32,39,xi:1:0,,"
    assert len(lines) == 14
    blob = records_json(records)
    assert blob[0]["x1"] == 6
    assert blob[0]["classification"] == {"kind": "xi", "n": 1, "t": 0}
    assert blob[0]["extends_left"] is None
    json.dumps(blob)  # must be serializable as-is


def test_plot_data():
    pairs = plot_data()
    assert len(pairs) == 121
    assert pairs[:3] == [(59, 1), (83, 2), (108, 3)]
    records = run_pipeline(700)
    assert plot_data(records)[0] == (6, 1)


def test_record_csv_row_with_extensions():
    rec = SearchRecord(
        seq=(1, 2, 3, 4),
        classification=run_pipeline(700)[0].classification,
        extends_left=0,
        extends_right=5,
    )
    assert rec.csv_row().endswith(",0,5")
