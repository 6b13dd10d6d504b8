"""Scalar kernel: square detection, parsing, formatting."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from buchi4.arith import (
    _MASK64,
    _MOD,
    _TABLE,
    as_perfect_square,
    exact,
    format_rational,
    is_perfect_square,
    isqrt,
    parse_rational,
    square_residue_filter,
)


def test_isqrt_anchors():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(2) == 1
    assert isqrt(10**40) == 10**20
    assert isqrt(10**40 - 1) == 10**20 - 1


@given(st.integers(min_value=0, max_value=10**60))
def test_isqrt_is_floor_sqrt(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


@given(st.integers(min_value=0, max_value=10**30))
def test_squares_are_detected(k):
    assert as_perfect_square(k * k) == k
    assert square_residue_filter(k * k)


@given(st.integers(min_value=1, max_value=10**30))
def test_between_squares_is_rejected(k):
    # k^2 + 1 is a square only for k = 0
    assert as_perfect_square(k * k + 1) is None
    assert not is_perfect_square(k * k + 1)


def test_negative_is_never_square():
    assert as_perfect_square(-1) is None
    assert as_perfect_square(-(10**20)) is None


def test_square_detection_anchors():
    assert as_perfect_square(0) == 0
    assert as_perfect_square(25) == 5
    assert as_perfect_square(24) is None
    assert as_perfect_square(26) is None
    # 1088^2: the right-extension radicand check for a table row uses this path
    assert as_perfect_square(1183744) == 1088


def test_residue_filter_is_only_necessary():
    # some non-squares do pass the filter; the exact test must then reject
    n = 45045 * 64  # hits residue 0 in both tables
    assert square_residue_filter(n)
    assert not is_perfect_square(n)


def test_exact_keeps_ints_and_fractions_and_rejects_the_rest():
    assert exact(True) == 1 and type(exact(True)) is int
    assert exact(Fraction(4, 2)) == 2 and type(exact(Fraction(4, 2))) is int
    assert exact(-7) == -7 and type(exact(-7)) is int
    half = Fraction(1, 2)
    assert exact(half) is half
    for x in (0.5, "1", None):
        with pytest.raises(TypeError, match="int or a Fraction"):
            exact(x)


def test_parse_and_format():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(7) == "7"


@given(st.fractions())
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_bad_parse_raises():
    # Fraction reads "1.5" through " 3" and raises ZeroDivisionError on
    # "1/0"; format_rational writes none of them
    for text in ["not a number", "1.5", "2e1", "+3", "1_000", " 3", "3/-4", "1/0"]:
        with pytest.raises(ValueError):
            parse_rational(text)


def test_residue_tables_are_the_squares():
    # the table is built per prime power and joined by CRT; it must equal
    # the squares mod 45045 taken directly
    squares = {r * r % _MOD for r in range(_MOD)}
    assert _MOD == 45045
    assert _TABLE == bytes(int(n in squares) for n in range(_MOD))
    assert _MASK64 == sum(1 << n for n in {r * r % 64 for r in range(64)})
