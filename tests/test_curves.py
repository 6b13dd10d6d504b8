"""Length-5 extension curves: shape, squarefreeness, integer-point scans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buchi4 import curves
from buchi4.arith import as_perfect_square
from buchi4.curves import (
    _BLOCK,
    _CERT_PRIME,
    _SIEVE_MODULI,
    TRIVIAL_PARAMETERS,
    CurveSpec,
    curve_rhs,
    is_squarefree,
    scan_csv,
    scan_integer_points,
)
from buchi4.families import extends, xi_eval
from buchi4.poly import T, UPoly, gcd_mod
from buchi4.polytext import format_upoly, parse_upoly

C1R = "4t^6 + 80t^5 + 620t^4 + 2400t^3 + 4905t^2 + 5020t + 2020"
C1L = "4t^6 + 40t^5 + 120t^4 - 595t^2 - 970t - 455"
C2R = (
    "16t^10 + 480t^9 + 6240t^8 + 46400t^7 + 218812t^6 + 684120t^5"
    " + 1436320t^4 + 1999600t^3 + 1766797t^2 + 894990t + 197505"
)
C3R = (
    "64t^14 + 2560t^13 + 46400t^12 + 505600t^11 + 3702416t^10 + 19280000t^9"
    " + 73635280t^8 + 209537600t^7 + 446403560t^6 + 708503520t^5"
    " + 824619920t^4 + 682516400t^3 + 379789209t^2 + 127204040t + 19353040"
)


def test_printed_equations():
    assert curve_rhs(1, "right").display() == C1R
    assert curve_rhs(1, "left").display() == C1L
    assert curve_rhs(2, "right").display() == C2R
    assert curve_rhs(3, "right").display() == C3R


def test_curve_shape():
    for n in (1, 2, 3, 4):
        for side in ("right", "left"):
            c = curve_rhs(n, side)
            assert c.rhs.degree == 4 * n + 2
            assert c.rhs.lc() > 0
            assert c.n == n and c.side == side
            assert c.coefficients()[-1] == c.rhs.lc()


def test_rhs_is_the_extension_radicand():
    for n in (1, 2, 3):
        right = curve_rhs(n, "right").rhs
        left = curve_rhs(n, "left").rhs
        for t in range(-8, 9):
            x1, x2, x3, x4 = xi_eval(n, t)
            assert right(t) == 2 * x4 * x4 - x3 * x3 + 2
            assert left(t) == 2 * x1 * x1 - x2 * x2 + 2


def test_left_curve_is_the_right_curve_reflected():
    # xi1(n, t) = -xi4(n, -5 - t) and xi2(n, t) = -xi3(n, -5 - t), so
    # left(t) = right(-5 - t) as polynomials: one side determines the other
    reflect = UPoly((-5, -1))
    for n in range(1, 9):
        assert curve_rhs(n, "left").rhs == curve_rhs(n, "right").rhs(reflect)


def test_bad_arguments():
    with pytest.raises(ValueError):
        curve_rhs(0, "right")
    with pytest.raises(ValueError):
        curve_rhs(1, "sideways")


def test_squarefree_low_levels():
    for n in (1, 2, 3, 4, 5, 6):
        assert is_squarefree(curve_rhs(n, "right"))
        assert is_squarefree(curve_rhs(n, "left"))


def test_every_curve_is_certified_squarefree_by_the_modular_gcd():
    # all 16 curves of the benchmark, n = 1..8 on both sides; each must be
    # certified by the one certificate prime, not only by the exact fallback
    for n in range(1, 9):
        for side in ("right", "left"):
            curve = curve_rhs(n, side)
            ints = curve.coefficients()
            dints = curve.rhs.derivative().int_coeffs()
            assert gcd_mod(ints, dints, _CERT_PRIME) == [1]
            assert is_squarefree(curve)


def test_squarefree_rejects_squares():
    assert not is_squarefree((T + 1) * (T + 1) * (T + 3))
    assert not is_squarefree((2 * T + 5) ** 2)
    assert is_squarefree((T + 1) * (T + 2))
    # gcd(0, 0') is undefined, as in upoly_gcd
    with pytest.raises(ValueError):
        is_squarefree(UPoly(()))


def test_scan_finds_exactly_the_trivial_hits():
    c1r = curve_rhs(1, "right")
    assert scan_integer_points(c1r, -4, -1) == [(-4, 2), (-3, 1), (-2, 4), (-1, 7)]
    assert scan_integer_points(c1r, 0, 10) == []
    c1l = curve_rhs(1, "left")
    assert scan_integer_points(c1l, -2, -2) == [(-2, 1)]
    assert TRIVIAL_PARAMETERS == (-4, -3, -2, -1)


def test_scan_agrees_with_extension_tests():
    # a scan hit at t is exactly a nonnegative extension of xi(n, t)
    for n in (1, 2):
        for side, curve in (("right", curve_rhs(n, "right")), ("left", curve_rhs(n, "left"))):
            hits = dict(scan_integer_points(curve, -6, 6))
            for t in range(-6, 7):
                assert hits.get(t) == extends(xi_eval(n, t), side)


ALL_CURVES = [curve_rhs(n, side) for n in range(1, 9) for side in ("right", "left")]


def plain_scan(curve, t_min, t_max):
    """The scan without a sieve: Horner and a square test at every t."""
    rev = curve.coefficients()[::-1]
    hits = []
    for t in range(t_min, t_max + 1):
        acc = 0
        for c in rev:
            acc = acc * t + c
        y = as_perfect_square(acc)
        if y is not None:
            hits.append((t, y))
    return hits


@pytest.mark.parametrize(
    "width",
    [1, 63, 64, 65, 160, _BLOCK + 63, _BLOCK + 64, _BLOCK + 65, 3 * _BLOCK + 70],
)
def test_the_sieve_finds_what_the_plain_scan_finds(width):
    # every t is sieved: widths about one period of the largest modulus,
    # 64, one 160-wide segment, and the ends of the first and later blocks,
    # at negative, zero and positive offsets; t_min = -5000 puts the
    # trivial hits t = -4..-1 inside the widest range, where they must
    # pass every pattern
    for t_min in (-5000, 0, 777):
        for curve in ALL_CURVES:
            want = plain_scan(curve, t_min, t_min + width - 1)
            got = scan_integer_points(curve, t_min, t_min + width - 1)
            assert got == want, (curve.n, curve.side, t_min, width)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 8),
    st.sampled_from(("right", "left")),
    st.integers(-(10**6), 10**6),
    st.integers(1, 3 * _BLOCK + 64),
)
def test_the_sieve_equals_the_plain_scan(n, side, t_min, width):
    curve = curve_rhs(n, side)
    t_max = t_min + width - 1
    assert scan_integer_points(curve, t_min, t_max) == plain_scan(curve, t_min, t_max)


def test_the_scan_evaluates_only_the_residues_and_what_every_pattern_keeps(
    monkeypatch,
):
    # one benchmark segment of each of the costliest curves, the left one at
    # negative t: the even and the odd part of rhs at the squares 0, 1, ...,
    # 32^2, the residue points whatever the range, then only the t whose
    # value is a square modulo every sieve modulus; no t of the range is
    # evaluated otherwise
    calls = []
    horner_values = curves._horner_values

    def recording(rev, ts):
        calls.append(list(ts))
        return horner_values(rev, ts)

    monkeypatch.setattr(curves, "_horner_values", recording)
    squares = [r * r for r in range(33)]
    for side, lo, hi, want in [
        ("right", 1080, 1239, [1171, 1186, 1217, 1223]),
        ("left", -1240, -1081, [-1228, -1222, -1191, -1176]),
    ]:
        curve = curve_rhs(8, side)
        calls.clear()
        assert scan_integer_points(curve, lo, hi) == []
        coeffs = curve.coefficients()

        def kept(t):
            v = sum(c * t**k for k, c in enumerate(coeffs))
            return all(any((v - x * x) % m == 0 for x in range(m)) for m in _SIEVE_MODULI)

        survivors = [t for t in range(lo, hi + 1) if kept(t)]
        assert survivors == want
        assert calls[0] == calls[1] == squares
        assert [t for ts in calls[2:] for t in ts] == survivors


def test_the_sieve_drops_no_square():
    # rhs = ((t - 3)(2t^2 + 1))^2 is a square at every t, and 0 at t = 3: a
    # modulus whose pattern missed the residue 0 or any class of squares
    # would lose a hit here
    root = (T - 3) * (2 * T * T + 1)
    curve = CurveSpec("right", 1, root * root)
    assert curve.rhs.degree == 6 and curve.rhs.lc() == 4
    hits = scan_integer_points(curve, -5000, 5000)
    assert hits == [(t, abs(root(t))) for t in range(-5000, 5001)]
    assert (3, 0) in hits


def test_every_curve_has_only_the_trivial_points_up_to_a_million():
    # n = 1..8 on both sides over |t| <= 10^6: only t = -4..-1, where the
    # extension of the trivial xi(n, t) is y
    for curve in ALL_CURVES:
        hits = scan_integer_points(curve, -(10**6), 10**6)
        want = [(t, extends(xi_eval(curve.n, t), curve.side)) for t in TRIVIAL_PARAMETERS]
        assert hits == want, (curve.n, curve.side, hits)


def test_scan_csv_format():
    lines = list(scan_csv(curve_rhs(1, "right"), -4, -1))
    assert lines[0] == "t,y,trivial"
    assert lines[1] == "-4,2,yes"
    assert lines[-1] == "-1,7,yes"
    with pytest.raises(ValueError, match="empty range"):
        scan_csv(curve_rhs(1, "right"), 5, 1)


def test_display_round_trip():
    for n in (1, 2):
        c = curve_rhs(n, "right")
        assert parse_upoly(c.display()) == c.rhs
        assert format_upoly(parse_upoly(c.display())) == c.display()


def test_curvespec_validation():
    with pytest.raises(ValueError):
        CurveSpec(side="right", n=1, rhs=T + 1)  # degree must be 4n + 2
    with pytest.raises(ValueError):
        CurveSpec(side="diagonal", n=1, rhs=curve_rhs(1, "right").rhs)
    # coefficients() promises integers, so a rational one fails here, not
    # at the first scan; is_squarefree still takes a rational UPoly
    rational = UPoly((1, 0, 0, 0, 0, 0, Fraction(1, 2)))
    with pytest.raises(ValueError, match="integer coefficients"):
        CurveSpec("right", 1, rational)
    assert is_squarefree(rational)