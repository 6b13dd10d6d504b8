"""Univariate layer: UPoly, its gcds, and the unit beta of the closed
form."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buchi4.families import F_POLY, _closed_form_data
from buchi4.poly import (
    T,
    UPoly,
    horner,
    rational_reconstruction,
    upoly_gcd,
)
from buchi4.mpoly import MPoly4
from buchi4 import polytext
from buchi4.polytext import format_upoly, parse_terms, parse_upoly
from buchi4.verify import verify_families

small_polys = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=0, max_size=6
).map(UPoly)


def test_construction_and_degree():
    p = UPoly((6, 19, 12, 2))  # 2t^3 + 12t^2 + 19t + 6, constant first
    assert p.degree == 3
    assert p.lc() == 2
    assert p[0] == 6 and p[4] == 0
    assert UPoly(()).is_zero() and UPoly(()).degree == -1


def test_iteration_stops_at_the_degree():
    # __getitem__ is 0 past the degree, so iteration must not fall back on it
    assert list(T**2 + 1) == [1, 0, 1]
    assert tuple(2 * T) == (0, 2)
    assert UPoly(T + 1) == T + 1
    assert list(UPoly()) == []


def test_ring_arithmetic():
    p = (T + 1) * (T + 2)
    assert p == UPoly((2, 3, 1))
    assert p(3) == 20
    assert (p - p).is_zero()
    assert (T + 1) ** 2 == T * T + 2 * T + 1
    assert 2 * (T + 1) == 2 * T + 2


@given(small_polys, small_polys)
def test_divmod_is_euclidean(f, g):
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_exact_division():
    f = (T + 1) * (T - 3) * (2 * T + 5)
    assert f.exact_div(T + 1) == (T - 3) * (2 * T + 5)
    with pytest.raises(ArithmeticError):
        f.exact_div(T + 2)


def test_gcd_anchors():
    f = (T + 1) * (T + 2)
    g = (T + 1) * (T + 3)
    assert upoly_gcd(f, g) == T + 1
    assert upoly_gcd(f, UPoly(())) == f.monic()
    # coprime inputs give a constant
    assert upoly_gcd(T + 1, T + 2).degree == 0


@given(small_polys, small_polys, small_polys)
@settings(max_examples=50)
def test_gcd_divides_both_and_catches_common_factors(f, g, h):
    if h.is_zero() or (f.is_zero() and g.is_zero()):
        return
    d = upoly_gcd(f * h, g * h)
    assert divmod(f * h, d)[1].is_zero()
    assert divmod(g * h, d)[1].is_zero()
    assert divmod(d, h.monic())[1].is_zero()  # common factor survives


# the prime of the family match, and the height bound of its reconstruction
P31 = 2**31 - 1
BOUND31 = isqrt(P31 // 2)


def _residue(t, p):
    return t.numerator * pow(t.denominator, -1, p) % p


def test_rational_reconstruction_over_all_residues_of_a_small_prime():
    # against brute force: every a/b with |a|, b <= sqrt(m/2) and a = r b,
    # at a prime and at a prime power (a = r b mod 3 forces 3 | a when
    # 3 | b, so a fraction in lowest terms has b prime to 3^5)
    for m in (101, 3**5):
        bound = isqrt(m // 2)
        found = {}
        for b in range(1, bound + 1):
            for a in range(-bound, bound + 1):
                if gcd(a, b) == 1 and gcd(b, m) == 1:
                    found.setdefault(a * pow(b, -1, m) % m, []).append(Fraction(a, b))
        assert all(len(ts) == 1 for ts in found.values())  # unique when it exists
        for r in range(m):
            want = found.get(r, [None])[0]
            assert rational_reconstruction(r, m) == want, (m, r)
        assert len(found) < m  # some residues have no fraction: None


def test_rational_reconstruction_at_the_bound_and_past_it():
    assert BOUND31 == 32767
    for t in (
        Fraction(0), Fraction(-1), Fraction(-5, 7), Fraction(-BOUND31),
        Fraction(BOUND31, BOUND31 - 1), Fraction(-BOUND31, 2), Fraction(1, BOUND31),
        Fraction(-1, BOUND31),
    ):
        assert rational_reconstruction(_residue(t, P31), P31) == t, t
    # one past the bound in either part is never returned as itself
    for t in (
        Fraction(BOUND31 + 1), Fraction(-BOUND31 - 1, 3), Fraction(1, BOUND31 + 1),
        Fraction(10**6 + 1), Fraction(40001, 3),
    ):
        got = rational_reconstruction(_residue(t, P31), P31)
        assert got != t
        assert got is None or _residue(got, P31) == _residue(t, P31)


@given(
    st.integers(-BOUND31, BOUND31),
    st.integers(1, BOUND31),
    st.integers(-5, 5),
)
@settings(max_examples=200)
def test_rational_reconstruction_round_trips_within_the_bound(a, b, k):
    t = Fraction(a, b)
    r = _residue(t, P31) + k * P31  # residues need not be reduced
    assert rational_reconstruction(r, P31) == t


def test_derivative_and_eval():
    p = parse_upoly("2t^2 + 10t + 10")
    assert p.derivative() == 4 * T + 10
    assert p(Fraction(1, 2)) == Fraction(31, 2)


def test_primitive_int():
    # 3t/6 + 9/6 reduces to primitive (3, 1) with content 1/2
    coeffs, scale = UPoly((Fraction(9, 6), Fraction(3, 6))).primitive_int()
    assert coeffs == [3, 1]
    assert scale == Fraction(1, 2)
    # a negative leading coefficient goes into the scale
    coeffs, scale = UPoly((Fraction(2, 3), Fraction(-4, 3))).primitive_int()
    assert coeffs == [-1, 2]
    assert scale == Fraction(-2, 3)


def test_horner():
    assert horner([], 5) == 0
    v = horner([6, 19, 12, 2], 3)  # xi1(1, 3)
    assert v == 225 and type(v) is int
    assert horner((1, 1), Fraction(1, 2)) == Fraction(3, 2)
    # UPoly evaluation keeps its types: a UPoly when composing, the zero
    # and the constant polynomials included
    assert UPoly(())(T) == 0 and type(UPoly(())(T)) is UPoly
    assert UPoly((3,))(T) == UPoly((3,)) and type(UPoly((3,))(T)) is UPoly
    assert parse_upoly("t^2 + 1")(T + 1) == parse_upoly("t^2 + 2t + 2")


def test_horner_as_a_homogeneous_form():
    cs = [6, 19, 12, 2]
    # (x, y) = (1, 0) keeps only the leading coefficient
    assert horner(cs, 1, 0) == 2
    assert horner([5, 0, 0], 1, 0) == 0
    # y^D p(x/y) at fractions x/y, in integers
    for x, y in [(1, 2), (-3, 4), (7, 1), (0, 5), (-5, 3)]:
        want = Fraction(y) ** 3 * horner(cs, Fraction(x, y))
        got = horner(cs, x, y)
        assert got == want and type(got) is int
    # a constant evaluates to its coefficient at any argument, a UPoly too
    assert horner((Fraction(3),), T) == 3 and type(horner((Fraction(3),), T)) is Fraction
    assert horner((7,), 2, 5) == 7
    assert horner([], 1, 0) == 0


def test_ring_element_zeroth_power_is_one():
    for p in (T + 2, MPoly4.parse("a - 2c")):
        assert p**0 == 1
    with pytest.raises(ValueError):
        (T + 1) ** -1


def test_ring_element_subtraction_from_both_sides():
    assert 1 - T == UPoly((1, -1))
    assert Fraction(1, 2) - T == UPoly((Fraction(1, 2), -1))
    assert T - Fraction(1, 2) == UPoly((Fraction(-1, 2), 1))


def test_text_round_trip():
    s = "4t^6 + 80t^5 + 620t^4 + 2400t^3 + 4905t^2 + 5020t + 2020"
    assert format_upoly(parse_upoly(s)) == s
    assert format_upoly(parse_upoly("- t + 1")) == "-t + 1"
    assert format_upoly(UPoly(())) == "0"


def test_malformed_polynomial_text_raises():
    # a sign with no term after it, a number after a factor, a bare '^',
    # two numbers in a row, other syntaxes and unknown variables
    for text in ["+", "+ +", "-", "t +", "0 +", "--", "t2", "t^", "^2", "2 3",
                 "t**2", "(t)", "t + x"]:
        with pytest.raises(ValueError):
            parse_terms(text, "t")
    assert parse_terms("- t + 1", "t") == {(1,): -1, (0,): 1}
    assert parse_terms("t + - 1", "t") == {(1,): 1, (0,): -1}
    assert parse_terms("t ^ 2", "t") == {(2,): 1}
    assert parse_terms("3 t", "t") == {(1,): 3}
    assert parse_terms("0", "t") == {}
    assert parse_terms("", "t") == {}
    assert parse_terms("- -2a b^2 + b a^0 - 2ab^2", "abcd") == {(0, 1, 0, 0): 1}
    assert polytext._TERM.pattern in polytext.__doc__


@given(small_polys)
def test_format_parse_round_trip(p):
    assert parse_upoly(format_upoly(p)) == p


def test_beta_is_a_unit():
    # beta = b + alpha, alpha^2 = g: norm b^2 - g is 1 and trace 2b is f,
    # on the very g and b that xi_closed_form reads, and verify says so
    _, g, b = _closed_form_data()
    assert g == (T + 1) * (T + 2) * (T + 3) * (T + 4)
    assert b * b - g == 1
    assert 2 * b == F_POLY
    entries = dict(verify_families().entries)
    assert entries["beta = t^2 + 5t + 5 + alpha is a unit of trace f"] is True


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13)
def test_beta_powers_stay_units(n):
    # beta^n = u + v alpha as the pair (u, v); its conjugate's power is
    # u - v alpha, so the norm u^2 - v^2 g of beta^n must be 1
    _, g, b = _closed_form_data()
    u, v = UPoly((1,)), UPoly(())
    for _ in range(n):
        u, v = u * b + v * g, u + v * b
    assert u * u - v * v * g == 1


def test_foreign_operands_raise_type_error():
    with pytest.raises(TypeError):
        T + "x"
    with pytest.raises(TypeError):
        divmod(T, "x")
    with pytest.raises(TypeError):
        T.exact_div("x")


def test_the_zero_polynomial_composes_to_the_zero_polynomial():
    for arg in (T, T * T + 1, UPoly()):
        z = UPoly()(arg)
        assert type(z) is UPoly and z.is_zero()
    assert UPoly()(3) == 0 and type(UPoly()(3)) is Fraction


# -- mixed int and Fraction coefficients against an all-Fraction reference --


def _trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    return _trim(out)


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b):
    quot, rem = [Fraction(0)] * len(a), list(a)
    while len(rem) >= len(b):
        q, shift = rem[-1] / b[-1], len(rem) - len(b)
        quot[shift] = q
        rem = _ref_add(rem, _ref_mul([Fraction(0)] * shift + [-q], b))
    return _trim(quot), rem


def _ref_compose(a, b):
    out = []
    for c in reversed(a):
        out = _ref_add(_ref_mul(out, b), [c])
    return out


def _assert_canonical(p, want):
    """p has the coefficients want (Fractions), each whole one an int and
    no float anywhere, and equals and hashes like the polynomial of the
    Fractions want."""
    assert all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in p.coeffs
    ), p.coeffs
    assert list(p.coeffs) == want
    built = UPoly(want)
    assert p == built and hash(p) == hash(built) == hash(tuple(want))


mixed_scalars = st.one_of(
    st.integers(-30, 30),
    st.booleans(),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 4)),
)
mixed_lists = st.lists(mixed_scalars, max_size=5)


@settings(max_examples=200, deadline=None)
@given(mixed_lists, mixed_lists, mixed_scalars)
def test_mixed_coefficients_agree_with_a_fraction_reference(a, b, x):
    f, g = UPoly(a), UPoly(b)
    fa, fb = _trim(a), _trim(b)
    cases = [
        (f, fa),
        (g, fb),
        (f + g, _ref_add(fa, fb)),
        (f - g, _ref_add(fa, [-c for c in fb])),
        (f * g, _ref_mul(fa, fb)),
        (f * x, _ref_mul(fa, [x])),
        (f.derivative(), _trim(k * c for k, c in enumerate(fa) if k)),
        (f(g), _ref_compose(fa, fb)),
    ]
    if fa:
        cases.append((f.monic(), [c / fa[-1] for c in fa]))
    if fb:
        q, r = divmod(f, g)
        want_q, want_r = _ref_divmod(fa, fb)
        cases += [(q, want_q), (r, want_r), ((f * g).exact_div(g), fa)]
    for got, want in cases:
        _assert_canonical(got, want)
    # the API boundary: coefficients and values at numbers are Fractions
    value = f(x)
    assert type(value) is Fraction and value == horner(fa, Fraction(x))
    assert type(f.lc()) is Fraction and type(f[0]) is Fraction
    assert f.is_integral() == all(c.denominator == 1 for c in fa)
    if fa:
        prim, scale = f.primitive_int()
        assert all(type(c) is int for c in prim) and prim[-1] > 0
        assert gcd(*prim) == 1 and type(scale) is Fraction
        assert [scale * c for c in prim] == fa
