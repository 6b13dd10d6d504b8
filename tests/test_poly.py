"""Univariate layer: UPoly, rational functions, the quadratic extension."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buchi4.poly import (
    QUAD_MODULUS,
    QuadExt,
    RatFunc,
    T,
    UPoly,
    horner,
    rational_reconstruction,
    upoly_gcd,
)
from buchi4.mpoly import MPoly4
from buchi4.polytext import format_upoly, parse_upoly

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
    # UPoly evaluation keeps its types: a Fraction for the zero and the
    # constant polynomials, a UPoly when composing
    assert UPoly(())(T) == 0 and type(UPoly(())(T)) is Fraction
    assert type(UPoly((3,))(T)) is Fraction
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
    for p in (T + 2, RatFunc(T, T + 1), QuadExt(T, 2), MPoly4.parse("a - 2c")):
        assert p**0 == 1
    assert QuadExt(T, 2) ** 0 == QuadExt(1)
    with pytest.raises(ValueError):
        (T + 1) ** -1


def test_ring_element_subtraction_from_both_sides():
    assert 1 - T == UPoly((1, -1))
    assert Fraction(1, 2) - RatFunc(1, T) == RatFunc(T - 2, 2 * T)
    assert RatFunc(1, T) - T == RatFunc(1 - T * T, T)
    assert 3 - QuadExt(T, 2) == QuadExt(3 - T, -2)
    assert T - QuadExt(T, 2) == QuadExt(0, -2)
    assert RatFunc(T, T + 1) ** 2 == RatFunc(T * T, (T + 1) ** 2)


def test_quadext_negative_powers_are_powers_of_the_inverse():
    for x in (QuadExt(T * T + 5 * T + 5, 1), QuadExt(T, 2), QuadExt(RatFunc(1, T), T)):
        inv = x.inverse()
        assert x**-1 == inv
        assert x**-3 == inv * inv * inv
        assert x**-2 * x**2 == QuadExt(1)


def test_text_round_trip():
    s = "4t^6 + 80t^5 + 620t^4 + 2400t^3 + 4905t^2 + 5020t + 2020"
    assert format_upoly(parse_upoly(s)) == s
    assert format_upoly(parse_upoly("- t + 1")) == "-t + 1"
    assert format_upoly(UPoly(())) == "0"


@given(small_polys)
def test_format_parse_round_trip(p):
    assert parse_upoly(format_upoly(p)) == p


def test_ratfunc_is_canonical():
    r = RatFunc((T + 1) * (T + 2), (T + 2) * (T + 3))
    assert r == RatFunc(T + 1, T + 3)
    assert r.den.lc() == 1  # denominator kept monic
    with pytest.raises(ZeroDivisionError):
        RatFunc(T, UPoly(()))


def test_ratfunc_field_ops():
    r = RatFunc(T, T + 1)
    s = RatFunc(1, T + 1)
    assert r + s == 1
    assert r / r == 1
    assert (r * (T + 1)).is_polynomial()
    assert (r * (T + 1)).as_upoly() == T
    assert r(1) == Fraction(1, 2)
    assert r - Fraction(1, 2) == RatFunc(T - 1, 2 * T + 2)


def test_quad_modulus_shape():
    assert QUAD_MODULUS == (T + 1) * (T + 2) * (T + 3) * (T + 4)
    assert QUAD_MODULUS.degree == 4


def test_beta_is_a_unit():
    beta = QuadExt(T * T + 5 * T + 5, 1)
    assert beta.norm() == 1
    assert beta * beta.conj() == QuadExt(1)
    assert beta.inverse() == beta.conj()


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13)
def test_beta_powers_stay_units(n):
    beta = QuadExt(T * T + 5 * T + 5, 1)
    assert (beta**n * beta.conj() ** n) == QuadExt(1)


def test_quadext_arithmetic():
    alpha = QuadExt(0, 1)
    assert alpha * alpha == QuadExt(QUAD_MODULUS)
    x = QuadExt(T, 2)
    assert x + x.conj() == QuadExt(2 * T)
    assert (x - x.conj()).u == RatFunc.of(0)
    assert x * x.inverse() == QuadExt(1)


def test_foreign_operands_raise_type_error():
    with pytest.raises(TypeError):
        RatFunc("t")
    with pytest.raises(TypeError):
        QuadExt(T) / "x"


def test_ratfunc_over_quadext_is_a_quadext_quotient():
    got = RatFunc(1, T) / QuadExt(T)
    assert isinstance(got, QuadExt)
    assert got == QuadExt(RatFunc(1, T * T))
