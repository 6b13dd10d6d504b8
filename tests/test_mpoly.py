"""Four-variable polynomials and reduction modulo the surface relations."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from buchi4.mpoly import MPoly4

A = MPoly4.coordinate(1)
B = MPoly4.coordinate(2)
C = MPoly4.coordinate(3)
D = MPoly4.coordinate(4)

# the two defining relations
REL1 = A * A - 2 * B * B + C * C - MPoly4.const(2)
REL2 = B * B - 2 * C * C + D * D - MPoly4.const(2)

monomials = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
)
small_mpolys = st.dictionaries(
    monomials, st.integers(min_value=-9, max_value=9), max_size=5
).map(MPoly4)

# a few exact points satisfying both relations
SURFACE_POINTS = [
    (1, 2, 3, 4),
    (6, 23, 32, 39),
    (-4, 3, 2, -1),
    (
        Fraction(17261, 56),
        Fraction(36035, 56),
        Fraction(47949, 56),
        Fraction(57443, 56),
    ),
]


def test_parse_and_str_round_trip():
    p = MPoly4.parse("a^2 - 2b^2 + c^2 - 2")
    assert p == REL1
    assert MPoly4.parse(str(p)) == p
    assert MPoly4.parse("0").is_zero()


def test_arithmetic_and_evaluate():
    p = (A + B) * (A - B)
    assert p == A * A - B * B
    assert p.evaluate((3, 2, 0, 0)) == 5
    assert (2 * B).evaluate((0, Fraction(1, 2), 0, 0)) == 1
    assert ((A + 1) ** 3).evaluate((1, 0, 0, 0)) == 8


def test_powers_are_repeated_products():
    p = A - 2 * B + C * D + 3
    acc = MPoly4.const(1)
    for n in range(7):
        assert p**n == acc
        acc = acc * p
    assert (A - B) ** 2 == A * A - 2 * A * B + B * B
    assert 5 - A == -(A - 5)


def test_degrees():
    p = A * A * D + B * C
    assert p.total_degree() == 3
    assert p.degree_in(1) == 2
    assert p.degree_in(4) == 1
    assert p.degree_in(2) == 1


def test_symmetry_operators():
    p = A * A + 2 * D
    assert p.swap_ends() == D * D + 2 * A
    assert p.flip_signs((-1, 1, 1, -1)) == A * A - 2 * D
    assert p.swap_ends().swap_ends() == p


def test_relations_reduce_to_zero():
    assert REL1.normal_form().is_zero()
    assert REL2.normal_form().is_zero()
    assert REL1.vanishes_on_surface()
    assert (REL1 * REL2 + 3 * REL2).vanishes_on_surface()
    assert not (REL1 + 1).vanishes_on_surface()


def test_normal_form_eliminates_high_end_powers():
    for p in (A**3 * D**2, (A + D) ** 4, A * A * B * C * D * D):
        nf = p.normal_form()
        assert nf.degree_in(1) <= 1
        assert nf.degree_in(4) <= 1


@given(small_mpolys, small_mpolys)
@settings(max_examples=60)
def test_normal_form_is_multiplicative(p, q):
    lhs = (p * q).normal_form()
    rhs = (p.normal_form() * q.normal_form()).normal_form()
    assert lhs == rhs


@given(small_mpolys)
@settings(max_examples=60)
def test_normal_form_agrees_on_surface_points(p):
    nf = p.normal_form()
    for pt in SURFACE_POINTS:
        assert nf.evaluate(pt) == p.evaluate(pt)
