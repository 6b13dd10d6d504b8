"""The trivial involution group, the rational involution, and the
degree-growing map with its Pell-driven base orbit."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buchi4 import maps, verify
from buchi4.families import r_family, r_value, xi_eval, xi_poly
from buchi4.maps import (
    _phi_kernel,
    IDENTITY,
    TAU,
    ZETA_TWIST,
    DenominatorVanishes,
    TrivialInvolution,
    apply_phi,
    apply_zeta,
    apply_zeta_inv,
    as_int_point,
    group_elements,
    mu,
    normalize_point,
    on_surface,
    pell,
    phi_map,
    phi_vector,
    pell_point,
    zeta_orbit,
)
from buchi4.poly import RatFunc
from buchi4.verify import verify_group_relations

ORBIT = [
    (1, 2, 3, 4),
    (6, 23, 32, 39),
    (59, 228, 317, 386),
    (584, 2257, 3138, 3821),
    (5781, 22342, 31063, 37824),
]


def surface_points():
    """A mix of integer and rational exact points for property tests."""
    pts = list(ORBIT)
    for t in (-9, -2, 0, 1, 7):
        pts.append(xi_eval(1, t))
        pts.append(xi_eval(2, t))
    pts.append(r_value(3, 7))
    pts.append(r_value(9, 2))
    pts.append(tuple(Fraction(v) for v in (-4, 3, 2, -1)))
    return pts


points = st.sampled_from(surface_points())
involutions = st.sampled_from(group_elements())


def test_group_has_32_elements_and_is_closed():
    elems = group_elements()
    assert len(elems) == 32
    assert len(set(elems)) == 32
    table = set(elems)
    for g in elems[:8]:
        for h in elems:
            assert g.compose(h) in table
    assert IDENTITY in table and TAU in table


def test_sign_flips_are_involutions():
    for i in (1, 2, 3, 4):
        g = mu(i)
        assert g.compose(g).is_identity()
    assert TAU.compose(TAU).is_identity()
    assert ZETA_TWIST == TAU.compose(mu(1, 4)) == mu(1, 4).compose(TAU)


@given(involutions, points)
def test_involutions_preserve_the_surface(g, pt):
    assert on_surface(pt)
    assert on_surface(g(pt))


@given(involutions, involutions, points)
def test_composition_is_application_order(g, h, pt):
    assert g.compose(h)(pt) == g(h(pt))
    assert g.inverse().compose(g).is_identity()


def test_relation_suite_passes():
    report = verify_group_relations()
    assert report.ok, report.failures()


def test_relation_suite_proves_the_compiled_kernel(monkeypatch):
    # a kernel whose first form gains B*C*L^2 is no longer an involution:
    # the suite reads phi off the kernel, so its composition check fails too
    kernel = _phi_kernel()

    def bumped(A, B, C, D, L):
        first, *rest = kernel(A, B, C, D, L)
        return (first + B * C * L * L, *rest)

    monkeypatch.setattr(maps, "_phi_kernel", lambda: bumped)
    monkeypatch.setattr(verify, "_phi_kernel", lambda: bumped)
    failures = verify_group_relations().failures()
    assert "compiled kernel is the asset's involution" in failures
    assert "involution composed with itself is the identity" in failures


def test_phi_anchor():
    # the twist of (1,2,3,4) lands at (-4,3,2,-1), which the involution sends on
    assert ZETA_TWIST((1, 2, 3, 4)) == (-4, 3, 2, -1)
    assert apply_phi((-4, 3, 2, -1)) == (6, 23, 32, 39)


def test_phi_is_an_involution_pointwise():
    for pt in [(6, 23, 32, 39), (-4, 3, 2, -1), r_value(3, 7)]:
        image = apply_phi(pt)
        assert on_surface(image)
        assert tuple(Fraction(v) for v in apply_phi(image)) == tuple(
            Fraction(v) for v in pt
        )


@given(points)
def test_phi_is_odd(pt):
    try:
        lhs = apply_phi(tuple(-v for v in pt))
    except DenominatorVanishes:
        return
    assert lhs == tuple(-v for v in apply_phi(pt))


def test_phi_undefined_on_the_degenerate_locus():
    # b = c forces the denominator (b-c)^2 (a-2b+c) to zero
    with pytest.raises(DenominatorVanishes):
        apply_phi((1, 0, 0, 1))
    with pytest.raises(DenominatorVanishes):
        apply_phi((Fraction(1, 2), Fraction(2, 3), Fraction(2, 3), Fraction(-5, 7)))


def _phi_by_evaluate(pt):
    """phi by MPoly4.evaluate and one division per coordinate, in Fraction
    at numbers and in RatFunc at symbolic points: the reference for the
    monomial table apply_phi evaluates."""
    pm = phi_map()
    numeric = all(isinstance(x, (int, Fraction)) for x in pt)
    ring = Fraction if numeric else RatFunc.of
    den = ring(pm.q.evaluate(pt))
    if den == 0:
        raise DenominatorVanishes
    return tuple(ring(p.evaluate(pt)) / den for p in pm.p)


def test_phi_integer_path_matches_polynomial_evaluation():
    outer = group_elements()[::3]
    checked = 0
    for i, t in ((1, 2), (3, Fraction(1, 3)), (7, 3), (8, 1), (9, Fraction(-5, 2))):
        w = r_value(i, t)
        for _ in range(4):  # zeta^k(r(i, t)) for k = 0..3
            for g in outer:
                pt = g(w)
                try:
                    want = _phi_by_evaluate(pt)
                except DenominatorVanishes:
                    with pytest.raises(DenominatorVanishes):
                        apply_phi(pt)
                    continue
                assert apply_phi(pt) == want
                checked += 1
            w = apply_zeta(w)
    assert checked > 100


_BIG = st.integers(-(2**80), 2**80)


@given(st.tuples(_BIG, _BIG, _BIG, _BIG), st.integers(2, 2**80))
@settings(max_examples=200, deadline=None)
def test_phi_kernel_equals_polynomial_evaluation_on_big_vectors(head, ell):
    # any primitive vector, on the surface or not: the kernel is the five
    # polynomials of the asset homogenized to one degree h in L
    if gcd(*head, ell) != 1:
        return
    pm = phi_map()
    polys = (*pm.p, pm.q)
    h = max(f.total_degree() for f in polys)
    pt = tuple(Fraction(x, ell) for x in head)
    want = tuple(f.evaluate(pt) * ell**h for f in polys)
    got = _phi_kernel()(*head, ell)
    assert got == want
    if want[4] == 0:
        with pytest.raises(DenominatorVanishes):
            phi_vector((*head, ell))
    else:
        *nums, den = phi_vector((*head, ell))
        assert den > 0 and gcd(*nums, den) == 1
        assert tuple(Fraction(n, den) for n in nums) == tuple(
            Fraction(p, want[4]) for p in want[:4]
        )


def test_phi_matches_polynomial_evaluation_at_symbolic_points():
    # rational-function coordinates (r(3)) and polynomial ones (Z(xi(n)))
    den, nums = r_family(3)
    symbolic = [tuple(RatFunc(n, den) for n in nums)]
    symbolic += [ZETA_TWIST(xi_poly(n)) for n in range(3)]
    for pt in symbolic:
        got = apply_phi(pt)
        assert all(isinstance(v, RatFunc) for v in got)
        assert got == _phi_by_evaluate(pt)


@given(points)
def test_zeta_inverse_cancels(pt):
    try:
        image = apply_zeta(pt)
        back = apply_zeta_inv(image)
    except DenominatorVanishes:
        return
    assert tuple(Fraction(v) for v in back) == tuple(Fraction(v) for v in pt)
    assert on_surface(image)


def test_zeta_orbit_anchors():
    assert zeta_orbit((1, 2, 3, 4), 4) == [
        tuple(Fraction(v) for v in pt) if i else pt for i, pt in enumerate(ORBIT)
    ]


def test_pell_values():
    assert [pell(n) for n in range(6)] == [0, 1, 10, 99, 980, 9701]
    with pytest.raises(ValueError):
        pell(-1)


def test_pell_point_matches_the_orbit():
    for n, pt in enumerate(ORBIT):
        assert pell_point(n) == pt


def test_orbit_satisfies_the_linear_recurrence():
    # component-wise u(n+2) = 10 u(n+1) - u(n) along the whole orbit
    pts = [as_int_point(p) for p in zeta_orbit((1, 2, 3, 4), 20)]
    assert all(p is not None for p in pts)
    for n in range(18):
        for i in range(4):
            assert pts[n + 2][i] == 10 * pts[n + 1][i] - pts[n][i]
    for n, p in enumerate(pts):
        assert pell_point(n) == p


def test_normalize_point():
    g, norm = normalize_point((-4, 3, 2, -1))
    assert norm == (1, 2, 3, 4)
    assert g((-4, 3, 2, -1)) == norm
    g, norm = normalize_point((39, 32, 23, 6))
    assert norm == (6, 23, 32, 39)
    assert normalize_point((1, 2, 2, 1)) is None  # repeated magnitude
    assert normalize_point((0, 1, 2, 3)) is None  # zero coordinate


@given(involutions, points)
def test_normalize_inverts_any_scramble(g, pt):
    mags = sorted(abs(v) for v in pt)
    if 0 in mags or len(set(mags)) < 4:
        return  # normalization is defined exactly off this locus
    scrambled = g(pt)
    got = normalize_point(scrambled)
    assert got is not None
    h, norm = got
    assert h(scrambled) == norm
    assert norm == tuple(mags)


def test_as_int_point():
    assert as_int_point((Fraction(4, 2), 3, Fraction(4), 5)) == (2, 3, 4, 5)
    assert as_int_point((Fraction(1, 2), 1, 1, 1)) is None
