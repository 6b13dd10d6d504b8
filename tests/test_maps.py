"""The trivial involution group, the rational involution, and the
degree-growing map with its Pell-driven base orbit."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buchi4 import maps, verify
from buchi4.arith import exact
from buchi4.families import p_family, r_value, xi_eval, xi_poly
from buchi4.maps import (
    IDENTITY,
    TAU,
    ZETA_TWIST,
    DenominatorVanishes,
    TrivialInvolution,
    apply_phi,
    apply_zeta,
    apply_zeta_inv,
    group_elements,
    mu,
    normalize_point,
    on_surface,
    pell,
    phi_map,
    phi_vector,
    pell_point,
    to_vector,
    zeta_orbit,
)
from buchi4.poly import NonExactDivision, UPoly
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


def test_relation_suite_proves_the_runtime_formula(monkeypatch):
    # a formula whose first numerator gains B*C*L^2 is neither the asset's
    # involution nor an involution: the suite's proofs read phi off the
    # formula (the numeric checks keep the real one, since the bumped map
    # leaves the surface and phi_vector refuses points off it)
    forms = maps._phi_forms

    def bumped(A, B, C, D, L):
        first, *rest = forms(A, B, C, D, L)
        return (first + B * C * L * L, *rest)

    monkeypatch.setattr(verify, "_phi_forms", bumped)
    failures = verify_group_relations().failures()
    assert "runtime formula equals the asset's involution on the surface" in failures
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
    """phi by MPoly4.evaluate and one Fraction division per coordinate: the
    reference for the formula apply_phi evaluates."""
    pm = phi_map()
    den = Fraction(pm.q.evaluate(pt))
    if den == 0:
        raise DenominatorVanishes
    return tuple(p.evaluate(pt) / den for p in pm.p)


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


_BIG = st.integers(-(2**40), 2**40)


@given(
    st.integers(1, 15),
    _BIG,
    st.integers(1, 2**40),
    involutions,
    st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_phi_kernel_equals_polynomial_evaluation_on_big_vectors(i, num, den, g, k):
    # big surface points zeta^k(g(r(i, num/den))): phi_vector equals the
    # asset's p_i / q by MPoly4.evaluate exactly; the formula is phi only on
    # the surface, so the point with D moved by 1 raises ValueError
    try:
        pt = g(r_value(i, Fraction(num, den)))
        for _ in range(k):
            pt = apply_zeta(pt)
    except ZeroDivisionError:
        return
    v = to_vector(pt)
    # D^2 moves by 2D + 1, which is odd, so off is off the surface, and D
    # does not enter the guard (b - c)(a - 2b + c)
    off = (*v[:3], v[3] + 1, v[4])
    pm = phi_map()
    q = pm.q.evaluate(pt)
    if q == 0:
        for w in (v, off):
            with pytest.raises(DenominatorVanishes):
                phi_vector(w)
        return
    *nums, q_out = phi_vector(v)
    assert q_out > 0 and gcd(*nums, q_out) == 1
    assert tuple(Fraction(n, q_out) for n in nums) == tuple(
        p.evaluate(pt) / q for p in pm.p
    )
    with pytest.raises(ValueError):
        phi_vector(off)


def test_phi_raises_off_the_surface():
    # numeric and polynomial points with the last coordinate moved by 1
    with pytest.raises(ValueError):
        apply_phi((-4, 3, 2, 0))
    x1, x2, x3, x4 = ZETA_TWIST(xi_poly(1))
    with pytest.raises(ValueError):
        apply_phi((x1, x2, x3, x4 + 1))


def test_phi_matches_polynomial_evaluation_at_symbolic_points():
    # at Z(xi(n)) each image coordinate times the asset's q is its p_i
    pm = phi_map()
    for n in range(3):
        pt = ZETA_TWIST(xi_poly(n))
        got = apply_phi(pt)
        q = pm.q.evaluate(pt)
        assert all(isinstance(v, UPoly) for v in got) and not q.is_zero()
        assert all(g * q == p.evaluate(pt) for g, p in zip(got, pm.p))
    # the quartic families' images are not polynomial
    for name in ("quartic-even", "quartic-odd"):
        _, nums = p_family(name)
        with pytest.raises(NonExactDivision):
            apply_phi(nums)
    x1, x2, x3, _ = ZETA_TWIST(xi_poly(1))
    for pt in [(x1, x2, x3, 0.5), (1.0, 2, 3, 4)]:
        with pytest.raises(TypeError):
            apply_phi(pt)


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
    pts = [tuple(map(exact, p)) for p in zeta_orbit((1, 2, 3, 4), 20)]
    assert all(type(x) is int for p in pts for x in p)
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

