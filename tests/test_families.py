"""Parametrization families, structure checks, and classification."""

import random
from fractions import Fraction
from importlib import resources
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buchi4 import families
from buchi4.families import (
    _MAX_CHAIN,
    _SIEVE_PRIMES,
    Classification,
    _chain_representatives,
    _constraints,
    _descend,
    _exact_parameters,
    _family_has,
    _family_parameter,
    _family_sieve,
    _forms,
    _invert_family,
    _invert_xi,
    _rational_roots,
    _residue_image,
    _sieve_mask,
    _sieve_tables,
    F_POLY,
    NonIntegral,
    classify,
    descent_chain,
    extends,
    extends_left,
    extends_right,
    is_increasing_positive,
    is_trivial,
    p_eval,
    p_family,
    p_value,
    prop33_solve,
    r_eval,
    r_family,
    r_value,
    thirds_family,
    trivial_parameter,
    verify_classification,
    xi_closed_form,
    xi_eval,
    xi_poly,
)
from buchi4.maps import (
    IDENTITY,
    DenominatorVanishes,
    apply_zeta,
    apply_zeta_inv,
    as_int_point,
    group_elements,
    normalize_point,
    on_surface,
    to_vector,
    zeta_inv_vector,
)
from buchi4.poly import UPoly, gcd_mod, horner, upoly_gcd
from buchi4.polytext import format_upoly
from buchi4.search import bundled_table
from buchi4.verify import (
    growth_check,
    negative_t_forms,
    symmetry_check,
    verify_families,
)

# the three low rows, coefficients constant-first
XI1 = (
    UPoly((6, 19, 12, 2)),
    UPoly((23, 31, 14, 2)),
    UPoly((32, 41, 16, 2)),
    UPoly((39, 49, 18, 2)),
)
XI2 = (
    UPoly((59, 249, 322, 178, 44, 4)),
    UPoly((228, 539, 496, 222, 48, 4)),
    UPoly((317, 729, 634, 262, 52, 4)),
    UPoly((386, 879, 748, 298, 56, 4)),
)
XI3 = (
    UPoly((584, 3061, 5816, 5496, 2864, 836, 128, 8)),
    UPoly((2257, 7639, 10792, 8256, 3692, 964, 136, 8)),
    UPoly((3138, 10419, 14248, 10416, 4408, 1084, 144, 8)),
    UPoly((3821, 12601, 17024, 12216, 5036, 1196, 152, 8)),
)


def test_xi_low_rows_are_exactly_the_known_lists():
    assert xi_poly(1) == XI1
    assert xi_poly(2) == XI2
    assert xi_poly(3) == XI3


def test_xi_recurrence_drives_the_rows():
    for n in (1, 2, 3, 4, 5):
        for i in range(4):
            assert xi_poly(n + 2)[i] == F_POLY * xi_poly(n + 1)[i] - xi_poly(n)[i]


def test_xi_degrees_and_positivity():
    for n in range(1, 13):
        for p in xi_poly(n):
            assert p.degree == 2 * n + 1
            assert p.lc() > 0


def test_xi1_is_positive_and_its_floors_follow_the_integer_recurrence():
    # _invert_xi reads its level floors off a_{n+1} = 10 a_n - a_{n-1}, on
    # the induction its docstring proves; here the polynomials themselves
    # show, level by level, positive coefficients and the same floors
    floors = list(families._XI1_FLOORS)
    while len(floors) < 13:
        floors.append(10 * floors[-1] - floors[-2])
    assert floors[:5] == [1, 6, 59, 584, 5781]
    for n in range(13):
        coeffs = xi_poly(n)[0].coeffs
        assert all(c > 0 for c in coeffs), n
        assert coeffs[0] == floors[n]


def test_xi_rows_satisfy_both_equations_symbolically():
    for n in (1, 2, 3, 4):
        x1, x2, x3, x4 = xi_poly(n)
        assert x1 * x1 - 2 * x2 * x2 + x3 * x3 == UPoly((2,))
        assert x2 * x2 - 2 * x3 * x3 + x4 * x4 == UPoly((2,))


def test_xi_eval_matches_polynomials():
    for n in (1, 2, 3):
        for t in (-7, -1, 0, 2, 11):
            assert xi_eval(n, t) == tuple(p(t) for p in xi_poly(n))


def test_xi_rejects_a_negative_index():
    # xi_poly is xi_eval at T, so both refuse n < 0 the same way
    with pytest.raises(ValueError):
        xi_poly(-1)
    with pytest.raises(ValueError):
        xi_eval(-1, 0)


def test_xi_eval_anchors():
    assert xi_eval(1, 0) == (6, 23, 32, 39)
    assert xi_eval(2, 0) == (59, 228, 317, 386)
    assert xi_eval(4, 0) == (5781, 22342, 31063, 37824)


def test_closed_form_equals_recurrence():
    for n in range(0, 7):
        assert xi_closed_form(n) == xi_poly(n)


def test_prop33_anchors():
    # u0=0, u1=1, alpha=10: the classical value chain 0,1,10,99,980,9701
    assert prop33_solve(10, 0, 1, 10, 2, "odd") == 99
    assert prop33_solve(10, 0, 1, 10, 3, "odd") == 9701
    assert prop33_solve(10, 0, 1, 10, 2, "even") == 980
    # u0=3, u1=7: 3, 7, 67, 663, 6563, 64967
    assert prop33_solve(10, 3, 7, 67, 2, "even") == 6563
    assert prop33_solve(10, 3, 7, 67, 2, "odd") == 663
    assert prop33_solve(10, 3, 7, 67, 3, "odd") == 64967


def test_prop33_requires_a_consistent_start():
    with pytest.raises(ValueError):
        prop33_solve(10, 0, 1, 11, 2, "odd")
    with pytest.raises(ValueError):
        prop33_solve(10, 0, 1, 10, 2, "sideways")


@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100)
def test_prop33_agrees_with_the_recurrence(alpha, u0, u1, n):
    seq = [u0, u1]
    while len(seq) <= 2 * n:
        seq.append(alpha * seq[-1] - seq[-2])
    assert prop33_solve(alpha, u0, u1, seq[2], n, "even") == seq[2 * n]
    assert prop33_solve(alpha, u0, u1, seq[2], n, "odd") == seq[2 * n - 1]


def test_prop33_works_over_polynomials():
    # the xi rows themselves satisfy the recurrence with alpha = F_POLY
    x0, x2 = xi_poly(0)[0], xi_poly(2)[0]
    x1 = xi_poly(1)[0]
    assert prop33_solve(F_POLY, x0, x1, x2, 2, "even") == xi_poly(4)[0]
    assert prop33_solve(F_POLY, x0, x1, x2, 2, "odd") == xi_poly(3)[0]


def test_structure_checks_pass():
    assert symmetry_check(4)
    forms = negative_t_forms(5)  # raises if any closed form disagrees
    assert forms[0] == (-15, 16, 17, 18)
    assert growth_check(4, 4).ok


def test_quartic_family_anchors():
    assert p_eval(0) == (51, 148, 203, 246)
    assert p_eval(1) == (147, 302, 401, 480)
    assert p_value(2) == (324, 557, 718, 849)
    with pytest.raises(NonIntegral):
        p_eval(3)
    with pytest.raises(NonIntegral):
        p_eval(-5)
    with pytest.raises(NonIntegral):
        p_eval(Fraction(1, 2))  # values over 64, not the numerators
    assert p_eval(Fraction(4, 2)) == p_eval(2) == (324, 557, 718, 849)
    # rational exactly on t = 3 mod 4; values recomputed from the numerators
    assert p_value(3) == (
        Fraction(1233, 2),
        Fraction(1901, 2),
        Fraction(2389, 2),
        Fraction(2793, 2),
    )


def test_quartic_family_is_buchi_symbolically():
    den, (p1, p2, p3, p4) = p_family()
    two_den2 = UPoly((2 * den * den,))
    assert p1 * p1 - 2 * p2 * p2 + p3 * p3 == two_den2
    assert p2 * p2 - 2 * p3 * p3 + p4 * p4 == two_den2


def test_even_odd_forms_specialize_the_quartic():
    _, base = p_family()
    den_e, even = p_family("quartic-even")
    den_o, odd = p_family("quartic-odd")
    assert den_e == den_o == 1
    for t in range(-6, 7):
        assert tuple(c(t) for c in even) == tuple(Fraction(c(2 * t), 4) for c in base)
        assert tuple(c(t) for c in odd) == tuple(
            Fraction(c(4 * t + 1), 4) for c in base
        )


def test_thirds_family_misses_integers():
    den, nums = thirds_family()
    assert den == 3
    for t in range(-20, 21):
        vals = tuple(Fraction(n(t), 3) for n in nums)
        assert any(v.denominator == 3 for v in vals)


def test_r_families_evaluate_and_guard_poles():
    assert r_value(3, 7) == (
        Fraction(17261, 56),
        Fraction(36035, 56),
        Fraction(47949, 56),
        Fraction(57443, 56),
    )
    with pytest.raises(DenominatorVanishes):
        r_value(3, 0)  # denominator 8t vanishes
    with pytest.raises(KeyError):
        r_family(16)
    with pytest.raises(KeyError):
        r_value(0, 1)  # index 0 is not the quartic family
    with pytest.raises(KeyError):
        r_value(16, 1)
    assert r_eval(12, 1) == r_value(12, 1)


def test_r_families_all_satisfy_the_equations():
    for i in range(1, 16):
        den, (r1, r2, r3, r4) = r_family(i)
        two_den2 = 2 * den * den
        assert r1 * r1 - 2 * r2 * r2 + r3 * r3 == two_den2
        assert r2 * r2 - 2 * r3 * r3 + r4 * r4 == two_den2


def _as_upoly(x):
    return x if isinstance(x, UPoly) else UPoly((x,))


def _raw_family_blocks(asset):
    """{block name: {key: text}} from the raw text of a bundled family
    file, read here rather than through the package's own loader."""
    text = resources.files("buchi4.assets").joinpath(asset).read_text()
    blocks = {}
    for line in map(str.strip, text.splitlines()):
        if line.startswith("["):
            block = blocks[line[1:-1]] = {}
        elif line and not line.startswith("#"):
            key, _, body = line.partition(":")
            block[key.strip()] = body.strip()
    return blocks


def test_family_polynomials_print_as_their_asset_lines():
    count = 0
    variants = ("quartic", "quartic-even", "quartic-odd", "thirds")
    for asset, family, names in (
        ("poly_families.txt", p_family, variants),
        ("rat_families.txt", r_family, range(1, 16)),
    ):
        blocks = _raw_family_blocks(asset)
        assert list(blocks) == [str(name) for name in names]
        for name in names:
            den, nums = family(name)
            got = {"den": format_upoly(_as_upoly(den))}
            got.update((f"n{j}", format_upoly(n)) for j, n in enumerate(nums, 1))
            assert got == blocks[str(name)], name
            count += len(got)
    assert count == 95


def test_family_value_is_the_quotient_of_the_polynomials():
    grid = [*range(-6, 7)] + [
        Fraction(a, b) for a in range(-12, 13) for b in (2, 3, 4, 5, 7, 8)
    ]
    poles = 0
    for index in FAMILY_INDICES:
        den, nums = _family(index)
        den = _as_upoly(den)
        for t in grid:
            d = den(t)
            if d == 0:
                poles += 1
                with pytest.raises(DenominatorVanishes):
                    families._family_value(index, t)
            else:
                want = tuple(n(t) / d for n in nums)
                assert families._family_value(index, t) == want, (index, t)
    assert poles  # r3, r4, r6, r7, r8, r11, r12 and r13 vanish at small integers


def test_trivial_detection():
    assert trivial_parameter((1, 2, 3, 4)) == 0
    assert trivial_parameter((7, 8, 9, 10)) == 6
    assert trivial_parameter((-3, 4, 5, 6)) == 2  # signs may flip freely
    assert trivial_parameter((9, 8, 7, -6)) == -10
    assert trivial_parameter((6, 23, 32, 39)) is None
    assert is_trivial((0, -1, -2, -3))
    assert not is_trivial((59, 630, 889, 1088))


def test_extension_tests():
    # trivial sequences extend on both sides
    assert extends_left((1, 2, 3, 4)) == 0
    assert extends_right((1, 2, 3, 4)) == 5
    # no non-trivial extension is known; the first row anchors the negative
    assert extends_left((6, 23, 32, 39)) is None
    assert extends_right((6, 23, 32, 39)) is None
    assert extends((6, 23, 32, 39), "left") is None
    with pytest.raises(ValueError):
        extends((1, 2, 3, 4), "up")


def test_increasing_positive():
    assert is_increasing_positive((1, 2, 3, 4))
    assert not is_increasing_positive((0, 1, 2, 3))
    assert not is_increasing_positive((2, 1, 3, 4))


# -- classification ------------------------------------------------------


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify((1, 2, 2, 1))  # not on the surface
    with pytest.raises(ValueError):
        classify((39, 32, 23, 6))  # non-trivial but decreasing


def test_classify_anchors():
    assert classify((1, 2, 3, 4)).describe() == "Trivial(x=0)"
    assert classify((9, 8, 7, -6)).describe() == "Trivial(x=-10)"
    assert classify((6, 23, 32, 39)).describe() == "Xi(n=1, t=0)"
    assert classify((39, 70, 91, 108)).describe() == "Xi(n=1, t=1)"
    assert classify((5781, 22342, 31063, 37824)).describe() == "Xi(n=4, t=0)"
    assert classify((51, 148, 203, 246)).describe() == "P(t=0)"
    assert classify((147, 302, 401, 480)).describe() == "P(t=1)"
    assert classify((16, 87, 122, 149)).describe() == "R(i=4, t=6)"
    assert classify((59, 630, 889, 1088)).describe() == "Sporadic"
    assert classify((83, 516, 725, 886)).describe() == "Sporadic"


def _lift_of(base_point, k, step=apply_zeta):
    # classification handles rational points; most towers never hit integers
    w = base_point
    for _ in range(k):
        w = step(w)
    _, norm = normalize_point(w)
    return tuple(Fraction(v) for v in norm)


def test_classify_finds_lift_towers():
    lifted = _lift_of(r_value(3, 7), 1)
    cls = classify(lifted)
    assert cls.kind == "lift" and cls.lifts == 1
    assert cls.base.describe() == "R(i=3, t=7)"
    lifted2 = _lift_of(r_value(3, 7), 2)
    cls2 = classify(lifted2)
    assert cls2.serialize() == "zeta^2(r:3:7)"
    assert verify_classification(lifted2, cls2)


def test_inverse_images_classify_as_positive_lifts():
    # zeta^-1(b) = Z(zeta(Z(b))) for the twist Z, and Z(b) normalizes to b,
    # so an inverse image is a one-step tower over the same base
    for base, name in (
        (r_value(1, 2), "r:1:2"),
        (r_value(3, 7), "r:3:7"),
        (r_value(4, 6), "r:4:6"),
        (p_value(1), "p:1"),
    ):
        pt = _lift_of(base, 1, step=apply_zeta_inv)
        cls = classify(pt)
        assert cls.serialize() == f"zeta^1({name})"
        assert verify_classification(pt, cls)


def test_classify_is_sound_on_every_kind():
    for seq in [
        (1, 2, 3, 4),
        (6, 23, 32, 39),
        (51, 148, 203, 246),
        (16, 87, 122, 149),
        _lift_of(r_value(3, 7), 1),
        (59, 630, 889, 1088),
    ]:
        cls = classify(seq)
        assert verify_classification(seq, cls), (seq, cls)


def test_involution_images_of_family_values_are_not_members():
    # R_4(-2) is the reversed negation of the first reference row; membership
    # is signed ordered equality, so the row itself stays Sporadic
    assert r_value(4, -2) == (-1088, -889, -630, -59)
    assert classify((59, 630, 889, 1088)).kind == "sporadic"


def test_serialization_round_trips():
    for seq in [
        (6, 23, 32, 39),
        (51, 148, 203, 246),
        (16, 87, 122, 149),
        (59, 630, 889, 1088),
        _lift_of(r_value(3, 7), 2),
    ]:
        cls = classify(seq)
        assert Classification.parse(cls.serialize()) == cls
        assert isinstance(cls.to_json(), dict)
    # the serialized trivial form is the bare token, so the parameter is
    # not recoverable; the round trip holds at the string level
    cls = classify((1, 2, 3, 4))
    assert cls.serialize() == "trivial"
    parsed = Classification.parse("trivial")
    assert parsed.kind == "trivial" and parsed.serialize() == "trivial"


def test_parse_rejects_what_classify_never_returns():
    for text in [
        "zeta^0(xi:1:0)",
        "zeta^-2(xi:1:0)",
        "zeta^1(zeta^1(xi:1:0))",
        "zeta^1(sporadic)",
        "xi:0:3",
        "xi:1:1/2",
        "xi:1:-1",
        "r:99:1",
        "r:0:1",
    ]:
        with pytest.raises(ValueError):
            Classification.parse(text)
    for text in [
        "zeta^1(trivial)",
        "zeta^2(r:3:7)",
        "zeta^3(xi:2:5)",
        "zeta^1(p:-1/2)",
        "xi:1:0",
        "r:15:-3/4",
        "r:1:2",
    ]:
        assert Classification.parse(text).serialize() == text


def test_descent_chain_reaches_the_orbit_base():
    chain = descent_chain((5781, 22342, 31063, 37824))
    assert chain[0] == (5781, 22342, 31063, 37824)
    assert chain[-1] == (1, 2, 3, 4)
    assert len(chain) == 5


def test_descent_chain_stalls_on_sporadic_points():
    chain = descent_chain((59, 630, 889, 1088))
    assert chain[0] == (59, 630, 889, 1088)
    assert all(not is_trivial(pt) for pt in chain)


def test_descent_chain_stops_where_phi_is_undefined():
    # on the surface and not trivial, but b = c leaves phi undefined, so
    # the chain is the point alone
    pt = (Fraction(9, 4), Fraction(7, 4), Fraction(7, 4), Fraction(9, 4))
    assert on_surface(pt) and not is_trivial(pt)
    with pytest.raises(ZeroDivisionError):
        zeta_inv_vector(to_vector(pt))
    assert descent_chain(pt) == [pt]


def test_full_verification_report():
    report = verify_families()
    assert report.ok, report.failures()


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=-40, max_value=40))
@settings(max_examples=40, deadline=None)
def test_classify_recovers_xi_everywhere(n, t):
    seq = xi_eval(n, t)
    if not is_increasing_positive(seq):
        return
    cls = classify(seq)
    if is_trivial(seq):
        assert cls.kind == "trivial"
    else:
        assert (cls.kind, cls.n, cls.t) == ("xi", n, t)


@given(st.integers(min_value=-40, max_value=40))
@settings(max_examples=40, deadline=None)
def test_classify_recovers_the_quartic_family(t):
    try:
        seq = p_eval(t)
    except NonIntegral:
        return
    if not is_increasing_positive(seq):
        return
    cls = classify(seq)
    if is_trivial(seq):
        assert cls.kind == "trivial"
    else:
        assert (cls.kind, cls.t) == ("p", t)


# -- the integer family match and its modular certificate --------------------

# index 0 is the quartic family, 1..15 the rational families
FAMILY_INDICES = range(16)
CERT_PRIME = 2**31 - 1


def _family(index):
    return r_family(index) if index else p_family()


def _family_value(index, t):
    return r_value(index, t) if index else p_value(t)


def _reference_candidates(den, nums, w):
    """The Fraction path the integer one replaced: the gcd of the
    constraints n_j - den w_j as UPoly, by upoly_gcd."""
    den_p = den if isinstance(den, UPoly) else UPoly((den,))
    constraints = [nj - den_p * Fraction(sj) for nj, sj in zip(nums, w)]
    constraints = [c for c in constraints if not c.is_zero()]
    if not constraints:
        return []
    g = constraints[0]
    for c in constraints[1:]:
        if g.degree <= 1:
            break
        g = upoly_gcd(g, c)
    if g.degree == 0:
        return []
    if g.degree == 1:
        return [Fraction(-g[0] / g[1])]
    return _rational_roots(g)


# parameters whose height is past the bound sqrt(p/2) = 32767 of the
# rational reconstruction at CERT_PRIME, so only the exact path finds them
BEYOND_RECONSTRUCTION = (10**6 + 1, Fraction(40001, 3), -(10**6), 2**40 + 1)


def test_parameter_candidates_find_members_at_integer_and_rational_t():
    params = (
        -3, 1, 2, 5, Fraction(1, 2), Fraction(-7, 3), Fraction(11, 5),
        *BEYOND_RECONSTRUCTION,
    )
    for index in FAMILY_INDICES:
        for t in params:
            try:
                value = _family_value(index, t)
            except DenominatorVanishes:
                continue
            got = _exact_parameters(_constraints(_forms(index), to_vector(value)))
            assert Fraction(t) in got, (index, t, got)
            assert got == _reference_candidates(*_family(index), value)


def _table_points_and_lifts():
    rows = sorted({row for _, row in bundled_table() if row[1] <= 30000})
    points = []
    for row in rows:
        points.append(row)
        for step in (apply_zeta, apply_zeta_inv):
            try:
                points.append(step(row))
            except DenominatorVanishes:
                pass
    return rows, points


def _exact_parameter(index, v):
    """_family_parameter by the exact path alone: int_poly_gcd candidates,
    the first one that _family_has accepts."""
    candidates = _exact_parameters(_constraints(_forms(index), v))
    return next((t for t in candidates if _family_has(index, t, v)), None)


def _count_calls(monkeypatch, name):
    """Record the arguments of every call to families.<name>."""
    calls = []
    wrapped = getattr(families, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(families, name, counted)
    return calls


def test_modular_route_equals_the_exact_path_on_chain_nodes(monkeypatch):
    rows, _ = _table_points_and_lifts()
    nodes = {
        to_vector(w) for pt in rows + _bench_lifts() for w in descent_chain(pt)
    }
    for index in FAMILY_INDICES:
        for t in (-2, 1, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)):
            try:
                nodes.add(to_vector(_family_value(index, t)))
            except DenominatorVanishes:
                pass
    want = {
        (index, v): _exact_parameter(index, v)
        for v in nodes for index in FAMILY_INDICES
    }
    assert sum(t is not None for t in want.values()) >= 90
    calls = _count_calls(monkeypatch, "_exact_parameters")
    built = _count_calls(monkeypatch, "_constraints")
    modular = _count_calls(monkeypatch, "gcd_mod")
    for (index, v), t in want.items():
        for log in (calls, built, modular):
            log.clear()
        assert _family_parameter(index, v) == t, (index, v)
        # a hit at a parameter within the bound is settled mod p: its
        # degree-one gcd is rebuilt and confirmed
        assert t is None or not calls, (index, v)
        # one pass: the constraints are built and reduced mod p at most
        # once, and the exact fallback reuses them (its root finder calls
        # gcd_mod on the gcd and its derivative at small primes, not on the
        # constraints at p)
        reduced = [args for args in modular if args[1] == CERT_PRIME]
        assert len(built) <= 1 and len(reduced) <= 1, (index, v)


def test_members_beyond_the_reconstruction_bound_take_the_exact_path(monkeypatch):
    calls = _count_calls(monkeypatch, "_exact_parameters")
    checked = 0
    for index in FAMILY_INDICES:
        for t in BEYOND_RECONSTRUCTION:
            value = _family_value(index, t)
            calls.clear()
            assert _family_parameter(index, to_vector(value)) == t, (index, t)
            assert calls, (index, t)
            if is_increasing_positive(value):
                cls = classify(value)
                assert cls.serialize() == (f"r:{index}:{t}" if index else f"p:{t}")
                assert verify_classification(value, cls)
                checked += 1
        # a parameter within the bound never reaches the exact gcd
        calls.clear()
        assert _family_parameter(index, to_vector(_family_value(index, 32767))) == 32767
        assert not calls
    assert checked >= 40


def test_parameter_candidates_match_the_fraction_path_off_the_families():
    rows, points = _table_points_and_lifts()
    assert len(rows) == 57 and len(points) > 2 * len(rows)
    for index in FAMILY_INDICES:
        forms = _forms(index)
        ref_den, ref_nums = _family(index)
        for pt in points:
            got = _exact_parameters(_constraints(forms, to_vector(pt)))
            assert got == _reference_candidates(ref_den, ref_nums, pt), (index, pt)


def _int_product(*factors):
    """The integer coefficient list, constant first, of a product of
    integer coefficient lists."""
    return prod((UPoly(f) for f in factors), start=UPoly((1,))).int_coeffs()


def test_exact_parameters_of_a_gcd_of_degree_two():
    # (t - 1)(2t + 3) is the gcd: both of its roots come back
    shared = _int_product((-1, 1), (3, 2))
    constraints = [_int_product(shared, (5, 1)), _int_product(shared, (7, 0, 1))]
    assert _exact_parameters(constraints) == [Fraction(-3, 2), Fraction(1)]
    # t^2 - 2 is the gcd: no rational root, no candidate
    shared = (-2, 0, 1)
    constraints = [_int_product(shared, (1, 1)), _int_product(shared, (4, 3))]
    assert _exact_parameters(constraints) == []


# t^2 + c with c > 0 and t^2 - 2 have no rational root, but they have roots
# mod many primes, which lift to fractions that are not roots
IRRATIONAL_QUADRATICS = st.one_of(
    st.integers(1, 10**12).map(lambda c: (c, 0, 1)), st.just((-2, 0, 1))
)


@given(
    st.lists(
        st.tuples(st.integers(-10**25, 10**25), st.integers(1, 3**30), st.integers(1, 3)),
        max_size=4,
    ),
    st.lists(IRRATIONAL_QUADRATICS, max_size=2),
    st.integers(-10**6, 10**6).filter(bool),
)
@example([(0, 1, 2), (-7, 3, 1)], [(2, 0, 1), (-2, 0, 1)], -6)
@example([(5, 1, 3), (10**25, 3**30, 2)], [(1, 0, 1)], 1)
@example([], [], 4)
@settings(max_examples=150, deadline=None)
def test_rational_roots_are_the_roots_the_factors_put_in(roots, quadratics, scale):
    # the product of (b t - a)^k and the quadratics, times a scale: its
    # rational roots are exactly the a/b
    factors = [(-a, b) for a, b, k in roots for _ in range(k)]
    poly = UPoly(_int_product(*factors, *quadratics)) * Fraction(scale, 7)
    assert _rational_roots(poly) == sorted({Fraction(a, b) for a, b, _ in roots})


def test_rational_roots_of_the_zero_polynomial_are_undefined():
    with pytest.raises(ValueError):
        _rational_roots(UPoly(()))


# -- the residue sieve in front of the exact family match --------------------

SIEVE_MODULUS = prod(_SIEVE_PRIMES)


def _assert_sieve_keeps(index, t):
    """A value of family index keeps its own bit in the sieve mask; poles
    are skipped."""
    try:
        value = _family_value(index, t)
    except DenominatorVanishes:
        return
    assert _sieve_mask(to_vector(value), _family_sieve()) >> index & 1, (index, t)


def test_sieve_keeps_every_family_value_in_its_own_bit():
    den_roots = 0
    for index in FAMILY_INDICES:
        den = _forms(index)[4]
        for t in range(-40, 41):
            _assert_sieve_keeps(index, t)
        # a denominator divisible by every sieve prime: t reduces to (1 : 0)
        for a in (-7, -1, 1, 2, 5, 11):
            for b in (SIEVE_MODULUS, 3 * SIEVE_MODULUS, SIEVE_MODULUS**2):
                _assert_sieve_keeps(index, Fraction(a, b))
        # t congruent to a root of den mod ell: the last coordinate reduces to 0
        for ell in _SIEVE_PRIMES:
            for r in (r for r in range(ell) if horner(den, r) % ell == 0):
                den_roots += 1
                for b in (1, 2, 3, ell + 1):
                    for k in (-2, -1, 0, 1, 3):
                        _assert_sieve_keeps(index, Fraction(r * b + k * ell, b))
    assert den_roots  # the case above is not vacuous


@given(
    st.sampled_from(FAMILY_INDICES),
    st.integers(-10**6, 10**6),
    st.integers(1, 10**4),
    st.sampled_from((1, *_SIEVE_PRIMES, SIEVE_MODULUS)),
)
@settings(max_examples=200, deadline=None)
def test_sieve_never_rejects_a_family_value(index, a, b, scale):
    _assert_sieve_keeps(index, Fraction(a, b * scale))


def _reference_invert_family(pt, mask=-1):
    """The family match without the sieve: every family (in mask) goes
    through the exact path, and membership is checked in Fractions."""
    for index in FAMILY_INDICES:
        if not mask >> index & 1:
            continue
        forms = _forms(index)
        den = forms[4]
        for t in _exact_parameters(_constraints(forms, to_vector(pt))):
            if horner(den, t) and _family_value(index, t) == pt:
                t = t.numerator if t.denominator == 1 else t
                if index:
                    return Classification("r", index=index, t=t)
                return Classification("p", t=t)
    return None


def test_sieved_family_match_equals_the_unfiltered_loop():
    rows, points = _table_points_and_lifts()
    nodes = [w for row in rows for w in descent_chain(row)]
    values = []
    for index in FAMILY_INDICES:
        for t in (-2, 1, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)):
            try:
                values.append(_family_value(index, t))
            except DenominatorVanishes:
                pass
    hits = 0
    for pt in points + nodes + values:
        got = _invert_family(to_vector(pt))
        assert got == _reference_invert_family(pt), pt
        hits += got is not None
    assert hits >= len(values)


def test_a_loose_family_is_never_rejected_at_its_prime():
    ell = _SIEVE_PRIMES[0]
    # (n1, n2, n3, n4, den) as forms of degree 2: every t^2 coefficient is
    # divisible by ell, so all five vanish at (1 : 0) mod ell
    polys = ((0, 1, ell), (3, 0, 2 * ell), (5, 1, 0), (7, 2, ell), (1, 0, ell))
    keys, loose = _residue_image(polys, ell)
    assert loose and keys
    tables = _sieve_tables([polys], (ell,))
    (_, masks, loose_mask), = tables
    assert loose_mask == 1
    strict = ((ell, masks, 0),)
    escaped = 0
    for a in range(-40, 41):
        for b in (1, 2, ell, 3 * ell, ell * ell):
            t = Fraction(a, b)
            value = tuple(Fraction(horner(cs, t), horner(polys[4], t)) for cs in polys[:4])
            assert _sieve_mask(to_vector(value), tables) & 1, t
            escaped += not _sieve_mask(to_vector(value), strict)
    # values whose parameter reduces to the common root leave the image
    assert escaped


def test_gcd_certificate_helper():
    # coefficient lists, constant term first
    f = [2, 3, 1]  # (t + 1)(t + 2)
    for p in (CERT_PRIME, 2305843009213693951):
        assert gcd_mod([f, [3, 1]], p) == [1]
        assert len(gcd_mod([f, [5, 6, 1]], p)) >= 2  # (t+1)(t+5)
        assert gcd_mod([f, [6, 5, 1], [3, 4, 1]], p) == [1]
        assert gcd_mod([[7]], p) == [1]
    # 7 divides the leading coefficient of the first polynomial only
    assert gcd_mod([[1, 0, 7], [1, 1]], 7) is None
    assert gcd_mod([[1, 1], [1, 0, 7]], 7) == [1]
    # a common factor modulo p alone: t + 1 and t + 8 agree mod 7
    assert len(gcd_mod([[1, 1], [8, 1]], 7)) >= 2
    # the monic gcd itself, and a stop once the degree is at most until
    assert gcd_mod([f, [24, 11, 1]], 7) == [1, 1]  # t + 8 = t + 1 mod 7
    assert gcd_mod([[4, 6, 2], [24, 11, 1]], CERT_PRIME) == [1]
    assert gcd_mod([f, [5, 6, 1], [3, 1]], CERT_PRIME) == [1]
    assert gcd_mod([f, [5, 6, 1], [3, 1]], CERT_PRIME, until=1) == [1, 1]
    assert gcd_mod([[-2, 0, 2]], CERT_PRIME) == [CERT_PRIME - 1, 0, 1]


# -- integer descent against the Fraction walk it replaced -------------------


def _fraction_exact(seq):
    return tuple(
        v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v
        for v in seq
    )


def _squaring_trivial(seq):
    """trivial_parameter as it was: square every candidate x + i."""
    s1 = seq[0]
    for x in (s1 - 1, -s1 - 1):
        if all(s * s == (x + i) * (x + i) for i, s in enumerate(seq, start=1)):
            return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x
    return None


def _fraction_height(pt):
    return max(abs(Fraction(x)) for x in pt)


def _fraction_base_of(w):
    x = _squaring_trivial(w)
    if x is not None:
        return IDENTITY, Classification("trivial", x=x)
    norm = normalize_point(w)
    if norm is None:
        return None
    inner, wn = norm
    ip = as_int_point(wn)
    hit = _invert_xi(ip) if ip is not None else None
    if hit is None:
        # the sieve only narrows the families to solve (checked above)
        hit = _reference_invert_family(wn, _sieve_mask(to_vector(wn), _family_sieve()))
    return None if hit is None else (inner, hit)


def _fraction_replays(pt, cls):
    eta, k, inner, base_value = cls.witness
    x = inner.inverse()(base_value)
    try:
        for _ in range(k):
            x = apply_zeta(x)
    except ZeroDivisionError:
        return False
    return _fraction_exact(eta.inverse()(x)) == pt


def _fraction_descend(pt):
    """_descend as a walk on Fraction points, the way it ran before chain
    nodes became integer vectors."""
    for eta in _chain_representatives():
        w = eta(pt)
        h = _fraction_height(pt)
        for k in range(1, _MAX_CHAIN + 1):
            try:
                w = _fraction_exact(apply_zeta_inv(w))
            except ZeroDivisionError:
                break
            found = _fraction_base_of(w)
            if found is not None:
                inner, base = found
                cls = Classification(
                    "lift", base=base, lifts=k,
                    witness=(eta, k, inner, _fraction_exact(inner(w))),
                )
                if _fraction_replays(pt, cls):
                    return cls
            hw = _fraction_height(w)
            if hw >= h:
                break
            h = hw
    return None


def _fraction_descent_chain(seq):
    pt = _fraction_exact(seq)
    norm = normalize_point(pt)
    w = norm[1] if norm is not None else pt
    chain = [w]
    h = _fraction_height(w)
    for _ in range(_MAX_CHAIN):
        if _squaring_trivial(w) is not None:
            break
        try:
            w = _fraction_exact(apply_zeta_inv(w))
        except ZeroDivisionError:
            break
        norm = normalize_point(w)
        if norm is not None:
            w = norm[1]
        chain.append(w)
        hw = _fraction_height(w)
        if hw >= h:
            break
        h = hw
    return chain


def _typed(value):
    """A value with the type of every number in it, so that 2 and
    Fraction(2) compare unequal."""
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    if isinstance(value, Classification):
        return (
            value.kind, _typed(value.n), _typed(value.t), _typed(value.x),
            value.index, _typed(value.base), value.lifts, _typed(value.witness),
        )
    if isinstance(value, (int, Fraction)):
        return type(value).__name__, value
    return value


# (family index, t) of the bases perfbench's descent workload lifts
BENCH_LIFT_BASES = ((1, 2), (1, 3), (3, 7), (7, 3), (8, 1), (8, 3), (0, 1), (0, 5))


def _bench_lifts():
    points = []
    for index, t in BENCH_LIFT_BASES:
        w = _family_value(index, t)
        for _ in range(3):
            w = apply_zeta(w)
            points.append(tuple(Fraction(v) for v in normalize_point(w)[1]))
    return points


def test_integer_descent_equals_the_fraction_walk():
    rows, points = _table_points_and_lifts()
    lifts = _bench_lifts()
    hits = 0
    for pt in points + lifts:
        exact = _fraction_exact(pt)
        want = _fraction_descend(exact)
        got = _descend(to_vector(exact))
        assert _typed(got) == _typed(want), pt
        hits += got is not None
        assert _typed(descent_chain(pt)) == _typed(_fraction_descent_chain(pt)), pt
        if got is not None:
            assert verify_classification(pt, got)
    for pt in lifts:
        cls = classify(pt)
        assert cls.kind == "lift" and verify_classification(pt, cls)
    assert hits >= len(lifts)


@given(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.sampled_from(group_elements()),
)
@settings(max_examples=200, deadline=None)
def test_trivial_points_pass_the_fast_reject(x, g):
    seq = g(tuple(x + i for i in range(1, 5)))
    got = trivial_parameter(seq)
    assert got is not None
    assert verify_classification(seq, Classification("trivial", x=got))
    assert _typed(got) == _typed(_squaring_trivial(_fraction_exact(seq)))


_RATIONALS = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=50)


@given(st.tuples(_RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_trivial_parameter_equals_the_squaring_formula(seq, near):
    # near > 0 puts |s2| at |s1| +- 1 or 1 - |s1|, past the fast reject
    if near:
        m = abs(seq[0])
        b = (m + 1, m - 1, 1 - m)[near - 1]
        seq = (seq[0], b, *seq[2:])
    seq = _fraction_exact(seq)
    assert _typed(trivial_parameter(seq)) == _typed(_squaring_trivial(seq))


def test_trivial_parameter_equals_the_squaring_formula_on_chain_nodes():
    rows, points = _table_points_and_lifts()
    nodes = [w for pt in rows + points for w in descent_chain(pt)]
    assert any(_squaring_trivial(w) is not None for w in nodes)
    for w in nodes + points:
        w = _fraction_exact(w)
        assert _typed(trivial_parameter(w)) == _typed(_squaring_trivial(w)), w
