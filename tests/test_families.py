"""Parametrization families, structure checks, and classification."""

import itertools
import random
from fractions import Fraction
from importlib import resources
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buchi4 import families
from buchi4.arith import exact
from buchi4.families import (
    _SIEVE_PRIMES,
    Classification,
    _chain_representatives,
    _constraints,
    _descend,
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
    _xi_parameter,
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
    from_vector,
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
    # xi_poly is xi_eval at T, so a wrong step both share would pass the
    # first comparison; the closed form takes beta powers, not the recurrence
    for n in range(9):
        for t in (-9, -4, -1, 0, 2, 11, 9999, Fraction(-7, 2), Fraction(1, 3)):
            got = xi_eval(n, t)
            assert got == tuple(p(t) for p in xi_poly(n)), (n, t)
            assert got == tuple(p(t) for p in xi_closed_form(n)), (n, t)


def test_invert_xi_at_the_workload_scale(monkeypatch):
    # family-values draws t < 10^4, past the hypothesis test's |t| <= 40;
    # x1 and x4 moved together keep 3(x2 + x3) = (2t + 5)(x4 - x1), so the
    # bisection, not the gate, must refuse the moved point
    for n in range(1, 7):
        for t in (0, 1, 9999, 10**6):
            pt = xi_eval(n, t)
            assert classify(pt) == Classification("xi", n=n, t=t), (n, t)
            moved = (pt[0] + 1, pt[1], pt[2], pt[3] + 1)
            assert _xi_parameter(moved) == t and _invert_xi(moved) is None, (n, t)
    # the O(1) gate 3(x2 + x3) = (2t + 5)(x4 - x1) lets every xi row
    # through, with its own t, and refuses every increasing p(t) value of
    # family-values before _invert_xi evaluates a single xi row
    for n in range(7):
        for t in range(2001):
            assert _xi_parameter(xi_eval(n, t)) == t, (n, t)
    # xi(-1, t) fits the identity too, but has x4 - x1 = -3
    assert _xi_parameter((4, -3, -2, 1)) is None
    assert _xi_parameter((1, 2, 3, 1)) is None
    calls = 0

    def counted(n, t):
        nonlocal calls
        calls += 1
        return xi_eval(n, t)

    monkeypatch.setattr(families, "xi_eval", counted)
    values = [p_eval(t) for t in range(10**4) if t % 4 != 3]
    assert len(values) == 7500 and all(map(is_increasing_positive, values))
    assert all(_invert_xi(pt) is None for pt in values)
    assert calls == 0


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
    for n in range(0, 13):
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


def test_sporadic_and_parsed_trivial_verdicts_replay_only_where_classify_returns_them():
    sporadic = Classification("sporadic")
    assert verify_classification((59, 630, 889, 1088), sporadic)
    assert not verify_classification((1, 2, 3, 5), sporadic)  # off the surface
    assert not verify_classification((1, 2, 3, 4), sporadic)  # trivial
    assert not verify_classification((-59, 630, 889, 1088), sporadic)
    assert not verify_classification((1088, 889, 630, 59), sporadic)
    for pt in [(), (1, 2), (1, 2, 3, 4, 5)]:
        with pytest.raises(ValueError):
            verify_classification(pt, sporadic)
    # parse gives a trivial verdict without its parameter
    trivial = Classification.parse("trivial")
    assert verify_classification((1, 2, 3, 4), trivial)
    assert verify_classification((9, 8, 7, -6), trivial)
    assert not verify_classification((6, 23, 32, 39), trivial)
    assert not verify_classification((1, 2, 3, 5), trivial)
    # every kind needs the point on the surface
    assert not verify_classification((1, 2, 3, 5), Classification("trivial", x=0))


def test_family_verdicts_replay_by_the_membership_test():
    # a p or r verdict replays through _family_has, as classify tested it:
    # r3 has a pole at t = 0, and r0 and r16 do not exist, so each is False
    xi10 = (6, 23, 32, 39)
    for i in (3, 0, 16):
        assert not verify_classification(xi10, Classification("r", index=i, t=0)), i
    assert not verify_classification(xi10, Classification("r", t=0))
    assert not verify_classification(xi10, Classification("p"))
    assert not verify_classification(xi10, Classification("trivial", x=5))
    for t in (0, 1, Fraction(1, 2)):
        assert verify_classification(p_value(t), Classification("p", t=t))
    assert verify_classification(r_value(4, 6), Classification("r", index=4, t=6))
    assert not verify_classification(r_value(4, 6), Classification("r", index=4, t=7))


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


def test_each_kind_renders_as_pinned():
    # describe, serialize, to_json and the verdict that parse reads back,
    # literally, for one verdict of each kind
    lift = classify(_lift_of(r_value(3, 7), 2))
    r37 = Classification("r", t=7, index=3)
    cases = [
        (
            Classification("trivial", x=Fraction(-7, 3)),
            "Trivial(x=-7/3)",
            "trivial",
            {"kind": "trivial", "x": "-7/3"},
            Classification("trivial"),
        ),
        (
            Classification.parse("xi:2:5"),
            "Xi(n=2, t=5)",
            "xi:2:5",
            {"kind": "xi", "n": 2, "t": 5},
            Classification("xi", n=2, t=5),
        ),
        (
            Classification.parse("p:-1/2"),
            "P(t=-1/2)",
            "p:-1/2",
            {"kind": "p", "t": "-1/2"},
            Classification("p", t=Fraction(-1, 2)),
        ),
        (
            Classification.parse("r:15:-3/4"),
            "R(i=15, t=-3/4)",
            "r:15:-3/4",
            {"kind": "r", "index": 15, "t": "-3/4"},
            Classification("r", t=Fraction(-3, 4), index=15),
        ),
        (
            Classification("sporadic"),
            "Sporadic",
            "sporadic",
            {"kind": "sporadic"},
            Classification("sporadic"),
        ),
        (
            lift,
            "ZetaLift(k=2, base=R(i=3, t=7))",
            "zeta^2(r:3:7)",
            {"kind": "lift", "lifts": 2, "base": {"kind": "r", "index": 3, "t": 7}},
            Classification("lift", base=r37, lifts=2),
        ),
        (
            Classification.parse("zeta^1(trivial)"),
            "ZetaLift(k=1, base=Trivial)",
            "zeta^1(trivial)",
            {"kind": "lift", "lifts": 1, "base": {"kind": "trivial", "x": None}},
            Classification("lift", base=Classification("trivial"), lifts=1),
        ),
    ]
    for cls, described, text, as_json, parsed in cases:
        assert cls.describe() == described
        assert cls.serialize() == text
        assert cls.to_json() == as_json
        got = Classification.parse(text)
        assert got == parsed and repr(got) == repr(parsed)
        assert [type(got.n), type(got.t), type(got.x), type(got.index)] == [
            type(parsed.n), type(parsed.t), type(parsed.x), type(parsed.index)
        ]


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
        # not canonical: serialize never writes these
        "p:1.5",
        "r:3:2e1",
        "xi:2:1e1",
        "p:-3/6",
        "zeta^+1(xi:1:0)",
        "zeta^01(xi:1:0)",
        "zeta^1(xi:1:0",
        " trivial",
        # a field that is not a number, or too many or too few fields
        "xi:1/2:0",
        "r:1/2:3",
        "xi:1:2:3",
        "trivial:1",
        "lift",
        "sporadic:",
        "p:",
        "p:1:2",
        "r:3",
        "",
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


def test_descent_chain_is_the_first_chain_classify_walks():
    # p is the normalized zeta(r12(1/2)): the chain steps from the node
    # (93, -65, -43, 39)/32 as the inverse map leaves it, not from its
    # normalized form (which leads back to p), and stops where the height
    # rises; classify finds the lift on another representative's chain
    p = tuple(Fraction(n, 64) for n in (135, 269, 367, 453))
    assert normalize_point(apply_zeta(r_value(12, Fraction(1, 2))))[1] == p
    chain = descent_chain(p)
    assert chain == [
        p,
        tuple(Fraction(n, 32) for n in (39, 43, 65, 93)),
        tuple(Fraction(n, 16) for n in (189, 425, 571, 687)),
    ]
    assert _chain_representatives()[0] == IDENTITY
    nodes = list(families._chain(to_vector(p)))
    assert nodes[0] == (93, -65, -43, 39, 32)
    assert chain[1:] == [normalize_point(from_vector(w))[1] for w in nodes]
    assert _typed(chain) == _typed(_fraction_descent_chain(p))
    cls = classify(p)
    assert cls.serialize() == "zeta^1(r:7:3)"
    assert verify_classification(p, cls)


@pytest.mark.parametrize(
    "nums, den, verdict",
    [
        ((709, 1079, 1533, 2015), 512, "zeta^2(r:7:3)"),
        ((98, 1723, 2644, 3475), 729, "zeta^3(xi:1:0)"),
        ((147407, 195285, 777367, 1311571), 524288, "zeta^17(trivial)"),
        # H rises on the first step of the chain that reaches the shorter
        # tower zeta^2(trivial), so another chain finds this one first
        ((1, 27, 185, 317), 128, "zeta^5(trivial)"),
    ],
)
def test_lifts_found_by_descent_in_the_projective_height(nums, den, verdict):
    # the first three are Sporadic when heights compare as max|A_i|/L
    pt = tuple(Fraction(n, den) for n in nums)
    cls = classify(pt)
    assert cls.serialize() == verdict
    assert verify_classification(pt, cls)


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
            got = _family_parameter(index, to_vector(value))
            assert got == _reference_parameter(index, value), (index, t, got)
            assert got == t, (index, t, got)


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


def _reference_parameter(index, pt):
    """_family_parameter by the Fraction path: the first of the
    _reference_candidates at which the family's value is pt."""
    def member(t):
        try:
            return _family_value(index, t) == pt
        except DenominatorVanishes:
            return False

    return next(filter(member, _reference_candidates(*_family(index), pt)), None)


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
        to_vector(w): w for pt in rows + _bench_lifts() for w in descent_chain(pt)
    }
    for index in FAMILY_INDICES:
        for t in (-2, 1, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)):
            try:
                w = _family_value(index, t)
            except DenominatorVanishes:
                continue
            nodes[to_vector(w)] = w
    want = {
        (index, v): _reference_parameter(index, w)
        for v, w in nodes.items() for index in FAMILY_INDICES
    }
    assert sum(t is not None for t in want.values()) >= 90
    calls = _count_calls(monkeypatch, "_rational_roots")
    built = _count_calls(monkeypatch, "_constraints")
    modular = _count_calls(monkeypatch, "gcd_mod")
    for (index, v), t in want.items():
        for log in (calls, built, modular):
            log.clear()
        assert _family_parameter(index, v) == t, (index, v)
        # a hit at a parameter within the bound is settled mod p: its
        # degree-one gcd is rebuilt and confirmed.  Trivial points, which
        # classify and the descent never test for membership, are exempt:
        # three of them have a second root shared by their first two
        # constraints and take the exact route
        assert t is None or not calls or is_trivial(from_vector(v)), (index, v)
        # one pass: the constraints are built and reduced mod p at most
        # once, and the exact fallback reuses them (its root finder calls
        # gcd_mod on a squarefree part and its derivative at small primes,
        # not on the constraints at p)
        reduced = [args for args in modular if args[2] == CERT_PRIME]
        assert len(built) <= 1 and len(reduced) <= 1, (index, v)


def test_members_beyond_the_reconstruction_bound_take_the_exact_path(monkeypatch):
    calls = _count_calls(monkeypatch, "_rational_roots")
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
        # a parameter within the bound never reaches the exact roots
        calls.clear()
        assert _family_parameter(index, to_vector(_family_value(index, 32767))) == 32767
        assert not calls
    assert checked >= 40


def test_parameter_candidates_match_the_fraction_path_off_the_families():
    rows, points = _table_points_and_lifts()
    assert len(rows) == 57 and len(points) > 2 * len(rows)
    for index in FAMILY_INDICES:
        for pt in points:
            got = _family_parameter(index, to_vector(pt))
            assert got == _reference_parameter(index, pt), (index, pt)


def _int_product(*factors):
    """The integer coefficient list, constant first, of a product of
    integer coefficient lists."""
    return prod((UPoly(f) for f in factors), start=UPoly((1,))).int_coeffs()


def test_rational_roots_of_a_constraint_cover_a_gcd_of_degree_two():
    # (t - 1)(2t + 3) is the gcd of two constraints: the first one's roots
    # hold both of its roots, and the root -5 of the other factor
    shared = _int_product((-1, 1), (3, 2))
    first, second = _int_product(shared, (5, 1)), _int_product(shared, (7, 0, 1))
    assert len(gcd_mod(first, second, CERT_PRIME)) == 3
    assert _rational_roots(UPoly(first)) == [-5, Fraction(-3, 2), 1]
    # t^2 - 2 is the gcd: no rational root but the other factor's
    shared = (-2, 0, 1)
    first, second = _int_product(shared, (1, 1)), _int_product(shared, (4, 3))
    assert len(gcd_mod(first, second, CERT_PRIME)) == 3
    assert _rational_roots(UPoly(first)) == [-1]


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
    through the Fraction path (_reference_parameter)."""
    for index in FAMILY_INDICES:
        if not mask >> index & 1:
            continue
        t = _reference_parameter(index, pt)
        if t is not None:
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
        assert gcd_mod(f, [3, 1], p) == [1]
        assert len(gcd_mod(f, [5, 6, 1], p)) >= 2  # (t+1)(t+5)
        assert gcd_mod(f, [6, 5, 1], p) == [2, 1]  # (t+2)(t+3)
        assert gcd_mod([7], [3, 1], p) == [1]
        assert gcd_mod([7], [], p) == [1]
    # 7 divides the leading coefficient of the first polynomial only
    assert gcd_mod([1, 0, 7], [1, 1], 7) is None
    assert gcd_mod([1, 1], [1, 0, 7], 7) == [1]
    # a common factor modulo p alone: t + 1 and t + 8 agree mod 7
    assert len(gcd_mod([1, 1], [8, 1], 7)) >= 2
    # the monic gcd itself, and a zero second polynomial leaves the first
    assert gcd_mod(f, [24, 11, 1], 7) == [1, 1]  # t + 8 = t + 1 mod 7
    assert gcd_mod([4, 6, 2], [24, 11, 1], CERT_PRIME) == [1]
    assert gcd_mod([-2, 0, 2], [], CERT_PRIME) == [CERT_PRIME - 1, 0, 1]
    assert gcd_mod([-2, 0, 2], [0, 7 * CERT_PRIME], CERT_PRIME) == [CERT_PRIME - 1, 0, 1]


# a hand-built family of cubic forms (n1, n2, n3, n4, den), constant first,
# with n1(t) - n1(2) = (t - 2)(t + 1), n2(t) - n2(2) = (t - 2)(t + 1)(t - 5)
# and n3(t) - n3(2) = t - 2: the point F(2) = (3, 1, 2, 4) has two common
# roots of its first two constraints, and only t = 2 is a member
SHARED_ROOT_FORMS = ((1, -1, 1, 0), (11, 3, -6, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))


def test_the_exact_fallback_keeps_only_members(monkeypatch):
    monkeypatch.setattr(families, "_forms", lambda index: SHARED_ROOT_FORMS)
    v = (3, 1, 2, 4, 1)
    c0, c1, *_ = _constraints(SHARED_ROOT_FORMS, v)
    # the gcd mod p is (t - 2)(t + 1): reconstruction cannot pick a root
    assert gcd_mod(c0, c1, CERT_PRIME) == [CERT_PRIME - 2, CERT_PRIME - 1, 1]
    assert _rational_roots(UPoly(c0)) == [-1, 2]
    assert not _family_has(0, Fraction(-1), v)
    calls = _count_calls(monkeypatch, "_rational_roots")
    assert _family_parameter(0, v) == 2
    assert calls
    # off the family, with the same shared pair of roots: no member
    assert _family_parameter(0, (3, 1, 2, 5, 1)) is None


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
    """The projective height max(|L x_1|, ..., |L x_4|, L) of a point, L
    the lcm of its coordinates' denominators."""
    ell = lcm(*(Fraction(x).denominator for x in pt))
    return max(ell, *(abs(x * ell) for x in pt))


def _fraction_base_of(w):
    x = _squaring_trivial(w)
    if x is not None:
        return IDENTITY, Classification("trivial", x=x)
    norm = normalize_point(w)
    if norm is None:
        return None
    inner, wn = norm
    ip = tuple(map(exact, wn))
    hit = _invert_xi(ip) if all(type(x) is int for x in ip) else None
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
    nodes became integer vectors, with the height read off the Fractions."""
    for eta in _chain_representatives():
        w = eta(pt)
        h = _fraction_height(pt)
        for k in itertools.count(1):
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
    """descent_chain by the Fraction path: each step starts from the node
    as apply_zeta_inv leaves it, and only the shown node is normalized."""
    def shown(w):
        norm = normalize_point(w)
        return norm[1] if norm is not None else w

    w = shown(_fraction_exact(seq))
    chain = [w]
    h = _fraction_height(w)
    while _squaring_trivial(w) is None:
        try:
            w = _fraction_exact(apply_zeta_inv(w))
        except ZeroDivisionError:
            break
        chain.append(shown(w))
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
