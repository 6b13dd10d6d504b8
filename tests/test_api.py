"""The package's public names, and the errors malformed input raises at the
API boundary."""

from fractions import Fraction

import pytest

import buchi4
from buchi4.arith import format_rational
from buchi4.families import (
    Classification, classify, descent_chain, extends_left, extends_right,
    is_trivial, p_eval, p_value, r_value, trivial_parameter,
    verify_classification, xi_eval,
)
from buchi4.maps import apply_phi, on_surface
from buchi4.poly import UPoly

PUBLIC_NAMES = {
    "as_perfect_square", "is_perfect_square", "isqrt",
    "UPoly",
    "on_surface", "apply_phi", "apply_zeta", "apply_zeta_inv", "zeta_orbit",
    "pell", "normalize_point",
    "xi_poly", "xi_eval", "xi_closed_form", "prop33_solve", "p_value",
    "p_eval", "r_value", "r_eval", "is_trivial", "extends", "extends_left",
    "extends_right", "Classification", "classify", "descent_chain",
    "verify_group_relations", "verify_families",
    "CurveSpec", "curve_rhs", "is_squarefree", "scan_integer_points",
    "SearchRecord", "enumerate_sequences", "run_pipeline", "bundled_table",
    "compare_with_table",
    "__version__",
}


def test_the_package_exports_its_38_public_names():
    assert len(PUBLIC_NAMES) == 38
    assert len(buchi4.__all__) == 38
    assert set(buchi4.__all__) == PUBLIC_NAMES


def test_a_point_of_the_wrong_length_is_named_in_the_error():
    for call in (
        classify, is_trivial, descent_chain, extends_left, extends_right,
        on_surface, apply_phi,
    ):
        for pt in [(1, 2, 3), (), (1, 2, 3, 4, 5)]:
            with pytest.raises(ValueError, match=r"\(1, 2, 3(, 4, 5)?\)|\(\)"):
                call(pt)


def test_every_point_entry_checks_that_coordinates_are_exact():
    verdict = Classification.parse("trivial")
    for call in (
        classify, descent_chain, is_trivial, trivial_parameter,
        lambda pt: verify_classification(pt, verdict), on_surface,
    ):
        for pt in [(1.0, 2, 3, 4), (1, 2, 3, "4"), (0.5, 1.5, 2.5, 3.5)]:
            with pytest.raises(TypeError, match="exact integers or rationals"):
                call(pt)
    assert trivial_parameter((Fraction(2), 3, 4, 5)) == 1
    half = Fraction(1, 2)
    assert trivial_parameter((half, 3 * half, 5 * half, 7 * half)) == -half


def test_a_family_argument_must_be_an_int_or_a_fraction():
    for call, args in [
        (r_value, (3, 0.5)),
        (p_value, (0.5,)),
        (p_eval, ("1",)),
        (p_value, (None,)),
        (xi_eval, (1, 0.5)),
        (xi_eval, (1, 2.0)),
        (UPoly, ((0.1, 1),)),
        (UPoly((1, 2)), (0.5,)),
        (format_rational, (0.5,)),
        (Classification, ("p", None, 0.5)),
        (Classification, ("xi", 1.0, 0)),
    ]:
        with pytest.raises(TypeError, match="int or a Fraction"):
            call(*args)
    assert p_value(Fraction(1, 2)) == p_value(Fraction(2, 4))
    assert r_value(3, True) == r_value(3, 1)
    assert xi_eval(1, Fraction(4, 2)) == xi_eval(1, 2) == (108, 157, 194, 225)
    assert all(type(x) is int for x in xi_eval(1, Fraction(2)))
    assert Classification("r", index=True, t=1).describe() == "R(i=1, t=1)"


def test_a_verdict_holds_only_what_parse_reads_back():
    # each of these would serialize to text that parse refuses, r:16:0 first
    for kind, kwargs in [
        ("r", dict(index=16, t=0)),
        ("r", dict(index=0, t=0)),
        ("r", dict(index=Fraction(3, 2), t=0)),
        ("xi", dict(n=0, t=0)),
        ("xi", dict(n=-1, t=0)),
        ("xi", dict(n=1, t=-1)),
        ("xi", dict(n=1, t=Fraction(1, 2))),
    ]:
        with pytest.raises(ValueError, match=f"{kind} [a-z]+ must be an integer in"):
            Classification(kind, **kwargs)
    assert Classification("r", index=15, t=Fraction(-3, 4)).serialize() == "r:15:-3/4"
    assert Classification("xi", n=1, t=Fraction(4, 2)) == Classification.parse("xi:1:2")


def test_a_lift_needs_an_int_count_and_a_base_verdict():
    trivial = Classification("trivial")
    for kind, kwargs, error in [
        ("lift", dict(base=trivial, lifts=0.5), TypeError),  # zeta^0.5 would not parse back
        ("lift", dict(base=trivial, lifts=2.0), TypeError),  # would equal lifts=2
        ("lift", dict(base=trivial, lifts=True), TypeError),
        ("lift", dict(base=None, lifts=1), TypeError),  # nothing to describe
        ("lift", dict(base=trivial, lifts=0), ValueError),
        ("lift", dict(base=Classification("sporadic"), lifts=1), ValueError),
        ("xi", dict(n=1, t=2, lifts=3), ValueError),
        ("p", dict(t=1, base=trivial), ValueError),
    ]:
        with pytest.raises(error):
            Classification(kind, **kwargs)
    lift = Classification("lift", base=Classification("xi", n=1, t=2), lifts=2)
    assert Classification.parse(lift.serialize()) == lift
    assert lift.describe() == "ZetaLift(k=2, base=Xi(n=1, t=2))"
