"""The frozen-record contract of the five record classes: fields that cannot
change, equality and hashing over the key fields of one class, the repr
their dataclass versions printed, and pickle and copy round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from buchi4.curves import CurveSpec, curve_rhs
from buchi4.families import Classification, classify, r_value
from buchi4.maps import MU14, TAU, TrivialInvolution, apply_zeta, mu, normalize_point
from buchi4.search import SearchRecord, TableComparison


def _lift_verdict():
    _, pt = normalize_point(apply_zeta(r_value(3, 7)))
    return classify(pt)


def _records():
    xi = Classification("xi", n=1, t=0)
    return [
        TAU.compose(MU14),
        xi,
        _lift_verdict(),
        SearchRecord((6, 23, 32, 39), xi, 2, None),
        TableComparison(700, ((59, 630, 889, 1088),), (), ()),
        curve_rhs(1, "right"),
    ]


def _fields(rec):
    return [getattr(rec, name) for name in rec.__slots__]


def test_witness_is_outside_equality_hash_and_repr():
    lift = _lift_verdict()
    assert lift.kind == "lift" and lift.witness is not None
    bare = Classification("lift", base=lift.base, lifts=lift.lifts)
    assert lift == bare and not lift != bare
    assert hash(lift) == hash(bare)
    assert repr(lift) == repr(bare)
    assert lift != Classification("lift", base=lift.base, lifts=lift.lifts + 1)


def test_the_key_is_the_leading_fields():
    for rec in _records():
        key = rec._key
        assert key == tuple(_fields(rec)[: len(key)])
        assert hash(rec) == hash(key)


def test_fields_cannot_be_assigned_or_deleted():
    for rec in _records():
        for name in (*rec.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)


def test_repr_is_the_dataclass_repr():
    assert [repr(rec) for rec in _records()] == [
        "tau*mu14",
        "Classification(kind='xi', n=1, t=0, x=None, index=None, base=None, lifts=0)",
        "Classification(kind='lift', n=None, t=None, x=None, index=None,"
        " base=Classification(kind='r', n=None, t=7, x=None, index=3, base=None,"
        " lifts=0), lifts=1)",
        "SearchRecord(seq=(6, 23, 32, 39), classification=Classification(kind='xi',"
        " n=1, t=0, x=None, index=None, base=None, lifts=0), extends_left=2,"
        " extends_right=None)",
        "TableComparison(x2_bound=700, matches=((59, 630, 889, 1088),), misses=(),"
        " extras=())",
        "CurveSpec(side='right', n=1, rhs=UPoly(4t^6 + 80t^5 + 620t^4 + 2400t^3"
        " + 4905t^2 + 5020t + 2020))",
    ]


@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_round_trips_keep_every_field(round_trip):
    for rec in _records():
        back = round_trip(rec)
        assert type(back) is type(rec) and back == rec
        assert _fields(back) == _fields(rec)


def test_keyword_and_positional_construction_agree():
    rhs = curve_rhs(2, "left").rhs
    assert CurveSpec("left", 2, rhs) == CurveSpec(side="left", n=2, rhs=rhs)
    assert TrivialInvolution((1, -1, 1, 1), False) == TrivialInvolution(
        signs=(1, -1, 1, 1), rev=False
    ) == mu(2)
    r = Classification("r", index=3, t=7)
    assert r == Classification("r", None, 7, None, 3)
    assert r == Classification(kind="r", t=7, index=3)
    assert (r.n, r.x, r.base, r.lifts, r.witness) == (None, None, None, 0, None)


def test_records_of_different_classes_are_never_equal():
    rows = ((59, 630, 889, 1088),)
    search, table = SearchRecord(700, rows, (), ()), TableComparison(700, rows, (), ())
    assert search._key == table._key
    assert search != table and table != search
    assert Classification("sporadic") != "sporadic"
    assert mu(1) != ((-1, 1, 1, 1), False)
    assert len({search, table, mu(1), ((-1, 1, 1, 1), False)}) == 4


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        Classification("bogus")


@pytest.mark.parametrize(
    "signs, rev",
    [
        ((2, 0, 1, 1), "yes"),
        ((2, 0, 1, 1), False),
        ((1, 1, 1, 1), "yes"),
        ((1, 1, 1, 1), 1),
        ((1, 1, 1), False),
        ((1, 1, 1, 1, 1), True),
        ([1, 1, 1, 1], False),
        ((1, [1], 1, 1), False),
        # these equal and hash like sign tuples, so a membership test alone
        # would let a float or a bool into an exact point
        ((1.0, 1, 1, 1), False),
        ((True, 1, 1, 1), False),
        ((1, -1, Fraction(1), 1), True),
        ((1, 1, 1, -1.0), True),
    ],
)
def test_trivial_involution_rejects_what_is_no_group_element(signs, rev):
    with pytest.raises(ValueError):
        TrivialInvolution(signs, rev)
