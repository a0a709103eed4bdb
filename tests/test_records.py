"""The value types behave as frozen records.

For each of the 14 types: the repr bytes of a sample, == and hash of two
values built apart, != against another type holding the same values,
keyword construction, copies and pickles, and AttributeError on assigning
or deleting any attribute.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from mukai_entropy._record import Record
from mukai_entropy.entropy import (
    CurvePiece,
    EntropyCurve,
    ExtRecursionTable,
    ExtTableRow,
    GapReport,
)
from mukai_entropy.isometries import Isometry
from mukai_entropy.lattice import K3LatticeModel, MukaiVector, Signature
from mukai_entropy.orthosearch import Rank2Form, SignatureReport
from mukai_entropy.spectral import CertifiedRadius, CharPoly, QuadraticSurd

MODEL = {"picard_rank": 1, "ns_gram": ((4,),)}
MODEL_REPR = "K3LatticeModel(picard_rank=1, ns_gram=((4,),))"
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
LEFT = {"lower": None, "upper": Fraction(0), "slope": Fraction(-1),
        "intercept": Fraction(0), "proven": True}
RIGHT = {"lower": Fraction(0), "upper": None, "slope": Fraction(0),
         "intercept": Fraction(0), "proven": False}
LEFT_REPR = ("CurvePiece(lower=None, upper=Fraction(0, 1), "
             "slope=Fraction(-1, 1), intercept=Fraction(0, 1), proven=True)")
RIGHT_REPR = ("CurvePiece(lower=Fraction(0, 1), upper=None, "
              "slope=Fraction(0, 1), intercept=Fraction(0, 1), proven=False)")
ROW = {"n": 1, "top_degree": 3, "top_dim": 15, "growth_bound": 3, "chi": -4,
       "vanishing_range": (2, 3)}
ROW_REPR = ("ExtTableRow(n=1, top_degree=3, top_dim=15, growth_bound=3, "
            "chi=-4, vanishing_range=(2, 3))")


# (type, keyword arguments as a function, so every call builds new values,
#  repr of the value they build)
CASES = [
    (Signature, lambda: {"n_plus": 1, "n_minus": 2, "n_zero": 0},
     "Signature(n_plus=1, n_minus=2, n_zero=0)"),
    (MukaiVector, lambda: {"r": 1, "c": (0, 2), "m": -1},
     "MukaiVector(r=1, c=(0, 2), m=-1)"),
    (K3LatticeModel, lambda: dict(MODEL), MODEL_REPR),
    (Isometry,
     lambda: {"model": K3LatticeModel(**MODEL),
              "matrix": [list(row) for row in IDENTITY], "label": "id"},
     f"Isometry(model={MODEL_REPR}, matrix={IDENTITY!r}, label='id')"),
    (CharPoly, lambda: {"coeffs": [1, -3, 1]},
     "CharPoly(coeffs=(1, -3, 1))"),
    (CertifiedRadius,
     lambda: {"value": 2.5, "lo": Fraction(5, 2), "hi": Fraction(21, 8),
              "tolerance": 0.25},
     "CertifiedRadius(value=2.5, lo=Fraction(5, 2), hi=Fraction(21, 8), "
     "tolerance=0.25)"),
    (QuadraticSurd, lambda: {"a": 1, "b": Fraction(1, 2), "root": 8},
     "QuadraticSurd(a=Fraction(1, 1), b=Fraction(1, 1), root=2)"),
    (CurvePiece, lambda: dict(LEFT), LEFT_REPR),
    (EntropyCurve, lambda: {"pieces": [CurvePiece(**LEFT), CurvePiece(**RIGHT)]},
     f"EntropyCurve(pieces=({LEFT_REPR}, {RIGHT_REPR}))"),
    (ExtTableRow, lambda: dict(ROW), ROW_REPR),
    (ExtRecursionTable,
     lambda: {"d": 1, "i": 1, "k": 1, "rows": (ExtTableRow(**ROW),)},
     f"ExtRecursionTable(d=1, i=1, k=1, rows=({ROW_REPR},))"),
    (GapReport,
     lambda: {"d": 5, "lower_bound": 1.9459101090932196,
              "log_rho": 1.5667992369724109, "gap": 0.3791108721208087,
              "certified": True},
     "GapReport(d=5, lower_bound=1.9459101090932196, "
     "log_rho=1.5667992369724109, gap=0.3791108721208087, certified=True)"),
    (Rank2Form, lambda: {"gram": [[-2, 1], [1, 4]]},
     "Rank2Form(gram=((-2, 1), (1, 4)))"),
    (SignatureReport,
     lambda: {"full": Signature(2, 1, 0), "s_line": Signature(0, 1, 0),
              "s_perp": Signature(2, 0, 0), "extended": None},
     "SignatureReport(full=Signature(n_plus=2, n_minus=1, n_zero=0), "
     "s_line=Signature(n_plus=0, n_minus=1, n_zero=0), "
     "s_perp=Signature(n_plus=2, n_minus=0, n_zero=0), extended=None)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_repr_bytes(cls, kwargs, text):
    assert repr(cls(**kwargs())) == text


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, text):
    args = kwargs()
    by_keyword = cls(**args)
    by_position = cls(*args.values())
    assert by_keyword == by_position
    assert repr(by_position) == text
    # the fields are the keyword names, in order
    assert cls.__match_args__ == tuple(args)


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(cls, kwargs, text):
    a, b = cls(**kwargs()), cls(**kwargs())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_another_type_with_the_same_values_is_not_equal(cls, kwargs, text):
    a = cls(**kwargs())
    fields = cls.__match_args__
    values = tuple(getattr(a, f) for f in fields)
    assert a != values and values != a
    other = object.__new__(type("Other" + cls.__name__, (cls,), {}))
    other.__dict__.update(a.__dict__)
    assert tuple(getattr(other, f) for f in fields) == values
    assert a != other and other != a
    assert a.__eq__(other) is NotImplemented
    assert a.__eq__(values) is NotImplemented


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_assigning_or_deleting_an_attribute_raises(cls, kwargs, text):
    a = cls(**kwargs())
    before = repr(a)
    for name in (*cls.__match_args__, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == before


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, kwargs, text):
    a = cls(**kwargs())
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and repr(b) == text


def test_mukai_gram_is_outside_eq_hash_and_repr():
    a, b = K3LatticeModel(**MODEL), K3LatticeModel(**MODEL)
    assert a.mukai_gram == ((0, 0, -1), (0, 4, 0), (-1, 0, 0))
    assert K3LatticeModel.__match_args__ == ("picard_rank", "ns_gram")
    object.__setattr__(b, "mukai_gram", ((7,),))
    assert a == b and hash(a) == hash(b)
    assert repr(b) == MODEL_REPR
    assert "mukai_gram" not in repr(a)
    with pytest.raises(AttributeError):
        a.mukai_gram = ((7,),)
    with pytest.raises(TypeError):
        K3LatticeModel(1, ((4,),), ((0, 0, -1), (0, 4, 0), (-1, 0, 0)))


def test_different_values_are_not_equal():
    assert Signature(1, 2, 0) != Signature(1, 0, 2)
    assert MukaiVector(1, (0,), 1) != MukaiVector(1, (0,), -1)
    assert K3LatticeModel(1, ((4,),)) != K3LatticeModel(1, ((2,),))


def test_a_record_type_without_fields_is_refused():
    with pytest.raises(TypeError, match="declares no fields"):
        type("Empty", (Record,), {})
