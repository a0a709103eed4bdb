"""The value types behave as frozen records.

For each of the 14 types: the repr bytes of a sample, == and hash of two
values built apart, != against another type holding the same values,
keyword construction, TypeError on a bad argument list, copies and pickles,
and AttributeError on assigning or deleting any attribute. Values the
package derives from parts it has proved run no checking constructor and
equal, repr included, what one makes of their fields.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from mukai_entropy import isometries, lattice, orthosearch
from mukai_entropy._record import Record
from mukai_entropy.errors import LatticeInputError
from mukai_entropy.entropy import (
    CurvePiece,
    EntropyCurve,
    ExtRecursionTable,
    ExtTableRow,
    GapReport,
    ext_recursion_table,
    twist_entropy_curve,
)
from mukai_entropy.isometries import (
    Isometry,
    polarized_sublattice_basis,
    restrict_to_sublattice,
    spherical_twist_action,
    twist_tensor_action,
)
from mukai_entropy.lattice import (
    K3LatticeModel,
    MukaiVector,
    Signature,
    add_vectors,
    rank_one_model,
    structure_sheaf_vector,
)
from mukai_entropy.orthosearch import (
    Rank2Form,
    SignatureReport,
    find_positive_orthogonal,
    rank2_form,
)
from mukai_entropy.spectral import (
    CertifiedRadius,
    CharPoly,
    QuadraticSurd,
    radius_closed_form,
    spectral_radius,
)

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
def test_bad_argument_lists_raise_type_error(cls, kwargs, text):
    args = kwargs()
    first = next(iter(args))
    for bad_args, bad_kwargs in (
        ((), dict(list(args.items())[:-1])),             # a field missing
        ((), {**args, "not_a_field": 0}),                # an unknown keyword
        ((args[first],), args),                          # a field given twice
        ((*args.values(), 0), {}),                       # one value too many
    ):
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


# types that only store their fields take the base constructor
STORAGE_ONLY = {"Signature", "CurvePiece", "ExtTableRow", "ExtRecursionTable",
                "GapReport", "SignatureReport"}


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_only_checking_types_define_init(cls, kwargs, text):
    assert ("__init__" in vars(cls)) == (cls.__name__ not in STORAGE_ONLY)


def test_closed_form_radius_matches_the_checking_constructor():
    # radius_closed_form builds its surd from proved parts with _of; the
    # canonicalising constructor must give the same value and repr bytes
    for d in range(5, 2001):
        built = radius_closed_form(d)
        checked = QuadraticSurd(Fraction(d - 2, 2), Fraction(1, 2), d * d - 4 * d)
        assert built == checked and repr(built) == repr(checked), d


# built from outside input, before any check is counted
RANK_TWO = K3LatticeModel(2, ((2, 1), (1, -2)))
O_X_TWO = MukaiVector(1, (0, 0), 1)
H_TWO = MukaiVector(0, (1, 0), 0)
# every positive class of the bound-1 box has 2 v^2 a square, so the search
# answers with the N v + u repair, which scales v
RANK_THREE = K3LatticeModel(3, ((2, 0, 0), (0, -4, 2), (0, 2, -2)))
S_THREE = MukaiVector(-1, (0, 1, -1), 4)

# what the package derives from proved parts, and the checks each call runs
DERIVED = [
    ("spectral_radius",
     lambda: [spectral_radius([[2, 1], [1, 1]]),
              spectral_radius([[0, 1], [0, 0]])], []),
    ("ext_recursion_table", lambda: ext_recursion_table(3, 1, 1, 4), []),
    ("twist_entropy_curve",
     lambda: [twist_entropy_curve(d, known) for d in (1, 2)
              for known in (False, True)], []),
    # only the check of the caller's s
    ("rank2_form", lambda: rank2_form(RANK_TWO, O_X_TWO, H_TWO),
     ["is_spherical_class"]),
    # only the check of the caller's s: the N v + u repair checks nothing
    ("find_positive_orthogonal",
     lambda: find_positive_orthogonal(RANK_THREE, S_THREE, 1),
     ["is_spherical_class"]),
    ("restrict_to_sublattice",
     lambda: [restrict_to_sublattice(twist_tensor_action(m),
                                     polarized_sublattice_basis(m))
              for m in (rank_one_model(3), RANK_TWO)], []),
]


@pytest.fixture
def checks(monkeypatch):
    """Names of the checking constructors and of is_spherical_class, in the
    order they run from here on."""
    calls = []

    def counted(name, check):
        def run(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)
        return run

    for cls, _, _ in CASES:
        if cls.__name__ not in STORAGE_ONLY:
            monkeypatch.setattr(cls, "__init__",
                                counted(cls.__name__, cls.__init__))
    spherical = counted("is_spherical_class", lattice.is_spherical_class)
    # each module calls the name it imported
    for module in (lattice, isometries, orthosearch):
        monkeypatch.setattr(module, "is_spherical_class", spherical)
    return calls


@pytest.mark.parametrize("run, expected", [case[1:] for case in DERIVED],
                         ids=[case[0] for case in DERIVED])
def test_derived_values_run_no_check(checks, run, expected):
    run()
    assert checks == expected


def test_derived_values_match_the_checking_constructors():
    # each value built with _of or _vector_of equals, with the same repr,
    # the value the checking constructor makes of its fields
    for d in range(1, 201):
        built, checked = rank_one_model(d), K3LatticeModel(1, ((2 * d,),))
        assert built == checked and repr(built) == repr(checked), d
        assert built.mukai_gram == checked.mukai_gram, d
    values = [spectral_radius([[2, 1], [1, 1]]),
              spectral_radius([[0, 1], [0, 0]], 0.5)]
    values += [twist_entropy_curve(d, known) for d in (1, 2, 5)
               for known in (False, True)]
    for model in (rank_one_model(3), RANK_TWO):
        o_x = structure_sheaf_vector(model)
        basis = polarized_sublattice_basis(model)
        phi = twist_tensor_action(model)
        values += [o_x, *basis, *map(phi.apply, basis),
                   add_vectors(o_x, basis[1]),
                   rank2_form(model, o_x, basis[1]),
                   spherical_twist_action(model, o_x)]
    values.append(find_positive_orthogonal(RANK_THREE, S_THREE, 1))
    for d in (3, 5, 8, 10 ** 6 + 3):
        r = radius_closed_form(d)
        values += [-r, r + 1, r - r, 2 - r, r + r, Fraction(1, 3) - r]
    for value in values:
        cls = type(value)
        checked = cls(*(getattr(value, f) for f in cls.__match_args__))
        assert value == checked and repr(value) == repr(checked), value


def test_of_runs_no_init():
    value = MukaiVector._of(r=True, c=[0], m=1)
    assert repr(value) == "MukaiVector(r=True, c=[0], m=1)"
    with pytest.raises(LatticeInputError):
        MukaiVector(True, [0], 1)


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
