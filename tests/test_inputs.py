"""Integer arguments of the public API are checked by one routine,
_linalg.to_int: each refuses a bool, a float and a string, and a value
under its lower bound, with a LatticeInputError that names the argument and
the kind of integer it wants."""

from fractions import Fraction

import numpy as np
import pytest

from mukai_entropy import _linalg, entropy
from mukai_entropy.errors import LatticeInputError
from mukai_entropy.isometries import (
    Isometry,
    identity_action,
    isometry_from_dict,
    power,
    restrict_to_sublattice,
    shift_action,
    tensor_line_bundle_action,
    twist_tensor_action,
)
from mukai_entropy.lattice import (
    K3LatticeModel,
    MukaiVector,
    line_bundle_vector,
    rank_one_model,
    signature_of,
)
from mukai_entropy.orthosearch import Rank2Form, find_positive_orthogonal
from mukai_entropy.spectral import (
    CharPoly,
    QuadraticSurd,
    char_poly,
    radius_closed_form,
    spectral_radius,
)

M1 = rank_one_model(2)
M2 = K3LatticeModel(2, ((2, 1), (1, -2)))
O_X = MukaiVector(1, (0,), 1)

# (name in the message, lower bound or None, call taking the value); each
# call succeeds on the value 2
INT_ARGUMENTS = [
    ("r", None, lambda x: MukaiVector(x, (0,), 1)),
    ("m", None, lambda x: MukaiVector(1, (0,), x)),
    ("c entry", None, lambda x: MukaiVector(1, (x,), 1)),
    ("picard_rank", 1, lambda x: K3LatticeModel(x, ((2, 1), (1, -2)))),
    ("ns_gram entry", None, lambda x: K3LatticeModel(1, ((x,),))),
    ("d", 1, rank_one_model),
    ("divisor entry", None, lambda x: line_bundle_vector(M1, (x,))),
    ("divisor entry", None, lambda x: tensor_line_bundle_action(M1, (x,))),
    ("shift", None, lambda x: shift_action(M1, x)),
    ("power exponent", None,
     lambda x: power(twist_tensor_action(M1), x)),
    ("picard_rank", None, lambda x: isometry_from_dict(
        M2, {"matrix": identity_action(M2).matrix, "picard_rank": x})),
    # tensoring by the polarization of M1
    ("isometry matrix entry", None, lambda x: Isometry(
        M1, ((1, 0, 0), (1, 1, 0), (x, 4, 1)), "tensor")),
    ("matrix entry", None, lambda x: signature_of(((x,),))),
    ("matrix entry", None, lambda x: char_poly([[x]])),
    ("matrix entry", None, lambda x: spectral_radius([[x]])),
    ("rank-2 form entry", None, lambda x: Rank2Form(((x, 0), (0, -2)))),
    ("spherical_dim", 1, lambda x: entropy.twist_entropy_curve(x, True)),
    ("k", 1, lambda x: entropy.h0_line_bundle(x, 1)),
    ("d", 1, lambda x: entropy.h0_line_bundle(1, x)),
    ("n", 0, lambda x: entropy.ext_top_dim(x, 1, 1, 1)),
    ("i", 1, lambda x: entropy.ext_top_dim(1, x, 1, 1)),
    ("k", 1, lambda x: entropy.ext_top_dim(1, 1, x, 1)),
    ("d", 1, lambda x: entropy.ext_top_dim(1, 1, 1, x)),
    ("n", 0, lambda x: entropy.hom_growth_lower_bound(x, 1, 1)),
    ("n", 0, lambda x: entropy.reference_growth_bound(x, 1)),
    ("d", 1, lambda x: entropy.reference_growth_bound(1, x)),
    ("n", 0, lambda x: entropy.iterated_chi(x, 1, 1, M1)),
    ("i", 1, lambda x: entropy.iterated_chi(1, x, 1, M1)),
    ("k", 1, lambda x: entropy.iterated_chi(1, 1, x, M1)),
    ("d", 1, lambda x: entropy.ext_recursion_table(x, 1, 1, 1)),
    ("i", 1, lambda x: entropy.ext_recursion_table(1, x, 1, 1)),
    ("k", 1, lambda x: entropy.ext_recursion_table(1, 1, x, 1)),
    ("n_max", 0, lambda x: entropy.ext_recursion_table(1, 1, 1, x)),
    ("d", 1, entropy.gy_gap),
    ("search_bound", 1, lambda x: find_positive_orthogonal(M1, O_X, x)),
    ("coefficient", None, lambda x: CharPoly((x, 1))),
    ("surd root", 0, lambda x: QuadraticSurd(0, 1, x)),
    ("d", 1, radius_closed_form),
]
KINDS = {None: "an integer", 0: "a non-negative integer",
         1: "a positive integer"}


def _bad_values(least):
    bad = [True, 2.0, "2"]
    return bad if least is None else bad + [least - 1]


@pytest.mark.parametrize(
    "name, least, call", INT_ARGUMENTS,
    ids=[f"{i}-{name}" for i, (name, _, _) in enumerate(INT_ARGUMENTS)])
def test_integer_arguments_refuse_non_integers_and_values_under_the_bound(
        name, least, call):
    call(2)
    for bad in _bad_values(least):
        with pytest.raises(LatticeInputError) as info:
            call(bad)
        assert str(info.value) == \
            f"{name} must be {KINDS[least]}, got {bad!r}", bad


def test_maps_of_vectors_check_their_ns_length():
    short = MukaiVector(1, (0,), 1)
    with pytest.raises(LatticeInputError, match="NS length 1"):
        identity_action(M2).apply(short)
    with pytest.raises(LatticeInputError, match="NS length 1"):
        restrict_to_sublattice(identity_action(M2), [short])
    for reader in (line_bundle_vector, tensor_line_bundle_action):
        with pytest.raises(LatticeInputError, match="divisor length"):
            reader(M2, (1,))


@pytest.mark.parametrize("matrix, size", [
    ([[1, 0]], None), ([[1, 0], [0]], None), ([[1]], 2), ([], 1)])
def test_matrices_are_checked_square_with_their_size(matrix, size):
    with pytest.raises(LatticeInputError, match="matrix must be"):
        _linalg.to_int_matrix(matrix, size)


@pytest.mark.parametrize("bad", [True, 2.0, np.int64(2), "2", Fraction(2)],
                         ids=["bool", "float", "int64", "str", "Fraction"])
@pytest.mark.parametrize("at", [(0, 0), (1, 2), (2, 1), (2, 2)])
def test_matrix_entries_other_than_ints_take_the_checked_path(bad, at):
    # only a matrix of exact ints skips to_int, so every other entry type
    # is refused with to_int's message wherever it sits
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    rows[at[0]][at[1]] = bad
    with pytest.raises(LatticeInputError) as info:
        _linalg.to_int_matrix(rows, 3, "isometry matrix")
    assert str(info.value) == \
        f"isometry matrix entry must be an integer, got {bad!r}"


def test_int_matrices_come_back_as_int_tuples():
    class Big(int):
        pass

    assert _linalg.to_int_matrix([[1, -2], (3, 10 ** 40)]) == \
        ((1, -2), (3, 10 ** 40))
    # an int subclass is no exact int, so to_int takes it and keeps it
    kept = _linalg.to_int_matrix([[Big(5)]])
    assert kept == ((5,),) and type(kept[0][0]) is Big


def test_the_empty_matrix_is_square():
    assert _linalg.to_int_matrix([]) == ()
    assert signature_of(()).as_tuple() == (0, 0, 0)
    for call in (char_poly, spectral_radius):
        with pytest.raises(LatticeInputError, match="non-empty"):
            call([])
