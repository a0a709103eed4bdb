import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    basis_spherical_class,
    fraction_det,
    oracle_image_gram,
    oracle_invert_unimodular,
    oracle_ns_product,
    oracle_pairing_matrix,
    oracle_restrict_to_sublattice,
    random_k3_model,
    random_spherical,
    random_vector,
    solve_exact,
    unimodular_k3_model,
)
from mukai_entropy import _linalg
from mukai_entropy.errors import InvarianceError, LatticeInputError
from mukai_entropy.isometries import (
    Isometry,
    compose,
    fixes_pointwise,
    identity_action,
    inverse,
    isometry_from_dict,
    isometry_to_dict,
    polarized_sublattice_basis,
    power,
    restrict_to_sublattice,
    shift_action,
    spherical_twist_action,
    tensor_line_bundle_action,
    twist_tensor_action,
)
from mukai_entropy.lattice import (
    K3LatticeModel,
    MukaiVector,
    add_vectors,
    mukai_pairing,
    orthogonal_complement_basis,
    primitive_vector,
    rank_one_model,
    scale_vector,
    structure_sheaf_vector,
)

V = MukaiVector


def mukai_product(model, a, b):
    """(r r', r c' + r' c, r m' + r' m + c.c'), the product of Mukai vectors."""
    return V(
        a.r * b.r,
        tuple(a.r * y + b.r * x for x, y in zip(a.c, b.c)),
        a.r * b.m + b.r * a.m + oracle_ns_product(model, a.c, b.c),
    )


def test_twist_examples():
    m = rank_one_model(2)
    s = V(1, (0,), 1)
    tw = spherical_twist_action(m, s)
    assert tw.apply(s) == V(-1, (0,), -1)
    assert tw.apply(V(0, (1,), 0)) == V(0, (1,), 0)
    assert tw.apply(V(1, (-1,), 2)) == V(-2, (-1,), -1)


def test_twist_rejects_non_spherical():
    m = rank_one_model(2)
    with pytest.raises(LatticeInputError):
        spherical_twist_action(m, V(1, (0,), -1))


def test_twist_matches_reflection_formula_on_random_vectors():
    # the matrix must implement v + <v, s> s computed through lattice ops
    rng = random.Random(19)
    for _ in range(40):
        model = random_k3_model(rng, rng.randint(1, 4))
        s = random_spherical(rng, model)
        tw = spherical_twist_action(model, s)
        for _ in range(5):
            v = random_vector(rng, model, 15)
            pairing = mukai_pairing(model, v, s)
            expected = V.from_coords(tuple(
                x + pairing * y for x, y in zip(v.coords, s.coords)
            ))
            assert tw.apply(v) == expected


def test_twist_is_reflection():
    rng = random.Random(20)
    for _ in range(30):
        model = random_k3_model(rng, rng.randint(1, 3))
        s = random_spherical(rng, model)
        tw = spherical_twist_action(model, s)
        assert power(tw, 2).matrix == identity_action(model).matrix
        for b in orthogonal_complement_basis(model, [s]):
            assert tw.apply(b) == b


def test_tensor_examples():
    for d in (1, 2, 5):
        m = rank_one_model(d)
        t = tensor_line_bundle_action(m, (-1,))
        assert t.apply(V(1, (0,), 0)) == V(1, (-1,), d)
        assert t.apply(V(0, (1,), 0)) == V(0, (1,), -2 * d)
    m = rank_one_model(3)
    assert tensor_line_bundle_action(m, (0,)).matrix == \
        identity_action(m).matrix


def test_tensor_matches_mukai_product_oracle():
    from mukai_entropy.lattice import line_bundle_vector

    rng = random.Random(21)
    for _ in range(40):
        model = random_k3_model(rng, rng.randint(1, 3))
        divisor = tuple(rng.randint(-4, 4) for _ in range(model.picard_rank))
        action = tensor_line_bundle_action(model, divisor)
        unit = line_bundle_vector(model, divisor)
        # v(L) has m = D^2/2 + 1; the product vector is (1, D, D^2/2)
        factor = V(unit.r, unit.c, unit.m - 1)
        for _ in range(10):
            v = random_vector(rng, model, 10)
            assert action.apply(v) == mukai_product(model, factor, v)


@settings(max_examples=40, deadline=None)
@given(rho=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@example(rho=20, seed=23)
def test_tensor_matrix_columns_are_mukai_products(rho, seed):
    # column j is (1, D, D^2/2) times e_j, with D^2 and D.c by double loops
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    divisor = tuple(rng.randint(-9, 9) for _ in range(rho))
    factor = V(1, divisor, oracle_ns_product(model, divisor, divisor) // 2)
    units = [V.from_coords(row) for row in _linalg.identity(model.rank)]
    columns = [mukai_product(model, factor, e).coords for e in units]
    assert tensor_line_bundle_action(model, divisor).matrix == \
        tuple(zip(*columns))


def test_tensor_is_unipotent():
    rng = random.Random(22)
    for _ in range(20):
        model = random_k3_model(rng, rng.randint(1, 3))
        divisor = tuple(rng.randint(-5, 5) for _ in range(model.picard_rank))
        mat = tensor_line_bundle_action(model, divisor).matrix
        n = model.rank
        nil = tuple(
            tuple(mat[i][j] - (1 if i == j else 0) for j in range(n))
            for i in range(n)
        )
        cube = _linalg.mat_mul(_linalg.mat_mul(nil, nil), nil)
        assert all(x == 0 for row in cube for x in row)


def test_tensor_additivity():
    rng = random.Random(23)
    for _ in range(25):
        model = random_k3_model(rng, rng.randint(1, 3))
        rho = model.picard_rank
        d1 = tuple(rng.randint(-5, 5) for _ in range(rho))
        d2 = tuple(rng.randint(-5, 5) for _ in range(rho))
        both = tuple(x + y for x, y in zip(d1, d2))
        lhs = compose(
            tensor_line_bundle_action(model, d1),
            tensor_line_bundle_action(model, d2),
        )
        assert lhs.matrix == tensor_line_bundle_action(model, both).matrix


def test_shift_action():
    m = rank_one_model(2)
    ident = identity_action(m).matrix
    assert shift_action(m, 0).matrix == ident
    assert shift_action(m, 2).matrix == ident
    assert shift_action(m, 1).matrix == tuple(
        tuple(-x for x in row) for row in ident
    )
    assert shift_action(m, -3).matrix == shift_action(m, 1).matrix


def test_compose_power_inverse():
    m = rank_one_model(2)
    tw = spherical_twist_action(m, V(1, (0,), 1))
    t = tensor_line_bundle_action(m, (-1,))
    assert compose(tw, inverse(tw)).matrix == identity_action(m).matrix
    assert power(t, 0).matrix == identity_action(m).matrix
    assert power(t, -2).matrix == inverse(power(t, 2)).matrix
    with pytest.raises(LatticeInputError):
        compose(tw, spherical_twist_action(rank_one_model(3), V(1, (0,), 1)))


def test_power_matches_closed_forms_at_huge_exponents():
    # closed forms that do not call power: tensor powers add divisors, and a
    # twist is an involution
    for model in (rank_one_model(3), K3LatticeModel(2, ((4, 1), (1, -2)))):
        divisor = (2,) + (-1,) * (model.picard_rank - 1)
        t = tensor_line_bundle_action(model, divisor)
        big = power(t, 10**6)
        assert big.matrix == tensor_line_bundle_action(
            model, [10**6 * x for x in divisor]).matrix
        assert big.label == f"power[{t.label},1000000]"
        tw = spherical_twist_action(model, structure_sheaf_vector(model))
        assert power(tw, 10**9 + 1).matrix == tw.matrix
        assert power(tw, -(10**9)).matrix == identity_action(model).matrix


def test_non_integer_divisor_and_exponent_are_rejected():
    m = rank_one_model(2)
    t = tensor_line_bundle_action(m, (-1,))
    for divisor in ([1.7], [1.0], ["1"], [True]):
        with pytest.raises(LatticeInputError):
            tensor_line_bundle_action(m, divisor)
    for n in (True, False, 2.0, "2"):
        with pytest.raises(LatticeInputError):
            power(t, n)


def test_non_integer_shift_is_rejected():
    m = rank_one_model(2)
    for n in (1.5, 2.0, True, False, "1"):
        with pytest.raises(LatticeInputError):
            shift_action(m, n)


def test_twist_tensor_columns_match_reference():
    for d in (1, 2, 7):
        m = rank_one_model(d)
        phi = twist_tensor_action(m)
        assert phi.apply(V(1, (0,), 0)) == V(-d, (-1,), -1)
        assert phi.apply(V(0, (1,), 0)) == V(2 * d, (1,), 0)
        assert phi.apply(V(0, (0,), 1)) == V(-1, (0,), 0)


def test_twist_tensor_requires_positive_polarization():
    model = K3LatticeModel(2, ((-2, 3), (3, 2)))
    with pytest.raises(LatticeInputError):
        twist_tensor_action(model)


@pytest.mark.parametrize("d", range(1, 51))
def test_restriction_reproduces_reference_matrix(d):
    m = rank_one_model(d)
    restricted = restrict_to_sublattice(
        twist_tensor_action(m), polarized_sublattice_basis(m)
    )
    assert restricted == ((-d, 2 * d, -1), (-1, 1, 0), (-1, 0, 0))


def test_restriction_on_higher_rank_model():
    model = K3LatticeModel(2, ((4, 0), (0, -4)))
    restricted = restrict_to_sublattice(
        twist_tensor_action(model), polarized_sublattice_basis(model)
    )
    assert restricted == ((-2, 4, -1), (-1, 1, 0), (-1, 0, 0))


def test_restriction_identity_and_twist_complement():
    m = rank_one_model(2)
    basis = [V(1, (0,), 0), V(0, (1,), 0)]
    assert restrict_to_sublattice(identity_action(m), basis) == \
        ((1, 0), (0, 1))
    s = V(1, (0,), 1)
    comp = orthogonal_complement_basis(m, [s])
    tw = spherical_twist_action(m, s)
    k = len(comp)
    assert restrict_to_sublattice(tw, comp) == tuple(
        tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
    )


def test_restriction_errors():
    m = rank_one_model(2)
    tw = spherical_twist_action(m, V(1, (0,), 1))
    with pytest.raises(InvarianceError):
        # the line through (1,0,0) is not twist-invariant
        restrict_to_sublattice(tw, [V(1, (0,), 0)])
    with pytest.raises(LatticeInputError):
        restrict_to_sublattice(tw, [V(1, (0,), 0), V(2, (0,), 0)])
    with pytest.raises(LatticeInputError):
        restrict_to_sublattice(tw, [V(2, (0,), 2)])  # not primitive
    with pytest.raises(LatticeInputError):
        restrict_to_sublattice(tw, [])


def test_fixes_pointwise():
    model = K3LatticeModel(2, ((4, 0), (0, -4)))
    phi = twist_tensor_action(model)
    assert fixes_pointwise(phi, [V(0, (0, 1), 0)])
    m = rank_one_model(2)
    tw = spherical_twist_action(m, V(1, (0,), 1))
    assert not fixes_pointwise(tw, [V(1, (0,), 1)])
    assert fixes_pointwise(identity_action(m), [V(3, (5,), -2)])


def test_twist_tensor_fixes_polarization_complement():
    rng = random.Random(24)
    for _ in range(10):
        model = random_k3_model(rng, rng.randint(2, 4))
        if model.ns_gram[0][0] <= 0:
            continue
        h = V(0, (1,) + (0,) * (model.picard_rank - 1), 0)
        phi = twist_tensor_action(model)
        ns_comp = [
            v for v in orthogonal_complement_basis(model, [V(1, (0,) * model.picard_rank, 0), V(0, (0,) * model.picard_rank, 1), h])
        ]
        # those vectors are exactly the (0, D, 0) with D . H = 0
        assert ns_comp
        assert fixes_pointwise(phi, ns_comp)


def test_pairing_preservation_random_composites():
    rng = random.Random(25)
    for _ in range(200):
        model = random_k3_model(rng, rng.randint(1, 3))
        action = identity_action(model)
        for _ in range(rng.randint(1, 4)):
            choice = rng.randrange(3)
            if choice == 0:
                action = compose(
                    action,
                    spherical_twist_action(model, random_spherical(rng, model)),
                )
            elif choice == 1:
                divisor = tuple(
                    rng.randint(-3, 3) for _ in range(model.picard_rank)
                )
                action = compose(
                    action, tensor_line_bundle_action(model, divisor)
                )
            else:
                action = compose(action, shift_action(model, rng.randint(0, 3)))
        g = model.mukai_gram
        assert _linalg.mat_mul(
            _linalg.mat_mul(_linalg.transpose(action.matrix), g), action.matrix
        ) == g
        v = random_vector(rng, model, 20)
        w = random_vector(rng, model, 20)
        assert mukai_pairing(model, action.apply(v), action.apply(w)) == \
            mukai_pairing(model, v, w)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_constructed_isometries_have_unit_determinant(seed):
    # the package never checks det M == +-1; it is re-derived here by
    # rational elimination, independent of Bareiss
    rng = random.Random(seed)
    model = random_k3_model(rng, rng.randint(1, 3))
    action = identity_action(model)
    for _ in range(rng.randint(1, 5)):
        choice = rng.randrange(6)
        if choice == 0:
            step = spherical_twist_action(model, random_spherical(rng, model))
        elif choice == 1:
            step = tensor_line_bundle_action(
                model, [rng.randint(-3, 3) for _ in range(model.picard_rank)]
            )
        elif choice == 2:
            step = shift_action(model, rng.randint(-3, 3))
        elif choice == 3:
            step = inverse(action)
        elif choice == 4:
            step = power(action, rng.randint(-3, 3))
        elif model.ns_gram[0][0] > 0:
            step = twist_tensor_action(model)
        else:
            step = identity_action(model)
        assert fraction_det(step.matrix) in (1, -1)
        action = compose(step, action)
        assert fraction_det(action.matrix) in (1, -1)


def test_isometry_constructor_rejects_non_isometries():
    m = rank_one_model(2)
    with pytest.raises(LatticeInputError):
        Isometry(m, ((2, 0, 0), (0, 1, 0), (0, 0, 1)), "bad")
    with pytest.raises(LatticeInputError):
        Isometry(m, ((1, 0), (0, 1)), "wrong size")
    with pytest.raises(LatticeInputError, match="preserve"):
        isometry_from_dict(m, {"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
                               "picard_rank": 1})


@pytest.mark.parametrize("matrix", [5, [5], None], ids=["int", "row", "null"])
def test_isometry_from_dict_rejects_a_matrix_that_is_not_rows(matrix):
    with pytest.raises(LatticeInputError):
        isometry_from_dict(rank_one_model(2),
                           {"matrix": matrix, "picard_rank": 1})


@pytest.mark.parametrize("rho", [True, 1.0, "1", None])
def test_isometry_from_dict_takes_picard_rank_as_a_strict_int(rho):
    data = {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "picard_rank": rho}
    with pytest.raises(LatticeInputError, match="picard_rank"):
        isometry_from_dict(rank_one_model(2), data)


@pytest.mark.parametrize("label", [["x", "x"], 7, None, {"a": 1}])
def test_isometry_from_dict_refuses_a_label_that_is_not_a_string(label):
    data = {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "picard_rank": 1,
            "label": label}
    with pytest.raises(LatticeInputError, match="label"):
        isometry_from_dict(rank_one_model(2), data)
    del data["label"]
    assert isometry_from_dict(rank_one_model(2), data).label == "loaded"


def test_power_refuses_entries_past_the_bit_cap():
    phi = twist_tensor_action(rank_one_model(7))
    # radius (5 + sqrt(21)) / 2, about 2.26 bits per step: 3000 steps stay
    # under 2^13 bits, 10^6 steps would need about 2.26 million
    assert max(x.bit_length() for row in power(phi, 3000).matrix
               for x in row) < 2**13
    for n in (4000, 10**6, -(10**6), 10**100):
        with pytest.raises(LatticeInputError, match="bits"):
            power(phi, n)


def test_apply_checks_vector_rank():
    m = rank_one_model(2)
    with pytest.raises(LatticeInputError):
        identity_action(m).apply(V(1, (0, 0), 1))


def test_isometry_json_round_trip():
    m = rank_one_model(3)
    phi = twist_tensor_action(m)
    data = isometry_to_dict(phi)
    again = isometry_from_dict(m, data)
    assert again.matrix == phi.matrix
    assert data["picard_rank"] == 1
    with pytest.raises(LatticeInputError):
        isometry_from_dict(rank_one_model(2), {"matrix": [[1]], "picard_rank": 5})


# --- property tests at every Mukai rank 3..22 --------------------------------

RANKS = st.integers(1, 20)  # Picard rank; the Mukai rank is rho + 2


def _word(rng, model, twist_classes):
    """Twists along the given classes, with tensors and shifts in between."""
    action = identity_action(model)
    for s in twist_classes:
        step = rng.randrange(3)
        if step == 0:
            action = compose(tensor_line_bundle_action(
                model, [rng.randint(-1, 1) for _ in range(model.picard_rank)]
            ), action)
        elif step == 1:
            action = compose(shift_action(model, rng.randint(-2, 2)), action)
        action = compose(spherical_twist_action(model, s), action)
    return action


def _mix(rng, vectors):
    """A seeded unimodular change of basis: adds, swaps and sign flips."""
    vs = list(vectors)
    for _ in range(2 * len(vs)):
        i, j = rng.randrange(len(vs)), rng.randrange(len(vs))
        if i != j:
            vs[i] = add_vectors(vs[i], scale_vector(rng.choice((-1, 1)), vs[j]))
        else:
            vs[i] = scale_vector(-1, vs[i])
    rng.shuffle(vs)
    return vs


@settings(max_examples=40, deadline=None)
@given(rho=RANKS, seed=st.integers(0, 2**32 - 1),
       m=st.integers(-3, 3), n=st.integers(-3, 3))
@example(rho=20, seed=5, m=-3, n=2)
def test_group_laws_at_every_rank(rho, seed, m, n):
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    a, b, c = (
        _word(rng, model, [basis_spherical_class(rng, model)
                           for _ in range(rng.randint(1, 3))])
        for _ in range(3)
    )
    assert power(a, m + n).matrix == compose(power(a, m), power(a, n)).matrix
    assert compose(compose(a, b), c).matrix == compose(a, compose(b, c)).matrix
    ident = identity_action(model).matrix
    assert compose(a, inverse(a)).matrix == ident
    assert compose(inverse(a), a).matrix == ident
    assert inverse(a).matrix == oracle_invert_unimodular(a.matrix)


@settings(max_examples=40, deadline=None)
@given(rho=RANKS, seed=st.integers(0, 2**32 - 1), kind=st.integers(0, 2))
@example(rho=20, seed=5, kind=0)
@example(rho=20, seed=5, kind=1)
@example(rho=20, seed=5, kind=2)
def test_restriction_matches_rational_oracle_at_every_rank(rho, seed, kind):
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    classes = [basis_spherical_class(rng, model)
               for _ in range(rng.randint(1, 3))]
    if kind == 2:  # the whole lattice, in the basis of a unimodular matrix
        action = _word(rng, model, classes)
        basis = [V.from_coords(row) for row in inverse(action).matrix]
    else:
        # twists and a shift preserve the lattice the twist classes fix
        # pointwise, and with it its complement, the saturated span of
        # the classes
        action = shift_action(model, rng.randint(0, 1))
        for s in classes:
            action = compose(spherical_twist_action(model, s), action)
        basis = orthogonal_complement_basis(model, classes)
        if kind == 1:
            basis = orthogonal_complement_basis(model, basis)
    basis = _mix(rng, basis)
    assert restrict_to_sublattice(action, basis) == \
        oracle_restrict_to_sublattice(action, basis)

    # a doubled vector spans a sublattice of index 2
    doubled = [scale_vector(2, basis[0])] + basis[1:]
    with pytest.raises(LatticeInputError, match="primitive"):
        restrict_to_sublattice(action, doubled)
    # a sum of two basis vectors more is dependent
    extra = basis + [add_vectors(basis[0], basis[-1])]
    with pytest.raises(LatticeInputError, match="dependent"):
        restrict_to_sublattice(action, extra)
    with pytest.raises(LatticeInputError, match="dependent"):
        oracle_restrict_to_sublattice(action, extra)


@settings(max_examples=40, deadline=None)
@given(rho=RANKS, seed=st.integers(0, 2**32 - 1))
@example(rho=20, seed=5)
def test_span_coordinates_match_rational_solve(rho, seed):
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    classes = [basis_spherical_class(rng, model)
               for _ in range(rng.randint(1, 3))]
    basis = _mix(rng, orthogonal_complement_basis(model, classes))
    columns = [b.coords for b in basis]
    inside = [rng.randint(-9, 9) for _ in basis]
    targets = [
        tuple(sum(x * col[i] for x, col in zip(inside, columns))
              for i in range(model.rank)),
        random_vector(rng, model, 9).coords,
        add_vectors(V.from_coords(columns[0]), classes[0]).coords,
    ]
    got = _linalg.span_coordinates(columns, targets)
    assert got[0] == tuple(inside)
    for x, t in zip(got, targets):
        sol = solve_exact(columns, t)
        if sol is None:
            assert x is None
        else:
            assert x == tuple(sol)  # integral: the basis is primitive


@settings(max_examples=30, deadline=None)
@given(rho=RANKS, seed=st.integers(0, 2**32 - 1))
@example(rho=20, seed=5)
def test_line_through_a_moved_vector_is_not_invariant(rho, seed):
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    s = basis_spherical_class(rng, model)
    twist = spherical_twist_action(model, s)
    v = primitive_vector(random_vector(rng, model, 9))
    if all(x == 0 for x in v.coords) or mukai_pairing(model, v, s) == 0 \
            or v in (s, scale_vector(-1, s)):
        return
    # the twist moves v by <v, s> s, off the line through v
    with pytest.raises(InvarianceError):
        restrict_to_sublattice(twist, [v])
    with pytest.raises(InvarianceError):
        oracle_restrict_to_sublattice(twist, [v])


@settings(max_examples=40, deadline=None)
@given(rho=RANKS, seed=st.integers(0, 2**32 - 1))
@example(rho=20, seed=5)
def test_constructions_preserve_the_pairing_at_every_rank(rho, seed):
    # the package does not re-check M^T G M == G on what it builds (see
    # Isometry); this oracle, pairing the images of the basis vectors by
    # index loops, is the evidence that every construction is an isometry
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    word = _word(rng, model, [basis_spherical_class(rng, model)
                              for _ in range(rng.randint(1, 4))])
    parts = [
        identity_action(model),
        spherical_twist_action(model, basis_spherical_class(rng, model)),
        spherical_twist_action(
            model, word.apply(basis_spherical_class(rng, model))),
        tensor_line_bundle_action(
            model, [rng.randint(-3, 3) for _ in range(rho)]),
        shift_action(model, rng.randint(-3, 3)),
        twist_tensor_action(model),
        word,
    ]
    built = parts + [
        compose(rng.choice(parts), rng.choice(parts)),
        inverse(word),
        inverse(rng.choice(parts)),
        power(word, rng.randint(-3, 3)),
        power(rng.choice(parts), rng.randint(-5, 5)),
    ]
    n = model.rank
    gram = oracle_pairing_matrix(
        model, [V.from_coords([int(i == j) for j in range(n)])
                for i in range(n)])
    for a in built:
        assert a.model is model
        assert type(a.matrix) is tuple and len(a.matrix) == n
        assert all(type(row) is tuple and len(row) == n for row in a.matrix)
        assert all(type(x) is int for row in a.matrix for x in row)
        assert oracle_image_gram(model, a.matrix) == gram, a.label
