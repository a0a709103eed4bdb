import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    basis_spherical_class,
    oracle_char_poly,
    oracle_column_reduce,
    oracle_inertia,
    oracle_ns_product,
    oracle_pairing,
    oracle_pairing_matrix,
    oracle_rank_one_square,
    oracle_signature_by_descartes,
    random_k3_model,
    random_vector,
    same_lattice,
    tridiagonal_gram,
    unimodular_k3_model,
)
from mukai_entropy import _linalg
from mukai_entropy.errors import LatticeInputError
from mukai_entropy.lattice import (
    K3LatticeModel,
    MukaiVector,
    add_vectors,
    doubled_square_is_nonsquare,
    euler_pairing,
    is_spherical_class,
    line_bundle_vector,
    model_from_dict,
    model_to_dict,
    mukai_pairing,
    ns_product,
    orthogonal_complement_basis,
    pairing_matrix,
    primitive_vector,
    rank_one_model,
    scale_vector,
    sign_normalized,
    signature_of,
    square,
    structure_sheaf_vector,
    vector_from_dict,
    vector_to_dict,
)

V = MukaiVector


def test_pairing_degree_two_examples():
    m = rank_one_model(2)
    assert mukai_pairing(m, V(1, (0,), 1), V(1, (0,), 1)) == -2
    assert mukai_pairing(m, V(1, (0,), 1), V(0, (1,), 0)) == 0


@pytest.mark.parametrize("d", [1, 2, 3, 5, 11])
@pytest.mark.parametrize("j", [0, 1, 2, 5])
def test_pairing_against_line_bundle_family(d, j):
    # <(1,0,1), (1,-j, j^2 d + 1)> expands to -(j^2 d + 2)
    m = rank_one_model(d)
    w = V(1, (-j,), j * j * d + 1)
    assert mukai_pairing(m, V(1, (0,), 1), w) == -(j * j * d + 2)
    assert mukai_pairing(m, V(1, (0,), 1), w) == oracle_pairing(m, V(1, (0,), 1), w)


def test_euler_pairing_examples():
    m = rank_one_model(2)
    assert euler_pairing(m, V(1, (0,), 1), V(1, (-1,), 3)) == 4
    assert euler_pairing(m, V(1, (0,), 1), V(1, (0,), 1)) == 2
    m5 = rank_one_model(5)
    assert euler_pairing(m5, V(1, (0,), 1), V(1, (-1,), 6)) == 7


def test_square_examples():
    for d in (1, 2, 7):
        assert square(rank_one_model(d), V(1, (0,), 1)) == -2
    assert square(rank_one_model(2), V(0, (1,), 0)) == 4


def test_rank_one_square_formula_oracle():
    rng = random.Random(10)
    for _ in range(200):
        d = rng.randint(1, 9)
        v = V(rng.randint(-20, 20), (rng.randint(-20, 20),), rng.randint(-20, 20))
        assert square(rank_one_model(d), v) == oracle_rank_one_square(d, v)


def test_is_spherical_class():
    m = rank_one_model(2)
    assert is_spherical_class(m, V(1, (0,), 1))
    assert not is_spherical_class(m, V(0, (1,), 0))
    # square of (1,-1,2) at d=2 is 4 - 4 = 0, so not spherical
    assert square(m, V(1, (-1,), 2)) == 0
    assert not is_spherical_class(m, V(1, (-1,), 2))


def test_pairing_dimension_mismatch():
    m = rank_one_model(2)
    with pytest.raises(LatticeInputError):
        mukai_pairing(m, V(1, (0, 0), 1), V(1, (0,), 1))


def test_ns_product_rejects_short_vectors():
    # a map over the shorter vector would return g_00 for (1,) . (1, 0)
    m = K3LatticeModel(2, ((2, 1), (1, -2)))
    with pytest.raises(LatticeInputError):
        ns_product(m, (1,), (1, 0))
    with pytest.raises(LatticeInputError):
        ns_product(m, (1, 0), (1,))


def test_ns_product_rejects_long_vectors():
    m = K3LatticeModel(2, ((2, 1), (1, -2)))
    with pytest.raises(LatticeInputError):
        ns_product(m, (1, 0, 0), (1, 0))
    with pytest.raises(LatticeInputError):
        ns_product(m, (1, 0), (1, 0, 5))


@settings(max_examples=40, deadline=None)
@given(rho=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       k=st.integers(0, 22), huge=st.booleans())
@example(rho=20, seed=22, k=6, huge=False)
@example(rho=20, seed=20, k=22, huge=True)
def test_pairings_match_double_loop_oracles(rho, seed, k, huge):
    # up to rank-many vectors, with entries near +-10^30 when huge
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    shift = 10 ** 30 if huge else 0
    vs = [V.from_coords(x + shift * rng.choice((-1, 1))
                        for x in random_vector(rng, model, 30).coords)
          for _ in range(min(k, model.rank))]
    for a in vs:
        for b in vs:
            assert ns_product(model, a.c, b.c) == \
                oracle_ns_product(model, a.c, b.c)
    assert pairing_matrix(model, vs) == oracle_pairing_matrix(model, vs)


@settings(max_examples=30, deadline=None)
@given(rho=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       k=st.integers(0, 22), huge=st.booleans())
@example(rho=1, seed=0, k=3, huge=True)
@example(rho=20, seed=7, k=22, huge=True)
def test_pairing_matrix_matches_oracle_on_sparse_vectors(rho, seed, k, huge):
    # pairing_matrix sums over the nonzero NS entries alone: vectors with 0,
    # 1 or 2 of them (r, m and the entries near +-10^30 when huge), then the
    # complement bases of O_X and of a spherical class, mostly unit vectors
    rng = random.Random(seed)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 6))
    scale = 10 ** 30 if huge else 1

    def entry():
        return rng.choice((-1, 1)) * scale + rng.randint(-2, 2)

    vs = []
    for _ in range(k):
        c = [0] * rho
        for i in rng.sample(range(rho), min(rho, rng.randint(0, 2))):
            c[i] = entry()
        vs.append(V(entry() * rng.randint(0, 1), tuple(c),
                    entry() * rng.randint(0, 1)))
    assert pairing_matrix(model, vs) == oracle_pairing_matrix(model, vs)
    for s in (structure_sheaf_vector(model), basis_spherical_class(rng, model)):
        basis = orthogonal_complement_basis(model, [s])
        assert pairing_matrix(model, basis) == \
            oracle_pairing_matrix(model, basis)


def test_pairing_matrix_checks_every_vector():
    m = rank_one_model(2)
    for vs in ([V(1, (0, 0), 1)], [V(1, (0,), 1), V(0, (1, 1), 0)]):
        with pytest.raises(LatticeInputError, match="NS length 2"):
            pairing_matrix(m, vs)


def test_model_validation():
    with pytest.raises(LatticeInputError):
        K3LatticeModel(1, ((3,),))  # odd diagonal
    with pytest.raises(LatticeInputError):
        K3LatticeModel(1, ((-2,),))  # negative definite
    with pytest.raises(LatticeInputError):
        K3LatticeModel(2, ((2, 1), (0, -2)))  # not symmetric
    with pytest.raises(LatticeInputError):
        K3LatticeModel(2, ((2, 0), (0, 2)))  # signature (2, 0)
    with pytest.raises(LatticeInputError):
        K3LatticeModel(1, ((0,),))  # degenerate
    # the hyperbolic plane U is fine: even with signature (1, 1)
    K3LatticeModel(2, ((0, 1), (1, 0)))


def test_picard_rank_is_capped_at_twenty():
    # the NS lattice of a projective K3 surface sits in H^{1,1}, of dimension
    # 20; a larger rank is refused before the gram is read, so quickly even
    # where the signature check alone took over 60 s (rho = 320)
    assert K3LatticeModel(20, tridiagonal_gram(20)).picard_rank == 20
    for rho in (21, 80, 320):
        gram = tridiagonal_gram(rho)
        start = time.perf_counter()
        with pytest.raises(LatticeInputError, match=f"picard_rank {rho} is over 20"):
            K3LatticeModel(rho, gram)
        with pytest.raises(LatticeInputError):
            model_from_dict({"picard_rank": rho, "ns_gram": gram})
        assert time.perf_counter() - start < 0.5, rho


def test_signature_examples():
    assert signature_of(rank_one_model(2).mukai_gram).as_tuple() == (2, 1, 0)
    m = rank_one_model(2)
    basis = [V(0, (1,), 0), V(1, (0,), -1)]
    assert signature_of(pairing_matrix(m, basis)).as_tuple() == (2, 0, 0)
    assert signature_of(((0,),)).as_tuple() == (0, 0, 1)
    with pytest.raises(LatticeInputError):
        signature_of(((1, 2), (3, 4)))


def test_signature_random_against_descartes_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = rng.randint(-6, 6)
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.randint(-6, 6)
        sig = signature_of(gram).as_tuple()
        assert sig == oracle_signature_by_descartes(gram)
        assert sum(sig) == n


@st.composite
def _symmetric_grams(draw):
    """A symmetric integer matrix of size 0..22: random entries, random
    entries on a zero diagonal (a pivot the elimination has to make), or a
    low-rank B^T D B."""
    n = draw(st.integers(0, 22))
    kind = draw(st.sampled_from(["entries", "zero_diagonal", "low_rank"]))
    if kind == "low_rank":
        k = draw(st.integers(0, n))
        b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                   max_size=n), min_size=k, max_size=k))
        d = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        return [[sum(b[t][i] * d[t] * b[t][j] for t in range(k))
                 for j in range(n)] for i in range(n)]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        if kind == "entries":
            gram[i][i] = draw(st.integers(-6, 6))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-6, 6))
    return gram


@st.composite
def _unimodular(draw, n):
    """A product of elementary integer column operations, det +-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return u
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        for row in u:
            row[i] += c * row[j]
    return u


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_signature_matches_the_elimination_oracle(data):
    gram = data.draw(_symmetric_grams())
    n = len(gram)
    sig = signature_of(gram).as_tuple()
    assert sig == oracle_inertia(gram)
    assert sum(sig) == n
    # a unimodular congruence U^T G U keeps the signature
    u = data.draw(_unimodular(n))
    gu = [[sum(gram[a][b] * u[b][j] for b in range(n)) for j in range(n)]
          for a in range(n)]
    moved = [[sum(u[a][i] * gu[a][j] for a in range(n)) for j in range(n)]
             for i in range(n)]
    assert signature_of(moved).as_tuple() == sig


def test_full_mukai_signature_is_two_rho():
    rng = random.Random(12)
    for _ in range(25):
        rho = rng.randint(1, 4)
        model = random_k3_model(rng, rho)
        assert signature_of(model.mukai_gram).as_tuple() == (2, rho, 0)


# entries up to 10^6 in size, with many zeros and units
_reduce_entries = st.one_of(st.sampled_from((0, 0, 0, 1, -1)),
                            st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(0, 3), n=st.integers(1, 22))
def test_column_reduce_matches_index_loop_oracle(data, k, n):
    rows = data.draw(st.lists(
        st.lists(_reduce_entries, min_size=n, max_size=n),
        min_size=k, max_size=k))
    ecols, vcols, pivots = _linalg.column_reduce(rows, n)
    # the same integers as the index loops, so complement bases and the
    # search order built on them are unchanged byte for byte
    assert (ecols, vcols, pivots) == oracle_column_reduce(rows, n)
    # R V = E, entry by entry
    for r in range(k):
        for j in range(n):
            assert sum(rows[r][t] * vcols[j][t] for t in range(n)) == \
                ecols[j][r]
    # V is unimodular: the constant term of its char poly is +-det V
    v = [[vcols[j][t] for j in range(n)] for t in range(n)]
    assert abs(oracle_char_poly(v)[0]) == 1
    # E vanishes on the columns no row claimed
    for j in range(n):
        if j not in pivots:
            assert not any(ecols[j])


def test_orthogonal_complement_examples():
    m = rank_one_model(2)
    basis = orthogonal_complement_basis(m, [V(1, (0,), 1)])
    assert same_lattice(basis, [V(0, (1,), 0), V(1, (0,), -1)])
    full = orthogonal_complement_basis(m, [])
    assert same_lattice(full, [V(1, (0,), 0), V(0, (1,), 0), V(0, (0,), 1)])
    nothing = orthogonal_complement_basis(
        m, [V(1, (0,), 0), V(0, (1,), 0), V(0, (0,), 1)]
    )
    assert nothing == []


def test_orthogonal_complement_properties():
    rng = random.Random(13)
    from helpers import rational_rank

    for _ in range(40):
        rho = rng.randint(1, 4)
        model = random_k3_model(rng, rho)
        k = rng.randint(0, rho + 2)
        vs = [random_vector(rng, model, 5) for _ in range(k)]
        basis = orthogonal_complement_basis(model, vs)
        for b in basis:
            for v in vs:
                assert mukai_pairing(model, b, v) == 0
        span_rank = rational_rank([v.coords for v in vs])
        assert len(basis) == (rho + 2) - span_rank


def test_orthogonal_complement_is_saturated():
    # any integral vector lying in the rational span of the complement must
    # already be an integer combination of the returned basis
    rng = random.Random(14)
    from helpers import in_lattice

    for _ in range(20):
        model = random_k3_model(rng, rng.randint(1, 3))
        vs = [random_vector(rng, model, 4)]
        basis = orthogonal_complement_basis(model, vs)
        if not basis:
            continue
        w = basis[0]
        for b in basis[1:]:
            k = rng.randint(-3, 3)
            w = V.from_coords(
                tuple(x + k * y for x, y in zip(w.coords, b.coords))
            )
        assert in_lattice(basis, w)


def test_pairing_symmetry_and_bilinearity():
    rng = random.Random(15)
    for model in (rank_one_model(3), random_k3_model(rng, 3)):
        for _ in range(1000):
            v = random_vector(rng, model)
            w = random_vector(rng, model)
            assert mukai_pairing(model, v, w) == mukai_pairing(model, w, v)
            assert euler_pairing(model, v, w) == -mukai_pairing(model, v, w)
        for _ in range(200):
            v = random_vector(rng, model)
            w = random_vector(rng, model)
            u = random_vector(rng, model)
            a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
            combo = V.from_coords(
                tuple(a * x + b * y for x, y in zip(v.coords, w.coords))
            )
            assert mukai_pairing(model, combo, u) == (
                a * mukai_pairing(model, v, u) + b * mukai_pairing(model, w, u)
            )


def test_add_vectors_rejects_mismatched_ns_lengths():
    # a zip over the coordinates dropped the surplus entry:
    # (1, (2, 3), 4) + (1, (5,), 1) gave MukaiVector(r=2, c=(7,), m=4)
    long, short = V(1, (2, 3), 4), V(1, (5,), 1)
    with pytest.raises(LatticeInputError, match="NS lengths 2 and 1"):
        add_vectors(long, short)
    with pytest.raises(LatticeInputError, match="NS lengths 1 and 2"):
        add_vectors(short, long)
    assert add_vectors(long, V(1, (5, 6), 1)) == V(2, (7, 9), 5)


def test_doubled_square_is_nonsquare():
    m = rank_one_model(2)
    assert doubled_square_is_nonsquare(m, V(0, (1,), 0))  # 2*4 = 8
    m1 = rank_one_model(1)
    assert not doubled_square_is_nonsquare(m1, V(0, (1,), 0))  # 2*2 = 4
    assert not doubled_square_is_nonsquare(m, V(1, (-1,), 2))  # 2*0 = 0


def test_vector_helpers():
    assert primitive_vector(V(2, (4,), -6)) == V(1, (2,), -3)
    assert primitive_vector(V(0, (0,), 0)) == V(0, (0,), 0)
    assert sign_normalized(V(-1, (2,), 0)) == V(1, (-2,), 0)
    assert sign_normalized(V(0, (-3,), 1)) == V(0, (3,), -1)
    assert scale_vector(-3, V(1, (0, 2), -1)) == V(-3, (0, -6), 3)
    for n in (True, 1.0, "2"):
        with pytest.raises(LatticeInputError, match="scale factor"):
            scale_vector(n, V(1, (0,), 1))
    assert V.from_coords(iter([2, 0, -1])) == V(2, (0,), -1)
    for seq in ([1], []):
        with pytest.raises(LatticeInputError, match="too short"):
            V.from_coords(seq)


def test_line_bundle_vector():
    m = rank_one_model(2)
    assert structure_sheaf_vector(m) == V(1, (0,), 1)
    assert line_bundle_vector(m, (-1,)) == V(1, (-1,), 3)
    assert line_bundle_vector(m, (2,)) == V(1, (2,), 9)


def test_json_round_trip():
    rng = random.Random(16)
    model = random_k3_model(rng, 3)
    assert model_from_dict(model_to_dict(model)) == model
    v = random_vector(rng, model)
    assert vector_from_dict(vector_to_dict(v)) == v
    with pytest.raises(LatticeInputError):
        model_from_dict({"picard_rank": 1})
    with pytest.raises(LatticeInputError):
        vector_from_dict({"r": 1, "m": 1})
