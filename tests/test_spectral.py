import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    _oracle_sign_at,
    basis_spherical_class,
    cofactor_char_poly,
    fraction_det,
    oracle_char_poly,
    oracle_mat_mul,
    oracle_mat_vec,
    oracle_root_product_poly,
    oracle_spectral_radius,
    oracle_square_part,
    oracle_squarefree_part,
    oracle_surd_parts,
    oracle_surd_sign,
    oracle_sturm_chain,
    poly_apply_matrix,
    poly_mul,
    random_k3_model,
    random_spherical,
    unimodular_k3_model,
)
from mukai_entropy import _linalg, spectral
from mukai_entropy.errors import CertificationError, LatticeInputError
from mukai_entropy.spectral import (
    CertifiedRadius,
    CharPoly,
    QuadraticSurd,
    char_poly,
    charpoly_from_dict,
    charpoly_to_dict,
    matrix_from_obj,
    radius_closed_form,
    radius_to_dict,
    spectral_radius,
)


def family_matrix(d):
    return ((-d, 2 * d, -1), (-1, 1, 0), (-1, 0, 0))


def test_char_poly_examples():
    assert char_poly(family_matrix(5)).coeffs == (1, 4, 4, 1)
    assert char_poly([[1, 0], [0, 1]]).coeffs == (1, -2, 1)
    assert char_poly([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]).coeffs == (1, 3, 3, 1)
    assert char_poly(family_matrix(5)).degree == 3
    assert char_poly([[7]]).degree == 1 and CharPoly((1,)).degree == 0


def test_char_poly_against_cofactor_oracle():
    rng = random.Random(30)
    for _ in range(40):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert list(char_poly(mat).coeffs) == cofactor_char_poly(mat)


def test_cayley_hamilton():
    rng = random.Random(31)
    for _ in range(200):
        mat = tuple(
            tuple(rng.randint(-20, 20) for _ in range(5)) for _ in range(5)
        )
        cp = char_poly(mat)
        result = poly_apply_matrix(cp.coeffs, mat)
        assert all(x == 0 for row in result for x in row)


def test_char_poly_rejects_non_square():
    with pytest.raises(LatticeInputError):
        char_poly([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(LatticeInputError):
        char_poly([])


@pytest.mark.parametrize("d", range(1, 101))
def test_family_factorization(d):
    # (x + 1)(x^2 + (d-2)x + 1) exactly
    product = poly_mul([1, 1], [1, d - 2, 1])
    assert product == list(char_poly(family_matrix(d)).coeffs)


def test_constant_term_is_determinant():
    rng = random.Random(32)
    for _ in range(50):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)]
        c0 = char_poly(mat).coeffs[0]
        assert abs(Fraction(c0)) == abs(fraction_det(mat))


def test_radius_family_values():
    r5 = spectral_radius(family_matrix(5), 1e-9)
    assert abs(r5.value - (3 + math.sqrt(5)) / 2) <= 1e-9
    r2 = spectral_radius(family_matrix(2), 1e-9)
    assert r2.lo <= 1 <= r2.hi
    assert r2.hi - r2.lo <= Fraction(1e-9)
    rneg = spectral_radius([[-1, 0], [0, -1]], 1e-9)
    assert rneg.lo <= 1 <= rneg.hi


def test_radius_certificate_brackets_exact_value():
    for d in range(1, 30):
        rad = spectral_radius(family_matrix(d), 1e-9)
        exact = radius_closed_form(d)
        assert (exact - rad.lo).sign() >= 0
        assert (exact - rad.hi).sign() <= 0
        assert rad.hi - rad.lo <= Fraction(1e-9)
        assert rad.lo <= Fraction(rad.value) <= rad.hi


def test_radius_zero_and_tolerance():
    r = spectral_radius([[0, 1], [0, 0]])
    assert (r.lo, r.hi, r.value) == (0, 0, 0.0)
    with pytest.raises(LatticeInputError):
        spectral_radius([[1]], tolerance=0.0)


def test_radius_budget_exhaustion():
    with pytest.raises(CertificationError):
        spectral_radius(family_matrix(9), tolerance=1e-12, max_steps=1)


def test_radius_of_isometries_at_least_one():
    from mukai_entropy.isometries import (
        compose,
        spherical_twist_action,
        tensor_line_bundle_action,
    )

    rng = random.Random(33)
    for _ in range(6):
        model = random_k3_model(rng, rng.randint(1, 3))
        action = compose(
            spherical_twist_action(model, random_spherical(rng, model)),
            tensor_line_bundle_action(
                model, tuple(rng.randint(-2, 2) for _ in range(model.picard_rank))
            ),
        )
        rad = spectral_radius(action.matrix, 1e-6)
        assert rad.hi >= 1


def test_higher_rank_action_radius_equals_restricted_radius():
    # the twist-tensor action fixes the polarization complement pointwise, so
    # its characteristic polynomial is the rank-3 one times (x - 1)^(rho - 1)
    # and the spectral radius agrees with the restricted matrix
    from mukai_entropy.isometries import (
        polarized_sublattice_basis,
        restrict_to_sublattice,
        twist_tensor_action,
    )
    from mukai_entropy.lattice import K3LatticeModel

    for gram in (((4, 0), (0, -4)), ((10, 1), (1, -2)),
                 ((6, 0, 1), (0, -2, 0), (1, 0, -4))):
        model = K3LatticeModel(len(gram), gram)
        phi = twist_tensor_action(model)
        full = list(char_poly(phi.matrix).coeffs)
        small = list(char_poly(restrict_to_sublattice(
            phi, polarized_sublattice_basis(model))).coeffs)
        for _ in range(model.picard_rank - 1):
            small = poly_mul(small, [-1, 1])
        assert small == full
        rad_full = spectral_radius(phi.matrix, 1e-9)
        d = model.ns_gram[0][0] // 2
        exact = radius_closed_form(d)
        assert (exact - rad_full.lo).sign() >= 0
        assert (exact - rad_full.hi).sign() <= 0


def test_closed_form_values():
    assert radius_closed_form(1) == QuadraticSurd.from_rational(1)
    assert radius_closed_form(4) == QuadraticSurd.from_rational(1)
    assert radius_closed_form(5) == QuadraticSurd(Fraction(3, 2), Fraction(1, 2), 5)
    assert radius_closed_form(8) == QuadraticSurd(Fraction(3), Fraction(2), 2)
    with pytest.raises(LatticeInputError):
        radius_closed_form(0)
    with pytest.raises(LatticeInputError):
        radius_closed_form(-3)


def test_surd_canonicalization_and_sign():
    s = QuadraticSurd(Fraction(0), Fraction(1), 18)
    assert (s.a, s.b, s.root) == (Fraction(0), Fraction(3), 2)
    assert QuadraticSurd(Fraction(2), Fraction(5), 4) == \
        QuadraticSurd.from_rational(12)
    assert QuadraticSurd(Fraction(-3), Fraction(1), 8).sign() < 0  # 2.83 - 3
    assert QuadraticSurd(Fraction(-2), Fraction(1), 8).sign() > 0
    assert QuadraticSurd(Fraction(-2), Fraction(1), 4).sign() == 0
    assert QuadraticSurd(Fraction(1), Fraction(1), 2) > 2
    assert QuadraticSurd(Fraction(1), Fraction(1), 2) < Fraction(5, 2)
    with pytest.raises(LatticeInputError):
        QuadraticSurd(Fraction(0), Fraction(1), -2)
    assert radius_closed_form(4).is_rational()
    assert not radius_closed_form(5).is_rational()
    assert QuadraticSurd(Fraction(1), Fraction(2), 4).is_rational()  # 1 + 2*2


@pytest.mark.parametrize("root", [2.5, "8", True, float("nan")],
                         ids=["float", "str", "bool", "nan"])
def test_surd_root_must_be_a_non_negative_int(root):
    # int() used to turn 2.5 into sqrt(2) and '8' into 2*sqrt(2)
    with pytest.raises(LatticeInputError,
                       match="surd root must be a non-negative integer"):
        QuadraticSurd(0, 1, root)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _is_squarefree(n: int) -> bool:
    return all(n % (k * k) for k in range(2, math.isqrt(n) + 1))


SQUARE_PART_INPUTS = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(0, 10 ** 15),
    # a prime square past the cube root times a small squarefree cofactor:
    # the case the last isqrt of the one pass settles
    st.builds(lambda p, c: p * p * c,
              st.integers(1000, 10 ** 6).map(_next_prime),
              st.integers(1, 999).filter(_is_squarefree)),
    st.integers(2, 10 ** 6).map(_next_prime).map(lambda p: p * p),
    st.integers(0, 10 ** 7).map(lambda k: k * k),
    st.integers(5, 10 ** 4).map(lambda d: d * d - 4 * d),
)


@settings(max_examples=300, deadline=None)
@given(n=SQUARE_PART_INPUTS)
def test_square_part_matches_the_two_scan_oracle(n):
    assert spectral._square_part(n) == oracle_square_part(n)


def test_square_part_brute_force_below_ten_to_the_five():
    limit = 10 ** 5
    squarefree = [n > 0 for n in range(limit)]
    for k in range(2, math.isqrt(limit - 1) + 1):
        for m in range(k * k, limit, k * k):
            squarefree[m] = False
    for n in range(limit):
        f, rest = spectral._square_part(n)
        assert f * f * rest == n and squarefree[rest], n


def _next_cousin(n: int) -> int:
    """The least d >= n with d and d - 4 both prime."""
    while not (_is_prime(n) and _is_prime(n - 4)):
        n += 1
    return n


_TWIN_LOWER = [p for p in range(3, 1000) if _is_prime(p) and _is_prime(p + 2)]

# d <= 10^6 keeps the two-scan oracle on d^2 - 4d fast
CLOSED_FORM_DEGREES = st.one_of(
    st.integers(5, 10 ** 6),
    # every residue mod 16, so every split of the factors of 2 of d, d - 4
    st.builds(lambda q, r: 16 * q + r,
              st.integers(1, 62_499), st.integers(0, 15)),
    st.sampled_from([*(2 ** k for k in range(3, 20)),
                     *(2 ** k + 4 for k in range(20))]),
    # d = p^2, d - 4 = (p - 2)(p + 2) with p and p + 2 prime
    st.sampled_from([p * p for p in _TWIN_LOWER]),
    st.integers(11, 10 ** 6 - 5000).map(_next_cousin),
)


@settings(max_examples=150, deadline=None)
@given(d=CLOSED_FORM_DEGREES)
def test_closed_form_parts_match_the_two_scan_oracle(d):
    assert spectral._closed_form_parts(d) == oracle_square_part(d * d - 4 * d)


@settings(max_examples=150, deadline=None)
@given(d=CLOSED_FORM_DEGREES)
def test_closed_form_matches_the_public_constructor(d):
    # the private canonical path against QuadraticSurd's own canonical form
    exact = radius_closed_form(d)
    public = QuadraticSurd(Fraction(d - 2, 2), Fraction(1, 2), d * d - 4 * d)
    assert (repr(exact), str(exact)) == (repr(public), str(public))
    assert all(type(x) is Fraction for x in (exact.a, exact.b))
    assert type(exact.root) is int and exact.root > 1


@settings(max_examples=200, deadline=None)
@given(a=st.one_of(st.integers(-50, 50), st.fractions(max_denominator=20)),
       b=st.one_of(st.integers(-50, 50), st.fractions(max_denominator=20)),
       root=st.integers(0, 10 ** 9))
def test_surd_parts_match_the_oracle_constructor(a, b, root):
    s = QuadraticSurd(a, b, root)
    assert (s.a, s.b, s.root) == oracle_surd_parts(a, b, root)
    assert all(type(x) is Fraction for x in (s.a, s.b))


RATIONALS = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=20))


@st.composite
def _surd_operands(draw):
    """A canonical surd over a root in 0..300 and a second operand, a surd
    over the same root or an int or Fraction, in either order."""
    surds = st.builds(QuadraticSurd, RATIONALS, RATIONALS,
                      st.just(draw(st.integers(0, 300))))
    x, y = draw(surds), draw(st.one_of(surds, RATIONALS))
    return (x, y) if draw(st.booleans()) else (y, x)


def _surd_fields(x):
    if isinstance(x, QuadraticSurd):
        return x.a, x.b, x.root
    return Fraction(x), Fraction(0), 0


@settings(max_examples=300, deadline=None)
@given(operands=_surd_operands())
def test_surd_arithmetic_and_order_match_field_wise_oracles(operands):
    # + and - work field by field over the one root; each result must be
    # the canonical form of that, and each comparison and sign() must agree
    # with an exact integer sign
    x, y = operands
    (ax, bx, rx), (ay, by, ry) = _surd_fields(x), _surd_fields(y)
    root = rx or ry
    results = [(x + y, ax + ay, bx + by), (x - y, ax - ay, bx - by)]
    for z in (x, y):
        if isinstance(z, QuadraticSurd):
            results.append((-z, -z.a, -z.b))
    for value, a, b in results:
        assert type(value) is QuadraticSurd
        assert (value.a, value.b, value.root) == oracle_surd_parts(a, b, root)
        assert all(type(f) is Fraction for f in (value.a, value.b))
        assert value.sign() == oracle_surd_sign(a, b, root)
    diff = oracle_surd_sign(ax - ay, bx - by, root)
    assert (x < y, x <= y, x > y, x >= y) == (
        diff < 0, diff <= 0, diff > 0, diff >= 0)


def test_surd_arithmetic_on_a_large_root_runs_no_trial_division(monkeypatch):
    # at d = 10^12 + 39 one trial-division pass over the root 1.1 * 10^23
    # takes seconds; arithmetic and comparisons over a canonical root take
    # none
    d = 10 ** 12 + 39
    r = radius_closed_form(d)
    root = 111111111119333333333485
    assert (r.a, r.b, r.root) == (Fraction(d - 2, 2), Fraction(3, 2), root)
    assert 9 * root == d * d - 4 * d

    def refuse(n):
        raise AssertionError(f"_square_part({n}) on a canonical surd")

    monkeypatch.setattr(spectral, "_square_part", refuse)
    assert r < d + 2 and not r >= d + 2
    assert (r - r).sign() == 0
    for value, fields in (
        (-r, (Fraction(2 - d, 2), Fraction(-3, 2), root)),
        (r + 1, (Fraction(d, 2), Fraction(3, 2), root)),
        (r - r, (Fraction(0), Fraction(0), 0)),
        (2 - r, (Fraction(6 - d, 2), Fraction(-3, 2), root)),
    ):
        assert (value.a, value.b, value.root) == fields


def test_surd_arithmetic_mixed_roots():
    a = QuadraticSurd(Fraction(1), Fraction(1), 2)
    b = QuadraticSurd(Fraction(2), Fraction(-1), 2)
    assert (a + b) == QuadraticSurd.from_rational(3) + QuadraticSurd(
        Fraction(0), Fraction(0), 0
    )
    with pytest.raises(LatticeInputError):
        a + QuadraticSurd(Fraction(0), Fraction(1), 3)
    # rational surds combine with anything
    assert (QuadraticSurd.from_rational(2) + a).root == 2


def test_surd_float():
    assert abs(float(radius_closed_form(5)) - (3 + math.sqrt(5)) / 2) < 1e-15
    assert float(radius_closed_form(3)) == 1.0


def test_radius_nontrivial_general_matrix():
    # companion-style matrix with known dominant root 3 (roots 3, -1, 1)
    mat = [[3, 0, 0], [0, 0, 1], [0, 1, 0]]
    rad = spectral_radius(mat, 1e-10)
    assert rad.lo <= 3 <= rad.hi
    assert rad.hi - rad.lo <= Fraction(1e-10)


def test_radius_complex_dominant_pair():
    # rotation by 90 degrees scaled by 2: eigenvalues +-2i
    rad = spectral_radius([[0, -2], [2, 0]], 1e-9)
    assert rad.lo <= 2 <= rad.hi


def test_radius_brackets_irrational_surds_exactly():
    # companion of (x^2 - 2)(x^2 - 3) = x^4 - 5x^2 + 6: radius sqrt(3)
    companion = [[0, 0, 0, -6], [1, 0, 0, 0], [0, 1, 0, 5], [0, 0, 1, 0]]
    rad = spectral_radius(companion, 1e-10)
    sqrt3 = QuadraticSurd(Fraction(0), Fraction(1), 3)
    assert (sqrt3 - rad.lo).sign() >= 0
    assert (sqrt3 - rad.hi).sign() <= 0
    # complex pair 1 +- i sqrt(2) of modulus sqrt(3)
    rad2 = spectral_radius([[1, -2], [1, 1]], 1e-10)
    assert (sqrt3 - rad2.lo).sign() >= 0
    assert (sqrt3 - rad2.hi).sign() <= 0


def test_radius_one_by_one_and_zero():
    rad = spectral_radius([[-7]], 1e-9)
    assert rad.lo <= 7 <= rad.hi and abs(rad.value - 7.0) <= 1e-9
    rad0 = spectral_radius([[0]], 1e-9)
    assert (rad0.lo, rad0.hi, rad0.value) == (0, 0, 0.0)


def test_root_product_polynomial_known_case():
    # diag(2, 3): pairwise products {4, 6, 6, 9}, so the resultant oracle's
    # product polynomial is (t-4)(t-6)^2(t-9) = t^4 - 25t^3 + 228t^2 - 900t + 1296
    p = list(char_poly([[2, 0], [0, 3]]).coeffs)
    assert oracle_root_product_poly(p) == [1296, -900, 228, -25, 1]


def test_pairwise_product_polynomial_known_case():
    # products mu_a mu_b with a <= b of the roots 2, 3 are 4, 6, 9:
    # s0 = (t-4)(t-6)(t-9) = t^3 - 19t^2 + 114t - 216
    from mukai_entropy.spectral import (
        _pairwise_product_poly,
        _squarefree_part,
        _sturm_chain,
    )

    p = list(char_poly([[2, 0], [0, 3]]).coeffs)
    prod = _pairwise_product_poly(_squarefree_part(_sturm_chain(p)))
    assert prod == [-216, 114, -19, 1]
    assert _squarefree_part(_sturm_chain(prod)) == prod


def test_pairwise_product_polynomial_refuses_bad_input():
    from mukai_entropy.spectral import _pairwise_product_poly

    for q in ([6, -5, 2], [6, -5, -1], [0, -2, 1], [3]):
        with pytest.raises(ValueError):
            _pairwise_product_poly(q)


def _radius_polys(p):
    """s0 and its Sturm chain from the package and from the resultant oracle,
    for a zero-stripped characteristic polynomial p."""
    from mukai_entropy.spectral import (
        _pairwise_product_poly,
        _squarefree_part,
        _sturm_chain,
    )

    s0 = _squarefree_part(_sturm_chain(
        _pairwise_product_poly(_squarefree_part(_sturm_chain(p)))))
    oracle_s0 = oracle_squarefree_part(oracle_root_product_poly(p))
    return (s0, _sturm_chain(s0)), (oracle_s0, oracle_sturm_chain(oracle_s0))


def _stripped_char_poly(matrix):
    coeffs = list(char_poly(matrix).coeffs)
    while coeffs[0] == 0:
        coeffs.pop(0)
    return coeffs


@st.composite
def _integer_matrices(draw):
    """Square integer matrices of rank 1-6. Shapes beyond the plain random
    one force repeated roots (a doubled block), zero roots (a zero row) or
    both (triangular with a diagonal drawn from {-2, 0, 2})."""
    shape = draw(st.sampled_from(("plain", "doubled", "zero_row", "triangular")))
    n = draw(st.integers(1, 3 if shape == "doubled" else 6))
    entries = st.integers(-4, 4)
    mat = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if shape == "doubled":
        mat = [row + [0] * n for row in mat] + [[0] * n + row for row in mat]
    elif shape == "zero_row":
        mat[draw(st.integers(0, n - 1))] = [0] * n
    elif shape == "triangular":
        for i in range(n):
            mat[i][i] = draw(st.sampled_from((-2, 0, 2)))
            mat[i][:i] = [0] * i
    return mat


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from((0, 0, 0, -1, 1, -2, 2, 3)), min_size=1,
             max_size=9),
    st.sampled_from((-2, -1, 1, 3)),
)
def test_sturm_chain_and_squarefree_part_match_rational_euclid(low, lead):
    # sparse coefficients give remainders that drop several degrees at once,
    # and negative leading coefficients, which is where pseudo-division
    # must correct the sign of the remainder
    from mukai_entropy.spectral import _squarefree_part, _sturm_chain

    p = low + [lead]
    assert _sturm_chain(p) == oracle_sturm_chain(p)
    assert _squarefree_part(_sturm_chain(p)) == oracle_squarefree_part(p)


@settings(max_examples=80, deadline=None)
@given(_integer_matrices())
def test_radius_polynomials_match_resultant_oracle(mat):
    p = _stripped_char_poly(mat)
    if len(p) > 1:
        new, oracle = _radius_polys(p)
        assert new == oracle


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_twist_word_radius_polynomials_match_resultant_oracle(rho, length, seed):
    # Mukai rank rho + 2 = 3..8
    from mukai_entropy.isometries import compose, spherical_twist_action

    rng = random.Random(seed)
    model = random_k3_model(rng, rho, entry_bound=6)
    action = spherical_twist_action(model, random_spherical(rng, model, 1))
    for _ in range(length - 1):
        action = compose(
            action, spherical_twist_action(model, random_spherical(rng, model, 1))
        )
    new, oracle = _radius_polys(_stripped_char_poly(action.matrix))
    assert new == oracle


def _assert_sturm_counts_match_sympy(p, points):
    """Between any two non-roots u < w of p, the variations of the Sturm chain
    of p drop by the number of distinct real roots in (u, w), as sympy's
    Poly.count_roots finds them; the Cauchy-type bounds +-(2 + max |c|) are
    among the points, so the total count is checked too."""
    import sympy

    def rational(u):
        return sympy.Rational(u.numerator, u.denominator)

    poly = sympy.Poly(p[::-1], sympy.Symbol("x"))
    bound = 2 + max(abs(c) for c in p)
    chain = spectral._sturm_chain(p)
    pts = sorted({Fraction(u) for u in (*points, -bound, bound)
                  if poly.eval(rational(u))})
    for u, w in zip(pts, pts[1:]):
        drop = (spectral._variations(chain, *u.as_integer_ratio())
                - spectral._variations(chain, *w.as_integer_ratio()))
        assert drop == poly.count_roots(rational(u), rational(w)), (p, u, w)


_count_points = st.lists(
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), min_size=1,
             max_size=2),
    st.integers(2, 4),
    st.integers(0, 3),
    st.lists(st.integers(-6, 6), max_size=4),
    st.sampled_from((-3, -1, 1, 2)),
    _count_points,
)
def test_sturm_chain_counts_distinct_roots_of_repeated_factors(
        roots, i, j, low, lead, points):
    # (c1 x - a1)^i (c2 x - a2)^j r(x): the chain ends in a non-constant
    # gcd(p, p'), and at non-roots it still counts each root once
    p = low + [lead]
    for (a, c), mult in zip(roots + roots[:1], (i, j)):
        for _ in range(mult):
            p = poly_mul(p, [-a, c])
    assert len(spectral._sturm_chain(p)[-1]) > 1
    _assert_sturm_counts_match_sympy(p, points)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6),
       _count_points)
def test_sturm_chain_of_twist_word_product_poly_counts_like_sympy(
        rho, length, seed, points):
    # the pairwise-product polynomial P whose chain the certificate counts
    # with; its roots include 1 many times over
    from mukai_entropy.isometries import compose, spherical_twist_action
    from mukai_entropy.spectral import (
        _pairwise_product_poly,
        _squarefree_part,
        _sturm_chain,
    )

    rng = random.Random(seed)
    model = random_k3_model(rng, rho, entry_bound=6)
    action = spherical_twist_action(model, random_spherical(rng, model, 1))
    for _ in range(length - 1):
        action = compose(
            action, spherical_twist_action(model, random_spherical(rng, model, 1))
        )
    q = _squarefree_part(_sturm_chain(_stripped_char_poly(action.matrix)))
    _assert_sturm_counts_match_sympy(_pairwise_product_poly(q), points)


def _pinned_cases():
    from mukai_entropy.isometries import (
        compose,
        spherical_twist_action,
        twist_tensor_action,
    )
    from mukai_entropy.lattice import K3LatticeModel, MukaiVector

    def word(model, classes):
        actions = [spherical_twist_action(model, MukaiVector.from_coords(c))
                   for c in classes]
        acc = actions[0]
        for a in actions[1:]:
            acc = compose(acc, a)
        return acc.matrix

    # phi_H at d = 100 on a rank-8 Mukai lattice
    gram8 = tuple(
        tuple((200 if i == 0 else -2) if i == j else 0 for j in range(6))
        for i in range(6)
    )
    # a rho-4 model (Mukai rank 6) and 12 spherical classes of it
    gram6 = ((-2, 0, 0, -1), (0, 2, -3, 0), (0, -3, -4, -3), (-1, 0, -3, -6))
    m6 = K3LatticeModel(4, gram6)
    classes = [
        (1, 1, 0, 0, 0, 0), (-1, 0, 1, 0, -1, 1), (1, 1, 0, 1, -1, -1),
        (-1, -1, -1, 0, 1, 1), (-1, 1, -1, 0, -1, 1), (1, -1, 0, -1, 1, -1),
        (-1, 1, 1, -1, 1, -1), (1, 1, 1, -1, 1, 1), (1, 0, -1, 0, -1, -1),
        (1, 1, 1, 0, 0, 1), (1, 1, -1, 0, -1, -1), (0, 1, 0, 0, 0, -1),
    ]
    return {
        "phi_H_d100_rank8": twist_tensor_action(K3LatticeModel(6, gram8)).matrix,
        "word_12_twists_rank6": word(m6, classes),
        # the first and last classes pair to -1: the word has order 3
        "radius_one_word": word(m6, [classes[0], classes[-1]]),
        "complex_pair": ((1, -2), (1, 1)),
        "random_5x5": (
            (1, -5, 3, -8, -7), (8, -6, 2, 9, -8), (7, -3, -8, -7, 4),
            (4, -7, -2, -7, 8), (4, -8, 9, -6, -2),
        ),
    }


PINNED_BRACKETS = {
    "phi_H_d100_rank8": (
        "210431482123/2147483648", "210431482125/2147483648",
        "97.98979485593736"),
    "word_12_twists_rank6": (
        "6601062216582457/8589934592", "103141597134101/134217728",
        "768464.7823430668"),
    "radius_one_word": (
        "4294967295/4294967296", "8589934595/8589934592",
        "1.0000000000582077"),
    "complex_pair": (
        "1859775393/1073741824", "929887697/536870912",
        "1.7320508076809347"),
    "random_5x5": (
        "135311975361/8589934592", "67655987683/4294967296",
        "15.752387158980127"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BRACKETS))
def test_radius_brackets_are_pinned(name):
    # recorded from the resultant-based certificate; the bisection must
    # take the same decisions, so the brackets agree byte for byte
    rad = spectral_radius(_pinned_cases()[name])
    assert (str(rad.lo), str(rad.hi), repr(rad.value)) == PINNED_BRACKETS[name]


def test_radius_without_float_seed(monkeypatch):
    # the certificate must not depend on the float estimate being available
    import numpy as np

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "eigvals", boom)
    rad = spectral_radius(family_matrix(5), 1e-9)
    exact = radius_closed_form(5)
    assert (exact - rad.lo).sign() >= 0
    assert (exact - rad.hi).sign() <= 0
    assert rad.hi - rad.lo <= Fraction(1e-9)


def test_radius_is_deterministic():
    mat = ((-9, 18, -1), (-1, 1, 0), (-1, 0, 0))
    first = spectral_radius(mat, 1e-9)
    second = spectral_radius(mat, 1e-9)
    assert (first.lo, first.hi, first.value) == \
        (second.lo, second.hi, second.value)


def test_radius_random_matrices_consistent_with_float_spectra():
    import numpy as np

    rng = random.Random(34)
    for _ in range(15):
        n = rng.randint(2, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        rad = spectral_radius(mat, 1e-9)
        assert rad.hi - rad.lo <= Fraction(1e-9)
        assert rad.lo <= Fraction(rad.value) <= rad.hi
        est = float(max(abs(np.linalg.eigvals(np.array(mat, dtype=float)))))
        # float spectra are only a sanity probe; certified bounds rule
        assert float(rad.hi) >= est - 1e-4
        assert float(rad.lo) <= est + 1e-4


def test_charpoly_json():
    cp = char_poly(family_matrix(3))
    assert charpoly_to_dict(cp) == {"coeffs": [1, 2, 2, 1]}
    assert charpoly_from_dict({"coeffs": [1, 2, 2, 1]}) == cp
    with pytest.raises(LatticeInputError):
        charpoly_from_dict({})
    with pytest.raises(LatticeInputError):
        CharPoly((2,))


def test_radius_json_and_matrix_reader():
    rad = spectral_radius(family_matrix(2), 1e-9)
    data = radius_to_dict(rad)
    assert set(data) == {"value", "lo", "hi"}
    assert Fraction(data["lo"]) == rad.lo
    assert matrix_from_obj({"matrix": [[1, 0], [0, 1]]}) == [[1, 0], [0, 1]]
    assert matrix_from_obj([[2]]) == [[2]]
    with pytest.raises(LatticeInputError):
        matrix_from_obj({"rows": []})


def test_certified_radius_invariants():
    with pytest.raises(CertificationError):
        CertifiedRadius(1.0, Fraction(2), Fraction(1), 1e-9)
    with pytest.raises(CertificationError):
        CertifiedRadius(1.0, Fraction(1), Fraction(2), 1e-9)


def test_radius_past_float_range_is_an_input_error():
    # [[10^307]] still has a float value; past the float range the exact
    # bracket exists but no float does, so the call refuses the input
    near = spectral_radius([[10 ** 307]])
    assert near.lo <= 10 ** 307 <= near.hi and near.value == 1e307
    with pytest.raises(LatticeInputError, match="float range"):
        spectral_radius([[10 ** 400]])
    with pytest.raises(LatticeInputError, match="float range"):
        spectral_radius([[0, 10 ** 400], [10 ** 400, 0]])
    # every entry is a float, but the float estimate of the radius is inf,
    # so the exact path runs unseeded and refuses the input
    big = 10 ** 308
    with pytest.raises(LatticeInputError, match="float range"):
        spectral_radius([[big, big], [big, big]])
    # the oracle skips the infinite estimate too and stops where the package
    # refuses the input: at the float value of the bracket's midpoint
    with pytest.raises(OverflowError):
        oracle_spectral_radius([[big, big], [big, big]])


# --- the radius hot path against the parent routines --------------------------

def _draw_shear(draw, mat, coeffs):
    """mat conjugated by the unimodular shear I + c e_ij, with i, j and c
    drawn (c from coeffs); unchanged when i == j."""
    n = len(mat)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    c = draw(st.sampled_from(coeffs))
    if i == j:
        return mat
    shear = [[int(r == s) for s in range(n)] for r in range(n)]
    back = [list(row) for row in shear]
    shear[i][j], back[i][j] = c, -c
    return oracle_mat_mul(oracle_mat_mul(shear, mat), back)


@st.composite
def _char_poly_matrices(draw):
    """Square integer matrices of rank 1-22: plain, singular (a repeated
    row), nilpotent (strictly upper triangular, then sheared off the
    triangle by a unimodular conjugation) or zero."""
    shape = draw(st.sampled_from(("plain", "singular", "nilpotent", "zero")))
    n = draw(st.integers(1, 22))
    entries = st.integers(-3, 3)
    mat = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if shape == "singular" and n > 1:
        mat[draw(st.integers(1, n - 1))] = list(mat[0])
    elif shape == "nilpotent":
        mat = [[x if j > i else 0 for j, x in enumerate(row)]
               for i, row in enumerate(mat)]
        if n > 1:
            mat = _draw_shear(draw, mat, (-1, 1))
    elif shape == "zero":
        mat = [[0] * n for _ in range(n)]
    return mat


@settings(max_examples=60, deadline=None)
@given(_char_poly_matrices())
def test_char_poly_matches_faddeev_leverrier(mat):
    assert list(char_poly(mat).coeffs) == oracle_char_poly(mat)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 10 ** 6))
def test_mat_mul_and_mat_vec_match_index_loops(n, k, m, seed):
    rng = random.Random(seed)
    big = rng.choice((3, 10 ** 30))
    a = [[rng.randint(-big, big) for _ in range(k)] for _ in range(n)]
    b = [[rng.randint(-big, big) for _ in range(m)] for _ in range(k)]
    v = [rng.randint(-big, big) for _ in range(k)]
    assert _linalg.mat_mul(a, b) == oracle_mat_mul(a, b)
    assert _linalg.mat_vec(a, v) == oracle_mat_vec(a, v)


@st.composite
def _sign_points(draw):
    """(poly, u, w) for the float filter of _sign_at: degree 0-25 and
    coefficients of 1-1100 bits; the point is anywhere from 2^-1100 to
    2^1100 in size, 0, an exact rational root planted in the polynomial, or
    (u 2^k +- 1) / (w 2^k) just off such a root; or the zero polynomial."""
    kind = draw(st.sampled_from(("any", "zero", "root", "near", "zero_poly")))
    bits = draw(st.integers(1, 1100))
    deg = draw(st.integers(0, 24 if kind in ("root", "near") else 25))
    poly = draw(st.lists(st.integers(-(1 << bits), 1 << bits),
                         min_size=deg + 1, max_size=deg + 1))
    if kind in ("root", "near"):
        u = draw(st.integers(-(1 << 300), 1 << 300))
        w = draw(st.integers(1, 1 << 300))
        # poly * (w x - u) vanishes at u / w
        poly = [w * a - u * b for a, b in zip([0] + poly, poly + [0])]
        if kind == "near":
            k = draw(st.integers(0, 300))
            u, w = (u << k) + draw(st.sampled_from((-1, 1))), w << k
    elif kind == "zero":
        u, w = 0, draw(st.integers(1, 1 << 1100))
    else:
        u = draw(st.integers(-(1 << 60), 1 << 60))
        w = draw(st.integers(1, 1 << 60))
        e = draw(st.integers(-1100, 1100))
        u, w = (u << e, w) if e >= 0 else (u, w << -e)
        if kind == "zero_poly":
            poly = [0] * (deg + 1)
    return poly, u, w


@settings(max_examples=400, deadline=None)
@given(_sign_points())
def test_sign_filter_matches_exact_sign(case):
    poly, u, w = case
    assert spectral._sign_at(poly, u, w) == _oracle_sign_at(poly, Fraction(u, w))


def _no_eigvals(*args, **kwargs):
    import numpy as np

    raise np.linalg.LinAlgError("forced")


def _radius_and_oracle(mat, tol, seeded):
    """(lo, hi, repr(value)) from the package and from the parent routines,
    with numpy's eigvals seed or without it."""
    import numpy as np

    with pytest.MonkeyPatch.context() as mp:
        if not seeded:
            mp.setattr(np.linalg, "eigvals", _no_eigvals)
        rad = spectral_radius(mat, tol)
        lo, hi, value = oracle_spectral_radius(mat, tol)
    return (rad.lo, rad.hi, repr(rad.value)), (lo, hi, repr(value))


_TOLS = st.sampled_from((1e-3, 1e-9, 1e-12))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6),
       st.booleans(), _TOLS)
def test_twist_word_radius_matches_parent_bisection(rho, length, seed,
                                                    seeded, tol):
    # Mukai rank rho + 2 = 3..8
    from mukai_entropy.isometries import compose, spherical_twist_action

    rng = random.Random(seed)
    model = random_k3_model(rng, rho, entry_bound=6)
    action = spherical_twist_action(model, random_spherical(rng, model, 1))
    for _ in range(length - 1):
        action = compose(
            action, spherical_twist_action(model, random_spherical(rng, model, 1))
        )
    new, oracle = _radius_and_oracle(action.matrix, tol, seeded)
    assert new == oracle


@settings(max_examples=80, deadline=None)
@given(_integer_matrices(), st.booleans(), _TOLS)
def test_random_matrix_radius_matches_parent_bisection(mat, seeded, tol):
    new, oracle = _radius_and_oracle(mat, tol, seeded)
    assert new == oracle


@pytest.mark.parametrize("mat, seeded", [
    # the adopted bracket holds 3 roots of s0, so Sturm counts decide first
    ([[2000, 0], [0, 1999]], True),
    ([[2000, 0], [0, 1999]], False),
    # without the seed a midpoint hits the root 4 of s0 exactly
    ([[2, 0, 0], [0, 2, 0], [0, 0, 1]], False),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 1]], True),
    ([[4]], True),
    ([[4]], False),
    ([[1, 1], [0, 1]], True),
    ([[1, 1], [0, 1]], False),
    # without the seed a midpoint hits a pairwise product: 6 of the 968
    # diagonal matrices of size 1-3 with entries +-1..8 do
    *[([[x if i == j else 0 for j in range(len(diag))]
        for i, x in enumerate(diag)], seeded)
      for diag in ((1, 2), (-2, -1), (1, 1, 2), (1, 2, 2), (-2, -2, -1),
                   (-2, -1, -1))
      for seeded in (True, False)],
    # finite estimates, but the coefficients of s0 and the bisection points
    # run past the float range, so their signs take the exact route
    *[(mat, seeded)
      for mat in ([[10 ** 150, 1], [0, 3]],
                  [[10 ** 150, 10 ** 150], [-10 ** 150, 2 * 10 ** 150 + 7]])
      for seeded in (True, False)],
    # nothing to strip, and the cap bound * q of the seed binds; something
    # stripped at a small and a large radius; only cyclotomic factors; and
    # a repeated root 3 whose numpy estimate lies past the seed bracket, so
    # the checks on the residual fail and the route on sq runs
    *[(mat, seeded)
      for mat in ([[40]], [[-40]], [[2, 0], [0, 40]], [[40, 0], [0, 1]],
                  [[3, 0, 0], [0, 0, -1], [0, 1, 0]],
                  [[0, 0, 0, -1, 0], [1, 0, 0, -1, 0], [0, 1, 0, -1, 0],
                   [0, 0, 1, -1, 0], [0, 0, 0, 0, 10 ** 6]],
                  [[1, 0, 0], [0, 0, -1], [0, 1, -1]],
                  # companion of (x - 3)^5 (x + 1)
                  [[0, 0, 0, 0, 0, 243], [1, 0, 0, 0, 0, -162],
                   [0, 1, 0, 0, 0, -135], [0, 0, 1, 0, 0, 180],
                   [0, 0, 0, 1, 0, -75], [0, 0, 0, 0, 1, 14]])
      for seeded in (True, False)],
])
def test_radius_edge_cases_match_parent_bisection(mat, seeded):
    for tol in (1e-3, 1e-9, 1e-12):
        new, oracle = _radius_and_oracle(mat, tol, seeded)
        assert new == oracle
        if mat == [[2, 0, 0], [0, 2, 0], [0, 0, 1]] and not seeded:
            assert new[0] == 2


def test_isolated_bracket_needs_no_sturm_counts_per_step(monkeypatch):
    # once the adopted bracket isolates the top root, a bisection step is
    # one sign evaluation: the Sturm counts do not grow with the steps. The
    # count at the first hi is read off the leading coefficients, and an
    # adopted seed proves a root above 0, so a certificate makes two: at the
    # two ends of the seed
    calls = []
    real = spectral._variations

    def counting(chain, *point):
        calls.append(point)
        return real(chain, *point)

    monkeypatch.setattr(spectral, "_variations", counting)
    for mat in (family_matrix(5), _pinned_cases()["word_12_twists_rank6"],
                _pinned_cases()["phi_H_d100_rank8"]):
        counts = []
        for tol in (1e-6, 1e-12):
            calls.clear()
            spectral_radius(mat, tol)
            counts.append(len(calls))
        assert counts == [2, 2]


def test_radius_certificate_builds_two_sturm_chains(monkeypatch):
    # one for the stripped char poly, one for the pairwise-product
    # polynomial (of the residual, or of sq), whose chain also gives s0 and
    # every root count; family_matrix(1) has only cyclotomic factors
    calls = []
    real = spectral._sturm_chain

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(spectral, "_sturm_chain", counting)
    for mat in (family_matrix(1), family_matrix(5), [[-7]],
                [[2, 0], [0, 3]], _pinned_cases()["word_12_twists_rank6"],
                _pinned_cases()["phi_H_d100_rank8"]):
        calls.clear()
        spectral_radius(mat, 1e-9)
        assert len(calls) == 2
    calls.clear()
    spectral_radius([[0, 1], [0, 0]])  # stripped char poly is constant
    assert calls == []
    # numpy's estimate of the repeated root 3 misses the seed bracket, so
    # the residual's chain fails the seed checks and sq's chain follows
    spectral_radius(_companion([-243, 162, 135, -180, 75, -14, 1]))
    assert len(calls) == 3


def test_char_poly_makes_no_matrix_product(monkeypatch):
    # the power sums come from packed Krylov steps, not from powers of A
    def refuse(a, b):
        raise AssertionError("char_poly multiplied two matrices")

    monkeypatch.setattr(_linalg, "mat_mul", refuse)
    rng = random.Random(8)
    for n in range(1, 23):
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert list(char_poly(mat).coeffs) == oracle_char_poly(mat)


def _binomial_power(m: int, n: int) -> list[int]:
    """Ascending coefficients of (x - m)^n."""
    return [math.comb(n, k) * (-m) ** (n - k) for k in range(n + 1)]


def _slot_filling_matrix(kind: str, n: int, m: int) -> list[list[int]]:
    """A matrix whose powers fill the packed slots: all m, all -m or the +-m
    checkerboard (each +-m u u^T with u of entries +-1, so |tr(A^k)| =
    (n m)^k = ||A||_inf^k), or the companion of (x - m)^n, whose last column
    holds binomial(n, k) m^(n-k)."""
    if kind == "companion":
        return _companion(_binomial_power(m, n))
    sign = {"plus": lambda i, j: 1, "minus": lambda i, j: -1,
            "checkerboard": lambda i, j: (-1) ** (i + j)}[kind]
    return [[sign(i, j) * m for j in range(n)] for i in range(n)]


_BIG = 10 ** 30


@st.composite
def _kernel_matrices(draw):
    n = draw(st.integers(0, 22))
    m = draw(st.integers(0, _BIG))
    kind = draw(st.sampled_from(
        ["random", "plus", "minus", "checkerboard", "companion"]))
    if kind == "random":
        entry = st.integers(-m, m)
        return [[draw(entry) for _ in range(n)] for _ in range(n)]
    return _slot_filling_matrix(kind, n, m)


@settings(max_examples=60, deadline=None)
@given(_kernel_matrices())
def test_char_poly_coeffs_match_faddeev_leverrier(mat):
    assert _linalg.char_poly_coeffs(mat) == oracle_char_poly(mat)


@pytest.mark.parametrize("kind", ["plus", "minus", "checkerboard", "companion"])
@pytest.mark.parametrize("n", [1, 2, 7, 22])
@pytest.mark.parametrize("m", [1, 3, 2 ** 64 - 1, _BIG])
def test_char_poly_of_slot_filling_matrices(kind, n, m):
    # the rank-one kinds have char poly x^(n-1) (x -+ n m), the companion
    # (x - m)^n; both are exact without any oracle
    mat = _slot_filling_matrix(kind, n, m)
    if kind == "companion":
        expected = _binomial_power(m, n)
    else:
        expected = [0] * (n - 1) + [(n * m if kind == "minus" else -n * m), 1]
    assert _linalg.char_poly_coeffs(mat) == expected


@pytest.mark.parametrize("rho", [12, 20])
def test_thirty_twist_words_match_faddeev_leverrier(rho):
    # Mukai ranks 14 and 22, consecutive classes pairing to non-zero so the
    # word does not collapse; the entries reach tens of bits
    from mukai_entropy.isometries import (
        compose,
        spherical_twist_action,
        twist_tensor_action,
    )
    from mukai_entropy.lattice import mukai_pairing

    rng = random.Random(rho)
    model = unimodular_k3_model(rng, rho, rng.randint(1, 3))
    word = [basis_spherical_class(rng, model)]
    while len(word) < 30:
        s = basis_spherical_class(rng, model)
        if mukai_pairing(model, s, word[-1]) != 0:
            word.append(s)
    action = twist_tensor_action(model)
    for s in word:
        action = compose(spherical_twist_action(model, s), action)
    assert max(abs(x) for row in action.matrix for x in row) > 2 ** 20
    assert list(char_poly(action.matrix).coeffs) == \
        oracle_char_poly(action.matrix)


# --- the cyclotomic strip and the residual route -----------------------------

def _sympy_cyclotomic(m: int) -> list[int]:
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(m, x), x)
    return [int(c) for c in poly.all_coeffs()[::-1]]


def _companion(p) -> list[list[int]]:
    """Companion matrix of a monic ascending integer polynomial."""
    n = len(p) - 1
    return [[(int(i == j + 1) if j < n - 1 else -p[i]) for j in range(n)]
            for i in range(n)]


def _block_diag(blocks) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


_SMALL_M = (1, 2, 3, 4, 5, 6, 8, 10, 12)  # phi(m) <= 4


@st.composite
def _cyclotomic_block_matrices(draw):
    """Block matrices around cyclotomic factors: companions of Phi_m or a
    cycle permutation alone; the same beside [[N]] with N small or large, or
    beside a random 1-4 square block, or beside the companion of
    (x - N)^k, whose repeated root throws numpy's estimate off the seed
    bracket; or no cyclotomic block at all. Then conjugated by a unimodular
    shear, so no block structure is left for numpy to read."""
    kind = draw(st.sampled_from(
        ("cyclotomic", "permutation", "mixed", "defective", "plain")))
    blocks = []
    if kind in ("cyclotomic", "mixed", "defective"):
        for m in draw(st.lists(st.sampled_from(_SMALL_M), min_size=1,
                               max_size=3 if kind == "cyclotomic" else 2)):
            blocks.append(_companion(_sympy_cyclotomic(m)))
    if kind == "permutation":
        k = draw(st.integers(1, 7))
        blocks.append([[int(j == (i + 1) % k) for j in range(k)]
                       for i in range(k)])
    big = st.sampled_from((-40, 2, 3, 40, 10 ** 3, 10 ** 6))
    if kind in ("mixed", "plain"):
        if draw(st.booleans()):
            blocks.append([[draw(big | st.integers(-9, 9))]])
        if not blocks or draw(st.booleans()):
            k = draw(st.integers(1, 4))
            blocks.append([[draw(st.integers(-4, 4)) for _ in range(k)]
                           for _ in range(k)])
    if kind == "defective":
        root, k = draw(st.sampled_from((-2, 2, 3, 5))), draw(st.integers(2, 6))
        p = [1]
        for _ in range(k):
            p = [0] + p
            p = [a - root * b for a, b in zip(p, p[1:] + [0])]
        blocks.append(_companion(p))
    return _draw_shear(draw, _block_diag(blocks), (-1, 1, 2))


def _pairwise_calls(mat, tol) -> list[list[int]]:
    """The polynomials spectral_radius builds a pairwise chain for."""
    calls = []
    real = spectral._pairwise_product_poly
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_pairwise_product_poly",
                   lambda q: calls.append(list(q)) or real(q))
        spectral_radius(mat, tol)
    return calls


@settings(max_examples=120, deadline=None)
@given(_cyclotomic_block_matrices(), st.booleans(), _TOLS)
def test_cyclotomic_block_radius_matches_parent_bisection(mat, seeded, tol):
    new, oracle = _radius_and_oracle(mat, tol, seeded)
    assert new == oracle


def _seed_of(est: float) -> tuple[int, int, int]:
    a, b = est.as_integer_ratio()
    return (999 * a) ** 2, (1001 * a) ** 2, (1000 * b) ** 2


def test_residual_guards_at_their_edges():
    guards = spectral._residual_guards
    # lo^2 >= hi q holds from est = 1001 / 999^2 * 1000 (about 1.003) on
    edge = 1001 * 1000 / 999 ** 2
    assert not guards(*_seed_of(1.0015), 3)
    assert not guards(*_seed_of(edge * (1 - 1e-12)), 3)
    assert guards(*_seed_of(edge * (1 + 1e-12)), 3)
    # hi - lo <= q holds up to est^2 = 250; past it the Landau branch needs
    # est^2 >= about 256.6 at n = 22, so (250, 256) falls back there
    assert guards(*_seed_of(math.sqrt(250 * (1 - 1e-12))), 22)
    for est2 in (250 * (1 + 1e-12), 252.0, 255.99):
        assert not guards(*_seed_of(math.sqrt(est2)), 22)
        assert guards(*_seed_of(math.sqrt(est2)), 21)
    assert guards(*_seed_of(math.sqrt(256.6)), 22)
    # the integer edges themselves: equality holds in every branch
    assert guards(110, 121, 100, 1) and not guards(110, 122, 100, 1)
    assert guards(200, 300, 100, 1) and not guards(200, 301, 100, 1)
    # lo^3 = 254 hi^2 q with n (n + 1) / 2 + 1 = 254 at n = 22
    assert guards(1016, 2032, 1, 22) and not guards(1015, 2032, 1, 22)


def test_residual_route_runs_on_the_residual():
    # family_matrix(5) has char poly (x + 1)(x^2 + 3x + 1): the pairwise
    # polynomial is built for x^2 + 3x + 1 alone
    assert _pairwise_calls(family_matrix(5), 1e-9) == [[1, 3, 1]]


def test_failed_guard_takes_the_route_on_sq(monkeypatch):
    # with the guards failing nothing is stripped, and the pairwise chain
    # is built once, on sq
    stripped = []
    monkeypatch.setattr(spectral, "_residual_guards", lambda *args: False)
    monkeypatch.setattr(spectral, "_strip_cyclotomic",
                        lambda p: stripped.append(p) or p)
    for mat in (family_matrix(5), _pinned_cases()["word_12_twists_rank6"]):
        new, oracle = _radius_and_oracle(mat, 1e-9, True)
        assert new == oracle
        sq = oracle_squarefree_part(_stripped_char_poly(mat))
        assert _pairwise_calls(mat, 1e-9) == [sq]
    assert stripped == []


def test_cyclotomic_table_matches_sympy():
    import sympy

    for n in range(23):
        # phi(m) >= sqrt(m / 2) for every m, so m <= 2 n^2 covers phi(m) <= n
        want = [_sympy_cyclotomic(m) for m in range(1, 2 * n * n + 7)
                if sympy.totient(m) <= n]
        assert [list(p) for p in spectral._cyclotomics(n)] == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15,
                                 16, 18, 20, 24, 30)), max_size=4),
       st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
                max_size=3))
def test_strip_matches_sympy_factor_list(ms, others):
    # the residual of a squarefree product of Phi_m and other monic factors
    # is the product of its non-cyclotomic irreducible factors (sympy)
    import numpy as np
    import sympy

    x = sympy.Symbol("x")
    prod = sympy.Integer(1)
    for m in ms:
        prod *= sympy.cyclotomic_poly(m, x)
    for low in others:
        if low[0] == 0:
            low[0] = 1
        prod *= sympy.Poly(([1] + low[::-1]), x).as_expr()
    sq = sympy.Poly(prod, x).sqf_part().monic()
    want = sympy.Poly(1, x)
    for f, _ in sq.factor_list()[1]:
        if not f.is_cyclotomic:
            want *= f
    want = [int(c) for c in want.all_coeffs()[::-1]]
    if want[-1] < 0:
        want = [-c for c in want]
    r = spectral._strip_cyclotomic([int(c) for c in sq.all_coeffs()[::-1]])
    assert r == want
    if len(r) > 1:
        # Kronecker: a monic integer polynomial with nonzero constant term
        # and no cyclotomic factor has a root of modulus above 1
        assert max(abs(np.roots(r[::-1]))) > 1 + 1e-6


def test_surd_unary_plus():
    assert +radius_closed_form(5) == radius_closed_form(5)


@pytest.mark.parametrize("op", [
    lambda s: s + 1.5, lambda s: 1.5 + s, lambda s: s - 1.5,
    lambda s: 1.5 - s,
], ids=["add", "radd", "sub", "rsub"])
def test_surd_arithmetic_refuses_a_float(op):
    # a float would lose the exactness the surd carries
    with pytest.raises(TypeError):
        op(radius_closed_form(5))

