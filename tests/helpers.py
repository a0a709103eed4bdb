"""Shared oracles and random generators for the test suite.

Oracles deliberately recompute through routes independent of the code they
check: pairings by explicit double loops, signatures by a congruence
diagonalization over Q and by Descartes counts on the Faddeev-LeVerrier
characteristic polynomial, lattice membership by exact rational solves.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

from mukai_entropy import _linalg
from mukai_entropy.errors import (
    InvarianceError,
    LatticeInputError,
    SearchExhaustedError,
)
from mukai_entropy.isometries import (
    power,
    tensor_line_bundle_action,
    twist_tensor_action,
)
from mukai_entropy.lattice import (
    K3LatticeModel,
    MukaiVector,
    add_vectors,
    euler_pairing,
    is_perfect_square,
    orthogonal_complement_basis,
    primitive_vector,
    rank_one_model,
    scale_vector,
    sign_normalized,
    square,
    structure_sheaf_vector,
)


def oracle_pairing(model: K3LatticeModel, v: MukaiVector, w: MukaiVector) -> int:
    """Pairing recomputed with explicit index loops."""
    g = model.ns_gram
    rho = model.picard_rank
    total = 0
    for i in range(rho):
        for j in range(rho):
            total += v.c[i] * g[i][j] * w.c[j]
    return total - v.r * w.m - w.r * v.m


def oracle_ns_product(model: K3LatticeModel, a, b) -> int:
    """NS product by a double loop over the index pairs (i, j)."""
    g = model.ns_gram
    return sum(a[i] * g[i][j] * b[j]
               for i in range(len(a)) for j in range(len(b)))


def oracle_pairing_matrix(model: K3LatticeModel, vectors):
    """Gram matrix of k vectors from k^2 separate oracle pairings."""
    vs = list(vectors)
    return tuple(tuple(oracle_pairing(model, a, b) for b in vs) for a in vs)


def oracle_image_gram(model: K3LatticeModel, matrix):
    """Pairings <M e_i, M e_j> of the columns of M, each by oracle_pairing."""
    n = len(matrix)
    columns = [MukaiVector.from_coords([matrix[k][i] for k in range(n)])
               for i in range(n)]
    return oracle_pairing_matrix(model, columns)


def oracle_rank_one_square(d: int, v: MukaiVector) -> int:
    """2 d c^2 - 2 r m, the rank-one square formula."""
    return 2 * d * v.c[0] * v.c[0] - 2 * v.r * v.m


def oracle_signature_by_descartes(gram) -> tuple[int, int, int]:
    """Inertia via sign changes of the exact characteristic polynomial.

    A symmetric matrix has real spectrum, so Descartes' rule is exact: the
    positive eigenvalue count equals the sign variations of p(x) and the
    negative count those of p(-x); trailing zero coefficients count the
    kernel.
    """
    coeffs = oracle_char_poly(gram)
    zero = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        zero += 1
    def variations(seq):
        signs = [s for s in seq if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    plus = variations(coeffs)
    minus = variations([c if i % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return plus, minus, zero


def oracle_inertia(gram) -> tuple[int, int, int]:
    """Counts of positive, negative and zero squares of a symmetric form.

    Congruence diagonalization over Q; Sylvester's law makes the counts
    independent of the elimination choices.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    plus = minus = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            piv = next((t for t in range(i + 1, n) if a[t][t] != 0), None)
            if piv is None:
                pair = next(((t, u) for t in range(i, n)
                             for u in range(t + 1, n) if a[t][u] != 0), None)
                if pair is None:
                    zero += n - i
                    break
                t, u = pair
                # both diagonals vanish here, so this makes a[t][t] = 2 a[t][u]
                for j in range(n):
                    a[t][j] += a[u][j]
                for j in range(n):
                    a[j][t] += a[j][u]
                piv = t
            if piv != i:
                a[i], a[piv] = a[piv], a[i]
                for j in range(n):
                    a[j][i], a[j][piv] = a[j][piv], a[j][i]
        p = a[i][i]
        if p > 0:
            plus += 1
        else:
            minus += 1
        for j in range(i + 1, n):
            if a[j][i] != 0:
                f = a[j][i] / p
                for col in range(i, n):
                    a[j][col] -= f * a[i][col]
                for row in range(i, n):
                    a[row][j] -= f * a[row][i]
    return plus, minus, zero


# --- Fraction and Bareiss eliminations, oracles for the column reduction ---

def bareiss_det(a) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _rref(mat: list[list[Fraction]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots = []
    row = 0
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    for col in range(n_cols):
        piv = next((i for i in range(row, n_rows) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for i in range(n_rows):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return pivots


def rational_rank(rows) -> int:
    if not rows:
        return 0
    mat = [[Fraction(x) for x in row] for row in rows]
    return len(_rref(mat))


def solve_exact(columns, target) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] == target over Q.

    Returns one solution (unique when the columns are independent) or None
    when the system is inconsistent.
    """
    n = len(target)
    k = len(columns)
    mat = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(n)]
    pivots = _rref(mat)
    if k in pivots:
        return None
    sol = [Fraction(0)] * k
    for row, col in enumerate(pivots):
        sol[col] = mat[row][k]
    return sol


def oracle_invert_unimodular(m) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv = []
    for i in range(n):
        row = aug[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        inv.append(tuple(int(x) for x in row))
    return tuple(inv)


def oracle_column_reduce(rows, n: int):
    """_linalg.column_reduce written with index loops over the k rows and n
    columns of each column step: the complement bases and the search order
    built on column_reduce are pinned to its output."""
    k = len(rows)
    acols = [[int(rows[r][j]) for r in range(k)] for j in range(n)]
    vcols = [[1 if t == j else 0 for t in range(n)] for j in range(n)]
    active = list(range(n))
    pivots = []
    for r in range(k):
        nz = [j for j in active if acols[j][r] != 0]
        if not nz:
            pivots.append(None)
            continue
        j0 = nz[0]
        for j in nz[1:]:
            p, q = acols[j0][r], acols[j][r]
            g, x, y = _linalg.xgcd(p, q)
            pg, qg = p // g, q // g
            acols[j0], acols[j] = (
                [x * acols[j0][t] + y * acols[j][t] for t in range(k)],
                [-qg * acols[j0][t] + pg * acols[j][t] for t in range(k)],
            )
            vcols[j0], vcols[j] = (
                [x * vcols[j0][t] + y * vcols[j][t] for t in range(n)],
                [-qg * vcols[j0][t] + pg * vcols[j][t] for t in range(n)],
            )
        active.remove(j0)
        pivots.append(j0)
    return acols, vcols, pivots


def oracle_restrict_to_sublattice(a, basis) -> tuple[tuple[int, ...], ...]:
    """Restriction by rank, gcd of maximal minors and rational solves.

    The minors loop stops once the gcd reaches 1, so a primitive basis is
    cheap; a non-primitive one walks all C(n, k) minors.
    """
    columns = [v.coords for v in basis]
    n, k = len(columns[0]), len(columns)
    if rational_rank(columns) != k:
        raise LatticeInputError("sublattice basis vectors are dependent")
    minor_gcd = 0
    for rows in combinations(range(n), k):
        minor = bareiss_det([[columns[j][i] for j in range(k)] for i in rows])
        minor_gcd = math.gcd(minor_gcd, abs(minor))
        if minor_gcd == 1:
            break
    if minor_gcd != 1:
        raise LatticeInputError("basis does not span a primitive sublattice")
    out_cols = []
    for v in basis:
        sol = solve_exact(columns, a.apply(v).coords)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise InvarianceError("image leaves the integer span of the basis")
        out_cols.append([int(x) for x in sol])
    return tuple(tuple(out_cols[j][i] for j in range(k)) for i in range(k))


def in_lattice(basis, vector) -> bool:
    """Exact test that `vector` is an integer combination of `basis`."""
    if not basis:
        return all(x == 0 for x in vector)
    sol = solve_exact([b.coords for b in basis], vector.coords)
    return sol is not None and all(x.denominator == 1 for x in sol)


def same_lattice(basis_a, basis_b) -> bool:
    return (
        len(basis_a) == len(basis_b)
        and all(in_lattice(basis_b, v) for v in basis_a)
        and all(in_lattice(basis_a, v) for v in basis_b)
    )


def poly_apply_matrix(coeffs, matrix):
    """Evaluate an ascending-coefficient polynomial at an integer matrix."""
    n = len(matrix)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = [list(row) for row in _linalg.mat_mul(acc, matrix)]
        for i in range(n):
            acc[i][i] += c
    return tuple(tuple(row) for row in acc)


def fraction_det(matrix) -> Fraction:
    """Determinant by plain rational elimination, independent of Bareiss."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def _poly_mul_frac(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def cofactor_char_poly(matrix) -> list[int]:
    """det(x I - M) by evaluation and Lagrange interpolation, ascending."""
    n = len(matrix)
    pts = list(range(n + 1))
    vals = []
    for t in pts:
        shifted = [
            [Fraction(t if i == j else 0) - Fraction(matrix[i][j])
             for j in range(n)]
            for i in range(n)
        ]
        vals.append(fraction_det(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for t0, val in zip(pts, vals):
        num = [Fraction(1)]
        denom = Fraction(1)
        for t in pts:
            if t == t0:
                continue
            num = _poly_mul_frac(num, [Fraction(-t), Fraction(1)])
            denom *= Fraction(t0 - t)
        for j, c in enumerate(num):
            coeffs[j] += val * c / denom
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("interpolated char poly is not integral")
    return [int(c) for c in coeffs]


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# --- the resultant route to the radius polynomial, kept as an oracle --------

def _frac_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _frac_divmod(num, den):
    num = [Fraction(x) for x in num]
    den = _frac_trim([Fraction(x) for x in den])
    if den == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    rem = list(num)
    for shift in range(len(num) - len(den), -1, -1):
        f = rem[shift + len(den) - 1] / den[-1]
        if f != 0:
            quot[shift] = f
            for i, d in enumerate(den):
                rem[shift + i] -= f * d
    return _frac_trim(quot), _frac_trim(rem)


def _frac_primitive(p) -> list[int]:
    """Scale a rational polynomial by a positive factor to primitive integers."""
    fracs = [Fraction(x) for x in p]
    den_lcm = 1
    for x in fracs:
        den_lcm = den_lcm * x.denominator // math.gcd(den_lcm, x.denominator)
    ints = [int(x * den_lcm) for x in fracs]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    return [x // g for x in ints] if g > 1 else ints


def _frac_deriv(p):
    return [i * p[i] for i in range(1, len(p))] or [0]


def oracle_squarefree_part(p) -> list[int]:
    """p / gcd(p, p') by the Euclidean algorithm over the rationals, scaled
    to primitive integers with positive leading coefficient."""
    a = _frac_trim([Fraction(x) for x in p])
    b = _frac_trim([Fraction(x) for x in _frac_deriv(p)])
    while b != [0]:
        a, b = b, _frac_divmod(a, b)[1]
    if len(a) == 1:
        out = list(p)
    else:
        quot, rem = _frac_divmod(p, a)
        if rem != [0]:
            raise AssertionError("gcd does not divide the polynomial")
        out = _frac_primitive(quot)
    return [-c for c in out] if out[-1] < 0 else out


def oracle_sturm_chain(p) -> list[list[int]]:
    """Sturm chain by rational division, each negated remainder scaled by a
    positive factor to primitive integers."""
    chain = [list(p), _frac_primitive(_frac_deriv(p))]
    while len(chain[-1]) > 1:
        rem = _frac_divmod(chain[-2], chain[-1])[1]
        if rem == [0]:
            break
        chain.append(_frac_primitive([-x for x in rem]))
    if chain[-1] == [0]:
        chain.pop()
    return chain


def oracle_sylvester_resultant(f, g) -> int:
    """Resultant of two integer polynomials (ascending, nonzero leading)."""
    df, dg = len(f) - 1, len(g) - 1
    size = df + dg
    fd = list(reversed(f))
    gd = list(reversed(g))
    rows = [[0] * i + fd + [0] * (size - df - 1 - i) for i in range(dg)]
    rows += [[0] * i + gd + [0] * (size - dg - 1 - i) for i in range(df)]
    return bareiss_det(rows)


def oracle_root_product_poly(p) -> list[int]:
    """Monic polynomial whose n^2 roots are all ordered pairwise products of
    the roots of p; p must be monic of degree n with nonzero constant term.

    Interpolates t -> Res_y(p(y), y^n p(t/y)) at t = 0..n^2 by Newton divided
    differences over the rationals.
    """
    n = len(p) - 1
    deg = n * n
    pts = list(range(deg + 1))
    vals = []
    for t in pts:
        # y^n p(t/y) has ascending y-coefficients p[n-j] * t^(n-j)
        q = [p[n - j] * t ** (n - j) for j in range(n + 1)]
        vals.append(oracle_sylvester_resultant(p, q))
    coeffs_newton = [Fraction(v) for v in vals]
    for level in range(1, deg + 1):
        for i in range(deg, level - 1, -1):
            coeffs_newton[i] = (coeffs_newton[i] - coeffs_newton[i - 1]) / (
                pts[i] - pts[i - level]
            )
    poly = [Fraction(0)] * (deg + 1)
    acc = [Fraction(1)]
    for i in range(deg + 1):
        for j, a in enumerate(acc):
            poly[j] += coeffs_newton[i] * a
        if i < deg:
            acc = [Fraction(0)] + acc
            for j in range(len(acc) - 1):
                acc[j] -= pts[i] * acc[j + 1]
    if any(x.denominator != 1 for x in poly):
        raise AssertionError("pairwise-product polynomial is not integral")
    out = [int(x) for x in poly]
    if out[-1] != 1:
        raise AssertionError("pairwise-product polynomial should be monic")
    return out


def oracle_coefficient_shells(rank: int, bound: int):
    """Coefficient tuples of sup norm r = 1..bound, each shell built whole
    and sorted by (L1 norm, tuple)."""
    for r in range(1, bound + 1):
        shell = [
            t for t in product(range(-r, r + 1), repeat=rank)
            if max(abs(x) for x in t) == r
        ]
        shell.sort(key=lambda t: (sum(abs(x) for x in t), t))
        yield from shell


def _oracle_class(basis, coeffs) -> MukaiVector:
    v = scale_vector(coeffs[0], basis[0])
    for c, b in zip(coeffs[1:], basis[1:]):
        v = add_vectors(v, scale_vector(c, b))
    return sign_normalized(primitive_vector(v))


def _oracle_anisotropic_direction(model: K3LatticeModel, basis):
    """A basis vector, else b_i + b_j, else b_i - b_j, of nonzero square."""
    for u in basis:
        if oracle_pairing(model, u, u) != 0:
            return u
    for a, b in combinations(basis, 2):
        for cand in (add_vectors(a, b), add_vectors(a, scale_vector(-1, b))):
            if oracle_pairing(model, cand, cand) != 0:
                return cand
    return None


def oracle_perturb_square_case(model: K3LatticeModel, s: MukaiVector,
                               v: MukaiVector) -> MukaiVector:
    """The N v + u repair with N v + u built as a MukaiVector and squared by
    index loops for every N from 1, the budget counting only the N with a
    positive square; u comes from the package's complement basis of {s, v},
    so both pick the same direction."""
    from mukai_entropy.orthosearch import _PERTURBATION_BUDGET

    u = _oracle_anisotropic_direction(
        model, orthogonal_complement_basis(model, [s, v]))
    if u is None:
        raise SearchExhaustedError("no anisotropic perturbation direction")
    n = tried = 0
    while tried < _PERTURBATION_BUDGET:
        n += 1
        w = add_vectors(scale_vector(n, v), u)
        q = oracle_pairing(model, w, w)
        if q <= 0:
            continue
        tried += 1
        if not is_perfect_square(2 * q):
            if oracle_pairing(model, w, s) != 0:
                raise AssertionError(f"repair {w} is not orthogonal to s")
            return sign_normalized(primitive_vector(w))
    raise SearchExhaustedError("perturbation budget exhausted")


def oracle_find_positive_orthogonal(model: K3LatticeModel, s: MukaiVector,
                                    bound: int) -> MukaiVector:
    """The orthogonal-class search over sorted whole shells, building and
    squaring a MukaiVector for every candidate, and the N v + u repair by
    oracle_perturb_square_case."""
    basis = orthogonal_complement_basis(model, [s])
    first_positive = None
    for coeffs in oracle_coefficient_shells(len(basis), bound):
        v = _oracle_class(basis, coeffs)
        q = square(model, v)
        if q <= 0:
            continue
        if not is_perfect_square(2 * q):
            return v
        if first_positive is None:
            first_positive = v
    if first_positive is None:
        raise SearchExhaustedError("no positive class in the box")
    return oracle_perturb_square_case(model, s, first_positive)


def oracle_search_per_candidate_q(model: K3LatticeModel, s: MukaiVector,
                                  bound: int) -> MukaiVector:
    """The orthogonal-class search with q = c^T G c summed afresh for every
    candidate over its support, on the k^2-pairing Gram matrix, and divided
    by the square of the coefficient content. The lazy order of positive
    classes (pinned against oracle_coefficient_shells by its own test) is
    the package's; the square carried along the walk is discarded, and the
    N v + u repair is oracle_perturb_square_case."""
    from mukai_entropy.orthosearch import _positive_classes

    basis = orthogonal_complement_basis(model, [s])
    gram = oracle_pairing_matrix(model, basis)
    first_positive = None
    for coeffs, _ in _positive_classes(gram, bound):
        support = [(i, c) for i, c in enumerate(coeffs) if c]
        q = sum(c * d * gram[i][j] for i, c in support for j, d in support)
        if q <= 0:
            continue
        g = math.gcd(*coeffs)
        q //= g * g
        if not is_perfect_square(2 * q):
            return _oracle_class(basis, coeffs)
        if first_positive is None:
            first_positive = coeffs
    if first_positive is None:
        raise SearchExhaustedError("no positive class in the box")
    return oracle_perturb_square_case(model, s,
                                      _oracle_class(basis, first_positive))


def oracle_iterated_chi(n: int, i: int, k: int, d: int) -> int:
    """Chi of the n-th twist-tensor iterate through power(phi, n).

    phi_H is rebuilt and multiplied out n times for every n; the library
    walks the class once per table instead.
    """
    model = rank_one_model(d)
    phi = twist_tensor_action(model)
    tensor_k = tensor_line_bundle_action(model, (-k,))
    start = MukaiVector(1, (-i,), i * i * d + 1)
    moved = tensor_k.apply(power(phi, n).apply(start))
    return euler_pairing(model, structure_sheaf_vector(model), moved)


def _rr_twist_tensor(d: int):
    """phi_H on the numerical K-group of a K3 with H^2 = 2d, from the Hilbert
    polynomial P(k) = d k^2 + 2 alone.

    Coordinates are in the basis [O(jH)], j = 0, 1, 2, with
    chi(O(a), O(b)) = P(b - a). Tensoring by O(-H) lowers j by one and sends
    [O] to [O(-H)] = 3 - 3 [O(H)] + [O(2H)], since (1 - [O(-H)])^3 = 0.
    Returns (phi, dual, chi_o): phi(v) = w - chi(O, w) [O] with w = v (x)
    O(-H), dual(v) = v (x) O(-H), and chi_o(v) = chi(O, v).
    """
    chi_row = [d * b * b + 2 for b in range(3)]

    def chi_o(v):
        return sum(x * y for x, y in zip(chi_row, v))

    def dual(v):
        a, b, c = v
        return (3 * a + b, -3 * a + c, a)

    def phi(v):
        w = dual(v)
        return (w[0] - chi_o(w),) + w[1:]

    return phi, dual, chi_o


def oracle_rr_chi(n_max: int, i: int, k: int, d: int) -> list[int]:
    """chi(O, phi^n [O(-iH)] (x) O(-kH)) for n = 0..n_max, by Riemann-Roch.

    Shares no code with the package: see _rr_twist_tensor.
    """
    phi, dual, chi_o = _rr_twist_tensor(d)
    v = (1, 0, 0)
    for _ in range(i):
        v = dual(v)
    chis = []
    for n in range(n_max + 1):
        if n:
            v = phi(v)
        w = v
        for _ in range(k):
            w = dual(w)
        chis.append(chi_o(w))
    return chis


def oracle_rr_phi_matrix(d: int) -> list[list[int]]:
    """Matrix of the Riemann-Roch phi_H in the basis [O], [O(H)], [O(2H)]."""
    phi, _, _ = _rr_twist_tensor(d)
    columns = [phi(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return [list(row) for row in zip(*columns)]


def unimodular_k3_model(rng: random.Random, rho: int, d: int) -> K3LatticeModel:
    """NS Gram <2d> + <-2>^(rho-1) under a seeded unimodular change U.

    The generator of the benchmark inputs: U fixes e_1 (only columns
    2..rho are touched), so U^T G U keeps the signature (1, rho-1), the
    evenness and the polarization e_1 of square 2d. Covers every Picard
    rank 1..20 without rejection sampling.
    """
    g = [[0] * rho for _ in range(rho)]
    g[0][0] = 2 * d
    for i in range(1, rho):
        g[i][i] = -2
    u = [[int(i == j) for j in range(rho)] for i in range(rho)]
    for _ in range(rho // 2):
        i = rng.randrange(1, rho)
        j = rng.choice([t for t in range(rho) if t != i])
        c = rng.choice((-1, 1))
        for row in u:
            row[i] += c * row[j]
    gu = [[sum(g[a][b] * u[b][j] for b in range(rho)) for j in range(rho)]
          for a in range(rho)]
    return K3LatticeModel(rho, tuple(
        tuple(sum(u[a][i] * gu[a][j] for a in range(rho)) for j in range(rho))
        for i in range(rho)
    ))


def basis_spherical_class(rng: random.Random,
                          model: K3LatticeModel) -> MukaiVector:
    """(r, +-e_i, r (e_i^2 + 2) / 2) with r = +-1: square -2 by construction."""
    rho = model.picard_rank
    c = [0] * rho
    i = rng.randrange(rho)
    c[i] = rng.choice((-1, 1))
    r = rng.choice((-1, 1))
    return MukaiVector(r, tuple(c), r * (model.ns_gram[i][i] + 2) // 2)


def tridiagonal_gram(rho: int) -> list[list[int]]:
    """<4> + (-A_(rho-1)) joined by e_1 . e_2 = 1: an even NS Gram matrix of
    signature (1, rho - 1) for every rho, so a valid model but for its rank."""
    return [[4 if i == j == 0 else -2 if i == j else int(abs(i - j) == 1)
             for j in range(rho)] for i in range(rho)]


def random_k3_model(rng: random.Random, rho: int,
                    entry_bound: int = 20) -> K3LatticeModel:
    """Random even symmetric Gram of signature (1, rho-1) by rejection."""
    if rho == 1:
        return K3LatticeModel(1, ((2 * rng.randint(1, entry_bound // 2),),))
    while True:
        gram = [[0] * rho for _ in range(rho)]
        for i in range(rho):
            gram[i][i] = 2 * rng.randint(-entry_bound // 2, entry_bound // 2)
            for j in range(i + 1, rho):
                gram[i][j] = gram[j][i] = rng.randint(-entry_bound, entry_bound)
        if oracle_inertia(gram) == (1, rho - 1, 0):
            return K3LatticeModel(rho, tuple(tuple(row) for row in gram))


# Dynkin edges of the root lattices A_2, D_4 and E_8, by rank: the Gram of
# L(-1) has -2 on the diagonal and 1 at each edge
_ROOT_BLOCKS = {2: [(0, 1)], 4: [(0, 1), (1, 2), (1, 3)],
                8: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]}


def block_k3_model(rng: random.Random, rho: int) -> K3LatticeModel:
    """Random even NS Gram of signature (1, rho-1) for any rho 1..20, with
    no rejection.

    <2d> plus negative-definite even blocks <-2k>, A_2(-1), D_4(-1) and
    E_8(-1) of total rank rho - 1, then U^T G U for a random unimodular U
    (a permutation, signs and rho elementary column steps). Sylvester's law
    keeps the signature, and u^T G u is even for every u since G is even.
    """
    g = [[0] * rho for _ in range(rho)]
    g[0][0] = 2 * rng.randint(1, 10)
    at = 1
    while at < rho:
        size = rng.choice([s for s in (1, 2, 4, 8) if at + s <= rho])
        for i in range(size):
            g[at + i][at + i] = -2 * (rng.randint(1, 3) if size == 1 else 1)
        for i, j in _ROOT_BLOCKS.get(size, ()):
            g[at + i][at + j] = g[at + j][at + i] = 1
        at += size
    perm = list(range(rho))
    rng.shuffle(perm)
    u = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(rho)]
         for i in range(rho)]
    for _ in range(rho if rho > 1 else 0):
        i, j = rng.sample(range(rho), 2)
        c = rng.choice((-1, 1))
        for row in u:
            row[i] += c * row[j]
    gu = [[sum(g[a][b] * u[b][j] for b in range(rho)) for j in range(rho)]
          for a in range(rho)]
    return K3LatticeModel(rho, tuple(
        tuple(sum(u[a][i] * gu[a][j] for a in range(rho)) for j in range(rho))
        for i in range(rho)
    ))


def spherical_classes_in_box(model: K3LatticeModel, bound: int):
    """All classes of square -2 with coordinates in [-bound, bound]."""
    rho = model.picard_rank
    found = []
    for coords in product(range(-bound, bound + 1), repeat=rho + 2):
        v = MukaiVector.from_coords(coords)
        if square(model, v) == -2:
            found.append(v)
    return found


def random_spherical(rng: random.Random, model: K3LatticeModel,
                     bound: int = 2) -> MukaiVector:
    """Random spherical class from a small box; (1, 0, 1) always qualifies."""
    candidates = spherical_classes_in_box(model, bound)
    if not candidates:
        raise AssertionError("the structure-sheaf class is always in the box")
    return rng.choice(candidates)


def random_vector(rng: random.Random, model: K3LatticeModel,
                  bound: int = 50) -> MukaiVector:
    return MukaiVector.from_coords(
        tuple(rng.randint(-bound, bound) for _ in range(model.picard_rank + 2))
    )


def is_square_int(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


# --- the parent routines of the radius hot path, kept as oracles ------------

def oracle_mat_mul(a, b):
    """Matrix product by the plain index triple loop."""
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def oracle_mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def oracle_char_poly(matrix) -> list[int]:
    """Faddeev-LeVerrier recursion, n - 1 matrix products, ascending."""
    a = _linalg.to_int_matrix(matrix)
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = a
    for k in range(1, n + 1):
        trace = sum(mk[i][i] for i in range(n))
        if trace % k != 0:
            raise AssertionError("Faddeev-LeVerrier division was not exact")
        c = -(trace // k)
        coeffs[n - k] = c
        if k < n:
            shifted = tuple(
                tuple(mk[i][j] + (c if i == j else 0) for j in range(n))
                for i in range(n)
            )
            mk = oracle_mat_mul(a, shifted)
    return coeffs


def _oracle_sign_at(poly, x: Fraction) -> int:
    u, w = x.numerator, x.denominator
    n = len(poly) - 1
    acc = 0
    wp = 1
    for k in range(n, -1, -1):
        acc = acc * u + poly[k] * wp
        wp *= w
    return (acc > 0) - (acc < 0)


def _oracle_variations(chain, x: Fraction) -> int:
    signs = [s for s in (_oracle_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _oracle_sqrt_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), Fraction(0)
    scale = 1 << bits
    t = (x.numerator * scale * scale) // x.denominator
    r = math.isqrt(t)
    return Fraction(r, scale), Fraction(r + 1, scale)


def oracle_spectral_radius(matrix, tolerance: float = 1e-9,
                           max_steps: int = 10 ** 6) -> tuple:
    """(lo, hi, value) of the radius certificate with a Sturm count at every
    bisection step over Fraction endpoints, from the Faddeev-LeVerrier
    char poly. Shares the float seed and the s0 polynomial with the package;
    the bisection is recomputed."""
    from mukai_entropy.spectral import (
        _pairwise_product_poly,
        _squarefree_part,
        _sturm_chain,
    )
    import numpy as np

    rows = _linalg.to_int_matrix(matrix)
    coeffs = oracle_char_poly(rows)
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) == 1:
        return Fraction(0), Fraction(0), 0.0
    s0 = _squarefree_part(_sturm_chain(
        _pairwise_product_poly(_squarefree_part(_sturm_chain(coeffs)))))
    chain = _sturm_chain(s0)
    bound = 2 + max(abs(c) for c in s0)
    v_top = _oracle_variations(chain, Fraction(bound))

    def count_above(x: Fraction) -> int:
        return _oracle_variations(chain, x) - v_top

    tol = Fraction(tolerance)
    bits = max(24, int(math.ceil(math.log2(8.0 / tolerance))))
    lo2, hi2 = Fraction(0), Fraction(bound)
    if count_above(lo2) < 1:
        raise AssertionError("no positive root located for the radius")
    try:
        est = float(max(abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
    except (OverflowError, np.linalg.LinAlgError, ValueError):
        est = 0.0
    if 0 < est < math.inf:
        margin = Fraction(1, 1000)
        cand_lo = Fraction(est) * (1 - margin)
        cand_hi = Fraction(est) * (1 + margin)
        lo_c = max(Fraction(0), cand_lo * cand_lo)
        hi_c = min(Fraction(bound), cand_hi * cand_hi)
        if (
            lo_c < hi_c
            and _oracle_sign_at(s0, lo_c) != 0
            and _oracle_sign_at(s0, hi_c) != 0
            and count_above(hi_c) == 0
            and count_above(lo_c) >= 1
        ):
            lo2, hi2 = lo_c, hi_c

    steps = 0
    while True:
        lo_root, _ = _oracle_sqrt_bounds(lo2, bits)
        _, hi_root = _oracle_sqrt_bounds(hi2, bits)
        if hi_root - lo_root <= tol:
            mid = (lo_root + hi_root) / 2
            value = float(mid)
            if not (lo_root <= Fraction(value) <= hi_root):
                value = float(lo_root)
            return lo_root, hi_root, value
        steps += 1
        if steps > max_steps:
            raise AssertionError("oracle bisection ran out of steps")
        mid = (lo2 + hi2) / 2
        if _oracle_sign_at(s0, mid) == 0:
            off = (hi2 - mid) / 2
            while _oracle_sign_at(s0, mid + off) == 0:
                off /= 2
            probe = mid + off
            if count_above(probe) == 0:
                lo2, hi2 = mid, probe
            else:
                lo2 = probe
        elif count_above(mid) >= 1:
            lo2 = mid
        else:
            hi2 = mid


# --- the two-scan canonical surd, kept as an oracle --------------------------

def oracle_square_part(n: int) -> tuple[int, int]:
    """Write n = f*f * rest with rest squarefree; returns (f, rest).

    Trial division strips squares of primes up to the cube root; whatever
    square factor survives is a single prime square with a cofactor below
    the cube root, which the divisor scan finds.
    """
    f = 1
    rest = n
    p = 2
    while p * p * p <= rest:
        while rest % (p * p) == 0:
            rest //= p * p
            f *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(rest)
    if r * r == rest:
        return f * r, 1
    b = 2
    while b * b * b <= rest:
        if rest % b == 0:
            q = rest // b
            s = math.isqrt(q)
            if s * s == q:
                return f * s, b
        b += 1
    return f, rest


def oracle_surd_parts(a, b, root: int) -> tuple[Fraction, Fraction, int]:
    """Canonical (a, b, root) of a + b*sqrt(root) through oracle_square_part,
    rewrapping a and b and always scaling b."""
    a, b = Fraction(a), Fraction(b)
    if b != 0 and root > 1:
        f, root = oracle_square_part(root)
        b *= f
    if root in (0, 1) and b != 0:
        a += b
        b = Fraction(0)
    if b == 0:
        root = 0
    return a, b, root


def oracle_surd_sign(a, b, root: int) -> int:
    """Sign of a + b*sqrt(root) in integers: over a common denominator it is
    A + B sqrt(root), and B sqrt(root) lies in [m, m + 1) for B >= 0 or in
    (-m - 1, -m] for B < 0, with m = isqrt(B^2 root), the square of its size;
    it equals +-m exactly when m^2 = B^2 root."""
    a, b = Fraction(a), Fraction(b)
    den = a.denominator * b.denominator
    big_a, big_b = int(a * den), int(b * den)
    m = math.isqrt(big_b * big_b * root)
    if m * m == big_b * big_b * root:
        total = big_a + (m if big_b >= 0 else -m)
        return (total > 0) - (total < 0)
    # B sqrt(root) is irrational: A + B sqrt(root) lies strictly between the
    # integers low and low + 1
    low = big_a + m if big_b > 0 else big_a - m - 1
    return 1 if low >= 0 else -1


def oracle_radius_parts(d: int) -> tuple[Fraction, Fraction, int]:
    """Canonical parts of the twist-tensor radius (d - 2 + sqrt(d^2 - 4d)) / 2,
    1 for d <= 4."""
    if d <= 4:
        return Fraction(1), Fraction(0), 0
    return oracle_surd_parts(Fraction(d - 2, 2), Fraction(1, 2), d * d - 4 * d)
