"""Shared oracles and random generators for the test suite.

Oracles deliberately recompute through routes independent of the code they
check: pairings by explicit double loops, signatures by Descartes counts on
the characteristic polynomial, lattice membership by exact rational solves.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from mukai_entropy import _linalg
from mukai_entropy.errors import SearchExhaustedError
from mukai_entropy.lattice import (
    K3LatticeModel,
    MukaiVector,
    add_vectors,
    is_perfect_square,
    orthogonal_complement_basis,
    primitive_vector,
    scale_vector,
    sign_normalized,
    square,
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
    from mukai_entropy.spectral import char_poly

    coeffs = list(char_poly(gram).coeffs)
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


def in_lattice(basis, vector) -> bool:
    """Exact test that `vector` is an integer combination of `basis`."""
    if not basis:
        return all(x == 0 for x in vector)
    sol = _linalg.solve_exact([b.coords for b in basis], vector.coords)
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
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


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


def oracle_find_positive_orthogonal(model: K3LatticeModel, s: MukaiVector,
                                    bound: int) -> MukaiVector:
    """The orthogonal-class search over sorted whole shells, building and
    squaring a MukaiVector for every candidate. The N v + u repair is the
    package's own; only the candidate order and test are recomputed."""
    from mukai_entropy.orthosearch import _perturb_square_case

    basis = orthogonal_complement_basis(model, [s])
    first_positive = None
    for coeffs in oracle_coefficient_shells(len(basis), bound):
        v = scale_vector(coeffs[0], basis[0])
        for c, b in zip(coeffs[1:], basis[1:]):
            v = add_vectors(v, scale_vector(c, b))
        v = sign_normalized(primitive_vector(v))
        q = square(model, v)
        if q <= 0:
            continue
        if not is_perfect_square(2 * q):
            return v
        if first_positive is None:
            first_positive = v
    if first_positive is None:
        raise SearchExhaustedError("no positive class in the box")
    return _perturb_square_case(model, s, first_positive)


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
        if _linalg.inertia(gram) == (1, rho - 1, 0):
            return K3LatticeModel(rho, tuple(tuple(row) for row in gram))


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
    assert candidates, "the structure-sheaf class is always in the box"
    return rng.choice(candidates)


def random_vector(rng: random.Random, model: K3LatticeModel,
                  bound: int = 50) -> MukaiVector:
    return MukaiVector.from_coords(
        tuple(rng.randint(-bound, bound) for _ in range(model.picard_rank + 2))
    )


def is_square_int(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n
