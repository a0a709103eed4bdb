"""Exact integer matrix routines used across the package.

Everything works on plain nested sequences of Python ints, so there is no
rounding anywhere. Input is checked here, once: to_int for an integer
argument, with its lower bound, and to_int_matrix for a square integer
matrix, with its size. Every question about integer spans (kernels,
membership, primitivity, inverses of unimodular matrices) goes through one
unimodular column reduction, the only elimination here. Characteristic
polynomials come from power sums by Newton's identities, each trace read off
one Krylov step on rows packed into single integers, and signatures from the
signs of their coefficients. The square part of an integer, by trial
division, serves the closed-form radius (d - 2 + sqrt(d^2 - 4d)) / 2 of the
twist-tensor family, in spectral and in entropy alike: gy_gap(d) and
radius_closed_form(d) share one factorization of each d through a one-entry
memo, so a sweep that asks for both pays once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import reprlib

from .errors import LatticeInputError

IntMatrix = tuple[tuple[int, ...], ...]

# Error messages show at most about 60 characters of an offending value.
_short = reprlib.Repr()
_short.maxstring = _short.maxother = 60
short_repr = _short.repr


# what to_int says it wants, by lower bound
_INT_KINDS = {None: "an integer", 0: "a non-negative integer",
              1: "a positive integer"}


def to_int(x, what: str, least: int | None = None) -> int:
    """x itself when it is an int, not a bool, and at least `least` when a
    bound (0 or 1) is given; else a LatticeInputError naming `what`."""
    # an exact int, the common case, takes one type test
    if (type(x) is not int and (isinstance(x, bool) or not isinstance(x, int))
            or least is not None and x < least):
        raise LatticeInputError(
            f"{what} must be {_INT_KINDS[least]}, got {short_repr(x)}")
    return x


def to_int_matrix(rows, size: int | None = None,
                  what: str = "matrix") -> IntMatrix:
    """rows as a tuple of int tuples, checked square, and size x size when a
    size is given; the empty matrix is square."""
    if not isinstance(rows, (list, tuple)):
        raise LatticeInputError(f"{what} must be a list of rows")
    if not all(isinstance(row, (list, tuple)) for row in rows):
        raise LatticeInputError(f"{what} rows must be lists")
    n = len(rows) if size is None else size
    if len(rows) != n or any(len(row) != n for row in rows):
        shape = "square" if size is None else f"{n}x{n}"
        raise LatticeInputError(f"{what} must be {shape}")
    if set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        return tuple(map(tuple, rows))
    entry = f"{what} entry"
    return tuple(tuple(to_int(x, entry) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a
    )


def mat_vec(a, v) -> tuple[int, ...]:
    return tuple(sum(map(operator.mul, row, v)) for row in a)


def transpose(a) -> IntMatrix:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def is_symmetric(a) -> bool:
    """Whether a square matrix equals its transpose."""
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd with g >= 0; returns (g, x, y) with x*a + y*b == g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def column_reduce(rows, n: int):
    """Unimodular column reduction R V = E of k integer rows of length n.

    Returns (ecols, vcols, pivots): ecols[j] and vcols[j] are column j of E
    and of V, and pivots[r] is the column holding the gcd of row r after the
    columns free at step r are combined into it, or None when row r is a
    rational combination of the rows above. Row r of E is zero in every
    column that was still free at step r, so E is lower triangular on the
    pivot columns and zero on the rest: the columns of V that no row claimed
    span the integer kernel of R, which is automatically saturated.
    """
    k = len(rows)
    acols = [[int(row[j]) for row in rows] for j in range(n)]
    vcols = [[0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]
    active = list(range(n))
    pivots = []
    for r in range(k):
        nz = [j for j in active if acols[j][r] != 0]
        if not nz:
            pivots.append(None)
            continue
        j0 = nz[0]
        for j in nz[1:]:
            a0, aj, v0, vj = acols[j0], acols[j], vcols[j0], vcols[j]
            g, x, y = xgcd(a0[r], aj[r])
            pg, qg = a0[r] // g, aj[r] // g
            acols[j0] = [s * x + t * y for s, t in zip(a0, aj)]
            acols[j] = [t * pg - s * qg for s, t in zip(a0, aj)]
            vcols[j0] = [s * x + t * y for s, t in zip(v0, vj)]
            vcols[j] = [t * pg - s * qg for s, t in zip(v0, vj)]
        active.remove(j0)
        pivots.append(j0)
    return acols, vcols, pivots


def span_coordinates(columns, targets) -> list[tuple[int, ...] | None]:
    """Integer coordinates of each target in a basis of a primitive sublattice.

    One column reduction of the basis rows B^T gives B^T V = E. Then
    B x = t exactly when x^T E = t^T V: t^T V must vanish off the pivot
    columns (else t leaves the rational span, and None is returned), and x
    follows by back substitution on the triangular pivot part. A basis whose
    pivots multiply to +-1 spans a primitive sublattice, and then every
    division is by +-1, so each target in the rational span is an integer
    combination. A dependent or non-primitive basis is an input error.
    """
    n = len(columns[0])
    k = len(columns)
    ecols, vcols, pivots = column_reduce(columns, n)
    if None in pivots:
        raise LatticeInputError("sublattice basis vectors are dependent")
    if math.prod(ecols[p][r] for r, p in enumerate(pivots)) not in (1, -1):
        raise LatticeInputError("basis does not span a primitive sublattice")
    free = [j for j in range(n) if j not in pivots]
    out = []
    for t in targets:
        w = [sum(a * b for a, b in zip(vcol, t)) for vcol in vcols]
        if any(w[j] for j in free):
            out.append(None)
            continue
        x = [0] * k
        for r in reversed(range(k)):
            col = ecols[pivots[r]]
            rest = w[pivots[r]] - sum(x[s] * col[s] for s in range(r + 1, k))
            x[r] = rest * col[r]  # col[r] is +-1, its own inverse
        out.append(tuple(x))
    return out


def monic_from_power_sums(sums) -> list[int]:
    """Ascending coefficients of the monic polynomial whose roots have power
    sums sums[1..n] (sums[0] is unused), by Newton's identities; step k
    divides by k, and a division that is not exact raises."""
    n = len(sums) - 1
    top = [1] + [0] * n  # top[k] is the coefficient of x^(n-k)
    for k in range(1, n + 1):
        acc = sum(top[k - i] * sums[i] for i in range(1, k + 1))
        if acc % k:
            raise AssertionError("Newton's identities gave a non-integer")
        top[k] = -(acc // k)
    return top[::-1]


def char_poly_coeffs(a) -> list[int]:
    """Ascending characteristic polynomial of a square integer matrix.

    The power sums tr(A^k), k = 1..n, come from Krylov steps on packed rows:
    row i of A^k is one integer y_i = sum_j (A^k)_ij 2^(j b), and
    A^(k+1) = A A^k is the step y_i <- sum_l A_il y_l, from y_i = 2^(i b).
    Slot s of sum_i y_i 2^((n-1-i) b) sums (A^k)_ij over j - i = s - n + 1,
    so slot n - 1 is tr(A^k). With m = ||A||_inf, the largest row sum of
    |A_ij|, every slot fits b = n bitlen(m) + bitlen(n) + 1 bits: it sums at
    most n entries, each |(A^k)_ij| <= ||A^k||_inf <= m^k <= m^n < 2^(b-1) / n
    for 1 <= k <= n (all are 0 when m = 0). Adding 2^(b-1) to slots 0..n-1
    puts each in [0, 2^b), so no borrow reaches slot n - 1 from below.
    """
    n = len(a)
    m = max((sum(map(abs, row)) for row in a), default=0)
    b = n * m.bit_length() + n.bit_length() + 1
    half, mask = 1 << (b - 1), (1 << b) - 1
    offset = half * ((1 << (n * b)) - 1) // mask  # half in slots 0..n-1
    shifts = [i * b for i in range(n)]
    ys = [1 << s for s in shifts]
    sums = [0] * (n + 1)
    for k in range(1, n + 1):
        ys = [sum(map(operator.mul, row, ys)) for row in a]
        packed = sum(map(operator.lshift, ys, reversed(shifts)))
        sums[k] = ((packed + offset) >> shifts[-1] & mask) - half
    return monic_from_power_sums(sums)


def inertia(gram) -> tuple[int, int, int]:
    """Counts of positive, negative and zero squares of a symmetric form.

    gram must be symmetric (callers check it), so every eigenvalue is real
    and Descartes' rule of signs on the characteristic polynomial is exact:
    sign changes among the nonzero coefficients count the positive ones,
    vanishing low coefficients the zero ones, and the rest are negative.
    """
    coeffs = char_poly_coeffs(gram)
    zero = next(i for i, c in enumerate(coeffs) if c)
    signs = [c > 0 for c in coeffs if c]
    plus = sum(map(operator.ne, signs, signs[1:]))
    return plus, len(gram) - plus - zero, zero


def _square_part(n: int) -> tuple[int, int]:
    """Write n = f*f * rest with rest squarefree; returns (f, rest).

    One trial-division pass divides out each prime p it finds. Once p passes
    the cube root of what is left, that has no prime factor below p, so it
    is 1, a prime, a product of two primes or a prime square, and one isqrt
    settles it. Up to about n^(1/3) / 2 steps, fewer past small factors.
    """
    f = core = 1
    rest = n
    p = 2
    while p * p * p <= rest:
        if rest % p == 0:
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            f *= p ** (k // 2)
            core *= p ** (k % 2)
        p += 1 if p == 2 else 2
    s = math.isqrt(rest)
    if s * s == rest:
        return f * s, core
    return f, core * rest


# one entry: callers ask for gy_gap(d) and radius_closed_form(d) of one d in
# turn, so a bigger memo would only grow over a sweep of many d
@functools.lru_cache(maxsize=1)
def _closed_form_parts(d: int) -> tuple[int, int]:
    """_square_part(d*d - 4*d) for d >= 5 from the odd parts of d and d - 4:
    they are coprime, so trial division runs to the cube root of d, not d^2.
    """
    f, core, e = 1, 1, 0
    for x in (d, d - 4):
        k = (x & -x).bit_length() - 1   # the power of 2 in x
        fx, cx = _square_part(x >> k)
        f, core, e = f * fx, core * cx, e + k
    return f << (e // 2), core << (e % 2)
