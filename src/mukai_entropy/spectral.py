"""Exact characteristic polynomials and certified spectral radii.

The radius certificate never trusts floating point. The largest root modulus
of an integer matrix equals the square root of the largest real root of the
polynomial whose roots are all pairwise products of eigenvalues (a conjugate
pair contributes its squared modulus, and no pairwise product can exceed the
squared radius). That polynomial is computed exactly through Sylvester
resultants, and its top real root is bracketed by Sturm-chain bisection in
rational arithmetic. Floating estimates only seed the bracket; every adopted
bound is re-proved by an exact root count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg
from .errors import CertificationError, LatticeInputError

# Polynomials are ascending integer (or Fraction) coefficient lists.


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, coefficients ascending."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        for c in self.coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise LatticeInputError("coefficients must be integers")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs or self.coeffs[-1] not in (1, -1):
            raise LatticeInputError("leading coefficient must be +-1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class CertifiedRadius:
    """Spectral radius bracketed by exact rational bounds.

    Every eigenvalue modulus is <= hi and at least one is >= lo; the float
    value is a convenience representative inside [lo, hi].
    """

    value: float
    lo: Fraction
    hi: Fraction
    tolerance: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise CertificationError("certified interval is inverted")
        if self.hi - self.lo > Fraction(self.tolerance):
            raise CertificationError("certified interval wider than tolerance")


def _check_square_int(matrix) -> tuple[tuple[int, ...], ...]:
    rows = _linalg.to_int_matrix(matrix)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise LatticeInputError("matrix must be square and non-empty")
    return rows


def char_poly(matrix) -> CharPoly:
    """Exact characteristic polynomial of an integer matrix.

    Faddeev-LeVerrier recursion; every division is exact and checked.
    """
    a = _check_square_int(matrix)
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
            mk = _linalg.mat_mul(a, shifted)
    return CharPoly(tuple(coeffs))


# --- polynomial helpers ------------------------------------------------------

def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_deriv(p):
    if len(p) == 1:
        return [0]
    return [i * p[i] for i in range(1, len(p))]


def _poly_divmod(num, den):
    num = [Fraction(x) for x in num]
    den = [Fraction(x) for x in den]
    den = _poly_trim(den)
    if den == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    rem = list(num)
    dlead = den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        f = rem[shift + len(den) - 1] / dlead
        if f != 0:
            quot[shift] = f
            for i, d in enumerate(den):
                rem[shift + i] -= f * d
    return _poly_trim(quot), _poly_trim(rem)


def _poly_primitive(p) -> list[int]:
    """Scale a rational polynomial by a positive factor to primitive integers."""
    fracs = [Fraction(x) for x in p]
    den_lcm = 1
    for x in fracs:
        den_lcm = den_lcm * x.denominator // math.gcd(den_lcm, x.denominator)
    ints = [int(x * den_lcm) for x in fracs]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _poly_gcd(p, q) -> list[int]:
    a = [Fraction(x) for x in _poly_trim(list(p))]
    b = [Fraction(x) for x in _poly_trim(list(q))]
    while b != [Fraction(0)]:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return _poly_primitive(a)


def _squarefree_part(p) -> list[int]:
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) == 1:
        out = list(p)
    else:
        quot, rem = _poly_divmod(p, g)
        assert rem == [Fraction(0)]
        out = _poly_primitive(quot)
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def _sign_at(poly, x: Fraction) -> int:
    """Sign of an integer polynomial at a rational point, integer-only.

    Computes sum poly[k] * u^k * w^(n-k), which is p(u/w) scaled by the
    positive factor w^n.
    """
    u, w = x.numerator, x.denominator
    n = len(poly) - 1
    acc = 0
    wp = 1
    for k in range(n, -1, -1):
        acc = acc * u + poly[k] * wp
        wp *= w
    return (acc > 0) - (acc < 0)


def _sturm_chain(p) -> list[list[int]]:
    chain = [list(p), _poly_primitive(_poly_deriv(p))]
    while len(chain[-1]) > 1:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if rem == [Fraction(0)]:
            break
        chain.append(_poly_primitive([-x for x in rem]))
    if chain[-1] == [0]:
        chain.pop()
    return chain


def _variations(chain, x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sylvester_resultant(f, g) -> int:
    """Resultant of two integer polynomials (ascending, nonzero leading)."""
    df, dg = len(f) - 1, len(g) - 1
    size = df + dg
    rows = []
    fd = list(reversed(f))
    gd = list(reversed(g))
    for i in range(dg):
        rows.append([0] * i + fd + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + gd + [0] * (size - dg - 1 - i))
    return _linalg.bareiss_det(rows)


def _root_product_poly(p) -> list[int]:
    """Monic polynomial whose roots are all pairwise products of roots of p.

    p must be monic with nonzero constant term. Built by interpolating
    t -> Res_y(p(y), y^n p(t/y)) at integer points.
    """
    n = len(p) - 1
    deg = n * n
    pts = list(range(deg + 1))
    vals = []
    for t in pts:
        # y^n p(t/y) has ascending y-coefficients p[n-j] * t^(n-j)
        q = [p[n - j] * t ** (n - j) for j in range(n + 1)]
        vals.append(_sylvester_resultant(p, q))
    # Newton divided differences, then expansion to coefficients
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
    assert all(x.denominator == 1 for x in poly)
    out = [int(x) for x in poly]
    assert out[-1] == 1, "pairwise-product polynomial should be monic"
    return out


def _sqrt_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) < hi with hi - lo <= 2 / 2**bits."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), Fraction(0)
    scale = 1 << bits
    t = (x.numerator * scale * scale) // x.denominator
    r = math.isqrt(t)
    return Fraction(r, scale), Fraction(r + 1, scale)


def spectral_radius(matrix, tolerance: float = 1e-9,
                    max_steps: int = 10 ** 6) -> CertifiedRadius:
    """Certified spectral radius of a square integer matrix.

    The returned interval [lo, hi] has width at most `tolerance`, every
    eigenvalue modulus is at most hi, and at least one eigenvalue modulus is
    at least lo. Deterministic for fixed input and tolerance.
    """
    rows = _check_square_int(matrix)
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise LatticeInputError("tolerance must be positive and finite")
    cp = char_poly(rows)
    coeffs = list(cp.coeffs)
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) == 1:
        return CertifiedRadius(0.0, Fraction(0), Fraction(0), tolerance)
    prod_poly = _root_product_poly(coeffs)
    s0 = _squarefree_part(prod_poly)
    chain = _sturm_chain(s0)
    bound = 2 + max(abs(c) for c in s0)
    v_top = _variations(chain, Fraction(bound))

    def count_above(x: Fraction) -> int:
        return _variations(chain, x) - v_top

    tol = Fraction(tolerance)
    bits = max(24, int(math.ceil(math.log2(8.0 / tolerance))))
    lo2, hi2 = Fraction(0), Fraction(bound)
    if count_above(lo2) < 1:
        raise CertificationError("no positive root located for the radius")

    # Optional float seed; adopted only if the exact counts confirm it.
    try:
        est = float(max(abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
    except (OverflowError, np.linalg.LinAlgError, ValueError):
        est = 0.0
    if est > 0:
        margin = Fraction(1, 1000)
        cand_lo = Fraction(est) * (1 - margin)
        cand_hi = Fraction(est) * (1 + margin)
        lo_c = max(Fraction(0), cand_lo * cand_lo)
        hi_c = min(Fraction(bound), cand_hi * cand_hi)
        if (
            lo_c < hi_c
            and _sign_at(s0, lo_c) != 0
            and _sign_at(s0, hi_c) != 0
            and count_above(hi_c) == 0
            and count_above(lo_c) >= 1
        ):
            lo2, hi2 = lo_c, hi_c

    steps = 0
    while True:
        lo_root, _ = _sqrt_bounds(lo2, bits)
        _, hi_root = _sqrt_bounds(hi2, bits)
        if hi_root - lo_root <= tol:
            mid = (lo_root + hi_root) / 2
            value = float(mid)
            if not (lo_root <= Fraction(value) <= hi_root):
                value = float(lo_root)
            return CertifiedRadius(value, lo_root, hi_root, tolerance)
        steps += 1
        if steps > max_steps:
            raise CertificationError(
                f"radius certification exceeded {max_steps} refinement steps"
            )
        mid = (lo2 + hi2) / 2
        if _sign_at(s0, mid) == 0:
            # mid is exactly a pairwise product, hence a certified lower bound
            off = (hi2 - mid) / 2
            while _sign_at(s0, mid + off) == 0:
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


# --- exact quadratic surds ---------------------------------------------------

def _square_part(n: int) -> tuple[int, int]:
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


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact real number a + b*sqrt(root) with rational a, b.

    Canonical form: square factors are pulled out of the root, and a rational
    value is stored with b == 0, root == 0. Supports exact sign computation
    and comparison against rationals, which is what certified inequalities
    need.
    """

    a: Fraction
    b: Fraction
    root: int

    def __post_init__(self):
        a = Fraction(self.a)
        b = Fraction(self.b)
        root = int(self.root)
        if root < 0:
            raise LatticeInputError("surd root must be non-negative")
        if b != 0 and root > 1:
            f, rest = _square_part(root)
            b *= f
            root = rest
        if root in (0, 1) and b != 0:
            a += b
            b = Fraction(0)
        if b == 0:
            root = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "root", root)

    @staticmethod
    def from_rational(x) -> "QuadraticSurd":
        return QuadraticSurd(Fraction(x), Fraction(0), 0)

    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs = a * a
        rhs = b * b * self.root
        if lhs == rhs:
            return 0
        if a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def _coerce(self, other) -> "QuadraticSurd":
        if isinstance(other, QuadraticSurd):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.b != 0 and o.b != 0 and self.root != o.root:
            raise LatticeInputError("cannot combine surds over different roots")
        root = self.root if self.b != 0 else o.root
        return QuadraticSurd(self.a + o.a, self.b + o.b, root)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.a, -self.b, self.root)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def _compare(self, other) -> int:
        diff = self - other
        return diff.sign()

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.root)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.root})"


def radius_closed_form(d: int) -> QuadraticSurd:
    """Exact spectral radius of the twist-tensor family at polarization degree d.

    Equals 1 for d <= 4 and (d - 2 + sqrt(d^2 - 4d)) / 2 for d >= 5.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise LatticeInputError("d must be a positive integer")
    if d <= 4:
        return QuadraticSurd.from_rational(1)
    return QuadraticSurd(Fraction(d - 2, 2), Fraction(1, 2), d * d - 4 * d)


# --- JSON interchange -------------------------------------------------------

def charpoly_to_dict(cp: CharPoly) -> dict:
    return {"coeffs": list(cp.coeffs)}


def charpoly_from_dict(data: dict) -> CharPoly:
    try:
        return CharPoly(tuple(data["coeffs"]))
    except (KeyError, TypeError) as exc:
        raise LatticeInputError("char poly JSON needs key 'coeffs'") from exc


def radius_to_dict(r: CertifiedRadius) -> dict:
    return {"value": r.value, "lo": str(r.lo), "hi": str(r.hi)}


def matrix_from_obj(data) -> tuple[tuple[int, ...], ...]:
    """Accept either {"matrix": [[...]]} or a bare [[...]] nested list."""
    if isinstance(data, dict):
        if "matrix" not in data:
            raise LatticeInputError("matrix JSON needs key 'matrix'")
        data = data["matrix"]
    if not isinstance(data, list) or not data:
        raise LatticeInputError("matrix must be a non-empty nested list")
    return _check_square_int(data)
