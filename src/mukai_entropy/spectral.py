"""Exact characteristic polynomials and certified spectral radii.

Characteristic polynomials come from the power sums tr(A^k) by Newton's
identities; the traces past A^ceil(n/2) are traces of products of two lower
powers, so half the matrix products of Faddeev-LeVerrier are left out.

The radius certificate never trusts floating point. The largest root modulus
of an integer matrix equals the square root of the largest real root of the
polynomial whose roots are all pairwise products of eigenvalues (a conjugate
pair contributes its squared modulus, and no pairwise product can exceed the
squared radius). That polynomial is built in integers: the power sums s_k of
the distinct eigenvalues come from Newton's identities, (s_k^2 + s_2k) / 2 are
the power sums of the products mu_a * mu_b with a <= b, and Newton's
identities run backwards give its coefficients. One Sturm chain of it, from
integer pseudo-remainders scaled by |lc| > 0 to primitive parts, gives its
squarefree part s0 (the last entry is the gcd with the derivative) and counts
the roots of s0 at every point where s0 != 0. Its top real root is bracketed
by bisection at rational points: Sturm counts decide each step only until the
bracket holds that root alone, and from then on the sign of the polynomial at
the midpoint does. Floating estimates only seed the bracket; every adopted
bound is re-proved by an exact root count. The seed is numpy's eigvals, and
numpy is imported inside spectral_radius when it takes that seed: importing
the package or running any other function does not load numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _linalg
from ._record import Record
from .errors import CertificationError, LatticeInputError

# Polynomials are ascending integer coefficient lists.


class CharPoly(Record):
    """Monic integer characteristic polynomial, coefficients ascending."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise LatticeInputError("coefficients must be integers")
        coeffs = tuple(coeffs)
        if not coeffs or coeffs[-1] not in (1, -1):
            raise LatticeInputError("leading coefficient must be +-1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class CertifiedRadius(Record):
    """Spectral radius bracketed by exact rational bounds.

    Every eigenvalue modulus is <= hi and at least one is >= lo; the float
    value is a convenience representative inside [lo, hi].
    """

    value: float
    lo: Fraction
    hi: Fraction
    tolerance: float

    def __init__(self, value, lo, hi, tolerance):
        if not (lo <= hi):
            raise CertificationError("certified interval is inverted")
        if hi - lo > Fraction(tolerance):
            raise CertificationError("certified interval wider than tolerance")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "tolerance", tolerance)


def _check_square_int(matrix) -> tuple[tuple[int, ...], ...]:
    rows = _linalg.to_int_matrix(matrix)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise LatticeInputError("matrix must be square and non-empty")
    return rows


def char_poly(matrix) -> CharPoly:
    """Exact characteristic polynomial of a square integer matrix."""
    return CharPoly(tuple(_linalg.char_poly_coeffs(_check_square_int(matrix))))


# --- polynomial helpers ------------------------------------------------------

def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_deriv(p):
    return [i * p[i] for i in range(1, len(p))] or [0]


def _poly_primitive(p) -> list[int]:
    """Divide an integer polynomial by the gcd of its coefficients."""
    g = math.gcd(*p)
    return [x // g for x in p] if g > 1 else list(p)


def _poly_rem(a, b) -> list[int]:
    """Primitive part of a positive multiple of the remainder of a mod b.

    Integer pseudo-division by b with a positive leading coefficient, which
    leaves the remainder as it is: each step scales the running remainder by
    |lc(b)| > 0 before cancelling its top term, so no sign is tracked.
    """
    if b[-1] < 0:
        b = [-y for y in b]
    lead = b[-1]
    k = len(b) - 1
    r = _poly_trim(list(a))
    while len(r) > k and r != [0]:
        top = r[-1]
        shift = len(r) - 1 - k
        r = [lead * x for x in r[:shift]] + [
            lead * x - top * y for x, y in zip(r[shift:-1], b)]
        r = _poly_trim(r or [0])
    return _poly_primitive(r)


def _poly_exact_quo(a, b) -> list[int]:
    """Quotient a / b of integer polynomials that b divides exactly."""
    lead = b[-1]
    k = len(b) - 1
    r = list(a)
    quot = [0] * (len(a) - k)
    for shift in range(len(a) - 1 - k, -1, -1):
        c, m = divmod(r[shift + k], lead)
        if m:
            raise AssertionError("polynomial division was not exact")
        quot[shift] = c
        if c:
            for i, y in enumerate(b):
                r[shift + i] -= c * y
    if any(r[:k]):
        raise AssertionError("polynomial division was not exact")
    return quot


def _squarefree_part(chain) -> list[int]:
    """Squarefree part of chain[0] from its Sturm chain, which ends in the gcd
    with the derivative; primitive, with a positive leading coefficient."""
    p, g = chain[0], chain[-1]
    out = list(p) if len(g) == 1 else _poly_primitive(_poly_exact_quo(p, g))
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def _sign_at(poly, u: int, w: int = 1) -> int:
    """Sign of an integer polynomial at the rational point u / w, w > 0,
    integer-only.

    Computes sum poly[k] * u^k * w^(n-k), which is p(u/w) scaled by the
    positive factor w^n.
    """
    n = len(poly) - 1
    acc = 0
    wp = 1
    for k in range(n, -1, -1):
        acc = acc * u + poly[k] * wp
        wp *= w
    return (acc > 0) - (acc < 0)


def _sturm_chain(p) -> list[list[int]]:
    """Sturm chain of p, of degree at least 1; each entry is the negated
    remainder scaled by a positive factor to primitive integers."""
    chain = [list(p), _poly_primitive(_poly_deriv(p))]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if rem == [0]:
            break
        chain.append([-x for x in rem])
    return chain


def _variations(chain, u: int, w: int = 1) -> int:
    signs = [s for s in (_sign_at(p, u, w) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _power_sums(p, count: int) -> list[int]:
    """Power sums s_1..s_count of the roots of monic p (Newton's identities);
    s[0] is unused."""
    n = len(p) - 1
    s = [0] * (count + 1)
    for k in range(1, count + 1):
        acc = k * p[n - k] if k <= n else 0
        acc += sum(p[n - i] * s[k - i] for i in range(1, min(k - 1, n) + 1))
        s[k] = -acc
    return s


def _pairwise_product_poly(q) -> list[int]:
    """Monic polynomial whose roots are the products mu_a * mu_b, a <= b, of
    the roots of q, counted with multiplicity.

    q must be monic with nonzero constant term. With s_k the power sums of q,
    (s_k^2 + s_2k) / 2 are the power sums of the products; Newton's
    identities run backwards turn them into coefficients, dividing exactly
    by k at step k.
    """
    if q[-1] != 1 or q[0] == 0:
        raise ValueError("polynomial must be monic with nonzero constant term")
    n = len(q) - 1
    deg = n * (n + 1) // 2
    s = _power_sums(q, 2 * deg)
    twice = [s[k] * s[k] + s[2 * k] for k in range(deg + 1)]
    if any(t % 2 for t in twice):
        raise AssertionError("Newton's identities gave a non-integer")
    return _linalg.monic_from_power_sums([t // 2 for t in twice])


def _common_denominator(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """Numerators of x and y over their least common denominator q, and q."""
    q = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (q // x.denominator),
            y.numerator * (q // y.denominator), q)


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
    coeffs = _linalg.char_poly_coeffs(rows)
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) == 1:
        return CertifiedRadius(0.0, Fraction(0), Fraction(0), tolerance)
    chain = _sturm_chain(
        _pairwise_product_poly(_squarefree_part(_sturm_chain(coeffs))))
    s0 = _squarefree_part(chain)
    # every count below is at a point where s0 != 0, so chain counts s0's roots
    bound = 2 + max(abs(c) for c in s0)
    v_top = _variations(chain, bound)

    def count_above(u: int, w: int = 1) -> int:
        return _variations(chain, u, w) - v_top

    tol = Fraction(tolerance)
    # log2(8 / tolerance), but 8 / tolerance overflows below about 4.5e-308
    bits = max(24, math.ceil(3 - math.log2(tolerance)))
    lo2, hi2 = Fraction(0), Fraction(bound)
    above_lo = count_above(0)
    if above_lo < 1:
        raise CertificationError("no positive root located for the radius")

    # Optional float seed; adopted only if the exact counts confirm it.
    # numpy is imported here, its one use, so that nothing else loads it.
    import numpy as np

    try:
        est = float(max(abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
    except (OverflowError, np.linalg.LinAlgError, ValueError):
        est = 0.0
    if est > 0:
        seed = Fraction(est)  # squared within a margin of 1/1000
        lo_c = (seed * Fraction(999, 1000)) ** 2
        hi_c = min(Fraction(bound), (seed * Fraction(1001, 1000)) ** 2)
        if (
            lo_c < hi_c
            and _sign_at(s0, *lo_c.as_integer_ratio()) != 0
            and _sign_at(s0, *hi_c.as_integer_ratio()) != 0
            and count_above(*hi_c.as_integer_ratio()) == 0
            and (above_c := count_above(*lo_c.as_integer_ratio())) >= 1
        ):
            lo2, hi2, above_lo = lo_c, hi_c, above_c

    # Bisection on the numerators lo, hi over a common denominator q. Always
    # count_above(hi / q) == 0 and s0(hi / q) != 0. Once exactly one root
    # lies above lo / q and s0(lo / q) != 0, that root is simple and is the
    # only sign change of s0 in the bracket, so the sign of s0 at a midpoint
    # tells which half holds it. lo_sign is the sign at lo / q from then on,
    # and 0 while Sturm counts still decide.
    lo, hi, q = _common_denominator(lo2, hi2)
    lo_sign = _sign_at(s0, lo, q) if above_lo == 1 else 0
    scale = 1 << bits
    width = math.floor(tol * scale)
    steps = 0
    while True:
        # floor(sqrt(lo / q) * scale) and one more than floor(sqrt(hi / q) *
        # scale) bound the square roots; hi > 0 throughout
        r_lo = math.isqrt(lo * scale * scale // q)
        r_hi = math.isqrt(hi * scale * scale // q) + 1
        if r_hi - r_lo <= width:
            lo_root, hi_root = Fraction(r_lo, scale), Fraction(r_hi, scale)
            mid = (lo_root + hi_root) / 2
            try:
                value = float(mid)
            except OverflowError as exc:
                raise LatticeInputError(
                    f"spectral radius of about 2^{math.floor(mid).bit_length()}"
                    f" is past the float range"
                ) from exc
            if not (lo_root <= Fraction(value) <= hi_root):
                value = float(lo_root)
            return CertifiedRadius(value, lo_root, hi_root, tolerance)
        steps += 1
        if steps > max_steps:
            raise CertificationError(
                f"radius certification exceeded {max_steps} refinement steps"
            )
        if (lo + hi) % 2:
            lo, hi, q = 2 * lo, 2 * hi, 2 * q
        mid = (lo + hi) // 2
        mid_sign = _sign_at(s0, mid, q)
        if mid_sign == 0:
            # mid is exactly a pairwise product, hence a certified lower bound
            root = Fraction(mid, q)
            off = (Fraction(hi, q) - root) / 2
            while _sign_at(s0, *(root + off).as_integer_ratio()) == 0:
                off /= 2
            probe = root + off
            if count_above(*probe.as_integer_ratio()) == 0:
                lo2, hi2 = root, probe
            else:
                lo2, hi2 = probe, Fraction(hi, q)
            lo, hi, q = _common_denominator(lo2, hi2)
            lo_sign = 0
        elif lo_sign:
            if mid_sign == lo_sign:
                lo = mid
            else:
                hi = mid
        else:
            above = count_above(mid, q)
            if above >= 1:
                lo = mid
                if above == 1:
                    lo_sign = mid_sign
            else:
                hi = mid


# --- exact quadratic surds ---------------------------------------------------

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


class QuadraticSurd(Record):
    """Exact real number a + b*sqrt(root) with rational a, b.

    Canonical form: square factors are pulled out of the int root by one
    trial-division pass (up to about root^(1/3) / 2 steps per construction),
    and a rational value is stored with b == 0, root == 0. Supports exact
    sign computation and comparison against rationals, which is what
    certified inequalities need.
    """

    a: Fraction
    b: Fraction
    root: int

    def __init__(self, a, b, root):
        a = a if type(a) is Fraction else Fraction(a)
        b = b if type(b) is Fraction else Fraction(b)
        if isinstance(root, bool) or not isinstance(root, int) or root < 0:
            raise LatticeInputError("surd root must be a non-negative integer")
        if b != 0 and root > 1:
            f, root = _square_part(root)
            if f > 1:
                b *= f
        if root in (0, 1) and b != 0:
            a += b
            b = Fraction(0)
        if b == 0:
            root = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "root", root)

    @classmethod
    def _canonical(cls, a: Fraction, b: Fraction, root: int) -> "QuadraticSurd":
        """Wrap parts already in canonical form, skipping __init__."""
        surd = object.__new__(cls)
        surd.__dict__.update(a=a, b=b, root=root)
        return surd

    @staticmethod
    def from_rational(x) -> "QuadraticSurd":
        return QuadraticSurd(Fraction(x), Fraction(0), 0)

    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
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

    Equals 1 for d <= 4 and (d - 2 + sqrt(d^2 - 4d)) / 2 for d >= 5. The
    square part of d^2 - 4d = (d - 2)^2 - 4 (never a square) takes up to
    about d^(1/3) / 2 trial divisions, when d and d - 4 are both prime.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise LatticeInputError("d must be a positive integer")
    if d <= 4:
        return QuadraticSurd.from_rational(1)
    f, core = _closed_form_parts(d)
    return QuadraticSurd._canonical(Fraction(d - 2, 2), Fraction(f, 2), core)


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
