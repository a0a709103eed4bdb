"""Exact characteristic polynomials and certified spectral radii.

Characteristic polynomials come from the power sums tr(A^k) by Newton's
identities; each trace is read off one Krylov step A^k -> A^(k+1) on rows
packed into single integers (_linalg.char_poly_coeffs), with no matrix product.

The radius certificate decides every sign exactly: in floating point only when
a proven error bound excludes zero, and otherwise in exact integers
(_sign_at). The largest root modulus of an integer matrix equals the square
root of the largest real root of the polynomial whose roots are all pairwise
products of eigenvalues (a conjugate pair contributes its squared modulus, and
no pairwise product can exceed the squared radius). That polynomial is built
in integers: the power sums s_k of the distinct eigenvalues come from Newton's
identities, (s_k^2 + s_2k) / 2 are the power sums of the products mu_a * mu_b
with a <= b, and Newton's identities run backwards give its coefficients. One
Sturm chain of it, from integer pseudo-remainders scaled by |lc| > 0 to
primitive parts, gives its squarefree part s0 (the last entry is the gcd with
the derivative) and counts the roots of s0 at every point where s0 != 0. Its
top real root is bracketed by bisection on integer numerators over one
denominator: Sturm counts decide each step only until the bracket holds that
root alone, and from then on the sign of the polynomial at the midpoint does.
Floating estimates only seed the bracket; a non-finite estimate is never used,
and every adopted bound is re-proved by an exact root count. The seed is
numpy's eigvals, and numpy is imported inside spectral_radius when it takes
that seed: importing the package or running any other function does not load
numpy.

The certificate runs on one polynomial p, chosen before any pairwise chain is
built. With numpy's seed [lo, hi] / q (squares of est * 999/1000 and
est * 1001/1000), p is the residual r of the squarefree char poly sq over its
cyclotomic factors Phi_m when lo^2 >= hi q, and hi - lo <= q or
lo^3 >= (n(n+1)/2 + 1) hi^2 q (n = deg sq), and r is neither 1 nor sq; else
sq. With no seed, or one that fails its checks on p, sq runs unseeded. Either
choice gives sq's bracket byte for byte. Checks passed on r put the square of
its radius in (lo / q, hi / q), and the first guard gives
1 < sqrt(hi / q) <= lo / q: so r holds the radius rho, and rho < lo / q. A
root of the full s0 that involves a root of unity has modulus at most rho, so
above lo / q both s0 have the same roots, Sturm counts and signs (their
quotient is positive there). The second guard keeps sq's cap hi <= bound q
from binding: Cauchy gives bound > rho^2 + 1, and Landau
M(s0) <= sqrt(deg s0 + 1) max|c|, with M(s0) >= rho^3 as rho^2 and lambda zeta
(|lambda| = rho, zeta stripped) are roots. A seed that fails on r fails on sq:
the real roots of s0_r are roots of s0_sq, both top out at rho^2 (r != 1 holds
every root of modulus rho > 1), and a failed count or sign at hi puts rho^2 at
or above hi / q, below bound.

Once [lo, hi] / q isolates x* = rho^2, each step keeps the half holding x*:
the loop walks the dyadic path of x* (_dyadic_bracket) to its first bracket
that passes the width test. Seeded, spectral_radius takes that bracket on the
path of est^2, at depth j <= min(32, max_steps), and proves it by two exact
signs: lo_sign at its low end and -lo_sign at its high end put x* strictly
inside, so no earlier midpoint (an end of a coarser cell) was a root and each
step to depth j decides as the loop would. The loop goes on with steps = j
(from the seed if the proof fails), raising past max_steps where it did.
Radius 1 (Kronecker): if r is 1 and lo < q < hi, every root of s0 has modulus
1, the only positive one is 1 (zeta conj(zeta) or (+-1)^2), and hi / q <
(1001 / 999)^2 < 3 <= bound: the seed check passes with above_lo == 1, and
the path of 1 (if no deeper than max_steps) is returned before any pairwise
chain is built. 1 is no midpoint a^2 (998001 + 4000 k / 2^j) / (10^6 b^2) of
this seed (est = a / b, b = 2^m): that needs a^2 | 5^6, est = 1 needs 4000 k =
1999 2^j, and no a / 2^m, a in {5, 25, 125}, is within 0.1% of 1 (else None).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import _linalg
from ._linalg import _closed_form_parts, _square_part, to_int
from ._record import Record
from .errors import CertificationError, LatticeInputError

# Polynomials are ascending integer coefficient lists.


class CharPoly(Record):
    """Monic integer characteristic polynomial, coefficients ascending."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        coeffs = tuple(to_int(c, "coefficient") for c in coeffs)
        if not coeffs or coeffs[-1] not in (1, -1):
            raise LatticeInputError("leading coefficient must be +-1")
        self.__dict__.update(coeffs=coeffs)

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
        self.__dict__.update(value=value, lo=lo, hi=hi, tolerance=tolerance)


def char_poly(matrix) -> CharPoly:
    """Exact characteristic polynomial of a non-empty square integer matrix."""
    rows = _linalg.to_int_matrix(matrix)
    if not rows:
        raise LatticeInputError("matrix must be non-empty")
    return CharPoly._of(coeffs=tuple(_linalg.char_poly_coeffs(rows)))


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


def _poly_quo(a, b) -> list[int] | None:
    """Quotient a / b of integer polynomials, or None if it is not in Z[x]."""
    lead = b[-1]
    k = len(b) - 1
    r = list(a)
    quot = [0] * (len(a) - k)
    for shift in range(len(a) - 1 - k, -1, -1):
        c, m = divmod(r[shift + k], lead)
        if m:
            return None
        quot[shift] = c
        if c:
            for i, y in enumerate(b):
                r[shift + i] -= c * y
    return None if any(r[:k]) else quot


@functools.cache
def _cyclotomics(n: int) -> tuple[tuple[int, ...], ...]:
    """Phi_m = (x^m - 1) / prod Phi_d (d | m, d < m) for phi(m) <= n, once per
    n; m <= max(6, n^2) as phi(m) >= sqrt(m) for m > 6. A divisor d is missing
    only if phi(d) > n, so phi(m) <= n iff m - sum deg Phi_d (d listed) is."""
    table = {}
    for m in range(1, max(6, n * n) + 1):
        divs = [d for d in table if m % d == 0]
        if m - sum(len(table[d]) - 1 for d in divs) <= n:
            p = [-1] + [0] * (m - 1) + [1]
            for d in divs:
                p = _poly_quo(p, table[d])
            table[m] = tuple(p)
    return tuple(table.values())


def _strip_cyclotomic(p) -> list[int]:
    """Monic squarefree p over every Phi_m that divides it. By Kronecker's
    theorem the residual is 1 or has a root of modulus above 1."""
    for cyc in _cyclotomics(len(p) - 1):
        if len(cyc) <= len(p) and (quot := _poly_quo(p, cyc)) is not None:
            p = quot
    return p


def _squarefree_part(chain) -> list[int]:
    """Squarefree part of chain[0] from its Sturm chain, which ends in the gcd
    with the derivative; primitive, with a positive leading coefficient."""
    p, g = chain[0], chain[-1]
    out = list(p) if len(g) == 1 else _poly_quo(p, g)
    if out is None:
        raise AssertionError("polynomial division was not exact")
    if len(g) > 1:
        out = _poly_primitive(out)
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def _sign_at(poly, u: int, w: int = 1) -> int:
    """Sign of an integer polynomial p of degree n at the rational point
    u / w, w > 0: from binary64 when a proven error bound excludes zero,
    otherwise from exact integers.

    The filter evaluates p^ = fl(p)(x^) by Horner's rule at x^ = fl(u / w)
    with the coefficients c^_k = fl(c_k), and beside it m^, the same rule on
    |c^_k| at |x^|. CPython rounds int / int and float(int) correctly, so
    with e = 2^-53, gamma_j = j e / (1 - j e) and no underflow or overflow:
    Horner's rule is exact for coefficients perturbed by at most gamma_2n
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1),
    so |p^ - sum c^_k x^^k| <= gamma_2n M with M = sum |c^_k| |x^|^k; each
    term of sum c^_k x^^k - p(u / w) is c_k x^k ((1 + d)(1 + d')^k - 1) with
    |d|, |d'| <= e, so that difference is at most gamma_(n+1) sum |c_k|
    |x|^k <= gamma_(n+1) M / (1 - e)^(n+1); and m^ sums non-negative terms,
    so M <= m^ / (1 - gamma_2n). Hence |p^ - p(u / w)| is below
    (3n + 1) e m^ (1 + 2^-9) for any n < 2^40, while the computed threshold
    (4n + 8) 2^-52 m^ (one rounding) is at least (8n + 16) e m^ (1 - e),
    over twice that. So |p^| above the threshold gives the sign of p(u / w).

    Underflow: a nonzero running value of p^ just after a nonzero c^_k is
    at least 2^-53 in size (a float of size 1/2 or more plus an integer is a
    multiple of 2^-53; a smaller float plus a nonzero integer is more than
    1/2 from zero), a running m^ just after a nonzero c^_k is at least 1,
    and later products multiply these by x^ at most n times. With
    x^ = 0 from u = 0 each product is an exact 0; with |x^| >= 1 nothing
    shrinks; with |x^| >= 2^(k - 1) (k the frexp exponent of x^) and
    n (1 - k) <= 960 each product stays above 2^-1013 (1 - e)^n > 2^-1022.
    In these cases no product and not the threshold underflows, and a sum
    that lands below 2^-1022 is exact, so the bound above holds. The other
    cases (x^ = 0 from u != 0, a subnormal x^, or a power of x^ that may
    underflow) take the exact route. Overflow: int / int and float(int)
    raise OverflowError; a product or sum that overflows gives inf or nan,
    and since rounding is monotone and odd each running |p^| is at most the
    matching running m^, so m^ is then inf or nan (x^ != 0 there) and the
    comparison with the threshold fails. These cases, a value inside the
    bound (every exact zero among them) and the zero polynomial take the
    exact route: sum c_k u^k w^(n-k), which is p(u / w) scaled by the
    positive factor w^n.
    """
    n = len(poly) - 1
    try:
        x = u / w
        ax = abs(x)
        p = m = 0.0
        for c in map(float, reversed(poly)):
            p = p * x + c
            m = m * ax + abs(c)
    except OverflowError:
        pass
    else:
        if abs(p) > (4 * n + 8) * 2.0 ** -52 * m and (
                ax >= 1.0 or not u
                or (x and n * (1 - math.frexp(x)[1]) <= 960)):
            return (p > 0) - (p < 0)
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


def _certificate_chain(p):
    """(chain, s0, V(+inf), bound) of p's pairwise-product polynomial: no root
    of s0 is >= bound, so by Sturm's theorem chain counts V(+inf) there."""
    chain = _sturm_chain(_pairwise_product_poly(p))
    s0 = _squarefree_part(chain)
    v_top = sum(1 for a, b in zip(chain, chain[1:])
                if (a[-1] > 0) != (b[-1] > 0))
    return chain, s0, v_top, 2 + max(abs(c) for c in s0)


def _residual_guards(lo: int, hi: int, q: int, n: int) -> bool:
    """The module docstring's guards on the seed [lo, hi] / q, deg sq = n."""
    return lo * lo >= hi * q and (
        hi - lo <= q or lo ** 3 >= (n * (n + 1) // 2 + 1) * hi * hi * q)


def _root_bounds(lo: int, hi: int, q: int, scale: int) -> tuple[int, int]:
    """floor(sqrt(lo / q) scale) and floor(sqrt(hi / q) scale) + 1."""
    return (math.isqrt(lo * scale * scale // q),
            math.isqrt(hi * scale * scale // q) + 1)


def _dyadic_bracket(lo, hi, q, x: Fraction, scale, width, cap=math.inf):
    """(j, lo_j, hi_j, q_j): the first bracket on the dyadic path of x through
    [lo, hi] / q that passes the width test r_hi - r_lo <= width, or the one
    at depth j = cap; None unless lo < x q < hi and x is on no midpoint.

    At depth j it starts at lo / q + k (hi - lo) / (q 2^j), k = floor((x q -
    lo) 2^j / (hi - lo)); x is on a midpoint iff the floor is exact. On a
    nested path r_lo never falls and r_hi never grows, so the test only
    tightens: the depth is bisected, evaluating no polynomial, past each j with
    2^j <= t, where r_hi - r_lo > scale (hi-lo)/(2^(j+1) sqrt(hi q)) >= width.
    """
    span = hi - lo
    num, den = x.numerator * q - lo * x.denominator, span * x.denominator
    if not 0 < num < den:
        return None

    def cell(j):
        k, rem = divmod(num << j, den)
        return rem, (j, (lo << j) + k * span, (lo << j) + (k + 1) * span,
                     q << j)

    def fits(j):
        r_lo, r_hi = _root_bounds(*cell(j)[1][1:], scale)
        return r_hi - r_lo <= width

    t = scale * span // (2 * width * (math.isqrt(hi * q) + 1))
    bad = min(t.bit_length() - 1, cap)  # no depth up to bad passes
    good = min(bad + 1, cap)  # passes, or is cap
    while good < cap and not fits(good):
        bad, good = good, min(3 * good - 2 * bad, cap)
    while good - bad > 1:
        mid = (bad + good) // 2
        bad, good = (bad, mid) if fits(mid) else (mid, good)
    rem, path = cell(good)
    return path if rem else None


def _result(r_lo, r_hi, scale, tolerance) -> CertifiedRadius:
    """[r_lo, r_hi] / scale, valued at its midpoint's float (else r_lo's)."""
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
    return CertifiedRadius._of(value=value, lo=lo_root, hi=hi_root,
                               tolerance=tolerance)


def spectral_radius(matrix, tolerance: float = 1e-9,
                    max_steps: int = 10 ** 6) -> CertifiedRadius:
    """Certified spectral radius of a square integer matrix.

    The returned interval [lo, hi] has width at most `tolerance`, every
    eigenvalue modulus is at most hi, and at least one eigenvalue modulus is
    at least lo. Deterministic for fixed input and tolerance.
    """
    rows = _linalg.to_int_matrix(matrix)
    if not rows:
        raise LatticeInputError("matrix must be non-empty")
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise LatticeInputError("tolerance must be positive and finite")
    coeffs = _linalg.char_poly_coeffs(rows)
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) == 1:
        return _result(0, 0, 1, tolerance)
    sq = _squarefree_part(_sturm_chain(coeffs))
    # log2(8 / tolerance), but 8 / tolerance overflows below about 4.5e-308
    scale = 1 << max(24, math.ceil(3 - math.log2(tolerance)))
    width = math.floor(Fraction(tolerance) * scale)

    # Optional float seed; adopted only if the exact counts confirm it.
    # numpy is imported here, its one use, so that nothing else loads it.
    import numpy as np

    try:
        est = float(max(abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
    except (OverflowError, np.linalg.LinAlgError, ValueError):
        est = 0.0
    p = sq  # or the residual r, as the module docstring chooses
    if seeded := 0 < est < math.inf:
        a, b = est.as_integer_ratio()
        lo, hi, q = (999 * a) ** 2, (1001 * a) ** 2, (1000 * b) ** 2
        # radius 1 (Kronecker): the path of 1 is the seeded route's
        path = lo < q < hi and _strip_cyclotomic(sq) == [1] and (
            _dyadic_bracket(lo, hi, q, Fraction(1), scale, width))
        if path and path[0] <= max_steps:
            return _result(*_root_bounds(*path[1:], scale), scale, tolerance)
        if _residual_guards(lo, hi, q, len(sq) - 1):
            r = _strip_cyclotomic(sq)
            if 1 < len(r) < len(sq):
                p = r
    chain, s0, v_top, bound = _certificate_chain(p)
    if seeded:  # the bracket [lo / q, hi / q] of the squared radius
        hi = min(bound * q, hi) if p is sq else hi
        seeded = (lo < hi and (lo_sign := _sign_at(s0, lo, q))
                  and _sign_at(s0, hi, q)
                  and _variations(chain, hi, q) == v_top
                  and (above_lo := _variations(chain, lo, q) - v_top) >= 1)
    if not seeded:
        if p is not sq:
            chain, s0, v_top, bound = _certificate_chain(sq)
        lo, hi, q, lo_sign = 0, bound, 1, _sign_at(s0, 0)
        if (above_lo := _variations(chain, 0) - v_top) < 1:
            raise CertificationError("no positive root located for the radius")

    # Always no root of s0 above hi / q, and s0(hi / q) != 0. Once exactly one
    # root lies above lo / q and s0(lo / q) != 0, that root is simple and is
    # the only sign change of s0 in the bracket, so the sign of s0 at a
    # midpoint tells which half holds it. lo_sign is the sign at lo / q from
    # then on, and 0 while Sturm counts still decide.
    lo_sign, steps = lo_sign if above_lo == 1 else 0, 0
    # seeded and isolated: est^2's path, proved by two signs (module docstring)
    if seeded and lo_sign and (path := _dyadic_bracket(
            lo, hi, q, Fraction(a * a, b * b), scale, width, 32)) and (
            path[0] <= max_steps and _sign_at(s0, path[1], path[3]) == lo_sign
            and _sign_at(s0, path[2], path[3]) == -lo_sign):
        steps, lo, hi, q = path
    while True:
        r_lo, r_hi = _root_bounds(lo, hi, q, scale)  # hi > 0 throughout
        if r_hi - r_lo <= width:
            return _result(r_lo, r_hi, scale, tolerance)
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
            # mid is exactly a pairwise product, hence a certified lower
            # bound; the point halfway to hi, else a quarter of the way, and
            # so on, takes the place of mid once s0 != 0 there
            lo, ph, lo_sign = mid, hi, 0
            while not mid_sign:
                lo, hi, q, ph = 2 * lo, 2 * hi, 2 * q, 2 * ph
                mid = ph = (lo + ph) // 2
                mid_sign = _sign_at(s0, mid, q)
        if lo_sign:
            above = mid_sign == lo_sign
        else:
            above = _variations(chain, mid, q) - v_top
            if above == 1:
                lo_sign = mid_sign
        if above:
            lo = mid
        else:
            hi = mid


# --- exact quadratic surds ---------------------------------------------------

class QuadraticSurd(Record):
    """Exact real number a + b*sqrt(root) with rational a, b.

    Canonical form: the constructor pulls square factors out of the int root
    by one trial-division pass (up to about root^(1/3) / 2 steps), and a
    rational value is stored with b == 0, root == 0. A sum or negation over
    one squarefree root is canonical once b == 0 drops the root, so +, - and
    the comparisons run no trial division. Exact signs and comparisons
    against rationals are what certified inequalities need.
    """

    a: Fraction
    b: Fraction
    root: int

    def __init__(self, a, b, root):
        a = a if type(a) is Fraction else Fraction(a)
        b = b if type(b) is Fraction else Fraction(b)
        root = to_int(root, "surd root", 0)
        if b != 0 and root > 1:
            f, root = _square_part(root)
            if f > 1:
                b *= f
        if root in (0, 1) and b != 0:
            a += b
            b = Fraction(0)
        if b == 0:
            root = 0
        self.__dict__.update(a=a, b=b, root=root)

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
        b = self.b + o.b
        return QuadraticSurd._of(a=self.a + o.a, b=b,
                                 root=(self.root or o.root) if b else 0)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._of(a=-self.a, b=-self.b, root=self.root)

    def __pos__(self):
        return self

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
    if to_int(d, "d", 1) <= 4:
        return QuadraticSurd.from_rational(1)
    f, core = _closed_form_parts(d)
    return QuadraticSurd._of(a=Fraction(d - 2, 2), b=Fraction(f, 2), root=core)


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


def matrix_from_obj(data):
    """The matrix of {"matrix": [[...]]}, or data itself; char_poly and
    spectral_radius check it."""
    if isinstance(data, dict):
        if "matrix" not in data:
            raise LatticeInputError("matrix JSON needs key 'matrix'")
        data = data["matrix"]
    return data
