"""Independent checks of case outputs, in plain Python without the package.

Each function returns a list of problems; an empty list means the output
passed. Pairings are recomputed with explicit index loops and the closed
forms with exact integer arithmetic, never through the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from gen import mukai_pair


def digest(obj) -> str:
    """Short digest of a JSON-ready value, as stored in golden.json."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _gcd_all(xs) -> int:
    g = 0
    for x in xs:
        g = math.gcd(g, abs(x))
    return g


def _check_bracket(out, tol) -> list[str]:
    lo, hi = Fraction(out["lo"]), Fraction(out["hi"])
    bad = []
    if not lo <= hi:
        bad.append("inverted bracket")
    if hi - lo > Fraction(tol):
        bad.append("bracket wider than tolerance")
    # det = +-1, so some eigenvalue has modulus >= 1. lo >= 1 cannot be
    # demanded: when the radius is exactly 1 the bracket straddles it.
    if hi < 1:
        bad.append("radius of an isometry below 1")
    return bad


def _closed_form_in(lo: Fraction, hi: Fraction, d: int) -> bool:
    """lo <= rho(d) <= hi, where rho = (d - 2 + sqrt(d^2 - 4d)) / 2 for d > 4."""
    if d <= 4:
        return lo <= 1 <= hi
    disc = d * d - 4 * d
    x = 2 * lo - d + 2   # lo <= rho  <=>  x <= sqrt(disc)
    y = 2 * hi - d + 2   # rho <= hi  <=>  sqrt(disc) <= y
    return (x <= 0 or x * x <= disc) and y >= 0 and disc <= y * y


def check_word(case, out) -> list[str]:
    return _check_bracket(out, case["tol"])


def check_phi(case, out) -> list[str]:
    bad = _check_bracket(out, case["tol"])
    if not _closed_form_in(Fraction(out["lo"]), Fraction(out["hi"]), case["d"]):
        bad.append("closed-form radius outside the certified bracket")
    return bad


def check_search(case, out) -> list[str]:
    g, s = case["gram"], case["s"]
    rho = len(g)
    bad = []
    if [tuple(x) for x in out["signature"]] != [(2, rho, 0), (0, 1, 0),
                                                (2, rho - 1, 0)]:
        bad.append(f"signature report {out['signature']}")
    if len(out["complement"]) != rho + 1:
        bad.append("complement of s has the wrong rank")
    if any(mukai_pair(g, b, s) != 0 for b in out["complement"]):
        bad.append("complement vector not orthogonal to s")
    v = out["v"]
    if v is None:
        return bad
    q = mukai_pair(g, v, v)
    if _gcd_all(v) != 1:
        bad.append("v not primitive")
    if mukai_pair(g, v, s) != 0:
        bad.append("v not orthogonal to s")
    if q <= 0:
        bad.append("v^2 not positive")
    elif math.isqrt(2 * q) ** 2 == 2 * q:
        bad.append("2 v^2 is a perfect square")
    return bad


def check_gy(case, out) -> list[str]:
    bad = []
    for d, lower, log_rho, gap, certified, _ in out["rows"]:
        if not certified or not float(gap) > 0:
            bad.append(f"gap not certified positive at d={d}")
        disc = d * d - 4 * d
        rho = (d - 2 + math.sqrt(disc)) / 2 if d > 4 else 1.0
        if abs(float(log_rho) - math.log(rho)) > 1e-9 * max(1.0, math.log(rho)):
            bad.append(f"log radius off at d={d}")
        if float(lower) != math.log(d + 2):
            bad.append(f"lower bound is not log(d+2) at d={d}")
    return bad


def check_ext(case, out) -> list[str]:
    """growth_bound = (d+2)^n, top_dim by its product formula, and chi
    recomputed by applying the rank-3 twist-tensor matrix n times."""
    d, i, k = case["d"], case["i"], case["k"]
    h0 = lambda a: a * a * d + 2  # noqa: E731
    vec = (1, -i, i * i * d + 1)
    bad = []
    for n, top_degree, top_dim, growth, chi in out["rows"]:
        want_top = h0(i + k) if n == 0 else h0(i + 1) * h0(1) ** (n - 1) * h0(k)
        r, c, m = vec
        # Tensoring by -kH maps (r, c, m) to (r, c - k r, m - 2dk c + k^2 d r),
        # and chi(O, v) = -<(1, 0, 1), v> = r + m.
        want_chi = r + m - 2 * d * k * c + k * k * d * r
        if (top_degree, int(top_dim), int(growth), int(chi)) != \
                (n + 2, want_top, (d + 2) ** n, want_chi):
            bad.append(f"Ext row {n} disagrees")
            break
        vec = (-d * r + 2 * d * c - m, -r + c, -r)
    return bad


CHECKS = {"word": check_word, "phi": check_phi, "search": check_search,
          "gy": check_gy, "ext": check_ext}
