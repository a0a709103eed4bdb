"""Search for positive orthogonal classes and rank-2 isotropy bookkeeping.

Given a spherical class s, the goal is an integral primitive v orthogonal to
s with v^2 > 0 such that 2 v^2 is not a perfect square; equivalently, the
rank-2 span of s and v contains no isotropic vector. Enumeration runs over
coefficient boxes in an orthogonal-complement basis, and when every positive
hit in the box has square 2 v^2 the candidate is repaired by the perturbation
N v + u with u orthogonal to both s and v, which breaks squareness for all
but finitely many N.
"""

from __future__ import annotations

import math

from . import _linalg
from ._record import Record
from .errors import LatticeInputError, SearchExhaustedError
from .lattice import (
    K3LatticeModel,
    MukaiVector,
    add_vectors,
    is_perfect_square,
    is_spherical_class,
    mukai_pairing,
    orthogonal_complement_basis,
    pairing_matrix,
    primitive_vector,
    scale_vector,
    sign_normalized,
    signature_of,
    Signature,
    square,
    vector_to_dict,
)

_PERTURBATION_BUDGET = 10 ** 6


class Rank2Form(Record):
    """Gram matrix of the span of two Mukai classes."""

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram):
        g = _linalg.to_int_matrix(gram)
        if len(g) != 2 or any(len(row) != 2 for row in g):
            raise LatticeInputError("rank-2 form needs a 2x2 matrix")
        if g[0][1] != g[1][0]:
            raise LatticeInputError("rank-2 form must be symmetric")
        object.__setattr__(self, "gram", g)


def rank2_form(model: K3LatticeModel, s: MukaiVector,
               v: MukaiVector) -> Rank2Form:
    if not is_spherical_class(model, s):
        raise LatticeInputError("first class must be spherical (square -2)")
    p = mukai_pairing(model, s, v)
    return Rank2Form(((square(model, s), p), (p, square(model, v))))


def rank2_isotropy_free(model: K3LatticeModel, s: MukaiVector,
                        v: MukaiVector) -> bool:
    """True when the span of s and v contains no nonzero isotropic vector.

    For an orthogonal pair with s^2 = -2 this happens exactly when 2 v^2 is
    not a perfect square: a s + b v has square -2 a^2 + b^2 v^2.
    """
    if square(model, s) != -2:
        raise LatticeInputError("s must have square -2")
    if mukai_pairing(model, s, v) != 0:
        raise LatticeInputError("classes must be orthogonal")
    return not is_perfect_square(2 * square(model, v))


def _coefficient_shells(gram, bound: int):
    """Pairs (c, c^T G c), c of sup norm r for r = 1..bound, shortest first.

    Within a shell the order is by L1 norm, then lexicographic. Each L1 level
    is walked depth first with values ascending, so tuples come out lazily in
    that order; a branch is entered only when its remaining L1 budget can
    still be spent with entries in [-r, r] and reach |entry| = r somewhere,
    so every branch yields. The square is carried down the walk: setting
    entry i to x adds x (x g_ii + 2 sum_{j<i} c_j g_ij), with the sum taken
    once per node over the nonzero prefix, and x = 0 adds nothing.
    """
    rank = len(gram)
    coeffs = [0] * rank
    support = []

    def walk(i, r, rest, hit, q):
        if i == rank:
            yield tuple(coeffs), q
            return
        row = gram[i]
        cross = 2 * sum(coeffs[j] * row[j] for j in support)
        room = r * (rank - i - 1)
        for x in range(-r, r + 1):
            left = rest - abs(x)
            now_hit = hit or abs(x) == r
            if 0 <= left <= room and (now_hit or left >= r):
                coeffs[i] = x
                if x:
                    support.append(i)
                    yield from walk(i + 1, r, left, now_hit,
                                    q + x * (x * row[i] + cross))
                    support.pop()
                else:
                    yield from walk(i + 1, r, left, now_hit, q)

    for r in range(1, bound + 1):
        for l1 in range(r, r * rank + 1):
            yield from walk(0, r, l1, False, 0)


def _primitive_class(basis, coeffs) -> MukaiVector:
    coords = tuple(sum(c * x for c, x in zip(coeffs, column))
                   for column in zip(*(b.coords for b in basis)))
    return sign_normalized(primitive_vector(MukaiVector.from_coords(coords)))


def find_positive_orthogonal(model: K3LatticeModel, s: MukaiVector,
                             search_bound: int) -> MukaiVector:
    """Primitive v with <v, s> = 0, v^2 > 0 and 2 v^2 not a perfect square.

    Enumerates the orthogonal complement of s over coefficient boxes of
    growing sup norm. If positive classes exist in the box but all of them
    have square 2 v^2, the first one is perturbed by N v + u for the smallest
    N that works. An empty box raises SearchExhaustedError.
    """
    if not is_spherical_class(model, s):
        raise LatticeInputError(
            f"search needs a spherical class, got square {square(model, s)}"
        )
    if isinstance(search_bound, bool) or not isinstance(search_bound, int) \
            or search_bound < 1:
        raise LatticeInputError("search_bound must be a positive integer")
    basis = orthogonal_complement_basis(model, [s])
    gram = pairing_matrix(model, basis)
    first_positive = None
    for coeffs, q in _coefficient_shells(gram, search_bound):
        if q <= 0:
            continue
        # the basis is saturated (columns of a unimodular matrix), so the
        # content of the class is the gcd of its coefficients
        g = math.gcd(*coeffs)
        q //= g * g
        if not is_perfect_square(2 * q):
            v = _primitive_class(basis, coeffs)
            if square(model, v) != q or mukai_pairing(model, v, s) != 0:
                raise RuntimeError(f"search hit {v} fails its own check")
            return v
        if first_positive is None:
            first_positive = coeffs
    if first_positive is None:
        raise SearchExhaustedError(
            f"no positive orthogonal class within coefficient bound "
            f"{search_bound}; raise the bound"
        )
    return _perturb_square_case(model, s,
                                _primitive_class(basis, first_positive))


def _perturb_square_case(model: K3LatticeModel, s: MukaiVector,
                         v: MukaiVector) -> MukaiVector:
    basis = orthogonal_complement_basis(model, [s, v])
    u = _anisotropic_combination(model, basis)
    if u is None:
        raise SearchExhaustedError(
            "no anisotropic perturbation direction orthogonal to s and v"
        )
    for n in range(1, _PERTURBATION_BUDGET + 1):
        w = add_vectors(scale_vector(n, v), u)
        q = square(model, w)
        if q > 0 and not is_perfect_square(2 * q):
            if mukai_pairing(model, w, s) != 0:
                raise RuntimeError(f"search hit {w} fails its own check")
            return sign_normalized(primitive_vector(w))
    raise SearchExhaustedError(
        "perturbation budget exhausted without breaking squareness"
    )


def _anisotropic_combination(model, basis):
    for u in basis:
        if square(model, u) != 0:
            return u
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for cand in (add_vectors(basis[i], basis[j]),
                         add_vectors(basis[i], scale_vector(-1, basis[j]))):
                if square(model, cand) != 0:
                    return cand
    return None


class SignatureReport(Record):
    """Inertia bookkeeping around a spherical class.

    The ambient Mukai form has signature (2, rho): the model enforces NS
    signature (1, rho-1), and the H^0 + H^4 plane adds (1, 1). A spherical s
    spans a negative line, (0, 1), and since s^2 != 0 the rational lattice
    splits as Q s + s^perp, leaving (2, rho - 1) on the complement. These
    three are therefore returned without an elimination. When a
    negative-definite test subspace is supplied, the signature of its span
    together with s is computed and reported as well.
    """

    full: Signature
    s_line: Signature
    s_perp: Signature
    extended: Signature | None

    def __init__(self, full, s_line, s_perp, extended):
        object.__setattr__(self, "full", full)
        object.__setattr__(self, "s_line", s_line)
        object.__setattr__(self, "s_perp", s_perp)
        object.__setattr__(self, "extended", extended)


def signature_report(model: K3LatticeModel, s: MukaiVector,
                     negative_subspace=None) -> SignatureReport:
    if not is_spherical_class(model, s):
        raise LatticeInputError("signature report needs a spherical class")
    rho = model.picard_rank
    extended = None
    if negative_subspace:
        vectors = list(negative_subspace)
        sub_sig = signature_of(pairing_matrix(model, vectors))
        if sub_sig.n_plus != 0 or sub_sig.n_zero != 0:
            raise LatticeInputError("test subspace must be negative definite")
        extended = signature_of(pairing_matrix(model, vectors + [s]))
    return SignatureReport(Signature(2, rho, 0), Signature(0, 1, 0),
                           Signature(2, rho - 1, 0), extended)


def search_report(model: K3LatticeModel, v: MukaiVector) -> dict:
    """JSON-ready summary of the three conditions on a search result."""
    q = square(model, v)
    return {
        "v": vector_to_dict(v),
        "v_squared": q,
        "twice_square": 2 * q,
        "is_square": is_perfect_square(2 * q),
    }
