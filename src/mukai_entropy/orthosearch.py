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

import operator
from math import isqrt

from . import _linalg
from ._linalg import to_int
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
    _vector_of,
)

_PERTURBATION_BUDGET = 10 ** 6


class Rank2Form(Record):
    """Gram matrix of the span of two Mukai classes."""

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram):
        g = _linalg.to_int_matrix(gram, 2, "rank-2 form")
        if not _linalg.is_symmetric(g):
            raise LatticeInputError("rank-2 form must be symmetric")
        self.__dict__.update(gram=g)


def rank2_form(model: K3LatticeModel, s: MukaiVector,
               v: MukaiVector) -> Rank2Form:
    if not is_spherical_class(model, s):
        raise LatticeInputError("first class must be spherical (square -2)")
    p = mukai_pairing(model, s, v)
    return Rank2Form._of(gram=((-2, p), (p, square(model, v))))


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


def _positive_classes(gram, bound: int):
    """Pairs (c, q) with q = c^T G c > 0, c of sup norm r = 1..bound in turn;
    G has size at least 1.

    Within a shell the order is by L1 norm, then lexicographic. Each L1 level
    is walked depth first with values ascending, one generator per node of
    the first rank - 1 entries, so tuples come out lazily in that order; a
    branch is entered only when its remaining L1 budget can still be spent
    with entries in [-r, r] and reach |entry| = r somewhere, so every branch
    ends in a tuple, and the last entry can only be -rest, then +rest (0 when
    rest = 0): the node of the entry before it tries both in closed form, so
    a leaf costs no call and no generator. The square is carried down the
    walk: setting entry i to x adds x (x g_ii + 2 sum_{j<i} c_j g_ij), with
    the sum taken once per node over the prefix (and carried down as `tail`
    for the last index), and the values x with |x| read from one list per
    shell. At rank 1 the one entry is -r, then +r.
    """
    rank = len(gram)
    last = rank - 1
    g_last = gram[last][last]
    coeffs = [0] * rank

    def walk(i, r, rest, hit, q, tail):
        row = gram[i]
        g_ii, g_il = row[i], 2 * gram[last][i]
        cross = 2 * sum(map(operator.mul, coeffs[:i], row))
        room = r * (last - i)
        inner = i + 1 < last
        for x, ax in steps:
            left = rest - ax
            now_hit = hit or ax == r
            if 0 <= left <= room and (now_hit or left >= r):
                coeffs[i] = x
                qx = q + x * (x * g_ii + cross)
                tx = tail + x * g_il
                if inner:
                    yield from walk(i + 1, r, left, now_hit, qx, tx)
                    continue
                for y in (-left, left) if left else (0,):
                    leaf = qx + y * (y * g_last + tx)
                    if leaf > 0:
                        coeffs[last] = y
                        yield tuple(coeffs), leaf

    for r in range(1, bound + 1):
        if not last:
            q = r * r * g_last
            yield from [((x,), q) for x in (-r, r) if q > 0]
            continue
        steps = [(x, abs(x)) for x in range(-r, r + 1)]
        for l1 in range(r, r * rank + 1):
            yield from walk(0, r, l1, False, 0, 0)


def _checked_answer(model: K3LatticeModel, s: MukaiVector, w: MukaiVector,
                    q: int) -> MukaiVector:
    """w made primitive and sign-normalized, once <w, s> = 0 and w^2 = q
    are checked by an explicit raise, which python -O keeps."""
    if mukai_pairing(model, w, s) != 0 or square(model, w) != q:
        raise RuntimeError(f"search hit {w} fails its own check")
    return sign_normalized(primitive_vector(w))


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
    to_int(search_bound, "search_bound", 1)
    basis = orthogonal_complement_basis(model, [s])
    first_positive = None
    # no content gcd: a class g c' with g > 1 comes after c', a shell earlier
    # at sup norm r / g, and 2 g^2 q' is a square exactly when 2 q' is; so
    # the first hit and the first positive class are primitive, and so is
    # B c, since B is a set of columns of a unimodular matrix
    for coeffs, q in _positive_classes(pairing_matrix(model, basis),
                                       search_bound):
        if not is_perfect_square(2 * q):
            return _checked_answer(model, s, _combination(basis, coeffs), q)
        if first_positive is None:
            first_positive = coeffs
    if first_positive is None:
        raise SearchExhaustedError(
            f"no positive orthogonal class within coefficient bound "
            f"{search_bound}; raise the bound"
        )
    v = _combination(basis, first_positive)
    return _perturb_square_case(model, s, sign_normalized(v))


def _combination(basis, coeffs) -> MukaiVector:
    """B c, summed over the nonzero entries of c and built unchecked."""
    terms = [[x * y for y in b.coords] for x, b in zip(coeffs, basis) if x]
    return _vector_of(map(sum, zip(*terms)))


def _perturb_square_case(model: K3LatticeModel, s: MukaiVector,
                         v: MukaiVector) -> MukaiVector:
    """N v + u for the least N with 2 (N v + u)^2 positive and not a square.

    u is orthogonal to s and v, so (N v + u)^2 = N^2 v^2 + u^2: each N costs
    two integers, and only the answer is built as a vector and checked.
    Since v^2 > 0 and u^2 != 0, that is positive exactly from n0 on.
    """
    basis = orthogonal_complement_basis(model, [s, v])
    u = _anisotropic_combination(basis, pairing_matrix(model, basis))
    if u is None:
        raise SearchExhaustedError(
            "no anisotropic perturbation direction orthogonal to s and v"
        )
    qv, qu = square(model, v), square(model, u)
    n0 = 1 if qu > 0 else isqrt(-qu // qv) + 1
    for n in range(n0, n0 + _PERTURBATION_BUDGET):
        q = n * n * qv + qu
        if not is_perfect_square(2 * q):
            w = add_vectors(scale_vector(n, v), u)
            return _checked_answer(model, s, w, q)
    raise SearchExhaustedError(
        "perturbation budget exhausted without breaking squareness"
    )


def _anisotropic_combination(basis, gram):
    """A basis vector, else a sum of two, with nonzero square under gram.

    Once every b_i^2 is 0, (b_i +- b_j)^2 = +-2 <b_i, b_j>, so the sum is
    isotropic exactly when the difference is.
    """
    for i, b in enumerate(basis):
        if gram[i][i]:
            return b
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if gram[i][j]:
                return add_vectors(basis[i], basis[j])
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
