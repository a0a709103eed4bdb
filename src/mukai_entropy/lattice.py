"""Exact arithmetic for the algebraic Mukai lattice of a projective K3 surface.

A vector has integer coordinates (r, c_1..c_rho, m) in H^0 + NS + H^4 and the
pairing is <v, w> = c_v . c_w - r_v * m_w - r_w * m_v, with the NS product
taken through the model's Gram matrix. A single pairing goes through
_linalg.mat_vec: c_v . G c_w is one dot product with G c_w. pairing_matrix
sums c_v,k c_w,l G_kl over the nonzero NS entries of both vectors alone, once
per entry of its upper triangle. Column-vector convention throughout:
matrices act on coordinate columns ordered (r, c, m).

All values are immutable, all functions pure; nothing here ever rounds, so
results can be compared with ==. Vectors whose ints the package computes
from checked ones (complement bases, sums, the structure sheaf vector, the
primitive and sign-normalized forms) skip the constructor's checks
(_vector_of), and so does rank_one_model.
"""

from __future__ import annotations

import math
import operator

from . import _linalg
from ._linalg import to_int
from ._record import Record
from .errors import LatticeInputError


class Signature(Record):
    """Inertia counts (positive, negative, zero) of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


class MukaiVector(Record):
    """Integer class (r, c, m) with c the NS coordinate tuple."""

    r: int
    c: tuple[int, ...]
    m: int

    def __init__(self, r, c, m):
        r, m = to_int(r, "r"), to_int(m, "m")
        c = tuple(to_int(x, "c entry") for x in c)
        self.__dict__.update(r=r, c=c, m=m)

    @property
    def coords(self) -> tuple[int, ...]:
        return (self.r, *self.c, self.m)

    @staticmethod
    def from_coords(seq) -> "MukaiVector":
        seq = list(seq)
        if len(seq) < 2:
            raise LatticeInputError("coordinate sequence too short")
        return MukaiVector(seq[0], tuple(seq[1:-1]), seq[-1])


class K3LatticeModel(Record):
    """Picard rank plus NS Gram matrix; induces the rank rho+2 Mukai form.

    The NS form must be even and of hyperbolic signature (1, rho-1), the
    shape carried by the Neron-Severi lattice of any projective K3 surface.
    That lattice sits in H^{1,1}, of dimension 20, so a picard_rank past 20
    is refused before ns_gram is read (the signature check costs rho^4).
    The attribute mukai_gram, the Gram matrix of the Mukai form, is built
    here from ns_gram and is not a field: ==, hash and repr leave it out.
    """

    picard_rank: int
    ns_gram: tuple[tuple[int, ...], ...]

    def __init__(self, picard_rank, ns_gram):
        rho = to_int(picard_rank, "picard_rank", 1)
        if rho > 20:
            raise LatticeInputError(f"picard_rank {rho} is over 20")
        gram = _linalg.to_int_matrix(ns_gram, rho, "ns_gram")
        if not _linalg.is_symmetric(gram):
            raise LatticeInputError("ns_gram must be symmetric")
        if any(gram[i][i] % 2 != 0 for i in range(rho)):
            raise LatticeInputError("ns_gram diagonal must be even")
        plus, minus, zero = _linalg.inertia(gram)
        if (plus, minus, zero) != (1, rho - 1, 0):
            raise LatticeInputError(
                f"ns_gram must have signature (1, {rho - 1}), "
                f"got ({plus}, {minus}, {zero})"
            )
        self.__dict__.update(picard_rank=rho, ns_gram=gram,
                             mukai_gram=_build_mukai_gram(gram))

    @property
    def rank(self) -> int:
        return self.picard_rank + 2


def _build_mukai_gram(ns_gram):
    rho = len(ns_gram)
    n = rho + 2
    g = [[0] * n for _ in range(n)]
    for i in range(rho):
        for j in range(rho):
            g[1 + i][1 + j] = ns_gram[i][j]
    g[0][n - 1] = -1
    g[n - 1][0] = -1
    return tuple(tuple(row) for row in g)


def rank_one_model(d: int) -> K3LatticeModel:
    """Rank-one model whose polarization has self-intersection 2d."""
    gram = ((2 * to_int(d, "d", 1),),)
    return K3LatticeModel._of(picard_rank=1, ns_gram=gram,
                              mukai_gram=_build_mukai_gram(gram))


def structure_sheaf_vector(model: K3LatticeModel) -> MukaiVector:
    """Mukai vector (1, 0, 1) of the structure sheaf."""
    return MukaiVector._of(r=1, c=(0,) * model.picard_rank, m=1)


def _divisor(model: K3LatticeModel, divisor):
    """(D, G D, D^2) for an NS class D given as integers of the model's rank."""
    d_vec = tuple(to_int(x, "divisor entry") for x in divisor)
    if len(d_vec) != model.picard_rank:
        raise LatticeInputError("divisor length must equal picard_rank")
    gd = _linalg.mat_vec(model.ns_gram, d_vec)
    return d_vec, gd, sum(map(operator.mul, d_vec, gd))


def line_bundle_vector(model: K3LatticeModel, divisor) -> MukaiVector:
    """Mukai vector (1, D, D^2/2 + 1) of the line bundle with class D."""
    d_vec, _, d_sq = _divisor(model, divisor)
    return MukaiVector._of(r=1, c=d_vec, m=d_sq // 2 + 1)


def _check_vector(model: K3LatticeModel, v: MukaiVector, name: str = "vector"):
    if len(v.c) != model.picard_rank:
        raise LatticeInputError(
            f"{name} has NS length {len(v.c)}, model has rank "
            f"{model.picard_rank}"
        )


def ns_product(model: K3LatticeModel, a, b) -> int:
    """Intersection product a . G b of two NS coordinate vectors."""
    if len(a) != model.picard_rank or len(b) != model.picard_rank:
        raise LatticeInputError("NS vector length must equal picard_rank")
    return sum(map(operator.mul, a, _linalg.mat_vec(model.ns_gram, b)))


def mukai_pairing(model: K3LatticeModel, v: MukaiVector, w: MukaiVector) -> int:
    """<v, w> = c_v . c_w - r_v m_w - r_w m_v, exactly."""
    _check_vector(model, v, "v")
    _check_vector(model, w, "w")
    cc = sum(map(operator.mul, v.c, _linalg.mat_vec(model.ns_gram, w.c)))
    return cc - v.r * w.m - w.r * v.m


def euler_pairing(model: K3LatticeModel, v: MukaiVector, w: MukaiVector) -> int:
    """Euler characteristic chi(v, w); the sign-flip of the Mukai pairing."""
    return -mukai_pairing(model, v, w)


def square(model: K3LatticeModel, v: MukaiVector) -> int:
    return mukai_pairing(model, v, v)


def is_spherical_class(model: K3LatticeModel, v: MukaiVector) -> bool:
    """True when v has square -2, the class of a spherical object."""
    return square(model, v) == -2


def signature_of(gram) -> Signature:
    """Signature of any symmetric integer matrix, degenerate ones included,
    read off the signs of its exact characteristic polynomial."""
    rows = _linalg.to_int_matrix(gram)
    if not _linalg.is_symmetric(rows):
        raise LatticeInputError("signature_of needs a symmetric matrix")
    plus, minus, zero = _linalg.inertia(rows)
    return Signature(plus, minus, zero)


def pairing_matrix(model: K3LatticeModel, vectors) -> tuple[tuple[int, ...], ...]:
    """Mukai Gram matrix of the vectors: c_i . G c_j - r_i m_j - r_j m_i, the
    NS product summed over the nonzero entries of c_i and c_j alone (complement
    basis vectors are mostly unit vectors), the upper triangle computed
    and mirrored."""
    g = model.ns_gram
    rows = []
    for v in vectors:
        _check_vector(model, v)
        rows.append((v.r, [(k, x) for k, x in enumerate(v.c) if x], v.m))
    gram = [[0] * len(rows) for _ in rows]
    for i, (r, nz, m) in enumerate(rows):
        for j, (rj, nzj, mj) in enumerate(rows[i:], i):
            gram[i][j] = gram[j][i] = (
                sum([x * y * g[k][l] for k, x in nz for l, y in nzj])
                - r * mj - rj * m)
    return tuple(map(tuple, gram))


def _vector_of(coords) -> MukaiVector:
    """The vector of coordinates built here as exact ints, unchecked."""
    r, *c, m = coords
    return MukaiVector._of(r=r, c=tuple(c), m=m)


def orthogonal_complement_basis(model: K3LatticeModel, vectors) -> list[MukaiVector]:
    """Basis of the saturated sublattice orthogonal to every given vector.

    The output basis is canonical only up to a unimodular change; compare
    spanned lattices, not raw vectors.
    """
    vs = list(vectors)
    for v in vs:
        _check_vector(model, v)
    n = model.rank
    rows = [_linalg.mat_vec(model.mukai_gram, v.coords) for v in vs]
    _, vcols, pivots = _linalg.column_reduce(rows, n)
    return [_vector_of(vcols[j]) for j in range(n) if j not in pivots]


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def doubled_square_is_nonsquare(model: K3LatticeModel, v: MukaiVector) -> bool:
    """True when 2 * square(v) is not a perfect square."""
    return not is_perfect_square(2 * square(model, v))


def vector_content(v: MukaiVector) -> int:
    return math.gcd(*v.coords)


def primitive_vector(v: MukaiVector) -> MukaiVector:
    """Divide out the content; the zero vector is returned unchanged."""
    g = vector_content(v)
    if g <= 1:
        return v
    return _vector_of([x // g for x in v.coords])


def sign_normalized(v: MukaiVector) -> MukaiVector:
    """Flip the sign so the first nonzero coordinate is positive."""
    for x in v.coords:
        if x != 0:
            if x < 0:
                return _vector_of([-y for y in v.coords])
            return v
    return v


def add_vectors(a: MukaiVector, b: MukaiVector) -> MukaiVector:
    if len(a.c) != len(b.c):
        raise LatticeInputError(f"NS lengths {len(a.c)} and {len(b.c)} differ")
    return _vector_of(map(operator.add, a.coords, b.coords))


def scale_vector(n: int, v: MukaiVector) -> MukaiVector:
    n = to_int(n, "scale factor")
    return _vector_of([n * x for x in v.coords])


# --- JSON interchange -------------------------------------------------------

def model_to_dict(model: K3LatticeModel) -> dict:
    return {
        "picard_rank": model.picard_rank,
        "ns_gram": [list(row) for row in model.ns_gram],
    }


def model_from_dict(data: dict) -> K3LatticeModel:
    try:
        rho = data["picard_rank"]
        gram = data["ns_gram"]
    except (KeyError, TypeError) as exc:
        raise LatticeInputError(
            "model JSON needs keys 'picard_rank' and 'ns_gram'"
        ) from exc
    return K3LatticeModel(rho, gram)


def vector_to_dict(v: MukaiVector) -> dict:
    return {"r": v.r, "c": list(v.c), "m": v.m}


def vector_from_dict(data: dict) -> MukaiVector:
    try:
        return MukaiVector(data["r"], tuple(data["c"]), data["m"])
    except (KeyError, TypeError) as exc:
        raise LatticeInputError("vector JSON needs keys 'r', 'c', 'm'") from exc
