"""Isometries of the Mukai lattice induced by autoequivalences.

Spherical twists act as reflections v -> v + <v, s> s in a (-2)-class, line
bundle tensors as unipotent Mukai products, shifts as global signs. Matrices
act on column coordinate vectors and compose(a, b) means "apply b, then a",
matching functor composition, so composing needs no transposes.
"""

from __future__ import annotations

import operator

from . import _linalg
from ._record import Record
from .errors import InvarianceError, LatticeInputError
from .lattice import (
    K3LatticeModel,
    MukaiVector,
    _as_int,
    is_spherical_class,
    square,
    structure_sheaf_vector,
)

_LABEL_CAP = 120
_POWER_BITS_CAP = 1 << 13   # entry size power refuses past; see power


class Isometry(Record):
    """Integer matrix preserving the Mukai pairing, with a construction trace.

    Every value satisfies M^T G M == G. A matrix from outside (this
    constructor, isometry_from_dict) is checked exactly; the module's own
    constructions go through _proved, each an isometry by an identity: +-I
    (identity, shift); the reflection in s with s^2 = -2 (twist), where
    <v + <v,s>s, w + <w,s>s> = <v,w> + (2 + s^2)<v,s><w,s>; the Mukai
    product with (1, D, D^2/2), integral as the NS diagonal is even
    (tensor); (AB)^T G (AB) = B^T G B (compose, power); M^-T G M^-1 = G
    with M^-1 integral, M being unimodular (inverse). det M == +-1 follows
    and is not re-checked: det(M)^2 det G = det G, and det G = -det NS != 0
    because the model's NS form has signature (1, rho-1).
    """

    model: K3LatticeModel
    matrix: tuple[tuple[int, ...], ...]
    label: str

    def __init__(self, model, matrix, label):
        n = model.rank
        mat = _linalg.to_int_matrix(matrix)
        if len(mat) != n or any(len(row) != n for row in mat):
            raise LatticeInputError(
                f"isometry matrix must be {n}x{n} for this model"
            )
        g = model.mukai_gram
        gram_back = _linalg.mat_mul(
            _linalg.mat_mul(_linalg.transpose(mat), g), mat
        )
        if gram_back != g:
            raise LatticeInputError("matrix does not preserve the Mukai pairing")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "label", label)

    @classmethod
    def _proved(cls, model: K3LatticeModel, matrix, label: str) -> Isometry:
        a = object.__new__(cls)
        a.__dict__.update(model=model, matrix=matrix, label=label)
        return a

    def apply(self, v: MukaiVector) -> MukaiVector:
        if len(v.c) != self.model.picard_rank:
            raise LatticeInputError("vector rank does not match the model")
        return MukaiVector.from_coords(_linalg.mat_vec(self.matrix, v.coords))


def _fmt_vec(v: MukaiVector) -> str:
    return "(" + ",".join(str(x) for x in v.coords) + ")"


def _join_labels(a: str, b: str) -> str:
    label = f"{a} * {b}"
    if len(label) > _LABEL_CAP:
        label = label[: _LABEL_CAP - 4] + " ..."
    return label


def identity_action(model: K3LatticeModel) -> Isometry:
    return Isometry._proved(model, _linalg.identity(model.rank), "id")


def spherical_twist_action(model: K3LatticeModel, s: MukaiVector) -> Isometry:
    """Reflection v -> v + <v, s> s induced by the twist along a (-2)-class.

    Only classes of square -2 give an isometry this way, so anything else is
    rejected rather than silently producing a non-isometry.
    """
    if not is_spherical_class(model, s):
        raise LatticeInputError(
            f"twist class must have square -2, got {square(model, s)}"
        )
    n = model.rank
    s_coords = s.coords
    pair_row = _linalg.mat_vec(model.mukai_gram, s_coords)
    mat = tuple(
        tuple(
            (1 if i == j else 0) + s_coords[i] * pair_row[j]
            for j in range(n)
        )
        for i in range(n)
    )
    return Isometry._proved(model, mat, f"twist[{_fmt_vec(s)}]")


def tensor_line_bundle_action(model: K3LatticeModel, divisor) -> Isometry:
    """Action of tensoring by the line bundle with NS class D.

    Sends (r, c, m) to (r, c + r D, m + c.D + r D^2/2); unipotent of index 3.
    """
    d_vec = tuple(_as_int(x, "divisor entry") for x in divisor)
    rho = model.picard_rank
    if len(d_vec) != rho:
        raise LatticeInputError("divisor length must equal picard_rank")
    gd = _linalg.mat_vec(model.ns_gram, d_vec)
    d_sq = sum(map(operator.mul, d_vec, gd))
    n = model.rank
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    for i in range(rho):
        rows[1 + i][0] = d_vec[i]
        rows[1 + i][1 + i] = 1
    rows[n - 1][0] = d_sq // 2
    rows[n - 1][1:n - 1] = gd
    rows[n - 1][n - 1] = 1
    label = "tensor[(" + ",".join(str(x) for x in d_vec) + ")]"
    return Isometry._proved(model, tuple(tuple(r) for r in rows), label)


def shift_action(model: K3LatticeModel, n: int) -> Isometry:
    """Shift by n acts as (-1)^n times the identity."""
    n = _as_int(n, "shift")
    sign = 1 if n % 2 == 0 else -1
    mat = tuple(
        tuple(sign if i == j else 0 for j in range(model.rank))
        for i in range(model.rank)
    )
    return Isometry._proved(model, mat, f"shift[{n}]")


def compose(a: Isometry, b: Isometry) -> Isometry:
    """Apply b first, then a."""
    if a.model != b.model:
        raise LatticeInputError("cannot compose isometries of different models")
    return Isometry._proved(
        a.model, _linalg.mat_mul(a.matrix, b.matrix), _join_labels(a.label, b.label)
    )


def inverse(a: Isometry) -> Isometry:
    """Column i of M^-1 solves M x = e_i; M is unimodular, so each one does."""
    n = a.model.rank
    cols = _linalg.span_coordinates(
        _linalg.transpose(a.matrix), _linalg.identity(n)
    )
    return Isometry._proved(a.model, _linalg.transpose(cols), f"inverse[{a.label}]")


def power(a: Isometry, n: int) -> Isometry:
    """a^n by binary powering, high bits first: about 2 log2|n| products.

    The entries of a^n have about |n| log2(radius) bits, so for a radius
    above 1 the work grows with n without bound. After each squaring an
    entry past 2^13 bits (2467 decimal digits) raises LatticeInputError:
    every entry stays under Python's default 4300-digit limit on int to str,
    and at Mukai rank 22 the squaring that passes the cap takes about 1 s.
    Isometries of radius 1, such as twists and tensors, have entries
    polynomial in n and reach exponents far past 10^9.
    """
    n = _as_int(n, "power exponent")
    base = (a if n >= 0 else inverse(a)).matrix
    result = _linalg.identity(a.model.rank)
    for bit in bin(abs(n))[2:]:
        result = _linalg.mat_mul(result, result)
        if max(x.bit_length() for row in result for x in row) > _POWER_BITS_CAP:
            raise LatticeInputError(
                f"power entries pass {_POWER_BITS_CAP} bits; exponent too large")
        if bit == "1":
            result = _linalg.mat_mul(result, base)
    return Isometry._proved(a.model, result, f"power[{a.label},{n}]")


def polarization_degree(model: K3LatticeModel) -> int:
    """Half the self-intersection of the first NS basis vector.

    The first basis vector plays the role of the polarization by convention;
    it must have positive even square.
    """
    h_sq = model.ns_gram[0][0]
    if h_sq <= 0:
        raise LatticeInputError(
            "polarization (first NS basis vector) must have positive square"
        )
    return h_sq // 2


def twist_tensor_action(model: K3LatticeModel) -> Isometry:
    """Twist along (1, 0, 1) composed after tensoring by the dual polarization.

    This is the family whose spectral radius stays far below its entropy
    growth rate; on the polarized rank-3 sublattice it acts by
    [[-d, 2d, -1], [-1, 1, 0], [-1, 0, 0]] where 2d is the polarization degree.
    """
    polarization_degree(model)
    rho = model.picard_rank
    minus_h = (-1,) + (0,) * (rho - 1)
    twist = spherical_twist_action(model, structure_sheaf_vector(model))
    tensor = tensor_line_bundle_action(model, minus_h)
    return compose(twist, tensor)


def polarized_sublattice_basis(model: K3LatticeModel) -> list[MukaiVector]:
    """Basis (1,0,0), (0,H,0), (0,0,1) of the rank-3 polarized sublattice."""
    rho = model.picard_rank
    zeros = (0,) * rho
    h = (1,) + (0,) * (rho - 1)
    return [
        MukaiVector(1, zeros, 0),
        MukaiVector(0, h, 0),
        MukaiVector(0, zeros, 1),
    ]


def restrict_to_sublattice(a: Isometry, basis) -> tuple[tuple[int, ...], ...]:
    """Matrix of the isometry in the given sublattice basis.

    The basis must be independent, primitive and span an invariant sublattice;
    each failure is an error, never a silent projection. One unimodular
    column reduction of the basis decides all three and gives the
    coordinates of the images. Primitivity makes every image in the rational
    span an integer combination, so that is the only invariance test.
    """
    vectors = list(basis)
    if not vectors:
        raise LatticeInputError("sublattice basis must be non-empty")
    for v in vectors:
        if len(v.c) != a.model.picard_rank:
            raise LatticeInputError("basis vector rank does not match model")
    coords = _linalg.span_coordinates(
        [v.coords for v in vectors], [a.apply(v).coords for v in vectors]
    )
    for v, x in zip(vectors, coords):
        if x is None:
            raise InvarianceError(
                f"image of {_fmt_vec(v)} leaves the span of the basis"
            )
    return _linalg.transpose(coords)


def fixes_pointwise(a: Isometry, vectors) -> bool:
    return all(a.apply(v) == v for v in vectors)


# --- JSON interchange -------------------------------------------------------

def isometry_to_dict(a: Isometry) -> dict:
    return {
        "matrix": [list(row) for row in a.matrix],
        "label": a.label,
        "picard_rank": a.model.picard_rank,
    }


def isometry_from_dict(model: K3LatticeModel, data: dict) -> Isometry:
    try:
        matrix = data["matrix"]
        label = data.get("label", "loaded")
        rho = data["picard_rank"]
    except (KeyError, TypeError) as exc:
        raise LatticeInputError(
            "isometry JSON needs keys 'matrix' and 'picard_rank'"
        ) from exc
    if _as_int(rho, "picard_rank") != model.picard_rank:
        raise LatticeInputError("isometry picard_rank does not match the model")
    if not isinstance(label, str):
        raise LatticeInputError(
            f"isometry label must be a string, got {_linalg.short_repr(label)}")
    return Isometry(model, matrix, label)
