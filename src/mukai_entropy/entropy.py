"""Entropy curves of spherical twists and the growth-versus-radius gap.

The twist of a spherical object of dimension d has entropy (1-d)t for t <= 0;
for t > 0 the value is 0 whenever d = 1 or the twist class has a nonempty
orthogonal complement, and otherwise only the upper bound 0 is known. Curve
pieces therefore carry an explicit proven flag instead of a guessed value.

The growth side tracks the top Ext dimension of the iterated twist-tensor
functor, which multiplies by the section count of the polarization at every
step and certifies that the entropy of the family strictly exceeds the
logarithm of its lattice spectral radius.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import _linalg
from ._record import Record
from .errors import LatticeInputError
from .isometries import (
    Isometry,
    tensor_line_bundle_action,
    twist_tensor_action,
)
from .lattice import (
    K3LatticeModel,
    rank_one_model,
    structure_sheaf_vector,
)
from .spectral import _closed_form_parts, spectral_radius


def _positive_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise LatticeInputError(f"{what} must be a positive integer")
    return x


class CurvePiece(Record):
    """Affine piece slope*t + intercept on (lower, upper]; None means infinite."""

    lower: Fraction | None
    upper: Fraction | None
    slope: Fraction
    intercept: Fraction
    proven: bool

    def __init__(self, lower, upper, slope, intercept, proven):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "proven", proven)

    def value_at(self, t: Fraction) -> Fraction:
        return self.slope * t + self.intercept

    def contains(self, t: Fraction) -> bool:
        if self.lower is not None and t <= self.lower:
            return False
        if self.upper is not None and t > self.upper:
            return False
        return True


class EntropyCurve(Record):
    """Piecewise-linear function of the real parameter t.

    Pieces tile the line and agree at their breakpoints, so eval is total and
    continuous.
    """

    pieces: tuple[CurvePiece, ...]

    def __init__(self, pieces):
        ps = tuple(pieces)
        if not ps:
            raise LatticeInputError("curve needs at least one piece")
        if ps[0].lower is not None or ps[-1].upper is not None:
            raise LatticeInputError("curve pieces must cover the whole line")
        for left, right in zip(ps, ps[1:]):
            if left.upper is None or right.lower != left.upper:
                raise LatticeInputError("curve pieces must tile the line")
            b = left.upper
            if left.value_at(b) != right.value_at(b):
                raise LatticeInputError(f"curve is discontinuous at t={b}")
        object.__setattr__(self, "pieces", ps)

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(p.upper for p in self.pieces[:-1])

    def piece_at(self, t) -> CurvePiece:
        t = Fraction(t)
        for p in self.pieces:
            if p.contains(t):
                return p
        raise AssertionError("pieces tile the line")

    def eval(self, t) -> Fraction:
        t = Fraction(t)
        return self.piece_at(t).value_at(t)


def twist_entropy_curve(spherical_dim: int,
                        complement_nonempty: bool) -> EntropyCurve:
    """Entropy curve t -> h_t of the twist of a d-spherical object.

    The negative-t branch is (1-d)t unconditionally. The positive branch is 0,
    proven exactly when d = 1 or a complement witness is known; otherwise the
    0 is only an upper bound and the piece is flagged unproven.
    """
    d = _positive_int(spherical_dim, "spherical_dim")
    zero = Fraction(0)
    right_proven = d == 1 or bool(complement_nonempty)
    return EntropyCurve((
        CurvePiece(None, zero, Fraction(1 - d), zero, True),
        CurvePiece(zero, None, zero, zero, right_proven),
    ))


def h0_line_bundle(k: int, d: int) -> int:
    """Global section count k^2 d + 2 of the k-th power of the polarization.

    Positivity of k is required; it is what kills the higher cohomology and
    turns the Euler characteristic into a dimension.
    """
    k = _positive_int(k, "k")
    d = _positive_int(d, "d")
    return k * k * d + 2


def ext_top_dim(n: int, i: int, k: int, d: int) -> int:
    """Dimension of the top Ext group after n twist-tensor iterations.

    The group sits in degree n + 2; each iteration multiplies the previous
    top dimension by the section count of the polarization, and the final
    extra twist by k enters once.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise LatticeInputError("n must be a non-negative integer")
    i = _positive_int(i, "i")
    k = _positive_int(k, "k")
    d = _positive_int(d, "d")
    if n == 0:
        return h0_line_bundle(i + k, d)
    return (
        h0_line_bundle(i + 1, d)
        * h0_line_bundle(1, d) ** (n - 1)
        * h0_line_bundle(k, d)
    )


def hom_growth_lower_bound(n: int, i: int, d: int) -> int:
    """Exact lower bound for the hom growth of the n-th twist-tensor iterate."""
    return ext_top_dim(n, i, 1, d)


def reference_growth_bound(n: int, d: int) -> int:
    """The weaker closed bound (d+2)^n that the exact one always dominates."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise LatticeInputError("n must be a non-negative integer")
    d = _positive_int(d, "d")
    return (d + 2) ** n


def iterated_chi(n: int, i: int, k: int, model: K3LatticeModel) -> int:
    """Euler pairing against the n-th twist-tensor iterate, purely on the lattice.

    Consistency oracle for the Ext recursion: the induced isometry applied n
    times to the class of O(-i H), tensored by -k H and paired with the
    structure-sheaf class. This is the chi of row n of `ext_recursion_table`.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise LatticeInputError("n must be a non-negative integer")
    i = _positive_int(i, "i")
    k = _positive_int(k, "k")
    if model.picard_rank != 1:
        raise LatticeInputError("iterated_chi needs a rank-one model")
    # the model's NS form is even and positive definite, so d >= 1
    return ext_recursion_table(model.ns_gram[0][0] // 2, i, k, n).rows[n].chi


class ExtTableRow(Record):
    n: int
    top_degree: int
    top_dim: int
    growth_bound: int
    chi: int
    vanishing_range: tuple[int, int]

    def __init__(self, n, top_degree, top_dim, growth_bound, chi,
                 vanishing_range):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "top_degree", top_degree)
        object.__setattr__(self, "top_dim", top_dim)
        object.__setattr__(self, "growth_bound", growth_bound)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "vanishing_range", vanishing_range)


class ExtRecursionTable(Record):
    """Tabulated Ext growth for fixed (d, i, k) up to an iteration cap."""

    d: int
    i: int
    k: int
    rows: tuple[ExtTableRow, ...]

    def __init__(self, d, i, k, rows):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rows", rows)


def ext_recursion_table(d: int, i: int, k: int, n_max: int) -> ExtRecursionTable:
    """Ext growth rows for n = 0..n_max: one matrix-vector product per row,
    chi(O_X, T_k v) = -<o_x, T_k v> as one dot with the fixed row -T_k^T G o_x,
    and top_dim and (d+2)^n as running products."""
    d = _positive_int(d, "d")
    i = _positive_int(i, "i")
    k = _positive_int(k, "k")
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 0:
        raise LatticeInputError("n_max must be a non-negative integer")
    model = rank_one_model(d)
    phi = twist_tensor_action(model).matrix
    tensor_k = tensor_line_bundle_action(model, (-k,)).matrix
    g_o = _linalg.mat_vec(model.mukai_gram, structure_sheaf_vector(model).coords)
    chi_row = [-x for x in _linalg.mat_vec(_linalg.transpose(tensor_k), g_o)]
    moved = (1, -i, i * i * d + 1)
    top_dim, growth = h0_line_bundle(i + k, d), 1
    next_top = h0_line_bundle(i + 1, d) * h0_line_bundle(k, d)
    rows = []
    for n in range(n_max + 1):
        if n:
            moved = _linalg.mat_vec(phi, moved)
            top_dim, next_top = next_top, next_top * (d + 2)
            growth *= d + 2
        chi = sum(map(operator.mul, chi_row, moved))
        rows.append(ExtTableRow(n, n + 2, top_dim, growth, chi, (2, n + 2)))
    return ExtRecursionTable(d, i, k, tuple(rows))


class GapReport(Record):
    """Entropy lower bound versus lattice radius for one polarization degree.

    `certified` records that d + 2 > radius was established by an exact
    integer comparison, not by the float subtraction in `gap`.
    """

    d: int
    lower_bound: float
    log_rho: float
    gap: float
    certified: bool

    def __init__(self, d, lower_bound, log_rho, gap, certified):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "lower_bound", lower_bound)
        object.__setattr__(self, "log_rho", log_rho)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "certified", certified)


def gy_gap(d: int) -> GapReport:
    """Gap log(d+2) - log(radius) of the twist-tensor family, certified positive."""
    d = _positive_int(d, "d")
    # the radius is 1 for d <= 4; from d = 5 on, (d - 2 + sqrt(m)) / 2 < d + 2
    # with m = d^2 - 4d is sqrt(m) < d + 6, and both sides are non-negative
    certified = d <= 4 or d * d - 4 * d < (d + 6) ** 2
    lower = math.log(d + 2)
    log_rho = 0.0   # the radius is 1 for d <= 4
    if d > 4:   # the terms of float(radius_closed_form(d)), rounded alike
        f, core = _closed_form_parts(d)
        log_rho = math.log((d - 2) / 2 + f / 2 * math.sqrt(core))
    return GapReport(d, lower, log_rho, lower - log_rho, certified)


def entropy_lower_bound_from_radius(action: Isometry,
                                    tolerance: float = 1e-9) -> float:
    """A float at most log of the spectral radius; a lower bound for the
    entropy of any categorical lift of the isometry.

    Taken from the certified lower end of the radius bracket: a float at
    most lo, then its log stepped one ulp down to absorb the rounding of
    math.log.
    """
    lo = spectral_radius(action.matrix, tolerance).lo
    x = float(lo)
    if Fraction(x) > lo:
        x = math.nextafter(x, -math.inf)
    return math.nextafter(math.log(x), -math.inf)
