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
from fractions import Fraction

from ._linalg import _closed_form_parts, to_int
from ._record import Record
from .errors import LatticeInputError

# spectral is imported by entropy_lower_bound_from_radius when it runs; the
# Ext table is closed form in d, i and k and needs no lattice object


class CurvePiece(Record):
    """Affine piece slope*t + intercept on (lower, upper]; None means infinite."""

    lower: Fraction | None
    upper: Fraction | None
    slope: Fraction
    intercept: Fraction
    proven: bool

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
        self.__dict__.update(pieces=ps)

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
    d = to_int(spherical_dim, "spherical_dim", 1)
    if not isinstance(complement_nonempty, bool):
        raise LatticeInputError("complement_nonempty must be True or False")
    zero = Fraction(0)
    right_proven = d == 1 or complement_nonempty
    return EntropyCurve._of(pieces=(
        CurvePiece(None, zero, Fraction(1 - d), zero, True),
        CurvePiece(zero, None, zero, zero, right_proven),
    ))


def h0_line_bundle(k: int, d: int) -> int:
    """Global section count k^2 d + 2 of the k-th power of the polarization.

    Positivity of k is required; it is what kills the higher cohomology and
    turns the Euler characteristic into a dimension.
    """
    return _h0(to_int(k, "k", 1), to_int(d, "d", 1))


def _h0(k: int, d: int) -> int:
    return k * k * d + 2


def ext_top_dim(n: int, i: int, k: int, d: int) -> int:
    """Dimension of the top Ext group after n twist-tensor iterations.

    The group sits in degree n + 2; each iteration multiplies the previous
    top dimension by the section count of the polarization, and the final
    extra twist by k enters once.
    """
    n = to_int(n, "n", 0)
    i = to_int(i, "i", 1)
    k = to_int(k, "k", 1)
    d = to_int(d, "d", 1)
    if n == 0:
        return _h0(i + k, d)
    return _h0(i + 1, d) * (d + 2) ** (n - 1) * _h0(k, d)


def hom_growth_lower_bound(n: int, i: int, d: int) -> int:
    """Exact lower bound for the hom growth of the n-th twist-tensor iterate."""
    return ext_top_dim(n, i, 1, d)


def reference_growth_bound(n: int, d: int) -> int:
    """The weaker closed bound (d+2)^n that the exact one always dominates."""
    n = to_int(n, "n", 0)
    d = to_int(d, "d", 1)
    return (d + 2) ** n


def iterated_chi(n: int, i: int, k: int, model) -> int:
    """Euler pairing against the n-th twist-tensor iterate, purely on the lattice.

    The induced isometry of the rank-one K3LatticeModel `model` applied n
    times to the class of O(-i H), tensored by -k H and paired with the
    structure-sheaf class. It is read off row n of `ext_recursion_table`,
    so it is no independent check of that table; tests/helpers.py has two:
    oracle_iterated_chi, through power(phi, n), and oracle_rr_chi, from the
    Hilbert polynomial alone. ext_recursion_table checks i and k.
    """
    n = to_int(n, "n", 0)
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


class ExtRecursionTable(Record):
    """Tabulated Ext growth for fixed (d, i, k) up to an iteration cap."""

    d: int
    i: int
    k: int
    rows: tuple[ExtTableRow, ...]


def ext_recursion_table(d: int, i: int, k: int, n_max: int) -> ExtRecursionTable:
    """Ext growth rows for n = 0..n_max on the rank-3 lattice, in closed form.

    The class (r, c, m) of O(-iH) starts at (1, -i, i^2 d + 1); each row
    applies phi_H, the matrix of twist_tensor_action(rank_one_model(d)), and
    reads chi(O_X, T_k v) = (1 + k^2 d) r - 2dk c + m, with T_k the tensor by
    O(-kH). top_dim and (d+2)^n are running products."""
    d = to_int(d, "d", 1)
    i = to_int(i, "i", 1)
    k = to_int(k, "k", 1)
    n_max = to_int(n_max, "n_max", 0)
    r, c, m = 1, -i, i * i * d + 1
    chi_r, chi_c = 1 + k * k * d, 2 * d * k
    top_dim, growth = _h0(i + k, d), 1
    next_top = _h0(i + 1, d) * _h0(k, d)
    rows = []
    for n in range(n_max + 1):
        if n:
            r, c, m = 2 * d * c - d * r - m, c - r, -r
            top_dim, next_top = next_top, next_top * (d + 2)
            growth *= d + 2
        chi = chi_r * r - chi_c * c + m
        rows.append(ExtTableRow._of(
            n=n, top_degree=n + 2, top_dim=top_dim, growth_bound=growth,
            chi=chi, vanishing_range=(2, n + 2)))
    return ExtRecursionTable._of(d=d, i=i, k=k, rows=tuple(rows))


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


def gy_gap(d: int) -> GapReport:
    """Gap log(d+2) - log(radius) of the twist-tensor family, certified positive."""
    d = to_int(d, "d", 1)
    # the radius is 1 for d <= 4; from d = 5 on, (d - 2 + sqrt(m)) / 2 < d + 2
    # with m = d^2 - 4d is sqrt(m) < d + 6, and both sides are non-negative
    certified = d <= 4 or d * d - 4 * d < (d + 6) ** 2
    lower = math.log(d + 2)
    log_rho = 0.0   # the radius is 1 for d <= 4
    if d > 4:   # the terms of float(radius_closed_form(d)), rounded alike
        f, core = _closed_form_parts(d)
        log_rho = math.log((d - 2) / 2 + f / 2 * math.sqrt(core))
    return GapReport._of(d=d, lower_bound=lower, log_rho=log_rho,
                         gap=lower - log_rho, certified=certified)


def entropy_lower_bound_from_radius(action, tolerance: float = 1e-9) -> float:
    """A float at most log of the spectral radius; a lower bound for the
    entropy of any categorical lift of the Isometry `action`.

    Taken from the certified lower end of the radius bracket: a float at
    most lo, then its log stepped one ulp down to absorb the rounding of
    math.log.
    """
    from .spectral import spectral_radius
    lo = spectral_radius(action.matrix, tolerance).lo
    x = float(lo)
    if Fraction(x) > lo:
        x = math.nextafter(x, -math.inf)
    return math.nextafter(math.log(x), -math.inf)
