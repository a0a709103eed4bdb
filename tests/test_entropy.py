import math
from fractions import Fraction

import pytest

from helpers import oracle_iterated_chi, oracle_radius_parts
from mukai_entropy import entropy, spectral
from mukai_entropy.entropy import (
    CurvePiece,
    EntropyCurve,
    entropy_lower_bound_from_radius,
    ext_recursion_table,
    ext_top_dim,
    gy_gap,
    h0_line_bundle,
    hom_growth_lower_bound,
    iterated_chi,
    reference_growth_bound,
    twist_entropy_curve,
)
from mukai_entropy.errors import LatticeInputError
from mukai_entropy.spectral import radius_closed_form
from mukai_entropy.isometries import identity_action, shift_action, twist_tensor_action
from mukai_entropy.lattice import (
    MukaiVector,
    euler_pairing,
    line_bundle_vector,
    rank_one_model,
    structure_sheaf_vector,
)


def test_curve_reference_values():
    c = twist_entropy_curve(2, True)
    assert c.eval(-1) == 1
    assert c.eval(3) == 0
    assert c.eval(0) == 0
    assert twist_entropy_curve(1, False).eval(-2) == 0
    for d in (1, 2, 5):
        assert twist_entropy_curve(d, True).eval(0) == 0


def test_curve_negative_slope_formula():
    for d in (1, 2, 3, 7):
        c = twist_entropy_curve(d, True)
        for t in (Fraction(-5), Fraction(-1, 3), Fraction(-7, 2)):
            assert c.eval(t) == (1 - d) * t


def test_curve_proven_flags():
    assert all(p.proven for p in twist_entropy_curve(2, True).pieces)
    assert all(p.proven for p in twist_entropy_curve(1, False).pieces)
    unproven = twist_entropy_curve(3, False)
    assert unproven.pieces[0].proven
    assert not unproven.pieces[1].proven


def test_curve_continuity_and_slope_monotonicity():
    for d in (1, 2, 6):
        c = twist_entropy_curve(d, True)
        for b in c.breakpoints:
            eps = Fraction(1, 10 ** 9)
            assert c.eval(b) == c.eval(b - eps) + (c.eval(b) - c.eval(b - eps))
            left = c.piece_at(b)
            right = c.piece_at(b + eps)
            assert left.value_at(b) == right.value_at(b)
            assert left.slope <= right.slope


def test_curve_validation():
    with pytest.raises(LatticeInputError):
        EntropyCurve((
            CurvePiece(None, Fraction(0), Fraction(1), Fraction(0), True),
            CurvePiece(Fraction(0), None, Fraction(0), Fraction(5), True),
        ))
    with pytest.raises(LatticeInputError):
        EntropyCurve((
            CurvePiece(None, Fraction(0), Fraction(1), Fraction(0), True),
        ))
    with pytest.raises(LatticeInputError):
        twist_entropy_curve(0, True)


def test_h0_values():
    assert h0_line_bundle(1, 5) == 7
    assert h0_line_bundle(2, 2) == 10
    for d in (1, 2, 9):
        assert h0_line_bundle(1, d) == d + 2
    with pytest.raises(LatticeInputError):
        h0_line_bundle(0, 2)
    with pytest.raises(LatticeInputError):
        h0_line_bundle(-1, 2)


def test_h0_matches_euler_pairing_oracle():
    for d in (1, 2, 3, 7):
        model = rank_one_model(d)
        structure = structure_sheaf_vector(model)
        for k in (1, 2, 3, 4):
            chi = euler_pairing(model, structure, line_bundle_vector(model, (k,)))
            assert h0_line_bundle(k, d) == chi


def test_ext_top_dim_values():
    assert ext_top_dim(0, 1, 1, 2) == 10
    assert ext_top_dim(1, 1, 1, 2) == 40
    assert ext_top_dim(3, 1, 1, 2) == 640
    with pytest.raises(LatticeInputError):
        ext_top_dim(-1, 1, 1, 2)
    with pytest.raises(LatticeInputError):
        ext_top_dim(0, 0, 1, 2)


def test_ext_recursion_identity():
    # top_dim(n, i, k) = top_dim(n-1, i, 1) * h0(k) for every n >= 1
    for d in range(1, 11):
        for i in range(1, 6):
            for k in range(1, 6):
                for n in range(1, 61):
                    assert ext_top_dim(n, i, k, d) == (
                        ext_top_dim(n - 1, i, 1, d) * h0_line_bundle(k, d)
                    )


def test_growth_ratio_is_constant():
    for d in (1, 2, 10):
        for n in range(2, 20):
            assert hom_growth_lower_bound(n, 1, d) == (
                hom_growth_lower_bound(n - 1, 1, d) * (d + 2)
            )


def test_growth_dominates_reference_bound():
    for d in range(1, 11):
        for n in range(0, 61):
            assert hom_growth_lower_bound(n, 1, d) >= reference_growth_bound(n, d)


def test_growth_rate_deviation_is_exactly_the_constant():
    # (1/n) log of the exact bound exceeds log(d+2) by log(h0(2,d))/n
    for d in (1, 4, 10):
        n = 50
        measured = math.log(hom_growth_lower_bound(n, 1, d)) / n
        expected_gap = math.log(h0_line_bundle(2, d)) / n
        assert abs(measured - math.log(d + 2) - expected_gap) < 1e-12


def test_iterated_chi_base_case():
    for d in (1, 2, 5):
        model = rank_one_model(d)
        for i in (1, 2, 3):
            for k in (1, 2, 3):
                assert iterated_chi(0, i, k, model) == (i + k) ** 2 * d + 2
                assert iterated_chi(0, i, k, model) == ext_top_dim(0, i, k, d)


def test_iterated_chi_one_step():
    model = rank_one_model(2)
    chi = iterated_chi(1, 1, 1, model)
    # nonzero groups sit in degrees 2 and 3, so chi = ext2 - ext3
    assert chi == -20
    assert chi + ext_top_dim(1, 1, 1, 2) == 20  # ext2 dimension, non-negative
    assert chi + ext_top_dim(1, 1, 1, 2) >= 0


def test_iterated_chi_requires_rank_one():
    from mukai_entropy.lattice import K3LatticeModel

    model = K3LatticeModel(2, ((4, 0), (0, -4)))
    with pytest.raises(LatticeInputError):
        iterated_chi(0, 1, 1, model)


def test_ext_recursion_table():
    table = ext_recursion_table(2, 1, 1, 4)
    assert [r.top_dim for r in table.rows] == [10, 40, 160, 640, 2560]
    assert [r.growth_bound for r in table.rows] == [1, 4, 16, 64, 256]
    assert all(r.top_degree == r.n + 2 for r in table.rows)
    assert all(r.vanishing_range == (2, r.n + 2) for r in table.rows)
    assert all(r.top_dim >= 1 for r in table.rows)
    assert table.rows[0].chi == 10


def test_ext_table_chi_matches_power_oracle():
    for d in range(1, 7):
        model = rank_one_model(d)
        for i in (1, 2, 3):
            for k in (1, 2, 3):
                table = ext_recursion_table(d, i, k, 25)
                for n in range(26):
                    expected = oracle_iterated_chi(n, i, k, d)
                    assert table.rows[n].chi == expected
                    assert iterated_chi(n, i, k, model) == expected


@pytest.mark.parametrize("d, i, k", [(1, 1, 1), (7, 2, 3), (30, 3, 2)])
def test_ext_rows_match_the_per_row_formulas(d, i, k):
    # the running products and the fixed chi row against the per-row
    # public formulas and power(phi, n)
    table = ext_recursion_table(d, i, k, 250)
    assert [row.n for row in table.rows] == list(range(251))
    for row in table.rows:
        n = row.n
        assert (row.top_degree, row.vanishing_range) == (n + 2, (2, n + 2))
        assert row.top_dim == ext_top_dim(n, i, k, d)
        assert row.growth_bound == (d + 2) ** n == reference_growth_bound(n, d)
        assert row.chi == oracle_iterated_chi(n, i, k, d)


def test_ext_table_builds_phi_once(monkeypatch):
    built = []
    real = entropy.twist_tensor_action

    def counting(model):
        built.append(model)
        return real(model)

    monkeypatch.setattr(entropy, "twist_tensor_action", counting)
    table = ext_recursion_table(3, 1, 2, 50)
    assert len(table.rows) == 51
    assert len(built) == 1


def test_gap_reference_values():
    g2 = gy_gap(2)
    assert g2.log_rho == 0.0
    assert g2.gap == math.log(4)
    assert g2.certified
    g1 = gy_gap(1)
    assert g1.gap == math.log(3) and g1.log_rho == 0.0
    g5 = gy_gap(5)
    assert abs(g5.lower_bound - math.log(7)) < 1e-15
    assert abs(g5.log_rho - math.log((3 + math.sqrt(5)) / 2)) < 1e-15
    assert abs(g5.gap - 0.9834864989) < 1e-9
    with pytest.raises(LatticeInputError):
        gy_gap(0)


def _count_square_parts(monkeypatch) -> list[int]:
    calls = []
    real = spectral._square_part

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(spectral, "_square_part", counting)
    return calls


def test_gap_canonicalises_the_radius_surd_once(monkeypatch):
    # one square part for log_rho, taken from the odd parts 25 and 23 of
    # d = 50 and d - 4 = 46, not from d^2 - 4d = 2300; the certificate is an
    # integer comparison
    calls = _count_square_parts(monkeypatch)
    assert gy_gap(50).certified
    assert calls == [25, 23]


def test_square_parts_never_see_more_than_d(monkeypatch):
    # trial division runs on the odd parts of d and d - 4, never on
    # d^2 - 4d, in gy_gap and in radius_closed_form alike
    calls = _count_square_parts(monkeypatch)
    for d in [*range(1, 300), *(2 ** k for k in range(3, 40)),
              *(2 ** k + 4 for k in range(40)), 10 ** 6, 999_983]:
        calls.clear()
        gy_gap(d)
        radius_closed_form(d)
        assert all(0 < n <= d for n in calls), (d, calls)
        assert len(calls) == (0 if d <= 4 else 4)


def test_gap_at_two_to_the_61_minus_1():
    # 2^61 - 1 is prime and 2^61 - 5 = 3 * 643 * 1195356666259043, so
    # d^2 - 4d is squarefree; one trial-division pass over it runs to about
    # 2^37 and did not finish in 120 s, the passes over the odd parts of d
    # and d - 4 run to about 2^20
    d = 2 ** 61 - 1
    report = gy_gap(d)
    assert report.certified
    root = d * d - 4 * d
    assert report.log_rho == math.log((d - 2) / 2 + 1 / 2 * math.sqrt(root))
    # the floats round together at this size; the integer certificate holds
    assert report.gap == report.lower_bound - report.log_rho


def test_gap_certificate_agrees_with_surd_comparison():
    # the integer test m < (d + 6)^2 against the exact surd comparison
    for d in [*range(1, 600), 997_001, 10 ** 6]:
        assert gy_gap(d).certified == (radius_closed_form(d) < d + 2) is True


def test_radius_and_gap_bytes_match_the_two_scan_oracle():
    # the bytes bench/golden.json digests: str and float of the closed form,
    # and every gy_gap field, rebuilt from the two-scan square part, for
    # every d a benchmark sweep reaches
    for d in range(1, 7101):
        a, b, root = oracle_radius_parts(d)
        text = str(a) if b == 0 else f"{a} + {b}*sqrt({root})"
        value = float(a) + float(b) * math.sqrt(root)
        exact = radius_closed_form(d)
        assert (str(exact), repr(float(exact))) == (text, repr(value))
        lower = math.log(d + 2)
        log_rho = math.log(value)
        # radius < d + 2 exactly; b >= 0, so square both sides when room > 0
        room = d + 2 - a
        certified = room > 0 and b * b * root < room * room
        expected = (d, lower, log_rho, lower - log_rho, certified)
        g = gy_gap(d)
        fields = (g.d, g.lower_bound, g.log_rho, g.gap, g.certified)
        assert list(map(repr, fields)) == list(map(repr, expected))


def test_gap_certified_for_sample_degrees():
    for d in (1, 2, 3, 4, 5, 6, 50, 1000):
        report = gy_gap(d)
        assert report.certified
        assert report.gap > 0


def test_entropy_lower_bound_from_radius():
    # the reported float sits inside the certified interval around the true
    # radius, so logs agree with the exact values up to the tolerance
    model = rank_one_model(5)
    assert abs(entropy_lower_bound_from_radius(identity_action(model))) <= 1e-9
    assert abs(entropy_lower_bound_from_radius(shift_action(model, 1))) <= 1e-9
    bound = entropy_lower_bound_from_radius(twist_tensor_action(model))
    assert abs(bound - math.log((3 + math.sqrt(5)) / 2)) <= 1e-9


def test_entropy_lower_bound_never_exceeds_log_radius():
    # the bound comes from the lower end of the certified bracket, so it may
    # not pass the exact log radius even where the bracket midpoint does
    tol = 1e-9
    for d in range(5, 61):
        exact = math.log(float(radius_closed_form(d)))
        bound = entropy_lower_bound_from_radius(
            twist_tensor_action(rank_one_model(d)), tol
        )
        assert bound <= exact
        assert exact - bound <= 2 * tol
