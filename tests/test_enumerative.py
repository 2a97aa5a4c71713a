import cmath
import math
from fractions import Fraction

import pytest

from coble import enumerative
from coble.enumerative import (HARDCODED_TABLE, character_sum_mismatches,
                               csc_square_coefficients,
                               derived_intersection_table, dual_degree_computation,
                               dual_degree_expansion, finite_differences,
                               quadric_dimension_count,
                               theta_degree_from_verlinde,
                               theta_degree_from_zagier,
                               verlinde_character_sum, verlinde_exact,
                               verlinde_sequence, zagier_leading_coefficient)


def verlinde_v111(m):
    """The float reference: V_{1,1,1}(m), the sum over a, b >= 1,
    a + b <= m - 1 of [sin(pi a/m) sin(pi b/m) sin(pi (a+b)/m)]^(-2)."""
    total = 0.0
    for a in range(1, m - 1):
        for b in range(1, m - a):
            s = (math.sin(math.pi * a / m) * math.sin(math.pi * b / m)
                 * math.sin(math.pi * (a + b) / m))
            total += s ** -2
    return total


def float_verlinde(k):
    """h^0(L^k) as the float sum 3 ((k+3)/8)^2 V_{1,1,1}(k+3); its error
    grows with k (rounded, it is one too few at k = 160)."""
    return 3 * ((k + 3) / 8) ** 2 * verlinde_v111(k + 3)


def q_by_definition(m, n):
    """q_n: the sum of ij over 1 <= i, j < m with i + j = n mod m."""
    return sum(i * j for i in range(1, m) for j in range(1, m)
               if (i + j - n) % m == 0)


def test_derived_table_matches_frozen():
    assert derived_intersection_table() == HARDCODED_TABLE
    assert HARDCODED_TABLE[2] == -18
    assert HARDCODED_TABLE[1] == -162
    assert HARDCODED_TABLE[0] == -810


def test_expansion_coefficients():
    coeffs = dual_degree_expansion()
    assert coeffs[8] == 384
    assert coeffs[2] == 210
    assert coeffs[1] == -31
    assert coeffs[0] == 2


def test_dual_degree():
    assert dual_degree_computation() == 6


def test_intersection_class_evaluation():
    # Only H^8 and H^r e^(8-r), r <= 2, are nonzero in the table:
    # 384 * 1 + 210 * (-18) - 31 * (-162) + 2 * (-810) = 6.
    table = derived_intersection_table()
    coeffs = dual_degree_expansion()
    assert sorted(coeffs) == list(range(9))
    terms = {r: c * table[r] for r, c in coeffs.items() if table[r]}
    assert terms == {8: 384, 2: 210 * -18, 1: -31 * -162, 0: 2 * -810}
    assert sum(terms.values()) == dual_degree_computation() == 6


def test_verlinde_values():
    assert verlinde_character_sum(1) == 9
    assert verlinde_v111(4) == pytest.approx(12)


def test_float_sum_agrees_with_the_character_sum_up_to_level_12():
    for k in range(13):
        exact = verlinde_character_sum(k)
        assert exact.denominator == 1
        assert abs(float_verlinde(k) - exact) < 1e-6 * exact


def test_character_sum_is_the_closed_form_up_to_level_1000():
    assert character_sum_mismatches(1000) == []
    assert verlinde_character_sum(160) == 24756893689473
    assert round(float_verlinde(160)) == 24756893689472


def test_q_closed_form_is_its_definition():
    # Also c_l = c_-l, which lets the sum take q_n^2 and q_n^3 for
    # c_l c_-l and c_l c_-l^2.
    for m in range(1, 31):
        q = csc_square_coefficients(m)
        assert q == [q_by_definition(m, n) for n in range(m)]
        assert all(q[(l - 1) % m] == q[(-l - 1) % m] for l in range(m))


def test_csc_square_coefficients_are_the_fourier_coefficients():
    for m in range(2, 13):
        q = csc_square_coefficients(m)
        for a in range(1, m):
            series = sum(-4 * q[(l - 1) % m] / m ** 2
                         * cmath.exp(2j * math.pi * a * l / m)
                         for l in range(m))
            assert series == pytest.approx(math.sin(math.pi * a / m) ** -2)


def test_verlinde_sequence_frozen():
    assert verlinde_sequence(10) == [1, 9, 45, 166, 504, 1332, 3168, 6930,
                                     14157, 27313, 50193]


def test_verlinde_exact_at_large_level():
    assert verlinde_sequence(160)[160] == 24756893689473


def test_verlinde_leading_coefficient_matches_zagier():
    """C(k+8, 8) + C(k+5, 8) has leading coefficient 2/8!, which is
    3 v_{1,1,1} / 64."""
    diffs = [verlinde_exact(k) for k in range(150, 159)]
    for _ in range(8):
        diffs = finite_differences(diffs)
    leading = Fraction(diffs[0], math.factorial(8))
    assert leading == Fraction(2, math.factorial(8))
    assert leading == 3 * zagier_leading_coefficient(1) / 64


def test_verlinde_character_sum_check_is_live(monkeypatch):
    exact = verlinde_exact
    monkeypatch.setattr("coble.enumerative.verlinde_exact",
                        lambda k: exact(k) + (k in (12, 15)))
    assert character_sum_mismatches(11) == []
    assert character_sum_mismatches(20) == [12, 15]


def test_character_sum_check_sums_each_level_once(monkeypatch):
    """One character sum per level k = 0..kmax, and none for the sequence,
    which is the closed form alone."""
    summed, calls = verlinde_character_sum, []
    monkeypatch.setattr("coble.enumerative.verlinde_character_sum",
                        lambda k: calls.append(k) or summed(k))
    assert character_sum_mismatches(17) == []
    assert calls == list(range(18))
    calls.clear()
    verlinde_sequence(17)
    assert calls == []


def test_theta_degree_from_verlinde():
    assert theta_degree_from_verlinde() == 2


def test_finite_differences():
    diffs = verlinde_sequence(10)
    for _ in range(8):
        diffs = finite_differences(diffs)
    assert all(d == diffs[0] for d in diffs)
    # degree-8 polynomial growth: ninth differences vanish
    assert all(d == 0 for d in finite_differences(diffs))


def test_zagier_values():
    assert zagier_leading_coefficient(1) == Fraction(1, 945)
    assert zagier_leading_coefficient(2) == Fraction(19, 91216125)
    with pytest.raises(ValueError):
        zagier_leading_coefficient(0)


def test_theta_degree_from_zagier():
    assert theta_degree_from_zagier() == 2


def test_quadric_count():
    assert quadric_dimension_count() == 9



def test_tampered_frozen_table_is_refused(monkeypatch):
    monkeypatch.setattr(enumerative, "HARDCODED_TABLE",
                        {**HARDCODED_TABLE, 2: -17})
    with pytest.raises(ValueError, match="differs from the frozen"):
        dual_degree_computation()


def test_character_sum_off_an_integer_is_a_mismatch(monkeypatch):
    summed = verlinde_character_sum
    monkeypatch.setattr(enumerative, "verlinde_character_sum",
                        lambda k: summed(k) + Fraction(k == 1, 10))
    assert character_sum_mismatches(5) == [1]


def test_nonconstant_eighth_differences_are_refused(monkeypatch):
    # The finding is the value: no degree is returned.
    monkeypatch.setattr(enumerative, "verlinde_sequence",
                        lambda kmax: [verlinde_exact(k) + (k == kmax)
                                      for k in range(kmax + 1)])
    assert theta_degree_from_verlinde() == \
        "8th differences not constant: [2, 2, 3]"
