import math
from fractions import Fraction

import pytest

from coble.enumerative import (FLOAT_CHECK_KMAX, HARDCODED_TABLE,
                               IntersectionClass,
                               NonIntegralDimension,
                               derived_intersection_table, dual_degree_computation,
                               dual_degree_expansion, finite_differences,
                               quadric_dimension_count,
                               theta_degree_from_verlinde,
                               theta_degree_from_zagier, verlinde_dimension,
                               verlinde_exact, verlinde_sequence,
                               verlinde_v111, zagier_leading_coefficient)


def test_derived_table_matches_frozen():
    assert derived_intersection_table() == HARDCODED_TABLE
    assert HARDCODED_TABLE[2] == -18
    assert HARDCODED_TABLE[1] == -162
    assert HARDCODED_TABLE[0] == -810


def test_expansion_coefficients():
    coeffs = dual_degree_expansion().coefficients
    assert coeffs[8] == 384
    assert coeffs[2] == 210
    assert coeffs[1] == -31
    assert coeffs[0] == 2


def test_dual_degree():
    assert dual_degree_computation() == 6


def test_intersection_class_evaluation():
    table = derived_intersection_table()
    cls = IntersectionClass({8: 1})
    assert cls.evaluate(table) == 1
    assert IntersectionClass({2: 1}).evaluate(table) == -18


def test_verlinde_values():
    value, rounded = verlinde_dimension(1)
    assert rounded == 9 and abs(value - 9) < 1e-6
    assert verlinde_v111(4) == pytest.approx(12)


def test_verlinde_sequence_frozen():
    assert verlinde_sequence(10) == [1, 9, 45, 166, 504, 1332, 3168, 6930,
                                     14157, 27313, 50193]


def test_verlinde_exact_at_large_level():
    """The rounded float sum gives 24756893689472 here, one too few."""
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


def test_verlinde_float_cross_check_is_live(monkeypatch):
    exact = verlinde_exact
    monkeypatch.setattr("coble.enumerative.verlinde_exact",
                        lambda k: exact(k) + (k == 12))
    assert verlinde_sequence(11) == [exact(k) for k in range(12)]
    with pytest.raises(NonIntegralDimension):
        verlinde_sequence(12)


def test_verlinde_sequence_sums_each_checked_level_once(monkeypatch):
    """One float sum per level k <= FLOAT_CHECK_KMAX, none above, and a
    failing level reports the float it already summed."""
    v111, exact = verlinde_v111, verlinde_exact
    calls = []
    monkeypatch.setattr("coble.enumerative.verlinde_v111",
                        lambda m: calls.append(m) or v111(m))
    verlinde_sequence(FLOAT_CHECK_KMAX + 5)
    assert calls == [k + 3 for k in range(FLOAT_CHECK_KMAX + 1)]
    calls.clear()
    monkeypatch.setattr("coble.enumerative.verlinde_exact",
                        lambda k: exact(k) + (k == FLOAT_CHECK_KMAX))
    with pytest.raises(NonIntegralDimension, match="float sum"):
        verlinde_sequence(FLOAT_CHECK_KMAX)
    assert calls == [k + 3 for k in range(FLOAT_CHECK_KMAX + 1)]


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

