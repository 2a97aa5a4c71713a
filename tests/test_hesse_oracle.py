"""Tests of the Hesse duality oracle's line walk: differential against the
brute-force scan in `hesse_oracle`, an independent exact point count at
lam = 0, and checks that a wrong dual sextic or a reducible member is
caught."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import hesse_oracle
from coble import hesse
from coble.fields import is_prime

SMALL_PRIMES = [p for p in range(7, 100) if p % 3 == 1 and is_prime(p)]
LAMBDAS = (0, 2, 3, 5, -1, Fraction(1, 2), Fraction(-7, 3))


def smooth_mod(lam, p):
    lam = Fraction(lam)
    return lam.denominator % p != 0 and pow(hesse.reduce_mod(lam, p), 3, p) != 1


def assert_walk_equals_scan(lam, p):
    walked = list(hesse.curve_points(hesse.reduce_mod(lam, p), p))
    points, checked, counterexamples = hesse_oracle.scan(lam, p)
    assert len(walked) == len(set(walked)), (lam, p)
    assert set(walked) == points, (lam, p)
    report = hesse.finite_field_duality_oracle(lam, p)
    assert (report["points"], report["checked"]) == (len(points), checked)
    assert counterexamples == []


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_line_walk_equals_scan(lam):
    # 103 is the one `cli-mix` oracle prime above SMALL_PRIMES
    pairs = [p for p in SMALL_PRIMES + [103] if smooth_mod(lam, p)]
    assert len(pairs) >= len(SMALL_PRIMES) - 3
    for p in pairs:
        assert_walk_equals_scan(lam, p)


@settings(max_examples=40, deadline=None)
@given(st.integers(-60, 60), st.integers(1, 25), st.sampled_from(SMALL_PRIMES))
def test_line_walk_equals_scan_drawn(a, b, p):
    lam = Fraction(a, b)
    assume(smooth_mod(lam, p))
    assert_walk_equals_scan(lam, p)


@pytest.mark.parametrize("lam", [2, Fraction(-49, 15)], ids=str)
def test_line_walk_equals_point_scan_at_1033(lam):
    """1033 is the smallest `hesse-oracle` prime of seed 1; only the point
    sets are compared, the O(p^2) scan evaluating a cubic per point."""
    lam_p = hesse.reduce_mod(lam, 1033)
    walked = list(hesse.curve_points(lam_p, 1033))
    assert len(walked) == len(set(walked))
    assert set(walked) == hesse_oracle.point_set(lam_p, 1033)


def gauss_count(p):
    """Points of x^3 + y^3 + z^3 over F_p, p = 1 mod 3, after Gauss
    (Ireland-Rosen, ch. 8): p + 1 + L with 4p = L^2 + 27 M^2, L = 1 mod 3."""
    for m in range(1, math.isqrt(4 * p // 27) + 1):
        rest = 4 * p - 27 * m * m
        l = math.isqrt(rest)
        if l * l == rest:
            return p + 1 + (l if l % 3 == 1 else -l)
    raise AssertionError(f"no representation of 4 * {p}")


@pytest.mark.parametrize("p", [7, 13, 997, 3001, 3079, 100003])
def test_fermat_cubic_count_matches_gauss(p):
    report = hesse.finite_field_duality_oracle(0, p)
    assert report["points"] == report["checked"] == gauss_count(p)


def test_wrong_dual_coefficient_is_caught(monkeypatch):
    true_coefficients = hesse.dual_coefficients

    def perturbed(lam):
        a1, a2, a3 = true_coefficients(lam)
        return a1 + 1, a2, a3

    monkeypatch.setattr(hesse, "dual_coefficients", perturbed)
    with pytest.raises(hesse.CounterexamplePoint) as exc:
        hesse.finite_field_duality_oracle(2, 97)
    x = exc.value.point
    assert x[0] == 1 or x[:2] == (0, 1)
    assert hesse.HesseCubic(2).poly.evaluate(
        {"X0": x[0], "X1": x[1], "X2": x[2], "lam": 2}) % 97 == 0


@pytest.mark.parametrize("i", range(3))
def test_wrong_dual_coefficient_is_caught_mod_1033(monkeypatch, i):
    """Each of a1, a2, a3 off by one is caught at p = 1033, the smallest
    `hesse-oracle` prime of seed 1."""
    true_coefficients = hesse.dual_coefficients

    def perturbed(lam):
        a = list(true_coefficients(lam))
        a[i] += 1
        return tuple(a)

    monkeypatch.setattr(hesse, "dual_coefficients", perturbed)
    with pytest.raises(hesse.CounterexamplePoint) as exc:
        hesse.finite_field_duality_oracle(2, 1033)
    x = exc.value.point
    assert hesse.HesseCubic(2).poly.evaluate(
        {"X0": x[0], "X1": x[1], "X2": x[2], "lam": 2}) % 1033 == 0


def test_line_inside_the_curve_raises():
    """f_1 mod 13 contains the line X0 + X1 + X2 = 0 through the flex."""
    with pytest.raises(ValueError, match="lies on"):
        list(hesse.curve_points(1, 13))
