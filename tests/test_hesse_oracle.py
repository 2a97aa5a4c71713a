"""Tests of the Hesse duality oracle's orbit walk: differential against the
brute-force scan in `hesse_oracle`, with each representative expanded to
the orbit of points it stands for, an independent exact point count at
lam = 0, a count of the walk's representatives, and checks that a wrong
dual sextic or a reducible member is caught, also when the oracle checks
one point of each orbit of sigma and the X1 <-> X2 twin."""

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


def walked_points(lam_p, p):
    """The expanded walk, after checking that each representative's n is
    the size of its orbit under sigma and the X1 <-> X2 twin, and that no
    point is walked twice."""
    walk = list(hesse.curve_points(lam_p, p))
    orbits = hesse_oracle.expand(walk, p)
    for (x0, y1, y2, n), orbit in zip(walk, orbits):
        assert n == len(orbit), (lam_p, p, (x0, y1, y2, n))
    walked = [point for orbit in orbits for point in orbit]
    assert len(walked) == len(set(walked)), (lam_p, p)
    return set(walked)


def assert_walk_equals_scan(lam, p):
    points, checked, counterexamples = hesse_oracle.scan(lam, p)
    assert walked_points(hesse.reduce_mod(lam, p), p) == points, (lam, p)
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
    assert walked_points(lam_p, 1033) == hesse_oracle.point_set(lam_p, 1033)


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


def test_walk_yields_one_representative_per_six_points():
    """At 3079, the benchmark's largest prime, each representative stands
    for 3 or 6 points, and there are at most N / 6 + 5 of them for the N
    points they add up to, a count inside the Hasse bound."""
    p = 3079
    lam_p = hesse.reduce_mod(Fraction(-49, 15), p)
    sizes = [n for *_, n in hesse.curve_points(lam_p, p)]
    points = sum(sizes)
    assert set(sizes) <= {3, 6}
    assert (points - p - 1) ** 2 <= 4 * p
    assert len(sizes) <= points / 6 + 5


@pytest.mark.parametrize("p", [3, 5, 11])
def test_walk_refuses_p_not_1_mod_3(p):
    # At 3 every gradient 3 (...) vanishes; for p = 2 mod 3 sigma needs a
    # cube root of 1 that F_p lacks.
    with pytest.raises(ValueError, match="p = 1 mod 3"):
        list(hesse.curve_points(2, p))


def perturb(monkeypatch, i):
    """Put a_(i+1) of the dual sextic off by one."""
    true_coefficients = hesse.dual_coefficients

    def perturbed(lam):
        a = list(true_coefficients(lam))
        a[i] += 1
        return tuple(a)

    monkeypatch.setattr(hesse, "dual_coefficients", perturbed)


def test_wrong_dual_coefficient_is_caught(monkeypatch):
    perturb(monkeypatch, 0)
    report = hesse.finite_field_duality_oracle(2, 97)
    assert report["counterexamples"] > 0
    x = report["first_counterexample"]
    assert x[0] == 1 or x[:2] == (0, 1)
    assert x == hesse_oracle.normalize_mod(x, 97)
    assert hesse.PENCIL.evaluate(
        {"X0": x[0], "X1": x[1], "X2": x[2], "lam": 2}) % 97 == 0


@pytest.mark.parametrize("i", range(3))
def test_wrong_dual_coefficient_is_caught_mod_1033(monkeypatch, i):
    """Each of a1, a2, a3 off by one is caught at p = 1033, the smallest
    `hesse-oracle` prime of seed 1."""
    perturb(monkeypatch, i)
    report = hesse.finite_field_duality_oracle(2, 1033)
    assert report["counterexamples"] > 0
    x = report["first_counterexample"]
    assert x == hesse_oracle.normalize_mod(x, 1033)
    assert hesse.PENCIL.evaluate(
        {"X0": x[0], "X1": x[1], "X2": x[2], "lam": 2}) % 1033 == 0


@pytest.mark.parametrize("lam", [2, Fraction(-7, 3)], ids=str)
def test_counterexamples_are_closed_under_the_twin_swap(monkeypatch, lam):
    """With a1 off by one, the scan's counterexamples are a union of orbits
    of sigma and the X1 <-> X2 twin at every p <= 103, so the oracle, which
    checks one point of each orbit, loses none: it counts as many as the
    scan finds, and the first it names is one of them."""
    perturb(monkeypatch, 0)
    for p in [p for p in SMALL_PRIMES + [103] if smooth_mod(lam, p)]:
        scanned = hesse_oracle.scan(lam, p)[2]
        found = set(scanned)
        assert found, (lam, p)
        e = hesse_oracle.cube_root_of_unity(p)
        for images in ({(x0, x2, x1) for x0, x1, x2 in found},
                       {(x0, x1 * e, x2 * e * e) for x0, x1, x2 in found}):
            assert {hesse_oracle.normalize_mod(x, p)
                    for x in images} == found, (lam, p)
        report = hesse.finite_field_duality_oracle(lam, p)
        assert report["counterexamples"] == len(scanned), (lam, p)
        assert report["first_counterexample"] in found, (lam, p)


def test_oracle_calls_pow_a_fixed_number_of_times(monkeypatch):
    # The representatives are scaled so that no orbit needs an inverse.
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(hesse, "pow", counting, raising=False)
    counts = []
    for p in (97, 1033):
        calls.clear()
        hesse.finite_field_duality_oracle(Fraction(-7, 3), p)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3


def test_line_inside_the_curve_raises():
    """f_1 mod 13 contains the line X0 + X1 + X2 = 0 through the flex."""
    with pytest.raises(ValueError, match="lies on"):
        list(hesse.curve_points(1, 13))


def test_walk_refuses_p_2():
    # p = 2 is no odd prime, and 2 = 2 mod 3.
    with pytest.raises(ValueError, match="odd prime"):
        list(hesse.curve_points(0, 2))
