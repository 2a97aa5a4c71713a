from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coble.fields import (OMEGA, Eisenstein, bernoulli, cube_roots,
                          format_rational, square_roots, zw_mul, zw_pair,
                          zw_rotate)
from heisenberg_oracle import omega_pow
from linalg_oracle import QwFraction, qw
from properties import prop_field_axioms, run_once, small_fraction


def test_omega_relations():
    assert OMEGA * OMEGA == Eisenstein(-1, -1)
    assert OMEGA ** 3 == 1
    assert OMEGA ** 2 + OMEGA + 1 == 0
    assert omega_pow(5) == OMEGA ** 2
    assert omega_pow(-1) == OMEGA ** 2


def test_zw_pairs_follow_eisenstein_arithmetic():
    xs = [Eisenstein(a, b) for a in (-2, 0, 3) for b in (-1, 0, 5)]
    for x in xs:
        assert type(zw_pair(x)[0]) is int
        for y in xs:
            assert Eisenstein(*zw_mul(zw_pair(x), zw_pair(y))) == x * y
        for j in range(3):
            assert Eisenstein(*zw_rotate(zw_pair(x), j)) == x * omega_pow(j)
    # An int is an element of Z[w] as it stands; a Fraction is none.
    assert zw_pair(-7) == (-7, 0) and type(zw_pair(-7)[0]) is int
    for bad in (Fraction(1, 2), Fraction(3), 0.5, True):
        with pytest.raises(TypeError):
            zw_pair(bad)
    with pytest.raises(TypeError):
        Eisenstein(Fraction(1, 2))


# Q(w) with Fraction parts and division is the tests' `QwFraction`
# (linalg_oracle); the tests below check it, mixed with Z[w]'s Eisenstein.

def test_eisenstein_arithmetic():
    a = QwFraction(Fraction(1, 2), Fraction(-3))
    b = Eisenstein(2, 5)
    assert a + b == QwFraction(Fraction(5, 2), 2)
    # (a + b*w)(c + d*w) = ac - bd + (ad + bc - bd) w
    assert a * b == QwFraction(Fraction(1) + 15, Fraction(5, 2) - 6 + 15)
    assert a - a == 0
    assert (a / b) * b == a


def test_eisenstein_inverse():
    a = QwFraction(3, -2)
    assert a * a.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        QwFraction(0).inverse()


# The Fraction-only reference: an element of Q(w) as a pair of Fractions,
# with the arithmetic, hash, repr and JSON that Eisenstein had when it stored
# two Fractions.

def ref(x):
    return Fraction(x.re), Fraction(x.om)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c - b * d


def ref_inverse(x):
    a, b = x
    n = a * a - a * b + b * b
    return (a - b) / n, -b / n


def ref_pow(x, n):
    acc = (Fraction(1), Fraction(0))
    for _ in range(n):
        acc = ref_mul(acc, x)
    return acc


def ref_hash(x):
    return hash(x[0]) if x[1] == 0 else hash(x)


def ref_repr(x):
    re, om = x
    if om == 0:
        return f"{re}"
    if re == 0:
        return f"{om}*w"
    return f"{re}{'+' if om > 0 else ''}{om}*w"


def assert_matches_ref(x, expected):
    """x has the reference's value, hash, repr and JSON, and each part is
    an int exactly when it is integral (never a float)."""
    for part, want in zip((x.re, x.om), expected):
        assert part == want
        assert type(part) is (int if want.denominator == 1 else Fraction)
    assert x == QwFraction(*expected)
    assert hash(x) == ref_hash(expected)
    assert repr(x) == ref_repr(expected)
    assert x.to_json() == {"re": format_rational(expected[0]),
                           "om": format_rational(expected[1])}


qw_part = st.one_of(st.integers(-30, 30), small_fraction)
qw_element = st.builds(QwFraction, qw_part, qw_part)


@settings(max_examples=300, deadline=None)
@given(qw_element, qw_element, st.integers(0, 4))
def test_eisenstein_equals_fraction_reference(x, y, n):
    rx, ry = ref(x), ref(y)
    assert_matches_ref(x, rx)
    assert_matches_ref(x + y, (rx[0] + ry[0], rx[1] + ry[1]))
    assert_matches_ref(x - y, (rx[0] - ry[0], rx[1] - ry[1]))
    assert_matches_ref(-x, (-rx[0], -rx[1]))
    assert_matches_ref(x * y, ref_mul(rx, ry))
    assert_matches_ref(x ** n, ref_pow(rx, n))
    assert_matches_ref(3 * x - 1, (3 * rx[0] - 1, 3 * rx[1]))
    if y:
        assert_matches_ref(y.inverse(), ref_inverse(ry))
        assert_matches_ref(x / y, ref_mul(rx, ref_inverse(ry)))
        assert_matches_ref(2 / y, ref_mul((2, 0), ref_inverse(ry)))
    assert (x == y) == (rx == ry)


def test_eisenstein_inverses_of_small_norms():
    """Inverses of 2 (norm 4), w (a unit) and 1 - w (norm 3) divide exactly."""
    omega = qw(OMEGA)
    for x in (QwFraction(2), omega, QwFraction(1, -1), QwFraction(3, 1)):
        assert_matches_ref(x.inverse(), ref_inverse(ref(x)))
        assert x * x.inverse() == 1
    assert_matches_ref(QwFraction(2).inverse(), (Fraction(1, 2), Fraction(0)))
    assert_matches_ref(omega.inverse(), (Fraction(-1), Fraction(-1)))
    assert_matches_ref(QwFraction(1, -1).inverse(),
                       (Fraction(2, 3), Fraction(1, 3)))
    assert_matches_ref(QwFraction(1, -1) / Eisenstein(1, -1), (1, 0))
    assert_matches_ref(QwFraction(0.5, 2.0), (Fraction(1, 2), Fraction(2)))


def test_eisenstein_json():
    assert Eisenstein(1, -3).to_json() == {"re": "1", "om": "-3"}
    assert QwFraction(Fraction(1, 2), -3).to_json() == {"re": "1/2",
                                                        "om": "-3"}


@pytest.mark.parametrize("p", [7, 13, 97, 193, 769])
def test_square_roots_equals_brute_force(p):
    """Every residue mod p: the table's root squares back to it, and None
    stands exactly on the non-squares."""
    roots = square_roots(p)
    squares = {x * x % p for x in range(p)}
    assert len(roots) == p
    for a in range(p):
        if a in squares:
            assert roots[a] * roots[a] % p == a, (a, roots[a])
        else:
            assert roots[a] is None, a


@pytest.mark.parametrize("p", [7, 13, 97, 193, 769])
def test_cube_roots_equals_brute_force(p):
    """Every residue mod p: the table's root cubes back to it, and 0 stands
    exactly on the non-cubes and on 0."""
    roots = cube_roots(p)
    cubes = {x * x * x % p for x in range(p)}
    assert len(roots) == p
    for a in range(p):
        if a in cubes:
            assert roots[a] * roots[a] * roots[a] % p == a, (a, roots[a])
        else:
            assert roots[a] == 0, a


def test_bernoulli():
    expected = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
                Fraction(-1, 30), Fraction(0), Fraction(1, 42)]
    assert [bernoulli(n) for n in range(7)] == expected


def test_field_axioms_suite():
    run_once(prop_field_axioms)
