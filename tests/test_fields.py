from fractions import Fraction

import pytest

from coble.fields import (OMEGA, QQ, QW, Eisenstein, bernoulli, binomial,
                          omega_pow, square_root_mod, zw_mul, zw_pair,
                          zw_rotate)
from properties import prop_field_axioms


def test_omega_relations():
    assert OMEGA * OMEGA == Eisenstein(-1, -1)
    assert OMEGA ** 3 == QW.one()
    assert OMEGA ** 2 + OMEGA + QW.one() == QW.zero()
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
    assert zw_pair(Eisenstein(Fraction(1, 2))) == (Fraction(1, 2), 0)


def test_eisenstein_arithmetic():
    a = Eisenstein(Fraction(1, 2), Fraction(-3))
    b = Eisenstein(2, 5)
    assert a + b == Eisenstein(Fraction(5, 2), 2)
    # (a + b*w)(c + d*w) = ac - bd + (ad + bc - bd) w
    assert a * b == Eisenstein(Fraction(1) + 15, Fraction(5, 2) - 6 + 15)
    assert a - a == QW.zero()
    assert (a / b) * b == a


def test_eisenstein_inverse():
    a = Eisenstein(3, -2)
    assert a * a.inverse() == QW.one()
    with pytest.raises(ZeroDivisionError):
        QW.zero().inverse()


def test_eisenstein_json():
    assert Eisenstein(Fraction(1, 2), -3).to_json() == {"re": "1/2", "om": "-3"}


def test_rational_field():
    assert QQ.zero() == Fraction(0)
    assert QQ.coerce(3) == Fraction(3)


@pytest.mark.parametrize("p", [97, 193, 769, 7, 13])
def test_square_root_mod_equals_brute_force(p):
    """97, 193 and 769 have p - 1 divisible by 2^5, 2^6 and 2^8, so
    Tonelli-Shanks runs its inner loop deep; 7 is 3 mod 4."""
    root = square_root_mod(p)
    roots = {a: set() for a in range(p)}
    for x in range(p):
        roots[x * x % p].add(x)
    for a in range(p):
        r = root(a)
        if roots[a]:
            assert r in roots[a], (a, r)
        else:
            assert r is None, (a, r)
    assert root(p + 4) in roots[4]


def test_bernoulli():
    expected = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
                Fraction(-1, 30), Fraction(0), Fraction(1, 42)]
    assert [bernoulli(n) for n in range(7)] == expected


def test_binomial():
    assert binomial(10, 2) == 45
    assert binomial(7, 0) == 1


def test_field_axioms_suite():
    prop_field_axioms()
