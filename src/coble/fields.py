"""Exact coefficient fields: Q and Q(w) with w a primitive cube root of
unity, plus the integer helpers the prime-field code needs (primality, square
roots mod p, Bernoulli numbers).

All elements are immutable and hashable.  Rationals are plain
``fractions.Fraction`` values.  An element of Q(w) keeps each of its two
parts as a plain ``int`` when it is integral and as a ``Fraction`` otherwise,
so arithmetic in Z[w] runs on ints.  The field objects below exist so that
generic code (polynomials, matrices) can ask for zero/one and coerce scalars
without caring which field it is working over.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _part(x):
    """A rational as a plain int when it is integral, else as a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Eisenstein:
    """An element a + b*w of Q(w), with w**2 = -1 - w (so w**3 = 1).  Each
    part is an int when integral and a Fraction otherwise."""

    __slots__ = ("re", "om")

    def __init__(self, re=0, om=0):
        self.re = re if type(re) is int else _part(re)
        self.om = om if type(om) is int else _part(om)

    def __add__(self, other):
        other = _as_eisenstein(other)
        if other is NotImplemented:
            return NotImplemented
        return Eisenstein(self.re + other.re, self.om + other.om)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_eisenstein(other)
        if other is NotImplemented:
            return NotImplemented
        return Eisenstein(self.re - other.re, self.om - other.om)

    def __rsub__(self, other):
        other = _as_eisenstein(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_eisenstein(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd*w^2,  w^2 = -1 - w
        a, b, c, d = self.re, self.om, other.re, other.om
        return Eisenstein(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def inverse(self):
        # Norm N(a + bw) = a^2 - ab + b^2, with conjugate a + b*w^2 = (a-b) - b*w.
        # The norm is a Fraction, so that two int parts never meet `/`.
        a, b = self.re, self.om
        n = Fraction(a * a - a * b + b * b)
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return Eisenstein((a - b) / n, -b / n)

    def __truediv__(self, other):
        other = _as_eisenstein(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_eisenstein(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return Eisenstein(-self.re, -self.om)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        acc = Eisenstein(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        other = _as_eisenstein(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.om == other.om

    def __hash__(self):
        if self.om == 0:
            return hash(self.re)
        return hash((self.re, self.om))

    def __bool__(self):
        return self.re != 0 or self.om != 0

    def __repr__(self):
        if self.om == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.om}*w"
        return f"{self.re}{'+' if self.om > 0 else ''}{self.om}*w"

    def to_json(self):
        return {"re": format_rational(self.re), "om": format_rational(self.om)}


def _as_eisenstein(x):
    if isinstance(x, Eisenstein):
        return x
    if isinstance(x, (int, Fraction)):
        return Eisenstein(x)
    return NotImplemented


OMEGA = Eisenstein(0, 1)
OMEGA2 = Eisenstein(-1, -1)


def omega_pow(k):
    """w**k for any integer k."""
    return (Eisenstein(1), OMEGA, OMEGA2)[k % 3]


def zw_pair(c):
    """An element of Q(w) as the pair (re, om); a part is an int exactly
    when it is integral."""
    return c.re, c.om


def zw_mul(x, y):
    """The product of two pairs (a + b*w)(c + d*w), with w^2 = -1 - w."""
    a, b = x
    c, d = y
    return a * c - b * d, a * d + b * c - b * d


def zw_rotate(x, j):
    """The pair x times w^j, for j in 0..2, without multiplying."""
    a, b = x
    if j == 0:
        return x
    if j == 1:
        return -b, a - b
    return b - a, -a


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class RationalField:
    """The rationals, elements are fractions.Fraction."""

    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def coeff_to_json(self, c):
        return format_rational(c)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class EisensteinField:
    """Q(w), w^2 + w + 1 = 0."""

    name = "QQ(w)"

    def zero(self):
        return Eisenstein(0)

    def one(self):
        return Eisenstein(1)

    def omega(self):
        return OMEGA

    def coerce(self, x):
        if isinstance(x, Eisenstein):
            return x
        if isinstance(x, (int, Fraction)):
            return Eisenstein(x)
        raise TypeError(f"cannot coerce {x!r} into QQ(w)")

    def coeff_to_json(self, c):
        return c.to_json()

    def __eq__(self, other):
        return isinstance(other, EisensteinField)

    def __hash__(self):
        return hash("QQ(w)")

    def __repr__(self):
        return "QQ(w)"


QQ = RationalField()
QW = EisensteinField()


def is_prime(n):
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def square_roots(p):
    """The square roots mod an odd prime p as a table: roots[a] is an x with
    x * x = a mod p, or None when a is not a square.  Every nonzero square
    is x * x for one x in 1..(p - 1) / 2, so one pass over those x fills it;
    the table holds p entries."""
    roots = [None] * p
    roots[0] = 0
    for x in range(1, p // 2 + 1):
        roots[x * x % p] = x
    return roots


def binomial(n, k):
    return math.comb(n, k)


_bernoulli_cache = {0: Fraction(1)}


def bernoulli(n):
    """Exact Bernoulli number B_n from the recurrence
    sum_{k=0}^{n} C(n+1, k) B_k = 0 (with B_1 = -1/2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in _bernoulli_cache:
        return _bernoulli_cache[n]
    for m in range(1, n + 1):
        if m not in _bernoulli_cache:
            acc = Fraction(0)
            for k in range(m):
                acc += binomial(m + 1, k) * _bernoulli_cache[k]
            _bernoulli_cache[m] = -acc / (m + 1)
    return _bernoulli_cache[n]
