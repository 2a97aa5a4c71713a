"""Exact coefficient rings: Q, and Z[w] with w a primitive cube root of
unity, plus the integer helpers the prime-field code needs (primality, square
and cube roots mod p, Bernoulli numbers).

All elements are immutable and hashable.  Rationals are plain ``int`` and
``fractions.Fraction`` values.  An element of Z[w] keeps its two parts as
plain ``int``s, so its arithmetic runs on ints; nothing here divides in
Q(w).  There are no ring objects: a coefficient's type says which ring it
lies in, and an int lies in both.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Eisenstein:
    """An element a + b*w of Z[w], with w**2 = -1 - w (so w**3 = 1); both
    parts are ints, and any other part raises TypeError."""

    __slots__ = ("re", "om")

    def __init__(self, re=0, om=0):
        if type(re) is not int or type(om) is not int:
            raise TypeError(f"parts of an element of Z[w] must be ints: "
                            f"{re!r}, {om!r}")
        self.re = re
        self.om = om

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
        return {"re": str(self.re), "om": str(self.om)}


def _as_eisenstein(x):
    if isinstance(x, Eisenstein):
        return x
    return Eisenstein(x) if type(x) is int else NotImplemented


OMEGA = Eisenstein(0, 1)


def zw_pair(c):
    """An element of Z[w], an int or an Eisenstein, as the pair (re, om) of
    its parts; any other type raises TypeError."""
    if type(c) is int:
        return c, 0
    if isinstance(c, Eisenstein):
        return c.re, c.om
    raise TypeError(f"not an element of Z[w]: {c!r}")


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


def primitive_root(p):
    """The least generator of the multiplicative group mod a prime p: the
    least g with g^((p - 1) / q) != 1 for every prime q dividing p - 1,
    which trial division up to sqrt(p) finds."""
    n, primes, q = p - 1, [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in primes))


def cube_roots(p):
    """The cube roots mod a prime p = 1 mod 3, p < 2^31, as a table:
    roots[a] is an x with x * x * x = a mod p, or 0 when a is not a cube
    (and for a = 0).  With g a primitive root, the nonzero cubes are
    g^(3k) = (g^k)^3 for k = 0..(p - 4) / 3, so one pass over those k fills
    it.  The table is a typed buffer of p 4-byte ints, 40 MB at p = 10^7,
    where a list of ints would take over four times that."""
    roots = memoryview(bytearray(4 * p)).cast("i")
    g = primitive_root(p)
    g3 = g * g * g % p
    x = cube = 1
    for _ in range((p - 1) // 3):
        roots[cube] = x
        x = x * g % p
        cube = cube * g3 % p
    return roots


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
                acc += math.comb(m + 1, k) * _bernoulli_cache[k]
            _bernoulli_cache[m] = -acc / (m + 1)
    return _bernoulli_cache[n]
