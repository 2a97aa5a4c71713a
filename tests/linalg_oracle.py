"""Exact dense linear algebra over Q and Q(w), which no certificate runs:
the reference elimination that the rank certificate
(`linalg.certified_rank_and_kernel`) and every eliminating test are
checked against.  `coble.fields` holds Z[w] only, so Q(w), with its
Fraction parts and its division, is defined here (`QwFraction`).  A matrix
lifts each entry by its value: an `Eisenstein` to a `QwFraction`, an int or
a Fraction to a Fraction.

Elimination is plain Gaussian elimination with exact division; the pivot in
each column is the first (lowest-index) row with a nonzero entry, so results
are deterministic.  Kernel bases come out echelon-normalized: one vector per
free column, with entry 1 in that column.
"""

from fractions import Fraction

from coble.fields import Eisenstein, zw_mul


def _part(x):
    """A rational as a plain int when it is integral, else as a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class QwFraction(Eisenstein):
    """An element a + b*w of Q(w), the field of fractions of Z[w]: each part
    an int when integral and a Fraction otherwise, so it equals, hashes and
    renders as `Eisenstein` does.  Arithmetic with an Eisenstein, an int or
    a Fraction gives a QwFraction, and it divides."""

    __slots__ = ()

    def __init__(self, re=0, om=0):
        self.re = re if type(re) is int else _part(re)
        self.om = om if type(om) is int else _part(om)

    def __add__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return QwFraction(self.re + other.re, self.om + other.om)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return QwFraction(self.re - other.re, self.om - other.om)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return QwFraction(*zw_mul((self.re, self.om), (other.re, other.om)))

    __rmul__ = __mul__

    def __neg__(self):
        return QwFraction(-self.re, -self.om)

    def inverse(self):
        # Norm N(a + bw) = a^2 - ab + b^2, with conjugate a + b*w^2 = (a-b) - b*w.
        a, b = self.re, self.om
        n = Fraction(a * a - a * b + b * b)
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return QwFraction((a - b) / n, -b / n)

    def __truediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * QwFraction(other.re, other.om).inverse()

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.inverse() * other

    def __eq__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.om == other.om

    __hash__ = Eisenstein.__hash__


def _lift(x):
    """x as an element of Q(w), or NotImplemented."""
    if isinstance(x, Eisenstein):
        return x
    if isinstance(x, (int, Fraction)):
        return QwFraction(x)
    return NotImplemented


def qw(x):
    """x as a QwFraction: an int, a Fraction or an Eisenstein; TypeError
    otherwise."""
    if isinstance(x, Eisenstein):
        return QwFraction(x.re, x.om)
    if isinstance(x, (int, Fraction)):
        return QwFraction(x)
    raise TypeError(f"not an element of Q(w): {x!r}")


def _entry(x):
    """x lifted by value into a field: an int or a Fraction into Q, an
    Eisenstein into Q(w) (`qw`)."""
    return Fraction(x) if isinstance(x, (int, Fraction)) else qw(x)


ZERO, ONE = Fraction(0), Fraction(1)


class ExactMatrix:
    def __init__(self, entries):
        """entries: list of rows, each entry lifted by value (`_entry`)."""
        self.entries = [[_entry(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def transpose(self):
        return ExactMatrix([list(col) for col in zip(*self.entries)])

    def mul_vector(self, v):
        out = []
        for row in self.entries:
            acc = ZERO
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return out

    def rref(self):
        """Reduced row echelon form; returns (matrix rows, pivot column list)."""
        m = [row[:] for row in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            pivot_row = None
            for i in range(r, self.rows):
                if m[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = ONE / m[r][c]
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self):
        return len(self.rref()[1])

    def rank_and_kernel(self):
        """Rank and a basis of the right kernel, echelon-normalized."""
        m, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for i, c in enumerate(pivots):
                v[c] = -m[i][f]
            basis.append(v)
        return len(pivots), basis

    def row_space_contains(self, v):
        """Does the vector v lie in the row span of this matrix?"""
        stacked = ExactMatrix(self.entries + [list(v)])
        return stacked.rank() == self.rank()

    def solve(self, b):
        """One exact solution x of A x = b, or None if inconsistent."""
        aug = ExactMatrix([row + [bi] for row, bi in zip(self.entries, b)])
        m, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [ZERO] * self.cols
        for i, c in enumerate(pivots):
            x[c] = m[i][self.cols]
        return x

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"
