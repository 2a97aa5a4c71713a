"""Sparse exact multivariate polynomials with int, Fraction or Z[w]
(`fields.Eisenstein`) coefficients.

A ring fixes an ordered tuple of variable names and nothing else; each
coefficient's type says which ring it lies in.  Monomials are dense exponent
tuples keyed to that order.  Everything is immutable-by-convention and kept in
canonical form (no zero coefficients stored), so `==` on term maps is
polynomial equality.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .fields import Eisenstein, format_rational


class NotInSpan(Exception):
    """Raised when a polynomial does not lie in the span of a given basis."""


def _coefficient(c):
    """c, if it is an int, a Fraction or an Eisenstein; TypeError else."""
    if isinstance(c, (int, Fraction, Eisenstein)):
        return c
    raise TypeError(f"not a coefficient: {c!r}")


class PolyRing:
    def __init__(self, varnames):
        self.varnames = tuple(varnames)
        self.index = {v: i for i, v in enumerate(self.varnames)}
        if len(self.index) != len(self.varnames):
            raise ValueError("duplicate variable names")
        self.nvars = len(self.varnames)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        if not _coefficient(c):
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name):
        exps = [0] * self.nvars
        exps[self.index[name]] = 1
        return Polynomial(self, {tuple(exps): 1})

    def from_terms(self, terms):
        out = {}
        for exps, c in terms.items():
            if _coefficient(c):
                out[tuple(exps)] = c
        return Polynomial(self, out)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.varnames == self.varnames

    def __hash__(self):
        return hash(self.varnames)

    def __repr__(self):
        return f"PolyRing({list(self.varnames)})"


def _grlex_key(exps):
    return (sum(exps), exps)


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- ring arithmetic ---------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        try:
            return self.ring.const(other)
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        if n == 0:
            return self.ring.one()
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        coerced = self._coerce_operand(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- structure ---------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex order (canonical, byte-stable)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))

    # -- calculus and evaluation --------------------------------------------

    def partial_derivative(self, name):
        i = self.ring.index[name]
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                k = e2[i]
                e2[i] -= 1
                e2 = tuple(e2)
                c2 = c * k
                s = out.get(e2)
                s = c2 if s is None else s + c2
                if s:
                    out[e2] = s
                elif e2 in out:
                    del out[e2]
        return Polynomial(self.ring, out)

    def evaluate(self, assignment):
        """Full evaluation to a coefficient; every used variable must be set
        to one."""
        acc = 0
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    name = self.ring.varnames[i]
                    v = v * _coefficient(assignment[name]) ** k
            acc = acc + v
        return acc

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [{"coeff": c.to_json() if isinstance(c, Eisenstein)
                 else format_rational(c), "exps": list(e)}
                for e, c in self.sorted_terms()]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{self.ring.varnames[i]}^{k}" if k > 1 else self.ring.varnames[i]
                for i, k in enumerate(e) if k)
            parts.append(f"({c!r})*{mono}" if mono else f"({c!r})")
        return " + ".join(parts)

