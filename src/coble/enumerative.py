"""Enumerative bookkeeping: the degree-6 intersection computation for the
dual hypersurface, Verlinde dimensions and the degree of the theta map, the
Bernoulli/Zagier leading coefficient and the quadric dimension count.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import bernoulli


class NonIntegralDimension(Exception):
    pass


# Top intersection numbers H^r e^(8-r) on the blown-up P^8, in the order
# r = 0..8.  Kept as a frozen cross-check; the computation derives them.
HARDCODED_TABLE = {8: 1, 7: 0, 6: 0, 5: 0, 4: 0, 3: 0, 2: -18, 1: -162, 0: -810}


def derived_intersection_table():
    """Derive H^r e^(8-r) from the projectivized-normal-bundle relation

        xi^6 = 9 h xi^5 - 36 h^2 xi^4,      h^3 = 0,

    seeded by h^2 xi^5 = -18 (the theta self-intersection (Theta.Theta) = 18
    with pushforward convention pi_* xi^5 = -1).  Degree-7 numbers n(m) =
    h^m xi^(7-m) follow from the relation; the exceptional divisor evaluates
    H^r e^(8-r) = h^r xi^(7-r) for r <= 2 and 0 for 3 <= r <= 7, while
    H^8 = 1 in P^8."""
    n = {m: 0 for m in range(3, 8)}   # h^3 = 0 kills everything beyond m = 2
    n[2] = -18
    # multiply the relation by h:    h xi^6 = 9 h^2 xi^5 - 36 h^3 xi^4
    n[1] = 9 * n[2]
    # multiply the relation by xi:   xi^7 = 9 h xi^6 - 36 h^2 xi^5
    n[0] = 9 * n[1] - 36 * n[2]
    table = {8: 1}
    for r in range(3, 8):
        table[r] = 0
    for r in range(3):
        table[r] = n[r]
    return table


class IntersectionClass:
    """A degree-8 class sum c_r * H^r e^(8-r), r = 0..8."""

    def __init__(self, coefficients):
        self.coefficients = dict(coefficients)

    def evaluate(self, table):
        return sum(c * table[r] for r, c in self.coefficients.items())


def dual_degree_expansion():
    """Expand (3H - 2e)(2H - e)^7 into an IntersectionClass."""
    coeffs = {r: 0 for r in range(9)}
    for j in range(8):
        # (2H - e)^7 term: C(7,j) (2H)^(7-j) (-e)^j
        base = math.comb(7, j) * 2 ** (7 - j) * (-1) ** j
        coeffs[8 - j] += 3 * base          # times 3H
        coeffs[7 - j] += -2 * base         # times -2e
    return IntersectionClass(coeffs)


def dual_degree_computation():
    """The degree of the dual hypersurface: evaluates to 6; the derived
    table must agree with the frozen one entry by entry."""
    table = derived_intersection_table()
    if table != HARDCODED_TABLE:
        raise ValueError(f"derived table {table} differs from the frozen "
                         f"{HARDCODED_TABLE}")
    return dual_degree_expansion().evaluate(table)


# ----- Verlinde ------------------------------------------------------------

def verlinde_v111(m):
    """V_{1,1,1}(m): sum over interior lattice points a, b >= 1, a+b <= m-1
    of [sin(pi a/m) sin(pi b/m) sin(pi (a+b)/m)]^(-2)."""
    total = 0.0
    for a in range(1, m - 1):
        for b in range(1, m - a):
            s = (math.sin(math.pi * a / m) * math.sin(math.pi * b / m)
                 * math.sin(math.pi * (a + b) / m))
            total += s ** -2
    return total


# The float sum is checked against the exact dimensions up to this level,
# where it must lie within this relative distance of an integer.
FLOAT_CHECK_KMAX = 12
FLOAT_CHECK_TOLERANCE = 1e-6


def verlinde_dimension(k):
    """dim H^0 at level k for rank 3, genus 2 by the float sum
    3 ((k+3)/8)^2 V_{1,1,1}(k+3).  Returns (float value, nearest integer);
    integrality enforced for k <= FLOAT_CHECK_KMAX.  A cross-check only: its
    error grows with k (the rounding is off by one at k = 160)."""
    if k < 0:
        raise ValueError("level must be >= 0")
    m = k + 3
    value = 3 * ((m / 8) ** 2) * verlinde_v111(m)
    nearest = round(value)
    tolerance = FLOAT_CHECK_TOLERANCE * max(1, abs(value))
    if k <= FLOAT_CHECK_KMAX and abs(value - nearest) > tolerance:
        raise NonIntegralDimension(f"k={k}: {value}")
    return value, nearest


def verlinde_exact(k):
    """h^0(L^k) = C(k+8, 8) + C(k+5, 8): the theta map is a double cover of
    P^8 branched along a sextic in |O(2 delta)|, delta = 3, so
    h^0(L^k) = h^0(P^8, O(k)) + h^0(P^8, O(k - delta))."""
    return math.comb(k + 8, 8) + math.comb(k + 5, 8)


def verlinde_sequence(kmax):
    """The exact dimensions for k = 0..kmax; for k <= FLOAT_CHECK_KMAX the
    rounded float sum must give the same integers."""
    seq = [verlinde_exact(k) for k in range(kmax + 1)]
    for k in range(min(kmax, FLOAT_CHECK_KMAX) + 1):
        value, nearest = verlinde_dimension(k)
        if nearest != seq[k]:
            raise NonIntegralDimension(f"k={k}: float sum {value} != {seq[k]}")
    return seq


def finite_differences(seq):
    return [b - a for a, b in zip(seq, seq[1:])]


def theta_degree_from_verlinde():
    """deg theta = 8! * (leading coefficient of the Hilbert polynomial),
    extracted as the 8th finite difference of the integer dimensions; the
    difference must be constant over k = 0..10."""
    seq = verlinde_sequence(10)
    diffs = seq
    for _ in range(8):
        diffs = finite_differences(diffs)
    if len(set(diffs)) != 1:
        raise NonIntegralDimension(f"8th differences not constant: {diffs}")
    return diffs[0]


def zagier_leading_coefficient(h):
    """v_{h,h,h} = (-1)^h 2^(6h) sum_{r=0}^h C(4h-2r-1, 2h-1)
    B_{2r}/(2r)! * B_{6h-2r}/(6h-2r)!  (exact rational)."""
    if h < 1:
        raise ValueError("h must be >= 1")
    total = Fraction(0)
    for r in range(h + 1):
        total += (math.comb(4 * h - 2 * r - 1, 2 * h - 1)
                  * bernoulli(2 * r) / math.factorial(2 * r)
                  * bernoulli(6 * h - 2 * r) / math.factorial(6 * h - 2 * r))
    return (-1) ** h * 2 ** (6 * h) * total


def theta_degree_from_zagier():
    """Independent route: 8! * 3 * (1/8^2) * v_{1,1,1}."""
    v = zagier_leading_coefficient(1)
    deg = math.factorial(8) * 3 * Fraction(1, 64) * v
    return deg


def quadric_dimension_count():
    """dim of quadrics through the abelian surface: C(10,2) - 6^2 = 9."""
    return math.comb(10, 2) - 6 ** 2

