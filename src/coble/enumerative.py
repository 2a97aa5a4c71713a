"""Enumerative bookkeeping: the degree-6 intersection computation for the
dual hypersurface, Verlinde dimensions and the degree of the theta map, the
Bernoulli/Zagier leading coefficient and the quadric dimension count.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import bernoulli


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


def dual_degree_expansion():
    """Expand (3H - 2e)(2H - e)^7 into its coefficients {r: c_r} of the
    degree-8 classes H^r e^(8-r), r = 0..8."""
    coeffs = {r: 0 for r in range(9)}
    for j in range(8):
        # (2H - e)^7 term: C(7,j) (2H)^(7-j) (-e)^j
        base = math.comb(7, j) * 2 ** (7 - j) * (-1) ** j
        coeffs[8 - j] += 3 * base          # times 3H
        coeffs[7 - j] += -2 * base         # times -2e
    return coeffs


def dual_degree_computation():
    """The degree of the dual hypersurface: evaluates to 6; the derived
    table must agree with the frozen one entry by entry."""
    table = derived_intersection_table()
    if table != HARDCODED_TABLE:
        raise ValueError(f"derived table {table} differs from the frozen "
                         f"{HARDCODED_TABLE}")
    return sum(c * table[r] for r, c in dual_degree_expansion().items())


# ----- Verlinde ------------------------------------------------------------

def verlinde_exact(k):
    """h^0(L^k) = C(k+8, 8) + C(k+5, 8): the theta map is a double cover of
    P^8 branched along a sextic in |O(2 delta)|, delta = 3, so
    h^0(L^k) = h^0(P^8, O(k)) + h^0(P^8, O(k - delta))."""
    return math.comb(k + 8, 8) + math.comb(k + 5, 8)


def csc_square_coefficients(m):
    """[q_0, ..., q_(m-1)], q_n the sum of ij over 1 <= i, j < m with
    i + j = n mod m: csc^2(pi a/m) = sum_l c_l zeta^(al), zeta = e^(2 pi i/m),
    for a != 0 mod m, with c_l = -4 q_(l-1)/m^2 (indices mod m)."""
    top1, top2 = m * (m - 1) // 2, (m - 1) * m * (2 * m - 1) // 6
    # q_n = sum_{i<n} i (n - i) + sum_{i=n+1}^{m-1} i (n + m - i)
    return [(n ** 3 - n) // 6 + (n + m) * (top1 - n * (n + 1) // 2)
            - top2 + n * (n + 1) * (2 * n + 1) // 6 for n in range(m)]


def verlinde_character_sum(k):
    """h^0(L^k) by the Verlinde formula for rank 3, genus 2, summed exactly.
    With m = k + 3, h^0 = 3 (m/8)^2 V(m), where V(m) sums
    [sin(pi a/m) sin(pi b/m) sin(pi (a+b)/m)]^(-2) over a, b >= 1,
    a + b <= m - 1.  Expanding each csc^2 in characters
    (`csc_square_coefficients`) and summing over the pairs (a, b) of
    (Z/m)^2 with a, b and a + b nonzero, which hold that triangle twice,
    gives h^0 = 3 (3 m S B - m^2 A - 2 S^3) / (2 m^4), with S, B and A the
    sums of q_n, q_n^2 and q_n^3 (c_l = c_-l, as csc^2 is even)."""
    m = k + 3
    q = csc_square_coefficients(m)
    s, b, a = sum(q), sum(x * x for x in q), sum(x ** 3 for x in q)
    return Fraction(3 * (3 * m * s * b - m * m * a - 2 * s ** 3), 2 * m ** 4)


def character_sum_mismatches(kmax):
    """The levels k <= kmax at which the character sum is not the closed
    form: the finding, returned as a value."""
    return [k for k in range(kmax + 1)
            if verlinde_character_sum(k) != verlinde_exact(k)]


def verlinde_sequence(kmax):
    """The exact dimensions for k = 0..kmax."""
    return [verlinde_exact(k) for k in range(kmax + 1)]


def finite_differences(seq):
    return [b - a for a, b in zip(seq, seq[1:])]


def theta_degree_from_verlinde():
    """deg theta = 8! * (leading coefficient of the Hilbert polynomial),
    extracted as the 8th finite difference of the integer dimensions over
    k = 0..10; differences that are not constant are returned as the
    finding."""
    diffs = verlinde_sequence(10)
    for _ in range(8):
        diffs = finite_differences(diffs)
    if len(set(diffs)) != 1:
        return f"8th differences not constant: {diffs}"
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

