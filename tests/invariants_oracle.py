"""The per-element and elimination routes of `coble.invariants`, kept as the
references the production routes are compared against: `orbit_count`
translates each exponent entry by entry with `add2`, the orbit sums are
de-duplicated by their term sets, and `iota_split` takes exact kernels of
(iota -/+ id) in basis coordinates over Q.
"""

from fractions import Fraction

from coble.fields import QQ
from coble.heisenberg import COORD_INDEX, COORDS, add2, orbit_sum
from coble.invariants import iota_permutation, khat_invariant_monomials
from coble.linalg import ExactMatrix


def translate_entrywise(exps, shift):
    """Z_b -> Z_{b+shift} on a 9-long exponent tuple, entry by entry."""
    out = [0] * 9
    for k, e in enumerate(exps):
        if e:
            out[COORD_INDEX[add2(COORDS[k], shift)]] = e
    return tuple(out)


def orbit_count_entrywise(d):
    """The number of K-orbits of the K^-invariant degree-d monomials."""
    seen = set()
    count = 0
    for e in khat_invariant_monomials(d):
        if e in seen:
            continue
        count += 1
        for shift in COORDS:
            seen.add(translate_entrywise(e, shift))
    return count


def distinct_orbit_sums(ring, d):
    """The orbit sum of every K^-invariant degree-d monomial, in enumeration
    order, keeping the first of each distinct term set."""
    polys = []
    seen_terms = set()
    for e in khat_invariant_monomials(d):
        p = orbit_sum(ring, e + (0,) * (ring.nvars - 9))
        key = frozenset(p.terms)
        if key not in seen_terms:
            seen_terms.add(key)
            polys.append(p)
    return polys


def iota_split_by_elimination(basis):
    """(+1 vectors, -1 vectors) of iota as polynomials, from exact kernels
    of the permutation matrix of iota minus and plus the identity."""
    n = len(basis.elements)
    perm = iota_permutation(basis)
    one, zero = Fraction(1), Fraction(0)

    def kernel(sign):
        m = [[(one if perm[j] == i else zero) - sign * (one if i == j else zero)
              for j in range(n)] for i in range(n)]
        return ExactMatrix(QQ, m).rank_and_kernel()[1]

    def combine(vec):
        acc = basis.elements[0].ring.zero()
        for c, p in zip(vec, basis.elements):
            if c:
                acc = acc + p * c
        return acc

    return ([combine(v) for v in kernel(1)], [combine(v) for v in kernel(-1)])
