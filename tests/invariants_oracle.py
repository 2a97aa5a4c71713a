"""The tuple, per-element and elimination routes of `coble.invariants`,
kept as the references the production routes are compared against: the
K^-invariant monomials are listed as exponent tuples, `orbit_count`
translates each exponent entry by entry with `add2`, the orbit sums are
de-duplicated by their term sets, and `iota_split` takes exact kernels of
(iota -/+ id) in basis coordinates over Q.
"""

from fractions import Fraction

from coble.fields import QQ
from coble.heisenberg import COORD_INDEX, COORDS, orbit_sum
from coble.invariants import iota_permutation
from heisenberg_oracle import add2
from linalg_oracle import QWF, ExactMatrix


def khat_invariant_monomials(d):
    """All degree-d exponent 9-tuples whose weighted index sum is 0 mod 3, in
    lexicographic order.

    COORDS runs through three blocks Z0*, Z1*, Z2*.  Block i, with exponents
    (a, b, c) of total n, adds i*n to the first index sum and b + 2c to the
    second.  So once Z0* and Z1* are chosen with totals n0 and n1, the Z2*
    block has total r = d - n0 - n1, the first sum n1 + 2r vanishes iff
    n1 = 2(d - n0) mod 3, and the Z2* exponents are the triples of total r
    whose b + 2c cancels the second sum."""
    # (exponents, total, b + 2c mod 3) of every triple of total <= d.
    triples = [((a, b, c), a + b + c, (b + 2 * c) % 3)
               for a in range(d + 1) for b in range(d + 1 - a)
               for c in range(d + 1 - a - b)]
    # m = d - n0 -> the Z1* triples of total n1 <= m with n1 = 2m mod 3.
    middle = [[t for t in triples if t[1] <= m and (t[1] - 2 * m) % 3 == 0]
              for m in range(d + 1)]
    last = {}  # (total, b + 2c mod 3) -> the Z2* triples
    for z, n, j in triples:
        last.setdefault((n, j), []).append(z)
    out = []
    for z0, n0, j0 in triples:
        m = d - n0
        for z1, n1, j1 in middle[m]:
            head = z0 + z1
            z2s = last.get((m - n1, -(j0 + j1) % 3), ())
            out.extend([head + z2 for z2 in z2s])
    return out


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


def iota_split_by_elimination(elements):
    """(+1 vectors, -1 vectors) of iota on the span of `elements` as
    polynomials, from exact kernels of the permutation matrix of iota minus
    and plus the identity."""
    n = len(elements)
    perm = iota_permutation(elements)
    one, zero = Fraction(1), Fraction(0)

    def kernel(sign):
        m = [[(one if perm[j] == i else zero) - sign * (one if i == j else zero)
              for j in range(n)] for i in range(n)]
        return ExactMatrix(QQ, m).rank_and_kernel()[1]

    def combine(vec):
        acc = elements[0].ring.zero()
        for c, p in zip(vec, elements):
            if c:
                acc = acc + p * QWF.coerce(c)
        return acc

    return ([combine(v) for v in kernel(1)], [combine(v) for v in kernel(-1)])
