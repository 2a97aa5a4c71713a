"""Dimensions and explicit bases of A[3]-invariant forms of degree 3 and 6 on
the nine-dimensional theta representation, plus the involution split.

The degree-6 basis T1..T43 is pinned to a fixed seed table (the order used in
the source computation) so that certificates are comparable line by line; the
independent orbit-enumeration path must reproduce the same set of
polynomials.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ, binomial
from .heisenberg import (COORDS, COORD_INDEX, orbit_sum, theta_ring,
                         translate_exps)
from .linalg import ExactMatrix
from .poly import Polynomial


class DegreeNotDivisibleBy3(Exception):
    pass


class InternalCountMismatch(Exception):
    pass


def invariant_dimension(d):
    """dim of the A[3]-invariant degree-d forms: (80*c_d + C(d+8,8)) / 81
    with c_d = C(d/3 + 2, 2)."""
    if d % 3:
        raise DegreeNotDivisibleBy3(f"degree {d} is not divisible by 3")
    c_d = binomial(d // 3 + 2, 2)
    total = 80 * c_d + binomial(d + 8, 8)
    q, r = divmod(total, 81)
    assert r == 0, "trace-formula sum is not divisible by 81"
    return q


def khat_invariant_monomials(d):
    """All degree-d exponent 9-tuples whose weighted index sum is 0 mod 3, in
    lexicographic order."""
    out = []
    exps = [0] * 9

    def rec(pos, remaining, s0, s1):
        # s0, s1: the weighted index sums of the exponents before pos.
        if pos == 7:
            # Z21 takes k and Z22 the rest r - k: the sums gain 2r and
            # 2r - k, so s0 + 2r must vanish and k is fixed mod 3.
            if (s0 + 2 * remaining) % 3:
                return
            for k in range((s1 + 2 * remaining) % 3, remaining + 1, 3):
                exps[7], exps[8] = k, remaining - k
                out.append(tuple(exps))
            return
        i, j = COORDS[pos]
        for k in range(remaining + 1):
            exps[pos] = k
            rec(pos + 1, remaining - k, s0 + k * i, s1 + k * j)

    rec(0, d, 0, 0)
    return out


def orbit_count(d):
    """Number of K-orbits of K^-invariant degree-d monomials (independent
    combinatorial count of the invariant dimension)."""
    seen = set()
    count = 0
    for e in khat_invariant_monomials(d):
        if e in seen:
            continue
        count += 1
        for r in range(3):
            for s in range(3):
                seen.add(translate_exps(e, (r, s)))
    return count


# Seed table for the degree-6 basis, in the pinned order T1..T43.  Each entry
# is a dict coordinate-pair -> exponent; the orbit sum of the seed (distinct
# translates, coefficient 1) is the basis element.
T_SEEDS = [
    {(0, 0): 6},                                          # T1
    {(0, 0): 3, (0, 1): 3},                               # T2
    {(0, 0): 3, (1, 0): 3},                               # T3
    {(0, 0): 3, (1, 1): 3},                               # T4
    {(0, 0): 3, (1, 2): 3},                               # T5
    {(0, 0): 4, (0, 1): 1, (0, 2): 1},                    # T6
    {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 3},         # T7
    {(0, 0): 1, (0, 1): 1, (0, 2): 1, (2, 0): 3},         # T8
    {(0, 0): 4, (1, 0): 1, (2, 0): 1},                    # T9
    {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): 3},         # T10
    {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 2): 3},         # T11
    {(0, 0): 4, (1, 1): 1, (2, 2): 1},                    # T12
    {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 3},         # T13
    {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 2): 3},         # T14
    {(0, 0): 4, (1, 2): 1, (2, 1): 1},                    # T15
    {(0, 0): 1, (1, 2): 1, (2, 1): 1, (1, 0): 3},         # T16
    {(0, 0): 1, (1, 2): 1, (2, 1): 1, (2, 0): 3},         # T17
    {(0, 0): 2, (0, 1): 2, (0, 2): 2},                    # T18
    {(0, 0): 2, (1, 0): 2, (2, 0): 2},                    # T19
    {(0, 0): 2, (1, 1): 2, (2, 2): 2},                    # T20
    {(0, 0): 2, (2, 1): 2, (1, 2): 2},                    # T21
    {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1},  # T22
    {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1},  # T23
    {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 1, (1, 2): 1, (2, 0): 1},  # T24
    {(0, 0): 1, (1, 2): 1, (2, 1): 1, (0, 1): 1, (1, 0): 1, (2, 2): 1},  # T25
    {(0, 0): 2, (0, 1): 1, (1, 1): 1, (1, 2): 2},         # T26
    {(0, 0): 2, (0, 2): 1, (1, 2): 1, (1, 1): 2},         # T27
    {(0, 0): 2, (1, 1): 1, (2, 1): 1, (0, 2): 2},         # T28
    {(0, 0): 2, (1, 0): 1, (1, 1): 1, (2, 1): 2},         # T29
    {(0, 0): 2, (1, 0): 1, (1, 2): 1, (2, 2): 2},         # T30
    {(0, 0): 2, (1, 1): 1, (1, 2): 1, (2, 0): 2},         # T31
    {(0, 0): 2, (0, 1): 1, (1, 2): 1, (1, 0): 2},         # T32
    {(0, 0): 2, (0, 2): 1, (1, 1): 1, (1, 0): 2},         # T33
    {(0, 0): 2, (1, 0): 1, (2, 1): 1, (0, 1): 2},         # T34
    {(0, 0): 2, (1, 0): 1, (2, 2): 1, (0, 2): 2},         # T35
    {(0, 0): 2, (1, 0): 1, (0, 1): 1, (1, 1): 2},         # T36
    {(0, 0): 2, (0, 1): 1, (2, 0): 1, (2, 1): 2},         # T37
    {(0, 0): 2, (0, 1): 1, (0, 2): 1, (1, 0): 1, (2, 0): 1},  # T38
    {(0, 0): 2, (0, 1): 1, (0, 2): 1, (1, 1): 1, (2, 2): 1},  # T39
    {(0, 0): 2, (0, 1): 1, (0, 2): 1, (1, 2): 1, (2, 1): 1},  # T40
    {(0, 0): 2, (1, 0): 1, (2, 0): 1, (1, 1): 1, (2, 2): 1},  # T41
    {(0, 0): 2, (1, 0): 1, (2, 0): 1, (1, 2): 1, (2, 1): 1},  # T42
    {(0, 0): 2, (1, 1): 1, (2, 2): 1, (1, 2): 1, (2, 1): 1},  # T43
]

# Seeds of the five invariant cubics F0..F4 (F_i = orbit sum of the seed).
F_SEEDS = [
    {(0, 0): 3},
    {(0, 0): 1, (0, 1): 1, (0, 2): 1},
    {(0, 0): 1, (1, 0): 1, (2, 0): 1},
    {(0, 0): 1, (1, 1): 1, (2, 2): 1},
    {(0, 0): 1, (1, 2): 1, (2, 1): 1},
]


def _seed_to_dense(ring, seed):
    dense = [0] * ring.nvars
    for b, e in seed.items():
        dense[ring.index[f"Z{b[0]}{b[1]}"]] = e
    return tuple(dense)


def pinned_basis(ring, degree):
    """The labeled bases from the fixed seed tables: (labels, polynomials)."""
    if degree == 3:
        seeds, prefix = F_SEEDS, "F"
        labels = [f"F{i}" for i in range(5)]
    elif degree == 6:
        seeds, prefix = T_SEEDS, "T"
        labels = [f"T{i}" for i in range(1, 44)]
    else:
        raise ValueError("pinned bases exist for degrees 3 and 6 only")
    return labels, [orbit_sum(ring, _seed_to_dense(ring, s)) for s in seeds]


class InvariantBasis:
    def __init__(self, degree, labels, elements):
        self.degree = degree
        self.labels = list(labels)
        self.elements = list(elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, label):
        return self.elements[self.labels.index(label)]


def invariant_basis(ring, d):
    """Enumerate, orbit-sum and deduplicate; result must match the invariant
    dimension and (for d in {3, 6}) equal the pinned basis as a set."""
    if d not in (3, 6):
        raise ValueError("explicit bases supported for degrees 3 and 6 only")
    polys = []
    seen_terms = set()
    for e in khat_invariant_monomials(d):
        p = orbit_sum(ring, e + (0,) * (ring.nvars - 9))
        tkey = frozenset(p.terms)
        if tkey in seen_terms:
            continue
        seen_terms.add(tkey)
        polys.append(p)
    expected = invariant_dimension(d)
    if len(polys) != expected:
        raise InternalCountMismatch(
            f"got {len(polys)} distinct orbit sums, expected {expected}")
    labels, pinned = pinned_basis(ring, d)
    pinned_keys = {frozenset(p.terms): i for i, p in enumerate(pinned)}
    ordered = [None] * expected
    for p in polys:
        i = pinned_keys.get(frozenset(p.terms))
        if i is None:
            raise InternalCountMismatch("orbit sum not found in the pinned table")
        ordered[i] = p
    return InvariantBasis(d, labels, ordered)


def iota_act(p):
    """The involution Z_{(i,j)} -> Z_{(-i,-j)} on polynomials."""
    ring = p.ring
    perm = {}
    for b in COORDS:
        src = ring.index[f"Z{b[0]}{b[1]}"]
        dst = ring.index[f"Z{(-b[0]) % 3}{(-b[1]) % 3}"]
        perm[src] = dst
    out = {}
    for e, c in p.terms.items():
        new_e = list(e)
        for i in perm:
            new_e[i] = 0
        for i, j in perm.items():
            if e[i]:
                new_e[j] += e[i]
        out[tuple(new_e)] = c
    return Polynomial(ring, out)


class IotaSplit:
    def __init__(self, plus_basis, minus_basis):
        self.plus_basis = plus_basis
        self.minus_basis = minus_basis


def iota_permutation(basis):
    """iota maps each basis element to another one; return the index map."""
    keys = {frozenset(p.terms): i for i, p in enumerate(basis.elements)}
    perm = []
    for p in basis.elements:
        q = iota_act(p)
        i = keys.get(frozenset(q.terms))
        if i is None:
            raise ValueError("basis is not closed under iota")
        perm.append(i)
    return perm


def iota_split(basis):
    """Eigenbases of iota on the span of the basis, via exact kernels of
    (iota -/+ id) in basis coordinates."""
    n = len(basis.elements)
    perm = iota_permutation(basis)
    # Matrix of iota in basis coordinates: column j has 1 in row perm[j].
    one, zero = Fraction(1), Fraction(0)
    m = [[zero] * n for _ in range(n)]
    for j, i in enumerate(perm):
        m[i][j] = one
    _, plus_vecs = ExactMatrix(QQ, [[m[i][j] - (one if i == j else zero)
                                     for j in range(n)]
                                    for i in range(n)]).rank_and_kernel()
    _, minus_vecs = ExactMatrix(QQ, [[m[i][j] + (one if i == j else zero)
                                      for j in range(n)]
                                     for i in range(n)]).rank_and_kernel()

    def combine(vec):
        acc = basis.elements[0].ring.zero()
        for c, p in zip(vec, basis.elements):
            if c:
                acc = acc + p * c
        return acc

    return IotaSplit([combine(v) for v in plus_vecs],
                     [combine(v) for v in minus_vecs])
