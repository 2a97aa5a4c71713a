"""Dimensions and explicit bases of A[3]-invariant forms of degree 3 and 6 on
the nine-dimensional theta representation, plus the involution split.

The degree-6 basis T1..T43 is pinned to a fixed seed table (the order used in
the source computation) so that certificates are comparable line by line;
`invariant_basis` checks it against the orbit enumeration, one seed per
K-orbit.
"""

from __future__ import annotations

from .fields import binomial
from .heisenberg import (COORD_INDEX, COORDS, exponent_getter, neg2,
                         orbit_sum)
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
    if r:
        raise InternalCountMismatch("trace-formula sum is not divisible by 81")
    return q


def packed_khat_monomials(d, w):
    """All K^-invariant degree-d monomials as ints, Z_k's exponent in bits
    [w*k, w*(k+1)), in the lexicographic order of their exponent tuples.
    Block Zi* = (a, b, c) of total n adds i*n to the first index sum and
    b + 2c to the second.  So if Z0* has total d - m, Z1* has a total
    n1 <= m with n1 = 2m mod 3, and Z2* the total m - n1 and the b + 2c
    that cancels the second sum: the tails depend on m and Z0*'s b + 2c."""
    triples = [(a | b << w | c << 2 * w, a + b + c, (b + 2 * c) % 3)
               for a in range(d + 1) for b in range(d + 1 - a)
               for c in range(d + 1 - a - b)]
    last = {}  # (total, b + 2c mod 3) -> the Z2* blocks, shifted into place
    for z, n, j in triples:
        last.setdefault((n, j), []).append(z << 6 * w)
    tails = {}
    for m in range(d + 1):
        middle = [t for t in triples if t[1] <= m and (t[1] - 2 * m) % 3 == 0]
        for j0 in range(3):
            tails[m, j0] = [z1 << 3 * w | z2 for z1, n1, j1 in middle
                            for z2 in last.get((m - n1, -(j0 + j1) % 3), ())]
    return [z0 | tail for z0, n0, j0 in triples for tail in tails[d - n0, j0]]


def packed_translator(w):
    """The nine K-translates of a packed monomial by two rotations: (0, 1)
    moves Z_(i,j) to Z_(i,j+1), each block rotated by w bits, and (1, 0)
    moves Z_k to Z_(k+3 mod 9), the int rotated by 3w bits."""
    full = (1 << 9 * w) - 1
    up = sum(((1 << 2 * w) - 1) << 3 * w * i for i in range(3))  # Z_i0, Z_i1
    wrap, s2, s3, s6, s9 = full ^ up, 2 * w, 3 * w, 6 * w, 9 * w

    def translates(e):
        f = (e & up) << w | (e & wrap) >> s2
        g = (f & up) << w | (f & wrap) >> s2
        # x | x << 9w holds x twice; its 9w-bit windows at 3w, 6w rotate x.
        a, b, c = e | e << s9, f | f << s9, g | g << s9
        return (e, f, g, a >> s3 & full, b >> s3 & full, c >> s3 & full,
                a >> s6 & full, b >> s6 & full, c >> s6 & full)
    return translates


def packed_orbit_representatives(d):
    """(w = max(1, d.bit_length()), the first packed K^-invariant degree-d
    monomial of each K-orbit: its least translate as an exponent tuple)."""
    w = max(1, d.bit_length())
    translates = packed_translator(w)
    seen, reps = set(), []
    for e in packed_khat_monomials(d, w):
        if e not in seen:
            seen.update(translates(e))
            reps.append(e)
    return w, reps


def orbit_count(d):
    """Number of K-orbits of K^-invariant degree-d monomials (independent
    combinatorial count of the invariant dimension)."""
    return len(packed_orbit_representatives(d)[1])


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


def _seed_table(degree):
    """(labels, seeds) of the pinned basis of the given degree."""
    if degree == 3:
        return [f"F{i}" for i in range(5)], F_SEEDS
    if degree == 6:
        return [f"T{i}" for i in range(1, 44)], T_SEEDS
    raise ValueError("pinned bases exist for degrees 3 and 6 only")


def _seed_exponents(seed):
    """A seed dict as its exponent tuple on the theta block."""
    return tuple(seed.get(b, 0) for b in COORDS)


def pinned_basis(ring, degree):
    """The labeled bases from the fixed seed tables: (labels, polynomials).
    The ring must start with the theta coordinates."""
    labels, seeds = _seed_table(degree)
    tail = (0,) * (ring.nvars - 9)
    return labels, [orbit_sum(ring, _seed_exponents(s) + tail) for s in seeds]


def invariant_basis(ring, d):
    """`pinned_basis(ring, d)`, checked against the packed orbit walk: the
    K-orbit of each seed holds exactly one representative that no earlier
    seed met, no representative is left over, and there are
    `invariant_dimension(d)` orbits."""
    labels, elements = pinned_basis(ring, d)
    w, reps = packed_orbit_representatives(d)
    translates = packed_translator(w)
    left, lonely = set(reps), 0
    for exps in map(_seed_exponents, _seed_table(d)[1]):
        # A seed of degree d packs without carries: each exponent is < 2^w.
        packed = sum(e << w * k for k, e in enumerate(exps))
        met = left.intersection(translates(packed)) if sum(exps) == d else ()
        left.difference_update(met)
        lonely += not met
    if left or lonely:
        raise InternalCountMismatch(
            f"{lonely} seeds have no orbit representative" if lonely else
            f"no seed for the orbit of {len(left)} representatives")
    expected = invariant_dimension(d)
    if len(reps) != expected:
        raise InternalCountMismatch(
            f"got {len(reps)} distinct orbits, expected {expected}")
    return labels, elements


# iota as an index permutation of the theta exponents: Z_b -> Z_{-b}.
IOTA = tuple(COORD_INDEX[neg2(b)] for b in COORDS)


def iota_act(p):
    """The involution Z_{(i,j)} -> Z_{(-i,-j)} on polynomials whose ring
    starts with the theta coordinates; later variables pass through."""
    iota = exponent_getter(p.ring, IOTA)
    return Polynomial(p.ring, {iota(e): c for e, c in p.terms.items()})


def iota_permutation(elements):
    """The index map perm with iota(elements[i]) == elements[perm[i]]
    exactly, coefficients included; raises ValueError when there is none."""
    keys = {p: i for i, p in enumerate(elements)}
    perm = []
    for p in elements:
        i = keys.get(iota_act(p))
        if i is None:
            raise ValueError("basis is not closed under iota")
        perm.append(i)
    return perm


def iota_split(elements):
    """(plus, minus): eigenbases of iota on the span of `elements`, read off
    the cycles of `iota_permutation`: a fixed T_i spans a +1 line, a 2-cycle
    (i, j) gives T_i + T_j (+1) and T_i - T_j (-1).  Every vector is checked
    against `iota_act`."""
    perm = iota_permutation(elements)
    if any(perm[j] != i for i, j in enumerate(perm)):
        raise ValueError("iota does not act on the basis as an involution")
    plus, minus = [], []
    for i, j in enumerate(perm):
        if i == j:
            plus.append(elements[i])
        elif i < j:
            plus.append(elements[i] + elements[j])
            minus.append(elements[i] - elements[j])
    if any(iota_act(v) != v for v in plus) or \
            any(iota_act(v) != -v for v in minus):
        raise ValueError("iota split vector is not an eigenvector")
    return plus, minus
