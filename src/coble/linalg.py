"""The rank certificate of a matrix over Q(w) given as rows of (re, om)
pairs.  Sending w to RANK_OMEGA is a ring homomorphism Z[w] -> F_p (p =
RANK_PRIME), so the rank mod p of an integral matrix is a lower bound on
its rank (`rank_mod_p`); candidate kernel vectors checked exactly in Z[w]
give the upper bound (`certified_rank_and_kernel`).  Nothing here
eliminates over Q(w): exact elimination is the reference in
`tests/linalg_oracle.py`.
"""

from __future__ import annotations

from .fields import zw_mul, zw_pair

# The prime of the modular rank bound and the image of w in F_p: p = 1 mod 3,
# and RANK_OMEGA is a root of r^2 + r + 1 mod p.
RANK_PRIME = 1000003
RANK_OMEGA = 499501


def rank_mod_p(rows, stop_at=None):
    """Rank over F_p (p = RANK_PRIME) of the rows of Z[w] int pairs (an
    iterable, consumed lazily) after sending w to RANK_OMEGA: a lower bound
    on their rank over Q(w).  Rows join an echelon basis one at a time; the
    scan stops once the rank reaches `stop_at`."""
    p, r = RANK_PRIME, RANK_OMEGA
    basis = []  # (pivot column, row with 1 there), in insertion order
    for row in rows:
        v = [(a + b * r) % p for a, b in row]
        for c, b in basis:
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, b)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        basis.append((lead, [x * inv % p for x in v]))
        if len(basis) == stop_at:
            break
    return len(basis)


def _annihilates(rows, v):
    """Is A v = 0 exactly, for A and v given as Z[w] pairs?"""
    support = [(j, c) for j, c in enumerate(v) if c[0] or c[1]]
    for row in rows:
        re = om = 0
        for j, c in support:
            x, y = zw_mul(row[j], c)
            re += x
            om += y
        if re or om:
            return False
    return True


def _is_integral(pairs):
    return all(type(a) is int and type(b) is int for a, b in pairs)


def certified_rank_and_kernel(rows, candidates):
    """Rank and kernel basis of the matrix over Q(w) whose `rows` hold
    (re, om) pairs, with a certificate of how they were obtained; the
    candidates and the kernel are vectors of Q(w) elements.

    Lower bound: for an integral matrix, rank mod p <= rank (`rank_mod_p`).
    A part is integral when it is an int, as `zw_pair` gives every integral
    part; this is tested once per distinct entry.  Upper bound: the
    candidate vectors that are integral and satisfy A v = 0 exactly in Z[w]
    are kept if they are independent (their rank mod p is their number;
    otherwise none is kept), and give rank <= cols - #kept.  When the bounds
    meet, the rank is proven and the kept vectors are a kernel basis (route
    "modular+kernel").  Otherwise the rank returned is only the lower bound
    (0 for a non-integral matrix) and the kernel is empty (route
    "unproven"): no kernel is ever returned beside an unproven rank.
    Returns (rank, kernel, certificate); the certificate gives the prime,
    the rank mod p (None for a non-integral matrix), the number of
    candidates kept and the route.
    """
    cols = len(rows[0]) if rows else 0
    rows = list(dict.fromkeys(map(tuple, rows)))  # same rank, same kernel
    rank_p, kernel = None, []
    if _is_integral(set().union(*rows)):
        vecs = [[zw_pair(x) for x in v] for v in candidates]
        kept = [i for i, v in enumerate(vecs)
                if _is_integral(v) and _annihilates(rows, v)]
        if rank_mod_p(vecs[i] for i in kept) == len(kept):
            kernel = [list(candidates[i]) for i in kept]
        rank_p = rank_mod_p(rows, stop_at=cols - len(kernel))
    verified = len(kernel)
    if rank_p is not None and rank_p + verified == cols:
        route = "modular+kernel"
    else:
        kernel, route = [], "unproven"
    return rank_p or 0, kernel, {"prime": RANK_PRIME, "rank_mod_p": rank_p,
                                 "kernel_vectors_verified": verified,
                                 "route": route}
