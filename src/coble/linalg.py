"""The rank certificate of a matrix over Z[w] given as rows of (re, om)
int pairs.  Sending w to RANK_OMEGA is a ring homomorphism Z[w] -> F_p (p =
RANK_PRIME), so the rank mod p of such a matrix is a lower bound on its
rank (`rank_mod_p`); candidate kernel vectors checked exactly in Z[w]
give the upper bound (`certified_rank_and_kernel`).  Nothing here
eliminates over Q(w): exact elimination is the reference in
`tests/linalg_oracle.py`.
"""

from __future__ import annotations

from .fields import zw_mul

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


def certified_rank_and_kernel(rows, candidates):
    """Rank and kernel basis of the matrix over Z[w] whose `rows` hold
    (re, om) int pairs, with a certificate of how they were obtained; the
    candidates and the kernel are vectors of such pairs.

    Lower bound: rank mod p <= rank (`rank_mod_p`).  Upper bound: the
    candidate vectors that satisfy A v = 0 exactly in Z[w] are kept if they
    are independent (their rank mod p is their number; otherwise none is
    kept), and give rank <= cols - #kept.  When the bounds meet, the rank is
    proven and the kept vectors are a kernel basis (route
    "modular+kernel").  Otherwise the rank returned is only the lower bound
    and the kernel is empty (route "unproven"): no kernel is ever returned
    beside an unproven rank.  Returns (rank, kernel, certificate); the
    certificate gives the prime, the rank mod p, the number of candidates
    kept and the route.
    """
    cols = len(rows[0]) if rows else 0
    rows = list(dict.fromkeys(map(tuple, rows)))  # same rank, same kernel
    kernel = [list(v) for v in candidates if _annihilates(rows, v)]
    if rank_mod_p(kernel) != len(kernel):
        kernel = []
    rank_p = rank_mod_p(rows, stop_at=cols - len(kernel))
    verified = len(kernel)
    if rank_p + verified == cols:
        route = "modular+kernel"
    else:
        kernel, route = [], "unproven"
    return rank_p, kernel, {"prime": RANK_PRIME, "rank_mod_p": rank_p,
                            "kernel_vectors_verified": verified,
                            "route": route}
