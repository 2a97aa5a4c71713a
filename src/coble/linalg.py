"""Exact dense linear algebra over any of the fields in :mod:`coble.fields`.

Elimination is plain Gaussian elimination with exact division; the pivot in
each column is the first (lowest-index) row with a nonzero entry, so results
are deterministic.  Kernel bases come out echelon-normalized: one vector per
free column, with entry 1 in that column.

`certified_rank_and_kernel` proves the rank of a matrix of (re, om) pairs
over Q(w) from a modular lower bound and the candidate kernel vectors that
check exactly; only where they do not meet does it build an `ExactMatrix`.
"""

from __future__ import annotations

from .fields import QW, Eisenstein, zw_mul, zw_pair

# The prime of the modular rank bound and the image of w in F_p: p = 1 mod 3,
# and RANK_OMEGA is a root of r^2 + r + 1 mod p.
RANK_PRIME = 1000003
RANK_OMEGA = 499501


class ExactMatrix:
    def __init__(self, field, entries):
        """entries: list of rows; every entry is coerced into `field`."""
        self.field = field
        self.entries = [[field.coerce(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def transpose(self):
        return ExactMatrix(self.field, [list(col) for col in zip(*self.entries)]) \
            if self.rows else ExactMatrix(self.field, [])

    def mul_vector(self, v):
        zero = self.field.zero()
        out = []
        for row in self.entries:
            acc = zero
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
            inv = self.field.one() / m[r][c]
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
        zero, one = self.field.zero(), self.field.one()
        basis = []
        for f in free:
            v = [zero] * self.cols
            v[f] = one
            for i, c in enumerate(pivots):
                v[c] = -m[i][f]
            basis.append(v)
        return len(pivots), basis

    def row_space_contains(self, v):
        """Does the vector v lie in the row span of this matrix?"""
        stacked = ExactMatrix(self.field, self.entries + [list(v)])
        return stacked.rank() == self.rank()

    def solve(self, b):
        """One exact solution x of A x = b, or None if inconsistent."""
        aug = ExactMatrix(self.field,
                          [row + [bi] for row, bi in zip(self.entries, b)])
        m, pivots = aug.rref()
        if self.cols in pivots:
            return None
        zero = self.field.zero()
        x = [zero] * self.cols
        for i, c in enumerate(pivots):
            x[c] = m[i][self.cols]
        return x

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field})"


def rank_mod_p(rows, p, stop_at=None):
    """Rank over F_p of the int rows (an iterable, consumed lazily).  Rows
    join an echelon basis one at a time; the scan stops once the rank
    reaches `stop_at`."""
    basis = []  # (pivot column, row with 1 there), in insertion order
    for row in rows:
        v = [x % p for x in row]
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

    Lower bound: for an integral matrix, reduction Z[w] -> F_p (p =
    RANK_PRIME) sending w to RANK_OMEGA is a ring homomorphism, so rank
    mod p <= rank.  A part is integral when it is an int, as `zw_pair`
    gives every integral part; this is tested once per distinct entry.
    Upper bound: the candidate vectors over Q(w) that are integral and
    satisfy A v = 0 exactly in Z[w] are kept if they are independent (their
    rank mod p is their number; otherwise none is kept), and give
    rank <= cols - #kept.  When the bounds meet, the rank is proven and the
    kept vectors are a kernel basis (route "modular+kernel"); otherwise rank
    and kernel come from exact elimination over Q(w) (route "exact-Qw").
    Returns (rank, kernel, certificate); the certificate gives the prime,
    the rank mod p (None for a non-integral matrix), the number of
    candidates kept and the route.
    """
    cols = len(rows[0]) if rows else 0
    rows = list(dict.fromkeys(map(tuple, rows)))  # same rank, same kernel
    rank_p, kernel = None, []
    if _is_integral(set().union(*rows)):
        p, r = RANK_PRIME, RANK_OMEGA

        def mod_p(vec):
            return [(a + b * r) % p for a, b in vec]

        vecs = [[zw_pair(x) for x in v] for v in candidates]
        kept = [i for i, v in enumerate(vecs)
                if _is_integral(v) and _annihilates(rows, v)]
        if rank_mod_p((mod_p(vecs[i]) for i in kept), p) == len(kept):
            kernel = [list(candidates[i]) for i in kept]
        rank_p = rank_mod_p(map(mod_p, rows), p, stop_at=cols - len(kernel))
    verified = len(kernel)
    if rank_p is not None and rank_p + verified == cols:
        rank, route = rank_p, "modular+kernel"
    else:
        rank, kernel = ExactMatrix(QW, [[Eisenstein(*c) for c in row]
                                        for row in rows]).rank_and_kernel()
        route = "exact-Qw"
    return rank, kernel, {"prime": RANK_PRIME, "rank_mod_p": rank_p,
                          "kernel_vectors_verified": verified, "route": route}
