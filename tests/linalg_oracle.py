"""Exact dense linear algebra over any of the fields in `coble.fields`, which
no certificate runs: the reference elimination that the rank certificate
(`linalg.certified_rank_and_kernel`) and every eliminating test are
checked against.

Elimination is plain Gaussian elimination with exact division; the pivot in
each column is the first (lowest-index) row with a nonzero entry, so results
are deterministic.  Kernel bases come out echelon-normalized: one vector per
free column, with entry 1 in that column.
"""


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
