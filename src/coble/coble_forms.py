"""The Coble cubic F_beta, the nine Barth quadrics, their derivative identity,
the involution eigencoordinate (Y/Z) rewriting, and the Steiner matrix.

Coordinates here are the theta variables Z00..Z22 (written X_b in degree-3
sources; same thing) with five formal parameters beta0..beta4.  F_beta is
restricted to a fixed plane as the sextics are, by `nu.chart_coordinates`.
"""

from __future__ import annotations

from .fields import QQ, QW, zw_pair
from .heisenberg import Apoint, coord_name, theta_ring
from .invariants import pinned_basis
from .linalg import RANK_OMEGA, RANK_PRIME, ExactMatrix, rank_mod_p
from .nu import PENCIL_TARGET, chart_coordinates, eigenspace_chart, packed_terms
from .poly import PolyRing

BETAS = tuple(f"beta{i}" for i in range(5))


def coble_ring():
    return theta_ring(extra_params=BETAS, field=QW)


def cubic_basis(ring=None):
    """F0..F4 as the *literal* printed sums over all nine translates:
    F_i = sum_b X_b X_{mu+b} X_{-mu+b}.  Each is its orbit sum (the pinned
    basis) times the order 9 / #terms of its stabilizer: for i >= 1 that is
    3, so each distinct monomial has coefficient 3; this is exactly what
    makes dF_beta/dX_b = 3 Q_b an identity."""
    return [9 // len(f.terms) * f
            for f in pinned_basis(ring or coble_ring(), 3)[1]]


def coble_cubic(ring=None):
    """F_beta = beta0*F0 + ... + beta4*F4."""
    ring = ring or coble_ring()
    acc = ring.zero()
    for i, f in enumerate(cubic_basis(ring)):
        acc = acc + ring.var(f"beta{i}") * f
    return acc


# The printed quadrics: Q_b = sum_k beta_k * (product of two coordinates).
# Transcribed literally; each entry lists the coordinate pair per beta.
BARTH_TABLE = {
    (0, 0): [((0, 0), (0, 0)), ((0, 1), (0, 2)), ((1, 0), (2, 0)), ((1, 1), (2, 2)), ((1, 2), (2, 1))],
    (0, 1): [((0, 1), (0, 1)), ((0, 2), (0, 0)), ((1, 1), (2, 1)), ((1, 2), (2, 0)), ((1, 0), (2, 2))],
    (0, 2): [((0, 2), (0, 2)), ((0, 0), (0, 1)), ((1, 2), (2, 2)), ((1, 0), (2, 1)), ((1, 1), (2, 0))],
    (1, 0): [((1, 0), (1, 0)), ((1, 1), (1, 2)), ((2, 0), (0, 0)), ((2, 1), (0, 2)), ((2, 2), (0, 1))],
    (1, 1): [((1, 1), (1, 1)), ((1, 2), (1, 0)), ((2, 1), (0, 1)), ((2, 2), (0, 0)), ((2, 0), (0, 2))],
    (1, 2): [((1, 2), (1, 2)), ((1, 0), (1, 1)), ((2, 2), (0, 2)), ((2, 0), (0, 1)), ((2, 1), (0, 0))],
    (2, 0): [((2, 0), (2, 0)), ((2, 1), (2, 2)), ((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))],
    (2, 1): [((2, 1), (2, 1)), ((2, 2), (2, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 0)), ((0, 0), (1, 2))],
    (2, 2): [((2, 2), (2, 2)), ((2, 0), (2, 1)), ((0, 2), (1, 2)), ((0, 0), (1, 1)), ((0, 1), (1, 0))],
}


def barth_quadrics(ring=None):
    """The nine quadrics as a dict b -> polynomial (5 terms each)."""
    ring = ring or coble_ring()
    out = {}
    for b, rows in BARTH_TABLE.items():
        q = ring.zero()
        for k, (c1, c2) in enumerate(rows):
            q = q + ring.var(f"beta{k}") * ring.var(coord_name(c1)) * ring.var(coord_name(c2))
        out[b] = q
    return out


def verify_derivative_identity(f, quadrics=None):
    """dF_beta/dZ_b = 3 Q_b for all b, and sum_b Z_b Q_b = F_beta, for the
    Coble cubic f = coble_cubic(ring) and its quadrics = barth_quadrics(ring).

    Returns a dict of residual polynomials (all zero on success)."""
    ring = f.ring
    quadrics = quadrics or barth_quadrics(ring)
    residuals = {}
    acc = euler = ring.zero()
    for b, q in quadrics.items():
        z, df = ring.var(coord_name(b)), f.partial_derivative(coord_name(b))
        residuals[f"dF/d{coord_name(b)} - 3*Q"] = df - 3 * q
        acc = acc + z * q
        euler = euler + z * df
    residuals["sum Z_b*Q_b - F"] = acc - f
    residuals["Euler: sum Z_b*dF/dZ_b - 3F"] = euler - 3 * f
    return residuals


# F_beta restricted to the plane Z_ij = 0 (i != 0) as printed, beta0 sum Y^3 +
# 3 beta1 Y0Y1Y2: the pencil coordinates of F0..F4, as Z[w] pairs.
ETA_PLANE = [[(1, 0), (0, 0)], [(0, 0), (3, 0)]] + [[(0, 0), (0, 0)]] * 3


def eta_plane_coordinates():
    """F0..F4 read off that plane, the chart of the lift (0, 00, 10), which
    sends Z0j to Yj; raises NotInSpan for a restriction off the pencil."""
    chart = eigenspace_chart(Apoint((0, 0), (1, 0)), 0)
    return chart_coordinates(chart, packed_terms(cubic_basis(theta_ring())),
                             PENCIL_TARGET)


# ----- Y/Z eigencoordinates ------------------------------------------------

YZ_VARS = ("Y0", "Y1", "Y2", "Y3", "Y4", "W1", "W2", "W3", "W4")
# The anti-invariant coordinates are called Z1..Z4 in print; inside this ring
# they are W1..W4 to avoid clashing with the theta names Z00..Z22.

# (pair, minus-pair) per Y_k/Z_k: Y_k = (X_a + X_{-a})/2, Z_k = (X_a - X_{-a})/2.
YZ_PAIRS = [((0, 1), (0, 2)), ((1, 0), (2, 0)), ((1, 1), (2, 2)), ((1, 2), (2, 1))]


def yz_ring():
    return PolyRing(QQ, YZ_VARS + BETAS)


def yz_substitution(target):
    """X in terms of (Y, Z): inverse of the 1/2-definitions, no denominators."""
    sub = {"Z00": target.var("Y0")}
    for k, (a, na) in enumerate(YZ_PAIRS, start=1):
        y, w = target.var(f"Y{k}"), target.var(f"W{k}")
        sub[coord_name(a)] = y + w
        sub[coord_name(na)] = y - w
    for bname in BETAS:
        sub[bname] = target.var(bname)
    return sub


def quadrics_in_yz():
    """Each Q_b rewritten through the Y/Z chart, over Q."""
    target = yz_ring()
    sub = yz_substitution(target)
    quadrics = barth_quadrics(theta_ring(extra_params=BETAS, field=QQ))
    return target, {b: q.substitute(sub, target_ring=target)
                    for b, q in quadrics.items()}


# The printed 5x5 matrix q_ij(Z): row i lists the coefficient of beta_j.
# Entries are (coefficient, Z-exponent pairs); None = 0.
STEINER_ROWS = [
    [None, (-1, (1, 1)), (-1, (2, 2)), (-1, (3, 3)), (-1, (4, 4))],
    [(1, (1, 1)), None, (-1, (3, 4)), (-1, (2, 4)), (-1, (2, 3))],
    [(1, (2, 2)), (1, (3, 4)), None, (1, (1, 4)), (-1, (1, 3))],
    [(1, (3, 3)), (1, (2, 4)), (-1, (1, 4)), None, (1, (1, 2))],
    [(1, (4, 4)), (1, (2, 3)), (1, (1, 3)), (-1, (1, 2)), None],
]


def steiner_row_polys(ring=None):
    """The five printed restricted quadrics q1..q5 as polynomials in the
    anti-invariant coordinates and beta."""
    ring = ring or yz_ring()
    out = []
    for i, row in enumerate(STEINER_ROWS):
        q = ring.zero()
        for j, ent in enumerate(row):
            if ent is None:
                continue
            sgn, (a, b) = ent
            q = q + sgn * ring.var(f"beta{j}") * ring.var(f"W{a}") * ring.var(f"W{b}")
        out.append(q)
    return out


class SpanMismatch(Exception):
    pass


def minus_space_restriction():
    """Restrict every Q_b to the anti-invariant space (Y = 0) and verify the
    printed data: Q00 restricts to row 1, and the span of the nine restricted
    quadrics equals the span of the five printed rows.

    Returns (ring, restricted dict, printed rows)."""
    target, qs = quadrics_in_yz()
    ysub = {f"Y{k}": 0 for k in range(5)}
    restricted = {b: q.substitute(ysub) for b, q in qs.items()}
    rows = steiner_row_polys(target)

    if restricted[(0, 0)] != rows[0]:
        raise SpanMismatch("Q00 restriction differs from printed row 1")

    monos = sorted({m for p in list(restricted.values()) + rows for m in p.terms})
    zero = target.field.zero()

    def matrix(polys):
        return ExactMatrix(QQ, [[p.terms.get(m, zero) for m in monos] for p in polys])

    m_restr = matrix(list(restricted.values()))
    m_rows = matrix(rows)
    m_joint = matrix(list(restricted.values()) + rows)
    r1, r2, rj = m_restr.rank(), m_rows.rank(), m_joint.rank()
    if not (r1 == r2 == rj == 5):
        raise SpanMismatch(f"span ranks restricted={r1} printed={r2} joint={rj}")
    return target, restricted, rows


def steiner_matrix(z):
    """Evaluate the printed q_ij(Z) matrix at four field values z = (z1..z4).

    Returns (5x5 ExactMatrix over Q(w), rank, kernel generator or None)."""
    z = [QW.coerce(v) for v in z]
    if not any(z):
        raise ValueError("z must be a nonzero point")
    vals = {k + 1: z[k] for k in range(4)}
    entries = []
    for row in STEINER_ROWS:
        out_row = []
        for ent in row:
            if ent is None:
                out_row.append(QW.zero())
            else:
                sgn, (a, b) = ent
                out_row.append(sgn * vals[a] * vals[b])
        entries.append(out_row)
    m = ExactMatrix(QW, entries)
    rank, kernel = m.rank_and_kernel()
    point = kernel[0] if rank == 4 else None
    return m, rank, point


# Printed mixed block (Q6..Q9): 4x5 matrix applied to (Y0..Y4); each entry is
# a list of (sign, beta index, W index) triples.
MIXED_ROWS = [
    [[(-1, 1, 1)], [(2, 0, 1)], [(1, 3, 4), (-1, 4, 3)], [(1, 4, 2), (-1, 2, 4)], [(1, 2, 3), (-1, 3, 2)]],
    [[(-1, 2, 2)], [(-1, 3, 4), (-1, 4, 3)], [(2, 0, 2)], [(1, 1, 4), (1, 4, 1)], [(1, 1, 3), (-1, 3, 1)]],
    [[(-1, 3, 3)], [(-1, 2, 4), (-1, 4, 2)], [(1, 1, 4), (-1, 4, 1)], [(2, 0, 3)], [(1, 1, 2), (1, 2, 1)]],
    [[(-1, 4, 4)], [(-1, 2, 3), (-1, 3, 2)], [(1, 1, 3), (1, 3, 1)], [(1, 1, 2), (-1, 2, 1)], [(2, 0, 4)]],
]

# Printed even block (Q1..Q5): Y-part matrix; entry = pair of Y indices.
EVEN_Y_ROWS = [
    [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)],
    [(1, 1), (0, 1), (3, 4), (2, 4), (2, 3)],
    [(2, 2), (3, 4), (0, 2), (1, 4), (1, 3)],
    [(3, 3), (2, 4), (1, 4), (0, 3), (1, 2)],
    [(4, 4), (2, 3), (1, 3), (1, 2), (0, 4)],
]


def printed_yz_block_polys(ring=None):
    """The printed Q1..Q9 in Y/Z coordinates, as polynomials."""
    ring = ring or yz_ring()
    polys = []
    for yrow, q in zip(EVEN_Y_ROWS, steiner_row_polys(ring)):
        for j, (a, b) in enumerate(yrow):
            q = q + ring.var(f"beta{j}") * ring.var(f"Y{a}") * ring.var(f"Y{b}")
        polys.append(q)
    for row in MIXED_ROWS:
        q = ring.zero()
        for ycol, ents in enumerate(row):
            for sgn, bidx, widx in ents:
                q = q + sgn * ring.var(f"beta{bidx}") * ring.var(f"W{widx}") * ring.var(f"Y{ycol}")
        polys.append(q)
    return polys


def printed_block_span_report():
    """For each printed Q1..Q9, is it in the Q-span of the YZ-rewritten Q_b?
    Returns a list of booleans (transcription check, not a correctness gate)."""
    target, qs = quadrics_in_yz()
    basis_polys = [qs[b] for b in sorted(qs)]
    printed = printed_yz_block_polys(target)
    monos = sorted({m for p in basis_polys + printed for m in p.terms})
    zero = target.field.zero()
    base = ExactMatrix(QQ, [[p.terms.get(m, zero) for m in monos] for p in basis_polys])
    base_rank = base.rank()
    verdicts = []
    for p in printed:
        vec = [p.terms.get(m, zero) for m in monos]
        verdicts.append(base.row_space_contains(vec))
    return base_rank, verdicts


def quadric_rank(qs=None):
    """Rank of the nine Q_b (`barth_quadrics`) as a linear system (beta
    formal), taken over F_p (p = RANK_PRIME) after sending w to RANK_OMEGA;
    the coefficients must lie in Z[w].  That reduction is a ring
    homomorphism, so the result is a lower bound on the rank over Q(w), and
    exact when it equals the number of quadrics, 9: the one value that
    `coble check` and `enum quadric-count` compare with."""
    qs = qs or barth_quadrics()
    polys = [qs[b] for b in sorted(qs)]
    monos = sorted({m for p in polys for m in p.terms})

    def residue(c):
        a, b = zw_pair(c)
        return a + b * RANK_OMEGA

    return rank_mod_p([[residue(p.terms[m]) if m in p.terms else 0
                        for m in monos] for p in polys], RANK_PRIME)
