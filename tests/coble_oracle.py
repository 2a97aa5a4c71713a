"""The involution eigencoordinates (Y/Z) of the Barth quadrics and the
printed Steiner matrix, transcribed from the source and checked against
the production quadrics (`coble_forms.barth_quadrics`) by substitution and
exact elimination.  No certificate uses them.

Y_k = (X_a + X_{-a}) / 2 and Z_k = (X_a - X_{-a}) / 2 for the four pairs
{a, -a} of `YZ_PAIRS`, and Y0 = X00.  The anti-invariant coordinates Z1..Z4
are W1..W4 in `yz_ring`, to keep them apart from the theta names Z00..Z22.
"""

from coble.coble_forms import BETAS, barth_quadrics
from coble.heisenberg import coord_name, theta_ring
from coble.poly import PolyRing

from linalg_oracle import ExactMatrix, qw
from nu_oracle import substitute

YZ_VARS = ("Y0", "Y1", "Y2", "Y3", "Y4", "W1", "W2", "W3", "W4")

# (pair, minus-pair) per Y_k/Z_k: Y_k = (X_a + X_{-a})/2, Z_k = (X_a - X_{-a})/2.
YZ_PAIRS = [((0, 1), (0, 2)), ((1, 0), (2, 0)), ((1, 1), (2, 2)), ((1, 2), (2, 1))]


def yz_ring():
    return PolyRing(YZ_VARS + BETAS)


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
    quadrics = barth_quadrics(theta_ring(extra_params=BETAS))
    return target, {b: substitute(q, sub, target_ring=target)
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
    restricted = {b: substitute(q, ysub) for b, q in qs.items()}
    rows = steiner_row_polys(target)

    if restricted[(0, 0)] != rows[0]:
        raise SpanMismatch("Q00 restriction differs from printed row 1")

    monos = sorted({m for p in list(restricted.values()) + rows for m in p.terms})
    def matrix(polys):
        return ExactMatrix([[p.terms.get(m, 0) for m in monos] for p in polys])

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
    z = [qw(v) for v in z]
    if not any(z):
        raise ValueError("z must be a nonzero point")
    vals = {k + 1: z[k] for k in range(4)}
    entries = []
    for row in STEINER_ROWS:
        out_row = []
        for ent in row:
            if ent is None:
                out_row.append(0)
            else:
                sgn, (a, b) = ent
                out_row.append(sgn * vals[a] * vals[b])
        entries.append(out_row)
    m = ExactMatrix(entries)
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
    base = ExactMatrix([[p.terms.get(m, 0) for m in monos] for p in basis_polys])
    base_rank = base.rank()
    verdicts = []
    for p in printed:
        vec = [p.terms.get(m, 0) for m in monos]
        verdicts.append(base.row_space_contains(vec))
    return base_rank, verdicts
