"""The Coble cubic F_beta, the nine Barth quadrics, their derivative identity
and rank, and F_beta's coordinates on a fixed plane.

Coordinates here are the theta variables Z00..Z22 (written X_b in degree-3
sources; same thing) with five formal parameters beta0..beta4.  F_beta is
restricted to a fixed plane as the sextics are, by `nu.chart_coordinates`.
"""

from __future__ import annotations

from .fields import zw_pair
from .heisenberg import HeisenbergElement, coord_name, theta_ring
from .invariants import pinned_basis
from .linalg import rank_mod_p
from .nu import PENCIL_TARGET, chart_coordinates, eigenspace_chart, packed_terms

BETAS = tuple(f"beta{i}" for i in range(5))


def coble_ring():
    return theta_ring(extra_params=BETAS)


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
    chart = eigenspace_chart(HeisenbergElement(0, (0, 0), (1, 0)))
    return chart_coordinates(chart, packed_terms(cubic_basis(theta_ring())),
                             PENCIL_TARGET)


def quadric_rank(qs=None):
    """Rank of the nine Q_b (`barth_quadrics`) as a linear system (beta
    formal), taken mod p (`linalg.rank_mod_p`); the coefficients must lie
    in Z[w].  That is a lower bound on the rank over Q(w), and exact when it
    equals the number of quadrics, 9: the one value that `coble check` and
    `enum quadric-count` compare with."""
    qs = qs or barth_quadrics()
    polys = [qs[b] for b in sorted(qs)]
    monos = sorted({m for p in polys for m in p.terms})
    return rank_mod_p([[zw_pair(p.terms[m]) if m in p.terms else (0, 0)
                        for m in monos] for p in polys])
