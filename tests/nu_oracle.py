"""The generic Q(w) route to nu, kept as the reference the production route
is compared against: restriction by polynomial substitution (`substitute`,
through the chart's basis vectors in `restrict`), coordinates by an exact
solve (`coefficient_in_basis`) or by the source computation's substitution
Y1 = Y2 = 1, exact elimination (`ExactMatrix.rank_and_kernel`), and the
verdict by exact span comparison with the printed kernels.  This
is the only replication of the source's row convention: production reads
S1..S4 only, and `source_rows` maps those to the source's rows.  Also the
K_eta action on a chart plane, by exact 9x9 and 3x3 matrices, used to check
that it keeps the span of S1..S4.  And the Annexe's printed charts (its
diagonal rule and phase tables, transcribed) with its diagonal filter by
zero substitution, which production derives as the t = 0 lift charts and
reads off the packed restriction; `subblock_kernel` runs that filter and
the shift-chart subblock on the production route.  And the Coble cubic
restricted by substitution to the plane where the Z_ij with i != 0 vanish,
the reference for its read-off in the Hesse pencil's basis.  The rings
here are the oracle's own: production restricts into no polynomial ring.
"""

from functools import cache
from itertools import product

from coble import nu
from coble.coble_forms import coble_cubic
from coble.fields import Eisenstein
from coble.heisenberg import (COORDS, HeisenbergElement, classes_mod_sign,
                              coord_name, neg2, theta_ring)
from coble.hesse import s_basis
from coble.invariants import pinned_basis
from coble.poly import NotInSpan, Polynomial, PolyRing
from heisenberg_oracle import (action_matrix, add2, class_lift, dot,
                               omega_pow, weil_form)
from linalg_oracle import ExactMatrix, QwFraction, qw

Y_RING = PolyRing(("Y0", "Y1", "Y2"))
S_BASIS = s_basis(Y_RING)
_y0, _y1, _y2 = (Y_RING.var(f"Y{k}") for k in range(3))
# The forms of the Hesse pencil, sum Y^3 and Y0Y1Y2.
PENCIL_BASIS = [_y0 ** 3 + _y1 ** 3 + _y2 ** 3, _y0 * _y1 * _y2]


DIAGONAL_RS = [(0, 1), (1, 0), (1, 1), (1, 2)]

# Phase tables: family direction -> {(i,j): (k, (w1, w2))}: Z_ij -> w^j Y_k
# with j = u*w1 + v*w2 mod 3 for chart character (u,v).
SHIFT_TABLES = {
    (0, 1): {
        (0, 0): (0, (0, 0)), (0, 1): (0, (0, 0)), (0, 2): (0, (0, 1)),
        (1, 0): (1, (0, 0)), (1, 1): (1, (1, 0)), (1, 2): (1, (2, 1)),
        (2, 0): (2, (0, 0)), (2, 1): (2, (2, 0)), (2, 2): (2, (1, 1)),
    },
    (1, 0): {
        (0, 0): (0, (0, 0)), (1, 0): (0, (0, 0)), (2, 0): (0, (1, 0)),
        (0, 1): (1, (0, 0)), (1, 1): (1, (0, 1)), (2, 1): (1, (1, 2)),
        (0, 2): (2, (0, 0)), (1, 2): (2, (0, 2)), (2, 2): (2, (1, 1)),
    },
    (1, 1): {
        (0, 0): (0, (0, 0)), (1, 1): (0, (0, 0)), (2, 2): (0, (1, 1)),
        (0, 1): (1, (0, 0)), (1, 2): (1, (0, 1)), (2, 0): (1, (1, 0)),
        (0, 2): (2, (0, 0)), (2, 1): (2, (1, 2)), (1, 0): (2, (0, 2)),
    },
    (1, 2): {
        (0, 0): (0, (0, 0)), (1, 2): (0, (0, 0)), (2, 1): (0, (1, 2)),
        (0, 1): (1, (0, 0)), (1, 0): (1, (0, 1)), (2, 2): (1, (1, 1)),
        (0, 2): (2, (0, 0)), (1, 1): (2, (0, 2)), (2, 0): (2, (1, 0)),
    },
}

FAMILY_ORDER = [(0, 1), (1, 0), (1, 1), (1, 2)]


def _diagonal_chart(r, s):
    survivors = [b for b in COORDS if (r * b[0] + s * b[1]) % 3 == 0]
    images = tuple((survivors.index(b), 0) if b in survivors else None
                   for b in COORDS)
    return nu.FixedPlaneChart(f"diagonal({r},{s})", images,
                              lift=class_lift((0, 0), (r, s)))


def _shift_chart(direction, u, v):
    table = SHIFT_TABLES[direction]
    images = tuple((k, (u * w1 + v * w2) % 3)
                   for k, (w1, w2) in (table[b] for b in COORDS))
    # The plane is fixed by lifts with translation part -direction.
    lift = class_lift(neg2(direction), (u, v))
    d = f"{direction[0]}{direction[1]}"
    return nu.FixedPlaneChart(f"shift({d},u={u},v={v})", images, lift=lift)


def printed_charts():
    """The 40 charts as the Annexe prints them: diagonals, then shift
    families with (u, v) row-major."""
    charts = [_diagonal_chart(r, s) for r, s in DIAGONAL_RS]
    for direction in FAMILY_ORDER:
        for u in range(3):
            for v in range(3):
                charts.append(_shift_chart(direction, u, v))
    return charts


def eta_walk_images(eta, t):
    """The chart images of the lift (t, x, x*) of eta, worked out from eta
    with `add2` and `dot`: g sends Z_(c+x) to w^(t + x*.c) Z_c, so a fixed
    vector has alpha_(c+x) = alpha_c - t - x*.c.  Each <x>-orbit, walked
    from its first member (alpha = 0), carries one fixed vector when the
    accumulated phase returns to 0 mod 3.  This is the construction that
    production reads off `monomial_action` instead."""
    images = [None] * 9
    seen = set()
    k = 0
    for c in COORDS:
        orbit, alpha, b = [], 0, c
        while b not in seen:
            seen.add(b)
            orbit.append((COORDS.index(b), alpha))
            alpha = (alpha - t - dot(eta.xstar, b)) % 3
            b = add2(b, eta.x)
        if orbit and alpha == 0:
            for i, j in orbit:
                images[i] = (k, j)
            k += 1
    return tuple(images)


def eta_walk_charts():
    """(tag, images) of the 40 annexe charts in the order of their names,
    then of the 120 lift charts, all by `eta_walk_images`."""
    annexe = []
    lifts = []
    for eta in classes_mod_sign():
        x, (u, v) = eta.x, neg2(eta.xstar)
        tag = ("diagonal({},{})".format(*eta.xstar) if x == (0, 0)
               else f"shift({x[0]}{x[1]},u={u},v={v})")
        annexe.append((tag, eta_walk_images(eta, 0)))
        lifts += [(f"lift(x={eta.x},xstar={eta.xstar},t={t})",
                   eta_walk_images(eta, t)) for t in range(3)]
    return sorted(annexe) + lifts


def subblock_kernel(basis=None):
    """The Annexe's pipeline on `basis` (default the pinned T1..T43), by the
    production read-off: the four diagonal filters, applied cumulatively,
    keep the elements whose S1..S4 coordinates on the plane are all zero
    (`nu.target_rows` checks that each whole restriction is that
    combination, so exactly those restrict to zero); then the 36 shift
    charts on the survivors, with a certified rank and kernel, whose
    candidates come from iota's 2-cycles on the survivors.  Returns the
    surviving count after each filter, the survivors' indices, and the
    subblock's rank, kernel, kernel as {label: coefficient} dicts and rank
    certificate."""
    labels, elements = basis or pinned_basis(theta_ring(), 6)
    charts = nu.fixed_plane_charts("annexe")
    packing = nu.packed_terms(elements, nu.S_TARGET)
    surviving = list(range(len(elements)))
    counts = []
    for chart in charts[:4]:
        rows = nu.target_rows(chart, packing)
        surviving = [i for i in surviving
                     if all(row[i] == nu.ZERO for row in rows)]
        counts.append(len(surviving))
    rank, kernel, kernel_labels, certificate = nu._certified_kernel(
        charts[4:], [labels[i] for i in surviving],
        [elements[i] for i in surviving], None)
    return counts, surviving, rank, kernel, kernel_labels, certificate


def substitution_filter(elements):
    """The Annexe's diagonal filters, applied cumulatively by substituting 0
    for the coordinates off each diagonal plane: the surviving count after
    each filter and the indices of the survivors."""
    surviving = list(range(len(elements)))
    counts = []
    for r, s in DIAGONAL_RS:
        zero_sub = {coord_name(b): 0 for b in COORDS
                    if (r * b[0] + s * b[1]) % 3 != 0}
        surviving = [i for i in surviving
                     if substitute(elements[i], zero_sub).is_zero()]
        counts.append(len(surviving))
    return counts, surviving


def basis_vectors(chart):
    """The chart's three 9-long coefficient vectors over Q(w)."""
    vecs = [[0] * 9 for _ in range(3)]
    for i, img in enumerate(chart.images):
        if img is not None:
            k, j = img
            vecs[k][i] = omega_pow(j)
    return vecs


def substitute(p, assignment, target_ring=None):
    """Replace variables of p by polynomials (or scalars).

    `assignment` maps variable names to values; unassigned variables map
    to the variable of the same name in the target ring (defaults to p's
    ring).
    """
    ring = target_ring if target_ring is not None else p.ring
    images = []
    for name in p.ring.varnames:
        if name in assignment:
            val = assignment[name]
            if not isinstance(val, Polynomial):
                val = ring.const(val)
            elif val.ring != ring:
                raise ValueError(f"image of {name} lives in the wrong ring")
        else:
            val = ring.var(name)
        images.append(val)
    result = ring.zero()
    power_cache = [{} for _ in images]
    for e, c in p.terms.items():
        term = ring.const(c)
        for i, k in enumerate(e):
            if k:
                powers = power_cache[i]
                if k not in powers:
                    powers[k] = images[i] ** k
                term = term * powers[k]
        result = result + term
    return result


def assignment(chart):
    """The variable assignment restricting a theta polynomial to the chart,
    images in Y_RING."""
    sub = {}
    for b, img in zip(COORDS, chart.images):
        if img is None:
            sub[coord_name(b)] = Y_RING.zero()
        else:
            k, j = img
            sub[coord_name(b)] = Y_RING.var(f"Y{k}") * omega_pow(j)
    return sub


def restrict(chart, p):
    """The theta polynomial p restricted to the chart, by substitution."""
    return substitute(p, assignment(chart), target_ring=Y_RING)


def eta_plane_restriction():
    """F_beta = coble_cubic() with the Z_ij, i != 0, set to 0 by
    substitution."""
    return substitute(coble_cubic(),
                      {coord_name(b): 0 for b in COORDS if b[0] != 0})


def eta_plane_cubic(ring, rows):
    """sum_i beta_i (A_i (Z00^3 + Z01^3 + Z02^3) + B_i Z00 Z01 Z02) in
    `ring`, for the pencil rows (A_0..A_4), (B_0..B_4) of F0..F4 as Z[w]
    pairs."""
    z0, z1, z2 = (ring.var(n) for n in ("Z00", "Z01", "Z02"))
    pencil = [z0 ** 3 + z1 ** 3 + z2 ** 3, z0 * z1 * z2]
    acc = ring.zero()
    for i, c in enumerate(by_element(rows)):
        acc = acc + ring.var(f"beta{i}") * in_basis(c, pencil)
    return acc


def source_rows(coords):
    """The source computation's rows from S1..S4 coordinates (a1, a2, a3,
    a4): on the span of S1..S4 the coefficient sums by Y0-degree 2, 3, 4, 6
    are (a4, 2 a2, a3, a1), since S2 has two monomials of Y0-degree 3 and
    the other S_i one monomial each of Y0-degree 2, 4 or 6."""
    a1, a2, a3, a4 = coords
    return [a4, 2 * a2, a3, a1]


def qw_matrix(rows):
    """The ExactMatrix over Q(w) of rows of (re, om) pairs."""
    return ExactMatrix([[QwFraction(*c) for c in row] for row in rows])


def pair_vectors(vectors):
    """Vectors over Q(w) as vectors of (re, om) pairs, the form of the
    certificate's kernel."""
    return [[(c.re, c.om) for c in map(qw, v)] for v in vectors]


def by_element(rows):
    """`nu.target_rows` transposed: per element, its coordinates."""
    return [list(c) for c in zip(*rows)]


def in_basis(coords, basis):
    """The polynomial with Z[w]-pair coordinates `coords` in `basis`."""
    acc = basis[0].ring.zero()
    for c, b in zip(coords, basis):
        acc = acc + Eisenstein(*c) * b
    return acc


def source_matrix(matrix):
    """An S1..S4 nu matrix (four rows per chart) in the source computation's
    rows, column by column through `source_rows`."""
    rows = []
    for i in range(0, matrix.rows, 4):
        block = matrix.entries[i:i + 4]
        cols = [source_rows([row[j] for row in block])
                for j in range(matrix.cols)]
        rows.extend([col[r] for col in cols] for r in range(4))
    return ExactMatrix(rows)


def production_coordinates(p, chart, method="sbasis"):
    """The production route's coordinates of p on one chart, as Q(w): S1..S4,
    or for method "hack" the source computation's rows."""
    coords = [QwFraction(*row[0]) for row in nu.target_rows(
        chart, nu.packed_terms([p], nu.S_TARGET))]
    return source_rows(coords) if method == "hack" else coords


def hack_rows(res):
    """The source computation's row extraction: coefficients of Y0^2, Y0^3,
    Y0^4, Y0^6 after Y1 = Y2 = 1."""
    line = substitute(res, {"Y1": 1, "Y2": 1})
    return [line.terms.get((k, 0, 0), 0) for k in (2, 3, 4, 6)]


def coefficient_in_basis(p, basis):
    """Exact coordinates of p in the span of the polynomials `basis`, by an
    exact solve on their monomial coefficients; raises NotInSpan when p is
    outside the span."""
    monomials = sorted(set(p.terms).union(*(b.terms for b in basis)))
    mat = ExactMatrix([[b.terms.get(m, 0) for b in basis] for m in monomials])
    x = mat.solve([p.terms.get(m, 0) for m in monomials])
    if x is None:
        raise NotInSpan("polynomial is not in the span of the basis")
    return x


def coordinates(res, method):
    """Coordinates of a restricted sextic `res` in either convention."""
    if method == "hack":
        return hack_rows(res)
    if res.is_zero():
        return [0] * 4
    return coefficient_in_basis(res, S_BASIS)


def restrictions(charts, elements):
    """Every element restricted to every chart, chart by chart."""
    return [[restrict(chart, p) for p in elements] for chart in charts]


@cache
def annexe_restrictions():
    """The pinned T1..T43 restricted to the 40 annexe charts, built once per
    process for every test that needs them (tuples, so none can edit them)."""
    return tuple(map(tuple, restrictions(nu.fixed_plane_charts("annexe"),
                                         pinned_basis(theta_ring(), 6)[1])))


def nu_matrix(restricted, method):
    """The nu matrix from `restrictions(...)`: four rows per chart."""
    rows = []
    for block in restricted:
        cols = [coordinates(res, method) for res in block]
        rows.extend([col[r] for col in cols] for r in range(4))
    return ExactMatrix(rows)


def kernel_span_equals(kernel, candidates):
    """Do the kernel vectors span the same space as the candidate vectors?
    Both are vectors of (re, om) pairs."""
    if len(kernel) != len(candidates):
        return False
    if not kernel:
        return True
    return qw_matrix(kernel + candidates).rank() == len(kernel)


def span_verdict(labels, kernel):
    """The verdict of `nu.nu_rank_and_kernel` on a kernel of pair vectors,
    by span comparison."""
    if kernel_span_equals(kernel, nu.candidate_vectors(
            labels, nu.TEXT_KERNEL_PAIRS)):
        return "text: rank 39, kernel {T8-T7, T11-T10, T14-T13, T17-T16}"
    if kernel_span_equals(kernel, nu.candidate_vectors(
            labels, nu.ANNEXE_KERNEL_PAIRS)):
        return "annexe: rank 40, kernel {T11-T10, T14-T13, T17-T16}"
    return "neither printed kernel"


def k_eta_generators(eta):
    """Two classes generating K_eta = <eta>-perp / <eta> (with respect to the
    commutator pairing), as t = 0 elements; the class eta is given by any
    lift.  The span walk runs on the classes' 4-tuples x + x*."""
    key = eta.x + eta.xstar
    generated = {tuple(m * k % 3 for k in key) for m in range(3)}
    gens = []
    for a_key in product(range(3), repeat=4):
        a = HeisenbergElement(0, a_key[:2], a_key[2:])
        if weil_form(a, eta) or a_key in generated:
            continue
        gens.append(a)
        generated = {tuple((k + m * e) % 3 for k, e in zip(g, a_key))
                     for g in generated for m in range(3)}
        if len(gens) == 2:
            break
    return gens


def induced_plane_action(chart, g):
    """The exact 3x3 matrix A with g . v_k = sum_m A[m][k] v_m when g maps
    the chart plane to itself; None otherwise."""
    vecs = basis_vectors(chart)
    b = ExactMatrix([[vecs[k][i] for k in range(3)] for i in range(9)])
    m = action_matrix(g)
    cols = []
    for v in vecs:
        c = b.solve(m.mul_vector(v))
        if c is None:
            return None
        cols.append(c)
    return ExactMatrix([[cols[k][r] for k in range(3)] for r in range(3)])


def plane_action_preserves_s_span(a):
    """Does the coordinate change Y_m -> sum_k a[m][k] Y_k keep every S_i in
    span{S1..S4}?  Returns the 4x4 matrix of the induced action, or None."""
    images = [Y_RING.var(f"Y{k}") for k in range(3)]
    new_coords = []
    for mrow in range(3):
        acc = Y_RING.zero()
        for k in range(3):
            if a.entries[mrow][k]:
                acc = acc + images[k] * a.entries[mrow][k]
        new_coords.append(acc)
    sub = {f"Y{m}": new_coords[m] for m in range(3)}
    cols = []
    for s in S_BASIS:
        try:
            cols.append(coefficient_in_basis(substitute(s, sub), S_BASIS))
        except NotInSpan:
            return None
    return ExactMatrix([[cols[j][r] for j in range(4)] for r in range(4)])
