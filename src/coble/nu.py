"""Fixed-point planes of Heisenberg lifts, restriction of the 43 invariant
sextics to them, and the assembled restriction map nu with a certified rank
and kernel.

Chart conventions (mode "annexe")
---------------------------------
* 4 "diagonal" charts: for (r,s) in (0,1),(1,0),(1,1),(1,2) the coordinates
  Z_ij with r*i + s*j != 0 mod 3 vanish on the plane; the three survivors
  become Y0, Y1, Y2 in row-major order.
* 36 shift charts: for each shift direction d in 01, 10, 11, 12 and each
  character (u,v), the phase tables below (copied bit for bit from the
  source computation) send every Z_ij to w^j * Y_k.

Mode "all_lifts" instead builds, for every nonzero class eta of A[3] mod +-
and each of the three central lifts, an adapted basis of the eigenvalue-1
eigenspace of the 9x9 action matrix, and charts all 120 of them.

Every chart sends each Z_b to w^j * Y_k or to 0 and is stored as that
monomial map (`FixedPlaneChart.images`).  Every group element sends Z_b to
w^phase * Z_target (`heisenberg.monomial_action`), so whether a lift fixes
a chart is decided on exponents mod 3 (`fixes_chart`).  Restriction is
read off the same map: with one int weight per Z_b (Y_k and j in bit
fields), a term's image is sum e_b * weight_b over its nonzero exponents,
whose w-field picks its Z[w] coefficient times w^j (`chart_coordinates`).
Restricted sextics are coordinatized in the 4-dimensional invariant basis
S1 = sum Y_i^6, S2 = sum Y_i^3 Y_j^3, S3 = Y0 Y1 Y2 * sum Y_i^3,
S4 = Y0^2 Y1^2 Y2^2, whose monomial supports are disjoint: each coordinate
is read at one monomial of its support, and one dict comparison checks that
the restriction is that combination.

The nu matrix is integral in Z[w].  Its rank is certified by
`linalg.certified_rank_and_kernel`: the rank mod a prime p = 1 mod 3 is a
lower bound, the printed text kernel vectors that check exactly give the
upper bound, and exact elimination over Q(w) runs only when the two do not
meet.  Either way the kernel is an echelon-normalized basis, so which
printed kernel it is is decided by list equality (`kernel_verdict`).
"""

from __future__ import annotations

from .fields import QW, Eisenstein, zw_pair, zw_rotate
from .heisenberg import (COORDS, THETA_VARS, Apoint,
                         HeisenbergElement, add2, apoint_classes_mod_sign,
                         coord_name, dot, monomial_action, neg2, theta_ring)
from .hesse import s_basis
from .invariants import InvariantBasis, iota_act, pinned_basis
from .linalg import ExactMatrix, certified_rank_and_kernel
from .poly import NotInSpan, PolyRing


class EigenspaceDimensionError(Exception):
    pass


Y_RING = PolyRing(QW, ("Y0", "Y1", "Y2"))
S_BASIS = s_basis(Y_RING)

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


class FixedPlaneChart:
    """A plane of fixed points as a monomial map: `images` holds, per theta
    coordinate in `COORDS` order, None when it vanishes on the plane, else
    (k, j) with Z_b -> w^j * Y_k."""

    def __init__(self, family_tag, images, eta=None):
        self.family_tag = family_tag
        self.images = images
        self.eta = eta

    def __repr__(self):
        return f"FixedPlaneChart({self.family_tag})"


def _diagonal_chart(r, s):
    survivors = [b for b in COORDS if (r * b[0] + s * b[1]) % 3 == 0]
    images = tuple((survivors.index(b), 0) if b in survivors else None
                   for b in COORDS)
    eta = Apoint((0, 0), (r, s)).canonical_mod_sign()
    return FixedPlaneChart(f"diagonal({r},{s})", images, eta=eta)


def _shift_chart(direction, u, v):
    table = SHIFT_TABLES[direction]
    images = tuple((k, (u * w1 + v * w2) % 3)
                   for k, (w1, w2) in (table[b] for b in COORDS))
    # The plane is fixed by lifts with translation part -direction.
    eta = Apoint(neg2(direction), (u, v)).canonical_mod_sign()
    d = f"{direction[0]}{direction[1]}"
    return FixedPlaneChart(f"shift({d},u={u},v={v})", images, eta=eta)


def annexe_charts():
    """The 40 charts in pinned order: diagonals, then shift families with
    (u, v) row-major."""
    charts = [_diagonal_chart(r, s) for r, s in DIAGONAL_RS]
    for direction in FAMILY_ORDER:
        for u in range(3):
            for v in range(3):
                charts.append(_shift_chart(direction, u, v))
    return charts


def eigenspace_chart(eta, t):
    """Adapted eigenvalue-1 chart for the lift (t, x, x*) of eta."""
    g = HeisenbergElement(t, eta.x, eta.xstar)
    x = eta.x
    sub = {b: None for b in COORDS}
    if x == (0, 0):
        survivors = [b for b in COORDS if (t + dot(eta.xstar, b)) % 3 == 0]
        if len(survivors) != 3:
            raise EigenspaceDimensionError(f"{eta}, t={t}")
        for k, b in enumerate(survivors):
            sub[b] = (k, 0)
    else:
        # Group coordinates into the three <x>-cosets; each contributes one
        # eigenvalue-1 vector, with phases fixed by the cycle recurrence.
        seen = set()
        reps = []
        for b in COORDS:
            if b in seen:
                continue
            cyc = [b, add2(b, x), add2(b, add2(x, x))]
            seen.update(cyc)
            reps.append(b)
        if len(reps) != 3:
            raise EigenspaceDimensionError(f"{eta}, t={t}")
        for k, c in enumerate(reps):
            alpha = 0  # exponent of w; alpha_0 = 1
            point = c
            for m in range(3):
                sub[point] = (k, alpha % 3)
                # alpha_{m+1} = alpha_m * w^-(t + x*.(c + m x))
                alpha -= t + dot(eta.xstar, point)
                point = add2(point, x)
    chart = FixedPlaneChart(f"lift(x={eta.x},xstar={eta.xstar},t={t})",
                            tuple(sub[b] for b in COORDS), eta=eta)
    _verify_eigenvectors(chart, g)
    return chart


def fixes_chart(images, action):
    """Does the group element g whose `monomial_action` is `action` fix each
    of the three chart vectors, given the chart's `images`?  With
    g . Z_b = w^phase Z_target, this holds iff for every b: b and its target
    both vanish on the plane, or both go to the same Y_k with
    j_target = j_b + phase (mod 3).  The action matrix and the chart vectors
    are monomial with entries in {0, w^j}, so this is exactly the matrix
    test `action_matrix(g).mul_vector(v) == v`, run on exponents mod 3."""
    for img, (target, phase) in zip(images, action):
        img_t = images[target]
        if img is None or img_t is None:
            if img is not img_t:
                return False
        elif img[0] != img_t[0] or (img[1] + phase - img_t[1]) % 3:
            return False
    return True


def _verify_eigenvectors(chart, g):
    if not fixes_chart(chart.images, monomial_action(g)):
        raise EigenspaceDimensionError(
            f"basis vector of {chart.family_tag} is not fixed by {g}")


def all_lift_charts():
    """120 charts: every nonzero class mod +- with each of its 3 lifts."""
    charts = []
    for eta in apoint_classes_mod_sign():
        for t in range(3):
            charts.append(eigenspace_chart(eta, t))
    return charts


def fixed_plane_charts(mode="annexe"):
    if mode == "annexe":
        return annexe_charts()
    if mode == "all_lifts":
        return all_lift_charts()
    raise ValueError(f"unknown mode {mode!r}")


def matching_lifts(charts):
    """Per chart, all (sign, t) with sign in {+1, -1} such that the chart
    span is fixed pointwise by the lift (t, sign*eta).  Inverse pairs share
    their fixed space, so exactly one t per sign is expected.  The actions
    of the six lifts of a class eta are built once, for all its charts."""
    lifts = {}
    out = []
    for chart in charts:
        eta = chart.eta
        if eta not in lifts:
            lifts[eta] = [
                (sign, t, monomial_action(HeisenbergElement(t, a.x, a.xstar)))
                for sign, a in ((1, eta), (-1, -eta)) for t in range(3)]
        out.append([(sign, t) for sign, t, action in lifts[eta]
                    if fixes_chart(chart.images, action)])
    return out


# ----- restriction as a monomial map, coordinates by read-off --------------

# A term's image on a chart packs into one int: the exponents of Y0, Y1, Y2
# and the exponent of w in four FIELD-bit fields, and the VANISH bit above
# them, set when a coordinate that vanishes on the plane occurs.
FIELD = 8
PHASE = 3 * FIELD
Y_MASK = (1 << PHASE) - 1
VANISH = 1 << (4 * FIELD)
ZERO = (0, 0)
# The packed monomials of each S_i, which has coefficient 1 on each of them.
S_KEYS = [tuple(sum(e << FIELD * k for k, e in enumerate(m)) for m in s.terms)
          for s in S_BASIS]
S_MONOMIALS = frozenset(key for keys in S_KEYS for key in keys)


def packed_terms(elements):
    """Each theta polynomial's terms as (the (coordinate index, exponent)
    pairs of its nonzero exponents, its Z[w] coefficient times 1, w, w^2 as
    pairs).  Raises ValueError when a term's degree could overflow a field:
    the w-exponent of its image is at most twice its degree."""
    out = []
    for p in elements:
        if p.ring.varnames != THETA_VARS:
            raise ValueError(f"not a theta-coordinate polynomial: {p.ring}")
        terms = []
        for exps, c in p.terms.items():
            if 2 * sum(exps) >= 1 << FIELD:
                raise ValueError(f"a term of degree {sum(exps)} overflows the "
                                 f"{FIELD}-bit fields of a restriction")
            pair = zw_pair(QW.coerce(c))
            terms.append((tuple((b, e) for b, e in enumerate(exps) if e),
                          tuple(zw_rotate(pair, j) for j in range(3))))
        out.append(terms)
    return out


def chart_coordinates(chart, packed):
    """The S1..S4 coordinates, as Z[w] pairs, of every element of `packed`
    (from `packed_terms`) restricted to the chart.  Z_b -> w^j Y_k weighs a
    1 in Y_k's field plus j in the phase field, and VANISH if Z_b is 0; a
    term's image is the sum of its exponents times these weights."""
    weight = [VANISH if img is None else (1 << FIELD * img[0]) + (img[1] << PHASE)
              for img in chart.images]
    out = []
    for terms in packed:
        res = {}
        for exps, rotations in terms:
            image = 0
            for i, e in exps:
                image += e * weight[i]
            if image >= VANISH:
                continue
            a, b = rotations[(image >> PHASE) % 3]
            key = image & Y_MASK
            old = res.get(key)
            res[key] = (a, b) if old is None else (old[0] + a, old[1] + b)
        out.append(s_coordinates(res))
    return out


def s_coordinates(res):
    """S1..S4 coordinates of a restriction (packed Y-exponent -> pair),
    read at one monomial per support.  Raises NotInSpan unless the nonzero
    entries are exactly that combination of S1..S4."""
    coords = [res.get(keys[0], ZERO) for keys in S_KEYS]
    live = {key: c for key, c in res.items() if c != ZERO}
    if live != {key: c for c, keys in zip(coords, S_KEYS) if c != ZERO
                for key in keys}:
        if live.keys() <= S_MONOMIALS:
            raise NotInSpan("restriction is not a combination of S1..S4")
        raise NotInSpan("restriction has a monomial outside S1..S4")
    return coords


class NuMatrix:
    def __init__(self, matrix, labels, elements):
        self.matrix = matrix          # ExactMatrix over Q(w), 4 rows per chart
        self.labels = labels          # column labels T1..T43
        self.elements = elements      # the column sextics


def _nu_matrix(charts, elements, progress=None):
    """The restriction matrix: per chart, four rows holding the S1..S4
    coordinates of every element's restriction."""
    packed = packed_terms(elements)
    entries = {}  # one Eisenstein per distinct pair

    def qw(c):
        x = entries.get(c)
        if x is None:
            x = entries[c] = Eisenstein(*c)
        return x

    rows = []
    for ci, chart in enumerate(charts):
        if progress:
            progress(f"chart {ci + 1}/{len(charts)} ({chart.family_tag})")
        block = chart_coordinates(chart, packed)
        rows.extend([qw(col[r]) for col in block] for r in range(4))
    return ExactMatrix(QW, rows)


def _basis_or_pinned(basis):
    """`basis`, or the pinned degree-6 basis T1..T43 when it is None."""
    if basis is None:
        return InvariantBasis(6, *pinned_basis(theta_ring(), 6))
    return basis


def assemble_nu(mode="annexe", basis=None, progress=None):
    """Stack the per-chart coordinate rows of all 43 basis sextics."""
    basis = _basis_or_pinned(basis)
    matrix = _nu_matrix(fixed_plane_charts(mode), basis.elements, progress)
    return NuMatrix(matrix, basis.labels, basis.elements)


# ----- the Annexe's filter pipeline ---------------------------------------

def diagonal_filter_pipeline(basis=None):
    """Apply the four diagonal filters cumulatively; return the list of
    surviving-count stages and the indices (0-based) of the 30 survivors."""
    elements = _basis_or_pinned(basis).elements
    surviving = list(range(len(elements)))
    counts = []
    for r, s in DIAGONAL_RS:
        zero_sub = {coord_name(b): 0 for b in COORDS
                    if (r * b[0] + s * b[1]) % 3 != 0}
        surviving = [i for i in surviving
                     if elements[i].substitute(zero_sub).is_zero()]
        counts.append(len(surviving))
    return counts, surviving


def annexe_subblock_kernel(basis=None):
    """The 36 shift charts restricted to the 30 filter survivors: certified
    rank and kernel, with kernel vectors re-expressed as T-label
    differences."""
    basis = _basis_or_pinned(basis)
    counts, surviving = diagonal_filter_pipeline(basis)
    labels = [basis.labels[i] for i in surviving]
    m = _nu_matrix(annexe_charts()[4:], [basis.elements[i] for i in surviving])
    rank, kernel, _ = certified_rank_and_kernel(
        m, candidate_vectors(labels, TEXT_KERNEL_PAIRS))
    kernel_labels = [{labels[j]: c for j, c in enumerate(v) if c}
                     for v in kernel]
    return counts, rank, kernel, kernel_labels


# ----- full resolution ----------------------------------------------------

def candidate_vectors(labels, pairs):
    """Vectors T_a - T_b over the columns `labels`, for the (a_label,
    b_label) pairs whose labels are both present."""
    out = []
    for plus, minus in pairs:
        if plus in labels and minus in labels:
            v = [QW.zero()] * len(labels)
            v[labels.index(plus)] = QW.one()
            v[labels.index(minus)] = -QW.one()
            out.append(v)
    return out


ANNEXE_KERNEL_PAIRS = [("T11", "T10"), ("T14", "T13"), ("T17", "T16")]
TEXT_KERNEL_PAIRS = [("T8", "T7")] + ANNEXE_KERNEL_PAIRS


def kernel_verdict(labels, kernel):
    """Which printed kernel `kernel` is, by list equality.  Each kernel
    `certified_rank_and_kernel` returns (a sub-list of the printed text
    pairs, or exact elimination's) is echelon-normalized, and so is each
    printed list: its pairs are disjoint, the larger label later."""
    if kernel == candidate_vectors(labels, TEXT_KERNEL_PAIRS):
        return "text: rank 39, kernel {T8-T7, T11-T10, T14-T13, T17-T16}"
    if kernel == candidate_vectors(labels, ANNEXE_KERNEL_PAIRS):
        return "annexe: rank 40, kernel {T11-T10, T14-T13, T17-T16}"
    return "neither printed kernel"


def nu_rank_and_kernel(mode="annexe", progress=None):
    """Certified rank and kernel of the assembled nu matrix plus a report
    that resolves the rank-39 (4-element kernel) versus rank-40 (3-element
    kernel) discrepancy, certifies iota-anti-invariance of every kernel
    element and says how the rank was proven (`rank_certificate`)."""
    nu = assemble_nu(mode=mode, progress=progress)
    labels, elements = nu.labels, nu.elements
    rank, kernel, certificate = certified_rank_and_kernel(
        nu.matrix, candidate_vectors(labels, TEXT_KERNEL_PAIRS))
    ring = elements[0].ring

    def combine(vec):
        acc = ring.zero()
        for c, p in zip(vec, elements):
            if c:
                acc = acc + c * p
        return acc

    anti = all(iota_act(combine(v)) == -combine(v) for v in kernel)

    kernel_labels = [{labels[j]: c for j, c in enumerate(v) if c} for v in kernel]
    report = {
        "mode": mode,
        "rows": nu.matrix.rows,
        "rank": rank,
        "kernel_dimension": len(kernel),
        "kernel": kernel_labels,
        "rank_nullity_ok": rank + len(kernel) == nu.matrix.cols,
        "kernel_iota_anti_invariant": anti,
        "verdict": kernel_verdict(labels, kernel),
        "rank_certificate": certificate,
    }
    return rank, kernel, report
