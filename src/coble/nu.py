"""Fixed-point planes of Heisenberg lifts, restriction of the 43 invariant
sextics to them, and the assembled restriction map nu with a certified rank
and kernel.

Chart conventions
-----------------
One constructor, `eigenspace_chart(g)`, builds every chart: an adapted
basis of the fixed plane of a lift g = (t, x, x*) of a nonzero class
eta = (x, x*) of A[3] mod +-, one vector per cycle of g's `monomial_action`
whose phases close up.  Mode "all_lifts" charts all three lifts of all 40
classes (120 charts).  Mode "annexe" charts the t = 0 lift of each class
(40 charts) under the Annexe's names, in their order:
* 4 "diagonal" charts diagonal(r,s), x = 0 and x* = (r,s): the coordinates
  Z_ij with r*i + s*j != 0 mod 3 vanish on the plane; the three survivors
  become Y0, Y1, Y2 in row-major order.
* 36 shift charts shift(d,u=u,v=v), x = d in 01, 10, 11, 12 and
  x* = -(u,v): each <d>-orbit goes to one Y_k with phases w^j.
The Annexe's printed phase tables are kept in `tests/nu_oracle.py`, where
they are checked to give exactly these charts.

Every chart sends each Z_b to w^j * Y_k or to 0 and is stored as that
monomial map (`FixedPlaneChart.images`).  Every group element sends Z_b to
w^phase * Z_target (`heisenberg.monomial_action`), so whether a lift fixes
a chart is decided on exponents mod 3 (`fixes_chart`).  Restriction is
read off the same map, for every term of a list of polynomials at once: a
`Packing` holds per Z_b one big int of every term's exponent, one 64-bit
slot per term, and with one int weight per Z_b (Y_k and j in bit fields)
the sum of columns times weights is every term's image, whose w field
picks its Z[w] coefficient times w^j (`target_rows`).  This is the one
restriction to a fixed plane, read in a `Target` basis with disjoint
monomial supports: a slot map sends each (element, target monomial) to an
accumulator, each coordinate is read at its form's first monomial, and
list-slice comparisons check every restriction against its combination.
The sextics are read in S1 = sum Y_i^6, S2 = sum Y_i^3 Y_j^3,
S3 = Y0 Y1 Y2 * sum Y_i^3, S4 = Y0^2 Y1^2 Y2^2 (`S_TARGET`), the Coble
cubic's F0..F4 in the Hesse pencil's sum Y^3, Y0Y1Y2 (`PENCIL_TARGET`).
Each distinct image mod 3 is read off once per packing (`Packing.memo`).

The nu matrix is integral in Z[w], kept as rows of (re, om) int pairs up
to its rank certificate, `linalg.certified_rank_and_kernel`, on its
distinct rows: the rank mod a prime p = 1 mod 3 is a lower bound, and the
vectors T_j - T_i of the 2-cycles (T_i, T_j) of iota on the columns
(`invariants.iota_permutation`) that check exactly give the upper bound.
When the two meet the kernel is those vectors, echelon-normalized, so
which printed kernel it is is decided by list equality (`kernel_verdict`).
When they do not, the kernel is empty and no printed kernel is named.
"""

from __future__ import annotations

import sys

from .fields import Eisenstein, zw_pair, zw_rotate
from .heisenberg import (THETA_VARS, HeisenbergElement, classes_mod_sign,
                         monomial_action, neg2, theta_ring)
from .hesse import PENCIL, S_BASIS
from .invariants import iota_permutation, pinned_basis
from .linalg import certified_rank_and_kernel
from .poly import NotInSpan


class EigenspaceDimensionError(Exception):
    pass


class FixedPlaneChart:
    """A plane of fixed points as a monomial map: `images` holds, per theta
    coordinate in `COORDS` order, None when it vanishes on the plane, else
    (k, j) with Z_b -> w^j * Y_k; `lift` is the g it is built from."""

    def __init__(self, family_tag, images, lift=None):
        self.family_tag = family_tag
        self.images = images
        self.lift = lift

    def __repr__(self):
        return f"FixedPlaneChart({self.family_tag})"


def annexe_charts():
    """The 40 charts of the Annexe, in the order of their names: the chart
    of the t = 0 lift of each class, named diagonal(r,s) when x = 0 and
    x* = (r,s), else shift(x0x1,u=u,v=v) with (u, v) = -x*."""
    charts = []
    for g in classes_mod_sign():
        chart = eigenspace_chart(g)
        x, (u, v) = g.x, neg2(g.xstar)
        chart.family_tag = ("diagonal({},{})".format(*g.xstar) if x == (0, 0)
                            else f"shift({x[0]}{x[1]},u={u},v={v})")
        charts.append(chart)
    return sorted(charts, key=lambda chart: chart.family_tag)


def eigenspace_chart(g):
    """Adapted eigenvalue-1 chart for the lift g = (t, x, x*).  With
    g . Z_b = w^phase Z_target (`monomial_action`), a fixed vector
    sum w^alpha_b Z_b has alpha_target = alpha_b + phase, so walking each
    cycle of the action from its first coordinate (alpha = 0) gives one
    fixed vector when the cycle's phases sum to 0 mod 3.  The chart is
    then checked against the same action (`fixes_chart`)."""
    action = monomial_action(g)
    images = [None] * 9
    seen = [False] * 9
    k = 0
    for start in range(9):
        cycle, alpha, i = [], 0, start
        while not seen[i]:
            seen[i] = True
            cycle.append((i, alpha))
            i, phase = action[i]
            alpha = (alpha + phase) % 3
        if cycle and alpha == 0:
            for i, j in cycle:
                images[i] = (k, j)
            k += 1
    if k != 3:
        raise EigenspaceDimensionError(repr(g))
    chart = FixedPlaneChart(f"lift(x={g.x},xstar={g.xstar},t={g.t_exp})",
                            tuple(images), lift=g)
    _verify_eigenvectors(chart, action)
    return chart


def fixes_chart(images, action):
    """Does the group element g whose `monomial_action` is `action` fix each
    of the three chart vectors, given the chart's `images`?  With
    g . Z_b = w^phase Z_target, this holds iff for every b: b and its target
    both vanish on the plane, or both go to the same Y_k with
    j_target = j_b + phase (mod 3).  The action matrix and the chart vectors
    are monomial with entries in {0, w^j}, so this is exactly the 9x9
    matrix test g . v == v, run on exponents mod 3."""
    for img, (target, phase) in zip(images, action):
        img_t = images[target]
        if img is None or img_t is None:
            if img is not img_t:
                return False
        elif img[0] != img_t[0] or (img[1] + phase - img_t[1]) % 3:
            return False
    return True


def _verify_eigenvectors(chart, action):
    if not fixes_chart(chart.images, action):
        raise EigenspaceDimensionError(
            f"basis vector of {chart.family_tag} is not fixed by its lift")


def all_lift_charts():
    """120 charts: every nonzero class mod +- with each of its 3 lifts."""
    return [eigenspace_chart(HeisenbergElement(t, g.x, g.xstar))
            for g in classes_mod_sign() for t in range(3)]


def fixed_plane_charts(mode="annexe"):
    if mode == "annexe":
        return annexe_charts()
    if mode == "all_lifts":
        return all_lift_charts()
    raise ValueError(f"unknown mode {mode!r}")


def matching_lifts(charts):
    """Per chart, all (sign, t) with sign in {+1, -1} such that the chart
    span is fixed pointwise by (t, sign*x, sign*x*), (x, x*) the class of
    its lift.  Inverse pairs share their fixed space, so exactly one t per
    sign is expected.  The six lifts' actions are built once per class."""
    lifts, out = {}, []
    for chart in charts:
        eta = x, xstar = chart.lift.x, chart.lift.xstar
        if eta not in lifts:
            lifts[eta] = [
                (s, t, monomial_action(HeisenbergElement(t, y, ystar)))
                for s, y, ystar in ((1, x, xstar), (-1, neg2(x), neg2(xstar)))
                for t in range(3)]
        out.append([(s, t) for s, t, action in lifts[eta]
                    if fixes_chart(chart.images, action)])
    return out


# ----- restriction as a monomial map, coordinates by read-off --------------

# A term's image on a chart packs into one 64-bit slot: the exponents of Y0,
# Y1, Y2 and of w in four FIELD-bit fields, the number of its coordinates
# that vanish on the plane in the VANISH field above them, and its element's
# index in the top INDEX_BITS.  No field carries into the next while a
# term's degree is below 2^(FIELD - 1), as its w-exponent is at most twice
# its degree.
FIELD = 8
PHASE = 3 * FIELD
VANISH = 1 << 4 * FIELD
INDEX = 5 * FIELD
INDEX_BITS = 64 - INDEX
VANISHED = (1 << INDEX) - VANISH
W_MASK = (1 << FIELD) - 1
# A slot's key, its element index and Y-exponents, is all but its w field.
KEY_MASK = ~(W_MASK << PHASE)
# The byte of a slot's w field in native order, and a table reducing it mod 3.
W_BYTE = PHASE // 8 if sys.byteorder == "little" else 7 - PHASE // 8
MOD3 = bytes(b % 3 for b in range(256))
ZERO = (0, 0)


class Target:
    """A basis of forms in Y0, Y1, Y2 by its name and its forms' disjoint
    supports, each monomial (its first three exponents) with coefficient 1."""

    def __init__(self, name, supports):
        self.name = name
        self.keys = [tuple(sum(e << FIELD * k for k, e in enumerate(m[:3]))
                           for m in support) for support in supports]


# The pencil's forms are its terms grouped by power of lam.
S_TARGET = Target("S1..S4", (s.terms for s in S_BASIS))
PENCIL_TARGET = Target("sum Y^3, Y0Y1Y2",
                       ([m for m in PENCIL.terms if m[-1] == k] for k in (0, 1)))


class Packing:
    """The terms of `count` theta polynomials, packed for restriction to any
    chart: `columns[b]` holds each term's exponent of Z_b in the term's
    slot, `index` its element's index in the INDEX field, and `rotations`
    its Z[w] coefficient times 1, w, w^2 as pairs."""

    def __init__(self, count, columns, index, rotations):
        self.count = count
        self.columns = columns
        self.index = index
        self.rotations = rotations
        self.layouts = {}
        self.memo = {}

    def layout(self, target):
        """Where `target`'s coordinates accumulate, built once per target:
        one block of `count` accumulators per target monomial, in the order
        of `target.keys`.  Returns the slot map (a slot's key -> its
        accumulator), the number of accumulators, each form's block at its
        first monomial, and (block, first block) for every other monomial."""
        if target not in self.layouts:
            n = self.count
            slot_map, firsts, checks, q = {}, [], [], 0
            for support in target.keys:
                first = slice(q * n, q * n + n)
                firsts.append(first)
                for key in support:
                    block = slice(q * n, q * n + n)
                    if block != first:
                        checks.append((block, first))
                    slot_map.update((e << INDEX | key, q * n + e)
                                    for e in range(n))
                    q += 1
            self.layouts[target] = slot_map, q * n, firsts, checks
        return self.layouts[target]


def packed_terms(elements):
    """Every term of the theta polynomials `elements`, packed (`Packing`).
    Raises ValueError, before any packing, when there are more elements
    than the INDEX field numbers or a term's degree could overflow a
    field."""
    if len(elements) > 1 << INDEX_BITS:
        raise ValueError(f"{len(elements)} elements overflow the "
                         f"{INDEX_BITS}-bit index field of a restriction")
    for p in elements:
        if p.ring.varnames != THETA_VARS:
            raise ValueError(f"not a theta-coordinate polynomial: {p.ring}")
        for exps in p.terms:
            if 2 * sum(exps) >= 1 << FIELD:
                raise ValueError(f"a term of degree {sum(exps)} overflows the "
                                 f"{FIELD}-bit fields of a restriction")
    terms = [(i, exps, c) for i, p in enumerate(elements)
             for exps, c in p.terms.items()]
    columns = [bytearray(8 * len(terms)) for _ in THETA_VARS]
    rotations = []
    for t, (_, exps, c) in enumerate(terms):
        for b, e in enumerate(exps):
            if e:
                columns[b][8 * t] = e
        pair = zw_pair(c)
        rotations.append(tuple(zw_rotate(pair, j) for j in range(3)))
    index = b"".join((i << INDEX).to_bytes(8, "little") for i, _, _ in terms)
    return Packing(len(elements),
                   [int.from_bytes(col, "little") for col in columns],
                   int.from_bytes(index, "little"), rotations)


def target_rows(chart, packing, target):
    """Per form of `target`, the coordinate as a Z[w] pair of every element
    of `packing` restricted to the chart.  Z_b -> w^j Y_k weighs a 1 in
    Y_k's field plus j in the w field, and VANISH if Z_b is 0, so all of the
    terms' images come from one sum of columns times weights.  Raises
    NotInSpan unless each restriction is exactly the combination of the
    target's forms read at their first monomials.  The rows are read off
    once per target and slot images with w fields mod 3 (`packing.memo`),
    so charts with equal images share row lists, which no caller mutates."""
    weight = [VANISH if img is None else (1 << FIELD * img[0]) + (img[1] << PHASE)
              for img in chart.images]
    images = sum((col * w for col, w in zip(packing.columns, weight)),
                 packing.index)
    raw = bytearray(images.to_bytes(8 * len(packing.rotations), sys.byteorder))
    raw[W_BYTE::8] = raw[W_BYTE::8].translate(MOD3)
    key = target, bytes(raw)
    if key in packing.memo:
        return packing.memo[key]
    slots = memoryview(key[1]).cast("Q")
    if sys.byteorder == "big":  # the native bytes put the last slot first
        slots = slots[::-1]
    slot_map, size, firsts, checks = packing.layout(target)
    re, om = [0] * size, [0] * size
    outside = {}
    accumulator = slot_map.get
    for v, rotations in zip(slots, packing.rotations):
        i = accumulator(v & KEY_MASK)
        if i is not None:
            a, b = rotations[v >> PHASE & W_MASK]
            re[i] += a
            om[i] += b
        elif not v & VANISHED:
            a, b = rotations[v >> PHASE & W_MASK]
            old = outside.get(v & KEY_MASK, ZERO)
            outside[v & KEY_MASK] = (old[0] + a, old[1] + b)
    if any(c != ZERO for c in outside.values()) or any(
            re[block] != re[first] or om[block] != om[first]
            for block, first in checks):
        raise NotInSpan(_span_failure(re, om, outside, checks, target.name))
    pairs = {ZERO: ZERO}
    rows = []
    for first in firsts:
        row = list(zip(re[first], om[first]))
        rows.append(list(map(pairs.setdefault, row, row)))
    packing.memo[key] = rows
    return rows


def _span_failure(re, om, outside, checks, name):
    """Why the first element whose restriction is off the target fails: a
    live monomial outside every support, else unequal values on one."""
    failed = {key >> INDEX: "has a monomial outside"
              for key, c in outside.items() if c != ZERO}
    for block, first in checks:
        for i, (x, y) in enumerate(zip(zip(re[block], om[block]),
                                       zip(re[first], om[first]))):
            if x != y:
                failed.setdefault(i, "is not a combination of")
    return f"restriction {failed[min(failed)]} {name}"


def chart_coordinates(chart, packing, target):
    """The `target` coordinates, as Z[w] pairs, of each element of `packing`
    restricted to the chart (see `target_rows`)."""
    return [list(c) for c in zip(*target_rows(chart, packing, target))]


def _nu_matrix(charts, packing, progress=None):
    """The restriction matrix as rows of Z[w] pairs: per chart, four rows
    holding the S1..S4 coordinates of every element of `packing`, and to
    `progress` whether the chart was read off or reused (`target_rows`)."""
    rows, start = [], len(packing.memo)
    for ci, chart in enumerate(charts):
        known = len(packing.memo)
        rows.extend(target_rows(chart, packing, S_TARGET))
        if progress:
            how = "read off" if len(packing.memo) > known else "reused"
            progress(f"chart {ci + 1}/{len(charts)} ({chart.family_tag}): "
                     + how)
    if progress:
        progress(f"charts read off {len(packing.memo) - start}/{len(charts)}, "
                 f"distinct rows {len(set(map(tuple, rows)))}")
    return rows


def _certified_kernel(charts, labels, elements, progress=None):
    """Certified rank, kernel, kernel as {label: coefficient} dicts and rank
    certificate of the nu matrix of the columns `elements` (named `labels`)
    on `charts`.  The kernel candidates are T_j - T_i for each 2-cycle
    i < j of iota on the columns (`iota_permutation`), each anti-invariant
    under iota; the printed pairs are not read."""
    perm = iota_permutation(elements)
    pairs = [(labels[j], labels[i]) for i, j in enumerate(perm) if i < j]
    rank, kernel, certificate = certified_rank_and_kernel(
        _nu_matrix(charts, packed_terms(elements), progress),
        candidate_vectors(labels, pairs))
    kernel_labels = [{labels[j]: Eisenstein(*c) for j, c in enumerate(v)
                      if c != ZERO} for v in kernel]
    return rank, kernel, kernel_labels, certificate


# ----- full resolution ----------------------------------------------------

def candidate_vectors(labels, pairs):
    """Vectors T_a - T_b of Z[w] pairs over the columns `labels`, for the
    (a_label, b_label) pairs whose labels are both present."""
    out = []
    for plus, minus in pairs:
        if plus in labels and minus in labels:
            v = [ZERO] * len(labels)
            v[labels.index(plus)] = (1, 0)
            v[labels.index(minus)] = (-1, 0)
            out.append(v)
    return out


ANNEXE_KERNEL_PAIRS = [("T11", "T10"), ("T14", "T13"), ("T17", "T16")]
TEXT_KERNEL_PAIRS = [("T8", "T7")] + ANNEXE_KERNEL_PAIRS


def kernel_verdict(labels, kernel):
    """Which printed kernel `kernel` is, by list equality; this is the one
    place the printed pairs are read.  Each kernel `_certified_kernel`
    returns (a sub-list of the iota pairs T_j - T_i, i < j, in the order of
    i, or empty for an unproven rank) is echelon-normalized, and so is each
    printed list: its pairs are disjoint, +1 at the larger label."""
    if kernel == candidate_vectors(labels, TEXT_KERNEL_PAIRS):
        return "text: rank 39, kernel {T8-T7, T11-T10, T14-T13, T17-T16}"
    if kernel == candidate_vectors(labels, ANNEXE_KERNEL_PAIRS):
        return "annexe: rank 40, kernel {T11-T10, T14-T13, T17-T16}"
    return "neither printed kernel"


def nu_rank_and_kernel(mode="annexe", progress=None):
    """Certified rank and kernel of the assembled nu matrix plus a report
    that resolves the rank-39 (4-element kernel) versus rank-40 (3-element
    kernel) discrepancy, says whether it claims an iota-anti-invariant
    kernel (an unproven rank claims none, so that check fails) and how the
    rank was proven (`rank_certificate`)."""
    labels, elements = pinned_basis(theta_ring(), 6)
    charts = fixed_plane_charts(mode)
    rank, kernel, kernel_labels, certificate = _certified_kernel(
        charts, labels, elements, progress)
    report = {
        "mode": mode,
        "rows": 4 * len(charts),
        "rank": rank,
        "kernel_dimension": len(kernel),
        "kernel": kernel_labels,
        "rank_nullity_ok": rank + len(kernel) == len(labels),
        # Every candidate T_j - T_i has iota(T_i) = T_j exactly.
        "kernel_iota_anti_invariant": bool(kernel),
        "verdict": kernel_verdict(labels, kernel),
        "rank_certificate": certificate,
    }
    return rank, kernel, report
