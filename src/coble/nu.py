"""Fixed-point planes of Heisenberg lifts, restriction of the 43 invariant
sextics to them, and the assembled restriction map nu with a certified rank
and kernel.

Chart conventions
-----------------
One constructor, `eigenspace_chart(g)`, builds every chart: an adapted
basis of the fixed plane of a lift g = (t, x, x*) of a nonzero class
eta = (x, x*) of A[3] mod +-, one vector per cycle of g's `monomial_action`
whose phases close up.  `fixed_plane_charts(mode)` lists them.  Mode
"all_lifts" charts all three lifts of all 40 classes (120 charts).  Mode
"annexe" charts the t = 0 lift of each class (40 charts) under the
Annexe's names, in their order:
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
monomial supports that is fixed when the list is packed
(`packed_terms(elements, target)`): a slot map, laid out once per packing,
sends each (element, target monomial) to an accumulator, each coordinate
is read at its form's first monomial, and list-slice comparisons check
every restriction against its combination.
The sextics are read in S1 = sum Y_i^6, S2 = sum Y_i^3 Y_j^3,
S3 = Y0 Y1 Y2 * sum Y_i^3, S4 = Y0^2 Y1^2 Y2^2 (`S_TARGET`), the Coble
cubic's F0..F4 in the Hesse pencil's sum Y^3, Y0Y1Y2 (`PENCIL_TARGET`).
Each distinct image mod 3 is read off once per packing (`Packing.memo`),
and when every coefficient is real, an image whose w fields are a known
image's negated mod 3 (the conjugate chart, Z_b -> w^-j Y_k) takes the
conjugate rows: the sextics have integer coefficients, so nu on the
conjugate chart is the entrywise conjugate of nu.

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
from operator import itemgetter

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

    def __init__(self, family_tag, images, lift):
        self.family_tag = family_tag
        self.images = images
        self.lift = lift

    def __repr__(self):
        return f"FixedPlaneChart({self.family_tag})"


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


def fixed_plane_charts(mode):
    """The charts of `mode`.  "all_lifts": 120 charts, every nonzero class
    mod +- with each of its 3 lifts.  "annexe": the 40 charts of the
    Annexe, in the order of their names: the chart of the t = 0 lift of
    each class, named diagonal(r,s) when x = 0 and x* = (r,s), else
    shift(x0x1,u=u,v=v) with (u, v) = -x*."""
    if mode == "all_lifts":
        return [eigenspace_chart(HeisenbergElement(t, g.x, g.xstar))
                for g in classes_mod_sign() for t in range(3)]
    if mode != "annexe":
        raise ValueError(f"unknown mode {mode!r}")
    charts = []
    for g in classes_mod_sign():
        chart = eigenspace_chart(g)
        x, (u, v) = g.x, neg2(g.xstar)
        chart.family_tag = ("diagonal({},{})".format(*g.xstar) if x == (0, 0)
                            else f"shift({x[0]}{x[1]},u={u},v={v})")
        charts.append(chart)
    return sorted(charts, key=lambda chart: chart.family_tag)


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
# The byte of a slot's w field in native order, and tables reducing it and
# its negative mod 3.  A slot's key, its element index and Y-exponents, is
# the slot with that byte cleared.
W_BYTE = PHASE // 8 if sys.byteorder == "little" else 7 - PHASE // 8
MOD3 = bytes(b % 3 for b in range(256))
NEG3 = bytes(-b % 3 for b in range(256))
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
    chart and read in `target`: `columns[b]` holds each term's exponent of
    Z_b in the term's slot, `index` its element's index in the INDEX field,
    and `rotations` its Z[w] coefficient times 1, w, w^2 as pairs; `real`
    says that no coefficient has a w part.  The `size` accumulators lie in
    one block of `count` per target monomial: `slot_map` sends a slot's key
    to its accumulator, `firsts` holds each form's block at its first
    monomial and `checks` (block, first block) for every other monomial.
    `memo` keeps the rows per reduced slot bytes, and `read_offs` counts
    the charts whose terms were summed (`target_rows`)."""

    def __init__(self, count, columns, index, rotations, real, target):
        self.count = count
        self.columns = columns
        self.index = index
        self.rotations = rotations
        self.real = real
        self.target = target
        self.memo = {}
        self.read_offs = 0
        self.slot_map, self.firsts, self.checks, q = {}, [], [], 0
        for support in target.keys:
            first = slice(q * count, q * count + count)
            self.firsts.append(first)
            for key in support:
                block = slice(q * count, q * count + count)
                if block != first:
                    self.checks.append((block, first))
                self.slot_map.update((e << INDEX | key, q * count + e)
                                     for e in range(count))
                q += 1
        self.size = q * count


def packed_terms(elements, target):
    """Every term of the theta polynomials `elements`, packed to be read in
    `target` (`Packing`).  Each column and each byte of the index field is
    laid out by one slice assignment, and the terms with equal coefficients
    share one rotation tuple.
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
    exps = [e for p in elements for e in p.terms]
    pairs = [zw_pair(c) for p in elements for c in p.terms.values()]
    columns = []
    for b in range(len(THETA_VARS)):
        col = bytearray(8 * len(exps))
        col[0::8] = bytes(map(itemgetter(b), exps))
        columns.append(int.from_bytes(col, "little"))
    index = bytearray(8 * len(exps))
    for byte in range(INDEX // 8, 8):
        shift = 8 * byte - INDEX
        index[byte::8] = b"".join(bytes((i >> shift & 255,)) * len(p.terms)
                                  for i, p in enumerate(elements))
    rotation = {pair: tuple(zw_rotate(pair, j) for j in range(3))
                for pair in set(pairs)}
    return Packing(len(elements), columns, int.from_bytes(index, "little"),
                   list(map(rotation.__getitem__, pairs)),
                   not any(om for _, om in rotation), target)


def target_rows(chart, packing):
    """Per form of `packing.target`, the coordinate as a Z[w] pair of every
    element of `packing` restricted to the chart.  Z_b -> w^j Y_k weighs a 1 in
    Y_k's field plus j in the w field, and VANISH if Z_b is 0, so all of the
    terms' images come from one sum of columns times weights.  Raises
    NotInSpan unless each restriction is exactly the combination of the
    target's forms read at their first monomials.  The rows are read off
    once per packing and slot images with w fields mod 3 (`packing.memo`),
    so charts with equal images share row lists, which no caller mutates;
    every zero coordinate in them is the one ZERO pair.  A read-off takes
    each slot's key with its w byte cleared, beside that byte.  When no
    coefficient has a w part, an image whose w fields are those of a known
    one negated mod 3 (the conjugate chart's) takes that image's rows
    conjugated entrywise, (a, b) -> (a - b, -b), with no term summed: the
    target's forms have coefficient 1, so restriction and its span check
    commute with conjugation."""
    weight = [VANISH if img is None else (1 << FIELD * img[0]) + (img[1] << PHASE)
              for img in chart.images]
    images = sum((col * w for col, w in zip(packing.columns, weight)),
                 packing.index)
    raw = bytearray(images.to_bytes(8 * len(packing.rotations), sys.byteorder))
    phases = raw[W_BYTE::8]
    reduced = phases.translate(MOD3)
    raw[W_BYTE::8] = reduced
    key = bytes(raw)
    memo = packing.memo
    if key in memo:
        return memo[key]
    if packing.real:
        raw[W_BYTE::8] = phases.translate(NEG3)
        mirror = memo.get(bytes(raw))
        if mirror is not None:
            rows = memo[key] = [[c if not c[1] else (c[0] - c[1], -c[1])
                                 for c in row] for row in mirror]
            return rows
    packing.read_offs += 1
    raw[W_BYTE::8] = bytes(len(reduced))
    slots = memoryview(raw).cast("Q")
    if sys.byteorder == "big":  # the native bytes put the last slot first
        slots, reduced = slots[::-1], reduced[::-1]
    checks = packing.checks
    re, om = [0] * packing.size, [0] * packing.size
    outside = {}
    accumulator = packing.slot_map.get
    for k, j, rotations in zip(slots, reduced, packing.rotations):
        i = accumulator(k)
        if i is not None:
            a, b = rotations[j]
            re[i] += a
            om[i] += b
        elif not k & VANISHED:
            a, b = rotations[j]
            old = outside.get(k, ZERO)
            outside[k] = (old[0] + a, old[1] + b)
    if any(c != ZERO for c in outside.values()) or any(
            re[block] != re[first] or om[block] != om[first]
            for block, first in checks):
        raise NotInSpan(_span_failure(re, om, outside, checks,
                                      packing.target.name))
    rows = [[ZERO if c == ZERO else c for c in zip(re[first], om[first])]
            for first in packing.firsts]
    memo[key] = rows
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


def _nu_matrix(charts, packing, progress):
    """The restriction matrix as rows of Z[w] pairs: per chart, four rows
    holding the S1..S4 coordinates of every element of `packing`, and to
    `progress` whether the chart was read off, reused or conjugated
    (`target_rows`)."""
    rows, told = [], {"read off": 0, "conjugated": 0, "reused": 0}
    for ci, chart in enumerate(charts):
        known, summed = len(packing.memo), packing.read_offs
        rows.extend(target_rows(chart, packing))
        how = ("reused" if len(packing.memo) == known else "read off"
               if packing.read_offs > summed else "conjugated")
        told[how] += 1
        if progress:
            progress(f"chart {ci + 1}/{len(charts)} ({chart.family_tag}): "
                     + how)
    if progress:
        progress(f"charts read off {told['read off']}/{len(charts)}, "
                 f"conjugated {told['conjugated']}, "
                 f"distinct rows {len(set(map(tuple, rows)))}")
    return rows


def _certified_kernel(charts, labels, elements, progress):
    """Certified rank, kernel, kernel as {label: coefficient} dicts and rank
    certificate of the nu matrix of the columns `elements` (named `labels`)
    on `charts`.  The kernel candidates are T_j - T_i for each 2-cycle
    i < j of iota on the columns (`iota_permutation`), each anti-invariant
    under iota; the printed pairs are not read."""
    perm = iota_permutation(elements)
    pairs = [(labels[j], labels[i]) for i, j in enumerate(perm) if i < j]
    rank, kernel, certificate = certified_rank_and_kernel(
        _nu_matrix(charts, packed_terms(elements, S_TARGET), progress),
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


def nu_rank_and_kernel(progress, mode="annexe"):
    """Certified rank and kernel of the assembled nu matrix plus a report
    that resolves the rank-39 (4-element kernel) versus rank-40 (3-element
    kernel) discrepancy, says whether it claims an iota-anti-invariant
    kernel (an unproven rank claims none, so that check fails) and how the
    rank was proven (`rank_certificate`).  `progress`, None or a callable,
    is told how each chart was read (`_nu_matrix`)."""
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
