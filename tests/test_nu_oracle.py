"""Differential tests of the production restriction route (monomial maps,
read-off coordinates, certified rank) against the generic Q(w) route in
`nu_oracle`, for nu's sextics and for the Coble cubic's F0..F4, and tests
that the rank certificate claims only its lower bound, with no kernel,
whenever its bounds do not meet."""

import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nu_oracle
from coble import nu
from coble.coble_forms import cubic_basis
from coble.fields import Eisenstein
from coble.heisenberg import HeisenbergElement, theta_ring
from coble.invariants import pinned_basis
from coble.linalg import RANK_OMEGA, RANK_PRIME, certified_rank_and_kernel
from coble.poly import NotInSpan
from linalg_oracle import QwFraction

METHODS = ("sbasis", "hack")

_labels, _elements = pinned_basis(theta_ring(), 6)
_charts = (nu.fixed_plane_charts("annexe")
           + nu.fixed_plane_charts("all_lifts"))


@pytest.fixture(scope="module")
def oracle():
    """The oracle's annexe nu matrix in both conventions, built once."""
    restricted = nu_oracle.annexe_restrictions()
    return {method: nu_oracle.nu_matrix(restricted, method)
            for method in METHODS}


@pytest.fixture(scope="module")
def annexe_rows():
    """The production annexe nu matrix, rows of Z[w] pairs."""
    return nu._nu_matrix(nu.fixed_plane_charts("annexe"),
                         nu.packed_terms(_elements, nu.S_TARGET), None)


@pytest.mark.parametrize("method", METHODS)
def test_annexe_matrix_equals_oracle(oracle, annexe_rows, method):
    fast = nu_oracle.qw_matrix(annexe_rows)
    if method == "hack":
        fast = nu_oracle.source_matrix(fast)
    assert (fast.rows, fast.cols) == (160, 43)
    assert fast.entries == oracle[method].entries


def test_oracle_elimination_agrees_with_certificate(oracle):
    rank, kernel, report = nu.nu_rank_and_kernel(None)
    assert (rank, kernel) == _elimination(oracle["sbasis"])
    assert report["rank_certificate"]["route"] == "modular+kernel"


# Coefficients a + b*w, so that restriction rotates pairs with a w-part.
_combination = st.dictionaries(
    st.integers(0, 42),
    st.builds(Eisenstein, st.integers(-9, 9), st.integers(-9, 9)),
    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_combination, st.sampled_from(_charts))
def test_coordinates_match_oracle_on_random_combinations(coeffs, chart):
    p = theta_ring().zero()
    for i, c in coeffs.items():
        p = p + c * _elements[i]
    res = nu_oracle.restrict(chart, p)
    for method in METHODS:
        assert nu_oracle.production_coordinates(p, chart, method) == \
            nu_oracle.coordinates(res, method), (method, chart.family_tag)


def test_non_invariant_sextic_is_not_in_span():
    ring = theta_ring()
    z00, z01 = ring.var("Z00"), ring.var("Z01")
    # Z00^5 Z01 leaves the supports of S1..S4 on some charts; Z00^6 lands on
    # one monomial of the S1 support, so the support carries unequal values.
    for p, message in ((z00 ** 5 * z01, None),
                       (z00 ** 6, "not a combination of S1..S4")):
        raised = 0
        for chart in _charts:
            res = nu_oracle.restrict(chart, p)
            if res.is_zero():
                for method in METHODS:
                    assert nu_oracle.production_coordinates(p, chart, method) \
                        == [0] * 4
                continue
            raised += 1
            with pytest.raises(NotInSpan):
                nu_oracle.coordinates(res, "sbasis")
            for method in METHODS:
                with pytest.raises(NotInSpan, match=message):
                    nu_oracle.production_coordinates(p, chart, method)
        assert raised > 0, p


@pytest.mark.parametrize("target, basis", [
    (nu.S_TARGET, nu_oracle.S_BASIS),
    (nu.PENCIL_TARGET, nu_oracle.PENCIL_BASIS)], ids=["S1..S4", "pencil"])
def test_target_supports_are_the_basis_forms(target, basis):
    # Each target is its forms' supports, disjoint, with coefficient 1.
    mask = (1 << nu.FIELD) - 1
    keys = [key for support in target.keys for key in support]
    assert len(set(keys)) == len(keys)
    assert [nu_oracle.Y_RING.from_terms(
        {tuple(key >> nu.FIELD * k & mask for k in range(3)): 1
         for key in support}) for support in target.keys] == basis


_cubics = cubic_basis(theta_ring())
_ETA_CHART = nu.eigenspace_chart(HeisenbergElement(0, (0, 0), (1, 0)))


def _pencil_coordinates(p, chart):
    return [row[0] for row in nu.target_rows(
        chart, nu.packed_terms([p], nu.PENCIL_TARGET))]


def test_cubic_read_off_equals_substitution_on_every_chart():
    # F0..F4 restrict into the Hesse pencil on each of the 160 charts.
    assert len(_charts) == 160
    packed = nu.packed_terms(_cubics, nu.PENCIL_TARGET)
    for chart in _charts:
        coords = nu_oracle.by_element(nu.target_rows(chart, packed))
        for f, c in zip(_cubics, coords):
            assert nu_oracle.in_basis(c, nu_oracle.PENCIL_BASIS) == \
                nu_oracle.restrict(chart, f), chart.family_tag


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(Eisenstein, st.integers(-9, 9), st.integers(-9, 9)),
                min_size=5, max_size=5),
       st.sampled_from(_charts))
def test_cubic_read_off_matches_oracle_on_random_combinations(coeffs, chart):
    p = theta_ring().zero()
    for c, f in zip(coeffs, _cubics):
        p = p + c * f
    assert nu_oracle.in_basis(_pencil_coordinates(p, chart),
                              nu_oracle.PENCIL_BASIS) == \
        nu_oracle.restrict(chart, p), chart.family_tag


def test_cubic_outside_the_pencil_is_not_in_span():
    # On the chart Z00, Z01, Z02 -> Y0, Y1, Y2: Z00^2 Z01 leaves the two
    # supports, Z00^3 lands on one monomial of the sum Y^3 support.
    ring = theta_ring()
    z00, z01 = ring.var("Z00"), ring.var("Z01")
    for p, message in (
            (z00 ** 2 * z01, "has a monomial outside sum Y^3, Y0Y1Y2"),
            (z00 ** 3, "is not a combination of sum Y^3, Y0Y1Y2")):
        with pytest.raises(NotInSpan, match=re.escape(message)):
            _pencil_coordinates(p, _ETA_CHART)


def test_over_degree_term_is_refused_before_packing():
    # The w-exponent of a term's image is at most twice its degree and must
    # fit its field: degree 127 packs, degree 128 does not.
    ring = theta_ring()
    z00, z01 = ring.var("Z00"), ring.var("Z01")
    fits = z00 ** 126 * z01
    assert 2 * 127 < 1 << nu.FIELD <= 2 * 128
    with pytest.raises(NotInSpan, match="outside S1..S4"):
        nu.target_rows(_charts[4], nu.packed_terms([fits], nu.S_TARGET))
    with pytest.raises(ValueError, match="degree 128 overflows"):
        nu.packed_terms([_elements[0], fits * z01], nu.S_TARGET)


_T = dict(zip(_labels, _elements))
_W = Eisenstein(0, 1)
# Elements of the span of T1..T43 over Q(w), packed together: Q(w) parts
# that are Fractions (the tests' `QwFraction`), parts above 2^64,
# T6 + w T7 + w^2 T8 (T6, T7, T8 share coordinates on many charts, which
# cancel as 1 + w + w^2 = 0), a repeated element and the zero element.
_SEVERAL = [
    QwFraction(Fraction(1, 3), Fraction(-2, 7)) * _T["T5"]
    + QwFraction(Fraction(5, 2)) * _T["T20"],
    Eisenstein(10 ** 30, -10 ** 30) * _T["T1"]
    + Eisenstein(-10 ** 30, 7) * _T["T8"] + _T["T43"],
    _T["T6"] + _W * _T["T7"] + _W * _W * _T["T8"],
    theta_ring().zero(),
    _T["T43"],
]
_SEVERAL.append(_SEVERAL[0])


def test_one_pass_restriction_of_several_elements_matches_oracle():
    packing = nu.packed_terms(_SEVERAL, nu.S_TARGET)
    alone = [nu.packed_terms([p], nu.S_TARGET) for p in _SEVERAL]
    t6 = nu.packed_terms([_T["T6"]], nu.S_TARGET)
    cancelled = huge = fractional = 0
    for chart in _charts:
        coords = nu_oracle.by_element(nu.target_rows(chart, packing))
        assert len(coords) == len(_SEVERAL)
        for p, c, single in zip(_SEVERAL, coords, alone):
            assert c == [row[0] for row in nu.target_rows(chart, single)]
            assert [QwFraction(*x) for x in c] == nu_oracle.coordinates(
                nu_oracle.restrict(chart, p), "sbasis"), chart.family_tag
        fractional += any(type(part) is Fraction
                          for x in coords[0] for part in x)
        big = [part for x in coords[1] for part in x]
        assert all(type(part) is int for part in big)
        huge += any(abs(part) >= 1 << 64 for part in big)
        cancelled += sum(x == nu.ZERO and y != nu.ZERO for x, y in zip(
            coords[2], [row[0] for row in nu.target_rows(chart, t6)]))
        assert coords[3] == [nu.ZERO] * 4
    assert fractional > 0 and huge > 0 and cancelled > 0


def test_first_failing_element_names_the_failure():
    # Z00^6 lands on one monomial of the S1 support on every chart that
    # keeps Z00; Z00^5 Z01 leaves the supports where Z00 and Z01 go to
    # different Y_k.  A packing fails as its first failing element does.
    ring = theta_ring()
    z00, z01 = ring.var("Z00"), ring.var("Z01")
    combination, outside = z00 ** 6, z00 ** 5 * z01
    chart = _ETA_CHART
    for first, second, message in (
            (combination, outside, "is not a combination of S1..S4"),
            (outside, combination, "has a monomial outside S1..S4")):
        with pytest.raises(NotInSpan, match=message):
            nu.target_rows(chart, nu.packed_terms([_T["T1"], first],
                                                  nu.S_TARGET))
        with pytest.raises(NotInSpan, match=message):
            nu.target_rows(chart, nu.packed_terms([_T["T1"], first, second],
                                                  nu.S_TARGET))


def test_element_count_beyond_the_index_field_is_refused(monkeypatch):
    # Each slot numbers its element in the top INDEX_BITS bits of 64.
    assert nu.INDEX + nu.INDEX_BITS == 64
    monkeypatch.setattr(nu, "INDEX_BITS", 2)
    assert nu.packed_terms([_elements[0]] * 4, nu.S_TARGET).count == 4
    with pytest.raises(ValueError, match="5 elements overflow the 2-bit "
                       "index field"):
        nu.packed_terms([_elements[0]] * 5, nu.S_TARGET)


# sha256 of repr(rows) of the nu matrix on each mode, unchanged since the
# rows became Z[w] int pairs read off the packed restriction.
NU_ROWS_SHA256 = {
    "annexe": "df63e7c7212d5f1aa7b336cfcec4062d15005f58ffd5088ed7fa037405503f77",
    "all_lifts":
        "466d7329d9c837977536c56332afc7fc788fb31e71c3c9d26afe140f783c6c2e",
}


@pytest.mark.parametrize("mode", sorted(NU_ROWS_SHA256))
def test_nu_rows_are_int_pairs_and_pinned(mode):
    rows = nu._nu_matrix(nu.fixed_plane_charts(mode),
                         nu.packed_terms(_elements, nu.S_TARGET), None)
    assert len(rows) == 4 * len(nu.fixed_plane_charts(mode))
    assert all(type(part) is int for row in rows for x in row for part in x)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        NU_ROWS_SHA256[mode]


# Charts whose terms are summed per mode; the other distinct images are
# conjugates of images read off before them.
READ_OFFS = {"annexe": 24, "all_lifts": 32}


@pytest.mark.parametrize("mode, distinct", [("annexe", 40), ("all_lifts", 48)])
def test_charts_with_equal_images_mod_3_reuse_their_rows(mode, distinct):
    # Per class, the three lift charts send every sextic term to the same
    # Y-monomial with the same phase mod 3, so all_lifts meets only the
    # images of the t = 0 charts; each annexe chart has its own.  Of those,
    # 16 are the conjugates (w fields negated mod 3) of images met before.
    charts = nu.fixed_plane_charts(mode)
    packing = nu.packed_terms(_elements, nu.S_TARGET)
    said = []
    rows = nu._nu_matrix(charts, packing, said.append)
    assert rows == [row for chart in charts for row in nu.target_rows(
        chart, nu.packed_terms(_elements, nu.S_TARGET))]
    read_off = READ_OFFS[mode]
    assert packing.real and len(packing.memo) == distinct
    assert packing.read_offs == read_off
    assert sum(line.endswith(": read off") for line in said) == read_off
    assert sum(line.endswith(": conjugated") for line in said) == \
        distinct - read_off == 16
    assert sum(line.endswith(": reused") for line in said) == \
        len(charts) - distinct
    assert said[-1] == (f"charts read off {read_off}/{len(charts)}, "
                        f"conjugated 16, distinct rows 133")


def _read(charts):
    """nu's rows on `charts` through one fresh packing, and per chart how
    `_nu_matrix` read it."""
    said = []
    rows = nu._nu_matrix(charts, nu.packed_terms(_elements, nu.S_TARGET),
                         said.append)
    return rows, [line.rsplit(": ", 1)[1] for line in said[:-1]]


@pytest.mark.parametrize("mode", sorted(READ_OFFS))
def test_conjugate_rows_hold_in_both_read_directions(mode):
    # Read backwards, the other chart of each conjugate pair is read off
    # and the first one conjugated; the rows still equal those of a fresh
    # packing per chart, which conjugates nothing.
    charts = nu.fixed_plane_charts(mode)
    backwards = charts[::-1]
    rows, reverse = _read(backwards)
    assert rows == [row for chart in backwards for row in nu.target_rows(
        chart, nu.packed_terms(_elements, nu.S_TARGET))]
    assert any(c[1] for row in rows for c in row)
    _, forward = _read(charts)
    for hows in (forward, reverse):
        assert hows.count("read off") == READ_OFFS[mode]
        assert hows.count("conjugated") == 16
    flipped = dict(zip(map(id, backwards), reverse))
    assert all(flipped[id(chart)] != "conjugated"
               for chart, how in zip(charts, forward) if how == "conjugated")


@pytest.mark.parametrize("elements", [_SEVERAL, [_W * _T["T7"]]],
                         ids=["several", "w_T7"])
def test_a_packing_with_a_w_part_conjugates_nothing(elements):
    # Conjugation takes w c to w^2 conj(c), not to w conj(c), so a packing
    # with a coefficient off Q reads off every distinct image.
    charts = nu.fixed_plane_charts("annexe")
    packing = nu.packed_terms(elements, nu.S_TARGET)
    assert not packing.real
    for chart in charts:
        coords = nu_oracle.by_element(nu.target_rows(chart, packing))
        for p, c in zip(elements, coords):
            assert [QwFraction(*x) for x in c] == nu_oracle.coordinates(
                nu_oracle.restrict(chart, p), "sbasis"), chart.family_tag
    assert packing.read_offs == len(packing.memo) > 1


def test_index_field_numbers_elements_past_one_byte():
    # 300 distinct multiples of the basis elements need two bytes of the
    # index field; each gets the rows of its own one-element packing.
    elements = [(i + 1) * _elements[i % len(_elements)] for i in range(300)]
    packing = nu.packed_terms(elements, nu.S_TARGET)
    for chart in _charts[::20]:
        coords = nu_oracle.by_element(nu.target_rows(chart, packing))
        assert len(coords) == len(elements)
        for p, c in zip(elements, coords):
            assert c == [row[0] for row in nu.target_rows(
                chart, nu.packed_terms([p], nu.S_TARGET))]


def test_charts_apart_in_one_phase_mod_3_are_read_off_apart():
    # Z00 Z01 Z02 -> w^(j0 + j1 + j2) Y0 Y1 Y2: phases (1, 0, 0) move its
    # coordinate by w, phases (1, 1, 1) give back those of (0, 0, 0).
    z = theta_ring().var
    packing = nu.packed_terms([z("Z00") * z("Z01") * z("Z02")],
                              nu.PENCIL_TARGET)

    def rows(*phases):
        chart = nu.FixedPlaneChart("hand-built", tuple(enumerate(phases))
                                   + (None,) * 6, None)
        return nu.target_rows(chart, packing)

    base, moved = rows(0, 0, 0), rows(1, 0, 0)
    assert base == [[nu.ZERO], [(1, 0)]] and moved == [[nu.ZERO], [(0, 1)]]
    assert rows(1, 1, 1) is base and len(packing.memo) == 2


@pytest.mark.parametrize("case, route", [("annexe", "modular+kernel"),
                                         ("dependent", "unproven")])
def test_repeated_rows_leave_the_certificate_unchanged(annexe_rows, case,
                                                      route):
    rows = annexe_rows if case == "annexe" \
        else PERTURBATIONS[case](annexe_rows)
    distinct = [list(row) for row in dict.fromkeys(map(tuple, rows))]
    assert len(distinct) < len(rows)
    once = certified_rank_and_kernel(distinct, _text_candidates())
    assert once[2]["route"] == route
    # Both ranks mod p are the true rank, 39; only a proven one has a kernel.
    rank, kernel = _elimination(nu_oracle.qw_matrix(distinct))
    assert once[:2] == (rank, kernel if route == "modular+kernel" else [])
    for repeated in (rows, distinct + distinct):
        assert certified_rank_and_kernel(repeated, _text_candidates()) == once


def _with_column(rows, label, column):
    j = _labels.index(label)
    return [row[:j] + [x] + row[j + 1:] for row, x in zip(rows, column)]


def _text_candidates():
    return nu.candidate_vectors(_labels, nu.TEXT_KERNEL_PAIRS)


def _elimination(matrix):
    """Exact elimination's rank and kernel of an ExactMatrix, the kernel as
    pair vectors, the form of the certificate's."""
    rank, kernel = matrix.rank_and_kernel()
    return rank, nu_oracle.pair_vectors(kernel)


def _unproven(result, rows, rank_mod_p, verified):
    """Check that a `certified_rank_and_kernel` result on `rows` claims only
    the lower bound `rank_mod_p`, with no kernel, and that exact
    elimination's rank is no smaller; returns elimination's (rank, kernel)."""
    rank, kernel, cert = result
    assert cert == {"prime": RANK_PRIME, "rank_mod_p": rank_mod_p,
                    "kernel_vectors_verified": verified, "route": "unproven"}
    reference = _elimination(nu_oracle.qw_matrix(rows))
    assert kernel == [] and rank == rank_mod_p <= reference[0]
    return reference


def _t7_plus_t10(rows, label):
    # The column `label` := T7 + T10.
    j7, j10 = _labels.index("T7"), _labels.index("T10")
    return _with_column(rows, label, [
        (row[j7][0] + row[j10][0], row[j7][1] + row[j10][1]) for row in rows])


def _independent(rows):
    # One entry of T8 moved by w: rank 40, the annexe kernel.
    j8 = _labels.index("T8")
    column = [row[j8] for row in rows]
    column[5] = (column[5][0], column[5][1] + 1)
    return _with_column(rows, "T8", column)


PERTURBATIONS = {"dependent": lambda m: _t7_plus_t10(m, "T8"),
                 "independent": _independent,
                 "t11_moved": lambda m: _t7_plus_t10(m, "T11")}


def test_dependent_perturbation_is_unproven(annexe_rows):
    # T8 := T7 + T10 keeps the rank at 39 but moves the kernel off T8-T7:
    # only the three annexe vectors verify, and 39 + 3 < 43.
    perturbed = PERTURBATIONS["dependent"](annexe_rows)
    rank, _ = _unproven(certified_rank_and_kernel(perturbed,
                                                  _text_candidates()),
                        perturbed, 39, 3)
    assert rank == 39


def test_independent_perturbation_is_certified_by_the_annexe_kernel(
        annexe_rows):
    # Rank 40, proven by the annexe vectors, and the certified kernel is the
    # one exact elimination gives.
    perturbed = PERTURBATIONS["independent"](annexe_rows)
    rank, kernel, cert = certified_rank_and_kernel(perturbed,
                                                   _text_candidates())
    assert cert["route"] == "modular+kernel"
    assert cert["kernel_vectors_verified"] == 3
    assert (rank, kernel) == \
        _elimination(nu_oracle.qw_matrix(perturbed)) and rank == 40


def test_each_printed_vector_is_kept_on_its_own(annexe_rows):
    # With T11 := T10 + T7 no printed kernel verifies as a whole, but the
    # three other pairs do; the rank stays 39, so 39 + 3 < 43 proves nothing.
    perturbed = PERTURBATIONS["t11_moved"](annexe_rows)
    rank, _ = _unproven(certified_rank_and_kernel(perturbed,
                                                  _text_candidates()),
                        perturbed, 39, 3)
    assert rank == 39


@pytest.mark.parametrize("case", ["annexe", "all_lifts", "dependent",
                                  "independent", "t11_moved", "elimination"])
def test_verdict_by_list_equality_agrees_with_span_comparison(annexe_rows,
                                                              case):
    if case in ("annexe", "all_lifts"):
        _, kernel, report = nu.nu_rank_and_kernel(None, mode=case)
        assert report["verdict"] == nu.kernel_verdict(_labels, kernel)
    elif case == "elimination":
        kernel = _elimination(nu_oracle.qw_matrix(annexe_rows))[1]
    else:
        kernel = certified_rank_and_kernel(
            PERTURBATIONS[case](annexe_rows), _text_candidates())[1]
    assert nu.kernel_verdict(_labels, kernel) == \
        nu_oracle.span_verdict(_labels, kernel)


def test_rank_prime_and_omega():
    p, r = RANK_PRIME, RANK_OMEGA
    assert p % 3 == 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert r != 1 and (r * r + r + 1) % p == 0


# Matrices as rows of (re, om) pairs, the shape `certified_rank_and_kernel`
# takes.
ONE, NIL = (1, 0), (0, 0)


@pytest.mark.parametrize("entry", [
    (0, RANK_PRIME),  # p*w, divisible by p in Z[w]
    # w - r, a prime above p sent to 0 by the reduction w -> r
    (-RANK_OMEGA, 1),
])
def test_rank_drop_mod_p_falls_back(entry):
    # The rank mod p, 1, undercounts the rank, 2, so the certificate falls
    # back to claiming 1 as a lower bound.
    rows = [[entry, NIL, NIL], [NIL, ONE, ONE]]
    candidates = [[NIL, (-1, 0), ONE]]
    assert _unproven(certified_rank_and_kernel(rows, candidates), rows,
                     1, 1) == (2, candidates)


def test_prime_drop_falls_back():
    # The prime divides the entry, so the rank mod p, 1, undercounts.
    rows = [[(RANK_PRIME, 0), ONE], [NIL, ONE]]
    assert _unproven(certified_rank_and_kernel(rows, []), rows,
                     1, 0) == (2, [])


def test_kernel_candidates_must_annihilate():
    rows = [[ONE, ONE], [ONE, ONE]]
    wrong = [[ONE, ONE]]
    assert _unproven(certified_rank_and_kernel(rows, wrong), rows,
                     1, 0) == (1, [[(-1, 0), ONE]])


def test_dependent_candidates_are_all_dropped():
    # Both copies annihilate, but together they are no independent set.
    rows = [[ONE, ONE], [ONE, ONE]]
    twice = [[(-1, 0), ONE]] * 2
    assert _unproven(certified_rank_and_kernel(rows, twice), rows,
                     1, 0) == (1, twice[:1])
