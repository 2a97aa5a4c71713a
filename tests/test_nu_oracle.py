"""Differential tests of the production nu route (monomial maps, read-off
coordinates, certified rank) against the generic Q(w) route in
`nu_oracle`, and tests that the rank certificate falls back to exact
elimination whenever its bounds do not meet."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nu_oracle
from coble import nu
from coble.fields import OMEGA, QW, Eisenstein
from coble.heisenberg import theta_ring
from coble.invariants import pinned_basis
from coble.linalg import (RANK_OMEGA, RANK_PRIME, ExactMatrix,
                          certified_rank_and_kernel)
from coble.poly import NotInSpan

METHODS = ("sbasis", "hack")

_labels, _elements = pinned_basis(theta_ring(), 6)
_charts = nu.annexe_charts() + nu.all_lift_charts()


@pytest.fixture(scope="module")
def oracle():
    """The oracle's annexe nu matrix in both conventions, built once."""
    restricted = nu_oracle.annexe_restrictions()
    return {method: nu_oracle.nu_matrix(restricted, method)
            for method in METHODS}


@pytest.fixture(scope="module")
def annexe_nu():
    return nu.assemble_nu()


@pytest.mark.parametrize("method", METHODS)
def test_annexe_matrix_equals_oracle(oracle, annexe_nu, method):
    fast = annexe_nu.matrix
    if method == "hack":
        fast = nu_oracle.source_matrix(fast)
    assert (fast.rows, fast.cols) == (160, 43)
    assert fast.entries == oracle[method].entries


def test_oracle_elimination_agrees_with_certificate(oracle):
    rank, kernel, report = nu.nu_rank_and_kernel()
    assert (rank, kernel) == oracle["sbasis"].rank_and_kernel()
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
                        == [QW.zero()] * 4
                continue
            raised += 1
            with pytest.raises(NotInSpan):
                nu_oracle.coordinates(res, "sbasis")
            for method in METHODS:
                with pytest.raises(NotInSpan, match=message):
                    nu_oracle.production_coordinates(p, chart, method)
        assert raised > 0, p


def test_over_degree_term_is_refused_before_packing():
    # The w-exponent of a term's image is at most twice its degree and must
    # fit its field: degree 127 packs, degree 128 does not.
    ring = theta_ring()
    z00, z01 = ring.var("Z00"), ring.var("Z01")
    fits = z00 ** 126 * z01
    assert 2 * 127 < 1 << nu.FIELD <= 2 * 128
    with pytest.raises(NotInSpan, match="outside S1..S4"):
        nu.chart_coordinates(_charts[4], nu.packed_terms([fits]))
    with pytest.raises(ValueError, match="degree 128 overflows"):
        nu.packed_terms([_elements[0], fits * z01])


def _with_column(matrix, label, column):
    j = _labels.index(label)
    rows = [row[:j] + [x] + row[j + 1:] for row, x in zip(matrix.entries, column)]
    return ExactMatrix(QW, rows)


def _text_candidates():
    return nu.candidate_vectors(_labels, nu.TEXT_KERNEL_PAIRS)


def _t7_plus_t10(matrix, label):
    # The column `label` := T7 + T10.
    j7, j10 = _labels.index("T7"), _labels.index("T10")
    return _with_column(matrix, label,
                        [row[j7] + row[j10] for row in matrix.entries])


def _independent(matrix):
    # One entry of T8 moved by w: rank 40, the annexe kernel.
    j8 = _labels.index("T8")
    column = [row[j8] for row in matrix.entries]
    column[5] = column[5] + OMEGA
    return _with_column(matrix, "T8", column)


PERTURBATIONS = {"dependent": lambda m: _t7_plus_t10(m, "T8"),
                 "independent": _independent,
                 "t11_moved": lambda m: _t7_plus_t10(m, "T11")}


def test_dependent_perturbation_falls_back_to_elimination(annexe_nu):
    # T8 := T7 + T10 keeps the rank at 39 but moves the kernel off T8-T7:
    # only the three annexe vectors verify, and 39 + 3 < 43.
    perturbed = PERTURBATIONS["dependent"](annexe_nu.matrix)
    rank, kernel, cert = certified_rank_and_kernel(perturbed,
                                                   _text_candidates())
    assert cert == {"prime": RANK_PRIME, "rank_mod_p": 39,
                    "kernel_vectors_verified": 3, "route": "exact-Qw"}
    assert (rank, kernel) == perturbed.rank_and_kernel()
    assert rank == 39


def test_independent_perturbation_is_certified_by_the_annexe_kernel(annexe_nu):
    # Rank 40, proven by the annexe vectors, and the certified kernel is the
    # one exact elimination gives.
    perturbed = PERTURBATIONS["independent"](annexe_nu.matrix)
    rank, kernel, cert = certified_rank_and_kernel(perturbed,
                                                   _text_candidates())
    assert cert["route"] == "modular+kernel"
    assert cert["kernel_vectors_verified"] == 3
    assert (rank, kernel) == perturbed.rank_and_kernel() and rank == 40


def test_each_printed_vector_is_kept_on_its_own(annexe_nu):
    # With T11 := T10 + T7 no printed kernel verifies as a whole, but the
    # three other pairs do; the rank stays 39, so elimination decides.
    perturbed = PERTURBATIONS["t11_moved"](annexe_nu.matrix)
    rank, kernel, cert = certified_rank_and_kernel(perturbed,
                                                   _text_candidates())
    assert cert == {"prime": RANK_PRIME, "rank_mod_p": 39,
                    "kernel_vectors_verified": 3, "route": "exact-Qw"}
    assert (rank, kernel) == perturbed.rank_and_kernel()
    assert rank == 39


@pytest.mark.parametrize("case", ["annexe", "all_lifts", "dependent",
                                  "independent", "t11_moved", "elimination"])
def test_verdict_by_list_equality_agrees_with_span_comparison(annexe_nu, case):
    if case in ("annexe", "all_lifts"):
        _, kernel, report = nu.nu_rank_and_kernel(mode=case)
        assert report["verdict"] == nu.kernel_verdict(_labels, kernel)
    elif case == "elimination":
        kernel = annexe_nu.matrix.rank_and_kernel()[1]
    else:
        kernel = certified_rank_and_kernel(
            PERTURBATIONS[case](annexe_nu.matrix), _text_candidates())[1]
    assert nu.kernel_verdict(_labels, kernel) == \
        nu_oracle.span_verdict(_labels, kernel)


def test_rank_prime_and_omega():
    p, r = RANK_PRIME, RANK_OMEGA
    assert p % 3 == 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert r != 1 and (r * r + r + 1) % p == 0


@pytest.mark.parametrize("entry", [
    Eisenstein(0, RANK_PRIME),  # p*w, divisible by p in Z[w]
    # w - r, a prime above p sent to 0 by the reduction w -> r
    Eisenstein(-RANK_OMEGA, 1),
])
def test_rank_drop_mod_p_falls_back(entry):
    m = ExactMatrix(QW, [[entry, 0, 0], [0, 1, 1]])
    candidates = [[QW.zero(), -QW.one(), QW.one()]]
    rank, kernel, cert = certified_rank_and_kernel(m, candidates)
    assert cert == {"prime": RANK_PRIME, "rank_mod_p": 1,
                    "kernel_vectors_verified": 1, "route": "exact-Qw"}
    assert (rank, kernel) == m.rank_and_kernel() == (2, candidates)


@pytest.mark.parametrize("entry, rank_mod_p", [
    (Eisenstein(RANK_PRIME), 1),       # the prime divides it
    (Eisenstein(Fraction(1, 2)), None),  # not integral: no modular bound
])
def test_prime_drop_and_rational_entries_fall_back(entry, rank_mod_p):
    m = ExactMatrix(QW, [[entry, 1], [0, 1]])
    rank, kernel, cert = certified_rank_and_kernel(m, [])
    assert cert["rank_mod_p"] == rank_mod_p and cert["route"] == "exact-Qw"
    assert (rank, kernel) == (2, [])


def test_kernel_candidates_must_annihilate():
    m = ExactMatrix(QW, [[1, 1], [1, 1]])
    wrong = [[QW.one(), QW.one()]]
    rank, kernel, cert = certified_rank_and_kernel(m, wrong)
    assert cert["kernel_vectors_verified"] == 0 and cert["route"] == "exact-Qw"
    assert rank == 1 and kernel == [[-QW.one(), QW.one()]]


def test_dependent_candidates_are_all_dropped():
    # Both copies annihilate, but together they are no independent set.
    m = ExactMatrix(QW, [[1, 1], [1, 1]])
    twice = [[-QW.one(), QW.one()]] * 2
    rank, kernel, cert = certified_rank_and_kernel(m, twice)
    assert cert["kernel_vectors_verified"] == 0 and cert["route"] == "exact-Qw"
    assert rank == 1 and kernel == twice[:1]
