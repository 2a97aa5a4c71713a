"""Acceptance suite: eleven timed criteria, one reported line each.

Each criterion prints a single PASS/FAIL line (criterion number, wall time,
description) directly to the terminal, independent of pytest's capture, and
then raises normally so the suite's exit status reflects the outcome.
"""

import sys
import time
from fractions import Fraction

from coble import enumerative, hesse, invariants, nu, prym
from coble.coble_forms import (coble_cubic, coble_ring, eta_plane_expected,
                               quadric_rank, restrict_to_eta_plane,
                               verify_derivative_identity)
from coble.fields import QW
from coble.heisenberg import act_on_polynomial, generators, theta_ring
from coble.linalg import ExactMatrix

from properties import ALL_SUITES


def _criterion(num, desc, limit, body):
    t0 = time.perf_counter()
    err = None
    try:
        body()
    except Exception as exc:  # noqa: BLE001 - reported, then re-raised
        err = exc
    elapsed = time.perf_counter() - t0
    over = limit is not None and elapsed >= limit
    status = "PASS" if err is None and not over else "FAIL"
    print(f"criterion {num:2d}: {status} ({elapsed:6.1f}s) {desc}",
          file=sys.__stderr__, flush=True)
    if err is not None:
        raise err
    if over:
        raise AssertionError(f"criterion {num} exceeded {limit}s: {elapsed:.1f}s")


def test_criterion_01_invariant_dimensions():
    def body():
        assert invariants.invariant_dimension(3) == 5
        assert invariants.invariant_dimension(6) == 43
    _criterion(1, "invariant dimensions 5 / 43", 5, body)


def test_criterion_02_basis_reproduction():
    def body():
        ring = theta_ring()
        for degree in (3, 6):
            basis = invariants.invariant_basis(ring, degree)
            labels, pinned = invariants.pinned_basis(ring, degree)
            assert basis.labels == labels
            assert basis.elements == pinned
    _criterion(2, "orbit sums reproduce the printed bases exactly", 30, body)


def test_criterion_03_coble_identities():
    def body():
        ring = coble_ring()
        f = coble_cubic(ring)
        residuals = verify_derivative_identity(f)
        assert all(p.is_zero() for p in residuals.values()), \
            [k for k, p in residuals.items() if not p.is_zero()]
        assert all(act_on_polynomial(g, f) == f for g in generators())
        from coble.invariants import iota_act
        assert iota_act(f) == f
        assert restrict_to_eta_plane(f) == eta_plane_expected(ring)
    _criterion(3, "cubic derivative/decomposition identities and restriction",
               10, body)


# The annexe's printed elimination table for the 36 shift charts on the 30
# diagonal-filter survivors.  Criterion 4 shows it to be an erratum.
PRINTED_SUBBLOCK_RANK = 27
PRINTED_SUBBLOCK_KERNEL_PAIRS = [("T11", "T10"), ("T14", "T13"),
                                 ("T17", "T16")]


def _span_rank(vectors):
    return ExactMatrix(QW, vectors).rank()


def test_criterion_04_chart_table_replication():
    def body():
        labels, elements = invariants.pinned_basis(theta_ring(), 6)
        counts, surviving = nu.diagonal_filter_pipeline()
        assert counts == [39, 36, 33, 30]
        survivors = [labels[i] for i in surviving]
        shift_charts = nu.annexe_charts()[4:]
        assert len(shift_charts) == 36

        # Bound without elimination.  The four differences T8-T7, T11-T10,
        # T14-T13, T17-T16 have disjoint supports inside the survivors and
        # each restricts to zero on every shift chart.  Restriction and both
        # fill conventions are linear, so they are four independent kernel
        # vectors of the 144x30 subblock, whose rank is therefore <= 26.
        pair_labels = [t for pair in nu.TEXT_KERNEL_PAIRS for t in pair]
        assert len(set(pair_labels)) == 8
        assert set(pair_labels) <= set(survivors)
        for plus, minus in nu.TEXT_KERNEL_PAIRS:
            diff = elements[labels.index(plus)] - elements[labels.index(minus)]
            for chart in shift_charts:
                assert chart.restrict(diff).is_zero(), (plus, minus,
                                                        chart.family_tag)
        rank_bound = len(survivors) - len(nu.TEXT_KERNEL_PAIRS)
        assert rank_bound == 26

        exact = nu.candidate_vectors(survivors, nu.TEXT_KERNEL_PAIRS)
        printed = nu.candidate_vectors(survivors,
                                       PRINTED_SUBBLOCK_KERNEL_PAIRS)
        t8_minus_t7 = nu.candidate_vectors(survivors, [("T8", "T7")])
        for method in ("sbasis", "hack"):
            sub_counts, rank, kernel, _ = nu.annexe_subblock_kernel(
                method=method)
            assert sub_counts == counts
            # The exact certificate: elimination attains the bound, and the
            # kernel is the span of the four differences.
            assert rank == rank_bound, (method, rank)
            assert len(kernel) == 4 and _span_rank(kernel) == 4
            assert _span_rank(kernel + exact) == 4, method
            # The printed table is an erratum of it: the printed kernel lies
            # inside the exact one, which has one more dimension, and T8-T7
            # completes it.  The T7 and T8 columns are equal, so rank 27 is
            # unattainable.
            assert _span_rank(kernel + printed) == len(kernel), method
            assert len(kernel) == len(printed) + 1
            assert rank == PRINTED_SUBBLOCK_RANK - 1
            assert _span_rank(printed + t8_minus_t7) == len(kernel), method
    _criterion(4, "chart table: exact subblock rank 26, kernel dim 4 "
               "(printed rank 27 is an erratum)", 300, body)


def test_criterion_05_full_restriction_resolution():
    def body():
        rank, kernel, report = nu.nu_rank_and_kernel()
        assert report["rows"] == 160
        assert report["rank_nullity_ok"]
        assert report["kernel_iota_anti_invariant"]
        assert report["kernel_dimension"] in (3, 4)
        assert report["verdict"] == ("text: rank 39, kernel "
                                     "{T8-T7, T11-T10, T14-T13, T17-T16}")
    _criterion(5, "full 160x43 restriction map: rank 39, kernel dim 4",
               300, body)


def test_criterion_06_hesse_duality():
    def body():
        assert all(r.is_zero() for r in hesse.cusp_system_residuals())
        report = hesse.cusp_orbit_check()
        assert all(r.is_zero() for r in report.values()), report
        reports = hesse.run_default_oracle()
        ok = [r for r in reports if r["status"] == "ok"]
        skipped = [r for r in reports if r["status"] != "ok"]
        assert all(r["counterexamples"] == 0 and r["hasse_ok"] for r in ok)
        # two grid pairs reduce to singular pencil members (lam^3 = 1 mod p)
        # where the duality statement does not apply; they are skipped, the
        # remaining seven all pass
        assert len(ok) == 7 and len(skipped) == 2
        assert all(r["status"] == "skipped_singular_reduction"
                   for r in skipped)
    _criterion(6, "dual-sextic identities and finite-field oracle grid",
               120, body)


def test_criterion_07_dual_degree():
    def body():
        table = enumerative.derived_intersection_table()
        assert table[2] == -18 and table[1] == -162 and table[0] == -810
        assert enumerative.dual_degree_computation() == 6
    _criterion(7, "intersection-theoretic dual degree 6", 1, body)


def test_criterion_08_verlinde():
    def body():
        seq = enumerative.verlinde_sequence(8)  # integrality enforced inside
        assert seq[1] == 9
        assert enumerative.theta_degree_from_verlinde() == 2
        assert enumerative.zagier_leading_coefficient(1) == Fraction(1, 945)
        assert Fraction(1, 945) == Fraction(2 ** 4, 3 * 5040)
        assert enumerative.theta_degree_from_zagier() == 2
    _criterion(8, "Verlinde dimensions, theta degree 2 by two routes", 10, body)


def test_criterion_09_quadric_count():
    def body():
        assert enumerative.quadric_dimension_count() == 9
        assert quadric_rank() == 9
    _criterion(9, "nine independent quadrics through the surface", 60, body)


def test_criterion_10_prym_arithmetic():
    def body():
        assert all(prym.dihedral_identities().values())
        sol = prym.polarization_beta_solve()
        assert sol["beta"] == -1 and sol["det"] == 3
        for n in (3, 5, 7, 9):
            for g in range(2, 7):
                assert prym.prym_dimension_match(n, g)["match"]
    _criterion(10, "triangular-cover matrix identities and genus counts",
               1, body)


def test_criterion_11_property_suites():
    def body():
        for suite in ALL_SUITES:
            suite()
    _criterion(11, "randomized property suites (>= 200 cases each)",
               None, body)
