import pytest

from coble.heisenberg import (COORDS, HeisenbergElement, monomial_action,
                              theta_ring)
from coble.invariants import pinned_basis
from coble.nu import (S_TARGET, ZERO, EigenspaceDimensionError,
                      FixedPlaneChart, _nu_matrix, eigenspace_chart,
                      fixed_plane_charts, matching_lifts, nu_rank_and_kernel,
                      packed_terms)
from nu_oracle import (annexe_restrictions, eta_walk_charts, hack_rows,
                       induced_plane_action, k_eta_generators, nu_matrix,
                       plane_action_preserves_s_span, printed_charts,
                       production_coordinates, qw_matrix, restrict,
                       subblock_kernel, substitution_filter)


@pytest.fixture(scope="module")
def ring():
    return theta_ring()


@pytest.fixture(scope="module")
def basis(ring):
    labels, elements = pinned_basis(ring, 6)
    return labels, elements


@pytest.fixture(scope="module")
def charts():
    return fixed_plane_charts("annexe")


def every_chart():
    """The 40 annexe charts, then the 120 lift charts."""
    return fixed_plane_charts("annexe") + fixed_plane_charts("all_lifts")


@pytest.fixture(scope="module")
def full_report():
    rank, kernel, report = nu_rank_and_kernel(None)
    return rank, kernel, report


def test_chart_counts(charts):
    assert len(charts) == 40
    assert len(fixed_plane_charts("all_lifts")) == 120
    with pytest.raises(ValueError):
        fixed_plane_charts("bogus")


def test_diagonal_chart_01(charts):
    # (r,s) = (0,1): survivors are Z00, Z10, Z20 (j = 0)
    chart = charts[0]
    assert chart.family_tag == "diagonal(0,1)"
    live = {b: img for b, img in zip(COORDS, chart.images) if img is not None}
    assert set(live) == {(0, 0), (1, 0), (2, 0)}
    assert all(j == 0 for _, j in live.values())


def test_shift_chart_trivial_character(charts):
    # family (01) with (u,v) = (0,0): all phases 1
    chart = charts[4]
    assert chart.family_tag == "shift(01,u=0,v=0)"
    for img in chart.images:
        assert img is not None
        assert img[1] == 0


def test_every_chart_is_a_monomial_map_onto_the_plane():
    # each Z_b goes to w^j Y_k (k, j in 0..2) or to 0, and every Y_k is hit
    for chart in every_chart():
        assert isinstance(chart.images, tuple) and len(chart.images) == 9
        live = [img for img in chart.images if img is not None]
        assert all(k in range(3) and j in range(3) for k, j in live), \
            chart.family_tag
        assert {k for k, _ in live} == {0, 1, 2}, chart.family_tag


def test_every_chart_is_an_eigenplane(charts):
    for chart, lifts in zip(charts, matching_lifts(charts)):
        signs = [s for s, _ in lifts]
        assert signs.count(1) == 1 and signs.count(-1) == 1, chart.family_tag


def test_restrict_t1_on_diagonal(ring, basis, charts):
    labels, elements = basis
    coords = production_coordinates(elements[labels.index("T1")], charts[0])
    assert coords == [1, 0, 0, 0]


def test_restrict_zero(ring, charts):
    assert production_coordinates(ring.zero(), charts[0]) == [0] * 4


def test_kernel_candidates_restrict_to_zero(ring, basis, charts):
    labels, elements = basis
    for plus, minus in (("T8", "T7"), ("T11", "T10"), ("T14", "T13"),
                        ("T17", "T16")):
        w = elements[labels.index(plus)] - elements[labels.index(minus)]
        for chart in charts:
            assert restrict(chart, w).is_zero(), (plus, minus, chart.family_tag)


def test_hack_rows_agree_with_s_coordinates(ring, basis, charts):
    # the coefficient extraction is the S-coordinate vector through the
    # invertible map (a1,a2,a3,a4) -> (a4, 2a2, a3, a1)
    labels, elements = basis
    for chart in charts[::7]:
        for p in elements[::6]:
            res = restrict(chart, p)
            if res.is_zero():
                continue
            a1, a2, a3, a4 = production_coordinates(p, chart)
            assert hack_rows(res) == [a4, 2 * a2, a3, a1]


def test_diagonal_filter_counts(basis):
    counts, surviving = subblock_kernel()[:2]
    assert counts == [39, 36, 33, 30]
    assert len(surviving) == 30


def test_subblock_rank_and_kernel():
    counts, _, rank, _, kernel_labels, _ = subblock_kernel()
    assert counts == [39, 36, 33, 30]
    # the exact value: 26, not the printed 27 -- criterion 4 in
    # tests/test_acceptance.py proves the bound and records the erratum
    assert rank == 26
    assert [sorted(k) for k in kernel_labels] == [
        ["T7", "T8"], ["T10", "T11"], ["T13", "T14"], ["T16", "T17"]]


def test_subblock_filters_and_restricts_the_given_basis(basis):
    labels, elements = basis
    keep = [labels.index(t) for t in ("T1", "T7", "T8", "T9", "T10", "T11")]
    sub = [labels[i] for i in keep], [elements[i] for i in keep]
    counts, _, rank, _, kernel_labels, _ = subblock_kernel(basis=sub)
    assert counts == [4, 4, 4, 4]
    assert rank == 2
    assert sorted(sorted(k) for k in kernel_labels) == [
        ["T10", "T11"], ["T7", "T8"]]


def test_full_rank_and_kernel(full_report):
    rank, kernel, report = full_report
    assert rank == 39
    assert report["kernel_dimension"] == 4
    assert report["rank_nullity_ok"]
    assert report["kernel_iota_anti_invariant"]
    assert report["verdict"].startswith("text: rank 39")
    # reported only because the modular lower bound and the exactly
    # verified kernel vectors meet
    cert = report["rank_certificate"]
    assert cert["route"] == "modular+kernel"
    assert cert["rank_mod_p"] == rank
    assert cert["rank_mod_p"] + cert["kernel_vectors_verified"] == 43


def test_hack_route_same_rank(full_report):
    # the source computation's rows, on its literal replication
    rank, _, _ = full_report
    assert nu_matrix(annexe_restrictions(), "hack").rank() == rank


def test_column_rank_equals_row_rank(full_report, basis, charts):
    rank, _, _ = full_report
    rows = _nu_matrix(charts, packed_terms(basis[1], S_TARGET), None)
    assert qw_matrix(rows).transpose().rank() == rank


@pytest.mark.parametrize("mode", ["annexe", "all_lifts"])
def test_zero_coordinates_share_one_pair(basis, mode):
    rows = _nu_matrix(fixed_plane_charts(mode),
                      packed_terms(basis[1], S_TARGET), None)
    zeros = [c for row in rows for c in row if c == (0, 0)]
    assert zeros and all(c is ZERO for c in zeros)


def test_eigenspace_charts_match_annexe(charts):
    # the same monomial map, not only the same plane: each annexe chart is
    # the transcribed table and the t = 0 lift chart of its class
    printed = printed_charts()
    assert [c.family_tag for c in charts] == [c.family_tag for c in printed]
    for chart, table in zip(charts, printed):
        assert chart.lift == table.lift, chart.family_tag
        assert chart.images == table.images, chart.family_tag
        assert chart.images == eigenspace_chart(chart.lift).images, \
            chart.family_tag


def test_charts_equal_the_eta_walk():
    # The cycles of each lift's monomial action give, chart by chart, the
    # same images and tags as walking the <x>-orbits from eta.
    built = [(c.family_tag, c.images) for c in every_chart()]
    assert len(built) == 160
    assert built == eta_walk_charts()


def test_diagonal_filter_matches_zero_substitution(basis):
    labels, elements = basis
    assert subblock_kernel()[:2] == substitution_filter(elements)
    keep = [labels.index(t) for t in ("T1", "T2", "T7", "T8", "T9", "T20",
                                      "T30", "T43")]
    sub = [labels[i] for i in keep], [elements[i] for i in keep]
    counts, surviving = subblock_kernel(sub)[:2]
    assert (counts, surviving) == substitution_filter(sub[1])
    assert counts[0] < len(keep) and counts[-1] > 0


def test_k_eta_action_preserves_s_span(charts):
    for chart in charts[:8] + charts[20:24]:
        for g in k_eta_generators(chart.lift):
            action = induced_plane_action(chart, g)
            assert action is not None
            assert plane_action_preserves_s_span(action) is not None


def test_eigenspace_dimension_guard():
    # a central perturbation cannot break the construction, but a broken
    # basis vector must be caught by the eigenvector verification
    chart = eigenspace_chart(HeisenbergElement(1, (0, 0), (1, 0)))
    g = HeisenbergElement(1, (0, 0), (1, 0))
    images = list(chart.images)
    images[COORDS.index((0, 2))] = (0, 0)  # pollute the first vector
    bad = FixedPlaneChart(chart.family_tag, tuple(images), chart.lift)
    from coble.nu import _verify_eigenvectors
    with pytest.raises(EigenspaceDimensionError):
        _verify_eigenvectors(bad, monomial_action(g))
