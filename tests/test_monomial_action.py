"""Differential tests of the Heisenberg action as a monomial map on exponents
mod 3 against the 9x9 action matrix over Q(w): `monomial_action` against
`action_matrix` and `act_on_polynomial`, and the int chart check
`nu.fixes_chart` against `action_matrix(g).mul_vector(v) == v`."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coble import nu
from coble.coble_forms import barth_quadrics, coble_cubic, coble_ring
from coble.fields import Eisenstein
from coble.heisenberg import (COORDS, THETA_VARS, HeisenbergElement,
                              act_on_polynomial, monomial_action, neg2,
                              theta_ring)
from coble.poly import PolyRing
from heisenberg_oracle import (action_matrix, monomial_action_by_helpers,
                               omega_pow)
from nu_oracle import basis_vectors, substitute
from properties import heisenberg_element

_charts = nu.annexe_charts() + nu.all_lift_charts()


@pytest.fixture(scope="module")
def group():
    """All 243 elements of H[3]."""
    return [HeisenbergElement(t, (x0, x1), (u, v))
            for t in range(3) for x0 in range(3) for x1 in range(3)
            for u in range(3) for v in range(3)]


def matrix_fixes(chart, g):
    m = action_matrix(g)
    return all(m.mul_vector(v) == v for v in basis_vectors(chart))


def lifts_of_pm_eta(chart):
    x, xstar = chart.lift.x, chart.lift.xstar
    return [HeisenbergElement(t, y, ystar)
            for y, ystar in ((x, xstar), (neg2(x), neg2(xstar)))
            for t in range(3)]


def test_group_has_243_distinct_elements(group):
    assert len(set(group)) == 243


def test_monomial_action_equals_the_helper_transcription(group):
    for g in group:
        assert monomial_action(g) == monomial_action_by_helpers(g), g


def test_monomial_action_agrees_with_matrix_and_polynomial(group):
    ring = theta_ring()
    for g in group:
        action = monomial_action(g)
        m = action_matrix(g)
        assert sorted(target for target, _ in action) == list(range(9))
        for k, (target, phase) in enumerate(action):
            assert [m.entries[i][k] for i in range(9)] == \
                [omega_pow(phase) if i == target else 0 for i in range(9)]
            image = act_on_polynomial(g, ring.var(THETA_VARS[k]))
            assert image == omega_pow(phase) * ring.var(THETA_VARS[target])


def test_monomial_action_is_the_printed_formula():
    # (t,x,x*) . Z_b = w^t w^(x*.(b-x)) Z_{b-x}
    g = HeisenbergElement(1, (1, 0), (0, 1))
    target, phase = monomial_action(g)[COORDS.index((2, 1))]
    assert COORDS[target] == (1, 1) and phase == (1 + 1) % 3


def test_fixes_chart_equals_matrix_test_on_lifts_of_eta():
    fixed = 0
    for chart in _charts:
        for g in lifts_of_pm_eta(chart):
            ok = nu.fixes_chart(chart.images, monomial_action(g))
            assert ok == matrix_fixes(chart, g), (chart.family_tag, g)
            fixed += ok
    # one lift per sign fixes each of the 160 charts
    assert fixed == 2 * len(_charts)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_charts), heisenberg_element)
def test_fixes_chart_equals_matrix_test_anywhere(chart, g):
    assert nu.fixes_chart(chart.images, monomial_action(g)) == \
        matrix_fixes(chart, g)


def test_moved_phase_is_caught():
    """A chart vector with one phase moved by w keeps its support, so only
    the exponent comparison can reject it.  The lifts translate (x != 0):
    each chart vector then runs along a cycle Z_b -> Z_{b-x} -> ..."""
    for g in (HeisenbergElement(2, (1, 0), (0, 1)),
              HeisenbergElement(0, (0, 1), (1, 1))):
        chart = nu.eigenspace_chart(g)
        images = list(chart.images)
        i = next(i for i, img in enumerate(images) if img is not None)
        k, j = images[i]
        images[i] = (k, (j + 1) % 3)
        bad = nu.FixedPlaneChart(chart.family_tag, tuple(images))
        assert not matrix_fixes(bad, g)
        with pytest.raises(nu.EigenspaceDimensionError):
            nu._verify_eigenvectors(bad, monomial_action(g))


def substituted(g, p):
    """g applied to p by substituting w^phase Z_target for every Z_k."""
    var = p.ring.var
    return substitute(p, {THETA_VARS[k]: omega_pow(phase) * var(THETA_VARS[t])
                          for k, (t, phase) in enumerate(monomial_action(g))})


def coble_ring_polynomials():
    """Multi-term polynomials in the theta coordinates and beta0..beta4: the
    Coble cubic, two Barth quadrics and a seeded polynomial with Q(w)
    coefficients and no symmetry."""
    ring = coble_ring()
    rng = random.Random(19)
    terms = {tuple(rng.randrange(3) for _ in range(9))
             + tuple(rng.randrange(2) for _ in range(5)):
             Eisenstein(rng.randint(-4, 4), rng.randint(1, 4))
             for _ in range(12)}
    quadrics = barth_quadrics(ring)
    return [coble_cubic(ring), quadrics[(0, 0)], quadrics[(1, 2)],
            ring.from_terms(terms)]


def test_polynomial_action_equals_substitution(group):
    polys = coble_ring_polynomials()
    assert len(polys[-1].terms) == 12
    for g in group:
        for p in polys:
            assert act_on_polynomial(g, p) == substituted(g, p), g


def test_polynomial_action_needs_the_theta_block_first():
    ring = PolyRing(("beta0",) + THETA_VARS)
    with pytest.raises(ValueError):
        act_on_polynomial(HeisenbergElement(0, (1, 0), (0, 0)),
                          ring.var("Z00"))
