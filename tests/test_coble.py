from fractions import Fraction

import pytest

from coble.coble_forms import (BARTH_TABLE, BETAS, barth_quadrics,
                               coble_cubic, coble_ring, cubic_basis,
                               eta_plane_expected, minus_space_restriction,
                               printed_block_span_report, quadric_rank,
                               quadrics_in_yz, restrict_to_eta_plane,
                               steiner_matrix, verify_derivative_identity,
                               yz_ring, yz_substitution)
from coble.fields import QQ, QW, omega_pow
from coble.heisenberg import (HeisenbergElement, act_on_polynomial, add2,
                              coord_name, dot, generators, neg2, theta_ring)


@pytest.fixture(scope="module")
def ring():
    return coble_ring()


def test_cubic_term_counts(ring):
    basis = cubic_basis(ring)
    # F0 is a free orbit (9 distinct cubes); F1..F4 have stabilizer 3, so
    # the literal 9-fold sum is 3 * (3 distinct monomials)
    assert len(basis[0].terms) == 9
    for f in basis[1:]:
        assert len(f.terms) == 3
        assert all(c == QW.coerce(3) for c in f.terms.values())
    f_beta = coble_cubic(ring)
    assert len(f_beta.terms) == 9 + 4 * 3


def test_derivative_identities(ring):
    residuals = verify_derivative_identity(coble_cubic(ring))
    for name, poly in residuals.items():
        assert poly.is_zero(), name


def test_heisenberg_invariance(ring):
    f = coble_cubic(ring)
    for g in generators():
        assert act_on_polynomial(g, f) == f


def test_quadric_equivariance(ring):
    """g . Q_b = w^(2t + 2 x*.(b - x)) Q_{b-x} for the lifted action."""
    qs = barth_quadrics(ring)
    elements = generators() + [HeisenbergElement(2, (1, 2), (2, 1))]
    for g in elements:
        for b, q in qs.items():
            target = add2(b, neg2(g.x))
            phase = omega_pow(2 * g.t_exp + 2 * dot(g.xstar, target))
            assert act_on_polynomial(g, q) == phase * qs[target], (g, b)


def test_eta_plane_restriction(ring):
    assert restrict_to_eta_plane(coble_cubic(ring)) == eta_plane_expected(ring)


def test_quadric_rank(ring):
    assert quadric_rank() == 9


def test_quadrics_in_yz_equal_term_by_term_rewrite():
    """The Y/Z quadrics equal the nine printed quadrics built term by term
    over Q from BARTH_TABLE and then substituted."""
    ring = theta_ring(extra_params=BETAS, field=QQ)
    target = yz_ring()
    sub = yz_substitution(target)
    expected = {}
    for b, rows in BARTH_TABLE.items():
        q = ring.zero()
        for k, (c1, c2) in enumerate(rows):
            q = q + ring.var(f"beta{k}") * ring.var(coord_name(c1)) \
                * ring.var(coord_name(c2))
        expected[b] = q.substitute(sub, target_ring=target)
    got_ring, got = quadrics_in_yz()
    assert got_ring == target
    assert list(got) == list(expected)
    assert got == expected


def test_minus_space_span():
    # raises SpanMismatch unless Q00 matches row 1 and all spans have rank 5
    target, restricted, rows = minus_space_restriction()
    assert len(rows) == 5 and len(restricted) == 9


def test_steiner_degenerate_point():
    m, rank, point = steiner_matrix((1, 0, 0, 0))
    assert rank == 2 and point is None


def test_steiner_rank_four_point():
    m, rank, point = steiner_matrix((1, 1, 1, 1))
    assert rank == 4
    assert m.mul_vector(point) == [QW.zero()] * 5
    assert [c / point[4] for c in point] == \
        [QW.coerce(c) for c in (3, -3, 1, 1, 1)]


def test_steiner_scaling_invariance():
    _, rank1, p1 = steiner_matrix((1, 1, 1, 1))
    from coble.fields import OMEGA
    _, rank2, p2 = steiner_matrix(tuple(OMEGA * QW.one() for _ in range(4)))
    assert rank1 == rank2 == 4
    # kernel unchanged under scaling z by omega (entries scale by omega^2)
    assert [c / p2[4] for c in p2] == [c / p1[4] for c in p1]


def test_printed_blocks_in_span():
    base_rank, verdicts = printed_block_span_report()
    assert base_rank == 9
    assert verdicts == [True] * 9
