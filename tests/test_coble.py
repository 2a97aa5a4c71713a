import pytest

from coble.coble_forms import (BARTH_TABLE, BETAS, ETA_PLANE, barth_quadrics,
                               coble_cubic, coble_ring, cubic_basis,
                               eta_plane_coordinates, quadric_rank,
                               verify_derivative_identity)
from coble.fields import OMEGA
from coble.heisenberg import (COORDS, HeisenbergElement, act_on_polynomial,
                              coord_name, generators, neg2, theta_ring)
from coble.invariants import F_SEEDS
from coble.poly import Polynomial

from linalg_oracle import ExactMatrix
import nu_oracle
from coble_oracle import (minus_space_restriction, printed_block_span_report,
                          quadrics_in_yz, steiner_matrix, yz_ring,
                          yz_substitution)
from heisenberg_oracle import add2, dot, omega_pow


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
        assert all(c == 3 for c in f.terms.values())
    f_beta = coble_cubic()
    assert len(f_beta.terms) == 9 + 4 * 3


def literal_cubic_basis(ring):
    """F0..F4 multiplied out over all nine translates of their seeds, one
    variable at a time: the printed sums, term by term."""
    out = []
    for seed in F_SEEDS:
        f = ring.zero()
        for shift in COORDS:
            m = ring.one()
            for b, e in seed.items():
                m = m * ring.var(coord_name(add2(b, shift))) ** e
            f = f + m
        out.append(f)
    return out


def test_cubic_basis_equals_the_literal_sums(ring):
    assert cubic_basis(ring) == literal_cubic_basis(ring)


def test_derivative_identity_differentiates_each_coordinate_once(
        monkeypatch):
    calls = []
    derive = Polynomial.partial_derivative

    def counting(p, name):
        calls.append(name)
        return derive(p, name)

    monkeypatch.setattr(Polynomial, "partial_derivative", counting)
    residuals = verify_derivative_identity(coble_cubic(), barth_quadrics())
    assert sorted(calls) == [coord_name(b) for b in COORDS]
    assert list(residuals) == [f"dF/d{coord_name(b)} - 3*Q" for b in COORDS] \
        + ["sum Z_b*Q_b - F", "Euler: sum Z_b*dF/dZ_b - 3F"]
    assert all(p.is_zero() for p in residuals.values())


def test_derivative_identities():
    residuals = verify_derivative_identity(coble_cubic(), barth_quadrics())
    for name, poly in residuals.items():
        assert poly.is_zero(), name


def test_heisenberg_invariance():
    f = coble_cubic()
    for g in generators():
        assert act_on_polynomial(g, f) == f


def test_quadric_equivariance():
    """g . Q_b = w^(2t + 2 x*.(b - x)) Q_{b-x} for the lifted action."""
    qs = barth_quadrics()
    elements = generators() + [HeisenbergElement(2, (1, 2), (2, 1))]
    for g in elements:
        for b, q in qs.items():
            target = add2(b, neg2(g.x))
            phase = omega_pow(2 * g.t_exp + 2 * dot(g.xstar, target))
            assert act_on_polynomial(g, q) == phase * qs[target], (g, b)


def test_eta_plane_restriction(ring):
    # The read-off gives the printed coordinates and agrees with the
    # substitution, which gives the printed beta0 sum Z^3 + 3 beta1 Z00 Z01 Z02.
    coords = eta_plane_coordinates()
    assert coords == ETA_PLANE
    restricted = nu_oracle.eta_plane_restriction()
    assert nu_oracle.eta_plane_cubic(ring, coords) == restricted
    z0, z1, z2 = (ring.var(n) for n in ("Z00", "Z01", "Z02"))
    b0, b1 = ring.var("beta0"), ring.var("beta1")
    assert restricted == \
        b0 * (z0 ** 3 + z1 ** 3 + z2 ** 3) + 3 * b1 * z0 * z1 * z2


def exact_quadric_rank(qs):
    """The rank over Q(w) of the quadrics' coefficient rows."""
    polys = [qs[b] for b in sorted(qs)]
    monos = sorted({m for p in polys for m in p.terms})
    return ExactMatrix([[p.terms.get(m, 0) for m in monos]
                        for p in polys]).rank()


def test_quadric_rank():
    """The rank mod p is a lower bound: equal to the exact rank on the
    Barth quadrics, and below 9 once one quadric stands in for another or
    two are q and w q for a q that mixes 1 and w, where only w^2 = -1 - w
    makes the rows dependent."""
    qs = barth_quadrics()
    first, second = sorted(qs)[:2]
    repeated = dict(qs)
    repeated[second] = qs[first]
    w = OMEGA
    mixed = dict(qs)
    mixed[first] = qs[first] + w * qs[second]
    mixed[second] = w * mixed[first]
    assert quadric_rank(qs) == exact_quadric_rank(qs) == 9
    assert quadric_rank(repeated) == exact_quadric_rank(repeated) == 8
    assert quadric_rank(mixed) == exact_quadric_rank(mixed) == 8


def test_quadrics_in_yz_equal_term_by_term_rewrite():
    """The Y/Z quadrics equal the nine printed quadrics built term by term
    over Q from BARTH_TABLE and then substituted."""
    ring = theta_ring(extra_params=BETAS)
    target = yz_ring()
    sub = yz_substitution(target)
    expected = {}
    for b, rows in BARTH_TABLE.items():
        q = ring.zero()
        for k, (c1, c2) in enumerate(rows):
            q = q + ring.var(f"beta{k}") * ring.var(coord_name(c1)) \
                * ring.var(coord_name(c2))
        expected[b] = nu_oracle.substitute(q, sub, target_ring=target)
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
    assert m.mul_vector(point) == [0] * 5
    assert [c / point[4] for c in point] == [3, -3, 1, 1, 1]


def test_steiner_scaling_invariance():
    _, rank1, p1 = steiner_matrix((1, 1, 1, 1))
    _, rank2, p2 = steiner_matrix((OMEGA,) * 4)
    assert rank1 == rank2 == 4
    # kernel unchanged under scaling z by omega (entries scale by omega^2)
    assert [c / p2[4] for c in p2] == [c / p1[4] for c in p1]


def test_printed_blocks_in_span():
    base_rank, verdicts = printed_block_span_report()
    assert base_rank == 9
    assert verdicts == [True] * 9
