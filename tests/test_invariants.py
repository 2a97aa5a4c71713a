from itertools import combinations_with_replacement

import pytest

from coble.fields import QQ
from coble.heisenberg import COORDS, generators, act_on_polynomial, theta_ring
from coble.invariants import (DegreeNotDivisibleBy3, InvariantBasis,
                              invariant_basis, invariant_dimension, iota_act,
                              iota_permutation, iota_split,
                              khat_invariant_monomials, orbit_count,
                              pinned_basis)
from coble.linalg import ExactMatrix
from coble.poly import _grlex_key


@pytest.fixture(scope="module")
def ring():
    return theta_ring()


@pytest.fixture(scope="module")
def basis6(ring):
    return invariant_basis(ring, 6)


def test_dimensions():
    assert invariant_dimension(3) == 5
    assert invariant_dimension(6) == 43
    assert invariant_dimension(9) == 310
    with pytest.raises(DegreeNotDivisibleBy3):
        invariant_dimension(4)


def test_orbit_count_agrees():
    for d in (3, 6, 9, 12):
        assert orbit_count(d) == invariant_dimension(d)
    assert (orbit_count(9), orbit_count(12)) == (310, 1570)


def test_khat_invariant_monomials_equal_brute_force():
    for d in range(7):
        brute = []
        for support in combinations_with_replacement(range(9), d):
            e = tuple(support.count(k) for k in range(9))
            if all(sum(n * COORDS[k][i] for k, n in enumerate(e)) % 3 == 0
                   for i in (0, 1)):
                brute.append(e)
        assert khat_invariant_monomials(d) == sorted(brute), d


def test_pinned_basis_is_invariant(ring, basis6):
    for p in basis6.elements:
        for g in generators():
            assert act_on_polynomial(g, p) == p


def test_basis_matches_pinned_table(ring, basis6):
    labels, pinned = pinned_basis(ring, 6)
    assert basis6.labels == labels
    assert basis6.elements == pinned
    assert len(basis6) == 43
    assert basis6["T2"] == pinned[1]


def test_degree3_basis(ring):
    basis = invariant_basis(ring, 3)
    assert basis.labels == ["F0", "F1", "F2", "F3", "F4"]
    assert len(basis["F0"].terms) == 9  # orbit of Z00^3: all nine cubes


def test_linear_independence(ring, basis6):
    monomials = sorted({m for p in basis6.elements for m in p.terms},
                       key=_grlex_key)
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for p in basis6.elements:
        row = [QQ.zero()] * len(monomials)
        for m, c in p.terms.items():
            row[index[m]] = c.re  # coefficients are rational integers here
        rows.append(row)
    assert ExactMatrix(QQ, rows).rank() == 43


def test_iota_is_a_basis_permutation(ring, basis6):
    perm = iota_permutation(basis6)
    assert sorted(perm) == list(range(43))
    # involution
    assert all(perm[perm[i]] == i for i in range(43))


def test_iota_split_dimensions(ring, basis6):
    split = iota_split(basis6)
    assert len(split.plus_basis) == 39
    assert len(split.minus_basis) == 4
    for p in split.plus_basis:
        assert iota_act(p) == p
    for p in split.minus_basis:
        assert iota_act(p) == -p


def test_w_vectors_are_anti_invariant(ring, basis6):
    for plus, minus in (("T8", "T7"), ("T11", "T10"), ("T14", "T13"),
                        ("T17", "T16")):
        w = basis6[plus] - basis6[minus]
        assert iota_act(w) == -w
