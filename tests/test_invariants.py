from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from coble import heisenberg, invariants
from coble.cli import DEGREE_MAX
from coble.heisenberg import (COORDS, act_on_polynomial, generators,
                              monomial_action, orbit_sum, theta_ring,
                              translation_getters)
from coble.invariants import (DegreeNotDivisibleBy3, InternalCountMismatch,
                              invariant_basis, invariant_dimension, iota_act,
                              iota_permutation, iota_split, orbit_count,
                              packed_khat_monomials,
                              packed_orbit_representatives,
                              packed_translator, pinned_basis)
from coble.poly import _grlex_key
from invariants_oracle import (distinct_orbit_sums, iota_split_by_elimination,
                               khat_invariant_monomials,
                               orbit_count_entrywise)
from linalg_oracle import ExactMatrix


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


def test_orbit_count_equals_entrywise_route():
    for d in range(13):
        assert orbit_count(d) == orbit_count_entrywise(d), d


def test_orbit_count_at_the_degree_bound():
    assert orbit_count(DEGREE_MAX) == invariant_dimension(21) == 53025


def unpack(e, w):
    return tuple(e >> w * k & (1 << w) - 1 for k in range(9))


def test_packed_enumeration_equals_tuple_reference():
    for d in range(13):
        w = packed_orbit_representatives(d)[0]
        assert [unpack(e, w) for e in packed_khat_monomials(d, w)] == \
            khat_invariant_monomials(d), d


def test_packed_translates_are_the_translation_table():
    # The two rotations give each of the nine translates read off
    # `monomial_action` once.
    getters = translation_getters(9)
    for d in range(7):
        w = packed_orbit_representatives(d)[0]
        translates = packed_translator(w)
        for e in packed_khat_monomials(d, w):
            exps = unpack(e, w)
            assert sorted(unpack(f, w) for f in translates(e)) == \
                sorted(translate(exps) for translate in getters), exps


def test_orbit_representatives_give_the_distinct_orbit_sums(ring):
    for d in (3, 6, 9):
        w, reps = packed_orbit_representatives(d)
        sums = [orbit_sum(ring, unpack(e, w)) for e in reps]
        assert sums == distinct_orbit_sums(ring, d), d


@pytest.mark.parametrize("d", [3, 6])
def test_basis_takes_one_orbit_sum_per_orbit(ring, monkeypatch, d):
    seeds = []

    def counting(ring, seed):
        seeds.append(seed)
        return orbit_sum(ring, seed)

    monkeypatch.setattr(invariants, "orbit_sum", counting)
    basis = invariant_basis(ring, d)
    assert len(seeds) == invariant_dimension(d)
    assert basis == pinned_basis(ring, d)


def test_pinned_basis_builds_no_action(monkeypatch):
    # The translation table and the K^-invariance phases are built once, at
    # import: no orbit sum builds a group action of its own.
    actions = []

    def counting(g):
        actions.append(g)
        return monomial_action(g)

    monkeypatch.setattr(heisenberg, "monomial_action", counting)
    labels, elements = pinned_basis(theta_ring(), 6)
    assert len(elements) == 43 and actions == []


@pytest.mark.parametrize("tamper, message", [
    (lambda seeds: seeds[1:], "no seed for the orbit"),
    (lambda seeds: seeds + [{(0, 0): 6}], "1 seeds have no orbit"),
])
def test_basis_needs_one_seed_per_orbit(ring, monkeypatch, tamper, message):
    monkeypatch.setattr(invariants, "F_SEEDS", tamper(invariants.F_SEEDS))
    with pytest.raises(InternalCountMismatch, match=message):
        invariant_basis(ring, 3)


def test_a_seed_is_any_member_of_a_new_orbit(ring, monkeypatch):
    # F0's seed Z00^3 may be any of its translates; a repeated seed meets
    # no orbit that an earlier seed left.
    seeds, expected = invariants.F_SEEDS, pinned_basis(ring, 3)
    monkeypatch.setattr(invariants, "F_SEEDS", [{(1, 2): 3}] + seeds[1:])
    assert invariant_basis(ring, 3) == expected
    monkeypatch.setattr(invariants, "F_SEEDS", seeds + seeds[3:4])
    with pytest.raises(InternalCountMismatch,
                       match="1 seeds have no orbit representative"):
        invariant_basis(ring, 3)


def test_basis_size_must_be_the_dimension(ring, monkeypatch):
    monkeypatch.setattr(invariants, "invariant_dimension", lambda d: 6)
    with pytest.raises(InternalCountMismatch, match="got 5 distinct"):
        invariant_basis(ring, 3)


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
    for p in basis6[1]:
        for g in generators():
            assert act_on_polynomial(g, p) == p


def test_basis_matches_pinned_table(ring, basis6):
    labels, pinned = pinned_basis(ring, 6)
    assert basis6 == (labels, pinned)
    assert len(labels) == len(pinned) == 43 and labels[1] == "T2"


def test_degree3_basis(ring):
    labels, elements = invariant_basis(ring, 3)
    assert labels == ["F0", "F1", "F2", "F3", "F4"]
    assert len(elements[0].terms) == 9  # orbit of Z00^3: all nine cubes


def test_linear_independence(ring, basis6):
    monomials = sorted({m for p in basis6[1] for m in p.terms},
                       key=_grlex_key)
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for p in basis6[1]:
        row = [0] * len(monomials)
        for m, c in p.terms.items():
            row[index[m]] = c
        rows.append(row)
    assert ExactMatrix(rows).rank() == 43


def test_iota_is_a_basis_permutation(ring, basis6):
    perm = iota_permutation(basis6[1])
    assert sorted(perm) == list(range(43))
    # involution
    assert all(perm[perm[i]] == i for i in range(43))


def test_iota_permutation_matches_coefficients(basis6):
    # iota(T7) is T8, not 2*T8: the two share their support only, so a
    # basis with 2*T8 in place of T8 is not closed under iota.
    labels, elements = basis6
    doubled = list(elements)
    doubled[labels.index("T8")] = 2 * doubled[labels.index("T8")]
    with pytest.raises(ValueError, match="not closed under iota"):
        iota_permutation(doubled)


def test_iota_split_dimensions(ring, basis6):
    plus, minus = iota_split(basis6[1])
    assert len(plus) == 39
    assert len(minus) == 4
    for p in plus:
        assert iota_act(p) == p
    for p in minus:
        assert iota_act(p) == -p


def test_w_vectors_are_anti_invariant(ring, basis6):
    labels, elements = basis6
    for plus, minus in (("T8", "T7"), ("T11", "T10"), ("T14", "T13"),
                        ("T17", "T16")):
        w = elements[labels.index(plus)] - elements[labels.index(minus)]
        assert iota_act(w) == -w


def rational_rank(polys):
    """Rank over Q of polynomials with rational coefficients."""
    monomials = sorted({m for p in polys for m in p.terms})
    rows = []
    for p in polys:
        assert all(isinstance(c, (int, Fraction)) for c in p.terms.values())
        rows.append([p.terms.get(m, 0) for m in monomials])
    return ExactMatrix(rows).rank()


def test_iota_split_equals_elimination_route(basis6):
    for new, old in zip(iota_split(basis6[1]),
                        iota_split_by_elimination(basis6[1])):
        assert len(new) == len(old) == rational_rank(new)
        assert rational_rank(new + old) == len(new)


def test_iota_split_rejects_a_non_involution(basis6, monkeypatch):
    # A repeated element makes iota_permutation send both copies to the
    # last one, which is no involution.
    t1 = basis6[1][0]
    with pytest.raises(ValueError, match="involution"):
        iota_split([t1, t1])
    monkeypatch.setattr(invariants, "iota_permutation",
                        lambda elements: [1, 2, 0])
    with pytest.raises(ValueError, match="involution"):
        iota_split(basis6[1][:3])


def test_iota_split_checks_every_vector(basis6, monkeypatch):
    # Pair two elements that iota fixes: their difference is no -1 vector.
    perm = iota_permutation(basis6[1])
    i, j = [k for k in range(43) if perm[k] == k][:2]
    perm[i], perm[j] = j, i
    monkeypatch.setattr(invariants, "iota_permutation", lambda elements: perm)
    with pytest.raises(ValueError, match="eigenvector"):
        iota_split(basis6[1])
