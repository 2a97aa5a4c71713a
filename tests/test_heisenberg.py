from itertools import product

import pytest

from coble.heisenberg import (COORD_INDEX, COORDS, TRANSLATIONS,
                              HeisenbergElement, act_on_polynomial,
                              classes_mod_sign, generators, neg2, orbit_sum,
                              theta_ring, translation_getters)
from heisenberg_oracle import (IDENTITY, action_matrix, add2, group_mul,
                               inverse, is_central, omega_pow, weil_form)
from properties import (prop_action_composition, prop_eigenvalue_multiplicity,
                        run_once)


def test_action_on_coordinate():
    ring = theta_ring()
    g = HeisenbergElement(1, (1, 0), (0, 1))
    # (t,x,x*) . Z_b = w^t w^(x*.(b-x)) Z_{b-x}
    image = act_on_polynomial(g, ring.var("Z21"))
    assert image == omega_pow(1 + 1) * ring.var("Z11")


def test_group_inverse_and_identity():
    for g in [HeisenbergElement(1, (2, 1), (0, 2)),
              HeisenbergElement(2, (0, 0), (1, 1))] + generators():
        assert group_mul(g, inverse(g)) == IDENTITY
        assert group_mul(inverse(g), g) == IDENTITY
        assert group_mul(g, IDENTITY) == g


def test_center_commutators():
    """ghg^-1h^-1 is central with exponent the commutator pairing."""
    g = HeisenbergElement(0, (1, 0), (0, 0))
    h = HeisenbergElement(0, (0, 0), (1, 0))
    comm = group_mul(group_mul(g, h), group_mul(inverse(g), inverse(h)))
    assert is_central(comm)
    assert comm.t_exp != 0


def test_weil_form_nondegenerate():
    basis = generators()
    # empty radical: no nonzero element pairs to zero with all of A[3]
    for key in range(1, 81):
        v = [(key // 3 ** i) % 3 for i in range(4)]
        a = HeisenbergElement(0, (v[0], v[1]), (v[2], v[3]))
        assert not all(weil_form(a, b) == 0 for b in basis)
    assert weil_form(basis[0], basis[2]) != weil_form(basis[2], basis[0])


def test_classes_mod_sign():
    # One t = 0 element per class {eta, -eta}, the one with the smaller key
    # x + x*, in the order of the keys: with the negatives, all 80 nonzero
    # classes of A[3].
    classes = classes_mod_sign()
    keys = [g.x + g.xstar for g in classes]
    negatives = [neg2(g.x) + neg2(g.xstar) for g in classes]
    assert len(classes) == 40 and all(g.t_exp == 0 for g in classes)
    assert keys == sorted(keys)
    assert all(key < neg for key, neg in zip(keys, negatives))
    assert sorted(keys + negatives) == [v for v in product(range(3), repeat=4)
                                        if any(v)]


def test_action_matrix_matches_polynomial_action():
    ring = theta_ring()
    g = HeisenbergElement(2, (1, 2), (2, 1))
    m = action_matrix(g)
    for j, b in enumerate(COORDS):
        image = act_on_polynomial(g, ring.var(f"Z{b[0]}{b[1]}"))
        col = [m.entries[i][j] for i in range(9)]
        expected = [image.terms.get(tuple(1 if k == i else 0
                                          for k in range(9)), 0)
                    for i in range(9)]
        assert col == expected


def test_orbit_sum():
    ring = theta_ring()
    p = orbit_sum(ring, (6, 0, 0, 0, 0, 0, 0, 0, 0))
    assert len(p.terms) == 9 and all(c == 1 for c in p.terms.values())
    for g in generators():
        assert act_on_polynomial(g, p) == p


def translate_by_add2(exps, shift):
    """Z_b -> Z_{b+shift}, entry by entry; trailing exponents pass through."""
    out = list(exps)
    for k, b in enumerate(COORDS):
        out[COORD_INDEX[add2(b, shift)]] = exps[k]
    return tuple(out)


def test_translation_table_equals_add2():
    exps = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)  # two parameter exponents
    assert len(TRANSLATIONS) == 9
    for n in (9, 10, 11):  # no, one and two parameter exponents
        getters = translation_getters(n)
        assert len(getters) == 9
        for shift, translate in zip(COORDS, getters):
            assert translate(exps[:n]) == translate_by_add2(exps, shift)[:n]
    assert translation_getters(9)[0](exps[:9]) == exps[:9]


def test_orbit_sum_rejects_noninvariant_seed():
    from coble.heisenberg import NotKhatInvariant
    ring = theta_ring()
    with pytest.raises(NotKhatInvariant):
        orbit_sum(ring, (0, 1, 0, 0, 0, 0, 0, 0, 0))


def test_action_composition_suite():
    run_once(prop_action_composition)


def test_eigenvalue_multiplicity_suite():
    run_once(prop_eigenvalue_multiplicity)
