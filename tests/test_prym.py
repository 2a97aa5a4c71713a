import pytest

from coble import prym
from coble.prym import (I2, J_TILDE, InadmissibleCover, IntMatrix2,
                        NoSolution, NonIntegralGenus, T, dihedral_identities,
                        genus_of_quotient, group_generated_by_T_J, phi_matrix,
                        polarization_beta_solve, prym_dimension_match)


def test_matrix_arithmetic():
    assert T * T * T == I2
    assert J_TILDE * J_TILDE == I2
    assert (-T).det() == T.det() == 1


def test_dihedral_identities():
    report = dihedral_identities()
    assert all(report.values()), report


def test_group_order():
    assert len(group_generated_by_T_J()) == 6


def test_polarization_solution():
    sol = polarization_beta_solve()
    assert sol["beta"] == -1
    assert sol["det"] == 3
    assert sol["kernel_mod_3"] == [(0, 0), (1, 2), (2, 1)]
    assert sol["kernel_is_antidiagonal"]


@pytest.mark.parametrize("phi, message", [
    # the residual vanishes at beta = -1/2 only
    (lambda beta: IntMatrix2(2, 2 * beta, 2 * beta, 2), "not an integer"),
    (lambda beta: IntMatrix2(2, 1, 1, 2), "no entry"),
])
def test_polarization_without_integer_solution(monkeypatch, phi, message):
    monkeypatch.setattr(prym, "phi_matrix", phi)
    with pytest.raises(NoSolution, match=message):
        polarization_beta_solve()


def test_phi_matrix_at_solution():
    phi = phi_matrix(-1)
    assert phi.det() == 3


def test_genus_formula_odd():
    assert genus_of_quotient(3, 2) == 1
    assert genus_of_quotient(5, 3) == 4


def test_genus_formula_even():
    assert genus_of_quotient(2, 2, t_size=2) == 1
    with pytest.raises(InadmissibleCover):
        genus_of_quotient(2, 2, t_size=6)  # genus would be negative
    with pytest.raises(InadmissibleCover):
        genus_of_quotient(2, 3, t_size=3)  # odd branch count


@pytest.mark.parametrize("n, g, t_size", [(2, 2, -2), (4, 2, -4), (2, 3, -1),
                                          (3, 2, -2), (5, 3, -1)])
def test_negative_set_size_is_no_cover(n, g, t_size):
    # (2, 2, -2) and (4, 2, -4) gave genera 3 and 5 before
    with pytest.raises(InadmissibleCover, match="must be >= 0"):
        genus_of_quotient(n, g, t_size)


def test_genus_formula_fractional():
    from fractions import Fraction
    with pytest.raises(NonIntegralGenus):
        genus_of_quotient(3, Fraction(3, 2))


def test_prym_dimensions():
    for n in (3, 5, 7, 9):
        for g in range(2, 7):
            assert prym_dimension_match(n, g)["match"]
