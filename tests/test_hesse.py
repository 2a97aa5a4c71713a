from fractions import Fraction

import pytest

from coble import hesse
from coble.hesse import (PENCIL, X_RING, Y_RING, SingularSystem,
                         cusp_system, cusp_system_residuals, det3,
                         dual_coefficients, dual_coefficients_from_discriminant,
                         dual_sextic,
                         dual_sextic_from_cusp_system,
                         finite_field_duality_oracle, s_basis)
from coble.fields import Eisenstein
from coble.poly import NotInSpan, PolyRing
from hesse_oracle import (ZeroGradient, cusp_orbit, cusp_orbit_check,
                          gradient_map, hessian_determinant_at,
                          inflection_orbit, on_pencil_member, plane_orbit,
                          proj_eq)
from linalg_oracle import ExactMatrix, QwFraction
from nu_oracle import substitute

RATIONALS = (0, 1, 2, -1, Fraction(7, 3), Fraction(-5, 11), Fraction(1, 2))


def quartics_in_gradient_ideal(lam):
    """The rank of the 18 products (partial of f_lam) * (quadric monomial)
    in the 15 quartic monomials; 15 means every quartic, so the partials
    have no common zero and f_lam is smooth."""
    f = substitute(PENCIL, {"lam": lam})
    names = ("X0", "X1", "X2")
    quadrics = [X_RING.var(a) * X_RING.var(b)
                for i, a in enumerate(names) for b in names[i:]]
    products = [f.partial_derivative(v) * m for v in names for m in quadrics]
    quartics = sorted({e for p in products for e in p.terms})
    assert len(quartics) == 15
    return ExactMatrix([[p.terms.get(e, 0) for e in quartics]
                        for p in products]).rank()


def test_smoothness():
    """f_2 is smooth; f_1 is singular at (1 : 1 : 1)."""
    assert quartics_in_gradient_ideal(2) == 15
    assert quartics_in_gradient_ideal(1) < 15
    assert PENCIL.evaluate({"X0": 1, "X1": 1, "X2": 1, "lam": 1}) == 0
    with pytest.raises(ZeroGradient):
        gradient_map(1, (1, 1, 1))


def test_closed_form_examples():
    s1, s2, s3, s4 = s_basis(Y_RING)
    assert dual_sextic(0) == s1 - 2 * s2
    assert dual_coefficients(Fraction(1)) == (2, -6, 9)
    assert dual_coefficients(Fraction(2))[2] == -24


@pytest.mark.parametrize("q", RATIONALS, ids=str)
def test_numeric_sextic_is_the_formal_one_at_q(q):
    formal = dual_sextic(Y_RING.var("lam"))
    assert dual_sextic(q) == substitute(formal, {"lam": q})


def test_discriminant_gives_the_closed_form():
    # Identically in lam: also at lam = 0, where the cusp system is singular.
    assert dual_coefficients_from_discriminant(hesse.pencil) == \
        dual_coefficients(Y_RING.var("lam"))


def test_discriminant_refuses_a_cubic_off_the_pencil():
    # f_lam + X0^2 X1 is no Hesse cubic: its dual is no S1..S4 combination.
    with pytest.raises(NotInSpan, match="discriminant"):
        dual_coefficients_from_discriminant(
            lambda x0, x1, x2, lam: hesse.pencil(x0, x1, x2, lam) + x0 * x0 * x1)


def test_cusp_system_matches_closed_form():
    for lam in (2, 3, 5, Fraction(7, 3), -1):
        assert dual_sextic_from_cusp_system(lam) == \
            dual_coefficients(Fraction(lam))


def test_cusp_system_singular_at_zero():
    with pytest.raises(SingularSystem):
        dual_sextic_from_cusp_system(0)


def test_cusp_system_determinant():
    lam = PolyRing(("lam",)).var("lam")
    rows, _ = cusp_system(lam)
    assert det3(rows) == 6 * lam * (lam ** 3 - 1) ** 2


@pytest.mark.parametrize("lam", RATIONALS, ids=str)
def test_cusp_system_by_cramer(lam):
    # Singular exactly where the determinant 6 lam (lam^3 - 1)^2 vanishes.
    if lam in (0, 1):
        with pytest.raises(SingularSystem,
                           match=f"^cusp system is singular at lam = {lam}$"):
            dual_sextic_from_cusp_system(lam)
    else:
        assert dual_sextic_from_cusp_system(lam) == \
            dual_coefficients(Fraction(lam))


def hand_expanded_cusp_equations(lam, a1, a2, a3):
    """The three printed cusp equations with the a-free terms on the left,
    expanded by hand."""
    return [
        6 * lam ** 5 + 6 * a1 * lam ** 2 + a2 * (4 * lam ** 3 + 2) + 2 * a3 * lam,
        6 + 3 * a1 * (lam ** 3 + 1) + a2 * lam * (lam ** 3 + 5) + 2 * a3 * lam ** 2,
        9 * a1 * lam ** 2 + a2 * (4 * lam ** 3 + 5) + 4 * a3 * lam,
    ]


def test_cusp_system_identities():
    residuals = cusp_system_residuals()
    assert all(r.is_zero() for r in residuals)
    lam = PolyRing(("lam",)).var("lam")
    assert residuals == hand_expanded_cusp_equations(lam, *dual_coefficients(lam))


def test_cusp_rows_are_the_hand_expansion_term_for_term():
    """At a = (lam + 1, lam^2, 3 lam - 2), which solves none of the
    equations, row . a - rhs equals the hand expansion term for term."""
    ring = PolyRing(("lam",))
    lam = ring.var("lam")
    a = (lam + 1, lam ** 2, 3 * lam - 2)
    rows, rhs = cusp_system(lam)
    derived = [row[0] * a[0] + row[1] * a[1] + row[2] * a[2] - b
               for row, b in zip(rows, rhs)]
    assert derived == hand_expanded_cusp_equations(lam, *a)
    assert all(derived)


def explicit_gradient(lam, x0, x1, x2):
    return (3 * x0 ** 2 - 3 * lam * x1 * x2,
            3 * x1 ** 2 - 3 * lam * x0 * x2,
            3 * x2 ** 2 - 3 * lam * x0 * x1)


@pytest.mark.parametrize("lam", RATIONALS, ids=str)
def test_gradient_map_is_the_explicit_gradient(lam):
    for point in ((1, 0, 0), (0, 1, -1), (1, 2, 3), (Fraction(1, 2), -3, 5),
                  (Fraction(-2, 7), Fraction(3, 4), 1)):
        assert gradient_map(lam, point) == explicit_gradient(lam, *point)


def test_gradient_map():
    assert proj_eq(gradient_map(Fraction(5), (0, 1, -1)), (5, 1, 1))
    assert proj_eq(gradient_map(0, (1, -1, 0)), (1, 1, 0))
    with pytest.raises(ZeroGradient):
        gradient_map(1, (1, 1, 1))


def test_inflection_orbit():
    orbit = inflection_orbit()
    assert len(orbit) == 9
    for pt in orbit:
        assert on_pencil_member(pt).is_zero()
        assert hessian_determinant_at(pt).is_zero()


def test_plane_orbit_of_rational_input_is_exact():
    orbit = plane_orbit((1, 2, 3))
    assert len(orbit) == 9
    assert orbit == plane_orbit(tuple(Eisenstein(c) for c in (1, 2, 3)))
    assert orbit == plane_orbit((Fraction(1, 3), Fraction(2, 3), 1))
    assert all(type(c) is QwFraction for pt in orbit for c in pt)
    assert orbit[0] == (1, 2, 3)
    with pytest.raises(ValueError):
        plane_orbit((0, 0, 0))


def test_cusp_point_identities():
    report = cusp_orbit_check()
    for name, residual in report.items():
        assert residual.is_zero(), name


def test_cusp_orbit_distinct():
    orbit, distinct = cusp_orbit(2)
    assert len(orbit) == 9 and distinct


def test_oracle_small():
    report = finite_field_duality_oracle(0, 13)
    assert report["counterexamples"] == 0 and report["hasse_ok"]
    report = finite_field_duality_oracle(2, 997)
    assert report["points"] == 1008


def test_oracle_rejects_singular_member():
    with pytest.raises(ValueError):
        finite_field_duality_oracle(1, 13)
    with pytest.raises(ValueError):
        finite_field_duality_oracle(3, 13)  # 27 = 1 mod 13


def test_duality_check_is_not_vacuous():
    """The dual sextic does not vanish on gradients of off-curve points, so
    the oracle's membership test is a live check."""
    lam = Fraction(2)
    sextic = dual_sextic(lam)
    grad = gradient_map(lam, (1, 1, 0))  # (1:1:0) is not on the curve
    value = sextic.evaluate(
        {"Y0": grad[0], "Y1": grad[1], "Y2": grad[2], "lam": lam})
    assert value != 0
