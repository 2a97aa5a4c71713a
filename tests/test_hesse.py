from fractions import Fraction

import pytest

from coble.hesse import (Y_RING, DualSextic, HesseCubic,
                         SingularSystem, ZeroGradient, cusp_orbit,
                         cusp_orbit_check, cusp_system_residuals,
                         dual_sextic_closed_form, dual_sextic_from_cusp_system,
                         finite_field_duality_oracle, gradient_map,
                         hessian_determinant_at, inflection_orbit,
                         on_pencil_member, plane_orbit, proj_eq,
                         run_default_oracle, s_basis)
from coble.fields import QW, Eisenstein
from coble.linalg import ExactMatrix


def test_smoothness():
    assert HesseCubic(2).is_smooth()
    assert not HesseCubic(1).is_smooth()


def test_closed_form_examples():
    s1, s2, s3, s4 = s_basis(Y_RING)
    assert dual_sextic_closed_form(0).poly == s1 - 2 * s2
    assert DualSextic(1).coefficient_values() == (2, -6, 9)
    assert DualSextic(2).coefficient_values()[2] == -24


def test_cusp_system_matches_closed_form():
    for lam in (2, 3, 5, Fraction(7, 3), -1):
        assert dual_sextic_from_cusp_system(lam) == \
            DualSextic(lam).coefficient_values()


def test_cusp_system_singular_at_zero():
    with pytest.raises(SingularSystem):
        dual_sextic_from_cusp_system(0)


def test_cusp_system_is_eliminated_once(monkeypatch):
    shapes = []
    rref = ExactMatrix.rref

    def counting(self):
        shapes.append((self.rows, self.cols))
        return rref(self)

    monkeypatch.setattr(ExactMatrix, "rref", counting)
    assert dual_sextic_from_cusp_system(2) == DualSextic(2).coefficient_values()
    assert shapes == [(3, 4)]
    shapes.clear()
    with pytest.raises(SingularSystem, match="singular at lam = 0"):
        dual_sextic_from_cusp_system(0)
    assert shapes == [(3, 4)]


def test_cusp_system_identities():
    assert all(r.is_zero() for r in cusp_system_residuals())


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
    assert orbit == plane_orbit(tuple(QW.coerce(c) for c in (1, 2, 3)))
    assert orbit == plane_orbit((Fraction(1, 3), Fraction(2, 3), 1))
    assert all(type(c) is Eisenstein for pt in orbit for c in pt)
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


def test_default_oracle_grid():
    reports = run_default_oracle()
    assert len(reports) == 9
    assert all(r["status"] in ("ok", "skipped_singular_reduction")
               for r in reports)
    ok = [r for r in reports if r["status"] == "ok"]
    assert len(ok) == 7
    assert all(r["counterexamples"] == 0 and r["hasse_ok"] for r in ok)


def test_duality_check_is_not_vacuous():
    """The dual sextic does not vanish on gradients of off-curve points, so
    the oracle's membership test is a live check."""
    lam = Fraction(2)
    sextic = DualSextic(lam).poly
    grad = gradient_map(lam, (1, 1, 0))  # (1:1:0) is not on the curve
    value = sextic.evaluate(
        {"Y0": grad[0], "Y1": grad[1], "Y2": grad[2], "lam": lam})
    assert value != 0
