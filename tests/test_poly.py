from fractions import Fraction
from math import comb

import pytest

from coble import hesse
from coble.cli import jsonable
from coble.coble_forms import barth_quadrics, coble_cubic
from coble.fields import OMEGA, Eisenstein
from coble.heisenberg import theta_ring
from coble.invariants import pinned_basis
from coble.poly import NotInSpan, Polynomial, PolyRing
from nu_oracle import coefficient_in_basis, substitute
from properties import prop_euler_homogeneous, prop_leibniz, run_once


@pytest.fixture
def ring():
    return PolyRing(("x", "y"))


def test_arithmetic(ring):
    x, y = ring.var("x"), ring.var("y")
    p = (x + y) ** 2
    assert p == x ** 2 + 2 * x * y + y ** 2
    assert p - p == ring.zero()
    assert (p * 0).is_zero()
    assert 3 * x - x == 2 * x


def test_power_stops_squaring_after_the_last_bit(ring, monkeypatch):
    x, y = ring.var("x"), ring.var("y")
    calls = []
    mul = Polynomial.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    # The product starts from the first factor, not from 1.
    for n, products in ((0, 0), (1, 0), (3, 2), (8, 3)):
        calls.clear()
        (x + y) ** n
        assert len(calls) == products, n
    for n in range(9):
        calls.clear()
        power = (x + y) ** n
        assert len(calls) == (bin(n).count("1") + n.bit_length() - 2
                              if n else 0), n
        assert power.terms == {(k, n - k): Fraction(comb(n, k))
                               for k in range(n + 1)}, n


def test_partial_derivative(ring):
    x, y = ring.var("x"), ring.var("y")
    p = x ** 3 * y + 2 * y ** 2
    assert p.partial_derivative("x") == 3 * x ** 2 * y
    assert p.partial_derivative("y") == x ** 3 + 4 * y


def test_substitute_and_evaluate(ring):
    x, y = ring.var("x"), ring.var("y")
    p = x ** 2 + y
    assert substitute(p, {"x": y}) == y ** 2 + y
    assert substitute(p, {"x": 2, "y": 3}) == ring.const(7)
    assert p.evaluate({"x": Fraction(2), "y": Fraction(3)}) == 7


def test_substitute_across_rings():
    src = PolyRing(("a", "b"))
    dst = PolyRing(("b", "c"))
    p = src.var("a") * 2 + src.var("b")
    q = substitute(p, {"a": dst.var("c") * OMEGA}, target_ring=dst)
    assert q == 2 * OMEGA * dst.var("c") + dst.var("b")


@pytest.mark.parametrize("ring", [theta_ring(), hesse.X_RING],
                         ids=["theta", "hesse"])
def test_coefficients_keep_their_type_and_refuse_others(ring):
    # A coefficient is an int, a Fraction or an Eisenstein, kept as given;
    # a float, a str or anything else raises TypeError.
    e = (0,) * (ring.nvars - 1) + (1,)
    p = ring.var(ring.varnames[0])
    for c in (1, Fraction(1, 2), OMEGA):
        assert ring.from_terms({e: c}).terms == {e: c}
        assert type(ring.const(c).terms[(0,) * ring.nvars]) is type(c)
    assert type(ring.one().terms[(0,) * ring.nvars]) is int
    assert ring.const(Fraction(1)) == ring.const(Eisenstein(1))
    assert all(type(c) is int for c in (3 * p + 1).terms.values())
    for refused in (lambda: p + 0.5, lambda: 0.5 + p, lambda: p * "x",
                    lambda: ring.const(1.5), lambda: ring.const(None),
                    lambda: ring.from_terms({e: 0.5})):
        with pytest.raises(TypeError):
            refused()


def test_production_coefficients_are_exact():
    # A float compares equal to an int, so no identity check would notice
    # one (an int / int in the discriminant route makes them).
    polys = {
        "PENCIL": [hesse.PENCIL],
        "S_BASIS": hesse.S_BASIS,
        "dual_sextic(2/3)": [hesse.dual_sextic(Fraction(2, 3))],
        "discriminant route": list(hesse.dual_coefficients_from_discriminant(
            hesse.pencil)),
        "coble_cubic": [coble_cubic()],
        "barth_quadrics": list(barth_quadrics().values()),
        "pinned_basis(6)": pinned_basis(theta_ring(), 6)[1],
    }
    for name, ps in polys.items():
        assert ps and all(p.terms for p in ps), name
        kinds = {type(c) for p in ps for c in p.terms.values()}
        assert kinds <= {int, Fraction, Eisenstein}, (name, kinds)


def test_graded_lex_order(ring):
    x, y = ring.var("x"), ring.var("y")
    p = x + y ** 2 + x * y
    exps = [e for e, _ in p.sorted_terms()]
    # ascending total degree, then lex on the exponent tuple
    assert exps == [(1, 0), (0, 2), (1, 1)]


def test_to_json(ring):
    x = ring.var("x")
    assert jsonable(2 * x) == [{"coeff": "2", "exps": [1, 0]}]


def test_coefficient_in_basis(ring):
    x, y = ring.var("x"), ring.var("y")
    basis = [x ** 2, x * y]
    coords = coefficient_in_basis(3 * x ** 2 - x * y, basis)
    assert coords == [Fraction(3), Fraction(-1)]
    with pytest.raises(NotInSpan):
        coefficient_in_basis(y ** 2, basis)


def test_leibniz_suite():
    run_once(prop_leibniz)


def test_euler_suite():
    run_once(prop_euler_homogeneous)
