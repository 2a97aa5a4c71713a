"""Shared hypothesis property suites (200 randomized cases each).

Each suite is a plain callable built with @given.  The unit test of its
module and acceptance criterion 11 both call it through `run_once`, so one
test run executes each suite once, whichever of the two comes first.
"""

from fractions import Fraction
from functools import cache

from hypothesis import given, settings, strategies as st

from coble.heisenberg import HeisenbergElement, act_on_polynomial, theta_ring
from coble.poly import PolyRing
from heisenberg_oracle import action_matrix, group_mul, is_central, omega_pow
from linalg_oracle import ExactMatrix, QwFraction, qw

CASES = settings(max_examples=200, deadline=None)

small_fraction = st.builds(Fraction, st.integers(-9, 9),
                           st.integers(1, 9))
eisenstein = st.builds(QwFraction, small_fraction, small_fraction)
heisenberg_element = st.builds(HeisenbergElement, st.integers(0, 2),
                               st.tuples(st.integers(0, 2), st.integers(0, 2)),
                               st.tuples(st.integers(0, 2), st.integers(0, 2)))


@CASES
@given(eisenstein, eisenstein, eisenstein)
def prop_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + (-a) == 0
    if a != 0:
        assert a * a.inverse() == 1


_ring = PolyRing(("x", "y", "z"))
_monomial = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
_poly = st.dictionaries(_monomial, eisenstein, min_size=0, max_size=5).map(
    lambda terms: _ring.from_terms(terms))


@CASES
@given(_poly, _poly)
def prop_leibniz(f, g):
    for v in ("x", "y", "z"):
        left = (f * g).partial_derivative(v)
        right = f.partial_derivative(v) * g + f * g.partial_derivative(v)
        assert left == right


@CASES
@given(_monomial, eisenstein)
def prop_euler_homogeneous(exps, coeff):
    p = _ring.from_terms({exps: coeff})
    euler = _ring.zero()
    for v in ("x", "y", "z"):
        euler = euler + _ring.var(v) * p.partial_derivative(v)
    assert euler == sum(exps) * p


_theta_poly_ring = theta_ring()
_theta_exps = st.tuples(*[st.integers(0, 2)] * 9)
_theta_poly = st.dictionaries(_theta_exps, eisenstein, min_size=1,
                              max_size=4).map(
    lambda terms: _theta_poly_ring.from_terms(terms))


@CASES
@given(heisenberg_element, heisenberg_element, _theta_poly)
def prop_action_composition(g, h, p):
    assert act_on_polynomial(group_mul(g, h), p) == \
        act_on_polynomial(g, act_on_polynomial(h, p))


@CASES
@given(heisenberg_element)
def prop_eigenvalue_multiplicity(g):
    """Noncentral elements act with each cube root of unity as an eigenvalue
    of multiplicity exactly 3."""
    if is_central(g):
        return
    m = action_matrix(g)
    for k in range(3):
        shifted = ExactMatrix([
            [m.entries[i][j] - (qw(omega_pow(k)) if i == j else 0)
             for j in range(9)] for i in range(9)])
        assert len(shifted.rank_and_kernel()[1]) == 3


_matrix = st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.builds(QwFraction,
                               st.builds(Fraction, st.integers(-4, 4)),
                               st.builds(Fraction, st.integers(-4, 4))),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@CASES
@given(_matrix)
def prop_rank_nullity_random(entries):
    m = ExactMatrix(entries)
    rank, kernel = m.rank_and_kernel()
    assert rank + len(kernel) == m.cols
    assert rank == m.transpose().rank()
    zero = [0] * m.rows
    for v in kernel:
        assert m.mul_vector(v) == zero


ALL_SUITES = [prop_field_axioms, prop_leibniz, prop_euler_homogeneous,
              prop_action_composition, prop_eigenvalue_multiplicity,
              prop_rank_nullity_random]


@cache
def run_once(suite):
    """Run `suite` unless it already passed in this process.  A failure is
    not cached: it is raised again, by a fresh run, to every caller."""
    suite()
