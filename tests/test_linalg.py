from fractions import Fraction

from coble.fields import OMEGA, QQ, QW
from heisenberg_oracle import OMEGA2
from linalg_oracle import ExactMatrix
from properties import prop_rank_nullity_random, run_once


def test_identity_rank():
    m = ExactMatrix.identity(QQ, 5)
    rank, kernel = m.rank_and_kernel()
    assert rank == 5 and kernel == []


def test_rank_one_eisenstein():
    # row2 = w^2 * row1 since w^2 * w = 1
    m = ExactMatrix(QW, [[QW.one(), OMEGA], [OMEGA2, QW.one()]])
    rank, kernel = m.rank_and_kernel()
    assert rank == 1 and len(kernel) == 1
    v = kernel[0]
    # kernel is spanned by (-w, 1)
    assert v[0] * QW.one() == v[1] * (-OMEGA)
    assert m.mul_vector(v) == [QW.zero()] * 2


def test_rref_pivots():
    m = ExactMatrix(QQ, [[0, 2, 4], [1, 1, 1]])
    rows, pivots = m.rref()
    assert pivots == [0, 1]
    assert rows[0] == [Fraction(1), Fraction(0), Fraction(-1)]
    assert rows[1] == [Fraction(0), Fraction(1), Fraction(2)]


def test_solve():
    m = ExactMatrix(QQ, [[1, 2], [3, 4]])
    assert m.solve([Fraction(5), Fraction(11)]) == [Fraction(1), Fraction(2)]
    singular = ExactMatrix(QQ, [[1, 1], [2, 2]])
    assert singular.solve([Fraction(0), Fraction(1)]) is None


def test_row_space_contains():
    m = ExactMatrix(QQ, [[1, 0, 1], [0, 1, 1]])
    assert m.row_space_contains([Fraction(2), Fraction(3), Fraction(5)])
    assert not m.row_space_contains([Fraction(0), Fraction(0), Fraction(1)])


def test_transpose_and_vector():
    m = ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6]])
    assert m.transpose().entries == [[1, 4], [2, 5], [3, 6]]
    assert m.mul_vector([1, 1, 1]) == [Fraction(6), Fraction(15)]


def test_rank_nullity_suite():
    run_once(prop_rank_nullity_random)
