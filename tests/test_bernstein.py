"""Bernstein basis: tridiagonal matrix, monomial images, and norms."""

import math
from fractions import Fraction

import pytest

from polydiff.bernstein import bernstein_norm_table, diff_matrix_bernstein
from polydiff.core import BernsteinBasis, DenseMatrix, mat_power
from polydiff.structure import conjugation_oracle, monomial_images, nilpotency_index

import _oracles as orc


def test_degree_four_reference_matrix():
    assert diff_matrix_bernstein(4).to_rows() == [
        [-4, 4, 0, 0, 0],
        [-1, -2, 3, 0, 0],
        [0, -2, 0, 2, 0],
        [0, 0, -3, 2, 1],
        [0, 0, 0, -4, 4],
    ]


def test_tridiagonal_entries():
    for n in (1, 5, 12):
        D = diff_matrix_bernstein(n)
        for i in range(n + 1):
            for j in range(n + 1):
                if j == i - 1:
                    want = -i
                elif j == i:
                    want = 2 * i - n
                elif j == i + 1:
                    want = n - i
                else:
                    want = 0
                assert D[i, j] == want


def test_degree_zero_and_errors():
    assert diff_matrix_bernstein(0).to_rows() == [[0]]
    with pytest.raises(ValueError):
        diff_matrix_bernstein(-1)


def test_row_sums_vanish():
    for n in range(13):
        D = diff_matrix_bernstein(n)
        for i in range(n + 1):
            assert sum(D.row(i), Fraction(0)) == 0


def test_norm_table_identities():
    for n, norm_d, norm_dn in bernstein_norm_table(12):
        assert norm_d == 2 * n
        assert norm_dn == 2 ** n * math.factorial(n)


def test_power_past_dimension_vanishes():
    for n in (1, 4, 9):
        D = diff_matrix_bernstein(n)
        assert mat_power(D, n + 1) == DenseMatrix.zeros(n + 1, n + 1)
        assert nilpotency_index(D) == n + 1


def test_bernstein_images_entries():
    n = 6
    M = monomial_images(BernsteinBasis(n))
    for k in range(n + 1):
        assert M.column(k) == tuple(Fraction(math.comb(i, k), math.comb(n, k))
                                    for i in range(n + 1))
    # partition of unity: the constant expands with all-ones coefficients
    assert M.column(0) == (1,) * (n + 1)


def test_bernstein_images_are_correct_expansions():
    n, k = 5, 3
    col = monomial_images(BernsteinBasis(n)).column(k)
    polys = orc.bernstein_polys(n)
    p = [Fraction(0)]
    for c, b in zip(col, polys):
        p = orc.poly_add(p, orc.poly_scale(b, c))
    assert orc.poly_trim(p) == [0, 0, 0, 1]


def test_matrix_equals_expansion_oracle():
    for n in (1, 3, 6):
        want = DenseMatrix.from_rows(
            orc.diff_matrix_by_expansion(orc.bernstein_polys(n)))
        assert diff_matrix_bernstein(n) == want


def test_matrix_equals_conjugation_oracle():
    for n in (2, 4, 7):
        assert diff_matrix_bernstein(n) == conjugation_oracle(BernsteinBasis(n))
