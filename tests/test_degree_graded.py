"""Degree-graded constructors: closed forms, the Q recurrence, and Newton bases."""

import math
import random
from fractions import Fraction

import pytest

from polydiff.core import DegreeGradedBasis, DenseMatrix, Field, NodeSet, mat_apply
from polydiff.degree_graded import (
    RecurrenceSpec,
    chebyshev_antideriv_matrix,
    chebyshev_diff_matrix,
    chebyshev_recurrence,
    diff_matrix_degree_graded,
    legendre_antideriv_matrix,
    legendre_diff_matrix,
    legendre_recurrence,
    monomial_diff_matrix,
    monomial_recurrence,
    newton_basis,
    newton_diff_matrix,
    newton_recurrence,
)
from polydiff.structure import conjugation_oracle, monomial_images

import _oracles as orc


def oracle_matrix(rec: RecurrenceSpec, n: int) -> DenseMatrix:
    """Independent construction: expand, differentiate, re-expand, solve."""
    polys = orc.degree_graded_polys(rec.alpha, rec.beta, rec.gamma, n)
    return DenseMatrix.from_rows(orc.diff_matrix_by_expansion(polys))


# ---------------------------------------------------------------- monomial

def test_monomial_matrix_is_the_superdiagonal():
    D = diff_matrix_degree_graded(monomial_recurrence(4), 4)
    assert D.to_rows() == [
        [0, 1, 0, 0, 0],
        [0, 0, 2, 0, 0],
        [0, 0, 0, 3, 0],
        [0, 0, 0, 0, 4],
        [0, 0, 0, 0, 0],
    ]


def test_degree_zero_matrix():
    D = diff_matrix_degree_graded(monomial_recurrence(0), 0)
    assert D.to_rows() == [[0]]


# ---------------------------------------------------------------- chebyshev

def test_chebyshev_closed_form_equals_recurrence_up_to_20():
    for n in range(21):
        assert chebyshev_diff_matrix(n) == diff_matrix_degree_graded(
            chebyshev_recurrence(n), n), f"n={n}"


def test_chebyshev_column_spreads_2k():
    D = chebyshev_diff_matrix(7)
    assert list(D.column(7)) == [7, 0, 14, 0, 14, 0, 14, 0]
    assert list(D.column(4)) == [0, 8, 0, 8, 0, 0, 0, 0]
    assert list(D.column(0)) == [0] * 8


def test_chebyshev_antideriv_columns():
    A = chebyshev_antideriv_matrix(3)
    assert list(A.column(0)) == [0, 1, 0, 0]
    assert list(A.column(1)) == [0, 0, Fraction(1, 4), 0]
    assert list(A.column(2)) == [0, Fraction(-1, 2), 0, Fraction(1, 6)]
    assert list(A.row(0)) == [0, 0, 0, 0]


def test_chebyshev_antideriv_then_diff_recovers():
    rng = random.Random(7)
    for n in (3, 6, 11):
        D = chebyshev_diff_matrix(n)
        A = chebyshev_antideriv_matrix(n)
        # degree < n so the truncated last column never matters
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] + [Fraction(0)]
        back = mat_apply(A, mat_apply(D, c))
        assert list(back)[1:] == list(c)[1:]


# ---------------------------------------------------------------- legendre

def test_legendre_row_pattern_up_to_20():
    for n in (5, 12, 20):
        D = diff_matrix_degree_graded(legendre_recurrence(n), n)
        for r in range(n + 1):
            for c in range(n + 1):
                want = 2 * r + 1 if (c > r and (c - r) % 2 == 1) else 0
                assert D[r, c] == want


def test_legendre_antideriv_tridiagonal():
    A = legendre_antideriv_matrix(5)
    assert A[1, 0] == 1 and A[1, 2] == Fraction(-1, 5)
    assert A[2, 1] == Fraction(1, 3) and A[2, 3] == Fraction(-1, 7)
    assert A[4, 3] == Fraction(1, 7) and A[4, 5] == Fraction(-1, 11)
    # the free-constant slot is emitted as zero
    assert list(A.row(0)) == [0] * 6


def test_legendre_antideriv_then_diff_recovers():
    rng = random.Random(8)
    for n in (3, 8):
        D = diff_matrix_degree_graded(legendre_recurrence(n), n)
        A = legendre_antideriv_matrix(n)
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] + [Fraction(0)]
        back = mat_apply(A, mat_apply(D, c))
        assert list(back)[1:] == list(c)[1:]


@pytest.mark.parametrize("antideriv", [chebyshev_antideriv_matrix, legendre_antideriv_matrix])
def test_antideriv_at_degree_zero_drops_the_only_term(antideriv):
    # integrating T_0 = P_0 gives degree 1, outside the space, as T_{n+1} is at every n
    assert antideriv(0) == DenseMatrix.from_rows([[0]])
    with pytest.raises(ValueError):
        antideriv(-1)


# ---------------------------------------------------------------- newton

def nex_matrix(z):
    """The dimension-5 Newton matrix written out entry by entry."""
    z0, z1, z2, z3 = (Fraction(v) for v in z[:4])
    rows = [[Fraction(0)] * 5 for _ in range(5)]
    rows[0][1] = Fraction(1)
    rows[0][2] = z0 - z1
    rows[0][3] = (z0 - z2) * (z0 - z1)
    rows[0][4] = (z0 - z3) * (z0 - z2) * (z0 - z1)
    rows[1][2] = Fraction(2)
    rows[1][3] = -2 * z2 + z1 + z0
    rows[1][4] = (z1 - z3) * (z1 - 2 * z2 + z0) + (z0 - z2) * (z0 - z1)
    rows[2][3] = Fraction(3)
    rows[2][4] = -3 * z3 + z2 + z1 + z0
    rows[3][4] = Fraction(4)
    return DenseMatrix.from_rows(rows)


@pytest.mark.parametrize("z", [
    [0, 1, 2, 3, 4],
    [Fraction(1, 2), Fraction(-1, 3), 2, Fraction(-5, 4), 3],
])
def test_newton_matrix_matches_entrywise_formulas(z):
    assert newton_diff_matrix(z) == nex_matrix(z)


def test_newton_frozen_integer_centers():
    D = newton_diff_matrix([0, 1, 2, 3, 4])
    assert D.to_rows() == [
        [0, 1, -1, 2, -6],
        [0, 0, 2, -3, 8],
        [0, 0, 0, 3, -6],
        [0, 0, 0, 0, 4],
        [0, 0, 0, 0, 0],
    ]


def test_newton_equal_centers_is_monomial():
    D = newton_diff_matrix([Fraction(2, 3)] * 5)
    assert D == diff_matrix_degree_graded(monomial_recurrence(4), 4)


def test_newton_accepts_confluent_node_sets():
    ns = NodeSet([0, 1], [2, 2])
    assert newton_diff_matrix(ns) == newton_diff_matrix([0, 0, 1, 1])


def test_newton_rejects_empty():
    for construct in (newton_diff_matrix, newton_basis):
        with pytest.raises(ValueError, match="at least one center"):
            construct([])


def test_newton_basis_reads_centers_as_the_matrix_does():
    # a plain list may repeat centers; the oracle conjugates by that basis's monomial images
    assert newton_basis([1, 1, 2]).recurrence.beta == (1, 1, 2)
    # every center is checked, the last too, which the basis of degree len - 1 never uses
    for construct in (newton_diff_matrix, newton_basis):
        with pytest.raises(ValueError, match="finite"):
            construct([0.0, 1.0, float("nan")])
    assert newton_basis([1, 2, 0.5]).recurrence.field is newton_diff_matrix([1, 2, 0.5]).field \
        is Field.REAL
    rng = random.Random(1923)
    for _ in range(40):
        pool = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        zs = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        assert conjugation_oracle(newton_basis(zs)) == newton_diff_matrix(zs), zs
    ns = NodeSet([Fraction(1, 2), Fraction(-3), Fraction(2)], [3, 1, 2])
    basis = newton_basis(ns)
    assert basis.recurrence.beta == ns.flat_nodes() and basis.degree == 5
    assert conjugation_oracle(basis) == newton_diff_matrix(ns)


# ---------------------------------------------------------------- recurrence plumbing

def test_recurrence_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec([1, 0, 1])
    with pytest.raises(ValueError):
        RecurrenceSpec([1, 1], beta=[0])
    rec = RecurrenceSpec([1, 0.5])
    assert rec.field is Field.REAL and len(rec) == 2
    for bad in (float("nan"), float("inf"), -float("inf"),
                complex(float("nan"), 0), complex(1, float("inf"))):
        for alpha, beta, gamma in (([1, bad], None, None),
                                   ([1, 1], [0, bad], None),
                                   ([1, 1], None, [0, bad])):
            with pytest.raises(ValueError, match="finite"):
                RecurrenceSpec(alpha, beta, gamma)


def test_floating_images_against_expanded_polynomials():
    # dyadic coefficients, alpha a power of two, at a low degree: every float and complex
    # step is exact, so column k of the images must expand to x^k exactly
    exact = RecurrenceSpec([Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 4), Fraction(-2)],
                           [Fraction(-1, 4), Fraction(0), Fraction(1, 8), Fraction(3), Fraction(-2)],
                           [Fraction(0), Fraction(1, 2), Fraction(-5, 8), Fraction(1, 4), Fraction(1)])
    for rec in (RecurrenceSpec(*(map(float, v) for v in (exact.alpha, exact.beta, exact.gamma))),
                RecurrenceSpec(exact.alpha, [complex(b, b / 2) for b in exact.beta],
                               [complex(-g, g) for g in exact.gamma])):
        # the basis itself expanded exactly: alpha is real, beta and gamma as the recurrence has them
        polys = orc.degree_graded_polys(exact.alpha, rec.beta, rec.gamma, 5)
        M = monomial_images(DegreeGradedBasis(rec, 5))
        assert {type(x) for x in M.entries} == {type(rec.beta[0])}
        for k in range(6):
            p = [Fraction(0)]
            for c, phi in zip(M.column(k), polys):
                p = orc.poly_add(p, orc.poly_scale(phi, c))
            assert orc.poly_trim(p) == [0] * k + [1], (rec, k)


def test_diff_matrix_degree_graded_rejects_bad_degree():
    with pytest.raises(ValueError):
        diff_matrix_degree_graded(monomial_recurrence(3), -1)
    with pytest.raises(ValueError):
        diff_matrix_degree_graded(monomial_recurrence(2), 3)


# ---------------------------------------------------------------- oracle equivalence

def test_named_recurrences_match_expansion_oracle():
    for rec_fn in (monomial_recurrence, chebyshev_recurrence, legendre_recurrence):
        for n in (1, 4, 8):
            rec = rec_fn(n)
            assert diff_matrix_degree_graded(rec, n) == oracle_matrix(rec, n)


def test_newton_matches_expansion_oracle():
    zs = [Fraction(0), Fraction(1, 2), Fraction(-2), Fraction(3)]
    rec = newton_recurrence(zs[:3])
    assert newton_diff_matrix(zs) == oracle_matrix(rec, 3)


def test_random_recurrences_match_expansion_oracle():
    rng = random.Random(20250825)
    for _ in range(6):
        n = rng.randint(1, 7)
        alpha = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                 for _ in range(n)]
        beta = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        gamma = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        rec = RecurrenceSpec(alpha, beta, gamma)
        assert diff_matrix_degree_graded(rec, n) == oracle_matrix(rec, n)


def test_strict_upper_triangularity():
    rng = random.Random(4)
    for rec, n in [(chebyshev_recurrence(9), 9), (legendre_recurrence(9), 9),
                   (newton_recurrence([Fraction(rng.randint(-5, 5)) for _ in range(9)]), 9)]:
        D = diff_matrix_degree_graded(rec, n)
        for i in range(n + 1):
            for j in range(i + 1):
                assert D[i, j] == 0



# ---------------------------------------------------------------- integer rows

def _typed(entries):
    return [(type(x), repr(x)) for x in entries]


def _seeded_recurrences(rng):
    """85 recurrences of degree 0 to 12: small and large denominators of both
    signs, negative alpha, plain integers and Newton centers."""
    def q(top, den):
        return Fraction(rng.randint(-top, top), rng.choice([-1, 1]) * rng.randint(1, den))

    for k in range(85):
        n = rng.randint(0, 12)
        if k % 4 == 0:
            alpha = [q(9, 7) or Fraction(-3, 5) for _ in range(n)]
            yield RecurrenceSpec(alpha, [q(9, 7) for _ in range(n)], [q(9, 7) for _ in range(n)]), n
        elif k % 4 == 1:
            yield newton_recurrence([q(9, 7) for _ in range(n)]), n
        elif k % 4 == 2:
            yield RecurrenceSpec([rng.choice([-5, -2, -1, 1, 3]) for _ in range(n)],
                                 [rng.randint(-4, 4) for _ in range(n)]), n
        else:
            # longer than the degree needs, with denominators up to 10^12
            alpha = [Fraction(rng.randint(1, 10**12), -rng.randint(1, 10**12)) for _ in range(n + 2)]
            yield RecurrenceSpec(alpha, [q(10**9, 10**9) for _ in range(n + 2)],
                                 [q(9, 7) for _ in range(n + 2)]), n


def test_integer_rows_equal_the_fraction_recurrence():
    cases = list(_seeded_recurrences(random.Random(11)))
    assert {n for _, n in cases} == set(range(13))
    for n in (0, 1, 30, 36):
        cases += [(legendre_recurrence(n), n), (monomial_recurrence(n), n),
                  (chebyshev_recurrence(n), n)]
    for rec, n in cases:
        want = orc.degree_graded_by_fractions(rec.alpha, rec.beta, rec.gamma, n)
        assert _typed(diff_matrix_degree_graded(rec, n).entries) == _typed(
            x for row in want for x in row)


def test_integer_instances_stay_integer_rows_and_the_others_hold_their_fractions():
    cases = list(_seeded_recurrences(random.Random(11)))
    for n in (0, 1, 30):
        cases += [(legendre_recurrence(n), n), (monomial_recurrence(n), n), (chebyshev_recurrence(n), n),
                  (newton_recurrence(range(-3, n - 3)), n)]
    kinds = []
    for rec, n in cases:
        want = [x for row in orc.degree_graded_by_fractions(rec.alpha, rec.beta, rec.gamma, n) for x in row]
        D = diff_matrix_degree_graded(rec, n)
        kinds.append(all(x.denominator == 1 for x in want))
        if kinds[-1]:
            assert D._entries is None
        else:
            # read before anything forms entries: the Fractions the constructor itself holds
            assert _typed(D._entries) == _typed(want)
    assert sum(kinds) >= 20 and not all(kinds)
    for rec, n in ((monomial_recurrence(12), 12), (legendre_recurrence(12), 12),
                   (newton_recurrence([2, -1, 0, 5, 2]), 5), (RecurrenceSpec([1, -1, 1], [3, 0, 2]), 3)):
        assert diff_matrix_degree_graded(rec, n)._entries is None


@pytest.mark.parametrize("closed_form,recurrence", [
    (monomial_diff_matrix, monomial_recurrence), (legendre_diff_matrix, legendre_recurrence)],
    ids=["monomial", "legendre"])
def test_closed_forms_equal_the_recurrence_as_integer_rows_up_to_200(closed_form, recurrence):
    for n in range(201):
        D, want = closed_form(n), diff_matrix_degree_graded(recurrence(n), n)
        assert (D.rows, D.cols) == (n + 1, n + 1)
        assert D._int_rows() == want._int_rows(), f"n={n}"
        assert D._entries is None, f"n={n}: entries formed before they were read"
        for part in (type, repr):
            assert list(map(part, D.entries)) == list(map(part, want.entries)), f"n={n}"
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        closed_form(-1)


def test_float_recurrence_keeps_its_operations():
    rec = RecurrenceSpec([0.5, 1.5, 2.5], [0.25] * 3, [1.5] * 3)
    D = diff_matrix_degree_graded(rec, 3)
    assert D.field is Field.REAL and all(type(x) is float for x in D.entries)
    assert D.entries == tuple(x for row in orc.degree_graded_by_fractions(
        rec.alpha, rec.beta, rec.gamma, 3) for x in row)


# ---------------------------------------------------------------- forward error

def _absolute_rows(alpha, beta, gamma, n):
    """Rows of Dbar: the Q recurrence on absolute values, with |beta_(j-1) - beta_(i-1)| as the
    beta factor and the gamma_(i-1) term added, over Fractions.  Column 0 stays zero, so the
    alpha term vanishes at j = 1."""
    a, g = [abs(x) for x in alpha], [abs(x) for x in gamma]
    Q = [[Fraction(0)] * (n + 2) for _ in range(n + 1)]
    for i in range(1, n + 1):
        Q[i][i] = i / a[i - 1]
        for j in range(1, i):
            Q[i][j] = (abs(beta[j - 1] - beta[i - 1]) * Q[i - 1][j] + a[j - 2] * Q[i - 1][j - 1]
                       + g[j] * Q[i - 1][j + 1] + g[i - 1] * Q[i - 2][j]) / a[i - 1]
    return [[Q[k][r + 1] if r < k else 0 for k in range(n + 1)] for r in range(n + 1)]


def _dyadic_recurrences(rng):
    """(float recurrence, degree): integer Newton centres and integer recurrences with
    |alpha| = 1 up to degree 12, then dyadic Newton centres, Chebyshev points, dyadic
    recurrences and Legendre's rounded coefficients."""
    for n in range(1, 13):
        yield newton_recurrence([float(rng.randint(-4, 4)) for _ in range(n + 1)]), n
        yield RecurrenceSpec([rng.choice([-1.0, 1.0]) for _ in range(n)],
                             [float(rng.randint(-3, 3)) for _ in range(n)],
                             [float(rng.randint(-3, 3)) for _ in range(n)]), n
    for n in range(1, 21):
        yield newton_recurrence([rng.randint(-1024, 1024) / 1024 for _ in range(n + 1)]), n
        yield newton_recurrence([math.cos(math.pi * k / n) for k in range(n + 1)]), n
        yield RecurrenceSpec([rng.choice([-1, 1]) * rng.randint(8, 32) / 16 for _ in range(n)],
                             [rng.randint(-16, 16) / 16 for _ in range(n)],
                             [rng.randint(-16, 16) / 16 for _ in range(n)]), n
    for n in (1, 2, 5, 10, 20, 30):
        rec = legendre_recurrence(n)
        yield RecurrenceSpec(*([float(x) for x in c] for c in (rec.alpha, rec.beta, rec.gamma))), n


def test_float_degree_graded_forward_error_over_integers():
    """Float D against the rational constructor on the same dyadic coefficients.

    The bound (Higham, ch. 3: fl(x op y) = (x op y)(1 + d), |d| <= u = 2^-53, no underflow).
    An entry of row i of Q takes at most six roundings on any of its terms (the beta
    difference, the product, three additions, the division) on top of the errors of rows i-1
    and i-2, so by induction |Qhat_i[j] - Q_i[j]| <= gamma_(6i) Qbar_i[j], Qbar the recurrence
    on absolute values and gamma_k = k u / (1 - k u).  Row r of D then errs by at most
    gamma_(6n) max Dbar_r; the comparator's two quotients and their ratio add three roundings,
    so its relative error is at most gamma_(6n+3) max Dbar_r / max |D_r|.  Where every
    coefficient is an integer, |alpha| = 1 and Dbar < 2^53, every product and partial sum is an
    integer below 2^53 (each is bounded by Qbar), so the float D is exact and the bound is 0.
    """
    exact_cases = rounded = 0
    for rec, n in _dyadic_recurrences(random.Random(9)):
        abg = [[Fraction(x) for x in c] for c in (rec.alpha, rec.beta, rec.gamma)]
        D = diff_matrix_degree_graded(rec, n)
        exact = diff_matrix_degree_graded(RecurrenceSpec(*abg), n)
        assert D.field is Field.REAL and exact.field is Field.RATIONAL
        bar = _absolute_rows(*abg, n)
        integral = all(x.denominator == 1 for c in abg for x in c[:n]) and {abs(a) for a in abg[0][:n]} == {1}
        if integral:
            assert max(map(max, bar)) < 2 ** 53
            exact_cases += 1
        gamma = 0 if integral else Fraction(6 * n + 3, 2 ** 53 - 6 * n - 3)
        errors = orc.row_forward_errors([D.row(r) for r in range(n + 1)], exact._int_rows())
        for err, row_bar, row in zip(errors, bar, exact.to_rows()):
            size = max(map(abs, row))
            assert err <= (gamma * max(row_bar) / size if size else 0), (rec, n, err)
            rounded += err > 0
    assert exact_cases >= 24 and rounded
