"""Similarity to the Jordan block, generalized inverses, and the oracle."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from polydiff.bernstein import diff_matrix_bernstein
from polydiff.core import (
    BernsteinBasis,
    DegreeGradedBasis,
    DenseMatrix,
    Field,
    HermiteBasis,
    LagrangeBasis,
    NodeSet,
    SingularMatrixError,
    mat_apply,
    mat_inf_norm,
    vec_inf_norm,
)
from polydiff.degree_graded import (
    RecurrenceSpec,
    chebyshev_antideriv_matrix,
    chebyshev_basis,
    chebyshev_diff_matrix,
    diff_matrix_degree_graded,
    legendre_basis,
    monomial_basis,
    newton_basis,
)
from polydiff.families import FAMILIES
from polydiff.hermite import constant_data, diff_matrix_hermite
from polydiff.lagrange import diff_matrix_lagrange
from polydiff.structure import (
    _shift_columns,
    build_V,
    conjugation_oracle,
    invert_matrix,
    jordan_block,
    jordan_check,
    monomial_images,
    nilpotency_index,
    pseudo_inverse,
    verify_generalized_inverse,
)

import _oracles as orc


def family_cases():
    """(basis, matrix, oracle monomial polynomials) for each family."""
    ns4 = NodeSet([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)])
    nsh = NodeSet([Fraction(0), Fraction(1)], [2, 3])
    mono = monomial_basis(4)
    cheb = chebyshev_basis(4)
    lege = legendre_basis(4)
    newt = newton_basis(ns4)
    return [
        (mono, diff_matrix_degree_graded(mono.recurrence, 4),
         orc.degree_graded_polys(mono.recurrence.alpha, mono.recurrence.beta,
                                 mono.recurrence.gamma, 4)),
        (cheb, chebyshev_diff_matrix(4),
         orc.degree_graded_polys(cheb.recurrence.alpha, cheb.recurrence.beta,
                                 cheb.recurrence.gamma, 4)),
        (lege, diff_matrix_degree_graded(lege.recurrence, 4),
         orc.degree_graded_polys(lege.recurrence.alpha, lege.recurrence.beta,
                                 lege.recurrence.gamma, 4)),
        (newt, diff_matrix_degree_graded(newt.recurrence, 3),
         orc.degree_graded_polys(newt.recurrence.alpha, newt.recurrence.beta,
                                 newt.recurrence.gamma, 3)),
        (LagrangeBasis(ns4), diff_matrix_lagrange(ns4),
         orc.lagrange_polys(ns4.nodes)),
        (HermiteBasis(nsh), diff_matrix_hermite(nsh),
         orc.hermite_polys(nsh.nodes, nsh.confluencies)),
        (BernsteinBasis(4), diff_matrix_bernstein(4),
         orc.bernstein_polys(4)),
    ]


# ---------------------------------------------------------------- images

def test_monomial_images_reconstruct_powers():
    for basis, _, polys in family_cases():
        M = monomial_images(basis)
        for k in range(M.cols):
            p = [Fraction(0)]
            for c, phi in zip(M.column(k), polys):
                p = orc.poly_add(p, orc.poly_scale(phi, c))
            want = [Fraction(0)] * k + [Fraction(1)]
            assert orc.poly_trim(p) == want, f"x^{k} in {basis!r}"


def test_monomial_images_ones_and_bounds():
    M = monomial_images(BernsteinBasis(3))
    assert (M.rows, M.cols) == (4, 4)
    assert M.column(0) == (1, 1, 1, 1)
    class UnknownBasis:
        dimension = 3

    with pytest.raises(TypeError):
        monomial_images(UnknownBasis())


def _images_as_reference(basis):
    """monomial_images against the former column loops, by type and repr, and a rational
    result's integer rows against those cleared from the reference's Fractions."""
    if isinstance(basis, BernsteinBasis):
        want, field = orc.bernstein_images_by_fractions(basis.degree), Field.RATIONAL
    else:
        rec, field = basis.recurrence, basis.recurrence.field
        want = orc.monomial_images_by_fractions(rec.alpha, rec.beta, rec.gamma, basis.dimension)
    got, dim = monomial_images(basis), basis.dimension
    assert (got.rows, got.cols, got.field) == (dim, dim, field)
    assert _typed(got.entries) == _typed([x for row in want for x in row]), basis
    if field is Field.RATIONAL:
        assert got._int_rows() == DenseMatrix.from_rows(want)._int_rows(), basis


def test_degree_graded_images_agree_with_the_fraction_recurrence():
    rng = random.Random(17)
    for degree in range(13):
        centres = set()
        while len(centres) < degree + 1:
            centres.add(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        for basis in (monomial_basis(degree), chebyshev_basis(degree), legendre_basis(degree),
                      newton_basis(sorted(centres))):
            _images_as_reference(basis)
    _images_as_reference(legendre_basis(60))
    # dyadic centres: each Fraction(cos) has its own power-of-two denominator
    _images_as_reference(newton_basis([Fraction(math.cos((2 * k + 1) * math.pi / 68))
                                       for k in range(34)]))
    def big():
        return Fraction(rng.randint(-10**12, 10**12) or 1, -rng.randint(1, 10**15))
    for degree in (0, 1, 6, 12):
        coefficients = [[big() for _ in range(degree)] for _ in range(3)]
        _images_as_reference(DegreeGradedBasis(RecurrenceSpec(*coefficients), degree))


def test_bernstein_images_agree_with_the_binomial_fractions():
    for degree in range(41):
        _images_as_reference(BernsteinBasis(degree))


def test_floating_degree_graded_images_keep_the_floating_recurrence():
    for centres in ([math.cos((2 * k + 1) * math.pi / 40) for k in range(20)],
                    [complex(math.cos(k), math.sin(k) / 3) for k in range(9)]):
        _images_as_reference(newton_basis(centres))


def test_floating_images_keep_the_column_loop_on_seeded_recurrences():
    """600 real and complex recurrences: signed zeros, 1e-300 and -2.5e200 coefficients whose
    products underflow or overflow, zero beta or gamma, and recurrences longer than the degree."""
    rng = random.Random(1919)
    specials = (0.0, -0.0, 1e-300, -2.5e200, 1.0, -1.0)
    def draw(cplx, nonzero=False):
        while True:
            x, y = (rng.choice(specials) if rng.random() < 0.3 else rng.uniform(-3, 3)
                    for _ in range(2))
            x = complex(x, y) if cplx else x
            if x != 0 or not nonzero:
                return x
    for case in range(600):
        cplx, degree = case % 2 == 1, rng.randint(0, 12)
        terms = max(degree + rng.randint(0, 3), 1)
        alpha = [draw(cplx, nonzero=True) for _ in range(terms)]
        beta, gamma = ([draw(cplx) for _ in range(terms)] if rng.random() < 0.8 else None
                       for _ in range(2))
        _images_as_reference(DegreeGradedBasis(RecurrenceSpec(alpha, beta, gamma), degree))


def test_hermite_image_columns_agree_with_the_former_column_loop():
    """Every column of the Hermite and Lagrange images, and ``constant_data`` as column 0,
    against the former one-column-at-a-time loop, by type and repr, on 300 seeded node sets:
    rational, real (signed zeros, 1e-300 whose powers underflow) and complex, confluencies
    1-3, dimensions 1-12."""
    rng = random.Random(32)
    def draw(field):
        if field is Field.RATIONAL:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        x, y = (rng.choice((0.0, -0.0, 1e-300)) if rng.random() < 0.2 else rng.uniform(-3, 3)
                for _ in range(2))
        return x if field is Field.REAL else complex(x, y)
    for case in range(300):
        field, simple = list(Field)[case % 3], case % 2 == 1
        nodes, conf, dim = [], [], rng.randint(1, 12)
        while sum(conf) < dim:
            if (t := draw(field)) not in nodes:
                nodes.append(t)
                conf.append(1 if simple else min(rng.randint(1, 3), dim - sum(conf)))
        ns = NodeSet(nodes, conf)
        M = monomial_images(LagrangeBasis(ns) if simple else HermiteBasis(ns))
        want = orc.hermite_image_columns_by_slots(ns)
        assert (M.rows, M.cols, M.field) == (dim, dim, ns.field)
        for k in range(dim):
            assert _typed(M.column(k)) == _typed(want[k]), (ns, k)
        assert _typed(constant_data(ns)) == _typed(M.column(0)), ns


@pytest.mark.parametrize("node", [0.5, 0.5 + 0j])
def test_float_hermite_images_name_the_binomial_past_the_float_range(node):
    # an entry C(k, j) t^(k-j) converts its binomial to a float; C(1030, 515) > 2^1024 > C(1029, 514)
    with pytest.raises(OverflowError, match=r"^the binomial C\(1030, 515\) is outside the floating-point range$"):
        monomial_images(HermiteBasis(NodeSet([node], [1031])))
    # a power past the range is still the one named
    with pytest.raises(OverflowError, match=r"^x\^1030 at node t_0 = .* is outside the floating-point range$"):
        monomial_images(HermiteBasis(NodeSet([node * 1e300], [1031])))
    if isinstance(node, float):   # one dimension less still builds (about 5 s a field, so one field)
        M = monomial_images(HermiteBasis(NodeSet([node], [1030])))
        assert M.row(514)[1029] == math.comb(1029, 514) * node ** 515


# ---------------------------------------------------------------- V and J

def test_build_v_divides_by_factorials():
    basis = monomial_basis(3)
    V = build_V(monomial_images(basis))
    assert V.to_rows() == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, Fraction(1, 2), 0],
        [0, 0, 0, Fraction(1, 6)],
    ]
    with pytest.raises(ValueError):
        build_V(DenseMatrix.zeros(4, 3))


def test_jordan_block_shape():
    J = jordan_block(4)
    assert J.to_rows() == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]


def test_jordan_block_inverse_pair():
    J = jordan_block(5)
    Jt = DenseMatrix.from_rows(list(zip(*J.to_rows())))
    assert J * Jt * J == J
    assert Jt * J * Jt == Jt
    for P in (J * Jt, Jt * J):
        for i in range(5):
            for j in range(5):
                assert P[i, j] == (P[i, j] if i == j else 0)
                assert P[i, j] in (0, 1)


# ---------------------------------------------------------------- inversion

def test_invert_matrix_exact_roundtrip():
    # a zero leading pivot forces a row swap; det = -763/216
    M = DenseMatrix.from_rows([
        [0, Fraction(1, 2), -3, Fraction(2, 3)],
        [Fraction(-5, 3), 1, 0, 4],
        [Fraction(1, 3), Fraction(-2, 3), Fraction(5, 2), -1],
        [2, 0, Fraction(-1, 2), Fraction(3, 2)],
    ])
    Minv = invert_matrix(M)
    assert M * Minv == DenseMatrix.identity(4) == Minv * M


def _random_exact_matrix(rng, dim):
    """A random rational matrix of dimension ``dim``, with its kind.

    Kinds: dense small fractions, sparse (zero pivots, often singular),
    plain ints, large and negative denominators, a zero leading entry,
    and a row made a combination of two others (singular).
    """
    kind = rng.choice(["dense", "sparse", "ints", "large", "zero-lead", "dependent"])
    def entry():
        if kind == "ints":
            return rng.randint(-9, 9)
        if kind == "large":
            return Fraction(rng.randint(-10**12, 10**12), rng.choice([-1, 1]) * rng.randint(1, 10**15))
        if kind == "sparse" and rng.random() < 0.6:
            return 0
        return Fraction(rng.randint(-9, 9), rng.choice([-1, 1]) * rng.randint(1, 9))
    rows = [[entry() for _ in range(dim)] for _ in range(dim)]
    if kind == "zero-lead" and dim:
        rows[0][0] = 0
    if kind == "dependent" and dim >= 3:
        c, d = Fraction(rng.randint(-4, 4), rng.randint(1, 4)), rng.randint(-3, 3)
        rows[-1] = [c * x + d * y for x, y in zip(rows[0], rows[1])]
    return kind, rows


def _inverts_as_reference(rows):
    """Compare invert_matrix with the former Fraction Gauss-Jordan; True if singular."""
    M = DenseMatrix.from_rows(rows)
    try:
        want = orc.gauss_jordan_inverse(rows)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            invert_matrix(M)
        return True
    got = invert_matrix(M)
    assert (got.rows, got.cols, got.field) == (M.rows, M.cols, Field.RATIONAL)
    assert _typed(got.entries) == _typed([y for row in want for y in row])
    return False


def test_invert_matrix_matches_fraction_gauss_jordan():
    rng = random.Random(10)
    kinds, singular, swaps = set(), 0, 0
    for _ in range(360):
        kind, rows = _random_exact_matrix(rng, rng.randint(0, 8))
        kinds.add(kind)
        singular += _inverts_as_reference(rows)
        swaps += bool(rows) and rows[0][0] == 0
    assert len(kinds) == 6 and singular >= 40 and swaps >= 40, (kinds, singular, swaps)
    # the monomial images of 41 equispaced nodes, the benchmark's largest inversion
    M = monomial_images(LagrangeBasis(NodeSet([Fraction(k - 20, 20) for k in range(41)])))
    assert not _inverts_as_reference(M.to_rows())


def test_invert_matrix_small_exact_cases():
    empty = invert_matrix(DenseMatrix(0, 0, ()))
    assert (empty.rows, empty.cols, empty.field) == (0, 0, Field.RATIONAL)
    for x, want in [(1, 1), (-1, -1), (5, Fraction(1, 5)), (Fraction(-3, 7), Fraction(-7, 3))]:
        inv = invert_matrix(DenseMatrix.from_rows([[x]]))
        assert inv.entries == (want,) and type(inv[0, 0]) is Fraction
    with pytest.raises(SingularMatrixError):
        invert_matrix(DenseMatrix.from_rows([[0]]))


def _nonzero_rational(rng):
    return Fraction(rng.randint(-9, 9) or 1, rng.choice([-1, 1]) * rng.randint(1, 9))


def test_in_place_inversion_at_the_pivot_corners():
    rng = random.Random(17)
    def q():
        return _nonzero_rational(rng)
    # every permutation matrix up to 5x5 times a rational diagonal
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            d = [q() for _ in range(n)]
            assert not _inverts_as_reference([[d[j] if j == perm[i] else 0 for j in range(n)]
                                              for i in range(n)])
    for n in range(2, 10):
        # row i < n - 1 starts with i + 1 zeros and the last row with none, so at every
        # step the first nonzero pivot is in the last row, which the swap refills
        rows = [[0] * (i + 1) + [q() for _ in range(n - 1 - i)] for i in range(n - 1)]
        assert not _inverts_as_reference(rows + [[q() for _ in range(n)]])
        # n - 1 rows whose leading (n-1)x(n-1) block inverts, and a combination of them:
        # the first n - 1 columns have rank n - 1 in any row order, so only the last step fails
        while True:
            head = [[q() for _ in range(n)] for _ in range(n - 1)]
            try:
                orc.gauss_jordan_inverse([row[:-1] for row in head])
                break
            except SingularMatrixError:
                continue
        c = [q() for _ in range(n - 1)]
        rows = head + [[sum(ci * row[j] for ci, row in zip(c, head)) for j in range(n)]]
        rng.shuffle(rows)
        assert _inverts_as_reference(rows)


def test_in_place_inversion_on_dense_and_sparse_matrices():
    rng = random.Random(18)
    singular = regular = 0
    for n in range(13):
        for zeros in (0.0, 0.0, 0.3, 0.5, 0.7, 0.85):
            rows = [[0 if rng.random() < zeros else _nonzero_rational(rng) for _ in range(n)]
                    for _ in range(n)]
            if _inverts_as_reference(rows):
                singular += 1
            else:
                regular += 1
    assert singular >= 15 and regular >= 40, (singular, regular)


def _rational_instance(name, dim, rng):
    """A rational instance of family ``name`` with dimension ``dim``."""
    def rationals(count):
        out = []
        while len(out) < count:
            q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
            if q not in out:
                out.append(q)
        return out

    arg = FAMILIES[name].arg
    if arg == "degree":
        return dim - 1
    if arg == "recurrence":
        return RecurrenceSpec(rationals(dim - 1), rationals(dim - 1), rationals(dim - 1)), dim - 1
    count = rng.randint(1, dim) if name == "hermite" else dim
    conf = [1] * count
    for _ in range(dim - count):
        conf[rng.randrange(count)] += 1
    return NodeSet(rationals(count), conf)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_v_times_its_inverse_is_the_identity(name):
    rng = random.Random(name)
    for dim in range(1, 7):
        for _ in range(3):
            basis = FAMILIES[name].basis(_rational_instance(name, dim, rng))
            V = build_V(monomial_images(basis))
            assert V.field is Field.RATIONAL and (V.rows, V.cols) == (dim, dim)
            Vi = invert_matrix(V)
            eye = DenseMatrix.identity(dim)
            assert V * Vi == eye and Vi * V == eye, (name, dim)


def test_invert_matrix_rejects_singular_and_nonsquare():
    with pytest.raises(SingularMatrixError):
        invert_matrix(DenseMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        invert_matrix(DenseMatrix.zeros(2, 3))


def test_invert_matrix_float_pivoting():
    M = DenseMatrix.from_rows([[1e-12, 1.0], [1.0, 1.0]])
    P = M * invert_matrix(M)
    assert abs(P[0, 0] - 1) < 1e-9 and abs(P[1, 1] - 1) < 1e-9
    assert abs(P[0, 1]) < 1e-9 and abs(P[1, 0]) < 1e-9


def test_invert_matrix_complex_pivoting():
    # the first nonzero pivot would leave errors near 1e-4 in M M^(-1)
    M = DenseMatrix.from_rows([[1e-12 * (1 + 1j), 1 + 2j], [1 - 1j, 1 + 1j]])
    Minv = invert_matrix(M)
    assert Minv.field is Field.COMPLEX and all(type(e) is complex for e in Minv.entries)
    P = M * Minv
    for i in range(2):
        for j in range(2):
            assert abs(P[i, j] - (i == j)) < 1e-13


# ---------------------------------------------------------------- similarity

def test_jordan_similarity_every_family():
    for basis, D, _ in family_cases():
        V = build_V(monomial_images(basis))
        assert jordan_check(D, V), f"D V != V J for {basis!r}"


def test_generalized_inverse_conditions_every_family():
    for basis, D, _ in family_cases():
        V = build_V(monomial_images(basis))
        Dp = pseudo_inverse(D, V)
        assert verify_generalized_inverse(D, Dp), f"conditions fail for {basis!r}"


def test_nilpotency_index_every_family():
    for basis, D, _ in family_cases():
        assert nilpotency_index(D) == basis.dimension


def test_pseudo_inverse_monomial_subdiagonal():
    basis = monomial_basis(3)
    D = diff_matrix_degree_graded(basis.recurrence, 3)
    Dp = pseudo_inverse(D, build_V(monomial_images(basis)))
    assert Dp.to_rows() == [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, Fraction(1, 3), 0],
    ]


def test_pseudo_inverse_chebyshev_matches_antideriv_inside():
    n = 3
    basis = chebyshev_basis(n)
    D = chebyshev_diff_matrix(n)
    Dp = pseudo_inverse(D, build_V(monomial_images(basis)))
    A = chebyshev_antideriv_matrix(n)
    # the free constant row and the truncated final column may differ
    for i in range(1, n + 1):
        for j in range(n):
            assert Dp[i, j] == A[i, j]


def test_pseudo_inverse_lagrange_frozen():
    ns = NodeSet([Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)])
    D = diff_matrix_lagrange(ns)
    Dp = pseudo_inverse(D, build_V(monomial_images(LagrangeBasis(ns))))
    want = [[20, -800, 160, -100],
            [55, -340, -100, 25],
            [-25, 100, 340, -55],
            [100, -160, 800, -20]]
    assert Dp == DenseMatrix.from_rows([[Fraction(v, 720) for v in r] for r in want])


def _plus(A, B, c=1):
    """A + c B, entry by entry."""
    return DenseMatrix(A.rows, A.cols, [a + c * b for a, b in zip(A.entries, B.entries)])


def test_each_generalized_inverse_condition_fails_on_its_own():
    ns = NodeSet([Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)])
    D = diff_matrix_lagrange(ns)
    Dp = pseudo_inverse(D, build_V(monomial_images(LagrangeBasis(ns))))
    Z, I = DenseMatrix.zeros(D.rows, D.cols), DenseMatrix.identity(D.rows)
    # G = D+ + (I - D+ D) U (I - D D+) keeps D G D = D for any U.  D+ + I - D+ D keeps
    # D's rank here and so meets both conditions; U = D^3 raises the rank of G.
    G = _plus(Dp, _plus(I, Dp * D, -1))
    assert D * G * D == D and G * D * G == G
    G = _plus(Dp, _plus(I, Dp * D, -1) * (D * D * D) * _plus(I, D * Dp, -1))
    assert D * Dp * D == D and Dp * D * Dp == Dp and verify_generalized_inverse(D, Dp)
    assert D * Z * D != D and Z * D * Z == Z and not verify_generalized_inverse(D, Z)
    assert D * G * D == D and G * D * G != G and not verify_generalized_inverse(D, G)


def test_pseudo_inverse_complex_lagrange():
    ns = NodeSet([1, 1j, -1, -1j])
    D = diff_matrix_lagrange(ns)
    Dp = pseudo_inverse(D, build_V(monomial_images(LagrangeBasis(ns))))
    want = [[11, 4 - 3j, 5, 4 + 3j],
            [-3 + 4j, 11j, 3 + 4j, 5j],
            [-5, -4 - 3j, -11, -4 + 3j],
            [-3 - 4j, -5j, 3 - 4j, -11j]]
    for i in range(4):
        for j in range(4):
            assert abs(Dp[i, j] - want[i][j] / 24) <= 1e-13
    # D D+ D = D and D+ D D+ = D+ as X D = D and D+ X = D+, X = D D+, entrywise within
    # 1e-12 times the largest magnitude on either side (at least 1)
    X = D * Dp
    for A, B in ((X * D, D), (Dp * X, Dp)):
        scale = max([1.0] + [abs(x) for x in (*A.entries, *B.entries)])
        assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(A.entries, B.entries))
    with pytest.raises(ValueError, match="^generalized inverse check needs the exact rational field$"):
        verify_generalized_inverse(D, Dp)


# each structural check of a basis and its matrix D, true on a correct rational instance
STRUCTURAL_CHECKS = {
    "jordan check": lambda basis, D: jordan_check(D, build_V(monomial_images(basis))),
    "generalized inverse check": lambda basis, D: verify_generalized_inverse(
        D, pseudo_inverse(D, build_V(monomial_images(basis)))),
    "nilpotency index": lambda basis, D: nilpotency_index(D) == basis.dimension,
    "conjugation oracle": lambda basis, D: conjugation_oracle(basis) == D,
}


@pytest.mark.parametrize("check", STRUCTURAL_CHECKS)
def test_structural_checks_refuse_floating_fields(check):
    for basis, D, _ in family_cases():
        assert STRUCTURAL_CHECKS[check](basis, D), f"{check} on {basis!r}"
    # a real and a complex Lagrange instance, both of which float --pinv serves
    for nodes in ([-1.0, 0.0, 0.5, 2.0], [1, 1j, -1, -1j]):
        ns = NodeSet(nodes)
        with pytest.raises(ValueError, match=f"^{check} needs the exact rational field$"):
            STRUCTURAL_CHECKS[check](LagrangeBasis(ns), diff_matrix_lagrange(ns))


def test_mismatched_shapes():
    D, V = DenseMatrix.zeros(3, 3), DenseMatrix.identity(2)
    for check in (jordan_check, pseudo_inverse):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            check(D, V)
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            check(DenseMatrix.zeros(2, 3), DenseMatrix.zeros(2, 3))
    assert verify_generalized_inverse(D, V) is False


# ---------------------------------------------------------------- nilpotency

def test_nilpotency_index_input_checks():
    with pytest.raises(ValueError):
        nilpotency_index(DenseMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        nilpotency_index(DenseMatrix.zeros(2, 2, Field.REAL))
    not_nilpotent = "matrix is not nilpotent within its dimension"
    # e_(n-1) is killed at once, but diag(1, 0) is idempotent: the chain from e_0 raises,
    # and for diag(0, 1, 0) only the chain from e_1, at neither end
    for M in (DenseMatrix.from_rows([[1, 0], [0, 0]]),
              DenseMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 0]])):
        with pytest.raises(ArithmeticError, match=not_nilpotent):
            nilpotency_index(M)
    # the first chain raises on its own: A^n e_(n-1) != 0
    for M in (DenseMatrix.identity(3), DenseMatrix.from_rows([[Fraction(-2, 7)]]),
              DenseMatrix.from_rows([[0, 1], [1, 0]]), DenseMatrix.from_rows([[0, 0], [5, 1]])):
        with pytest.raises(ArithmeticError, match=not_nilpotent):
            nilpotency_index(M)
    # n = 0 and n = 1 are settled by the chain as well
    assert nilpotency_index(DenseMatrix(0, 0, ())) == 0
    assert nilpotency_index(DenseMatrix.zeros(1, 1)) == 1


def test_nilpotency_index_of_every_family_comes_from_the_chain():
    """The last basis element has full degree, so e_(n-1) is cyclic: its chain has length n."""
    matrices = [(FAMILIES[name].diff_matrix(_rational_instance(name, dim, random.Random(dim))), dim)
                for name in FAMILIES for dim in range(1, 13)]
    matrices += [(diff_matrix_bernstein(30), 31),
                 (diff_matrix_lagrange(NodeSet([Fraction(k - 20, 20) for k in range(41)])), 41)]
    for D, dim in matrices:
        assert nilpotency_index(D) == dim


def test_nilpotency_index_falls_back_when_the_chain_dies_early():
    """Index n where the chain from e_(n-1) dies early: a later chain has length n."""
    rng = random.Random(24)
    cases = []
    for n in range(2, 13):
        # J^T, ones below the diagonal: A e_(n-1) = 0 at once, the chain from e_0 has length n
        cases.append([[int(i == j + 1) for j in range(n)] for i in range(n)])
        # J with its basis permuted so that e_(n-1) sits at place m < n - 1 of the
        # cycle: the chain from it dies after m + 1 products
        sigma = list(range(n))
        while sigma[-1] == n - 1:
            rng.shuffle(sigma)
        cases.append([[int(sigma.index(j) == sigma.index(i) + 1) for j in range(n)]
                      for i in range(n)])
    for rows in cases:
        assert nilpotency_index(DenseMatrix.from_rows(rows)) == len(rows)
        assert orc.nilpotency_index_by_powers(rows) == len(rows)


def test_nilpotency_index_small_cases():
    F = Fraction
    cases = [
        (DenseMatrix(0, 0, ()), 0),
        (DenseMatrix.zeros(3, 3), 1),
        (DenseMatrix.from_rows([[0, F(1, 2), 0], [0, 0, 0], [0, 0, 0]]), 2),
        (DenseMatrix.from_rows([[0, F(1, 3), 5], [0, 0, F(-2, 7)], [0, 0, 0]]), 3),
        # u v^T with v.u = 0, u = (1, 2, 3) and v = (3, 0, -1) / 7: no triangular pattern
        (DenseMatrix.from_rows([[F(3 * a, 7), 0, F(-a, 7)] for a in (1, 2, 3)]), 2),
        # J_3 on indices 1..3 of a 5x5 zero matrix: both end chains have length 1
        (DenseMatrix.from_rows([[int((i, j) in ((1, 2), (2, 3))) for j in range(5)] for i in range(5)]), 3),
    ]
    for D, want in cases:
        assert nilpotency_index(D) == want
    with pytest.raises(ArithmeticError):
        nilpotency_index(DenseMatrix.from_rows([[0, F(1, 10**20)], [F(-1, 3), 0]]))


def _seeded_nilpotent(rng, n, index):
    """S N S^(-1) for a random rational S and N nilpotent Jordan blocks, the largest of size index.

    With S cleared to integers, T = L S, the product is T N T^(-1): T N shifts the columns of T,
    and T^(-1) comes from ``_integer_inverse``, so no Fraction is formed before the result's.
    """
    sizes = [index]
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(index, n - sum(sizes))))
    rng.shuffle(sizes)
    starts = {sum(sizes[:b]) + k for b in range(len(sizes)) for k in range(sizes[b] - 1)}
    while True:
        S = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        scale = math.lcm(*(x.denominator for row in S for x in row))
        T = [[int(x * scale) for x in row] for row in S]
        inverse = _integer_inverse(T)
        if inverse is None:
            continue
        # row i of T^(-1) is v / d; over the lcm D of the d its columns are integers
        D = math.lcm(*(d for d, _ in inverse))
        cols = list(zip(*[[x * (D // d) for x in v] for d, v in inverse]))
        TN = [[row[j - 1] if j - 1 in starts else 0 for j in range(n)] for row in T]
        return [[Fraction(sum(map(operator.mul, row, col)), D) for col in cols] for row in TN]


def _integer_inverse(T):
    """Rows (d, v), v / d row i of T^(-1), by Gauss-Jordan elimination on [T | I] in integers, each
    row divided by its content; None when T is singular."""
    n = len(T)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(T)]
    for col in range(n):
        p = next((r for r in range(col, n) if a[r][col]), None)
        if p is None:
            return None
        a[col], a[p] = a[p], a[col]
        pivot = a[col]
        for r in range(n):
            if r != col and a[r][col]:
                row = [pivot[col] * x - a[r][col] * y for x, y in zip(a[r], pivot)]
                g = math.gcd(*row)
                a[r] = [x // g for x in row]
    return [(a[i][i], a[i][n:]) for i in range(n)]


def test_nilpotency_index_on_seeded_nilpotent_matrices():
    rng = random.Random(13)
    for n in range(1, 15):
        for index in range(1, n + 1):
            rows = _seeded_nilpotent(rng, n, index)
            assert nilpotency_index(DenseMatrix.from_rows(rows)) == index
            assert orc.nilpotency_index_by_powers(rows) == index
    for n in range(1, 8):
        # every eigenvalue 10^-9, not 0: both raise
        rows = [[x + Fraction(int(i == j), 10**9) for j, x in enumerate(row)]
                for i, row in enumerate(_seeded_nilpotent(rng, n, n))]
        for index in (lambda r: nilpotency_index(DenseMatrix.from_rows(r)),
                      orc.nilpotency_index_by_powers):
            with pytest.raises(ArithmeticError):
                index(rows)


def _typed(values):
    return [(type(x), repr(x)) for x in values]


def test_structure_kernels_agree_with_fraction_references_on_both_forms():
    """Each kernel gives the plain-Fraction reference, by type and repr, on a matrix
    built from Fractions and on the same matrix built by a product (integer rows only)."""
    rng = random.Random(16)
    for _ in range(200):
        _, rows = _random_exact_matrix(rng, rng.randint(0, 8))
        rows, n = [[Fraction(x) for x in row] for row in rows], len(rows)
        right = [x for row in rows for x in ([Fraction(0)] + row)[:n]]
        left = [x for row in rows for x in (row + [Fraction(0)])[1:]]
        V = [x / math.factorial(k) for row in rows for k, x in enumerate(row)]
        try:
            inverse = [x for row in orc.gauss_jordan_inverse(rows) for x in row]
        except SingularMatrixError:
            inverse = None
        for M in (DenseMatrix(n, n, [x for row in rows for x in row]),
                  DenseMatrix(n, n, [x for row in rows for x in row]) * DenseMatrix.identity(n)):
            # == compares the canonical integer rows before the entries are read
            for got, want in ((_shift_columns(M, 1), right), (_shift_columns(M, -1), left),
                              (build_V(M), V)):
                assert got == DenseMatrix(n, n, want) and _typed(got.entries) == _typed(want)
            if inverse is None:
                with pytest.raises(SingularMatrixError):
                    invert_matrix(M)
            else:
                got = invert_matrix(M)
                assert got == DenseMatrix(n, n, inverse) and _typed(got.entries) == _typed(inverse)
    for n in range(1, 9):
        index = rng.randint(1, n)
        c = Fraction(rng.randint(1, 10**12), -rng.randint(1, 10**15))   # keeps the index
        rows = [[c * x for x in row] for row in _seeded_nilpotent(rng, n, index)]
        M = DenseMatrix.from_rows(rows)
        for X in (M, M * DenseMatrix.identity(n)):
            assert nilpotency_index(X) == orc.nilpotency_index_by_powers(rows) == index


def test_nilpotency_index_equals_linear_powers_on_every_family():
    for name in FAMILIES:
        for dim in (1, 2, 5, 9):
            D = FAMILIES[name].diff_matrix(_rational_instance(name, dim, random.Random(dim)))
            assert nilpotency_index(D) == orc.nilpotency_index_by_powers(D.to_rows()) == dim


def test_column_shift_is_the_product_with_the_jordan_block():
    rng = random.Random(14)
    for field, draw in [(Field.RATIONAL, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
                        (Field.REAL, lambda: rng.uniform(-2, 2)),
                        (Field.COMPLEX, lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))]:
        for n in range(0, 6):
            M = DenseMatrix(n, n, [draw() for _ in range(n * n)], field)
            J = jordan_block(n, field)
            Jt = DenseMatrix.from_rows([list(c) for c in zip(*J.to_rows())], field) if n else J
            assert _shift_columns(M, 1) == M * J
            assert _shift_columns(M, -1) == M * Jt
            assert _shift_columns(M, 1).field is field


# ---------------------------------------------------------------- oracle

def test_oracle_on_monomial_is_identity_operation():
    basis = monomial_basis(5)
    assert conjugation_oracle(basis) == diff_matrix_degree_graded(basis.recurrence, 5)


def test_oracle_reproduces_bernstein_display():
    assert conjugation_oracle(BernsteinBasis(4)) == diff_matrix_bernstein(4)


def test_norm_bounds_derivative_perturbations():
    rng = random.Random(19)
    for basis, D, _ in family_cases():
        norm = mat_inf_norm(D)
        for _ in range(3):
            da = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(basis.dimension)]
            assert vec_inf_norm(mat_apply(D, da)) <= norm * vec_inf_norm(da)
