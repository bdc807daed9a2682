import itertools
import math

import numpy as np
import pytest

from qeei import (QMatrix, det, det_invariance_check, eigenvector_from_qadj,
                  identity, matmul, qadj, right_eigenvalues, row_expansion,
                  validate_hermitian)
from qeei import qdet
from qeei.errors import ComplexityLimit, IndexOutOfRange, NotSquare
from qeei.qdet import permutation_terms
from qeei.quat import I, J, K, Quaternion
from qeei.random_matrices import (random_hermitian, random_hermitian_gapped,
                                  random_qmatrix)

from conftest import SQRT13, U, count_calls


def diag(*values):
    n = len(values)
    return QMatrix([[values[p] if p == q else 0 for q in range(n)]
                    for p in range(n)])


def test_det_example(example_matrix):
    assert det(example_matrix).isclose(Quaternion(3.0), 1e-12)


def test_det_diagonal():
    assert det(diag(2, 5, -1)).isclose(Quaternion(-10.0), 1e-12)


def test_det_equals_eigenvalue_product():
    rng = np.random.default_rng(5)
    for _ in range(5):
        H = random_hermitian(3, rng)
        prod = 1.0
        for lam in right_eigenvalues(H).values:
            prod *= lam
        d = det(H.inner)
        assert abs(d.w - prod) < 1e-8 * (1.0 + abs(prod))
        assert max(abs(c) for c in (d.x, d.y, d.z)) < 1e-10


def test_det_hermitian_is_real():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        d = det(random_hermitian(n, rng).inner)
        assert max(abs(c) for c in (d.x, d.y, d.z)) < 1e-10


def test_row_expansion_2x2_term_order():
    # ad - bc with the second term ordered a12 * a21
    a, b, c, d = Quaternion(2), I, J, K
    expected = a * d - b * c
    assert row_expansion(QMatrix([[a, b], [c, d]])).isclose(expected, 1e-12)


def test_row_expansion_1x1():
    q = Quaternion(1, 2, 3, 4)
    assert row_expansion(QMatrix([[q]])) == q


def terms_by_perm(n, order):
    """perm -> (sign, 1-based factor rows), read back from the cells."""
    out = {}
    for sign, cells in permutation_terms(n, order):
        perm = tuple(c for _, c in sorted(cells))
        out[perm] = (sign, [r + 1 for r, _ in cells])
    return out


def test_row_expansion_chain_order_4x4():
    # factor rows and signs of the known 4x4 expansion terms
    cases = [
        ((0, 1, 2, 3), [1, 2, 3, 4], 1),   # a11 a22 a33 a44
        ((0, 2, 3, 1), [1, 2, 3, 4], 1),   # a11 a23 a34 a42
        ((0, 3, 1, 2), [1, 2, 4, 3], 1),   # a11 a24 a43 a32
        ((0, 3, 2, 1), [1, 2, 4, 3], -1),  # -a11 a24 a42 a33
        ((1, 0, 3, 2), [1, 2, 3, 4], 1),   # a12 a21 a34 a43
        ((3, 2, 1, 0), [1, 4, 2, 3], 1),   # a14 a41 a23 a32
    ]
    terms = terms_by_perm(4, "row")
    for perm, rows, sign in cases:
        assert terms[perm] == (sign, rows)


def test_det_normal_form_descending_leaders():
    # cycles (3)(2 1): each led by its largest row, leaders descending
    assert terms_by_perm(3, "det")[(1, 0, 2)] == (-1, [3, 2, 1])


def test_cycle_cover_and_sign():
    for n in (3, 4):
        for order in ("det", "row"):
            for sign, cells in permutation_terms(n, order):
                assert sorted(r for r, _ in cells) == list(range(n))
                perm = [c for _, c in sorted(cells)]
                inversions = sum(perm[a] > perm[b] for a in range(n)
                                 for b in range(a + 1, n))
                assert sign == (-1) ** inversions


def test_permutation_terms_cover_every_row_and_column_once():
    for n in range(1, 6):
        for order in ("det", "row"):
            terms = list(permutation_terms(n, order))
            assert len(terms) == math.factorial(n)
            perms = set()
            for _, cells in terms:
                assert sorted(r for r, _ in cells) == list(range(n))
                assert sorted(c for _, c in cells) == list(range(n))
                perms.add(tuple(c for _, c in sorted(cells)))
            assert perms == set(itertools.permutations(range(n)))


def test_term_count_is_factorial():
    for n in range(1, 6):
        count = sum(1 for _ in itertools.permutations(range(n)))
        assert count == math.factorial(n)
        # the sums iterate exactly once per permutation: check via an
        # all-identity matrix, where every term is +-1 and the total is
        # the permanent-style signed count, i.e. 0 for n >= 2
        ones = QMatrix([[1] * n for _ in range(n)])
        expected = 1.0 if n == 1 else 0.0
        assert det(ones).isclose(Quaternion(expected), 1e-12)
        assert row_expansion(ones).isclose(Quaternion(expected), 1e-12)


def test_commutative_degeneration():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        M = rng.uniform(-1, 1, (n, n))
        M = M + M.T
        A = QMatrix(M.tolist())
        ref = np.linalg.det(M)
        assert abs(det(A).w - ref) < 1e-12 * (1 + abs(ref))
        assert abs(row_expansion(A).w - ref) < 1e-12 * (1 + abs(ref))


def test_complexity_limit():
    big = QMatrix([[1] * 9 for _ in range(9)])
    with pytest.raises(ComplexityLimit):
        det(big)
    with pytest.raises(ComplexityLimit):
        row_expansion(big)
    with pytest.raises(ComplexityLimit):
        qadj(big)
    with pytest.raises(NotSquare):
        det(QMatrix([[1, 2]]))


def test_qadj_1x1():
    assert qadj(QMatrix([[Quaternion(5, 1, 2, 3)]])) == QMatrix([[1]])


def test_qadj_example_listing(example_matrix):
    lam1 = (5 + SQRT13) / 2
    shifted = QMatrix([[lam1 - 3, -U], [-U.conj(), lam1 - 2]])
    Q = qadj(shifted)
    B0, B1, B2, B3 = Q.components()
    assert np.allclose(B0, [[0.5 + SQRT13 / 2, 0], [0, -0.5 + SQRT13 / 2]],
                       atol=1e-10)
    assert np.allclose(B1, [[0, 1], [-1, 0]], atol=1e-10)
    assert np.allclose(B2, [[0, -1], [1, 0]], atol=1e-10)
    assert np.allclose(B3, [[0, 1], [-1, 0]], atol=1e-10)


def test_qadj_det_identity():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5):
        H = random_hermitian(n, rng)
        Q = qadj(H.inner)
        d = det(H.inner)
        dE = QMatrix([[d * (1.0 if p == q else 0.0) for q in range(n)]
                      for p in range(n)])
        tol = 1e-9 * (1.0 + H.inner.norm_inf() ** n)
        assert (matmul(Q, H.inner) - dE).norm_inf() < tol
        assert (matmul(H.inner, Q) - dE).norm_inf() < tol


def test_qadj_diag_example():
    # 2E - diag(1, 2) = diag(1, 0); its adjugate is diag(0, 1)
    Q = qadj(diag(1, 0))
    assert Q.isclose(diag(0, 1), 1e-12)


def test_det_invariance(example_hermitian):
    assert det_invariance_check(example_hermitian, 2, 1, I) < 1e-10
    assert det_invariance_check(example_hermitian, 2, 1, Quaternion()) == 0.0
    rng = np.random.default_rng(9)
    for _ in range(5):
        H = random_hermitian(3, rng)
        lam = Quaternion(*rng.uniform(-1, 1, 4))
        k, j = rng.permutation(3)[:2] + 1
        assert det_invariance_check(H, int(k), int(j), lam) < 1e-9
    with pytest.raises(IndexOutOfRange):
        det_invariance_check(example_hermitian, 1, 1, I)


# ------------------------------------------- the scalar loop as the oracle

def scalar_permutation_sum(A, order):
    """The sum one Quaternion product at a time, in permutation order."""
    total = Quaternion()
    for sign, cells in permutation_terms(A.n_rows, order):
        term = Quaternion(float(sign))
        for r, c in cells:
            term = term * A.rows[r][c]
        total = total + term
    return total


def assert_same_bits(got, want):
    """Component-for-component equal, signed zeros and NaN positions included."""
    for g, w in zip(got.components(), want.components()):
        if math.isnan(w):
            assert math.isnan(g)
        else:
            assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w)


def assert_matches_scalar(A):
    assert_same_bits(det(A), scalar_permutation_sum(A, "det"))
    assert_same_bits(row_expansion(A), scalar_permutation_sum(A, "row"))


def test_batched_sums_equal_the_scalar_loop():
    rng = np.random.default_rng(31)
    for n in range(1, 8):
        for _ in range(3 if n < 7 else 1):
            assert_matches_scalar(random_qmatrix(n, n, rng))


def test_batched_sums_keep_signed_zeros():
    z = Quaternion(-0.0, -0.0, -0.0, -0.0)
    assert_matches_scalar(QMatrix([[Quaternion(-0.0)]]))
    assert_matches_scalar(diag(1, Quaternion(-0.0)))
    assert_matches_scalar(QMatrix([[z, I], [Quaternion(-0.0, 2.0), z]]))
    assert_matches_scalar(QMatrix([[z if p == q else Quaternion(-0.0, 0.0, -1.0)
                                    for q in range(4)] for p in range(4)]))


def test_batched_sums_overflow_like_the_scalar_loop():
    big = Quaternion(1e300, -1e300, 2.0, 1e300)
    A = QMatrix([[big, Quaternion(1e300), I], [J, big.conj(), K],
                 [Quaternion(0.5, 1e300), K, big]])
    assert any(math.isnan(c) for c in scalar_permutation_sum(A, "row").components())
    assert_matches_scalar(A)
    # 0 * inf is NaN, so the zero components of the starting (sign, 0, 0, 0)
    # must take part in the first product
    assert_matches_scalar(QMatrix([[Quaternion(math.inf), I], [J, K]]))


# ------------------------------------------------- what pins the kernel

def test_row_expansion_makes_no_quaternion_products(monkeypatch):
    A = random_qmatrix(6, 6, np.random.default_rng(32))
    products = count_calls(monkeypatch, Quaternion, "__mul__")
    row_expansion(A)
    assert products == []


def test_term_table_is_built_once_per_size_and_order(monkeypatch):
    qdet._term_table.cache_clear()
    builds = count_calls(monkeypatch, qdet, "permutation_terms")
    A = random_qmatrix(5, 5, np.random.default_rng(33))
    for _ in range(2):
        det(A)
        row_expansion(A)
    assert builds == [(5, "det"), (5, "row")]
    signs, cells = qdet._term_table(5, "row")
    assert signs.shape == (120,) and cells.shape == (5, 120)
    assert cells.dtype == np.uint8


def test_complexity_limit_builds_no_table(monkeypatch):
    tables = count_calls(monkeypatch, qdet, "_term_table")
    with pytest.raises(ComplexityLimit):
        det(QMatrix([[1] * 9 for _ in range(9)]))
    assert tables == []


def test_eigenvector_at_7_expands_49_minors_of_size_6(monkeypatch):
    H = random_hermitian_gapped(7, np.random.default_rng(34))
    expansions = count_calls(monkeypatch, qdet, "row_expansion")
    eigenvector_from_qadj(H, 4)
    assert [A.shape for (A,) in expansions] == [(6, 6)] * 49
