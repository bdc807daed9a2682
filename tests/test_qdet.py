import itertools
import math

import numpy as np
import pytest

from qeei import (QMatrix, det, det_invariance_check, identity, matmul, qadj,
                  right_eigenvalues, row_expansion, validate_hermitian)
from qeei.errors import ComplexityLimit, IndexOutOfRange, NotSquare
from qeei.qdet import permutation_terms
from qeei.quat import I, J, K, Quaternion
from qeei.random_matrices import random_hermitian

from conftest import SQRT13, U


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
