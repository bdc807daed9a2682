import math
import warnings

import numpy as np
import pytest

from qeei import (QMatrix, conj_transpose, from_components, identity, matmul,
                  minor, natural_submatrix, real_lift, scale_right,
                  validate_hermitian, zeros)
from qeei.eigen import lambda_shift, vector_norm
from qeei.errors import (DimensionMismatch, IndexOutOfRange, NotHermitian,
                         NotSquare)
from qeei.qmatrix import HERMITIAN_TOL, natural_orders, scale_left
from qeei.quat import I, J, K, Quaternion
from qeei.random_matrices import random_hermitian, random_qmatrix

from conftest import U


def test_from_components_example(example_matrix):
    A0 = [[3, 0], [0, 2]]
    A1 = [[0, 1], [-1, 0]]
    A2 = [[0, -1], [1, 0]]
    A3 = [[0, 1], [-1, 0]]
    assert from_components(A0, A1, A2, A3) == example_matrix


def test_from_components_zero_and_real():
    z = np.zeros((2, 2))
    assert from_components(z, z, z, z) == zeros(2)
    r = np.array([[1.0, 2.0], [3.0, 4.0]])
    A = from_components(r, z, z, z)
    assert A[1, 0] == Quaternion(3.0)


def test_from_components_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        from_components(np.zeros((2, 2)), np.zeros((2, 3)),
                        np.zeros((2, 2)), np.zeros((2, 2)))


def test_validate_hermitian(example_matrix):
    validate_hermitian(example_matrix)
    with pytest.raises(NotHermitian):
        validate_hermitian(QMatrix([[0, I], [I, 0]]))
    validate_hermitian(QMatrix([[1, 0], [0, -2]]))
    with pytest.raises(NotSquare):
        validate_hermitian(QMatrix([[1, 0]]))
    # complex diagonal is not allowed either
    with pytest.raises(NotHermitian):
        validate_hermitian(QMatrix([[I]]))


def test_minor(example_hermitian):
    assert minor(example_hermitian, 1).inner == QMatrix([[2]])
    assert minor(example_hermitian, 2).inner == QMatrix([[3]])
    E3 = validate_hermitian(identity(3))
    for j in (1, 2, 3):
        assert minor(E3, j).inner == identity(2)
    with pytest.raises(IndexOutOfRange):
        minor(example_hermitian, 3)


def test_minor_stays_hermitian():
    rng = np.random.default_rng(0)
    H = random_hermitian(4, rng)
    for j in range(1, 5):
        validate_hermitian(minor(H, j).inner)


def test_natural_submatrix_2x2(example_hermitian):
    lam1 = (5 + np.sqrt(13)) / 2
    shifted = QMatrix([[lam1 - 3, -U], [-U.conj(), lam1 - 2]])
    # (i=1, j=2) keeps only the (2,1) entry
    assert natural_submatrix(shifted, 1, 2) == QMatrix([[U]])
    for i, j in ((1, 1), (2, 2), (2, 1)):
        sub = natural_submatrix(shifted, i, j)
        assert sub.shape == (1, 1)


def test_natural_orders_moves_j_and_i_to_front():
    assert natural_orders(5, 3, 5) == ([5, 1, 2, 4], [3, 1, 2, 4])
    assert natural_orders(5, 1, 1) == ([2, 3, 4, 5], [2, 3, 4, 5])
    assert natural_orders(4, 2, 1) == ([1, 3, 4], [2, 3, 4])


def test_real_lift_scalar_units():
    assert np.array_equal(real_lift(QMatrix([[1]])), np.eye(4))
    expected = np.array([[0, 1, 0, 0],
                         [-1, 0, 0, 0],
                         [0, 0, 0, -1],
                         [0, 0, 1, 0]], dtype=float)
    assert np.array_equal(real_lift(QMatrix([[I]])), expected)


def test_real_lift_homomorphism(example_matrix):
    A2 = matmul(example_matrix, example_matrix)
    assert np.allclose(real_lift(example_matrix) @ real_lift(example_matrix),
                       real_lift(A2), atol=1e-10)


def test_real_lift_homomorphism_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = random_qmatrix(3, 3, rng)
        B = random_qmatrix(3, 3, rng)
        assert np.max(np.abs(real_lift(A) @ real_lift(B)
                             - real_lift(matmul(A, B)))) < 1e-10
        assert np.allclose(real_lift(A) + real_lift(B),
                           real_lift(A + B), atol=1e-12)


def test_real_lift_of_a_stack_lifts_each_member():
    rng = np.random.default_rng(3)
    mats = [random_qmatrix(3, 2, rng) for _ in range(4)]
    lifts = real_lift(np.stack([A.data for A in mats], axis=1))
    assert lifts.shape == (4, 12, 8)
    for A, lift in zip(mats, lifts):
        assert np.array_equal(lift, real_lift(A))


def test_real_lift_of_hermitian_is_symmetric():
    rng = np.random.default_rng(2)
    H = random_hermitian(3, rng)
    L = real_lift(H.inner)
    assert np.max(np.abs(L - L.T)) < 1e-12


def test_matmul_identity(example_matrix):
    assert matmul(identity(2), example_matrix) == example_matrix
    with pytest.raises(DimensionMismatch):
        matmul(example_matrix, QMatrix([[1, 2, 3]]))


def test_conj_transpose(example_matrix):
    assert conj_transpose(example_matrix) == example_matrix
    rng = np.random.default_rng(4)
    A = random_qmatrix(3, 2, rng)
    assert conj_transpose(conj_transpose(A)) == A


def test_scale_right_order_matters():
    assert scale_right(QMatrix([[I]]), J) == QMatrix([[K]])
    assert scale_right(QMatrix([[J]]), I) == QMatrix([[-K]])


# --------------------------------------------------------- the storage

def test_data_is_read_only():
    A = from_components(*np.ones((4, 2, 3)))
    assert A.data.shape == (4, 2, 3)
    with pytest.raises(ValueError):
        A.data[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        A.components()[1][0, 0] = 2.0


def test_signed_zeros_are_equal_with_equal_hashes():
    assert QMatrix([[0.0]]) == QMatrix([[-0.0]])
    assert hash(QMatrix([[0.0]])) == hash(QMatrix([[-0.0]]))
    assert QMatrix([[1.0, 2.0]]) != QMatrix([[1.0], [2.0]])


def test_entries_hold_python_floats():
    rng = np.random.default_rng(8)
    A = from_components(*rng.uniform(-1, 1, (4, 2, 2)))
    assert all(type(c) is float for c in A[1, 0].components())
    assert all(type(c) is float
               for row in A.rows for a in row for c in a.components())
    assert A.rows[1][0] == A[1, 0]


def test_bad_shapes_raise_dimension_mismatch():
    for rows in ([], [[]], [[1, 2], [3]]):
        with pytest.raises(DimensionMismatch):
            QMatrix(rows)
    empty = np.zeros((0, 0))
    with pytest.raises(DimensionMismatch):
        from_components(empty, empty, empty, empty)
    with pytest.raises(DimensionMismatch):
        from_components(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        zeros(0)
    with pytest.raises(DimensionMismatch):
        QMatrix([[1]]) + QMatrix([[1, 2]])


def test_array_ops_overflow_silently():
    big = np.array([[1e200, 0.5], [0.5, 1e200]])
    zero = np.zeros((2, 2))
    A = from_components(big, zero, zero, zero)
    B = from_components(zero, big, big, zero)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matmul(A, A)[0, 0].w == math.inf
        assert math.isnan(matmul(B, B)[0, 0].z)  # inf - inf
        assert scale_right(A, 1e200)[0, 0].w == math.inf
        assert A.norm_inf() == math.inf
        assert vector_norm(A) == math.inf


def test_non_finite_entries_are_not_hidden():
    A = QMatrix([[1.0, 0.0], [0.0, math.nan]])
    assert math.isnan(A.norm_inf())
    for bad in (math.nan, math.inf):
        with pytest.raises(NotHermitian):
            validate_hermitian(QMatrix([[1.0, 0.0], [0.0, bad]]))


def test_worst_hermitian_pair_is_the_first_largest():
    rows = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
    rows[2][1] = Quaternion(0.0, 3.0)  # (2,3)/(3,2) ties (1,3)/(3,1)
    with pytest.raises(NotHermitian) as info:
        validate_hermitian(QMatrix(rows))
    assert (info.value.row, info.value.col, info.value.deviation) == (1, 3, 3.0)


def upper_triangle_worst(A):
    """(row, col), 1-based, of the worst Hermitian pair by the upper-triangle
    rule: over p <= q row by row, the first NaN deviation, else the first
    largest one."""
    deviation = np.max(np.abs(A.data - conj_transpose(A).data), axis=0)
    n = A.n_rows
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    nans = [pq for pq in pairs if math.isnan(deviation[pq])]
    p, q = nans[0] if nans else max(pairs, key=lambda pq: deviation[pq])
    return p + 1, q + 1


def test_worst_hermitian_pair_on_ties_and_nan_is_the_upper_triangle_one():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        # small integers: many deviations tie, below and above the diagonal
        data = rng.integers(-1, 2, (4, n, n)).astype(float)
        if rng.random() < 0.5:
            data[rng.integers(4), rng.integers(n), rng.integers(n)] = math.nan
        A = QMatrix.from_data(data)
        if not np.any(data != conj_transpose(A).data):
            continue
        with pytest.raises(NotHermitian) as info:
            validate_hermitian(A)
        assert (info.value.row, info.value.col) == upper_triangle_worst(A)
    # a NaN below the diagonal outranks a larger finite deviation above it
    rows = [[0.0, 5.0, 0.0], [0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]]
    with pytest.raises(NotHermitian) as info:
        validate_hermitian(QMatrix(rows))
    assert (info.value.row, info.value.col) == (1, 3)
    assert math.isnan(info.value.deviation)


def test_hermitian_check_is_relative_at_every_scale():
    validate_hermitian(zeros(3))  # tolerance 0, deviation 0
    z = np.zeros((2, 2))
    tiny = from_components([[1e-20, 2e-20], [2e-20, -1e-20]],
                           [[0.0, 3e-20], [-3e-20 + 1e-14, 0.0]], z, z)
    huge = from_components([[1e200, 1e200], [-1e200, 1.0]], z, z, z)
    # the deviation overflows; the scaled comparison still sees it
    edge = from_components([[0.0, 1.5e308], [-1.5e308, 0.0]], z, z, z)
    for A, deviation in ((tiny, pytest.approx(1e-14)), (huge, 2e200),
                         (edge, math.inf)):
        with pytest.raises(NotHermitian) as info:
            validate_hermitian(A)
        assert (info.value.row, info.value.col) == (1, 2)
        assert info.value.deviation == deviation
    validate_hermitian(from_components([[1e300, 1e300], [1e300, -1e300]], z, z, z))


def test_hermitian_check_equals_the_unscaled_formula():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        data = rng.standard_normal((4, n, n)) * 10.0 ** rng.uniform(-3, 3, (4, n, n))
        w, x, y, z = data
        tol = HERMITIAN_TOL * math.sqrt(np.max(w * w + x * x + y * y + z * z))
        A = QMatrix.from_data(data)
        deviation = np.max(np.abs(A.data - conj_transpose(A).data))
        with pytest.raises(NotHermitian) as info:
            validate_hermitian(A)
        assert info.value.deviation == deviation
        assert f"(tol {tol:.3e})" in str(info.value)
        if n == 1:
            continue
        # a Hermitian matrix at the same scale, nudged to either side of tol
        H = (A + conj_transpose(A)).data
        tol = HERMITIAN_TOL * QMatrix.from_data(H).norm_inf()
        near, far = H.copy(), H.copy()
        near[1, 0, -1] += 0.5 * tol
        far[1, 0, -1] += 2.0 * tol
        validate_hermitian(QMatrix.from_data(near))
        with pytest.raises(NotHermitian):
            validate_hermitian(QMatrix.from_data(far))


# -------------------------------------- the object loops as the oracle

def loop_matmul(A, B):
    def dot(row, col):
        acc = Quaternion()
        for a, b in zip(row, col):
            acc = acc + a * b
        return acc
    Bt = list(zip(*B.rows))
    return QMatrix([[dot(row, col) for col in Bt] for row in A.rows])


def loop_conj_transpose(A):
    return QMatrix([[A[p, q].conj() for p in range(A.n_rows)]
                    for q in range(A.n_cols)])


def loop_scale_right(v, q):
    return QMatrix([[a * q for a in row] for row in v.rows])


def loop_scale_left(q, v):
    return QMatrix([[q * a for a in row] for row in v.rows])


def loop_lambda_shift(A, lam):
    n = A.n_rows
    return QMatrix([[Quaternion(lam) - A[p, q] if p == q else -A[p, q]
                     for q in range(n)] for p in range(n)])


def assert_same_bits(got, want):
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


def signed_zero_qmatrix(m, n, rng):
    """Random entries, about half of the components replaced by +-0.0."""
    comps = rng.uniform(-1, 1, (4, m, n))
    zeros = rng.random((4, m, n)) < 0.5
    comps[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return from_components(*comps)


def negative_zero_qmatrix(m, n, rng):
    return from_components(*np.full((4, m, n), -0.0))


def test_array_ops_equal_the_object_loops():
    rng = np.random.default_rng(9)
    shapes = [(2, 3, 1)] + [tuple(rng.integers(1, 7, 3)) for _ in range(12)]
    for m, k, n in shapes:
        for make in (random_qmatrix, signed_zero_qmatrix, negative_zero_qmatrix):
            A, B = make(m, k, rng), make(k, n, rng)
            q = signed_zero_qmatrix(1, 1, rng)[0, 0]
            assert_same_bits(matmul(A, B), loop_matmul(A, B))
            assert_same_bits(conj_transpose(A), loop_conj_transpose(A))
            assert_same_bits(scale_right(A, q), loop_scale_right(A, q))
            assert_same_bits(scale_left(q, A), loop_scale_left(q, A))
            assert_same_bits(scale_right(A, 0.7), loop_scale_right(A, Quaternion(0.7)))
            S = make(m, m, rng)
            for lam in (0.7, 0.0, -0.0):
                assert_same_bits(lambda_shift(S, lam), loop_lambda_shift(S, lam))
