import math

import numpy as np
import pytest

from qeei import (QMatrix, cauchy_binet_residual, eigenvector_from_qadj,
                  identity, matmul, null_space, real_lift, right_eigenvalues,
                  traditional_eigenpairs, validate_hermitian, zeros)
from qeei.eigen import lambda_shift
from qeei.oracle import spectral_adjugate
from qeei.qdet import adjugate_column, qadj
from qeei.errors import DimensionMismatch, NoZeroEigenvalue
from qeei.quat import Quaternion
from qeei.random_matrices import (random_hermitian, random_hermitian_gapped,
                                  random_qmatrix)

from conftest import SQRT13, U, max_component_dev, phase_align, vec_norm


def test_null_space_zero_matrix():
    result = null_space(zeros(2))
    assert result.rank == 0 and result.dim == 2
    assert result.basis[0] == QMatrix([[1], [0]])
    assert result.basis[1] == QMatrix([[0], [1]])


def test_null_space_diag():
    M = QMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    result = null_space(M)
    assert result.rank == 2
    assert result.basis == (QMatrix([[0], [1], [0]]),)


def test_null_space_example_eigenvector(example_matrix, example_hermitian):
    lam1 = (5 + SQRT13) / 2
    result = null_space(lambda_shift(example_matrix, lam1))
    assert result.dim == 1
    target = QMatrix([[U * math.sqrt(2.0 / (13.0 - SQRT13))],
                      [Quaternion(math.sqrt((13.0 - SQRT13) / 26.0))]])
    aligned = phase_align(result.basis[0], target)
    assert max_component_dev(aligned, target) < 1e-10


def test_null_space_vectors_annihilate():
    rng = np.random.default_rng(20)
    for n in (3, 4):
        H = random_hermitian(n, rng)
        spec = right_eigenvalues(H)
        M = lambda_shift(H.inner, spec[0])
        result = null_space(M)
        assert result.dim >= 1
        for b in result.basis:
            r = matmul(M, b)
            assert vec_norm(r) < 1e-8 * H.inner.norm_inf()
            assert abs(vec_norm(b) - 1.0) < 1e-12


def test_null_space_rank_matches_lift_rank():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        M = random_qmatrix(n, n, rng)
        result = null_space(M)
        lift_rank = np.linalg.matrix_rank(real_lift(M), tol=1e-10)
        assert 4 * result.rank == lift_rank


def test_traditional_eigenpairs_example(example_hermitian):
    pairs = traditional_eigenpairs(example_hermitian)
    moduli = [p.vector[0, 0].norm_sq() for p in pairs]
    # larger eigenvalue (second, ascending) has |v_1|^2 = (sqrt13+13)/26
    assert moduli[1] == pytest.approx((SQRT13 + 13) / 26, abs=1e-10)
    assert pairs[1].vector[1, 0].norm_sq() == pytest.approx(
        (13 - SQRT13) / 26, abs=1e-10)


def test_traditional_eigenpairs_diag():
    A = validate_hermitian(QMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    pairs = traditional_eigenpairs(A)
    for i, pair in enumerate(pairs):
        assert pair.vector.isclose(
            QMatrix([[1.0 if p == i else 0.0] for p in range(3)]), 1e-12)


def test_oracle_agrees_with_adjugate_route():
    rng = np.random.default_rng(22)
    for n in (2, 3, 4):
        H = random_hermitian_gapped(n, rng)
        trad = traditional_eigenpairs(H)
        for i in range(1, n + 1):
            main = eigenvector_from_qadj(H, i)
            aligned = phase_align(trad[i - 1].vector, main.vector)
            assert max_component_dev(aligned, main.vector) < 1e-7


def test_cauchy_binet_example(example_hermitian):
    spec = right_eigenvalues(example_hermitian)
    for lam in spec.values:
        shifted = validate_hermitian(
            lambda_shift(example_hermitian.inner, lam))
        B = QMatrix([[0], [1]])
        assert cauchy_binet_residual(shifted, B) < 1e-9


def test_cauchy_binet_zero_B(example_hermitian):
    spec = right_eigenvalues(example_hermitian)
    shifted = validate_hermitian(
        lambda_shift(example_hermitian.inner, spec[1]))
    assert cauchy_binet_residual(shifted, zeros(2, 1)) == pytest.approx(0.0, abs=1e-14)


def test_cauchy_binet_random():
    rng = np.random.default_rng(23)
    for _ in range(5):
        H = random_hermitian(3, rng)
        lam = right_eigenvalues(H)[2]
        shifted = validate_hermitian(lambda_shift(H.inner, lam))
        B = random_qmatrix(3, 2, rng)
        assert cauchy_binet_residual(shifted, B) < 1e-8


def test_cauchy_binet_requires_singular(example_hermitian):
    with pytest.raises(NoZeroEigenvalue):
        cauchy_binet_residual(example_hermitian, QMatrix([[0], [1]]))
    spec = right_eigenvalues(example_hermitian)
    shifted = validate_hermitian(
        lambda_shift(example_hermitian.inner, spec[0]))
    with pytest.raises(DimensionMismatch):
        cauchy_binet_residual(shifted, zeros(2))


def test_spectral_adjugate_agrees_with_qadj():
    # random Hermitian A and every lambda_i E - A; at n = 8 each shifted
    # matrix is checked through one column, the full qadj there costs ~0.1 s
    rng = np.random.default_rng(24)
    for n in range(2, 9):
        H = random_hermitian(n, rng)
        shifts = [lambda_shift(H.inner, lam) for lam in right_eigenvalues(H).values]
        for k, M in enumerate([H.inner] + shifts):
            want = spectral_adjugate(M)
            scale = want.norm_inf()
            if n < 8 or k == 0:
                assert (qadj(M) - want).norm_inf() <= 1e-12 * scale, (n, k)
            else:
                got = adjugate_column(M, k - 1)
                dev = np.sqrt(((got - want.data[:, :, k - 1]) ** 2).sum(axis=0)).max()
                assert dev <= 1e-12 * scale, (n, k)
