import math

import numpy as np
import pytest

from qeei import (HermitianSolve, QMatrix, conj_transpose, eei_modulus,
                  eei_report, eigenvector_from_qadj, identity, matmul, minor,
                  real_lift, right_eigenvalues, symmetric_eig,
                  validate_hermitian, verify_outer_product)
from qeei import eigen, qdet
from qeei.errors import (DegenerateEigenvalue, GroupingFailure, NotSymmetric)
from qeei.quat import I, J, K, Quaternion
from qeei.random_matrices import random_hermitian, random_hermitian_gapped

from conftest import (SQRT13, U, count_calls, max_component_dev, phase_align,
                      vec_norm)


def herm(rows):
    return validate_hermitian(QMatrix(rows))


# ---------------------------------------------------------------- Jacobi

def test_symmetric_eig_diagonal():
    values, V = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [1, 2, 3])
    assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])


def test_symmetric_eig_2x2():
    values, V = symmetric_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [-1, 1])
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(S @ V - V @ np.diag(values))) < 1e-10


def test_symmetric_eig_lift_of_example(example_matrix):
    values, _ = symmetric_eig(real_lift(example_matrix))
    lo, hi = (5 - SQRT13) / 2, (5 + SQRT13) / 2
    assert np.allclose(values, [lo] * 4 + [hi] * 4, atol=1e-9)


def test_symmetric_eig_matches_numpy():
    rng = np.random.default_rng(10)
    for n in (2, 5, 9):
        S = rng.uniform(-1, 1, (n, n))
        S = S + S.T
        values, V = symmetric_eig(S)
        assert np.allclose(values, np.linalg.eigvalsh(S), atol=1e-9)
        assert np.max(np.abs(S @ V - V * values)) < 1e-8 * (1 + np.max(np.abs(S)))
        assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-10


def test_symmetric_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ------------------------------------------------------- right eigenvalues

def test_right_eigenvalues_example(example_hermitian):
    spec = right_eigenvalues(example_hermitian)
    assert spec.values == pytest.approx(((5 - SQRT13) / 2, (5 + SQRT13) / 2),
                                        abs=1e-10)
    assert spec.source_dim == 2


def test_right_eigenvalues_1x1():
    spec = right_eigenvalues(herm([[5]]))
    assert spec.values == pytest.approx((5.0,), abs=1e-12)


def test_right_eigenvalues_quadruples():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 6):
        H = random_hermitian(n, rng)
        lift = real_lift(H.inner)
        values, _ = symmetric_eig(lift)
        tol = 1e-8 * (1.0 + np.max(np.abs(lift)))
        for t in range(n):
            quad = values[4 * t:4 * t + 4]
            assert quad[-1] - quad[0] < tol


def test_grouping_failure_on_tight_tol(example_hermitian):
    with pytest.raises(GroupingFailure):
        right_eigenvalues(example_hermitian, grouping_tol=1e-18)


# ------------------------------------------------------------ EEI moduli

def test_eei_modulus_example(example_hermitian):
    # larger eigenvalue is index 2 in ascending order
    assert eei_modulus(example_hermitian, 2, 1) == pytest.approx(
        (SQRT13 + 13) / 26, abs=1e-10)
    assert eei_modulus(example_hermitian, 2, 2) == pytest.approx(
        (13 - SQRT13) / 26, abs=1e-10)
    # moduli of a unit eigenvector sum to one
    total = eei_modulus(example_hermitian, 1, 1) + eei_modulus(example_hermitian, 1, 2)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_eei_modulus_zero_component():
    A = herm([[1, 0], [0, 2]])
    assert eei_modulus(A, 1, 2) == pytest.approx(0.0, abs=1e-12)
    assert eei_modulus(A, 1, 1) == pytest.approx(1.0, abs=1e-12)


def test_eei_modulus_degenerate():
    A = herm([[1, 0], [0, 1]])
    with pytest.raises(DegenerateEigenvalue):
        eei_modulus(A, 1, 1)


# ------------------------------------------------- eigenvector reconstruction

def test_eigenvector_example(example_hermitian):
    pair = eigenvector_from_qadj(example_hermitian, 2)
    # the reference solution fixes component 2 real; align phases first
    target = QMatrix([[U * math.sqrt(2.0 / (13.0 - SQRT13))],
                      [Quaternion(math.sqrt((13.0 - SQRT13) / 26.0))]])
    aligned = phase_align(pair.vector, target)
    assert max_component_dev(aligned, target) < 1e-10
    assert pair.residual < 1e-10
    assert pair.norm_dev < 1e-10


def test_eigenvector_diag():
    pair = eigenvector_from_qadj(herm([[1, 0], [0, 2]]), 2)
    assert pair.vector.isclose(QMatrix([[0], [1]]), 1e-12)
    assert pair.pivot_index == 2


def test_eigenvector_pivot_component_real_nonneg():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        H = random_hermitian_gapped(n, rng)
        for i in range(1, n + 1):
            pair = eigenvector_from_qadj(H, i)
            piv = pair.vector[pair.pivot_index - 1, 0]
            assert piv.is_real(1e-12) and piv.w >= 0.0
            assert pair.residual < 1e-8
            assert pair.norm_dev < 1e-8


def test_eigenvector_degenerate():
    with pytest.raises(DegenerateEigenvalue):
        eigenvector_from_qadj(herm([[2, 0], [0, 2]]), 1)


def test_eigenvectors_orthonormal():
    rng = np.random.default_rng(13)
    for n in (3, 4, 5):
        H = random_hermitian_gapped(n, rng)
        cols = [eigenvector_from_qadj(H, i).vector for i in range(1, n + 1)]
        V = QMatrix([[cols[q][p, 0] for q in range(n)] for p in range(n)])
        gram = matmul(conj_transpose(V), V)
        assert (gram - identity(n)).norm_inf() < 1e-7


# ---------------------------------------------------------------- reports

def test_eei_report_example(example_hermitian):
    reports = eei_report(example_hermitian)
    assert len(reports) == 4
    assert max(r.residual for r in reports) < 1e-10


def test_eei_report_1x1():
    (rep,) = eei_report(herm([[7]]))
    assert rep.lhs == rep.rhs == 1.0


def test_eei_report_random_4x4():
    rng = np.random.default_rng(14)
    H = random_hermitian_gapped(4, rng)
    assert max(r.residual for r in eei_report(H)) < 1e-7


def test_eei_both_routes_agree():
    rng = np.random.default_rng(15)
    for n in (2, 3, 4, 5):
        H = random_hermitian_gapped(n, rng)
        for i in range(1, n + 1):
            pair = eigenvector_from_qadj(H, i)
            for j in range(1, n + 1):
                assert abs(pair.vector[j - 1, 0].norm_sq()
                           - eei_modulus(H, i, j)) < 1e-7


def test_zero_component_matches_minor_spectrum():
    # block-diagonal input forces a zero component; the minor spectrum
    # must then contain the eigenvalue itself
    rng = np.random.default_rng(16)
    B = random_hermitian_gapped(2, rng)
    rows = [[B.inner[0, 0], B.inner[0, 1], 0],
            [B.inner[1, 0], B.inner[1, 1], 0],
            [0, 0, 9.0]]
    A = herm(rows)
    spec = right_eigenvalues(A)
    minor_spec = right_eigenvalues(minor(A, 3))
    for lam in spec.values:
        if abs(lam - 9.0) > 1e-6:
            assert min(abs(lam - mu) for mu in minor_spec.values) < 1e-8


# ------------------------------------------------------- outer product

def test_outer_product_example(example_hermitian):
    assert verify_outer_product(example_hermitian, 1) < 1e-10
    assert verify_outer_product(example_hermitian, 2) < 1e-10


def test_outer_product_diag():
    assert verify_outer_product(herm([[1, 0], [0, 2]]), 2) < 1e-14


def test_outer_product_random():
    rng = np.random.default_rng(17)
    H = random_hermitian_gapped(3, rng)
    for i in (1, 2, 3):
        assert verify_outer_product(H, i) < 1e-8


# ------------------------------------------------------------- the solve

def test_solve_gives_the_matrix_route_results():
    rng = np.random.default_rng(21)
    H = random_hermitian_gapped(4, rng)
    solve = HermitianSolve(H)
    assert solve.spectrum == right_eigenvalues(H)
    assert eei_report(solve) == eei_report(H)
    for i in range(1, 5):
        assert eigenvector_from_qadj(solve, i) == eigenvector_from_qadj(H, i)
        assert verify_outer_product(solve, i) == verify_outer_product(H, i)
        for j in range(1, 5):
            assert eei_modulus(solve, i, j) == eei_modulus(H, i, j)


def test_gapped_draw_failure_is_a_qeei_error():
    with pytest.raises(DegenerateEigenvalue):
        random_hermitian_gapped(3, np.random.default_rng(24), min_gap=1e9,
                                max_tries=2)


def test_eigenvector_solves_once(monkeypatch):
    H = random_hermitian_gapped(4, np.random.default_rng(22))
    eigs = count_calls(monkeypatch, eigen, "symmetric_eig")
    adjs = count_calls(monkeypatch, qdet, "qadj")
    eigenvector_from_qadj(H, 2)
    assert (len(eigs), len(adjs)) == (1, 1)


def test_solve_keeps_each_result(monkeypatch):
    H = random_hermitian_gapped(4, np.random.default_rng(23))
    solve = HermitianSolve(H)
    eigs = count_calls(monkeypatch, eigen, "symmetric_eig")
    adjs = count_calls(monkeypatch, qdet, "qadj")
    for _ in range(2):
        eei_report(solve)
        for i in range(1, 5):
            verify_outer_product(solve, i)
            eigenvector_from_qadj(solve, i)
    # four minor spectra and four shifted adjugates, each built once
    assert (len(eigs), len(adjs)) == (4, 4)
    assert solve.eigenpair(3) is eigenvector_from_qadj(solve, 3)
