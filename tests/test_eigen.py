import math

import numpy as np
import pytest

from qeei import (HermitianSolve, QMatrix, conj_transpose, eei_modulus,
                  eei_report, eigenvector_from_qadj, identity, matmul, minor,
                  real_lift, right_eigenvalues, symmetric_eig,
                  validate_hermitian, verify_outer_product)
from qeei import eigen, qdet, qmatrix
from qeei.eigen import lambda_shift
from qeei.oracle import spectral_adjugate
from qeei.errors import (DegenerateEigenvalue, GroupingFailure, IndexOutOfRange,
                         NotSymmetric, PivotFailure)
from qeei.quat import I, J, K, Quaternion
from qeei.random_matrices import random_hermitian, random_hermitian_gapped

from conftest import (SQRT13, U, count_calls, max_component_dev, phase_align,
                      vec_norm)


def herm(rows):
    return validate_hermitian(QMatrix(rows))


# ---------------------------------------------------------------- Jacobi

def test_symmetric_eig_diagonal():
    values = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [1, 2, 3])


def test_symmetric_eig_2x2():
    values = symmetric_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [-1, 1])


def test_symmetric_eig_of_empty_matrix():
    values = symmetric_eig(np.zeros((0, 0)))
    assert values.shape == (0,)


def test_symmetric_eig_lift_of_example(example_matrix):
    values = symmetric_eig(real_lift(example_matrix))
    lo, hi = (5 - SQRT13) / 2, (5 + SQRT13) / 2
    assert np.allclose(values, [lo] * 4 + [hi] * 4, atol=1e-9)


def test_symmetric_eig_matches_numpy():
    rng = np.random.default_rng(10)
    for n in (2, 5, 9):
        S = rng.uniform(-1, 1, (n, n))
        S = S + S.T
        values = symmetric_eig(S)
        assert np.allclose(values, np.linalg.eigvalsh(S), atol=1e-9)


@pytest.mark.parametrize("S", [np.array([[-2.5]]), np.zeros((3, 3))])
def test_symmetric_eig_early_return_is_ascending_1d(S):
    values = symmetric_eig(S)
    assert values.shape == (len(S),)
    assert np.all(np.diff(values) >= 0)
    assert np.array_equal(values, np.diag(S))


def test_symmetric_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_eig_of_a_stack_solves_each_member():
    rng = np.random.default_rng(41)
    S = rng.uniform(-1, 1, (3, 5, 5))
    S = S + S.swapaxes(1, 2)
    values = symmetric_eig(S)
    for member, got in zip(S, values):
        assert np.array_equal(got, symmetric_eig(member))
    assert symmetric_eig(np.zeros((3, 0, 0))).shape == (3, 0)


def test_symmetric_eig_checks_each_member_against_its_own_scale():
    # the 1e-7 asymmetry is far inside the tolerance of the 1e6 members,
    # and far outside that of its own member
    big = 1e6 * np.eye(3)
    small = np.eye(3)
    small[0, 1] = 1e-7
    symmetric_eig(np.stack([big, big]))
    with pytest.raises(NotSymmetric):
        symmetric_eig(np.stack([big, small, big]))


# ------------------------------------------------------- right eigenvalues

def test_right_eigenvalues_example(example_hermitian):
    spec = right_eigenvalues(example_hermitian)
    assert spec.values == pytest.approx(((5 - SQRT13) / 2, (5 + SQRT13) / 2),
                                        abs=1e-10)


def test_right_eigenvalues_of_tiny_entries(example_matrix):
    # below 1e-300 an unscaled Jacobi sweep skips every rotation
    tiny = validate_hermitian(QMatrix.from_data(example_matrix.data * 1e-300))
    expected = ((5 - SQRT13) / 2 * 1e-300, (5 + SQRT13) / 2 * 1e-300)
    assert right_eigenvalues(tiny).values == pytest.approx(expected, rel=1e-12,
                                                           abs=0)


def test_right_eigenvalues_1x1():
    spec = right_eigenvalues(herm([[5]]))
    assert spec.values == pytest.approx((5.0,), abs=1e-12)


def test_right_eigenvalues_quadruples():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 6):
        H = random_hermitian(n, rng)
        lift = real_lift(H.inner)
        values = symmetric_eig(lift)
        tol = 1e-8 * (1.0 + np.max(np.abs(lift)))
        for t in range(n):
            quad = values[4 * t:4 * t + 4]
            assert quad[-1] - quad[0] < tol


def complex_adjoint(A):
    """chi(A) = [[A1, A2], [-conj(A2), conj(A1)]] for A = A1 + A2 j: a 2n x 2n
    Hermitian matrix whose eigenvalues are the right eigenvalues, twice."""
    w, x, y, z = A.inner.data
    A1, A2 = w + 1j * x, y + 1j * z
    return np.block([[A1, A2], [-A2.conj(), A1.conj()]])


def test_right_eigenvalues_match_the_complex_adjoint():
    # an independent route: complex 2n x 2n instead of the real 4n x 4n lift
    rng = np.random.default_rng(25)
    for n in range(1, 9):
        for _ in range(5):
            H = random_hermitian(n, rng)
            expected = np.linalg.eigvalsh(complex_adjoint(H))[::2]
            values = np.array(right_eigenvalues(H).values)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(values - expected)) <= 1e-13 * scale


@pytest.mark.parametrize("k", [-500, -100, 100, 500])
def test_right_eigenvalues_scale_exactly_by_powers_of_two(k):
    rng = np.random.default_rng(26)
    for n in (1, 2, 3, 5, 8):
        H = random_hermitian(n, rng)
        scaled = validate_hermitian(QMatrix.from_data(np.ldexp(H.inner.data, k)))
        expected = [math.ldexp(v, k) for v in right_eigenvalues(H).values]
        assert list(right_eigenvalues(scaled).values) == expected


def test_grouping_failure_on_tight_tol(example_hermitian, monkeypatch):
    # max |lift| = 3 on the example, so the tolerance is 2.5e-19 * 4 = 1e-18
    monkeypatch.setattr(eigen, "GROUPING_TOL", 2.5e-19)
    with pytest.raises(GroupingFailure):
        right_eigenvalues(example_hermitian)


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


def test_vector_norm_adds_the_squares_in_order():
    # each 2**-54 square rounds away against 1.0; a compensated sum (Python
    # 3.12+'s builtin sum) would keep the 16 of them and give 1 + 2**-51
    v = QMatrix([[1.0]] + [[2.0 ** -27]] * 16)
    assert eigen.vector_norm(v).hex() == (1.0).hex()


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


def same_floats(a, b):
    return [float.hex(x) for x in a] == [float.hex(y) for y in b]


def assert_same_spectrum(got, want):
    assert same_floats(got.values, want.values)
    assert same_floats([got.grouping_tol], [want.grouping_tol])


def test_minor_spectra_equal_the_per_minor_route():
    rng = np.random.default_rng(42)
    for n in range(2, 9):
        H = random_hermitian_gapped(n, rng)
        solve = HermitianSolve(H)
        for j in range(1, n + 1):
            assert_same_spectrum(solve.minor_spectra[j - 1],
                                 right_eigenvalues(minor(H, j)))
    # row and column 1 scaled by 2**e: M_1 is of order 1, the other minors
    # of order 2**(2e), and each is solved at its own scale
    for e in (200, 300):
        data = random_hermitian_gapped(4, rng).inner.data.copy()
        data[:, 0] *= 2.0 ** e
        data[:, :, 0] *= 2.0 ** e
        H = validate_hermitian(QMatrix.from_data(data))
        solve = HermitianSolve(H)
        scales = [max(map(abs, s.values)) for s in solve.minor_spectra]
        assert min(scales[1:]) > 2.0 ** (2 * e - 10) and scales[0] < 2.0 ** 10
        for j in range(1, 5):
            assert_same_spectrum(solve.minor_spectra[j - 1],
                                 right_eigenvalues(minor(H, j)))


def test_minor_gap_product_of_a_1x1_matrix_is_one():
    # the 0 x 0 minor has an empty spectrum
    solve = HermitianSolve(herm([[5]]))
    assert solve.minor_gap_product(1, 1) == 1.0
    with pytest.raises(IndexOutOfRange):
        solve.minor_gap_product(1, 2)


def test_batched_grouping_failure_reads_like_the_per_minor_one(monkeypatch):
    # widen the second lift quadruple of every matrix whose first diagonal
    # entry is negative: a_11 < 0 < a_22 puts it in M_2 and M_3, not M_1
    H = herm([[-3, I, 0.5], [-I, 2, J], [0.5, -J, 1]])
    solve = HermitianSolve(H)
    original = eigen.symmetric_eig

    def widened(S):
        values = original(S)
        values[..., 7] += np.where(S[..., 0, 0] < 0, 1.0, 0.0)
        return values

    monkeypatch.setattr(eigen, "symmetric_eig", widened)
    right_eigenvalues(minor(H, 1))
    with pytest.raises(GroupingFailure) as per_minor:
        right_eigenvalues(minor(H, 2))
    with pytest.raises(GroupingFailure) as batched:
        solve.minor_spectra
    assert "around index 4" in str(batched.value)
    assert str(batched.value) == str(per_minor.value)


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


def old_gap(values, i):
    """Spectrum.gap as it was: the distance to every other value, minimised."""
    lam = values[i - 1]
    others = [v for k, v in enumerate(values) if k != i - 1]
    return min((abs(lam - v) for v in others), default=math.inf)


def test_gap_is_the_nearest_neighbour_distance():
    rng = np.random.default_rng(43)
    spectra = [tuple(sorted((rng.normal(size=n) * 10.0 ** rng.integers(-5, 6))
                            .tolist())) for n in range(1, 9) for _ in range(25)]
    spectra += [(1.0, 1.0, 2.0), (0.0, 0.0, 0.0), (-0.0, 0.0, 1.0),
                (-1.0, 0.5, 0.5, 0.5, 3.0), (0.1, 0.2, 0.3, 0.4), (1.0,)]
    for values in spectra:
        spectrum = eigen.Spectrum(values, 0.0)
        assert same_floats([spectrum.gap(i) for i in range(1, len(values) + 1)],
                           [old_gap(values, i) for i in range(1, len(values) + 1)])


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
    # the spectrum and the four minor spectra (one call) pick the pivot; no
    # full adjugate
    assert (len(eigs), len(adjs)) == (2, 0)


def test_solve_keeps_each_result(monkeypatch):
    H = random_hermitian_gapped(4, np.random.default_rng(23))
    solve = HermitianSolve(H)
    eigs = count_calls(monkeypatch, eigen, "symmetric_eig")
    batches = count_calls(monkeypatch, qdet, "adjugate_columns")
    for _ in range(2):
        eei_report(solve)
        for i in range(1, 5):
            verify_outer_product(solve, i)
            eigenvector_from_qadj(solve, i)
    # the four minor spectra in one call, and the 16 columns of the four
    # shifted adjugates in one batch, each built once
    assert len(eigs) == 1
    assert [(len(wanted), len(set(wanted))) for _, wanted in batches] == [(16, 16)]
    assert solve.eigenpair(3) is eigenvector_from_qadj(solve, 3)


def test_partially_degenerate_spectrum(monkeypatch):
    # a real rotation of diag(1, 1, 3): lambda_3 is simple, lambda_1 = lambda_2
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    A0 = Q @ np.diag([1.0, 1.0, 3.0]) @ Q.T
    zero = np.zeros((3, 3))
    H = validate_hermitian(
        qmatrix.from_components(0.5 * (A0 + A0.T), zero, zero, zero))
    assert eigenvector_from_qadj(H, 3).residual < 1e-14
    assert verify_outer_product(H, 3) < 1e-14
    # a solve that keeps the simple shift's adjugate still checks every
    # shift, in order, before evaluating any other
    solve = HermitianSolve(H)
    verify_outer_product(solve, 3)
    for A in (H, solve):
        passes = count_calls(monkeypatch, qdet, "_permutation_sum")
        with pytest.raises(DegenerateEigenvalue, match="^eigenvalue 1 "):
            eei_report(A)
        assert passes == []


def test_non_finite_pivot_column_is_a_pivot_failure():
    # eigenvalues 0, 1e150, 1e155 in a rotated basis: the EEI weights of
    # lambda_1 are finite, but the 2x2 cofactors of the shifted matrix
    # multiply entries of ~3e154 and overflow
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    U = np.array([[1, 0, 0], [0, c, -s], [0, s, c]]) @ np.array(
        [[c, -s, 0], [s, c, 0], [0, 0, 1]])
    A0 = U @ np.diag([0.0, 1e150, 1e155]) @ U.T
    zero = np.zeros((3, 3))
    solve = HermitianSolve(validate_hermitian(
        qmatrix.from_components(0.5 * (A0 + A0.T), zero, zero, zero)))
    weights = [solve.minor_gap_product(1, j) / solve.gap_product(1)
               for j in range(1, 4)]
    assert all(map(math.isfinite, weights))
    with pytest.raises(PivotFailure, match="pivot column"):
        solve.eigenpair(1)


def diagonal_pivot_vector(Q, c):
    """The vector as it was built before the pivot came from the minor
    spectra: pivot m where the diagonal of Q = c v v* is largest, column m
    scaled by 1 / (c conj(v_m)) with v_m real."""
    weights = Q.data[0].diagonal() / c
    m = int(np.argmax(weights))
    vm = math.sqrt(weights[m])
    column = Q.data[:, :, m] / (vm * c)
    column[:, m] = (vm, 0.0, 0.0, 0.0)
    return column, m + 1


def test_pivot_column_matches_the_full_adjugate_route():
    # references: the full qadj for n <= 7, the spectral adjugate at n = 8
    rng = np.random.default_rng(25)
    for n in range(2, 9):
        for _ in range(2 if n < 8 else 1):
            solve = HermitianSolve(random_hermitian_gapped(n, rng))
            for i in range(1, n + 1):
                S = lambda_shift(solve.A.inner, solve.eigenvalue(i))
                Q = qdet.qadj(S) if n < 8 else spectral_adjugate(S)
                want, m = diagonal_pivot_vector(Q, solve.gap_product(i))
                pair = solve.eigenpair(i)
                assert pair.pivot_index == m, (n, i)
                assert np.max(np.abs(pair.vector.data[:, :, 0] - want)) < 1e-12
