import itertools
import math

import numpy as np
import pytest

from qeei import (QMatrix, det, det_invariance_check, eigenvector_from_qadj,
                  identity, matmul, natural_submatrix, qadj, right_eigenvalues,
                  row_expansion, validate_hermitian)
from qeei import qdet
from qeei.errors import ComplexityLimit, IndexOutOfRange, NotSquare
from qeei.eigen import lambda_shift
from qeei.qdet import adjugate_column, adjugate_columns, permutation_terms
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


def test_adjugate_column_1x1_and_range():
    A = QMatrix([[Quaternion(5, 1, 2, 3)]])
    assert adjugate_column(A, 0).tolist() == [[1.0], [0.0], [0.0], [0.0]]
    for q in (-1, 1):
        with pytest.raises(IndexOutOfRange):
            adjugate_column(A, q)
    with pytest.raises(NotSquare):
        adjugate_column(QMatrix([[1, 2]]), 0)


def test_qadj_columns_are_the_cofactor_entries_bit_for_bit():
    # entry (p, q), 1-based: +|A_pp|^row on the diagonal, -|A_qp|^row off it
    rng = np.random.default_rng(36)
    for n in range(2, 6):
        A = random_qmatrix(n, n, rng)
        rows = [[row_expansion(natural_submatrix(A, q, p)) for q in range(1, n + 1)]
                for p in range(1, n + 1)]
        rows = [[a if p == q else -a for q, a in enumerate(row)]
                for p, row in enumerate(rows)]
        Q = qadj(A)
        assert np.array_equal(Q.data, QMatrix(rows).data)
        for q in range(n):
            assert np.array_equal(adjugate_column(A, q), Q.data[:, :, q])


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
            term = term * A[r, c]
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


def test_chunked_sums_equal_the_scalar_loop(monkeypatch):
    # sums longer than TERM_CAP are added in chunks, each started at the
    # running total; a cap of 5 chunks every sum from n = 3 on
    monkeypatch.setattr(qdet, "TERM_CAP", 5)
    rng = np.random.default_rng(36)
    z = Quaternion(-0.0, -0.0, -0.0, -0.0)
    big = Quaternion(1e300, -1e300, 2.0, 1e300)
    for n in range(1, 6):
        assert_matches_scalar(random_qmatrix(n, n, rng))
        assert_matches_scalar(QMatrix([[z if p == q else Quaternion(-0.0, 0.0, -1.0)
                                        for q in range(n)] for p in range(n)]))
    assert_matches_scalar(QMatrix([[big, Quaternion(1e300), I], [J, big.conj(), K],
                                   [Quaternion(0.5, 1e300), K, big]]))
    assert_matches_scalar(QMatrix([[Quaternion(math.inf), I], [J, K]]))


# ----------------------------------- the adjugate as a row-determinant cofactor

def scalar_rdet(A, p):
    """Kyrchei's rdet_p (0-based p), one Quaternion product at a time: each
    permutation's first cycle starts at row p, every other cycle at its
    smallest row, the cycles in ascending order of that row."""
    n = A.n_rows
    total = Quaternion()
    for perm in itertools.permutations(range(n)):
        term, cycles, unused, r = Quaternion(1.0), 0, set(range(n)), p
        while unused:
            cycles += 1
            while r in unused:
                unused.remove(r)
                term = term * A[r, perm[r]]
                r = perm[r]
            r = min(unused, default=None)
        total = total + term * float((-1) ** (n - cycles))
    return total


def test_qadj_is_the_row_determinant_cofactor():
    # qadj(A)[p, q] = rdet_p(A with column p replaced by e_q), entry by entry
    rng = np.random.default_rng(35)
    for n in range(2, 6):
        for A in (random_hermitian(n, rng).inner, random_qmatrix(n, n, rng)):
            Q = qadj(A)
            for p, q in itertools.product(range(n), repeat=2):
                B = A.data.copy()
                B[:, :, p] = 0.0
                B[0, q, p] = 1.0
                want = scalar_rdet(QMatrix.from_data(B), p)
                assert Q[p, q].isclose(want, 1e-12), (n, p, q)


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


def test_eigenvector_at_7_expands_7_minors_of_size_6(monkeypatch):
    H = random_hermitian_gapped(7, np.random.default_rng(34))
    expansions = count_calls(monkeypatch, qdet, "row_expansion")
    passes = count_calls(monkeypatch, qdet, "_permutation_sum")
    products = count_calls(monkeypatch, Quaternion, "__mul__")
    eigenvector_from_qadj(H, 4)
    # one adjugate column, the pivot column the EEI weights choose: its 7
    # cofactors of size 6 in one kernel pass of 7 * 720 terms
    assert [(len(which), len(signs)) for _, which, signs, _ in passes] == [(7, 720)]
    assert expansions == []
    # the reconstruction works on arrays: no scalar quaternion products
    assert products == []


# ------------------------------------------- cofactor batches against the sums

def per_sum_columns(stack, wanted):
    """adjugate_columns the long way: one row_expansion per natural submatrix."""
    n = stack.shape[-1]
    columns = np.zeros((4, n, len(wanted)))
    for k, (m, q) in enumerate(wanted):
        A = QMatrix.from_data(stack[:, m])
        if n == 1:
            columns[0, 0, k] = 1.0
            continue
        for p in range(n):
            val = row_expansion(natural_submatrix(A, q + 1, p + 1))
            columns[:, p, k] = (val if p == q else -val).components()
    return columns


def assert_same_array_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_adjugate_columns_equal_the_per_sum_route(monkeypatch):
    # two shifted Hermitian matrices and a general one per size; the pairs
    # repeat until the sums need more than one pass of TERM_CAP terms
    rng = np.random.default_rng(37)
    passes = count_calls(monkeypatch, qdet, "_permutation_sum")
    for n in range(1, 9):
        H = random_hermitian_gapped(n, rng)
        lams = right_eigenvalues(H).values
        stack = np.stack([lambda_shift(H.inner, lams[0]).data,
                          lambda_shift(H.inner, lams[-1]).data,
                          random_qmatrix(n, n, rng).data], axis=1)
        if n < 8:
            unique = [(m, q) for m in range(3) for q in range(n)]
        else:
            unique = [(0, 2), (2, 7)]
        per_pass = max(1, qdet.TERM_CAP // math.factorial(n - 1))
        repeats = per_pass // (n * len(unique)) + 1
        full, rest = divmod(n * len(unique) * repeats, per_pass)
        assert full + (rest > 0) > 1
        passes.clear()
        got = adjugate_columns(stack, unique * repeats)
        # full passes of per_pass sums, then the rest
        assert [len(which) for _, which, _, _ in passes] == (
            [per_pass] * full + [rest] * (rest > 0))
        want = per_sum_columns(stack, unique)
        assert_same_array_bits(got, np.tile(want, repeats))


def test_adjugate_columns_keep_signed_zeros_and_overflow():
    z = Quaternion(-0.0, -0.0, -0.0, -0.0)
    big = Quaternion(1e300, -1e300, 2.0, 1e300)
    for n in (3, 4, 5):
        zeros = QMatrix([[z if (p + q) % 2 else Quaternion(0.0, -0.0, 1.0)
                          for q in range(n)] for p in range(n)])
        huge = QMatrix([[big if p == q else Quaternion(0.5, 1e300, -0.0)
                         for q in range(n)] for p in range(n)])
        stack = np.stack([zeros.data, huge.data], axis=1)
        wanted = [(m, q) for m in range(2) for q in range(n)]
        want = per_sum_columns(stack, wanted)
        # the inputs do reach signed zeros and NaN
        signed = want[:, :, :n]
        assert np.signbit(signed[signed == 0]).any() and np.isnan(want).any()
        assert_same_array_bits(adjugate_columns(stack, wanted), want)


def test_adjugate_columns_at_9_build_no_table(monkeypatch):
    tables = count_calls(monkeypatch, qdet, "_term_table")
    cofactors = count_calls(monkeypatch, qdet, "_cofactor_table")
    with pytest.raises(ComplexityLimit):
        adjugate_columns(np.zeros((4, 1, 9, 9)), [(0, 0)])
    with pytest.raises(ComplexityLimit):
        adjugate_column(QMatrix([[1] * 9 for _ in range(9)]), 0)
    assert tables == [] and cofactors == []


def test_adjugate_columns_check_their_indices():
    stack = np.zeros((4, 2, 3, 3))
    for wanted in ([(0, 3)], [(2, 0)], [(-1, 0)]):
        with pytest.raises(IndexOutOfRange):
            adjugate_columns(stack, wanted)
    with pytest.raises(NotSquare):
        adjugate_columns(np.zeros((4, 1, 2, 3)), [(0, 0)])
    assert adjugate_columns(stack, []).shape == (4, 3, 0)
