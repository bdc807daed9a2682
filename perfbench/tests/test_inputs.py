"""Inputs are seeded, gapped, and their references agree with qeei."""

import numpy as np

from perfbench import inputs
from perfbench.workloads import MEASURED_STREAM, WORKLOADS
from qeei import eigen, qmatrix


def test_same_seed_same_inputs(tmp_path):
    for workload in WORKLOADS.values():
        a = workload.make_input(11, MEASURED_STREAM, 3, tmp_path)
        b = workload.make_input(11, MEASURED_STREAM, 3, tmp_path)
        c = workload.make_input(12, MEASURED_STREAM, 3, tmp_path)
        assert np.array_equal(a.matrix.comps, b.matrix.comps)
        assert np.array_equal(a.matrix.spectrum, b.matrix.spectrum)
        assert not np.array_equal(a.matrix.comps, c.matrix.comps)


def test_workload_sizes(tmp_path):
    spectrum = WORKLOADS["spectrum-mixed"]
    assert [spectrum.make_input(0, 1, k, tmp_path).matrix.n for k in range(7)] == \
        list(range(2, 9))
    eigvec = WORKLOADS["eigvec-n7"]
    assert [eigvec.make_input(0, 1, k, tmp_path).index for k in range(8)] == \
        [1, 2, 3, 4, 5, 6, 7, 1]
    verify = WORKLOADS["verify-n4"].make_input(0, 1, 0, tmp_path)
    assert verify.matrix.n == 4 and verify.path.is_file()


def test_hermitian_gapped_and_reference_matches_qeei():
    rng = np.random.default_rng(3)
    for n in (2, 5):
        m = inputs.gapped_matrix(n, rng)
        c = m.comps
        assert np.array_equal(c[0], c[0].T)
        assert all(np.array_equal(c[t], -c[t].T) for t in (1, 2, 3))
        assert np.min(np.diff(m.spectrum)) > inputs.MIN_GAP
        H = qmatrix.validate_hermitian(qmatrix.from_components(*c))
        assert np.allclose(eigen.right_eigenvalues(H).values, m.spectrum,
                           rtol=0, atol=1e-10 * m.norm)


def test_file_round_trips_exactly(tmp_path):
    from qeei import cli
    m = inputs.gapped_matrix(4, np.random.default_rng(5))
    m.write(tmp_path / "m.json")
    A, _, _ = cli.load_matrix_file(tmp_path / "m.json")
    assert all(np.array_equal(x, y) for x, y in zip(A.components(), m.comps))
