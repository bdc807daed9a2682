"""The gate passes qeei's real results and fails corrupted ones."""

import json

import numpy as np
import pytest

from perfbench import gate
from perfbench.inputs import gapped_matrix
from qeei import cli, eigen, qmatrix
from qeei.quat import Quaternion


@pytest.fixture(scope="module")
def matrix():
    return gapped_matrix(3, np.random.default_rng(7))


@pytest.fixture(scope="module")
def pair(matrix):
    H = qmatrix.validate_hermitian(qmatrix.from_components(*matrix.comps))
    return eigen.eigenvector_from_qadj(H, 2)


def vector(pair):
    return gate.quat_array(pair.vector)


def test_hamilton_matches_quaternion_product():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=4), rng.normal(size=4)
    expected = (Quaternion(*a) * Quaternion(*b)).components()
    assert np.allclose(gate.hamilton(a, b), expected, rtol=0, atol=1e-15)


def test_spectrum_gate(matrix):
    assert gate.check_spectrum(matrix.spectrum.copy(), matrix) == []
    wrong = matrix.spectrum.copy()
    wrong[1] += 1e-6
    assert gate.check_spectrum(wrong, matrix)
    wrong[1] = np.nan
    assert gate.check_spectrum(wrong, matrix)
    assert gate.check_spectrum(matrix.spectrum[:-1], matrix)


def test_eigenpair_gate_passes_qeei(pair, matrix):
    assert gate.check_eigenpair(pair.lam, pair.vector, 2, matrix,
                                reported=(pair.residual, pair.norm_dev)) == []


def test_perturbed_eigenvector_fails(pair, matrix):
    v = vector(pair)
    v[0, 2] += 1e-3
    assert gate.check_eigenpair(pair.lam, v, 2, matrix)


def test_wrong_eigenvalue_fails(pair, matrix):
    assert gate.check_eigenpair(pair.lam + 1e-4, vector(pair), 2, matrix)
    assert gate.check_eigenpair(pair.lam, vector(pair), 1, matrix)


def test_non_finite_eigenpair_fails(pair, matrix):
    v = vector(pair)
    v[1, 0] = np.nan
    assert gate.check_eigenpair(pair.lam, v, 2, matrix)
    assert gate.check_eigenpair(pair.lam, vector(pair), 2, matrix,
                                reported=(float("nan"), 0.0))


def test_phase_convention_enforced(pair, matrix):
    # v * i is still a unit eigenvector, but its dominant component is imaginary
    v = gate.hamilton(vector(pair), np.array([0.0, 1.0, 0.0, 0.0]))
    assert gate.check_eigenpair(pair.lam, v, 2, matrix)
    assert gate.check_eigenpair(pair.lam, -vector(pair), 2, matrix)


def test_verify_gate(matrix, tmp_path, capsys):
    path = tmp_path / "m.json"
    matrix.write(path)
    code = cli.main(["--format", "json", "verify", str(path)])
    stdout = capsys.readouterr().out
    assert gate.check_verify(code, stdout, matrix) == []

    report = json.loads(stdout)
    assert gate.check_verify(7, stdout, matrix)
    assert gate.check_verify(0, "not json", matrix)

    nan_residual = dict(report, residuals=dict(report["residuals"], unitarity=float("nan")))
    assert report["status"] == "ok"
    assert gate.check_verify(0, json.dumps(nan_residual), matrix)

    large = dict(report, residuals=dict(report["residuals"], eei_max=1e-2))
    assert gate.check_verify(0, json.dumps(large), matrix)

    missing = dict(report, residuals={"unitarity": 0.0})
    assert gate.check_verify(0, json.dumps(missing), matrix)

    shifted = dict(report, spectrum=[v + 1e-4 for v in report["spectrum"]])
    assert gate.check_verify(0, json.dumps(shifted), matrix)
