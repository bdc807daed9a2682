import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qeei import cli, eigen, qdet
from qeei.qmatrix import from_components
from qeei.random_matrices import random_hermitian_gapped

from conftest import SQRT13, count_calls

EXAMPLE_DOC = {
    "n": 2,
    "re": [[3, 0], [0, 2]],
    "im_i": [[0, 1], [-1, 0]],
    "im_j": [[0, -1], [1, 0]],
    "im_k": [[0, 1], [-1, 0]],
}


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE_DOC))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, ["--format", "json"] + argv)
    return code, (json.loads(out) if out else None)


def test_eig_example(example_file, capsys):
    code, out = run(capsys, ["eig", example_file])
    assert code == 0
    lo, hi = (5 - SQRT13) / 2, (5 + SQRT13) / 2
    assert f"{lo:.10g}" in out and f"{hi:.10g}" in out


def test_eig_zero_matrix(tmp_path, capsys):
    doc = {"n": 2, "re": [[0, 0], [0, 0]], "im_i": [[0, 0], [0, 0]],
           "im_j": [[0, 0], [0, 0]], "im_k": [[0, 0], [0, 0]]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["eig", str(path)])
    assert code == 0
    assert report["spectrum"] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_vec_example(example_file, capsys):
    code, report = run_json(capsys, ["vec", example_file, "--index", "2"])
    assert code == 0
    (pair,) = report["eigenpairs"]
    assert pair["lambda"] == pytest.approx((5 + SQRT13) / 2, abs=1e-10)
    mods = [math.sqrt(sum(c * c for c in comp)) for comp in pair["vector"]]
    assert mods[0] == pytest.approx(math.sqrt((SQRT13 + 13) / 26), abs=1e-9)
    assert mods[1] == pytest.approx(math.sqrt((13 - SQRT13) / 26), abs=1e-9)
    assert pair["residual"] < 1e-10


def test_det_example(example_file, capsys):
    code, report = run_json(capsys, ["det", example_file])
    assert code == 0
    assert report["det"] == pytest.approx([3.0, 0.0, 0.0, 0.0], abs=1e-10)


def test_qadj_with_lambda(example_file, capsys):
    lam1 = (5 + SQRT13) / 2
    code, report = run_json(capsys, ["qadj", example_file,
                                     "--lambda", repr(lam1)])
    assert code == 0
    assert np.allclose(report["B0"], [[0.5 + SQRT13 / 2, 0],
                                      [0, -0.5 + SQRT13 / 2]], atol=1e-9)
    assert np.allclose(report["B1"], [[0, 1], [-1, 0]], atol=1e-9)
    assert np.allclose(report["B2"], [[0, -1], [1, 0]], atol=1e-9)
    assert np.allclose(report["B3"], [[0, 1], [-1, 0]], atol=1e-9)


def test_verify_example(example_file, capsys):
    code, report = run_json(capsys, ["verify", example_file])
    assert code == 0
    assert report["status"] == "ok"
    assert max(report["residuals"].values()) < 1e-10


def test_round_trip_echo(example_file, capsys):
    _, report = run_json(capsys, ["verify", example_file])
    echoed = report["matrix"]
    assert echoed == EXAMPLE_DOC
    # and a re-serialized echo parses back to the identical matrix
    again = json.loads(json.dumps(echoed))
    A = from_components(again["re"], again["im_i"], again["im_j"], again["im_k"])
    B = from_components(EXAMPLE_DOC["re"], EXAMPLE_DOC["im_i"],
                        EXAMPLE_DOC["im_j"], EXAMPLE_DOC["im_k"])
    assert A == B


def test_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["eig", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 2, "re": [[1, 0], [0, 1]]}))
    assert cli.main(["eig", str(missing)]) == 2
    assert cli.main(["eig", str(tmp_path / "nope.json")]) == 2


def test_not_hermitian_exit(tmp_path, capsys):
    doc = dict(EXAMPLE_DOC)
    doc["im_i"] = [[0, 1], [1, 0]]
    path = tmp_path / "nh.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["eig", str(path)]) == 3
    assert cli.main(["verify", str(path)]) == 3


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("index", ["0", "3"])
def test_vec_index_out_of_range_exit(example_file, capsys, index):
    assert cli.main(["vec", example_file, "--index", index]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf"), "x"])
def test_bad_entry_exit(tmp_path, capsys, entry):
    doc = dict(EXAMPLE_DOC, re=[[3, 0], [0, entry]])
    assert cli.main(["eig", write_doc(tmp_path, "bad.json", doc)]) == 2


def test_bool_n_exit(tmp_path, capsys):
    doc = {"n": True, "re": [[1]], "im_i": [[0]], "im_j": [[0]], "im_k": [[0]]}
    assert cli.main(["eig", write_doc(tmp_path, "booln.json", doc)]) == 2


def test_non_finite_eigenvector_is_not_ok(tmp_path, capsys):
    # 1e300 overflows the shifted adjugate; the vector would be all NaN
    zero = [[0.0] * 3 for _ in range(3)]
    doc = {"n": 3, "re": [[1e300, 0.5, 0.1], [0.5, 2.0, 0.3], [0.1, 0.3, -1.0]],
           "im_i": zero, "im_j": zero, "im_k": zero}
    path = write_doc(tmp_path, "huge.json", doc)
    with np.errstate(over="ignore", invalid="ignore"):
        code, report = run_json(capsys, ["vec", path, "--index", "3"])
    assert code == 4 and report is None


def huge_entry_file(tmp_path):
    # finite entries, but ||A||_inf ** n overflows a float
    zero = [[0.0] * 3 for _ in range(3)]
    doc = {"n": 3, "re": [[1e120, 0.5, 0.1], [0.5, 2.0, 0.3], [0.1, 0.3, -1.0]],
           "im_i": zero, "im_j": zero, "im_k": zero}
    return write_doc(tmp_path, "huge120.json", doc)


def test_overflowing_residual_scale_is_a_violation(tmp_path, capsys):
    code = cli.main(["--format", "json", "vec", huge_entry_file(tmp_path),
                     "--index", "3"])
    out, err = capsys.readouterr()
    assert code == 7 and json.loads(out)["status"] == "violation"
    assert err == ""


def test_overflowing_residual_scale_verify_exit(tmp_path, capsys):
    # the default simple_tol scales with the spectral range, so lambda_1
    # and lambda_2 count as degenerate
    assert cli.main(["verify", huge_entry_file(tmp_path)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_non_finite_residual_is_a_violation(example_file, capsys, monkeypatch):
    real = eigen.eigenvector_from_qadj

    def nan_residual(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), residual=math.nan)

    monkeypatch.setattr(eigen, "eigenvector_from_qadj", nan_residual)
    code, report = run_json(capsys, ["vec", example_file, "--index", "1"])
    assert code == 7 and report["status"] == "violation"
    monkeypatch.setattr(eigen, "verify_outer_product", lambda *a, **k: math.nan)
    code, report = run_json(capsys, ["verify", example_file])
    assert code == 7 and report["status"] == "violation"


def test_verify_solves_each_matrix_once(tmp_path, capsys, monkeypatch):
    H = random_hermitian_gapped(4, np.random.default_rng(11))
    path = write_doc(tmp_path, "gapped.json", cli.matrix_to_doc(H.inner))
    eigs = count_calls(monkeypatch, eigen, "symmetric_eig")
    adjs = count_calls(monkeypatch, qdet, "qadj")
    code, report = run_json(capsys, ["verify", path])
    assert code == 0 and report["status"] == "ok"
    # one spectrum and four minor spectra; four shifted adjugates and qadj(A)
    assert (len(eigs), len(adjs)) == (5, 5)


def test_degenerate_exit(tmp_path, capsys):
    doc = {"n": 2, "re": [[1, 0], [0, 1]], "im_i": [[0, 0], [0, 0]],
           "im_j": [[0, 0], [0, 0]], "im_k": [[0, 0], [0, 0]]}
    path = tmp_path / "degen.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["vec", str(path), "--index", "1"]) == 5


def test_complexity_exit(tmp_path, capsys):
    n = 9
    zero = [[0.0] * n for _ in range(n)]
    eye = [[1.0 if p == q else 0.0 for q in range(n)] for p in range(n)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "re": eye, "im_i": zero,
                                "im_j": zero, "im_k": zero}))
    assert cli.main(["det", str(path)]) == 6
    assert cli.main(["qadj", str(path)]) == 6


def test_random_round_trip(tmp_path, capsys):
    code, out = run(capsys, ["random", "3", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    path = tmp_path / "rand.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["verify", str(path)])
    assert code == 0 and report["status"] == "ok"


def test_tol_env_fallback(example_file, capsys, monkeypatch):
    monkeypatch.setenv("QEEI_TOL", "1e-30")
    # absurdly tight tolerance turns rounding into a reported violation
    code, report = run_json(capsys, ["verify", example_file])
    assert code == 7 and report["status"] == "violation"
    monkeypatch.delenv("QEEI_TOL")


def test_installed_entry_point(example_file):
    proc = subprocess.run([sys.executable, "-m", "qeei.cli", "eig",
                           example_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "eigenvalues" in proc.stdout
