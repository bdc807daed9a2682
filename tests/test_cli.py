import argparse
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qeei import cli, eigen, qdet, qmatrix
from qeei.qmatrix import QMatrix, from_components
from qeei.quat import Quaternion
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


def huge_pivot_file(tmp_path):
    # 1e300 overflows the shifted adjugate; the vector would be all NaN
    zero = [[0.0] * 3 for _ in range(3)]
    doc = {"n": 3, "re": [[1e300, 0.5, 0.1], [0.5, 2.0, 0.3], [0.1, 0.3, -1.0]],
           "im_i": zero, "im_j": zero, "im_k": zero}
    return write_doc(tmp_path, "huge.json", doc)


def test_non_finite_eigenvector_is_not_ok(tmp_path, capsys):
    code = cli.main(["--format", "json", "vec", huge_pivot_file(tmp_path),
                     "--index", "3"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    # the overflow stays silent: the error line is all of stderr
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_huge_entry_spectrum_prints_no_warning(tmp_path, capsys):
    code = cli.main(["--format", "json", "eig", huge_pivot_file(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and json.loads(out)["status"] == "ok"
    assert err == ""


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


def real_file(tmp_path, name, re):
    zero = [[0.0] * len(re) for _ in re]
    doc = {"n": len(re), "re": re, "im_i": zero, "im_j": zero, "im_k": zero}
    return write_doc(tmp_path, name, doc)


def huge_block_file(tmp_path, a=1e200):
    # a * [[1, 1], [1, 0]] dominates: eigenvalues a(1 -+ sqrt 5)/2, and about 1
    return real_file(tmp_path, "huge200.json",
                     [[a, a, 0.1], [a, 1.0, 0.1], [0.1, 0.1, 1.0]])


def assert_one_error_line(code, expected, capsys):
    out, err = capsys.readouterr()
    assert code == expected and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_huge_block_spectrum(tmp_path, capsys):
    a = 1e200
    code = cli.main(["--format", "json", "eig", huge_block_file(tmp_path, a)])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 0 and report["status"] == "ok" and err == ""
    expected = [a * (1 - math.sqrt(5)) / 2, 1.0, a * (1 + math.sqrt(5)) / 2]
    for value, closed_form in zip(report["spectrum"], expected):
        assert abs(value - closed_form) <= 1e-12 * a


def dominated_spectrum(path, capsys):
    code = cli.main(["--format", "json", "eig", path])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 0 and report["status"] == "ok" and err == ""
    return report["spectrum"]


def assert_rel_close(values, expected, rel=1e-12):
    assert len(values) == len(expected)
    for value, closed_form in zip(values, expected):
        assert abs(value - closed_form) <= rel * abs(closed_form)


def test_dominant_1e120_entry_spectrum(tmp_path, capsys):
    # the 1e120 row and column are decoupled to O(1e-120): the small values
    # are those of the trailing block [[2, .3], [.3, -1]], 0.5 -+ sqrt(2.34)
    spectrum = dominated_spectrum(huge_entry_file(tmp_path), capsys)
    expected = [0.5 - math.sqrt(2.34), 0.5 + math.sqrt(2.34), 1e120]
    assert_rel_close(spectrum, expected)


def test_dominant_1e300_entry_spectrum(tmp_path, capsys):
    # trailing block [[1, .1], [.1, 1]]: 0.9 and 1.1
    path = real_file(tmp_path, "huge300.json",
                     [[1e300, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]])
    assert_rel_close(dominated_spectrum(path, capsys), [0.9, 1.1, 1e300])


@pytest.mark.parametrize("argv", [["det"], ["qadj"], ["qadj", "--lambda", "0.7"]])
def test_overflowing_det_and_qadj_exit(tmp_path, capsys, argv):
    path = huge_block_file(tmp_path)
    code = cli.main(["--format", "json", argv[0], path, *argv[1:]])
    assert_one_error_line(code, 4, capsys)


def test_overflowing_spectrum_exit(tmp_path, capsys):
    # 2e308 is past the largest float
    path = real_file(tmp_path, "huge308.json", [[1e308, 1e308], [1e308, 1e308]])
    assert_one_error_line(cli.main(["--format", "json", "eig", path]), 4, capsys)


def example_bytes(**parts):
    return json.dumps({**EXAMPLE_DOC, **parts}).encode()


@pytest.mark.parametrize("raw, message", [
    (b"\xff\xff\xff", "cannot read matrix file"),
    (b"[1, 2]", "is not a JSON object"),
    (b"[" * 100_000 + b"]" * 100_000, "cannot read matrix file"),
    (example_bytes(re=[[10 ** 400, 0], [0, 2]]), "is not numeric"),
    (example_bytes(re=[["3", "0"], ["0", "2"]]), "is not a number"),
    (example_bytes(re=[[True, False], [False, True]]), "is not a number"),
], ids=["undecodable", "not-an-object", "deep-nesting", "401-digit-integer",
        "string-entries", "boolean-entries"])
def test_unusable_file_exit(tmp_path, capsys, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert cli.main(["eig", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, env_tol", [
    (["--tol", "nan", "eig", "FILE"], None),
    (["--tol", "inf", "eig", "FILE"], None),
    (["--tol", "-1", "eig", "FILE"], None),
    (["--tol", "nan", "verify", "FILE"], None),
    (["--tol", "inf", "vec", "FILE", "--index", "1"], None),
    (["--tol", "-1", "vec", "FILE", "--index", "1"], None),
    (["--tol", "abc", "eig", "FILE"], None),
    (["eig", "FILE"], "abc"),
    (["eig", "FILE"], "nan"),
    (["verify", "FILE"], "-1"),
    (["qadj", "FILE", "--lambda", "nan"], None),
    (["qadj", "FILE", "--lambda", "inf"], None),
    (["qadj", "FILE", "--lambda=-inf"], None),
    (["random", "2", "--seed", "-1"], None),
])
def test_bad_numeric_option_exit(example_file, capsys, monkeypatch, argv, env_tol):
    if env_tol is not None:
        monkeypatch.setenv("QEEI_TOL", env_tol)
    argv = [example_file if a == "FILE" else a for a in argv]
    assert_one_error_line(cli.main(["--format", "json", *argv]), 2, capsys)


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
    expansions = count_calls(monkeypatch, qdet, "row_expansion")
    passes = count_calls(monkeypatch, qdet, "_permutation_sum")
    dets = count_calls(monkeypatch, qdet, "det")
    products = count_calls(monkeypatch, Quaternion, "__mul__")
    code, report = run_json(capsys, ["verify", path])
    assert code == 0 and report["status"] == "ok"
    # one call for the spectrum and one for the four minor spectra
    assert len(eigs) == 2
    # kernel passes as (sums, terms per sum): the 64 entries of the four
    # shifted adjugates, the pivot columns among them; det(A); the 16 of qadj(A)
    assert [(len(which), len(signs)) for _, which, signs, _ in passes] == [
        (64, 6), (1, 24), (16, 6)]
    assert expansions == []
    assert len(dets) == 1
    # matrices are arrays: no scalar quaternion products on the way
    assert products == []


def test_verify_reports_identity_residuals(tmp_path, capsys):
    H = random_hermitian_gapped(4, np.random.default_rng(11))
    path = write_doc(tmp_path, "gapped.json", cli.matrix_to_doc(H.inner))
    code, report = run_json(capsys, ["verify", path])
    expected = eigen.identity_residuals(H)
    assert code == 0
    assert ([(k, float.hex(v)) for k, v in report["residuals"].items()]
            == [(k, float.hex(v)) for k, v in expected.items()])


def test_command_field_is_the_parsed_argv(example_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host", "--host-flag"])
    _, report = run_json(capsys, ["eig", example_file])
    assert report["command"] == f"--format json eig {example_file}"


def test_parser_is_built_once_per_process(example_file, capsys, monkeypatch):
    cli.main(["eig", example_file])
    built = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    for argv in (["eig", example_file], ["--format", "json", "verify", example_file],
                 ["vec", example_file, "--index", "1"], ["random", "2"]):
        assert cli.main(argv) == 0
    assert built == []


def test_kept_parser_answers_like_a_fresh_one(example_file, capsys, monkeypatch):
    # each command in one process against the same command in a new process
    commands = [["--format", "json", "verify", example_file],
                ["eig", example_file],
                ["--tol", "1e-3", "vec", example_file, "--index", "2"],
                ["vec", example_file],
                ["qadj", example_file, "--lambda", "0.5"],
                ["eig", example_file]]
    monkeypatch.delenv("QEEI_TOL", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    for argv in commands:
        monkeypatch.setattr(sys, "argv", ["qeei", *argv])
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "qeei.cli", *argv],
                               capture_output=True, text=True)
        assert (out, err, code) == (fresh.stdout, fresh.stderr, fresh.returncode)
    assert code == 0 and "eigenvalues" in out


# 2 x 2 files that break A = A* by far more than their own scale
TINY_SKEW = {"re": [[1e-20, 2e-20], [2e-20, -1e-20]],
             "im_i": [[0.0, 3e-20], [-3e-20 + 1e-14, 0.0]]}
HUGE_SKEW = {"re": [[1e200, 1e200], [-1e200, 1.0]]}


@pytest.mark.parametrize("parts", [TINY_SKEW, HUGE_SKEW], ids=["tiny", "huge"])
def test_hermitian_check_is_relative(tmp_path, capsys, parts):
    zero = [[0.0, 0.0], [0.0, 0.0]]
    doc = {"n": 2, "re": zero, "im_i": zero, "im_j": zero, "im_k": zero, **parts}
    code = cli.main(["--format", "json", "eig", write_doc(tmp_path, "skew.json", doc)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "(1,2)/(2,1)" in err


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


def test_verify_text_shows_a_nan_worst_residual(example_file, capsys, monkeypatch):
    # max() would skip a NaN that is not the first residual
    monkeypatch.setattr(eigen, "verify_outer_product", lambda *a, **k: math.nan)
    code, out = run(capsys, ["verify", example_file])
    assert code == 7
    assert out.splitlines()[-1] == "status: violation (worst nan vs 1.000e-07)"


def verify_gapped_3(tmp_path, capsys):
    H = random_hermitian_gapped(3, np.random.default_rng(1))
    path = write_doc(tmp_path, "gapped.json", cli.matrix_to_doc(H.inner))
    return run_json(capsys, ["verify", path])


def assert_nan_violation(code, report, residual):
    assert code == 7 and report["status"] == "violation"
    assert math.isnan(report["residuals"][residual])


# max() would skip a NaN that is not the first of the residuals it compares

def test_verify_reports_a_nan_eei_residual(tmp_path, capsys, monkeypatch):
    eei_report = eigen.eei_report

    def one_nan(A):
        reports = eei_report(A)
        reports[4] = dataclasses.replace(reports[4], lhs=math.nan)
        return reports

    monkeypatch.setattr(eigen, "eei_report", one_nan)
    assert_nan_violation(*verify_gapped_3(tmp_path, capsys), "eei_max")


def test_verify_reports_a_nan_outer_product_residual(tmp_path, capsys,
                                                     monkeypatch):
    verify = eigen.verify_outer_product
    monkeypatch.setattr(eigen, "verify_outer_product",
                        lambda A, i: math.nan if i == 2 else verify(A, i))
    assert_nan_violation(*verify_gapped_3(tmp_path, capsys), "outer_product_max")


def test_verify_reports_a_nan_adjugate_identity(tmp_path, capsys, monkeypatch):
    qadj, matmul = qdet.qadj, qmatrix.matmul
    adjugates = []
    monkeypatch.setattr(qdet, "qadj",
                        lambda M: adjugates.append(qadj(M)) or adjugates[-1])

    def nan_right_side(a, b):  # A qadj(A) only; qadj(A) A stays finite
        product = matmul(a, b)
        if adjugates and b is adjugates[0]:
            return QMatrix.from_data(np.full_like(product.data, math.nan))
        return product

    monkeypatch.setattr(qmatrix, "matmul", nan_right_side)
    assert_nan_violation(*verify_gapped_3(tmp_path, capsys), "adjugate_identity")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_random_size_below_one_exit(capsys, n):
    code = cli.main(["random", n])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: n must be a positive integer, got {n}\n"


def test_unreadable_file_with_bad_lambda_exit(tmp_path, capsys):
    # the file is read before --lambda is checked, so its error is the one line
    code = cli.main(["qadj", str(tmp_path / "nope.json"), "--lambda", "nan"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "cannot read matrix file" in err
