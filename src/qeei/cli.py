"""Command line front end.

Matrices travel as JSON files with keys n, re, im_i, im_j, im_k (the four
real component matrices).  Subcommands: eig, vec, det, qadj, verify,
random.  Exit codes: 0 ok, 2 bad input, 3 not Hermitian, 4 numerical
failure, 5 degenerate eigenvalue, 6 complexity limit, 7 identity
violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import eigen, oracle, qdet, qmatrix, random_matrices
from .errors import (ComplexityLimit, DegenerateEigenvalue, DimensionMismatch,
                     IdentityViolation, IndexOutOfRange, NotHermitian,
                     NotSquare, QeeiError)
from .qmatrix import QMatrix

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_HERMITIAN = 3
EXIT_NUMERICAL = 4
EXIT_DEGENERATE = 5
EXIT_COMPLEXITY = 6
EXIT_VIOLATION = 7

DEFAULT_TOL = 1e-8


class ParseError(QeeiError):
    pass


# the first class in an error's MRO found here gives the exit code
EXIT_CODES = {
    ParseError: EXIT_PARSE,
    IndexOutOfRange: EXIT_PARSE,
    DimensionMismatch: EXIT_PARSE,
    NotHermitian: EXIT_NOT_HERMITIAN,
    NotSquare: EXIT_NOT_HERMITIAN,
    DegenerateEigenvalue: EXIT_DEGENERATE,
    ComplexityLimit: EXIT_COMPLEXITY,
    IdentityViolation: EXIT_VIOLATION,
    QeeiError: EXIT_NUMERICAL,
}


def load_matrix_file(path):
    """Returns (QMatrix, echo dict, sha256 digest)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    try:
        n = doc["n"]
        comps = [doc[key] for key in ("re", "im_i", "im_j", "im_k")]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"matrix file {path} is missing key {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}")
    arrays = []
    for key, comp in zip(("re", "im_i", "im_j", "im_k"), comps):
        try:
            arr = np.asarray(comp, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"component {key} is not numeric: {exc}") from exc
        if arr.shape != (n, n):
            raise ParseError(f"component {key} is not {n} x {n}")
        if not np.isfinite(arr).all():
            raise ParseError(f"component {key} has a NaN or infinite entry")
        arrays.append(arr)
    A = qmatrix.from_components(*arrays)
    echo = {"n": n, "re": comps[0], "im_i": comps[1],
            "im_j": comps[2], "im_k": comps[3]}
    return A, echo, hashlib.sha256(raw).hexdigest()


def matrix_to_doc(A: QMatrix):
    comps = A.components()
    return {"n": A.n_rows,
            "re": comps[0].tolist(), "im_i": comps[1].tolist(),
            "im_j": comps[2].tolist(), "im_k": comps[3].tolist()}


def base_report(args, echo, digest, tol):
    return {
        "command": " ".join(sys.argv[1:]) if sys.argv[1:] else args.command,
        "input_digest": digest,
        "matrix": echo,
        "tolerances": {"tol": tol},
        "status": "ok",
    }


def residual_scale(A: QMatrix) -> float:
    """Residual comparisons scale with 1 + ||A||_inf ** n; inf on overflow,
    which `within` treats as a violation."""
    try:
        return 1.0 + A.norm_inf() ** A.n_rows
    except OverflowError:
        return math.inf


def within(values, bound):
    """No value is NaN or above bound, and bound is finite (values are >= 0)."""
    return all(v <= bound < math.inf for v in values)


def emit(report, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


def quat_components(q):
    return [q.w, q.x, q.y, q.z]


def cmd_eig(args, tol, fmt):
    A, echo, digest = load_matrix_file(args.file)
    H = qmatrix.validate_hermitian(A)
    spectrum = eigen.right_eigenvalues(H)
    report = base_report(args, echo, digest, tol)
    report["spectrum"] = list(spectrum.values)
    report["tolerances"]["grouping_tol"] = spectrum.grouping_tol
    lines = ["eigenvalues (ascending): "
             + ", ".join(f"{v:.10g}" for v in spectrum.values)]
    emit(report, fmt, lines)
    return EXIT_OK


def cmd_vec(args, tol, fmt):
    A, echo, digest = load_matrix_file(args.file)
    H = qmatrix.validate_hermitian(A)
    pair = eigen.eigenvector_from_qadj(H, args.index)
    report = base_report(args, echo, digest, tol)
    report["eigenpairs"] = [{
        "index": args.index,
        "lambda": pair.lam,
        "vector": [quat_components(a) for (a,) in pair.vector.rows],
        "pivot_index": pair.pivot_index,
        "residual": pair.residual,
        "norm_dev": pair.norm_dev,
    }]
    scale = residual_scale(A)
    if not within((pair.residual, pair.norm_dev), tol * scale):
        report["status"] = "violation"
    lines = [f"lambda_{args.index} = {pair.lam:.10g}"]
    for p, (a,) in enumerate(pair.vector.rows, start=1):
        lines.append(f"  v[{p}] = {a}")
    lines.append(f"residual = {pair.residual:.3e}, "
                 f"norm deviation = {pair.norm_dev:.3e}")
    emit(report, fmt, lines)
    return EXIT_VIOLATION if report["status"] == "violation" else EXIT_OK


def cmd_det(args, tol, fmt):
    A, echo, digest = load_matrix_file(args.file)
    value = qdet.det(A)
    report = base_report(args, echo, digest, tol)
    report["det"] = quat_components(value)
    emit(report, fmt, [f"det = {value}"])
    return EXIT_OK


def cmd_qadj(args, tol, fmt):
    A, echo, digest = load_matrix_file(args.file)
    target = A
    if args.lam is not None:
        target = eigen.lambda_shift(A, args.lam)
    Q = qdet.qadj(target)
    comps = Q.components()
    report = base_report(args, echo, digest, tol)
    if args.lam is not None:
        report["lambda"] = args.lam
    for name, comp in zip(("B0", "B1", "B2", "B3"), comps):
        report[name] = comp.tolist()
    lines = []
    for name, comp in zip(("B0", "B1", "B2", "B3"), comps):
        lines.append(f"{name} = " + "; ".join(
            "[" + ", ".join(f"{v:.10g}" for v in row) + "]" for row in comp))
    emit(report, fmt, lines)
    return EXIT_OK


def cmd_verify(args, tol, fmt):
    A, echo, digest = load_matrix_file(args.file)
    H = qmatrix.validate_hermitian(A)
    n = H.n
    solve = eigen.HermitianSolve(H)
    scale = residual_scale(A)

    reports = eigen.eei_report(solve)
    eei_max = max(r.residual for r in reports)
    outer_max = max(eigen.verify_outer_product(solve, i) for i in range(1, n + 1))

    dA = qdet.det(A)
    Q = qdet.qadj(A)
    dE = qmatrix.scale_left(dA, qmatrix.identity(n))
    adj_identity = max((qmatrix.matmul(Q, A) - dE).norm_inf(),
                       (qmatrix.matmul(A, Q) - dE).norm_inf())

    prod = 1.0
    for v in solve.spectrum.values:
        prod *= v
    det_vs_product = (dA - prod).modulus()

    pairs = [eigen.eigenvector_from_qadj(solve, i) for i in range(1, n + 1)]
    V = QMatrix([[pairs[q].vector[p, 0] for q in range(n)] for p in range(n)])
    gram = qmatrix.matmul(qmatrix.conj_transpose(V), V)
    unitarity = (gram - qmatrix.identity(n)).norm_inf()

    residuals = {
        "eei_max": eei_max,
        "outer_product_max": outer_max,
        "adjugate_identity": adj_identity,
        "det_vs_eigenvalue_product": det_vs_product,
        "unitarity": unitarity,
    }
    report = base_report(args, echo, digest, tol)
    report["spectrum"] = list(solve.spectrum.values)
    report["residuals"] = residuals
    report["tolerances"]["residual_scale"] = scale
    worst = max(residuals.values())
    if not within(residuals.values(), tol * scale):
        report["status"] = "violation"
    lines = ["spectrum: " + ", ".join(f"{v:.10g}" for v in solve.spectrum.values)]
    lines += [f"{k} = {v:.3e}" for k, v in residuals.items()]
    lines.append(f"status: {report['status']} "
                 f"(worst {worst:.3e} vs {tol * scale:.3e})")
    emit(report, fmt, lines)
    return EXIT_VIOLATION if report["status"] == "violation" else EXIT_OK


def cmd_random(args, tol, fmt):
    rng = np.random.default_rng(args.seed)
    H = random_matrices.random_hermitian(args.n, rng)
    print(json.dumps(matrix_to_doc(H.inner), indent=2))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qeei",
        description="Right eigenvalues and eigenvectors of quaternion "
                    "Hermitian matrices via the adjugate reconstruction.")
    parser.add_argument("--tol", type=float, default=None,
                        help="base tolerance (default 1e-8, or QEEI_TOL)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("eig", cmd_eig), ("det", cmd_det), ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.set_defaults(func=fn)

    p = sub.add_parser("vec")
    p.add_argument("file")
    p.add_argument("--index", type=int, required=True,
                   help="1-based eigenvalue index, ascending order")
    p.set_defaults(func=cmd_vec)

    p = sub.add_parser("qadj")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="compute qadj(lambda E - A) instead of qadj(A)")
    p.set_defaults(func=cmd_qadj)

    p = sub.add_parser("random")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_random)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    tol = args.tol
    if tol is None:
        tol = float(os.environ.get("QEEI_TOL", DEFAULT_TOL))
    try:
        return args.func(args, tol, args.format)
    except QeeiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
