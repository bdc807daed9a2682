"""Command line front end.

Matrices travel as JSON files with keys n, re, im_i, im_j, im_k (the four
real component matrices).  Subcommands: eig, vec, det, qadj, verify,
random.  Exit codes: 0 ok, 2 bad input, 3 not Hermitian, 4 numerical
failure, 5 degenerate eigenvalue, 6 complexity limit, 7 identity
violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import eigen, qdet, qmatrix, random_matrices
from .errors import (ComplexityLimit, DegenerateEigenvalue, DimensionMismatch,
                     IdentityViolation, IndexOutOfRange, NonFiniteResult,
                     NotHermitian, NotSquare, QeeiError)
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


def require_positive_n(n):
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}")


def load_matrix_file(path):
    """Returns (QMatrix, echo dict, sha256 digest)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"matrix file {path} is not a JSON object")
    try:
        n = doc["n"]
        comps = [doc[key] for key in ("re", "im_i", "im_j", "im_k")]
    except KeyError as exc:
        raise ParseError(f"matrix file {path} is missing key {exc}") from exc
    require_positive_n(n)
    arrays = []
    for key, comp in zip(("re", "im_i", "im_j", "im_k"), comps):
        try:
            arr = np.asarray(comp, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"component {key} is not numeric: {exc}") from exc
        if arr.shape != (n, n):
            raise ParseError(f"component {key} is not {n} x {n}")
        # asarray also reads strings and booleans as numbers
        if not all(type(x) in (int, float) for row in comp for x in row):
            raise ParseError(f"component {key} has an entry that is not a number")
        if not np.isfinite(arr).all():
            raise ParseError(f"component {key} has a NaN or infinite entry")
        arrays.append(arr)
    A = qmatrix.from_components(*arrays)
    echo = {"n": n, "re": comps[0], "im_i": comps[1],
            "im_j": comps[2], "im_k": comps[3]}
    return A, echo, hashlib.sha256(raw).hexdigest()


def matrix_to_doc(A: QMatrix):
    re, im_i, im_j, im_k = A.data.tolist()
    return {"n": A.n_rows, "re": re, "im_i": im_i, "im_j": im_j, "im_k": im_k}


def base_report(args, echo, digest):
    return {
        "command": " ".join(args.argv),
        "input_digest": digest,
        "matrix": echo,
        "tolerances": {"tol": args.tol},
        "status": "ok",
    }


def parse_tol(text):
    """The base tolerance from --tol or QEEI_TOL: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        raise ParseError(f"tolerance {text!r} is not a number") from None
    if not 0.0 <= tol < math.inf:
        raise ParseError(f"tolerance must be finite and >= 0, got {text}")
    return tol


def require_finite(name, values):
    if not np.isfinite(values).all():
        raise NonFiniteResult(f"{name} overflows to an infinity or a NaN")


def residual_scale(A: QMatrix) -> float:
    """Residual comparisons scale with 1 + ||A||_inf ** n; inf on overflow,
    which `check_residuals` treats as a violation."""
    try:
        return 1.0 + A.norm_inf() ** A.n_rows
    except OverflowError:
        return math.inf


def check_residuals(report, residuals, bound):
    """The one status rule of vec and verify: the report is a violation
    unless no residual is NaN or above bound and bound is finite (residuals
    are >= 0).  Returns the worst residual, NaN if any is NaN."""
    worst = np.max(list(residuals))
    if not worst <= bound < math.inf:
        report["status"] = "violation"
    return worst


def emit(report, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


# A file command takes the loaded matrix A and the report envelope, adds its
# fields to the report and returns its text lines; main does the rest.

def cmd_eig(args, A, report):
    H = qmatrix.validate_hermitian(A)
    spectrum = eigen.right_eigenvalues(H)
    report["spectrum"] = list(spectrum.values)
    report["tolerances"]["grouping_tol"] = spectrum.grouping_tol
    return ["eigenvalues (ascending): "
            + ", ".join(f"{v:.10g}" for v in spectrum.values)]


def cmd_vec(args, A, report):
    H = qmatrix.validate_hermitian(A)
    pair = eigen.eigenvector_from_qadj(H, args.index)
    report["eigenpairs"] = [{
        "index": args.index,
        "lambda": pair.lam,
        "vector": pair.vector.data[:, :, 0].T.tolist(),
        "pivot_index": pair.pivot_index,
        "residual": pair.residual,
        "norm_dev": pair.norm_dev,
    }]
    check_residuals(report, (pair.residual, pair.norm_dev),
                    args.tol * residual_scale(A))
    lines = [f"lambda_{args.index} = {pair.lam:.10g}"]
    for p, (a,) in enumerate(pair.vector.rows, start=1):
        lines.append(f"  v[{p}] = {a}")
    lines.append(f"residual = {pair.residual:.3e}, "
                 f"norm deviation = {pair.norm_dev:.3e}")
    return lines


def cmd_det(args, A, report):
    value = qdet.det(A)
    require_finite("det", value.components())
    report["det"] = list(value.components())
    return [f"det = {value}"]


def cmd_qadj(args, A, report):
    if args.lam is not None and not math.isfinite(args.lam):
        raise ParseError(f"--lambda must be finite, got {args.lam}")
    target = A
    if args.lam is not None:
        report["lambda"] = args.lam
        target = eigen.lambda_shift(A, args.lam)
    Q = qdet.qadj(target)
    require_finite("qadj", Q.data)
    lines = []
    for name, comp in zip(("B0", "B1", "B2", "B3"), Q.components()):
        report[name] = comp.tolist()
        lines.append(f"{name} = " + "; ".join(
            "[" + ", ".join(f"{v:.10g}" for v in row) + "]" for row in comp))
    return lines


def cmd_verify(args, A, report):
    H = qmatrix.validate_hermitian(A)
    solve = eigen.HermitianSolve(H)
    scale = residual_scale(A)
    residuals = eigen.identity_residuals(solve)
    report["spectrum"] = list(solve.spectrum.values)
    report["residuals"] = residuals
    report["tolerances"]["residual_scale"] = scale
    worst = check_residuals(report, residuals.values(), args.tol * scale)
    lines = ["spectrum: " + ", ".join(f"{v:.10g}" for v in solve.spectrum.values)]
    lines += [f"{k} = {v:.3e}" for k, v in residuals.items()]
    lines.append(f"status: {report['status']} "
                 f"(worst {worst:.3e} vs {args.tol * scale:.3e})")
    return lines


def cmd_random(args):
    require_positive_n(args.n)
    if args.seed < 0:
        raise ParseError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    H = random_matrices.random_hermitian(args.n, rng)
    print(json.dumps(matrix_to_doc(H.inner), indent=2))
    return EXIT_OK


@functools.cache
def build_parser():
    """The qeei parser, built on first use and shared for the rest of the
    process; callers must not modify it.  parse_args keeps no state between
    calls, while a tree built per call is cyclic garbage that only a full
    collection frees."""
    parser = argparse.ArgumentParser(
        prog="qeei",
        description="Right eigenvalues and eigenvectors of quaternion "
                    "Hermitian matrices via the adjugate reconstruction.")
    parser.add_argument("--tol", default=None,
                        help="base tolerance, finite and >= 0 "
                             "(default 1e-8, or QEEI_TOL)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("eig", cmd_eig), ("det", cmd_det), ("verify", cmd_verify),
                     ("vec", cmd_vec), ("qadj", cmd_qadj)):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.set_defaults(func=fn)
    sub.choices["vec"].add_argument(
        "--index", type=int, required=True,
        help="1-based eigenvalue index, ascending order")
    sub.choices["qadj"].add_argument(
        "--lambda", dest="lam", type=float, default=None,
        help="compute qadj(lambda E - A) instead of qadj(A)")

    p = sub.add_parser("random")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    """Runs one qeei command; returns its exit code.  args.tol becomes the
    parsed base tolerance."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        args.tol = parse_tol(args.tol if args.tol is not None
                             else os.environ.get("QEEI_TOL", DEFAULT_TOL))
        if args.command == "random":
            return cmd_random(args)
        A, echo, digest = load_matrix_file(args.file)
        report = base_report(args, echo, digest)
        lines = args.func(args, A, report)
    except QeeiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in EXIT_CODES)
    emit(report, args.format, lines)
    return EXIT_VIOLATION if report["status"] == "violation" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
