"""The three workloads: how each makes its inputs, runs one op and checks it.

Each workload stresses a different layer of qeei:

* spectrum-mixed: from_components -> validate_hermitian ->
  right_eigenvalues with n cycling 2..8.  Nearly all of it is the
  eigen-layer solve on the 4n real lift and it never reaches qdet, so a
  faster eigensolver shows here and adjugate work leaves it unchanged.
* eigvec-n7: eigenvector_from_qadj(H, i) on a fresh n = 7 matrix, i
  cycling 1..7.  Nearly all of it is qdet permutation sums over
  Quaternion objects; inputs share no work across ops.
* verify-n4: `qeei --format json verify FILE` through cli.main on a fresh
  n = 4 file.  The same spectra and adjugates are recomputed many times
  inside one op, and CLI parse and emit are included, so caching solve
  results shows here and barely moves the other two.

Ops look up qeei functions as module attributes at call time, so the
wrappers perfbench.tracing installs see every call.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import gate
from .inputs import Matrix, gapped_matrix, rng_for

WARMUP_STREAM = 0
MEASURED_STREAM = 1


@dataclass(frozen=True)
class Input:
    matrix: Matrix
    index: int = 0               # eigvec-n7: 1-based eigenvalue index
    path: Path | None = None     # verify-n4: the matrix file


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int                   # ops after which the mix of sizes repeats
    warmup_ops: int
    make_input: Callable         # (seed, stream, k, workdir) -> Input
    prepare: Callable            # (qeei, Input) -> op argument, untimed
    op: Callable                 # (qeei, op argument) -> result, timed
    check: Callable              # (Input, result) -> list of problems


def _spectrum_input(seed, stream, k, workdir):
    return Input(gapped_matrix(2 + k % 7, rng_for(seed, 0, stream, k)))


def _spectrum_op(q, inp):
    A = q.qmatrix.from_components(*inp.matrix.comps)
    return q.eigen.right_eigenvalues(q.qmatrix.validate_hermitian(A))


def _spectrum_check(inp, spectrum):
    return gate.check_spectrum(spectrum.values, inp.matrix)


def _eigvec_input(seed, stream, k, workdir):
    return Input(gapped_matrix(7, rng_for(seed, 1, stream, k)), index=1 + k % 7)


def _eigvec_prepare(q, inp):
    H = q.qmatrix.validate_hermitian(q.qmatrix.from_components(*inp.matrix.comps))
    return H, inp.index


def _eigvec_op(q, arg):
    H, i = arg
    return q.eigen.eigenvector_from_qadj(H, i)


def _eigvec_check(inp, pair):
    return gate.check_eigenpair(pair.lam, pair.vector, inp.index, inp.matrix,
                                reported=(pair.residual, pair.norm_dev))


def _verify_input(seed, stream, k, workdir):
    matrix = gapped_matrix(4, rng_for(seed, 2, stream, k))
    path = Path(workdir) / f"verify-{stream}-{k}.json"
    matrix.write(path)
    return Input(matrix, path=path)


def _verify_prepare(q, inp):
    return inp.path


def _verify_op(q, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = q.cli.main(["--format", "json", "verify", str(path)])
    return code, out.getvalue()


def _verify_check(inp, result):
    code, stdout = result
    return gate.check_verify(code, stdout, inp.matrix)


def _identity(q, inp):
    return inp


WORKLOADS = {w.name: w for w in (
    Workload("spectrum-mixed", cycle=7, warmup_ops=7,
             make_input=_spectrum_input, prepare=_identity,
             op=_spectrum_op, check=_spectrum_check),
    Workload("eigvec-n7", cycle=7, warmup_ops=1,
             make_input=_eigvec_input, prepare=_eigvec_prepare,
             op=_eigvec_op, check=_eigvec_check),
    Workload("verify-n4", cycle=1, warmup_ops=2,
             make_input=_verify_input, prepare=_verify_prepare,
             op=_verify_op, check=_verify_check),
)}
