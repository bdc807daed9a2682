"""Random test-matrix generators shared by the suite, scripts and CLI."""

from __future__ import annotations

import numpy as np

from . import eigen
from .errors import DegenerateEigenvalue
from .qmatrix import HermitianQMatrix, QMatrix, validate_hermitian
from .quat import Quaternion


def random_quaternion(rng) -> Quaternion:
    return Quaternion(*rng.uniform(-1.0, 1.0, 4))


def random_qmatrix(n_rows, n_cols, rng) -> QMatrix:
    return QMatrix([[random_quaternion(rng) for _ in range(n_cols)]
                    for _ in range(n_rows)])


def random_hermitian(n, rng, scale=1.0) -> HermitianQMatrix:
    rows = [[None] * n for _ in range(n)]
    for p in range(n):
        rows[p][p] = Quaternion(float(rng.uniform(-2.0, 2.0)) * scale)
        for q in range(p + 1, n):
            a = random_quaternion(rng) * scale
            rows[p][q] = a
            rows[q][p] = a.conj()
    return validate_hermitian(QMatrix(rows))


def random_hermitian_gapped(n, rng, min_gap=1e-3, max_tries=200) -> HermitianQMatrix:
    """Random Hermitian matrix whose eigenvalue gaps all exceed min_gap."""
    for _ in range(max_tries):
        A = random_hermitian(n, rng)
        values = eigen.right_eigenvalues(A).values
        if n == 1 or min(b - a for a, b in zip(values, values[1:])) > min_gap:
            return A
    raise DegenerateEigenvalue(
        f"no gap-{min_gap:g} Hermitian matrix in {max_tries} draws")
