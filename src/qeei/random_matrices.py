"""Random test-matrix generators shared by the suite, scripts and CLI."""

from __future__ import annotations

import numpy as np

from . import eigen
from .errors import DegenerateEigenvalue
from .qmatrix import HermitianQMatrix, QMatrix, validate_hermitian


def random_qmatrix(n_rows, n_cols, rng) -> QMatrix:
    """Components uniform on [-1, 1), drawn entry by entry, row by row."""
    return QMatrix.from_data(
        np.moveaxis(rng.uniform(-1.0, 1.0, (n_rows, n_cols, 4)), -1, 0))


def random_hermitian(n, rng) -> HermitianQMatrix:
    """Row by row: a real diagonal entry uniform on [-2, 2), then the entries
    right of it with components uniform on [-1, 1); the lower triangle is
    their conjugate."""
    data = np.zeros((4, n, n))
    for p in range(n):
        data[0, p, p] = rng.uniform(-2.0, 2.0)
        upper = rng.uniform(-1.0, 1.0, (n - p - 1, 4)).T
        data[:, p, p + 1:] = upper
        data[:, p + 1:, p] = upper * [[1.0], [-1.0], [-1.0], [-1.0]]
    return validate_hermitian(QMatrix.from_data(data))


def random_hermitian_gapped(n, rng, min_gap=1e-3, max_tries=200) -> HermitianQMatrix:
    """Random Hermitian matrix whose eigenvalue gaps all exceed min_gap."""
    for _ in range(max_tries):
        A = random_hermitian(n, rng)
        values = eigen.right_eigenvalues(A).values
        if n == 1 or min(b - a for a, b in zip(values, values[1:])) > min_gap:
            return A
    raise DegenerateEigenvalue(
        f"no gap-{min_gap:g} Hermitian matrix in {max_tries} draws")
