"""Seeded quaternion Hermitian inputs and their reference spectra.

Only numpy runs here, never qeei, so the inputs and the references are
bit-identical at every commit of the package under test.  The entries
follow qeei.random_matrices.random_hermitian: a real diagonal uniform on
[-2, 2] and upper-triangle quaternions with components uniform on
[-1, 1], mirrored as conjugates.  The reference spectrum is
numpy.linalg.eigvalsh of the 2n x 2n complex adjoint
chi(A) = [[A1, A2], [-conj(A2), conj(A1)]] with A = A1 + A2 j, whose
eigenvalues are the right eigenvalues of A, each twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIN_GAP = 1e-3


@dataclass(frozen=True)
class Matrix:
    """A Hermitian quaternion matrix as components (4, n, n) plus references."""

    comps: np.ndarray
    spectrum: np.ndarray     # ascending right eigenvalues
    norm: float              # spectral norm, max |eigenvalue|

    @property
    def n(self):
        return self.comps.shape[1]

    def write(self, path: Path):
        """The qeei CLI matrix-file layout; json writes floats exactly."""
        c = self.comps
        path.write_text(json.dumps({
            "n": self.n, "re": c[0].tolist(), "im_i": c[1].tolist(),
            "im_j": c[2].tolist(), "im_k": c[3].tolist()}))


def draw_components(n, rng):
    comps = np.zeros((4, n, n))
    comps[0][np.diag_indices(n)] = rng.uniform(-2.0, 2.0, n)
    rows, cols = np.triu_indices(n, 1)
    upper = rng.uniform(-1.0, 1.0, (4, rows.size))
    comps[:, rows, cols] = upper
    comps[0, cols, rows] = upper[0]
    comps[1:, cols, rows] = -upper[1:]
    return comps


def complex_adjoint(comps):
    a1 = comps[0] + 1j * comps[1]
    a2 = comps[2] + 1j * comps[3]
    return np.block([[a1, a2], [-a2.conj(), a1.conj()]])


def reference_spectrum(comps):
    paired = np.linalg.eigvalsh(complex_adjoint(comps))
    return 0.5 * (paired[0::2] + paired[1::2])


def gapped_matrix(n, rng):
    """Redraw until every eigenvalue gap exceeds MIN_GAP."""
    while True:
        comps = draw_components(n, rng)
        spectrum = reference_spectrum(comps)
        if n == 1 or np.min(np.diff(spectrum)) > MIN_GAP:
            return Matrix(comps, spectrum, float(np.max(np.abs(spectrum))))


def rng_for(seed, workload_index, stream, k):
    """One generator per input, so input k never depends on how many ran."""
    return np.random.default_rng([seed % 2**64, workload_index, stream, k])
