"""Right eigenvalues and eigenvectors of quaternion Hermitian matrices.

The spectrum comes from the 4n x 4n real lift, whose eigenvalues are the
right eigenvalues each repeated four times.  Eigenvector component moduli
come from the eigenvector-eigenvalue identity (ratio of products of
spectral gaps against minor spectra); full eigenvectors come from one
column of the quaternion adjugate of lambda*E - A, which is a rank-one
outer product c * v v*: the column whose EEI modulus is largest.
HermitianSolve computes each of these once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qdet, qmatrix
from .errors import (DegenerateEigenvalue, GroupingFailure, IdentityViolation,
                     IndexOutOfRange, NonFiniteResult, NotSymmetric,
                     PivotFailure)
from .qmatrix import HermitianQMatrix, QMatrix
from .quat import ordered_sum

SYMMETRY_TOL = 1e-10      # symmetric_eig: |S - S^T| <= tol * (1 + max |S|)
GROUPING_TOL = 1e-7       # lift quadruple spread < tol * (1 + max |lift|)
SIMPLE_TOL = 1e-6         # require_simple: gap > tol * (1 + spectral range)
CLAMP_TOL = 1e-9          # eei_modulus: -tol <= |v_ij|^2 <= 1 + tol
PIVOT_WEIGHT_TOL = 1e-12  # eigenpair: pivot weight |v_m|^2 >= tol


@dataclass(frozen=True)
class Spectrum:
    """Ascending real right eigenvalues, one per lift quadruple."""

    values: tuple
    grouping_tol: float

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def spectral_range(self):
        return self.values[-1] - self.values[0]

    @functools.cached_property
    def _gaps(self):
        steps = [b - a for a, b in zip(self.values, self.values[1:])]
        return [min(pair) for pair in zip([math.inf, *steps], [*steps, math.inf])]

    def gap(self, i):
        """Distance from values[i-1] (1-based) to the rest of the spectrum:
        to the nearer of its neighbours, as the values ascend."""
        return self._gaps[i - 1]


@dataclass(frozen=True)
class EigenPair:
    lam: float
    vector: QMatrix          # n x 1, unit, pivot component real >= 0
    pivot_index: int         # 1-based
    residual: float          # ||A v - v lam||_2
    norm_dev: float          # | ||v||_2 - 1 |


@dataclass(frozen=True)
class EEIReport:
    i: int
    j: int
    lhs: float
    rhs: float

    @property
    def residual(self):
        return abs(self.lhs - self.rhs)


def symmetric_eig(S):
    """Ascending eigenvalues of each real symmetric matrix of a (..., m, m)
    stack: LAPACK's symmetric solver, through np.linalg.eigvalsh, on the
    symmetrised S, each checked at its own scale.  0 x 0 gives no values."""
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise NotSymmetric(f"expected a square matrix, got shape {S.shape}")
    scale = 1.0 + np.abs(S).max(axis=(-2, -1), keepdims=True, initial=0.0)
    if (np.abs(S - S.swapaxes(-1, -2)) > SYMMETRY_TOL * scale).any():
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (S + S.swapaxes(-1, -2)))


def _right_spectra(stack) -> list:
    """The Spectrum of each Hermitian matrix of a (4, b, m, m) stack, m >= 1,
    from one symmetric_eig call on the b lifts."""
    lifts = qmatrix.real_lift(stack)
    top = np.abs(lifts).max(axis=(-2, -1))
    grouping_tol = GROUPING_TOL * (1.0 + top)
    # solve each lift / 2**e < 1: exact, and huge entries cannot overflow
    e = np.frexp(top)[1]
    values = symmetric_eig(np.ldexp(lifts, -e[:, None, None]))
    with np.errstate(over="ignore"):  # only the scaling back can overflow
        values = np.ldexp(values, e[:, None])
    if not np.isfinite(values).all():
        raise NonFiniteResult("a right eigenvalue overflows to an infinity")
    quads = values.reshape(len(values), -1, 4)
    spread = quads[..., -1] - quads[..., 0]
    bad = spread >= grouping_tol[:, None]
    if bad.any():
        k, t = np.argwhere(bad)[0]
        raise GroupingFailure(
            f"lift eigenvalues around index {4 * t} spread {spread[k, t]:.3e} "
            f">= grouping tol {grouping_tol[k]:.3e}")
    return [Spectrum(tuple(grouped), tol)
            for grouped, tol in zip(quads.mean(axis=2).tolist(), grouping_tol)]


def right_eigenvalues(A: HermitianQMatrix) -> Spectrum:
    """Ascending right eigenvalues via the real lift's eigenvalue quadruples."""
    return _right_spectra(A.inner.data[:, None])[0]


def require_simple(spectrum: Spectrum, i: int) -> None:
    """Check that 1 <= i <= n and that lambda_i is simple."""
    n = len(spectrum)
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"eigenvalue index {i} outside 1..{n}")
    simple_tol = SIMPLE_TOL * (1.0 + spectrum.spectral_range())
    gap = spectrum.gap(i)
    if gap <= simple_tol:
        raise DegenerateEigenvalue(
            f"eigenvalue {i} has gap {gap:.3e} <= simple tol {simple_tol:.3e}")


@qmatrix.quiet
def lambda_shift(A: QMatrix, lam: float) -> QMatrix:
    """lam * E - A: (lam - w, 0.0 - x, 0.0 - y, 0.0 - z) on the diagonal,
    the negated entry off it."""
    data = -A.data
    d = np.arange(A.n_rows)
    data[:, d, d] = np.array([[lam], [0.0], [0.0], [0.0]]) - A.data[:, d, d]
    return QMatrix.from_data(data)


@qmatrix.quiet
def vector_norm(v: QMatrix) -> float:
    """Euclidean norm over all entries: the square root of the ordered_sum
    of the squared moduli, row by row."""
    w, x, y, z = v.data
    return math.sqrt(ordered_sum((w * w + x * x + y * y + z * z).ravel()))


def residual(A: QMatrix, v: QMatrix, lam: float) -> float:
    """||A v - v lam||_2."""
    return vector_norm(qmatrix.matmul(A, v) - qmatrix.scale_right(v, lam))


class HermitianSolve:
    """A Hermitian matrix and its spectrum.  The minor spectra, and for each
    shift index i the whole qadj(lambda_i E - A) and the eigenpair, are
    computed on first use and kept."""

    def __init__(self, A: HermitianQMatrix):
        self.A = A
        self.n = A.n
        self.spectrum = right_eigenvalues(A)
        self._adjugates = {}  # i -> qadj(lambda_i E - A)
        self._eigenpairs = {}

    def eigenvalue(self, i: int) -> float:
        """lambda_i (1-based, ascending), which must be simple."""
        require_simple(self.spectrum, i)
        return self.spectrum[i - 1]

    @functools.cached_property
    def minor_spectra(self) -> list:
        """The Spectrum of each minor M_j (n >= 2), from one symmetric_eig call."""
        return _right_spectra(np.stack([qmatrix.minor(self.A, j).inner.data
                                        for j in range(1, self.n + 1)], axis=1))

    def gap_product(self, i: int) -> float:
        """c_i = prod over k != i of (lambda_i - lambda_k)."""
        lam = self.eigenvalue(i)
        return math.prod((lam - mu for k, mu in enumerate(self.spectrum.values)
                          if k != i - 1), start=1.0)

    def minor_gap_product(self, i: int, j: int) -> float:
        """prod over mu in the spectrum of M_j of (lambda_i - mu) = c_i |v_ij|^2."""
        if not 1 <= j <= self.n:
            raise IndexOutOfRange(f"component index {j} outside 1..{self.n}")
        lam = self.eigenvalue(i)
        minor = self.minor_spectra[j - 1].values if self.n > 1 else ()  # 0 x 0 minor
        return math.prod((lam - mu for mu in minor), start=1.0)

    def _shifted_columns(self, shifts, qs) -> np.ndarray:
        """Columns qs (0-based) of qadj(lambda_i E - A) for each i of shifts,
        shift by shift, as one (4, n, len(shifts) * len(qs)) array.  Every
        lambda_i is checked simple, in the order of shifts, before one
        qdet.adjugate_columns call evaluates them all."""
        stack = np.stack([lambda_shift(self.A.inner, self.eigenvalue(i)).data
                          for i in shifts], axis=1)
        return qdet.adjugate_columns(
            stack, [(k, q) for k in range(len(shifts)) for q in qs])

    def _keep_adjugates(self, shifts) -> None:
        """Keep qadj(lambda_i E - A), read-only, for every i of shifts; those
        not kept yet are evaluated in one batch."""
        missing = [i for i in shifts if i not in self._adjugates]
        if missing:
            columns = self._shifted_columns(missing, range(self.n))
            for i, adjugate in zip(missing, np.split(columns, len(missing), axis=2)):
                self._adjugates[i] = QMatrix.from_data(adjugate)

    def adjugate(self, i: int) -> QMatrix:
        """qadj(lambda_i E - A), which equals c_i v_i v_i*."""
        self._keep_adjugates([i])
        return self._adjugates[i]

    def eigenpair(self, i: int) -> EigenPair:
        """Unit v_i from one column of the shifted adjugate: column m, where
        the EEI weight |v_m|^2 = prod(lambda_i - mu(M_m)) / c_i is largest,
        read from the kept adjugate if there is one and evaluated alone
        (n sums) otherwise."""
        if i in self._eigenpairs:
            return self._eigenpairs[i]
        n = self.n
        lam = self.eigenvalue(i)
        c = self.gap_product(i)
        weights = [self.minor_gap_product(i, j) / c for j in range(1, n + 1)]
        m = max(range(n), key=lambda t: weights[t])
        if not all(map(math.isfinite, weights)) or weights[m] < PIVOT_WEIGHT_TOL:
            raise PivotFailure("no finite, usable EEI pivot weight "
                               "(the gap products overflow or vanish)")
        if i in self._adjugates:
            column = self._adjugates[i].data[:, :, m]
        else:
            column = self._shifted_columns([i], [m])[:, :, 0]
        if not np.isfinite(column).all():
            raise PivotFailure("the pivot column of qadj is not finite "
                               "(rank-one structure lost)")
        vm = math.sqrt(weights[m])
        with np.errstate(over="ignore", invalid="ignore"):
            column = column * (1.0 / (vm * c))
        column[:, m] = (vm, 0.0, 0.0, 0.0)
        v = QMatrix.from_data(column[:, :, None])
        pair = self._eigenpairs[i] = EigenPair(
            lam, v, m + 1, residual(self.A.inner, v, lam), abs(vector_norm(v) - 1.0))
        return pair


def as_solve(A) -> HermitianSolve:
    """A if it is a solve, else a solve of A."""
    return A if isinstance(A, HermitianSolve) else HermitianSolve(A)


def eei_modulus(A, i: int, j: int) -> float:
    """|v_ij|^2 from eigenvalues of A and of the minor M_j alone."""
    solve = as_solve(A)
    ratio = solve.minor_gap_product(i, j) / solve.gap_product(i)
    if ratio < -CLAMP_TOL or ratio > 1.0 + CLAMP_TOL:
        raise IdentityViolation(
            f"|v_{i}{j}|^2 = {ratio:.3e} outside [0, 1] beyond rounding slack")
    return min(max(ratio, 0.0), 1.0)


def eigenvector_from_qadj(A, i: int) -> EigenPair:
    """Unit eigenvector for the i-th (ascending, simple) eigenvalue.

    qadj(lam*E - A) equals c * v v* with c the product of spectral gaps,
    so one column recovers v once the pivot component is made real.
    """
    return as_solve(A).eigenpair(i)


def eei_report(A) -> list:
    """Both sides of the identity for every (i, j): the left side c_i |v_ij|^2
    is the diagonal of qadj(lambda_i E - A), the right side comes from the
    minor spectra alone."""
    n = A.n
    solve = as_solve(A)
    solve._keep_adjugates(range(1, n + 1))  # every shifted adjugate in one batch
    reports = []
    for i in range(1, n + 1):
        lhs = solve.adjugate(i).data[0].diagonal().tolist()
        reports += [EEIReport(i, j, lhs[j - 1], solve.minor_gap_product(i, j))
                    for j in range(1, n + 1)]
    return reports


def verify_outer_product(A, i: int) -> float:
    """Max deviation of qadj(lam*E - A) from c * v v*."""
    solve = as_solve(A)
    adjugate = solve.adjugate(i)  # first, so the pivot column is read from it
    v = solve.eigenpair(i).vector
    outer = qmatrix.matmul(v, qmatrix.conj_transpose(v))
    c = solve.gap_product(i)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = QMatrix.from_data(outer.data * c)
    return (adjugate - scaled).norm_inf()


def identity_residuals(A) -> dict:
    """The largest residual of each identity `qeei verify` checks: the EEI,
    qadj(lam*E - A) = c v v*, qadj(A) A = A qadj(A) = det(A) E,
    det(A) = prod lam and V* V = E for the eigenvectors V = [v_1 .. v_n]."""
    n = A.n
    solve = as_solve(A)
    # np.max, unlike max, returns NaN whenever a residual is NaN
    eei_max = float(np.max([r.residual for r in eei_report(solve)]))
    outer_max = float(np.max([verify_outer_product(solve, i)
                              for i in range(1, n + 1)]))

    M = solve.A.inner
    dA = qdet.det(M)
    Q = qdet.qadj(M)
    dE = qmatrix.scale_left(dA, qmatrix.identity(n))
    adj_identity = float(np.max([(qmatrix.matmul(Q, M) - dE).norm_inf(),
                                 (qmatrix.matmul(M, Q) - dE).norm_inf()]))
    det_vs_product = (dA - math.prod(solve.spectrum.values, start=1.0)).modulus()

    pairs = [eigenvector_from_qadj(solve, i) for i in range(1, n + 1)]
    V = QMatrix.from_data(np.concatenate([pair.vector.data for pair in pairs],
                                         axis=2))
    gram = qmatrix.matmul(qmatrix.conj_transpose(V), V)
    return {
        "eei_max": eei_max,
        "outer_product_max": outer_max,
        "adjugate_identity": adj_identity,
        "det_vs_eigenvalue_product": det_vs_product,
        "unitarity": (gram - qmatrix.identity(n)).norm_inf(),
    }
