"""Brute-force cross-checks, independent of the adjugate machinery.

Row reduction works over the quaternions with row operations applied by
left multiplication only, so the right null space {v : M v = 0} is
preserved and right eigenvectors keep their scalar on the right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigen, qdet, qmatrix
from .errors import DegenerateEigenvalue, DimensionMismatch, NoZeroEigenvalue
from .quat import Quaternion
from .qmatrix import HermitianQMatrix, QMatrix

PIVOT_TOL = 1e-10  # null_space: a pivot needs modulus > tol * (1 + ||M||_inf)
ZERO_TOL = 1e-8    # cauchy_binet_residual: smallest |eigenvalue| <= tol


@dataclass(frozen=True)
class NullSpaceResult:
    basis: tuple          # unit n x 1 QMatrix columns
    rank: int

    @property
    def dim(self):
        return len(self.basis)


def null_space(M: QMatrix) -> NullSpaceResult:
    """Basis of the right null space via Gaussian elimination."""
    if not M.is_square():
        raise DimensionMismatch("null_space expects a square matrix")
    pivot_tol = PIVOT_TOL * (1.0 + M.norm_inf())
    n = M.n_rows
    R = [list(row) for row in M.rows]

    pivot_cols = []
    row = 0
    for col in range(n):
        p_best, best = None, pivot_tol
        for r in range(row, n):
            mod = R[r][col].modulus()
            if mod > best:
                p_best, best = r, mod
        if p_best is None:
            continue
        R[row], R[p_best] = R[p_best], R[row]
        inv = R[row][col].inverse()
        R[row] = [inv * a for a in R[row]]
        for r in range(n):
            if r != row:
                factor = R[r][col]
                if factor.norm_sq():
                    R[r] = [a - factor * b for a, b in zip(R[r], R[row])]
        pivot_cols.append(col)
        row += 1
        if row == n:
            break

    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        comps = [Quaternion()] * n
        comps[f] = Quaternion(1.0)
        for r, p in enumerate(pivot_cols):
            comps[p] = -R[r][f]
        v = QMatrix([[a] for a in comps])
        basis.append(_unit(v))
    return NullSpaceResult(tuple(basis), len(pivot_cols))


def _unit(v: QMatrix) -> QMatrix:
    norm = eigen.vector_norm(v)
    return QMatrix([[a * (1.0 / norm)] for (a,) in v.rows])


def _phase_normalize(v: QMatrix) -> tuple:
    """Right-multiply by a unit quaternion so the largest component is
    real and non-negative; returns (vector, pivot index 1-based)."""
    mods = [a.modulus() for (a,) in v.rows]
    m = max(range(len(mods)), key=lambda t: mods[t])
    q = v[m, 0].conj() * (1.0 / mods[m])
    return qmatrix.scale_right(v, q), m + 1


def traditional_eigenpairs(A) -> list:
    """Eigenpairs by solving (A - lam E) v = 0 directly for each lam."""
    solve = eigen.as_solve(A)
    pairs = []
    for i in range(1, solve.n + 1):
        lam = solve.eigenvalue(i)
        ns = null_space(eigen.lambda_shift(solve.A.inner, lam))
        if ns.dim != 1:
            raise DegenerateEigenvalue(
                f"null space of A - {lam:g} E has dimension {ns.dim}, expected 1")
        v, m = _phase_normalize(ns.basis[0])
        res = eigen.residual(solve.A.inner, v, lam)
        norm = eigen.vector_norm(v)
        pairs.append(eigen.EigenPair(lam, v, m, res, abs(norm - 1.0)))
    return pairs


def spectral_adjugate(M: QMatrix) -> QMatrix:
    """qadj(M) of a Hermitian M as U diag(prod over k != j of mu_k) U*.

    For Hermitian M Kyrchei's cofactors equal det(M) M^-1, and det(M) is
    the product of the right eigenvalues, so the formula holds for
    singular M too.  It is evaluated on the lift: eigh gives
    real_lift(M) = W diag(mu) W^T with mu in quadruples, and
    W diag(p (x) 1_4) W^T, p_j the product of the other quadruple means,
    is the lift of qadj(M); its first block row holds the components.
    Shares nothing with the permutation sums of qdet.
    """
    n = M.n_rows
    mu, W = np.linalg.eigh(qmatrix.real_lift(M))
    means = mu.reshape(n, 4).mean(axis=1)
    others = [np.prod(np.delete(means, j)) for j in range(n)]
    lift = (W * np.repeat(others, 4)) @ W.T
    return qmatrix.from_components(
        *(lift[:n, c * n:(c + 1) * n] for c in range(4)))


def cauchy_binet_residual(A: HermitianQMatrix, B: QMatrix) -> float:
    """Residual of the quaternionic Cauchy-Binet identity.

    A must carry a right eigenvalue at zero (shift by an eigenvalue
    first); B is n x (n-1).  Checks
    prod(nonzero eigenvalues) * det((B v)*(B v)) = det(B* A B).
    """
    n = A.n
    if B.n_rows != n or B.n_cols != n - 1:
        raise DimensionMismatch(
            f"B must be {n} x {n - 1}, got {B.shape}")
    spectrum = eigen.right_eigenvalues(A)
    z = min(range(n), key=lambda t: abs(spectrum[t]))
    if abs(spectrum[z]) > ZERO_TOL:
        raise NoZeroEigenvalue(
            f"smallest |eigenvalue| is {abs(spectrum[z]):.3e} > {ZERO_TOL:.1e}")
    ns = null_space(eigen.lambda_shift(A.inner, spectrum[z]))
    if ns.dim < 1:
        raise NoZeroEigenvalue("no null vector found at the zero eigenvalue")
    v = ns.basis[0]

    prod = 1.0
    for k in range(n):
        if k != z:
            prod *= spectrum[k]
    aug = QMatrix([list(B.rows[p]) + [v[p, 0]] for p in range(n)])
    gram = qmatrix.matmul(qmatrix.conj_transpose(aug), aug)
    lhs = qdet.det(gram) * prod
    rhs = qdet.det(qmatrix.matmul(qmatrix.conj_transpose(B),
                                  qmatrix.matmul(A.inner, B)))
    return (lhs - rhs).modulus()
