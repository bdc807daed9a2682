"""Permutation determinants over the quaternions.

Two permutation sums live here.  Both attach the classical sign
(-1)**(n - #cycles) to each permutation, but they order the factors of a
term differently, and over a non-commutative ring that changes the value:

* det: each cycle is traversed starting from its largest element, and
  cycles are concatenated in order of decreasing leader.
* row expansion |A|^row: the first factor comes from row 1 and the chain
  follows the permutation; when a cycle closes, the next factor comes
  from the smallest row not yet used.

The quaternion adjugate qadj is built from row expansions of natural
submatrices and satisfies qadj(H) H = H qadj(H) = det(H) E for
Hermitian H.
"""

from __future__ import annotations

import itertools

from . import qmatrix
from .errors import ComplexityLimit, IndexOutOfRange, NotSquare
from .quat import Quaternion, _coerce
from .qmatrix import HermitianQMatrix, QMatrix, natural_submatrix

MAX_FACTORIAL_DIM = 8


def permutation_terms(n, order):
    """Yield (sign, 0-based (row, col) factors in product order) per permutation;
    each cycle is walked r -> perm[r] from the first unused row, ascending
    for order "row" and descending for "det"."""
    starts = {"det": range(n - 1, -1, -1), "row": range(n)}[order]
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cells = []
        n_cycles = 0
        for r in starts:
            if seen[r]:
                continue
            n_cycles += 1
            while not seen[r]:
                seen[r] = True
                cells.append((r, perm[r]))
                r = perm[r]
        yield (-1 if (n - n_cycles) % 2 else 1), cells


def _permutation_sum(A: QMatrix, order):
    n = A.n_rows
    if not A.is_square():
        raise NotSquare(f"determinant needs a square matrix, got {A.shape}")
    if n > MAX_FACTORIAL_DIM:
        raise ComplexityLimit(
            f"n = {n} exceeds the factorial-sum cap n <= {MAX_FACTORIAL_DIM}")
    total = Quaternion()
    for sign, cells in permutation_terms(n, order):
        term = Quaternion(float(sign))
        for r, c in cells:
            term = term * A.rows[r][c]
        total = total + term
    return total


def det(A: QMatrix) -> Quaternion:
    """Permutation determinant with descending-cycle-leader factor order."""
    return _permutation_sum(A, "det")


def row_expansion(A: QMatrix) -> Quaternion:
    """|A|^row: factor order chains through the permutation from row 1."""
    return _permutation_sum(A, "row")


def qadj(A: QMatrix) -> QMatrix:
    """Quaternion adjugate: signed row expansions of natural submatrices.

    Entry (p, q) is +|A_pp|^row on the diagonal and -|A_qp|^row off it.
    The 0x0 row expansion is 1, so qadj of a 1x1 matrix is [[1]].
    """
    n = A.n_rows
    if not A.is_square():
        raise NotSquare(f"qadj needs a square matrix, got {A.shape}")
    if n > MAX_FACTORIAL_DIM:
        raise ComplexityLimit(
            f"n = {n} exceeds the factorial-sum cap n <= {MAX_FACTORIAL_DIM}")
    if n == 1:
        return QMatrix([[Quaternion(1.0)]])
    out = []
    for p in range(1, n + 1):
        row = []
        for q in range(1, n + 1):
            val = row_expansion(natural_submatrix(A, q, p))
            row.append(val if p == q else -val)
        out.append(row)
    return QMatrix(out)


def det_invariance_check(H: HermitianQMatrix, k: int, j: int, lam) -> float:
    """|det(P* H P) - det(H)| for P = E + lam * (column j into column k)."""
    n = H.n
    if not (1 <= k <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"indices ({k},{j}) outside 1..{n}")
    if j == k:
        raise IndexOutOfRange("column shear needs j != k")
    lam = _coerce(lam)
    P = [[Quaternion(1.0 if p == q else 0.0) for q in range(n)] for p in range(n)]
    P[j - 1][k - 1] = lam
    P = QMatrix(P)
    sheared = qmatrix.matmul(qmatrix.conj_transpose(P), qmatrix.matmul(H.inner, P))
    return (det(sheared) - det(H.inner)).modulus()
