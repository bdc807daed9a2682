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

import functools
import itertools

import numpy as np

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


@functools.lru_cache(maxsize=None)
def _term_table(n, order):
    """(signs, cells) for permutation_terms(n, order), read-only: signs is a
    float (n!,) array; cells[k, t] is the flat index r*n + c of term t's
    k-th factor, uint8 because n * n <= 64."""
    signs, cells = [], []
    for sign, term in permutation_terms(n, order):
        signs.append(sign)
        cells.append([r * n + c for r, c in term])
    signs = np.array(signs, dtype=float)
    cells = np.array(cells, dtype=np.uint8).T.copy()
    signs.flags.writeable = False
    cells.flags.writeable = False
    return signs, cells


def _permutation_sum(A: QMatrix, order):
    """All n! terms as one batched Hamilton product.

    Each term starts at (sign, 0, 0, 0) and takes its factors with the
    expression order of Quaternion.__mul__, and the terms are added one
    after another from 0 (cumsum, not the pairwise np.sum), so the result
    is bit-identical to multiplying and adding Quaternion objects in a loop.
    """
    n = A.n_rows
    if not A.is_square():
        raise NotSquare(f"determinant needs a square matrix, got {A.shape}")
    if n > MAX_FACTORIAL_DIM:
        raise ComplexityLimit(
            f"n = {n} exceeds the factorial-sum cap n <= {MAX_FACTORIAL_DIM}")
    signs, cells = _term_table(n, order)
    entries = np.array([a.components() for row in A.rows for a in row],
                       dtype=float).T
    zero = np.zeros_like(signs)
    w1, x1, y1, z1 = signs, zero, zero, zero
    with np.errstate(over="ignore", invalid="ignore"):
        for factor in cells:
            w2, x2, y2, z2 = entries[:, factor]
            w1, x1, y1, z1 = (
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            )
        terms = np.zeros((4, len(signs) + 1))
        terms[:, 1:] = w1, x1, y1, z1
        total = np.cumsum(terms, axis=1)[:, -1]
    return Quaternion(*total.tolist())


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
