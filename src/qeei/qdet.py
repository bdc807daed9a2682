"""Permutation determinants over the quaternions.

Two permutation sums live here.  Both attach the classical sign
(-1)**(n - #cycles) to each permutation, but they order the factors of a
term differently, and over a non-commutative ring that changes the value:

* det: each cycle is traversed starting from its largest element, and
  cycles are concatenated in order of decreasing leader.
* row expansion |A|^row: the first factor comes from row 1 and the chain
  follows the permutation; when a cycle closes, the next factor comes
  from the smallest row not yet used.  This is I. I. Kyrchei's row
  determinant rdet_1.

The quaternion adjugate qadj is Kyrchei's row-determinant cofactor,
evaluated as row expansions of natural submatrices; it satisfies
qadj(H) H = H qadj(H) = det(H) E for Hermitian H.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import qmatrix
from .errors import ComplexityLimit, IndexOutOfRange, NotSquare
from .quat import Quaternion, _coerce, hamilton
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


@qmatrix.quiet
def _permutation_sum(A: QMatrix, order):
    """All n! terms as one batched Hamilton product.

    Each term starts at (sign, 0, 0, 0) and takes its factors through
    quat.hamilton, the product behind Quaternion.__mul__, and the terms
    are added one after another from 0 (cumsum, not the pairwise np.sum),
    so the result is bit-identical to multiplying and adding Quaternion
    objects in a loop.
    """
    n = A.n_rows
    if not A.is_square():
        raise NotSquare(f"determinant needs a square matrix, got {A.shape}")
    if n > MAX_FACTORIAL_DIM:
        raise ComplexityLimit(
            f"n = {n} exceeds the factorial-sum cap n <= {MAX_FACTORIAL_DIM}")
    signs, cells = _term_table(n, order)
    entries = A.data.reshape(4, -1)
    zero = np.zeros_like(signs)
    term = (signs, zero, zero, zero)
    for factor in cells:
        term = hamilton(term, entries[:, factor])
    terms = np.zeros((4, len(signs) + 1))
    terms[:, 1:] = term
    total = np.cumsum(terms, axis=1)[:, -1]
    return Quaternion(*total.tolist())


def det(A: QMatrix) -> Quaternion:
    """Permutation determinant with descending-cycle-leader factor order."""
    return _permutation_sum(A, "det")


def row_expansion(A: QMatrix) -> Quaternion:
    """|A|^row: factor order chains through the permutation from row 1."""
    return _permutation_sum(A, "row")


def adjugate_column(A: QMatrix, q: int) -> np.ndarray:
    """Column q (0-based) of qadj(A) as a (4, n) component array.

    Entry p is +|A_pp|^row for p = q and -|A_qp|^row otherwise (1-based
    natural submatrices; see qadj); a 1x1 matrix gives e_1.
    """
    n = A.n_rows
    if not A.is_square():
        raise NotSquare(f"qadj needs a square matrix, got {A.shape}")
    if n > MAX_FACTORIAL_DIM:
        raise ComplexityLimit(
            f"n = {n} exceeds the factorial-sum cap n <= {MAX_FACTORIAL_DIM}")
    if not 0 <= q < n:
        raise IndexOutOfRange(f"adjugate column {q} outside 0..{n - 1}")
    column = np.zeros((4, n))
    if n == 1:
        column[0, 0] = 1.0
        return column
    for p in range(n):
        val = row_expansion(natural_submatrix(A, q + 1, p + 1))
        column[:, p] = (val if p == q else -val).components()
    return column


def qadj(A: QMatrix) -> QMatrix:
    """Quaternion adjugate: Kyrchei's row-determinant cofactors.

    Entry (p, q), 1-based, is rdet_p of A with column p replaced by the
    unit column e_q.  rdet_p sums over all n! permutations with sign
    (-1)**(n - #cycles); the first cycle starts at row p, and every other
    cycle starts at its smallest row, in ascending order of that row
    (I. I. Kyrchei, "Cramer's rule for quaternionic systems of linear
    equations", J. Math. Sci. 155, 2008).  Only the terms whose first
    cycle closes through the unit entry (q, p) are nonzero, so each entry
    takes (n - 1)! terms: the row expansion (rdet_1) of the natural
    submatrix A_qp.  For p = q the cycle (p) drops out with the row and
    column, which leaves (-1)**(n - #cycles) unchanged: +|A_pp|^row.  For
    p != q row p and column q merge into one, so n falls by one and
    #cycles does not: -|A_qp|^row.  The 0x0 row expansion is 1, so qadj
    of a 1x1 matrix is [[1]].  The adjugate the paper lists for its 2x2
    example pins this orientation: entry (1, 2) is -a_12, not -a_21.
    adjugate_column evaluates the columns.
    """
    columns = [adjugate_column(A, q) for q in range(A.n_rows)]
    return QMatrix.from_data(np.stack(columns, axis=2))


def det_invariance_check(H: HermitianQMatrix, k: int, j: int, lam) -> float:
    """|det(P* H P) - det(H)| for P = E + lam * (column j into column k)."""
    n = H.n
    if not (1 <= k <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"indices ({k},{j}) outside 1..{n}")
    if j == k:
        raise IndexOutOfRange("column shear needs j != k")
    shear = qmatrix.identity(n).data.copy()
    shear[:, j - 1, k - 1] = _coerce(lam).components()
    P = QMatrix.from_data(shear)
    sheared = qmatrix.matmul(qmatrix.conj_transpose(P), qmatrix.matmul(H.inner, P))
    return (det(sheared) - det(H.inner)).modulus()
