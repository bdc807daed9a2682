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
qadj(H) H = H qadj(H) = det(H) E for Hermitian H.  One kernel,
_permutation_sum, evaluates every sum, a batch of them per pass.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import qmatrix
from .errors import ComplexityLimit, IndexOutOfRange, NotSquare
from .quat import Quaternion, _coerce, hamilton, ordered_sum
from .qmatrix import HermitianQMatrix, QMatrix, natural_submatrix

MAX_FACTORIAL_DIM = 8
TERM_CAP = 5040  # terms per kernel pass; a longer sum is added in chunks


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


def _check_size(n):
    if n > MAX_FACTORIAL_DIM:
        raise ComplexityLimit(
            f"n = {n} exceeds the factorial-sum cap n <= {MAX_FACTORIAL_DIM}")


@functools.lru_cache(maxsize=None)
def _cofactor_table(n):
    """cells[q, p] holds the flat indices r*n + c, in an n x n matrix, of the
    entries of its natural submatrix A_qp (1-based q+1, p+1), row by row:
    read-only uint8 (n, n, (n - 1)**2).  Indexed by the cells of
    _term_table(n - 1, "row"), it gives each cofactor's factors in A itself."""
    cells = np.zeros((n, n, (n - 1) ** 2), dtype=np.uint8)
    if n > 1:
        index = np.zeros((4, n, n))
        index[0] = np.arange(n * n).reshape(n, n)
        index = QMatrix.from_data(index)
        for q, p in itertools.product(range(n), repeat=2):
            cells[q, p] = natural_submatrix(index, q + 1, p + 1).data[0].ravel()
    cells.flags.writeable = False
    return cells


@qmatrix.quiet
def _permutation_sum(entries, which, signs, cells):
    """b permutation sums of t terms each, in batched Hamilton products.

    entries is a (4, s, N) stack of flat matrix entries; sum u multiplies,
    into term t, the factors entries[:, which[u], cells[k, u, t]] for
    k = 0, 1, ...  Each term starts at (signs[t], 0, 0, 0) and takes its
    factors through quat.hamilton, the product behind Quaternion.__mul__,
    and each sum is the quat.ordered_sum of its terms, so every result is
    bit-identical to multiplying and adding Quaternion objects in a loop.
    Returns the (4, b) sums.

    The terms go in chunks of at most TERM_CAP, each summed on from the
    running totals, and factors are gathered and sums taken one component
    at a time.  So with b * t <= TERM_CAP or b = 1, as the callers keep
    it, no temporary holds much more than TERM_CAP floats: a larger one
    passes malloc's mmap threshold and is paged in afresh on every pass.
    """
    flat = entries.reshape(4, -1)
    offsets = which[:, None] * entries.shape[2]
    # (b, 1) zeros broadcast against every factor; with no factor (a 0 x 0
    # matrix) there is one term, so they already have the (b, t) shape
    zero = np.zeros((len(which), 1))
    sums = np.zeros((4, len(which)))
    for lo in range(0, len(signs), TERM_CAP):
        term = (signs[lo:lo + TERM_CAP] + zero, zero, zero, zero)
        for factor in cells[:, :, lo:lo + TERM_CAP]:
            index = offsets + factor
            term = hamilton(term, [component.take(index) for component in flat])
        sums = np.array([ordered_sum(v, s) for v, s in zip(term, sums)])
    return sums


def _square_sum(A: QMatrix, order):
    """The n!-term sum of A in one kernel pass."""
    if not A.is_square():
        raise NotSquare(f"determinant needs a square matrix, got {A.shape}")
    _check_size(A.n_rows)
    signs, cells = _term_table(A.n_rows, order)
    total = _permutation_sum(A.data.reshape(4, 1, -1), np.zeros(1, dtype=int),
                             signs, cells[:, None])
    return Quaternion(*total[:, 0].tolist())


def det(A: QMatrix) -> Quaternion:
    """Permutation determinant with descending-cycle-leader factor order."""
    return _square_sum(A, "det")


def row_expansion(A: QMatrix) -> Quaternion:
    """|A|^row: factor order chains through the permutation from row 1."""
    return _square_sum(A, "row")


def adjugate_columns(stack, wanted) -> np.ndarray:
    """Columns of qadj for (matrix, column) pairs of a (4, s, n, n) stack.

    Column k of the (4, n, len(wanted)) result is column q (0-based) of
    qadj(stack[:, m]) for (m, q) = wanted[k]: entry p is +|A_pp|^row for
    p = q and -|A_qp|^row otherwise (1-based natural submatrices; see
    qadj), and a 1x1 matrix gives e_1.  All n * len(wanted) cofactor sums
    go through the kernel in passes of at most TERM_CAP terms, counted in
    whole sums (a sum larger than the cap runs alone), and each factor is
    gathered from the stack through _cofactor_table, so no natural
    submatrix is built.
    """
    stack = np.asarray(stack, dtype=float)
    n = stack.shape[-1]
    if stack.shape[-2] != n:
        raise NotSquare(f"qadj needs a square matrix, got {stack.shape[-2:]}")
    _check_size(n)
    mats, qs = np.array(wanted, dtype=int).reshape(-1, 2).T
    for index, bound, what in ((qs, n, "adjugate column"),
                               (mats, stack.shape[1], "matrix")):
        bad = index[(index < 0) | (index >= bound)]
        if bad.size:
            raise IndexOutOfRange(f"{what} {bad[0]} outside 0..{bound - 1}")
    signs, cells = _term_table(n - 1, "row")
    table = _cofactor_table(n)
    # sum p * len(wanted) + k is entry p of column k
    which, cols = np.tile(mats, n), np.tile(qs, n)
    rows = np.repeat(np.arange(n), len(qs))
    entries = stack.reshape(4, stack.shape[1], n * n)
    sums = np.empty((4, len(which)))
    per_pass = max(1, TERM_CAP // len(signs))
    for lo in range(0, len(which), per_pass):
        part = slice(lo, lo + per_pass)
        factors = table[cols[part], rows[part]][:, cells].transpose(1, 0, 2)
        sums[:, part] = _permutation_sum(entries, which[part], signs, factors)
    sums = sums.reshape(4, n, len(qs))
    off = np.arange(n)[:, None] != qs
    sums[:, off] = np.negative(sums[:, off])
    return sums


def adjugate_column(A: QMatrix, q: int) -> np.ndarray:
    """Column q (0-based) of qadj(A) as a (4, n) component array."""
    return adjugate_columns(A.data[:, None], [(0, q)])[:, :, 0]


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
    adjugate_columns evaluates them.
    """
    return QMatrix.from_data(
        adjugate_columns(A.data[:, None], [(0, q) for q in range(A.n_cols)]))


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
