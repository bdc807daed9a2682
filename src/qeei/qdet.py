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
_permutation_sum, evaluates every sum, a batch of them per pass.  It walks
the permutation tree of the terms (D. E. Knuth, TAOCP 4A, 7.2.1.2) level
by level, so terms that share a prefix of factors share its product, and
it works in scratch arrays kept per (size, order, batch), so a pass makes
no temporary of the sums' size.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading

import numpy as np

from . import qmatrix
from .errors import ComplexityLimit, IndexOutOfRange, NotSquare
from .quat import Quaternion, _coerce, hamilton_into, ordered_sum
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


def _term_table(n, order):
    """(signs, cells) for permutation_terms(n, order): signs is a float
    (n!,) array; cells[k, t] is the flat index r*n + c of term t's k-th
    factor, uint8 because n * n <= 64.  All n! permutations, in
    itertools.permutations order, walk their cycles together, one factor
    per step.  _term_tree keeps what the kernel needs of it."""
    perms = np.zeros((1, 0), dtype=np.intp)
    for size in range(1, n + 1):
        # lexicographic order: each first value f, then the permutations
        # of size - 1 values with f skipped
        first = np.repeat(np.arange(size), len(perms))[:, None]
        rest = np.tile(perms, (size, 1))
        perms = np.hstack([first, rest + (rest >= first)])
    terms = np.arange(len(perms))
    seen = np.zeros(perms.shape, dtype=bool)
    cycles = np.zeros(len(perms), dtype=np.intp)
    cells = np.empty((n, len(perms)), dtype=np.uint8)
    r = np.zeros(len(perms), dtype=np.intp)
    for k in range(n):
        # a closed cycle (at k = 0, every term) starts the next at the
        # first unused row: ascending for "row", descending for "det"
        closed = seen[terms, r] if k else np.ones(len(perms), dtype=bool)
        unused = ~seen[closed]
        r[closed] = (unused.argmax(axis=1) if order == "row"
                     else n - 1 - unused[:, ::-1].argmax(axis=1))
        cycles += closed
        seen[terms, r] = True
        cells[k] = r * n + perms[terms, r]
        r = perms[terms, r]
    return np.where((n - cycles) % 2, -1.0, 1.0), cells


class _TermTree:
    """The permutation tree of the n! terms of one size and order.

    Level k (1..n) holds the N_k = n!/(n - k)! distinct k-factor prefixes
    of the terms.  A prefix fixes the next factor's row and leaves n - k
    unused columns, so every node at level k - 1 has n - k + 1 children.
    levels[k - 1] is (cells, parents): cells[j] is the flat cell r*n + c
    of node j's k-th factor, and node j extends node parents[j] of level
    k - 1.  Levels 1..n - 1 are dense, with parents None: child i of node
    p is node i * N_{k-1} + p, so a level's parents are the whole level
    above, repeated once per child.  Level n holds the terms themselves,
    in permutation_terms order, each the one child of its parent, and a
    term of sign -1 has n*n added to its last cell.  The arrays are
    read-only intp.  len() is the number of terms.
    """

    __slots__ = ("levels",)

    def __init__(self, levels):
        self.levels = levels

    def __len__(self):
        return len(self.levels[-1][0]) if self.levels else 1


@functools.lru_cache(maxsize=None)
def _term_tree(n, order):
    """The _TermTree of _term_table(n, order)."""
    signs, cells = _term_table(n, order)
    t = len(signs)
    # sorted by their column sequences, the terms are the leaves in
    # lexicographic order, so term t's rank spells its root path in the
    # mixed radix n, n - 1, ..., 1 of the child numbers
    rank = np.zeros(t, dtype=np.intp)
    if n:
        rank[np.lexsort(cells[::-1] % n)] = np.arange(t)
    node = np.zeros(t, dtype=np.intp)
    levels = []
    for k in range(1, n):
        below, width = math.factorial(n - k), n - k + 1
        node += rank // below % width * (t // (below * width))
        level = np.empty(t // below, dtype=np.intp)
        level[node] = cells[k - 1]
        level.flags.writeable = False
        levels.append((level, None))
    if n:
        last = cells[-1] + n * n * (signs < 0)
        last.flags.writeable = node.flags.writeable = False
        levels.append((last, node))
    return _TermTree(tuple(levels))


def _check_size(n):
    if n > MAX_FACTORIAL_DIM:
        raise ComplexityLimit(
            f"n = {n} exceeds the factorial-sum cap n <= {MAX_FACTORIAL_DIM}")


@functools.lru_cache(maxsize=None)
def _cofactor_table(n):
    """cells[q, p] holds the flat indices r*n + c, in an n x n matrix, of the
    entries of its natural submatrix A_qp (1-based q+1, p+1), row by row:
    read-only uint8 (n, n, (n - 1)**2).  cells[q, p] maps the cells of a
    size n - 1 sum into A, so the kernel takes each cofactor's factors from
    A itself."""
    cells = np.zeros((n, n, (n - 1) ** 2), dtype=np.uint8)
    if n > 1:
        index = np.zeros((4, n, n))
        index[0] = np.arange(n * n).reshape(n, n)
        index = QMatrix.from_data(index)
        for q, p in itertools.product(range(n), repeat=2):
            cells[q, p] = natural_submatrix(index, q + 1, p + 1).data[0].ravel()
    cells.flags.writeable = False
    return cells


@functools.lru_cache(maxsize=16)
def _scratch(tree, b, thread):
    """The kernel's arrays for b sums over one _TermTree in one thread,
    built on first use and kept for the 16 latest (tree, b, thread).

    Returns (signed, levels, leaves).  signed holds the (4, 2 m*m, b)
    cells of each sum, then their negations.  levels[k - 1] is (cells,
    parents, src, dst, factors, product): level k copies its parents from
    src, the level above, into dst (gathering them when parents is not
    None), takes its factors from signed, and quat.hamilton_into(*product)
    multiplies the two into the level's nodes.  Nodes, parents and factors
    use 4 * b * m! floats each of one buffer, and the product's scratch row
    b * m!: 13 * b * m! floats.  leaves is level m, the (4, m!, b) terms in
    term order.
    """
    t, m = len(tree), len(tree.levels)
    buf = np.empty(13 * t * b)

    def part(k, size):  # the first size floats of part k
        return buf[4 * t * b * k:4 * t * b * k + size]

    above = np.zeros((4, 1, b))
    above[0] = 1.0
    levels = []
    for cell, parent in tree.levels:
        size = 4 * len(cell) * b
        nodes, up, factors = (part(k, size).reshape(4, -1, b) for k in range(3))
        # a dense level's parents are the level above, once per child
        src, dst = ((above.reshape(4, 1, -1), up.reshape(4, -1, above[0].size))
                    if parent is None else (above, up))
        product = (tuple(up.reshape(4, -1)), tuple(factors.reshape(4, -1)),
                   tuple(nodes.reshape(4, -1)), part(3, size // 4))
        levels.append((cell, parent, src, dst, factors, product))
        above = nodes
    return np.empty((4, 2 * m * m, b)), tuple(levels), above


@qmatrix.quiet
def _permutation_sum(entries, which, tree, cells):
    """b permutation sums of one size m and order, level by level down the
    permutation tree.

    entries is a (4, s, N) stack of flat matrix entries and tree is the
    _TermTree of the sums' size and order.  Sum u expands the m x m matrix
    whose cell r*m + c is entries[:, which[u], cells[u, r*m + c]]: its
    terms are the products, left to right, of the cells permutation_terms
    gives, times their signs.  Level 1 is (1, 0, 0, 0) times each first
    factor, so 0 * inf still gives NaN where the loop's (sign, 0, 0, 0)
    does, and every level after it is one quat.hamilton_into of its
    parents and their next factors, for all b sums at once; a term of
    sign -1 takes its last factor negated.  Negation is exact, so each
    term is the loop's up to the sign of a zero, which no sum started at
    +0.0 keeps.  Level m is in term order, and quat.ordered_sum adds it
    TERM_CAP values at a time, each chunk started at the running totals,
    so every sum is bit-identical to multiplying and adding Quaternion
    objects in a loop (NaN for NaN).  A shared prefix is multiplied once:
    a size-m sum takes sum_k m!/(m - k)! Hamilton products, not m * m!
    (1 956, not 4 320, at m = 6).  Returns the (4, b) sums.

    The levels live in the _scratch of (tree, b, thread), 13 * b * m!
    floats: 0.5 MB for the 7 sums of 720 terms of an n = 7 pivot column,
    4.2 MB for an n = 8 det.  A pass allocates no array of more than about
    TERM_CAP values, and nothing it returns is a view of the scratch.
    """
    b = len(which)
    signed, levels, leaves = _scratch(tree, b, threading.get_ident())
    index = (np.asarray(which)[:, None] * entries.shape[2] + cells).T
    signed[:, :len(index)] = entries.reshape(4, -1)[:, index]
    np.negative(signed[:, :len(index)], out=signed[:, len(index):])
    # the tree's indices are in range; mode="clip" lets take write into
    # out, where the default mode="raise" fills a temporary first
    for cell, parent, src, dst, factors, product in levels:
        if parent is None:
            np.copyto(dst, src)
        else:
            np.take(src, parent, axis=1, out=dst, mode="clip")
        np.take(signed, cell, axis=1, out=factors, mode="clip")
        hamilton_into(*product)
    step = max(1, TERM_CAP // (4 * b))  # terms per TERM_CAP values
    sums = np.zeros((4, b))
    for lo in range(0, len(tree), step):
        sums = ordered_sum(leaves[:, lo:lo + step].transpose(0, 2, 1), sums)
    return sums


def _square_sum(A: QMatrix, order):
    """The n!-term sum of A in one kernel pass."""
    if not A.is_square():
        raise NotSquare(f"determinant needs a square matrix, got {A.shape}")
    n = A.n_rows
    _check_size(n)
    total = _permutation_sum(A.data.reshape(4, 1, -1), np.zeros(1, dtype=int),
                             _term_tree(n, order), np.arange(n * n)[None])
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
    tree = _term_tree(n - 1, "row")
    table = _cofactor_table(n)
    # sum p * len(wanted) + k is entry p of column k
    which, cols = np.tile(mats, n), np.tile(qs, n)
    rows = np.repeat(np.arange(n), len(qs))
    entries = stack.reshape(4, stack.shape[1], n * n)
    sums = np.empty((4, len(which)))
    per_pass = max(1, TERM_CAP // len(tree))
    for lo in range(0, len(which), per_pass):
        part = slice(lo, lo + per_pass)
        sums[:, part] = _permutation_sum(entries, which[part], tree,
                                         table[cols[part], rows[part]])
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
