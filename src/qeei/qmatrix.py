"""Dense quaternion matrices and the 4n x 4n real lift.

A matrix is one read-only float array of shape (4, m, n), the w, x, y and
z component matrices.  Raw element access uses Python's 0-based indexing;
the operations that mirror textbook notation (minor, natural_submatrix)
take 1-based indices, as does the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NotHermitian, NotSquare
from .quat import Quaternion, _coerce, hamilton, ordered_sum

# decorator: overflow and inf - inf give inf/NaN silently, as Python floats do
quiet = np.errstate(over="ignore", invalid="ignore")

HERMITIAN_TOL = 1e-12  # validate_hermitian: |A - A*| <= tol * ||A||_inf


class QMatrix:
    """Dense matrix over the quaternions; data[c, p, q] is component c
    (w, x, y, z) of entry (p, q)."""

    __slots__ = ("data",)

    def __init__(self, rows):
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix must have at least one row and column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise DimensionMismatch("ragged rows")
        entries = [[_coerce(v).components() for v in row] for row in rows]
        self._set(np.moveaxis(np.array(entries, dtype=float), -1, 0))

    @classmethod
    def from_data(cls, data) -> "QMatrix":
        """Wrap a (4, m, n) component array (copied, then read-only)."""
        A = cls.__new__(cls)
        A._set(data)
        return A

    def _set(self, data):
        data = np.array(data, dtype=float)
        if data.ndim != 3 or data.shape[0] != 4 or 0 in data.shape:
            raise DimensionMismatch(
                f"expected a non-empty (4, m, n) component array, got {data.shape}")
        data.flags.writeable = False
        self.data = data

    @property
    def rows(self):
        """The entries as a tuple of row tuples of Quaternion."""
        return tuple(tuple(Quaternion(*a) for a in row)
                     for row in np.moveaxis(self.data, 0, -1).tolist())

    @property
    def n_rows(self):
        return self.data.shape[1]

    @property
    def n_cols(self):
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape[1:]

    def is_square(self):
        return self.n_rows == self.n_cols

    def __getitem__(self, pq):
        p, q = pq
        return Quaternion(*self.data[:, p, q].tolist())

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.shape == other.shape
                and bool(np.array_equal(self.data, other.data)))

    def __hash__(self):
        # float hashing keeps hash(0.0) == hash(-0.0), as == does
        return hash((self.shape, *self.data.ravel().tolist()))

    @quiet
    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} vs {other.shape}")
        return QMatrix.from_data(self.data + other.data)

    @quiet
    def __sub__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub {self.shape} vs {other.shape}")
        return QMatrix.from_data(self.data - other.data)

    def __neg__(self):
        return QMatrix.from_data(-self.data)

    @quiet
    def norm_inf(self):
        """Max entry modulus, a Python float."""
        w, x, y, z = self.data
        return math.sqrt(np.max(w * w + x * x + y * y + z * z))

    def components(self):
        """The four real component matrices (A0, A1, A2, A3), read-only."""
        return tuple(self.data)

    @quiet
    def isclose(self, other, tol=1e-10):
        return (self.shape == other.shape
                and bool(np.all(np.abs(self.data - other.data) <= tol)))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in row) + "]"
                         for row in self.rows)

    __repr__ = __str__


@dataclass(frozen=True)
class HermitianQMatrix:
    """Wrapper certifying A = A*; construct through validate_hermitian."""

    inner: QMatrix

    @property
    def n(self):
        return self.inner.n_rows

    def __getitem__(self, pq):
        return self.inner[pq]


def zeros(n_rows, n_cols=None):
    n_cols = n_rows if n_cols is None else n_cols
    return QMatrix.from_data(np.zeros((4, n_rows, n_cols)))


def identity(n):
    data = np.zeros((4, n, n))
    data[0] = np.eye(n)
    return QMatrix.from_data(data)


def from_components(A0, A1, A2, A3):
    """Assemble A = A0 + A1 i + A2 j + A3 k from four real matrices."""
    mats = [np.asarray(m, dtype=float) for m in (A0, A1, A2, A3)]
    if any(m.shape != mats[0].shape for m in mats) or mats[0].ndim != 2:
        raise DimensionMismatch("component matrices must share an m x n shape")
    return QMatrix.from_data(np.stack(mats))


@quiet
def matmul(A: QMatrix, B: QMatrix) -> QMatrix:
    """Entry (p, q) is the ordered_sum over k of A[p, k] B[k, q]."""
    if A.n_cols != B.n_rows:
        raise DimensionMismatch(f"matmul {A.shape} x {B.shape}")
    return QMatrix.from_data(ordered_sum(
        hamilton(A.data[:, :, None], B.data.transpose(0, 2, 1)[:, None])))


def conj_transpose(A: QMatrix) -> QMatrix:
    t = A.data.transpose(0, 2, 1)
    return QMatrix.from_data(np.concatenate((t[:1], -t[1:])))


@quiet
def scale_right(v: QMatrix, q) -> QMatrix:
    """Entrywise right multiplication by q (order matters)."""
    return QMatrix.from_data(hamilton(v.data, _coerce(q).components()))


@quiet
def scale_left(q, v: QMatrix) -> QMatrix:
    return QMatrix.from_data(hamilton(_coerce(q).components(), v.data))


@quiet
def validate_hermitian(A: QMatrix) -> HermitianQMatrix:
    """Certify A = A*; tolerance scales with the largest entry modulus.
    Both are taken of A / 2**e, with 2**e just above the largest component:
    the scaling is exact, and the squared moduli cannot overflow.
    Reports the first pair p <= q (row by row) with the largest deviation:
    the deviation is exactly symmetric, so the first largest entry of the
    whole matrix has p <= q.  A NaN deviation (from a non-finite entry) is
    never within tolerance, and argmax finds the first NaN."""
    if not A.is_square():
        raise NotSquare(f"Hermitian validation needs a square matrix, got {A.shape}")
    e = np.frexp(np.max(np.abs(A.data)))[1]
    S = QMatrix.from_data(np.ldexp(A.data, -e))
    tol = HERMITIAN_TOL * S.norm_inf()
    deviation = np.max(np.abs(S.data - conj_transpose(S).data), axis=0)
    p, q = divmod(int(np.argmax(deviation)), A.n_rows)
    dev = deviation[p, q]
    if not dev <= tol:
        dev, tol = float(np.ldexp(dev, e)), float(np.ldexp(tol, e))
        raise NotHermitian(
            f"entries ({p + 1},{q + 1})/({q + 1},{p + 1}) break A = A* "
            f"by {dev:.3e} (tol {tol:.3e})",
            row=p + 1, col=q + 1, deviation=dev)
    return HermitianQMatrix(A)


def minor(A: HermitianQMatrix, j: int) -> HermitianQMatrix:
    """M_j: drop row j and column j (1-based), order preserved."""
    n = A.n
    if n < 2:
        raise IndexOutOfRange("minor needs n >= 2")
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"minor index {j} outside 1..{n}")
    keep = [p for p in range(n) if p != j - 1]
    return HermitianQMatrix(QMatrix.from_data(A.inner.data[:, keep][:, :, keep]))


def natural_submatrix(A: QMatrix, i: int, j: int) -> QMatrix:
    """A_ij: drop row i and column j (1-based), then rearrange.

    After the deletion, surviving row j is moved to the front and surviving
    column i is moved to the front; all other rows and columns keep their
    ascending order.  For i = j both moves are vacuous and the result is
    the plain deletion minor.  The row expansion of A_qp is the
    (n - 1)!-term evaluation of rdet_p of A with column p replaced by e_q:
    in each nonzero term the first cycle leaves row p and returns through
    the unit entry (q, p), and the front row and column of A_qp stand for
    that step.  qdet.qadj is built from these.
    """
    n = A.n_rows
    if not A.is_square():
        raise NotSquare("natural submatrix needs a square matrix")
    if n < 2:
        raise IndexOutOfRange("natural submatrix needs n >= 2")
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"indices ({i},{j}) outside 1..{n}")
    row_order, col_order = natural_orders(n, i, j)
    rows, cols = np.subtract(row_order, 1), np.subtract(col_order, 1)
    return QMatrix.from_data(A.data[:, rows[:, None], cols])


def natural_orders(n, i, j):
    """1-based (row_order, col_order) of the natural submatrix A_ij."""
    row_order = [r for r in range(1, n + 1) if r != i and r != j]
    col_order = [c for c in range(1, n + 1) if c != j and c != i]
    if i != j:
        row_order.insert(0, j)
        col_order.insert(0, i)
    return row_order, col_order


def real_lift(A) -> np.ndarray:
    """The 4m x 4n real block representation, a multiplicative homomorphism;
    a (4, ..., m, n) component stack gives the (..., 4m, 4n) lifts."""
    w, x, y, z = A.data if isinstance(A, QMatrix) else A
    *stack, m, n = w.shape
    lift = np.empty((*stack, 4, m, 4, n))
    for r, row in enumerate(((w, x, y, z), (-x, w, -z, y), (-y, z, w, -x),
                             (-z, -y, x, w))):
        for c, block in enumerate(row):
            lift[..., r, :, c, :] = block
    return lift.reshape(*stack, 4 * m, 4 * n)
