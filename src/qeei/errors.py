"""Exception hierarchy shared by all qeei modules."""


class QeeiError(Exception):
    """Base class for every error raised by this package."""


class ZeroDivisor(QeeiError):
    """Inverse of a zero quaternion requested."""


class DimensionMismatch(QeeiError):
    """Operands have incompatible shapes."""


class NotSquare(QeeiError):
    """A square matrix was required."""


class NotHermitian(QeeiError):
    """Matrix failed the A = A* check; carries the worst entry pair."""

    def __init__(self, msg, row=None, col=None, deviation=None):
        super().__init__(msg)
        self.row = row
        self.col = col
        self.deviation = deviation


class IndexOutOfRange(QeeiError):
    """1-based index outside the matrix."""


class ComplexityLimit(QeeiError):
    """Factorial-cost routine invoked above the size cap (n > 8)."""


class NotSymmetric(QeeiError):
    """Real eigensolver input is not symmetric."""


class GroupingFailure(QeeiError):
    """Eigenvalues of the real lift do not split into clean quadruples."""


class DegenerateEigenvalue(QeeiError):
    """Operation requires a simple eigenvalue but the gap is too small."""


class IdentityViolation(QeeiError):
    """A residual exceeds what rounding can explain; the identity failed."""


class PivotFailure(QeeiError):
    """No usable pivot: a non-finite or vanishing EEI weight, or a non-finite
    pivot column of the adjugate (rank-one structure lost)."""


class NonFiniteResult(QeeiError):
    """A computed result overflowed to an infinity or a NaN."""


class NoZeroEigenvalue(QeeiError):
    """Cauchy-Binet check needs a (near-)singular Hermitian input."""
