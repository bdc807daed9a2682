"""Quaternion scalar arithmetic.

Hamilton's conventions: i**2 = j**2 = k**2 = ijk = -1, so ij = k = -ji,
jk = i = -kj, ki = j = -ik.  Multiplication is associative but not
commutative; everything downstream (determinants, eigenvectors) leans on
keeping factor order straight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroDivisor


@dataclass(frozen=True)
class Quaternion:
    """w + x*i + y*j + z*k with double-precision components."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @staticmethod
    def from_real(r: float) -> "Quaternion":
        return Quaternion(float(r), 0.0, 0.0, 0.0)

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return Quaternion(*hamilton(self.components(), other.components()))

    def __rmul__(self, other):
        # only reals reach here; they commute
        return self * other

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def modulus(self) -> float:
        return math.sqrt(self.norm_sq())

    __abs__ = modulus

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n == 0.0:
            raise ZeroDivisor("cannot invert the zero quaternion")
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    def is_real(self, tol: float = 0.0) -> bool:
        return abs(self.x) <= tol and abs(self.y) <= tol and abs(self.z) <= tol

    def isclose(self, other, tol: float = 1e-10) -> bool:
        other = _coerce(other)
        return (abs(self.w - other.w) <= tol and abs(self.x - other.x) <= tol
                and abs(self.y - other.y) <= tol and abs(self.z - other.z) <= tol)

    def components(self) -> tuple:
        return (self.w, self.x, self.y, self.z)

    def __str__(self):
        terms = []
        for value, unit in zip(self.components(), ("", "i", "j", "k")):
            if value == 0.0:
                continue
            sign = "-" if value < 0 else ("+" if terms else "")
            mag = abs(value)
            body = unit if (mag == 1.0 and unit) else f"{mag:g}{unit}"
            terms.append(sign + body)
        return "".join(terms) if terms else "0"


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def hamilton(a, b):
    """Hamilton product of two (w, x, y, z) quadruples of floats or
    broadcasting arrays (a (4, ...) array unpacks along its first axis)."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


# hamilton's four products per component, as (index in a, index in b, add)
_HAMILTON_TERMS = (((0, 0, True), (1, 1, False), (2, 2, False), (3, 3, False)),
                   ((0, 1, True), (1, 0, True), (2, 3, True), (3, 2, False)),
                   ((0, 2, True), (1, 3, False), (2, 0, True), (3, 1, True)),
                   ((0, 3, True), (1, 2, True), (2, 1, False), (3, 0, True)))


def hamilton_into(a, b, out, tmp):
    """hamilton(a, b) of broadcasting arrays, written into the four arrays
    of out with the same products added in the same order, so the bits are
    hamilton's; tmp is scratch of out[0]'s shape.  No array is allocated."""
    a, b = tuple(a), tuple(b)
    for o, ((i, j, _), *rest) in zip(out, _HAMILTON_TERMS):
        np.multiply(a[i], b[j], o)
        for i, j, add in rest:
            np.multiply(a[i], b[j], tmp)
            (np.add if add else np.subtract)(o, tmp, o)


def ordered_sum(terms, start=0.0):
    """Sum over the last axis, adding the terms one after another to start
    as `total = start; total += t` does in a loop: a cumulative sum led by
    start (+0.0, so all -0.0 terms give +0.0), not numpy's pairwise np.sum
    nor the compensated builtin sum of Python 3.12+.  Every quaternion sum
    in the package goes through here, so each is bit-identical to adding
    Quaternion objects (or Python floats) in a loop.  start broadcasts
    against terms[..., 0], so a long sum can be added in chunks, each
    started at the previous total.  Like hamilton on arrays, it warns on
    overflow unless the caller silences numpy (qmatrix.quiet)."""
    terms = np.asarray(terms, dtype=float)
    led = np.empty((*terms.shape[:-1], terms.shape[-1] + 1))
    led[..., 0] = start
    led[..., 1:] = terms
    return np.add.accumulate(led, axis=-1, out=led)[..., -1].copy()


def _coerce(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    return Quaternion.from_real(value)
