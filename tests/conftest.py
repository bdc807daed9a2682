import math

import pytest

from qeei import QMatrix, scale_right, validate_hermitian
from qeei.quat import I, J, K, Quaternion

SQRT13 = math.sqrt(13.0)

# the 2x2 worked example used throughout: [[3, i-j+k], [-i+j-k, 2]]
U = I - J + K


@pytest.fixture
def example_matrix():
    return QMatrix([[3, U], [U.conj(), 2]])


@pytest.fixture
def example_hermitian(example_matrix):
    return validate_hermitian(example_matrix)


def vec_norm(v):
    return math.sqrt(sum(a.norm_sq() for row in v.rows for a in row))


def phase_align(v, target):
    """Right-multiply v by a unit quaternion so it best matches target."""
    mods = [a.modulus() for (a,) in target.rows]
    m = max(range(len(mods)), key=lambda t: mods[t])
    q = v[m, 0].inverse() * target[m, 0]
    norm = q.modulus()
    if norm == 0.0:
        return v
    return scale_right(v, q * (1.0 / norm))


def max_component_dev(v, w):
    return max(max(abs(a - b) for a, b in zip(x.components(), y.components()))
               for (x,), (y,) in zip(v.rows, w.rows))


def count_calls(monkeypatch, module, name):
    """Wrap module.name so each call is recorded; returns the list of calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
