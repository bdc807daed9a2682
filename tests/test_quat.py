import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeei.errors import ZeroDivisor
from qeei.quat import I, J, K, ONE, Quaternion, ordered_sum

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def test_basis_products():
    minus_one = Quaternion(-1.0)
    assert (I * I).isclose(minus_one)
    assert (J * J).isclose(minus_one)
    assert (K * K).isclose(minus_one)
    assert (I * J * K).isclose(minus_one)
    assert (I * J).isclose(K) and (J * I).isclose(-K)
    assert (J * K).isclose(I) and (K * J).isclose(-I)
    assert (K * I).isclose(J) and (I * K).isclose(-J)


def test_mul_identity_and_expansion():
    q = Quaternion(1, 2, 3, 4)
    assert (q * ONE).isclose(q)
    # (1+i)(1+j) expanded over the eight basis products by hand
    assert ((ONE + I) * (ONE + J)).isclose(Quaternion(1, 1, 1, 1))


def test_noncommuting_witness():
    p, q = ONE + I, ONE + J
    assert not (p * q).isclose(q * p)


def test_conj():
    q = Quaternion(1, 1, -1, 1)
    assert q.conj().isclose(Quaternion(1, -1, 1, -1))
    assert q.conj().conj() == q
    assert (I * J).conj().isclose(-K)
    assert (I * J).conj().isclose(J.conj() * I.conj())


def test_norm_sq():
    assert (I - J + K).norm_sq() == pytest.approx(3.0)
    assert Quaternion().norm_sq() == 0.0
    p, q = ONE + I, Quaternion(2, 0, 0, 3)
    assert (p * q).norm_sq() == pytest.approx(2 * 13)


def test_inverse():
    assert Quaternion(2).inverse().isclose(Quaternion(0.5))
    assert I.inverse().isclose(-I)
    assert Quaternion(1, 1, 1, 1).inverse().isclose(Quaternion(.25, -.25, -.25, -.25))
    with pytest.raises(ZeroDivisor):
        Quaternion().inverse()


def test_str_rendering():
    assert str(Quaternion(1, -2, 0, 3)) == "1-2i+3k"
    assert str(Quaternion()) == "0"
    assert str(I - J + K) == "i-j+k"
    assert str(Quaternion(0, -1, 0, 0)) == "-i"


@given(quaternions, quaternions, quaternions)
def test_associativity(p, q, r):
    lhs, rhs = (p * q) * r, p * (q * r)
    scale = 1.0 + max(abs(c) for c in lhs.components())
    assert lhs.isclose(rhs, 1e-12 * scale)


@given(quaternions, quaternions)
def test_conj_antihomomorphism(p, q):
    scale = 1.0 + p.modulus() * q.modulus()
    assert (p * q).conj().isclose(q.conj() * p.conj(), 1e-12 * scale)


@given(quaternions, quaternions)
def test_norm_sq_multiplicative(p, q):
    lhs = (p * q).norm_sq()
    rhs = p.norm_sq() * q.norm_sq()
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)


@given(finite, quaternions)
def test_reals_commute(r, q):
    real = Quaternion(r)
    scale = 1.0 + abs(r) * q.modulus()
    assert (real * q).isclose(q * real, 1e-12 * scale)


@given(quaternions)
def test_conj_product_is_norm(q):
    n = q.norm_sq()
    assert (q.conj() * q).isclose(Quaternion(n), 1e-10 * (1 + n))
    assert (q * q.conj()).isclose(Quaternion(n), 1e-10 * (1 + n))


# ------------------------------------------------- the one summation order

def loop_sum(terms, start=0.0):
    total = start
    for t in terms:
        total += t
    return total


def assert_same_float(got, want):
    assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("terms", [
    [], [-0.0], [-0.0, -0.0, -0.0], [0.0, -0.0], [1.0, -1.0, -0.0],
    [1.0, 2.0 ** -53, 2.0 ** -53], [1e308, 1e308, -1e308], [math.inf, -1.0],
    [math.inf, -math.inf, 1.0], [1.0, math.nan, 2.0], [0.1] * 10,
], ids=repr)
def test_ordered_sum_is_the_loop(terms):
    with np.errstate(over="ignore", invalid="ignore"):  # the loop is silent too
        assert_same_float(ordered_sum(terms), loop_sum(terms))
        assert_same_float(ordered_sum(terms, -0.0), loop_sum(terms, -0.0))


def test_ordered_sum_is_not_compensated():
    # the loop rounds each step: 1 + 2**-53 is 1, twice; fsum keeps the tail
    terms = [1.0, 2.0 ** -53, 2.0 ** -53]
    assert_same_float(ordered_sum(terms), 1.0)
    assert math.fsum(terms) != 1.0
    assert_same_float(ordered_sum([-0.0] * 5), 0.0)


def test_ordered_sum_sums_the_last_axis_in_chunks():
    terms = np.random.default_rng(3).standard_normal((3, 2, 50))
    terms[0, 0, :] = -0.0
    whole = ordered_sum(terms)
    assert whole.shape == (3, 2)
    for index in np.ndindex(3, 2):
        assert_same_float(whole[index], loop_sum(terms[index].tolist()))
    chunked = ordered_sum(terms[..., 20:], ordered_sum(terms[..., :20]))
    assert np.array_equal(chunked, whole)
    assert np.array_equal(np.signbit(chunked), np.signbit(whole))
