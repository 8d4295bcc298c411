import math

import numpy as np
import numpy.testing as npt
import pytest

from semiapprox import linalg
from semiapprox.errors import (
    InvalidInputError,
    OverflowRiskError,
    SingularityError,
)


def test_op_norm_identity_and_zero():
    assert linalg.op_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    assert linalg.op_norm(np.zeros((2, 2))) == 0.0


def test_op_norm_diagonal():
    # singular values of a diagonal matrix are the moduli of its entries
    assert linalg.op_norm(np.diag([0.3, -0.7])) == pytest.approx(0.7, rel=1e-12)


def test_op_norm_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        linalg.op_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        linalg.op_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16, 32])
def test_op_norms_equal_op_norm_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    stack = rng.standard_normal((40, dim, dim)) + 1j * rng.standard_normal((40, dim, dim))
    assert linalg.op_norms(stack) == [linalg.op_norm(m) for m in stack]


def test_op_norms_rejects_bad_stacks():
    good = np.zeros((3, 2, 2), dtype=complex)
    for bad in (np.nan, np.inf):
        stack = good.copy()
        stack[1, 0, 1] = bad
        with pytest.raises(InvalidInputError):
            linalg.op_norms(stack)
    with pytest.raises(InvalidInputError):
        linalg.op_norms(np.eye(2))  # one matrix, not a stack
    with pytest.raises(InvalidInputError):
        linalg.op_norms(np.zeros((3, 2, 3)))


def test_expm_zero_is_exact_identity():
    npt.assert_array_equal(linalg.expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    got = linalg.expm(np.diag([1.0, -1.0]))
    npt.assert_allclose(got, np.diag([math.e, 1.0 / math.e]), rtol=1e-13)


def test_expm_nilpotent():
    # series terminates after the linear term
    got = linalg.expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    npt.assert_allclose(got, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-14)


def test_expm_overflow_guard():
    with pytest.raises(OverflowRiskError):
        linalg.expm(np.diag([2e6, 0.0]))


def test_mat_pow_cases():
    m = np.array([[0.3, 0.1], [0.0, 0.5]])
    npt.assert_array_equal(linalg.mat_pow(m, 0), np.eye(2))
    npt.assert_allclose(linalg.mat_pow(np.diag([0.5]), 3), np.diag([0.125]), rtol=1e-14)
    npt.assert_allclose(linalg.mat_pow(np.eye(4), 10**6), np.eye(4), atol=1e-14)
    with pytest.raises(InvalidInputError):
        linalg.mat_pow(m, -1)


def test_inverse_examples():
    npt.assert_allclose(linalg.inverse(np.eye(3)), np.eye(3), atol=1e-14)
    npt.assert_allclose(linalg.inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), rtol=1e-14)
    got = linalg.inverse(np.array([[1.0, 1.0], [0.0, 1.0]]))
    npt.assert_allclose(got, np.array([[1.0, -1.0], [0.0, 1.0]]), atol=1e-14)


def test_inverse_residual_contract():
    rng = np.random.default_rng(7)
    for dim in (2, 5, 9):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        res = linalg.op_norm(m @ linalg.inverse(m) - np.eye(dim))
        assert res <= 1e-10 * linalg.condition(m)


def test_inverse_singular():
    with pytest.raises(SingularityError):
        linalg.inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_submultiplicativity_sampled():
    rng = np.random.default_rng(3)
    for trial in range(1000):
        dim = int(rng.integers(2, 17))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        n = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert linalg.op_norm(m @ n) <= linalg.op_norm(m) * linalg.op_norm(n) * (1 + 1e-12)


def test_expm_semigroup_property_sampled():
    rng = np.random.default_rng(5)
    for trial in range(40):
        dim = int(rng.integers(2, 9))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m *= 5.0 * rng.uniform() / linalg.op_norm(m)
        s, t = rng.uniform(0, 2, size=2)
        whole = linalg.expm((s + t) * m)
        gap = linalg.op_norm(linalg.expm(s * m) @ linalg.expm(t * m) - whole)
        assert gap <= 1e-9 * (1 + linalg.op_norm(whole))


def test_mat_pow_additive_sampled():
    rng = np.random.default_rng(9)
    for trial in range(40):
        dim = int(rng.integers(2, 9))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m /= linalg.op_norm(m)
        a, b = int(rng.integers(0, 20)), int(rng.integers(0, 20))
        gap = np.abs(linalg.mat_pow(m, a + b) - linalg.mat_pow(m, a) @ linalg.mat_pow(m, b))
        assert np.max(gap) <= 1e-10


def test_expm_normal_matrix_oracle():
    # independent oracle: for normal M = U diag(lam) U*, e^M = U diag(e^lam) U*
    rng = np.random.default_rng(13)
    for trial in range(25):
        dim = int(rng.integers(2, 9))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(g)
        lam = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        m = (q * lam) @ q.conj().T
        oracle = (q * np.exp(lam)) @ q.conj().T
        assert linalg.op_norm(linalg.expm(m) - oracle) <= 1e-10
