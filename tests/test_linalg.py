import math

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from semiapprox import approximants, ensembles, linalg
from semiapprox.errors import (
    InvalidInputError,
    OverflowRiskError,
    SingularityError,
)
from semiapprox.tolerances import MAX_EXPM_NORM


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


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
def test_op_norm_equals_numpy_two_norm_bit_for_bit(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(50):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m *= 10.0 ** rng.uniform(-3, 3)
        assert linalg.op_norm(m) == float(np.linalg.norm(m, 2))


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
    for n in (-1, 2.0, [2]):
        with pytest.raises(InvalidInputError):
            linalg.mat_pow(m, n)
    # a stack takes one nonnegative integer per member
    for ns in ([1, -1, 2], [1, 2.0, 2], [1, 2]):
        with pytest.raises(InvalidInputError):
            linalg.mat_pow(np.stack([m] * 3), ns)


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


def _kind_inputs(dim):
    """(family, n or t, M) for the matrices the kinds exponentiate at this dimension.

    n(C - 1) for the random and the resolvent contractions at n <= 4096, and
    -tA for an m-sectorial generator at t from 1e-3 to 10.
    """
    for seed in range(3):
        a = ensembles.random_m_sectorial(dim, math.pi / 8, seed)
        for c in (ensembles.random_contraction(dim, seed), approximants.resolvent_family(a)(1.0)):
            for n in [2**k for k in range(13)] + [3, 100, 1000]:
                yield "n(C-1)", n, n * (c - np.eye(dim))
        for t in np.logspace(-3, 1, 9):
            yield "-tA", t, -t * a


# worst relative 2-norm error against scipy over _kind_inputs at dims 1-32:
# 8.5e-13 for n(C - 1), reached where e^{n(C-1)} ~ 1e-248 and the condition
# number of the exponential is about ||n(C - 1)||, and 2.4e-15 for -tA
EXPM_ORACLE_TOL = {"n(C-1)": 2e-12, "-tA": 1e-14}


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16, 32])
def test_expm_matches_scipy_on_kind_inputs(dim):
    tiny = np.finfo(float).tiny
    below_normal = []
    for family, n_or_t, m in _kind_inputs(dim):
        got, oracle = linalg.expm(m), scipy.linalg.expm(m)
        err, size = np.linalg.norm(got - oracle, 2), np.linalg.norm(oracle, 2)
        if size < tiny:
            # below the normal range a relative error means nothing, so both
            # sides must merely be that small
            below_normal.append((family, n_or_t))
            assert err <= tiny, (family, n_or_t, err)
        else:
            assert err <= EXPM_ORACLE_TOL[family] * size, (family, n_or_t, err / size)
    # stated, not hidden: 6 to 14 of the 123 inputs per dim, all e^{n(C-1)} at n >= 1000
    assert 6 <= len(below_normal) <= 14
    assert all(family == "n(C-1)" and n >= 1000 for family, n in below_normal)


@pytest.mark.parametrize("lam, b", [(0.99, 0.005), (0.9, 0.1), (0.5, 0.5), (0.8 + 0.1j, 0.2)])
def test_expm_jordan_blocks_match_closed_form(lam, b):
    # e^M for M = n(J - 1), J = [[lam, b], [0, lam]], is e^{M_11} [[1, M_12], [0, 1]],
    # taken here at 50 digits from the float entries of M; the lower-triangular
    # transpose goes through the same exact diagonal and superdiagonal
    mpmath.mp.dps = 50
    jordan = np.array([[lam, b], [0.0, lam]], dtype=complex)
    underflows = []
    for n in (1, 2, 16, 100, 256, 1000, 4096):
        m = n * (jordan - np.eye(2))
        p = mpmath.exp(mpmath.mpc(m[0, 0].real, m[0, 0].imag))
        q = p * mpmath.mpc(m[0, 1].real, m[0, 1].imag)
        exact = mpmath.matrix([[p, q], [0, p]])
        size = (abs(q) + mpmath.sqrt(abs(q) ** 2 + 4 * abs(p) ** 2)) / 2
        for got in (linalg.expm(m), linalg.expm(m.T).T):
            diff = mpmath.matrix(got.tolist()) - exact
            err = np.linalg.norm(np.array(diff.tolist(), dtype=complex), 2)
            if size < mpmath.mpf(2) ** -1075:
                # below half the smallest subnormal: the float answer is 0.0
                assert not got.any()
                underflows.append(n)
            else:
                assert err <= 1e-15 * size, (n, float(err / size))
    # stated, not hidden: e^{-2048} (lam = 0.5) and |e^{-819.2 + 409.6i}| underflow
    assert underflows == ([4096, 4096] if lam in (0.5, 0.8 + 0.1j) else [])


def test_expm_diagonal_is_exact():
    rng = np.random.default_rng(21)
    for dim in (1, 2, 5, 16):
        lam = rng.standard_normal(dim) * 20 + 1j * rng.standard_normal(dim) * 5
        got = linalg.expm(np.diag(lam))
        assert got.dtype == np.complex128
        npt.assert_array_equal(got, np.diag(np.exp(lam)))


def test_expm_upper_triangular_matches_scipy():
    # distinct eigenvalues: the superdiagonal goes through the sinch divided
    # difference, near (|half-difference| < 1) and far apart alike; the worst
    # relative error read 1.3e-15
    rng = np.random.default_rng(22)
    for dim in (2, 3, 6, 12):
        for scale in (0.01, 1.0, 30.0):
            t = np.triu(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            t -= 2.0 * np.abs(np.diag(t)).max() * np.eye(dim)
            m = scale * t
            got, oracle = linalg.expm(m), scipy.linalg.expm(m)
            assert np.all(np.tril(got, -1) == 0)
            assert np.linalg.norm(got - oracle, 2) <= 1e-14 * np.linalg.norm(oracle, 2)


def test_expm_just_under_and_just_over_the_norm_cap():
    # iH has norm just under / just over MAX_EXPM_NORM; e^{iH} is unitary, with the
    # spectral oracle U diag(e^{i lam}) U*; the condition of e^{iH} is about ||H||,
    # and the error read 3.5e-10 (scipy's 1.8e-10)
    rng = np.random.default_rng(23)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lam, u = np.linalg.eigh(g + g.conj().T)
    lam *= MAX_EXPM_NORM * (1.0 - 1e-9) / np.abs(lam).max()
    h = (u * lam) @ u.conj().T
    got = linalg.expm(1j * h)
    oracle = (u * np.exp(1j * lam)) @ u.conj().T
    assert np.linalg.norm(got - oracle, 2) <= 2e-9
    with pytest.raises(OverflowRiskError):
        linalg.expm(1j * h * ((1.0 + 1e-9) / (1.0 - 1e-9)))


def _dense_at(norm, dim, rng):
    """A dense matrix of 1-norm ``norm`` with a nonzero corner pair."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m * (norm / np.abs(m).sum(axis=0).max())


# 1-norms that select each Pade degree m and, for m = 13, the scalings s = 0, 1, 3 and 7
_NORMS = {(3, 0): 0.01, (5, 0): 0.2, (7, 0): 0.9, (9, 0): 2.0, (13, 0): 5.0,
          (13, 1): 10.0, (13, 3): 40.0, (13, 7): 600.0}


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_expm_stack_equals_each_member_alone_bit_for_bit(dim):
    rng = np.random.default_rng(40 + dim)
    members = [np.zeros((dim, dim)), -0.0 * _dense_at(1.0, dim, rng)]
    for norm in _NORMS.values():
        dense = _dense_at(norm, dim, rng)
        members += [dense, np.diag(np.diag(dense)), np.triu(dense), np.tril(dense)]
    assert {linalg._degree(float(np.abs(m).sum(axis=0).max())) for m in members} >= set(_NORMS)
    order = rng.permutation(len(members))
    stack = np.array([members[j] for j in order], dtype=complex)
    got = linalg.expm(stack)
    assert got.shape == stack.shape
    for j, member in enumerate(stack):
        alone = linalg.expm(stack[j:j + 1])
        assert alone.shape == (1, dim, dim)
        assert got[j].tobytes() == alone[0].tobytes() == linalg.expm(member).tobytes()
    # zero members are the identity exactly, +0.0 imaginary parts included
    for j in np.flatnonzero(~stack.any(axis=(1, 2))):
        assert got[j].tobytes() == np.eye(dim, dtype=complex).tobytes()


def test_expm_refuses_a_stack_with_one_member_over_the_cap():
    big = np.diag([2e6, 0.0])
    with pytest.raises(OverflowRiskError) as alone:
        linalg.expm(big)
    with pytest.raises(OverflowRiskError) as stacked:
        linalg.expm(np.stack([np.eye(2), big, np.zeros((2, 2))]))
    assert str(stacked.value) == str(alone.value) == f"op_norm(M) > {MAX_EXPM_NORM:g}; refusing to exponentiate"
    # the screen d max|a_ij| passes the spectral norm on to decide
    with pytest.raises(OverflowRiskError):
        linalg.expm(1j * np.full((4, 4), 0.3e6))  # spectral norm 1.2e6 > cap
    unitary = linalg.expm(1j * np.full((4, 4), 0.2e6))  # spectral norm 0.8e6 <= cap
    assert linalg.op_norm(unitary) == pytest.approx(1.0, abs=1e-6)


def test_mat_pow_stack_equals_numpy_matrix_power_bit_for_bit():
    rng = np.random.default_rng(41)
    for dim in (1, 2, 4, 7):
        ns = rng.permutation(41).tolist()  # n = 0..40, every bit pattern below 64
        stack = rng.standard_normal((41, dim, dim)) + 1j * rng.standard_normal((41, dim, dim))
        stack /= np.linalg.norm(stack, 2, axis=(1, 2))[:, None, None]
        got = linalg.mat_pow(stack, ns)
        for member, n, power in zip(stack, ns, got):
            assert power.tobytes() == np.linalg.matrix_power(member, n).tobytes(), (dim, n)
            assert power.tobytes() == linalg.mat_pow(member, n).tobytes()
    # one matrix is a stack of one, and a stack may repeat one matrix
    c = stack[0]
    assert linalg.mat_pow(c, 5).tobytes() == linalg.mat_pow(c[None], [5])[0].tobytes()
    many = linalg.mat_pow(np.broadcast_to(c, (3, dim, dim)), [9, 2**40, 3])
    assert many[1].tobytes() == np.linalg.matrix_power(c, 2**40).tobytes()


def test_inverse_stack_equals_each_member_and_refuses_as_the_first_bad_one():
    rng = np.random.default_rng(42)
    stack = np.eye(4) + 0.3 * (rng.standard_normal((9, 4, 4)) + 1j * rng.standard_normal((9, 4, 4)))
    got = linalg.inverse(stack)
    for member, inv in zip(stack, got):
        assert inv.tobytes() == linalg.inverse(member).tobytes()
    assert linalg.inverse(stack[0]).shape == (4, 4)
    ill = np.diag([1.0, 1e-15, 1.0, 1.0]).astype(complex)  # condition 1e15
    singular = np.zeros((4, 4), dtype=complex)
    for bad in (ill, singular):
        with pytest.raises(SingularityError) as alone:
            linalg.inverse(bad)
        mixed = np.stack([stack[0], bad, stack[1], ill if bad is singular else singular])
        with pytest.raises(SingularityError) as stacked:
            linalg.inverse(mixed)
        assert str(stacked.value) == str(alone.value)
    assert str(alone.value) == f"condition number inf exceeds {1e14:g}"
