import math

import numpy as np
import numpy.testing as npt
import pytest

from semiapprox import approximants, bounds, ensembles, linalg
from semiapprox.errors import DomainError
from semiapprox.harness import fit_rate


def sectorial(dim, alpha, seed):
    return ensembles.random_m_sectorial(dim, alpha, seed)


def euler(a, t, n):
    """(1 + (t/n) A)^{-n}: the power of the resolvent family."""
    return approximants.chernoff_power(approximants.resolvent_family(a)(t / n), n)


def dunford_segal(a, t, n):
    """exp(-n (1 - e^{-tA/n})): the exponential partner of the semigroup family."""
    return approximants.chernoff_exp(approximants.semigroup_family(a)(t / n), n)


def trotter(a, b, t, n):
    """(e^{-tA/n} e^{-tB/n})^n: the power of the split-step family."""
    return approximants.chernoff_power(approximants.trotter_family(a, b)(t / n), n)


def test_semigroup_family_is_expm():
    semigroup = approximants.semigroup_family
    npt.assert_allclose(semigroup(np.diag([3.0]))(0.0), np.eye(1))
    npt.assert_allclose(semigroup(np.diag([1.0]))(1.0), np.diag([math.exp(-1.0)]), rtol=1e-13)
    a = sectorial(4, math.pi / 8, 97)
    for t in (0.0, 0.3, 2.0):
        assert np.array_equal(semigroup(a)(t), linalg.expm(-t * a))


def test_resolvent_family_examples():
    resolvent = approximants.resolvent_family
    npt.assert_allclose(resolvent(np.zeros((3, 3)))(2.0), np.eye(3), atol=1e-14)
    npt.assert_allclose(resolvent(np.diag([1.0]))(1.0), np.diag([0.5]), rtol=1e-14)
    a = sectorial(4, math.pi / 8, 99)
    for t in (0.3, 1.0, 2.0):
        assert np.array_equal(resolvent(a)(t), linalg.inverse(np.eye(4) + t * a))


def test_euler_scalar_values():
    a = np.diag([1.0])
    npt.assert_allclose(euler(a, 0.0, 3), np.eye(1))
    npt.assert_allclose(euler(np.zeros((2, 2)), 1.5, 4), np.eye(2), atol=1e-14)
    one = euler(a, 1.0, 1)
    npt.assert_allclose(one, np.diag([0.5]), rtol=1e-14)
    err = abs(one[0, 0].real - math.exp(-1.0))
    assert err == pytest.approx(0.13212055882855767, rel=1e-12)
    assert err <= bounds.selfadjoint_chernoff_bound(1)

    ten = euler(a, 1.0, 10)
    npt.assert_allclose(ten, np.diag([(1 / 1.1) ** 10]), rtol=1e-13)
    err = abs(ten[0, 0].real - math.exp(-1.0))
    assert err == pytest.approx(0.01766384825808931, rel=1e-10)
    assert err <= bounds.selfadjoint_chernoff_bound(10)


def test_dunford_segal_scalar_values():
    a = np.diag([1.0])
    npt.assert_allclose(dunford_segal(np.zeros((2, 2)), 1.0, 3), np.eye(2), atol=1e-14)
    one = dunford_segal(a, 1.0, 1)
    npt.assert_allclose(one, np.diag([0.5314636053866156]), rtol=1e-12)
    assert abs(one[0, 0].real - math.exp(-1.0)) == pytest.approx(0.1635841642151733, rel=1e-10)


def test_dunford_segal_scalar_rate_bounded():
    # n * error stays bounded along the sweep (first-order accuracy)
    a = np.diag([1.0])
    ref = approximants.semigroup_family(a)(1.0)
    products = []
    for k in range(11):
        n = 2**k
        err = linalg.op_norm(dunford_segal(a, 1.0, n) - ref)
        products.append(n * err)
    assert max(products) <= 0.5
    est = fit_rate([(2**k, products[k] / 2**k) for k in range(11)])
    assert 0.9 <= est.exponent_p <= 1.1


def test_chernoff_pair_of_zero_generator():
    # Phi(s) = 1 for A = 0 in every family, so both members of the pair are 1
    zero = np.zeros((3, 3))
    for phi in (
        approximants.semigroup_family(zero),
        approximants.resolvent_family(zero),
        approximants.trotter_family(zero, zero),
    ):
        step = phi(2.0 / 5)
        npt.assert_allclose(approximants.chernoff_power(step, 5), np.eye(3), atol=1e-14)
        npt.assert_allclose(approximants.chernoff_exp(step, 5), np.eye(3), atol=1e-14)


def test_semigroup_family_examples():
    phi = approximants.semigroup_family(np.zeros((2, 2)))
    npt.assert_allclose(phi(1.0), np.eye(2), atol=1e-14)
    phi = approximants.semigroup_family(np.diag([1.0]))
    npt.assert_allclose(phi(2.0 / 2), np.diag([math.exp(-1.0)]), rtol=1e-13)


def test_semigroup_family_product_property():
    a = sectorial(5, math.pi / 8, 17)
    phi = approximants.semigroup_family(a)
    for t, n in ((1.0, 4), (2.0, 7)):
        whole = linalg.expm(-t * a)
        assert linalg.op_norm(linalg.mat_pow(phi(t / n), n) - whole) <= 1e-9


def test_chernoff_power_of_semigroup_family_is_exact():
    a = sectorial(4, math.pi / 8, 101)
    phi = approximants.semigroup_family(a)
    for t in (0.5, 2.0):
        ref = approximants.semigroup_family(a)(t)
        for n in (1, 3, 16):
            got = approximants.chernoff_power(phi(t / n), n)
            assert linalg.op_norm(got - ref) <= 1e-11


def test_chernoff_power_of_resolvent_family_is_euler():
    a = sectorial(5, math.pi / 8, 103)
    phi = approximants.resolvent_family(a)
    for t, n in ((1.0, 1), (2.0, 8), (0.5, 32)):
        got = approximants.chernoff_power(phi(t / n), n)
        expected = linalg.mat_pow(np.linalg.inv(np.eye(5) + (t / n) * a), n)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_families_are_contractions_with_unit_start():
    a = sectorial(4, math.pi / 4, 107)
    b = sectorial(4, 0.0, 109)
    for phi in (
        approximants.semigroup_family(a),
        approximants.resolvent_family(a),
        approximants.trotter_family(a, b),
    ):
        npt.assert_allclose(phi(0.0), np.eye(4), atol=1e-12)
        for s in (1e-3, 0.1, 1.0, 7.0):
            assert linalg.op_norm(phi(s)) <= 1 + 1e-10


def test_chernoff_exp_is_contraction():
    a = sectorial(4, math.pi / 8, 113)
    phi = approximants.resolvent_family(a)
    for n in (1, 4, 64):
        assert linalg.op_norm(approximants.chernoff_exp(phi(1.0 / n), n)) <= 1 + 1e-10


def test_discrete_generator_semigroup_taylor_remainder():
    a = sectorial(4, math.pi / 8, 127)
    phi = approximants.semigroup_family(a)
    norm_a = linalg.op_norm(a)
    for s, n in ((1.0, 1), (1.0, 8), (0.25, 64)):
        h = s / n
        gen = approximants.discrete_generator(phi, h)
        assert linalg.op_norm(gen - a) <= norm_a**2 * h * math.exp(h * norm_a) / 2 + 1e-12


def test_discrete_generator_resolvent_identity():
    # (1 - (1+hA)^{-1})/h == A (1+hA)^{-1}
    a = sectorial(5, math.pi / 4, 131)
    phi = approximants.resolvent_family(a)
    for s, n in ((0.5, 1), (2.0, 4)):
        h = s / n
        got = approximants.discrete_generator(phi, h)
        expected = a @ linalg.inverse(np.eye(5) + h * a)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_discrete_generator_of_zero_generator_is_zero():
    phi = approximants.semigroup_family(np.zeros((3, 3)))
    npt.assert_allclose(approximants.discrete_generator(phi, 0.25), np.zeros((3, 3)), atol=1e-14)
    with pytest.raises(DomainError):
        approximants.discrete_generator(phi, 0.0)


def test_chernoff_pair_domain():
    phi = approximants.semigroup_family(np.diag([1.0]))
    with pytest.raises(DomainError):
        phi(-0.5)
    for pair_member in (approximants.chernoff_power, approximants.chernoff_exp):
        for n in (0, 1.5):
            with pytest.raises(DomainError):
                pair_member(phi(0.5), n)


def test_trotter_commuting_is_exact():
    a = np.diag([1.0, 0.3]).astype(complex)
    b = np.diag([0.2, 2.0]).astype(complex)
    for t in (0.5, 1.0, 3.0):
        ref = approximants.semigroup_family(a + b)(t)
        for n in (1, 2, 64):
            assert linalg.op_norm(trotter(a, b, t, n) - ref) <= 1e-10


def test_trotter_n1_definition():
    a = sectorial(3, 0.0, 137)
    b = sectorial(3, 0.0, 139)
    got = trotter(a, b, 1.7, 1)
    expected = linalg.expm(-1.7 * a) @ linalg.expm(-1.7 * b)
    assert np.max(np.abs(got - expected)) <= 1e-13


def test_trotter_noncommuting_first_order_rate():
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    ref = approximants.semigroup_family(a + b)(1.0)
    points = []
    for k in range(10):
        n = 2**k
        points.append((n, linalg.op_norm(trotter(a, b, 1.0, n) - ref)))
    est = fit_rate(points)
    assert 0.9 <= est.exponent_p <= 1.1
    assert points[-1][1] < points[0][1] / 100
