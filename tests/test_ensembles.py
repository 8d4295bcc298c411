import math

import numpy as np
import numpy.testing as npt
import pytest

from semiapprox import approximants, ensembles, linalg, numrange
from semiapprox.errors import InvalidInputError


def test_child_seed_splitting():
    seeds = {ensembles.child_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert ensembles.child_seed(123, 7) == ensembles.child_seed(123, 7)
    assert ensembles.child_seed(123, 7) != ensembles.child_seed(124, 7)


def test_random_contraction_deterministic():
    a = ensembles.random_contraction(4, 7)
    b = ensembles.random_contraction(4, 7)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, ensembles.random_contraction(4, 8))


def test_random_contraction_scalar_case():
    c = ensembles.random_contraction(1, 3)
    assert abs(c[0, 0]) <= 1.0


def test_random_contraction_norm():
    assert linalg.op_norm(ensembles.random_contraction(8, 1)) <= 1 + 1e-12


def test_self_adjoint_contraction_examples():
    c = ensembles.self_adjoint_contraction([0.0, 1.0], 5)
    assert np.array_equal(c, c.conj().T)
    npt.assert_allclose(np.linalg.eigvalsh(c)[::-1], [1.0, 0.0], atol=1e-12)

    c = ensembles.self_adjoint_contraction([0.5], 5)
    npt.assert_allclose(c, [[0.5]], atol=1e-14)

    c = ensembles.self_adjoint_contraction([0.1, 0.9], 3)
    assert numrange.min_semi_angle(c) == pytest.approx(0.0, abs=2e-6)

    with pytest.raises(InvalidInputError):
        ensembles.self_adjoint_contraction([0.5, 1.2], 1)


def test_m_sectorial_scalar_construction():
    # dim-1 sanity: H = h, K = tan(alpha) gives arg(A) = alpha exactly
    a = ensembles.random_m_sectorial(1, math.pi / 4, 11)
    assert abs(np.angle(a[0, 0])) <= math.pi / 4 + 1e-12


def test_m_sectorial_hermitian_at_alpha_zero():
    a = ensembles.random_m_sectorial(5, 0.0, 13)
    assert linalg.op_norm(a - a.conj().T) <= 1e-12
    assert np.all(np.linalg.eigvalsh(a) >= -1e-12)


def test_m_sectorial_numerical_range_in_sector():
    for i in range(100):
        alpha = (math.pi / 4) * ((i % 4) / 3.0)
        dim = 2 + i % 7
        a = ensembles.random_m_sectorial(dim, alpha, ensembles.child_seed(99, i))
        pts = numrange.numerical_range_boundary(a, 256)
        assert np.all(numrange.in_sector(pts, alpha)), (i, alpha)


def test_all_factories_produce_contractions():
    # 1000 draws per kind across dims 2..32
    for i in range(1000):
        dim = 2 + i % 31
        seed = ensembles.child_seed(2**40 + 5, i)
        c = ensembles.random_contraction(dim, seed)
        assert linalg.op_norm(c) <= 1 + 1e-10
    for i in range(1000):
        dim = 2 + i % 31
        seed = ensembles.child_seed(2**41 + 5, i)
        rng = np.random.default_rng(seed)
        c = ensembles.self_adjoint_contraction(rng.uniform(0, 1, dim), seed)
        assert linalg.op_norm(c) <= 1 + 1e-10
    for i in range(1000):
        dim = 2 + i % 31
        seed = ensembles.child_seed(2**42 + 5, i)
        a = ensembles.random_m_sectorial(dim, math.pi / 4 * (i % 4) / 3.0, seed)
        c = approximants.resolvent_family(a)(0.5 + (i % 5))
        assert linalg.op_norm(c) <= 1 + 1e-10
    for i in range(1000):
        dim = 2 + i % 31
        seed = ensembles.child_seed(2**43 + 5, i)
        a = ensembles.random_m_sectorial(dim, math.pi / 4 * (i % 4) / 3.0, seed)
        c = approximants.semigroup_family(a)((0.5 + (i % 5)) / (1 + i % 9))
        assert linalg.op_norm(c) <= 1 + 1e-10


def test_one_minus_contraction_is_accretive():
    # numerical range of 1 - C has nonnegative real part for contractions C
    for i in range(50):
        dim = 2 + i % 7
        c = ensembles.random_contraction(dim, ensembles.child_seed(7**7, i))
        pts = numrange.numerical_range_boundary(np.eye(dim) - c, 64)
        assert np.min(pts.real) >= -1e-9
