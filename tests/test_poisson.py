import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from semiapprox import bounds, ensembles, linalg, poisson
from semiapprox.errors import DomainError, InvalidInputError
from semiapprox.harness import ExperimentConfig, run_experiment
from semiapprox.tolerances import POISSON_MASS_TOL


def _pmf(n, m):
    """P{X_n = m} as the library computes it: the value of the pmf window at m."""
    ms, pmf, _ = poisson._pmf_window(n)
    assert ms[0] <= m <= ms[-1], (n, m)
    return float(pmf[m - ms[0]])


def test_pmf_window_layout():
    for n in (1, 7, 100, 3000):
        ms, pmf, dropped = poisson._pmf_window(n)
        npt.assert_array_equal(ms, np.arange(ms[0], ms[-1] + 1))
        assert pmf.shape == ms.shape and ms[0] <= n < ms[-1]
        assert 0.0 <= dropped <= POISSON_MASS_TOL


def test_pmf_window_is_built_once_per_n():
    # the default poisson_split config asks for the windows of 8 distinct n
    poisson._pmf_window.cache_clear()
    run_experiment(ExperimentConfig("poisson_split"))
    info = poisson._pmf_window.cache_info()
    assert info.misses == 8 and info.hits > 0


def test_pmf_window_arrays_are_read_only():
    ms, pmf, _ = poisson._pmf_window(7)
    for shared in (ms, pmf):
        with pytest.raises(ValueError):
            shared[0] = 0


def test_pmf_examples():
    assert _pmf(1, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert _pmf(1, 1) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_pmf_against_scipy():
    for n in (1, 7, 100, 3000):
        ms, _, dropped = poisson._pmf_window(n)
        for m in (0, 1, n // 2, n, n + 1, n + 50, int(ms[0]), int(ms[-1])):
            oracle = float(stats.poisson.pmf(m, n))
            if ms[0] <= m <= ms[-1]:
                assert _pmf(n, m) == pytest.approx(oracle, rel=1e-12)
            else:
                # left out of the window: covered by the certified dropped mass
                assert oracle <= dropped


def test_pmf_normalization():
    for n in (1, 10, 100, 1000):
        _, pmf, _ = poisson._pmf_window(n)
        assert sum(pmf.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_tail_examples():
    assert poisson.poisson_tail(1, 1.0) == pytest.approx(1 - 2.5 / math.e, rel=1e-12)
    assert poisson.poisson_tail(5, 1e9) == 0.0
    # strict threshold: |m - 4| > 2 keeps m outside {2,...,6}
    oracle = 1.0 - float(sum(stats.poisson.pmf(m, 4) for m in range(2, 7)))
    assert poisson.poisson_tail(4, 2.0) == pytest.approx(oracle, rel=1e-10)


def test_tchebychev_dominates_exact_tail():
    # exact inequality, no slack
    eps_grid = np.logspace(-1, 2, 50)
    for n in range(1, 101):
        for eps in eps_grid:
            assert poisson.poisson_tail(n, float(eps)) <= bounds.tchebychev_bound(n, float(eps))


def test_moment_identities():
    for n in (1, 10, 100, 1024):
        assert abs(poisson.poisson_second_moment(n) - n) <= 1e-8 * n
        assert poisson.poisson_first_abs_moment(n) <= math.sqrt(n) + 1e-10


def test_chernoff_split_identity_contraction():
    [(central, tail)] = poisson.chernoff_split_sum(
        np.eye(3, dtype=complex), np.array([1, 0, 0]), 4, [2.0]
    )
    assert central == 0.0
    assert tail == 0.0


def test_chernoff_split_scalar_oracle():
    # direct scalar summation for C = [0.5], x = [1]
    c_val, n, eps = 0.5, 1, 1.0
    central_oracle = 0.0
    tail_oracle = 0.0
    for m in range(0, 200):
        term = float(stats.poisson.pmf(m, n)) * abs(c_val**n - c_val**m)
        if abs(m - n) <= eps:
            central_oracle += term
        else:
            tail_oracle += term
    [(central, tail)] = poisson.chernoff_split_sum(
        np.array([[c_val]], dtype=complex), np.array([1.0 + 0j]), n, [eps]
    )
    assert central == pytest.approx(central_oracle, rel=1e-10)
    assert tail == pytest.approx(tail_oracle, rel=1e-10)


def test_chernoff_split_zero_contraction_enumeration():
    # C = [0], n = 2: ||(C^2 - C^m)x|| = |[m=0] - 0| = 1 for m = 0, else 0
    [(central, tail)] = poisson.chernoff_split_sum(
        np.array([[0.0]], dtype=complex), np.array([1.0 + 0j]), 2, [1.0]
    )
    assert central == pytest.approx(0.0, abs=1e-15)
    assert tail == pytest.approx(float(stats.poisson.pmf(0, 2)), rel=1e-12)


def test_chernoff_split_contracts_sampled():
    for i in range(20):
        dim = 2 + i % 5
        c = ensembles.random_contraction(dim, ensembles.child_seed(314, i))
        rng = np.random.default_rng(ensembles.child_seed(315, i))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        d1 = float(np.linalg.norm((np.eye(dim) - c) @ x))
        for n in (1, 4, 16):
            eps_grid = (0.5, 2.0, 8.0)
            for eps, (central, tail) in zip(eps_grid, poisson.chernoff_split_sum(c, x, n, eps_grid)):
                slack = 1e-8 * (1 + abs(central)) + 1e-10
                assert central <= eps * d1 + slack
                assert tail <= 2.0 * n / eps**2 + slack
                gap = np.linalg.norm(
                    (linalg.mat_pow(c, n) - linalg.expm(n * (c - np.eye(dim)))) @ x
                )
                assert central + tail >= gap - 1e-10


def test_chernoff_split_matches_per_index_loop():
    # the distances come from one row-wise norm; the sums equal those of one
    # norm per window index, summed in m order, to rounding
    for i, n in enumerate((1, 7, 64, 300)):
        dim = 2 + i
        c = ensembles.random_contraction(dim, ensembles.child_seed(316, i))
        rng = np.random.default_rng(ensembles.child_seed(317, i))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        ms, pmf, _ = poisson._pmf_window(n)
        powers = [x]
        for _ in range(int(ms[-1])):
            powers.append(c @ powers[-1])
        for eps in (0.5, 2.0, 3.0 * math.sqrt(n)):
            central_ref = tail_ref = 0.0
            for m, p in zip(ms.tolist(), pmf):
                dist = float(np.linalg.norm(powers[n] - powers[m]))
                if abs(m - n) <= eps:
                    central_ref += p * dist
                else:
                    tail_ref += p * dist
            [(central, tail)] = poisson.chernoff_split_sum(c, x, n, [eps])
            assert central == pytest.approx(central_ref, rel=1e-15, abs=0.0), (n, eps)
            assert tail == pytest.approx(tail_ref, rel=1e-15, abs=0.0), (n, eps)


def test_chernoff_split_grid_equals_per_epsilon_calls():
    # one window and one power sequence serve the whole grid; each part is
    # still summed in m order, so the sums equal single-epsilon calls exactly
    eps_grid = (0.25, 1.0, 1.5, 3.0, 7.5, 40.0, 1e9)
    for i, n in enumerate((1, 3, 16, 64, 200)):
        dim = 1 + i
        c = ensembles.random_contraction(dim, ensembles.child_seed(318, i))
        rng = np.random.default_rng(ensembles.child_seed(319, i))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        per_eps = [poisson.chernoff_split_sum(c, x, n, [eps])[0] for eps in eps_grid]
        assert poisson.chernoff_split_sum(c, x, n, eps_grid) == per_eps, n
    assert poisson.chernoff_split_sum(np.eye(1, dtype=complex), np.ones(1), 4, []) == []


def test_chernoff_split_grid_of_n_equals_per_n_calls():
    # one power pass up to the widest window (n = 64: m <= 265) serves every
    # n; row m of the pass does not depend on how far it goes, so each n gets
    # the sums it gets alone, bit for bit
    eps_grid = (1.5, 3.0, 40.0)
    ns = list(range(1, 65))
    for i in range(3):
        dim = 2 + 3 * i
        c = ensembles.random_contraction(dim, ensembles.child_seed(320, i))
        rng = np.random.default_rng(ensembles.child_seed(321, i))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        per_n = [poisson.chernoff_split_sum(c, x, n, eps_grid) for n in ns]
        assert poisson.chernoff_split_sum(c, x, ns, eps_grid) == per_n
        assert poisson.chernoff_split_sum(c, x, ns[::-1], eps_grid) == per_n[::-1]
    assert poisson.chernoff_split_sum(c, x, [], eps_grid) == []
    with pytest.raises(DomainError):
        poisson.chernoff_split_sum(c, x, [1, 0], eps_grid)


def test_chernoff_split_input_validation():
    with pytest.raises(InvalidInputError):
        poisson.chernoff_split_sum(np.diag([2.0]).astype(complex), np.array([1.0 + 0j]), 1, [1.0])
    with pytest.raises(InvalidInputError):
        poisson.chernoff_split_sum(np.eye(2, dtype=complex), np.array([1.0, 1.0]), 1, [1.0])
    with pytest.raises(DomainError):
        poisson.chernoff_split_sum(np.eye(2, dtype=complex), np.array([1.0, 0.0]), 1, [1.0, 0.0])
    with pytest.raises(DomainError):
        poisson.poisson_tail(0, 1.0)
    with pytest.raises(DomainError):
        poisson.poisson_tail(3, 0.0)
