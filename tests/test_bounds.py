import functools
import json
import math
import pathlib

import numpy as np
import pytest
import scipy.linalg

from semiapprox import bounds, poisson
from semiapprox.errors import DegenerateInputError, DomainError
from semiapprox.harness import EXPERIMENT_KINDS, ExperimentConfig, run_experiment

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_sqrt_n_bound():
    assert bounds.sqrt_n_bound(4, 0.5) == pytest.approx(1.0)
    assert bounds.sqrt_n_bound(17, 0.0) == 0.0
    assert bounds.sqrt_n_bound(1, 2.0) == pytest.approx(2.0)


def test_poisson_abs_moment_identity():
    # sum_m pmf(n, m) |m - n|^2 = n, the identity behind the sqrt(n) bound
    assert abs(poisson.poisson_second_moment(1) - 1.0) <= 1e-8
    assert abs(poisson.poisson_second_moment(10) - 10.0) <= 1e-7
    assert abs(poisson.poisson_second_moment(100) - 100.0) <= 1e-6


def test_epsilon_star():
    assert bounds.epsilon_star(2, 1.0, 1.0) == pytest.approx(2.0)
    assert bounds.epsilon_star(1, 1.0, 4.0) == pytest.approx(1.0)
    assert bounds.epsilon_star(1, 1.0, 2.0) == pytest.approx(2 ** (1 / 3))
    with pytest.raises(DegenerateInputError):
        bounds.epsilon_star(3, 1.0, 0.0)


def test_cbrt_vector_bound():
    # at the optimal split the two-term value collapses to the closed form
    eps = bounds.epsilon_star(1, 1.0, 2.0)
    assert bounds.cbrt_vector_bound(1, eps, 1.0, 2.0) == pytest.approx(
        3.7797631496846193, rel=1e-12
    )
    assert bounds.cbrt_vector_bound(5, 1.0, 0.0, 0.0) == 0.0
    assert bounds.cbrt_vector_bound(4, 2.0, 1.0, 1.0) == pytest.approx(4.0)
    for eps in (1e-160, 1e-170):
        with pytest.raises(DomainError):
            bounds.cbrt_vector_bound(4, eps, 1.0, 1.0)


def test_cbrt_norm_bound():
    assert bounds.cbrt_norm_bound(1, 2.0) == pytest.approx(3.7797631496846193, rel=1e-12)
    assert bounds.cbrt_norm_bound(12, 0.0) == 0.0
    assert bounds.cbrt_norm_bound(8, 1.0) == pytest.approx(4.762203155904598, rel=1e-12)


def test_telescopic_bound():
    assert bounds.telescopic_bound(9, 0.0, 0.0) == 0.0
    assert bounds.telescopic_bound(2, 1.0, 0.0) == pytest.approx(1.0)
    assert bounds.telescopic_bound(1, 1.0, 1.0) == pytest.approx(1.7315093498217748, rel=1e-12)


def test_ritt_constant():
    assert bounds.ritt_constant(0.0, math.pi / 4) == pytest.approx(5.519142308119506, rel=1e-12)
    # agrees with the display-precision value 5.5193 used in hand checks
    assert bounds.ritt_constant(0.0, math.pi / 4) == pytest.approx(5.5193, abs=2e-4)
    # poles at both ends of the alpha' interval
    assert bounds.ritt_constant(0.0, math.pi / 2 - 1e-9) > 1e6
    assert bounds.ritt_constant(0.3, 0.3 + 1e-9) > 1e6
    with pytest.raises(DomainError):
        bounds.ritt_constant(0.5, 0.4)
    with pytest.raises(DomainError):
        bounds.ritt_constant(0.1, math.pi / 2)


def brute_force_k_alpha(alpha: float, points: int = 1_000_000) -> float:
    grid = np.linspace(alpha, math.pi / 2, points + 2)[1:-1]
    vals = (2.0 / (np.cos(grid) * np.sin(grid - alpha))) * (
        1.0 / math.pi - 1.0 / (math.e * np.log(np.sin(grid)))
    )
    return float(np.min(vals))


@pytest.mark.parametrize("alpha", [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8])
def test_k_alpha_matches_brute_force(alpha):
    got = bounds.k_alpha(alpha)
    oracle = brute_force_k_alpha(alpha)
    assert got.value == pytest.approx(oracle, rel=1e-6)
    assert alpha < got.alpha_prime < math.pi / 2
    # the reported minimizer is no worse than either neighbor on the grid
    assert got.value <= bounds.ritt_constant(alpha, got.alpha_prime - 1e-6) + 1e-12
    assert got.value <= bounds.ritt_constant(alpha, got.alpha_prime + 1e-6) + 1e-12


def test_l_alpha_and_norm_chernoff():
    for alpha in (0.0, math.pi / 8):
        k = bounds.k_alpha(alpha).value
        assert bounds.l_alpha(alpha) == pytest.approx(2 * k + 2, rel=1e-12)
        assert bounds.l_alpha(alpha) > 2.0
        l = bounds.l_alpha(alpha)
        assert bounds.norm_chernoff_bound(1, alpha) == pytest.approx(l)
        assert bounds.norm_chernoff_bound(8, alpha) == pytest.approx(l / 2)
        assert bounds.norm_chernoff_bound(1000, alpha) == pytest.approx(l / 10)


@pytest.mark.parametrize("alpha", [0.0, math.pi / 8, math.pi / 4, 1.3])
def test_norm_chernoff_is_the_delta_sixth_split(alpha):
    # the split 2/n^(2 delta) + 2 K_alpha/n^(1/2 - delta) at delta = 1/6
    k = bounds.k_alpha(alpha).value
    for n in (1, 8, 64, 512, 4096):
        assert bounds.norm_chernoff_bound(n, alpha) == pytest.approx(
            (2 + 2 * k) / n ** (1 / 3), rel=1e-12
        )


def test_selfadjoint_bounds():
    assert bounds.selfadjoint_ritt_bound(1) == pytest.approx(0.5)
    assert bounds.selfadjoint_chernoff_bound(1) == pytest.approx(math.exp(-1.0))
    assert bounds.selfadjoint_ritt_bound(9) == pytest.approx(0.1)
    assert bounds.selfadjoint_chernoff_bound(9) == pytest.approx(0.04087549346349359, rel=1e-12)


def test_selfadjoint_scalar_tightness_oracle():
    # 1-d brute force: max over c in [0,1] of c^n (1-c) = (n/(n+1))^n / (n+1)
    cs = np.linspace(0.0, 1.0, 1_000_001)
    for n in (1, 2, 8, 64, 1024):
        grid_max = float(np.max(cs**n * (1 - cs)))
        analytic = (n / (n + 1)) ** n / (n + 1)
        assert abs(grid_max - analytic) <= 1e-10
        assert analytic <= bounds.selfadjoint_ritt_bound(n)


def test_euler_bound():
    assert bounds.euler_bound(1, 0.0) == pytest.approx(3.1547005383792515, rel=1e-12)
    assert bounds.euler_bound(1, math.pi / 3) == pytest.approx(8.0, rel=1e-12)
    # self-adjoint consistency: the optimal e^{-1}/n lies below the generic bound
    for n in (1, 10, 100):
        assert bounds.selfadjoint_chernoff_bound(n) <= bounds.euler_bound(n, 0.0)


def test_trotter_bound():
    assert bounds.trotter_bound(4, 2.0, 3.0) == 1.5
    assert bounds.trotter_bound(1, 0.5, 1.0) == 0.125
    assert bounds.trotter_bound(7, 10.0, 0.0) == 0.0  # commuting factors: exact
    assert bounds.trotter_bound(3, 0.0, 2.0) == 0.0
    # two projections: A = diag(1, 0) and B onto (1, 1)/sqrt(2),
    # whose commutator [[0, 1/2], [-1/2, 0]] has norm 1/2
    a = np.diag([1.0, 0.0])
    b = np.full((2, 2), 0.5)
    assert np.linalg.norm(a @ b - b @ a, 2) == pytest.approx(0.5, rel=1e-15)
    for t in (0.5, 2.0):
        ref = scipy.linalg.expm(-t * (a + b))
        for n in (1, 4, 64):
            step = scipy.linalg.expm(-t / n * a) @ scipy.linalg.expm(-t / n * b)
            err = np.linalg.norm(np.linalg.matrix_power(step, n) - ref, 2)
            assert err <= bounds.trotter_bound(n, t, 0.5)
    for args in ((0, 1.0, 1.0), (2, -1.0, 1.0), (2, 1.0, -0.5)):
        with pytest.raises(DomainError):
            bounds.trotter_bound(*args)


def test_tnk_bounds():
    assert bounds.tnk_resolvent_bound(0.25, 2.0) == 1.0
    assert bounds.tnk_resolvent_bound(0.5, 0.0) == 0.0
    assert bounds.tnk_semigroup_bound(3.0, 0.25, 2.0) == 3.0
    assert bounds.tnk_semigroup_bound(0.0, 0.5, 4.0) == 0.0
    # scalar A = a > 0: X_s = a / (1 + s a), and both errors meet their bounds
    for a in (0.5, 2.0, 10.0):
        for s in (0.5, 2.0**-4, 2.0**-10):
            x_s = a / (1.0 + s * a)
            assert abs(1 / (1 + x_s) - 1 / (1 + a)) <= bounds.tnk_resolvent_bound(s, a)
            err = abs(math.exp(-1.5 * x_s) - math.exp(-1.5 * a))
            assert err <= bounds.tnk_semigroup_bound(1.5, s, a)
    with pytest.raises(DomainError):
        bounds.tnk_resolvent_bound(-0.5, 1.0)
    with pytest.raises(DomainError):
        bounds.tnk_semigroup_bound(-1.0, 0.5, 1.0)


def test_contour_reconstruction_bound():
    assert bounds.contour_reconstruction_bound() == 1e-7


def test_tchebychev_bound_values():
    assert bounds.tchebychev_bound(1, 1.0) == pytest.approx(1.0)
    assert bounds.tchebychev_bound(4, 2.0) == pytest.approx(1.0)
    for n in (1, 9, 64):
        assert bounds.tchebychev_bound(n, math.sqrt(n)) == pytest.approx(1.0)
    # above eps**2's underflow the bound is the plain quotient; at 1e-160
    # it is infinite and at 1e-170 a division by zero, and both are refused;
    # so is 1e200, whose square overflows, while 1e150's is still the quotient
    assert bounds.tchebychev_bound(4, 1e-150) == 4 / 1e-150**2
    assert bounds.tchebychev_bound(4, 1e150) == 4 / 1e150**2
    for n, eps in ((0, 1.0), (1.5, 1.0), (4, 0.0), (4, -1.0), (4, 1e-160), (4, 1e-170), (4, 1e200)):
        with pytest.raises(DomainError):
            bounds.tchebychev_bound(n, eps)


def test_poisson_split_bounds():
    assert bounds.poisson_variance_tolerance(1) == 1e-8
    assert bounds.poisson_variance_tolerance(100) == pytest.approx(1e-6, rel=1e-15)
    assert bounds.poisson_abs_moment_bound(16) == 4.0
    assert bounds.poisson_abs_moment_bound(2) == math.sqrt(2.0)
    assert bounds.split_central_bound(3.0, 0.5) == 1.5
    assert bounds.split_central_bound(2.0, 0.0) == 0.0
    assert bounds.split_tail_bound(8, 2.0) == 4.0
    for n, eps in ((1, 0.5), (16, 3.0), (64, 1.5)):
        assert bounds.split_tail_bound(n, eps) == 2.0 * bounds.tchebychev_bound(n, eps)
        # E|X_n - n| <= sqrt(n), and the computed moment agrees
        assert poisson.poisson_first_abs_moment(n) <= bounds.poisson_abs_moment_bound(n)
    for call in (
        lambda: bounds.poisson_variance_tolerance(0),
        lambda: bounds.poisson_abs_moment_bound(0),
        lambda: bounds.split_central_bound(-1.0, 1.0),
        lambda: bounds.split_tail_bound(4, 0.0),
        lambda: bounds.split_tail_bound(4, 1e-160),
        lambda: bounds.split_tail_bound(4, 1e-170),
    ):
        with pytest.raises(DomainError):
            call()


def test_epsilon_star_optimality_sampled():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 2000))
        nx = float(rng.uniform(0.1, 4.0))
        d1 = float(rng.uniform(1e-3, 2.0 * nx))
        star = bounds.epsilon_star(n, nx, d1)
        best = bounds.cbrt_vector_bound(n, star, nx, d1)
        closed = 1.5 * n ** (1 / 3) * (4 * nx) ** (1 / 3) * d1 ** (2 / 3)
        assert best == pytest.approx(closed, rel=1e-10)
        for eps in rng.uniform(0.05, 10.0, 100) * star:
            assert bounds.cbrt_vector_bound(n, float(eps), nx, d1) >= best - 1e-12


def test_bounds_monotone_in_distance_arguments():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 500))
        d = float(rng.uniform(0.0, 2.0))
        step = float(rng.uniform(0.01, 1.0))
        assert bounds.sqrt_n_bound(n, d + step) >= bounds.sqrt_n_bound(n, d)
        assert bounds.telescopic_bound(n, d + step, d) >= bounds.telescopic_bound(n, d, d)
        assert bounds.telescopic_bound(n, d, d + step) >= bounds.telescopic_bound(n, d, d)
        assert bounds.cbrt_norm_bound(n, d + step) >= bounds.cbrt_norm_bound(n, d)
        eps = float(rng.uniform(0.1, 5.0))
        assert bounds.cbrt_vector_bound(n, eps, d + step, d) >= bounds.cbrt_vector_bound(n, eps, d, d)


def test_closed_forms_match_their_definitions():
    for n in (1, 7, 64, 4096):
        for d1 in (1e-3, 0.4, 2.0):
            eps = bounds.epsilon_star(n, 1.0, d1)
            split = bounds.cbrt_vector_bound(n, eps, 1.0, d1)
            assert bounds.cbrt_closed_bound(n, 1.0, d1) == pytest.approx(split, rel=1e-12)
        for alpha in (0.0, math.pi / 8, 1.2):
            k = bounds.k_alpha(alpha).value
            assert bounds.ritt_bound(n, alpha) == k / (n + 1)
    with pytest.raises(DomainError):
        bounds.cbrt_closed_bound(4, 1.0, -0.1)
    with pytest.raises(DomainError):
        bounds.ritt_bound(0, 0.3)


def test_bounds_nonnegative_and_finite():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 1000))
        vals = [
            bounds.sqrt_n_bound(n, rng.uniform(0, 2)),
            bounds.cbrt_norm_bound(n, rng.uniform(0, 2)),
            bounds.telescopic_bound(n, rng.uniform(0, 2), rng.uniform(0, 2)),
            bounds.selfadjoint_ritt_bound(n),
            bounds.selfadjoint_chernoff_bound(n),
            bounds.euler_bound(n, rng.uniform(0, math.pi / 2 - 0.01)),
        ]
        assert all(v >= 0 and math.isfinite(v) for v in vals)


def _golden_config(kind):
    """The config of the golden report of ``kind``, read from its summary."""
    config = json.loads((GOLDEN / f"{kind}.json").read_text())["summary"]["config"]
    return ExperimentConfig(**{**config, "ts": tuple(config["ts"])})


def test_every_record_bound_comes_from_bounds(monkeypatch):
    # bounds.py is the one home of every record bound: each public function
    # there passes its result through a recorder, and every record's bound
    # must be, bit for bit, a float some bounds call returned in that run
    returned = set()

    def recorder(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            value = fn(*args, **kwargs)
            if isinstance(value, float):
                returned.add(float(value).hex())
            return value

        return wrapped

    for name, obj in list(vars(bounds).items()):
        public = callable(obj) and not name.startswith("_") and not isinstance(obj, type)
        if public and obj.__module__ == bounds.__name__:
            monkeypatch.setattr(bounds, name, recorder(obj))
    for kind in EXPERIMENT_KINDS:
        returned.clear()
        records = run_experiment(_golden_config(kind)).records
        stray = sorted({r.experiment_id for r in records if r.bound.hex() not in returned})
        assert records and not stray, f"{kind}: bounds not from bounds.py in {stray}"
