"""Acceptance suite: every certified bound at its stated scale and tolerance.

The criteria draw their own matrices on their own seeds and grids, but each
power, Chernoff-pair, discrete-generator and contour-reconstruction sweep is
the per-draw sweep in ``harness`` that the ``verify`` runners call too, so the
suite checks the code that issues the verdicts.  Criteria 05-06 run
``_ritt_gap_sweep`` for both norms, and the ``ritt`` and ``norm_chernoff``
runners run it for their one norm each;
``test_ritt_gap_sweep_matches_the_runners`` pins their records to its
columns bit for bit.  Criteria 08-10 run ``_pair_sweep`` with the column
functions of the ``euler``, ``dunford_segal`` and ``trotter_product`` runners.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion; ``tests/golden/acceptance.txt`` pins the 13 PASS lines.  Scales
follow the contract: dims <= 32, n <= 4096, and each criterion finishes
desk-fast.
"""

import dataclasses
import math
import pathlib

import numpy as np
import pytest

from semiapprox import approximants, bounds, ensembles, numrange, poisson, report
from semiapprox.harness import (
    ExperimentConfig,
    _contour_sweep,
    _draws,
    _n_grid,
    _pair_sweep,
    _partner_columns,
    _power_error,
    _resolvent,
    _ritt_gap_sweep,
    _tnk_sweep,
    _unit_vectors,
    _vector_sweep,
    fit_rate,
    pow2_grid,
    run_experiment,
)
from semiapprox.tolerances import ABS_SLACK, passes

SEED = 902_114_400
# the 13 PASS lines, one per criterion; a change to any figure in them shows here
PINNED = (pathlib.Path(__file__).parent / "golden" / "acceptance.txt").read_text().splitlines()
TS, NS = (0.5, 1.0, 2.0), pow2_grid(1024)  # the grid of the Chernoff pairs of criteria 08-10


def crit(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:02d}: {detail}"
    print(line)
    assert ok, f"criterion {number}: {detail}"
    assert line == PINNED[number - 1]


# -- shared sweeps ----------------------------------------------------------


@pytest.fixture(scope="module")
def contraction_sweep():
    """200 random contractions x 20 unit vectors x n in {1,...,1024} (pow2).

    For each cell: the power-vs-exponential gap ||(C^n - e^{n(C-1)}) x||
    together with d1, d2, d3 and ||x|| = 1.
    """
    ns = pow2_grid(1024)
    cells = []  # (n, gap, d1, d2, d3)
    for i in range(200):
        dim = 2 + i % 15
        c = ensembles.random_contraction(dim, ensembles.child_seed(SEED, i))
        xs = _unit_vectors(dim, 20, ensembles.child_seed(SEED, 50_000 + i))
        for n, gaps, d1, d2, d3 in _vector_sweep(c, xs, ns):
            for j in range(20):
                cells.append((n, float(gaps[j]), float(d1[j]), float(d2[j]), float(d3[j])))
    return cells


@pytest.fixture(scope="module")
def sectorial_sweep():
    """100 certified resolvent contractions, n = 1..4096 full grid.

    Returns per-draw worst-case statistics for the Ritt product
    (n+1) ||C^n (1-C)|| and the norm gap ||C^n - e^{n(C-1)}|| n^(1/3).
    """
    alphas = (math.pi / 16, math.pi / 8, math.pi / 4)
    t_vals = (0.1, 1.0, 10.0)
    k_vals = {a: bounds.k_alpha(a).value for a in alphas}
    draws = []
    cert_failures = 0
    for i in range(100):
        alpha = alphas[i % 3]
        dim = 2 + i % 15
        t = t_vals[(i // 3) % 3]
        a = ensembles.random_m_sectorial(dim, alpha, ensembles.child_seed(SEED, 1000 + i))
        c = approximants.resolvent_family(a)(t)
        if not numrange.quasi_sectorial(c, alpha):
            cert_failures += 1
            continue
        worst_ritt = 0.0
        worst_gap = 0.0
        gap_violations_low = []  # n < 8
        gap_violations_high = []
        for ns, (ritts, gaps) in _ritt_gap_sweep(c, range(1, 4097)):
            for n, ritt, gap in zip(ns, ritts, gaps):
                worst_ritt = max(worst_ritt, (n + 1) * ritt)
                if not passes(gap, bounds.norm_chernoff_bound(n, alpha)):
                    (gap_violations_low if n < 8 else gap_violations_high).append(n)
                worst_gap = max(worst_gap, gap * n ** (1.0 / 3.0))
        draws.append(
            {
                "alpha": alpha,
                "k": k_vals[alpha],
                "worst_ritt": worst_ritt,
                "worst_gap_scaled": worst_gap,
                "flagged_low": gap_violations_low,
                "violations_high": gap_violations_high,
            }
        )
    return {"draws": draws, "k_vals": k_vals, "cert_failures": cert_failures}


@pytest.fixture(scope="module")
def m_sectorial_draws():
    """Certified sector-confined generators for the Euler / exponential-step tests."""
    alphas = (0.0, math.pi / 16, math.pi / 8, math.pi / 4)
    draws = []
    for i in range(24):
        alpha = alphas[i % 4]
        dim = 2 + i % 11
        a = ensembles.random_m_sectorial(dim, alpha, ensembles.child_seed(SEED, 7000 + i))
        # the check _draws makes for euler and dunford_segal, there on a stack of generators
        assert numrange.sectorial(a, alpha)
        draws.append((alpha, a))
    return draws


# -- criteria ---------------------------------------------------------------


def test_criterion_01_sqrt_n(contraction_sweep):
    worst = 0.0
    bad = 0
    for n, gap, d1, _, _ in contraction_sweep:
        bound = bounds.sqrt_n_bound(n, d1)
        if not passes(gap, bound):
            bad += 1
        if bound > 0:
            worst = max(worst, gap / bound)
    crit(
        1,
        bad == 0,
        f"sqrt-n vector bound on {len(contraction_sweep)} cells, "
        f"violations={bad}, max ratio={worst:.4f}",
    )


def test_criterion_02_cbrt_n(contraction_sweep):
    worst_closed = worst_two = 0.0
    bad = 0
    for n, gap, d1, _, _ in contraction_sweep:
        closed = bounds.cbrt_closed_bound(n, 1.0, d1)
        if not passes(gap, closed):
            bad += 1
        if closed > 0:
            worst_closed = max(worst_closed, gap / closed)
        if d1 > 0:
            star = bounds.epsilon_star(n, 1.0, d1)
            two = bounds.cbrt_vector_bound(n, star, 1.0, d1)
            if not passes(gap, two):
                bad += 1
            worst_two = max(worst_two, gap / two)
    # optimality of the split parameter on a sampled sub-grid
    rng = np.random.default_rng(SEED)
    opt_bad = 0
    for n, gap, d1, _, _ in contraction_sweep[:: len(contraction_sweep) // 500]:
        if d1 <= 0:
            continue
        star = bounds.epsilon_star(n, 1.0, d1)
        best = bounds.cbrt_vector_bound(n, star, 1.0, d1)
        for eps in rng.uniform(0.05, 8.0, 20) * star:
            if bounds.cbrt_vector_bound(n, float(eps), 1.0, d1) < best - 1e-12:
                opt_bad += 1
    crit(
        2,
        bad == 0 and opt_bad == 0,
        f"cbrt-n two-term+closed bounds, violations={bad}, "
        f"optimality violations={opt_bad}, max ratios closed={worst_closed:.4f} "
        f"two-term={worst_two:.4f}",
    )


def test_criterion_03_telescopic(contraction_sweep):
    worst = 0.0
    bad = 0
    for n, gap, _, d2, d3 in contraction_sweep:
        bound = bounds.telescopic_bound(n, d2, d3)
        if not passes(gap, bound):
            bad += 1
        if bound > 0:
            worst = max(worst, gap / bound)
    crit(3, bad == 0, f"telescopic bound, violations={bad}, max ratio={worst:.4f}")


def test_criterion_04_poisson_machinery():
    eps_grid = np.logspace(-1, 2, 50)
    tail_bad = sum(
        1
        for n in range(1, 101)
        for eps in eps_grid
        if poisson.poisson_tail(n, float(eps)) > bounds.tchebychev_bound(n, float(eps))
    )
    mom2_bad = sum(
        1 for n in range(1, 101)
        if abs(poisson.poisson_second_moment(n) - n) > bounds.poisson_variance_tolerance(n)
    )
    mom1_bad = sum(
        1 for n in range(1, 101)
        if poisson.poisson_first_abs_moment(n) > bounds.poisson_abs_moment_bound(n) + ABS_SLACK
    )
    crit(
        4,
        tail_bad == 0 and mom2_bad == 0 and mom1_bad == 0,
        f"poisson tails vs Tchebychev (zero slack) and moment identities, "
        f"violations tail={tail_bad} mom2={mom2_bad} mom1={mom1_bad}",
    )


def test_criterion_05_ritt(sectorial_sweep):
    k_vals = sectorial_sweep["k_vals"]
    oracle_ok = True
    for alpha, k in k_vals.items():
        grid = np.linspace(alpha, math.pi / 2, 1_000_002)[1:-1]
        vals = (2.0 / (np.cos(grid) * np.sin(grid - alpha))) * (
            1.0 / math.pi - 1.0 / (math.e * np.log(np.sin(grid)))
        )
        if abs(k - float(np.min(vals))) > 1e-6 * k:
            oracle_ok = False
    bad = [
        d for d in sectorial_sweep["draws"] if not passes(d["worst_ritt"], d["k"])
    ]
    worst = max(d["worst_ritt"] / d["k"] for d in sectorial_sweep["draws"])
    crit(
        5,
        oracle_ok and not bad and sectorial_sweep["cert_failures"] == 0,
        f"Ritt product (n+1)||C^n(1-C)|| <= K_alpha on {len(sectorial_sweep['draws'])} "
        f"certified draws x n<=4096, violations={len(bad)}, max ratio={worst:.4f}, "
        f"K oracle ok={oracle_ok}",
    )


def test_criterion_06_norm_chernoff(sectorial_sweep):
    high = [n for d in sectorial_sweep["draws"] for n in d["violations_high"]]
    flagged = [n for d in sectorial_sweep["draws"] for n in d["flagged_low"]]
    worst = max(
        d["worst_gap_scaled"] / bounds.l_alpha(d["alpha"]) for d in sectorial_sweep["draws"]
    )
    crit(
        6,
        not high and not flagged,
        f"operator-norm gap <= (2K+2)/n^(1/3) for all n, violations(n>=8)={len(high)}, "
        f"flagged(n<8)={len(flagged)}, max scaled ratio={worst:.4f}",
    )


@pytest.mark.parametrize("n_mode, count", [("all", 900), ("pow2", 27)])
def test_ritt_gap_sweep_matches_the_runners(n_mode, count):
    # the norms behind criteria 05-06 are the ones the verdicts are issued on
    config = ExperimentConfig(kind="ritt", dim=5, trials=3, nmax=300, ts=(0.5, 2.0), n_mode=n_mode)
    draws, _ = _draws(config, _resolvent, numrange.quasi_sectorial)
    columns = [{}, {}]  # (draw id, n) -> ||C^n - C^(n+1)||, ||C^n - e^{n(C-1)}||
    for i, c, t in draws:
        for ns, norms in _ritt_gap_sweep(c, _n_grid(config)):
            for column, norm in zip(columns, norms):
                column.update(((f"d{i:03d}/t{t:g}", n), value) for n, value in zip(ns, norm))
    for kind, column in zip(("ritt", "norm_chernoff"), columns):
        records = run_experiment(dataclasses.replace(config, kind=kind)).records
        assert len(records) == count, kind
        got = {(r.experiment_id.removeprefix(f"{kind}/"), r.n): r.empirical for r in records}
        assert got == column, kind


def test_criterion_07_selfadjoint_rates():
    bad = 0
    worst_ritt = worst_gap = 0.0
    for i, dim in enumerate((2, 4, 8, 16, 2, 4, 8, 16)):
        c = ensembles.self_adjoint_contraction(
            np.linspace(0.0, 1.0, dim), ensembles.child_seed(SEED, 9000 + i)
        )
        for ns, (ritts, gaps) in _ritt_gap_sweep(c, range(1, 1025)):
            for n, ritt, gap in zip(ns, ritts, gaps):
                if ritt > bounds.selfadjoint_ritt_bound(n) + 1e-12:
                    bad += 1
                if gap > bounds.selfadjoint_chernoff_bound(n) + 1e-12:
                    bad += 1
                worst_ritt = max(worst_ritt, ritt * (n + 1))
                worst_gap = max(worst_gap, gap * n * math.e)
    # brute-force scalar maximizer oracle: max_c c^n(1-c) at c = n/(n+1)
    cs = np.linspace(0.0, 1.0, 1_000_001)
    oracle_bad = 0
    for n in pow2_grid(1024):
        grid_max = float(np.max(cs**n * (1.0 - cs)))
        analytic = (n / (n + 1)) ** n / (n + 1)
        if abs(grid_max - analytic) > 1e-10 or analytic > 1.0 / (n + 1):
            oracle_bad += 1
    crit(
        7,
        bad == 0 and oracle_bad == 0,
        f"self-adjoint optimal rates (tol 1e-12), violations={bad}, "
        f"scalar-oracle violations={oracle_bad}, max (n+1)*ritt={worst_ritt:.4f}, "
        f"max e*n*gap={worst_gap:.4f}",
    )


def test_criterion_08_euler(m_sectorial_draws):
    bad = 0
    bad_selfadjoint = 0
    rates = []
    worst = 0.0
    family = approximants.resolvent_family
    for alpha, a in m_sectorial_draws:
        cells = {}
        for (_, rid, _, n), (err,) in _pair_sweep([("", a, (a,))], family, TS, NS, _power_error):
            bound = bounds.euler_bound(n, alpha)
            if not passes(err, bound):
                bad += 1
            worst = max(worst, err / bound)
            if alpha == 0.0 and err > bounds.selfadjoint_chernoff_bound(n) + ABS_SLACK:
                bad_selfadjoint += 1
            cells.setdefault(rid, []).append((n, err))
        rates += [fit_rate(group).exponent_p for group in cells.values()]
    rate_ok = all(0.9 <= p <= 1.1 for p in rates)
    crit(
        8,
        bad == 0 and bad_selfadjoint == 0 and rate_ok,
        f"resolvent-power (Euler) bound, violations={bad}, "
        f"self-adjoint extra violations={bad_selfadjoint}, fitted p in "
        f"[{min(rates):.3f}, {max(rates):.3f}], max ratio={worst:.4f}",
    )


def test_criterion_09_dunford_segal(m_sectorial_draws):
    bad = 0
    rates = []
    n_hat = 0.0
    cert_failures = 0
    family = approximants.semigroup_family
    for alpha, a in m_sectorial_draws:
        cos2 = math.cos(alpha) ** 2
        cells = {}
        sweep = _pair_sweep([("", a, (a,))], family, TS, NS, _partner_columns, alpha)
        for (_, rid, _, n), (err, _) in sweep:
            if not passes(err, bounds.norm_chernoff_bound(n, alpha)):
                bad += 1
            n_hat = max(n_hat, n * cos2 * err)
            cells.setdefault(rid, []).append((n, err))
        # the steps the sweep did not certify
        cert_failures += len(TS) * len(NS) - sum(map(len, cells.values()))
        rates += [fit_rate(group).exponent_p for group in cells.values()]
    rate_ok = all(0.9 <= p <= 1.1 for p in rates)
    crit(
        9,
        bad == 0 and rate_ok and cert_failures == 0 and math.isfinite(n_hat),
        f"exponential-step (Dunford-Segal) one-step bound, violations={bad}, "
        f"cert failures={cert_failures}, fitted p in [{min(rates):.3f}, {max(rates):.3f}], "
        f"empirical N_hat={n_hat:.4f} (reported, not asserted)",
    )


def test_criterion_10_trotter():
    # commuting pairs: the product formula is exact
    bad_commuting = 0
    family = approximants.trotter_family
    for i in range(10):
        rng = np.random.default_rng(ensembles.child_seed(SEED, 11_000 + i))
        dim = 2 + i % 7
        a = np.diag(rng.uniform(0, 2, dim)).astype(complex)
        b = np.diag(rng.uniform(0, 2, dim)).astype(complex)
        sweep = _pair_sweep([("", a + b, (a, b))], family, TS, NS, _power_error)
        bad_commuting += sum(err > 1e-10 for _, (err,) in sweep)
    # the non-commuting 2x2 pair: error -> 0 with the slope reported
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    sweep = _pair_sweep([("", a + b, (a, b))], family, (1.0,), pow2_grid(512), _power_error)
    cells = [(n, err) for (*_, n), (err,) in sweep]
    est = fit_rate(cells)
    decayed = cells[-1][1] < 1e-2 * cells[0][1]
    crit(
        10,
        bad_commuting == 0 and decayed,
        f"split-step products: commuting violations={bad_commuting}, non-commuting error "
        f"{cells[0][1]:.3e} -> {cells[-1][1]:.3e}, fitted slope={est.exponent_p:.3f} (reported)",
    )


def test_criterion_11_trotter_neveu_kato():
    slopes = []
    semi_ok = True
    for i in range(8):
        alpha = (0.0, math.pi / 16, math.pi / 8, math.pi / 4)[i % 4]
        a = ensembles.random_m_sectorial(2 + i, alpha, ensembles.child_seed(SEED, 12_000 + i))
        sweep = list(_tnk_sweep(a, 12, 1.0))
        res_cells = [(2**k, res) for k, _, res, _ in sweep]
        semi_errs = [semi for _, _, _, semi in sweep]
        slopes.append(fit_rate(res_cells).exponent_p)
        if semi_errs[-1] > 1e-2 * semi_errs[0]:
            semi_ok = False
    slope_ok = all(0.9 <= p <= 1.1 for p in slopes)
    crit(
        11,
        slope_ok and semi_ok,
        f"resolvent-vs-semigroup equivalence: resolvent-difference slopes in "
        f"[{min(slopes):.3f}, {max(slopes):.3f}], semigroup difference decays={semi_ok}",
    )


def test_criterion_12_contour_calculus():
    bad_recon = 0
    bad_winding = 0
    bad_majorant = 0
    worst_recon = 0.0
    recon_bound = bounds.contour_reconstruction_bound()
    for i in range(50):
        alpha = (math.pi / 16, math.pi / 8, math.pi / 4)[i % 3]
        dim = 2 + i % 15
        a = ensembles.random_m_sectorial(dim, alpha, ensembles.child_seed(SEED, 13_000 + i))
        c = approximants.resolvent_family(a)(1.0)
        assert numrange.quasi_sectorial(c, alpha)
        alpha_prime = 0.5 * (alpha + math.pi / 2)
        errors, majorant = _contour_sweep(c, alpha_prime, (1, 2, 4, 8, 16), alpha)
        # the winding error of the contour the sweep solved
        if majorant.winding_error > 1e-8:
            bad_winding += 1
        for _, err1, err2 in errors:
            worst_recon = max(worst_recon, err1, err2)
            bad_recon += (err1 > recon_bound) + (err2 > recon_bound)
        if not majorant.passed:
            bad_majorant += 1
    crit(
        12,
        bad_recon == 0 and bad_winding == 0 and bad_majorant == 0,
        f"contour calculus on 50 certified draws: reconstruction violations={bad_recon} "
        f"(worst {worst_recon:.2e}), winding violations={bad_winding}, "
        f"majorant violations={bad_majorant}",
    )


def test_criterion_13_reproducibility():
    ok = True
    for kind, fmt in (("norm_chernoff", "csv"), ("poisson_split", "json"), ("euler", "json")):
        cfg = ExperimentConfig(kind=kind, dim=5, trials=4, nmax=128, ts=(0.5, 2.0))
        r1, r2 = run_experiment(cfg), run_experiment(cfg)
        b1 = report.emit_report(r1.records, fmt, summary=r1.summary)
        b2 = report.emit_report(r2.records, fmt, summary=r2.summary)
        if b1 != b2:
            ok = False
    crit(13, ok, "byte-identical reports for identical configs (csv and json)")
