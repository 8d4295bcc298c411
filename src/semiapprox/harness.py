"""Experiment orchestration: bound sweeps, rate fits, summaries.

Every experiment kind is registered in EXPERIMENT_KINDS and driven by an
ExperimentConfig.  Runs are deterministic: all randomness derives from the
config seed through the documented splitting rule, records are emitted in
(draw, n, t) order, and identical configs reproduce identical reports
byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import approximants, bounds, contour, ensembles, linalg, numrange, poisson
from .errors import InsufficientDataError, InvalidInputError
from .tolerances import ABS_SLACK, REL_SLACK, passes


@dataclass(frozen=True)
class ErrorRecord:
    """One (n, empirical, bound) cell of an experiment."""

    experiment_id: str
    n: int
    t: float
    empirical: float
    bound: float
    ratio: float
    passed: bool


def make_record(experiment_id: str, n: int, t: float, empirical: float, bound: float) -> ErrorRecord:
    """Build a record with the package-wide pass rule and ratio convention.

    ``empirical`` and ``bound`` are converted to Python floats first, so that
    ``ratio`` and ``passed`` are a Python float and bool even for NumPy input.
    """
    empirical, bound = float(empirical), float(bound)
    if bound > 0.0:
        ratio = empirical / bound
    else:
        ratio = 0.0 if empirical == 0.0 else math.inf
    return ErrorRecord(
        experiment_id=experiment_id,
        n=int(n),
        t=float(t),
        empirical=empirical,
        bound=bound,
        ratio=ratio,
        passed=passes(empirical, bound),
    )


@dataclass(frozen=True)
class RateEstimate:
    """Power-law fit err ~ prefactor * n^(-exponent_p) on a log-log grid."""

    exponent_p: float
    prefactor: float
    r_squared: float
    n_range: tuple[float, float]
    dropped: int = 0


def fit_rate(points, fit_min_n: float = 0.0) -> RateEstimate:
    """Least-squares line on (log n, log err); zero errors are dropped.

    Exact cases (err == 0) carry no rate information, so they are removed
    and counted in ``dropped``; at least 5 positive points must remain.
    """
    kept = [(float(n), float(e)) for n, e in points if float(n) >= fit_min_n]
    positive = [(n, e) for n, e in kept if e > 0.0]
    dropped = len(kept) - len(positive)
    if len(positive) < 5:
        raise InsufficientDataError(
            f"rate fit needs >= 5 positive points, got {len(positive)}"
        )
    ln_n = np.log([n for n, _ in positive])
    ln_e = np.log([e for _, e in positive])
    slope, intercept = np.polyfit(ln_n, ln_e, 1)
    pred = slope * ln_n + intercept
    ss_res = float(np.sum((ln_e - pred) ** 2))
    ss_tot = float(np.sum((ln_e - np.mean(ln_e)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else max(0.0, 1.0 - ss_res / ss_tot)
    ns = [n for n, _ in positive]
    return RateEstimate(
        exponent_p=float(-slope),
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
        n_range=(min(ns), max(ns)),
        dropped=dropped,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Deterministic description of one experiment run."""

    kind: str
    dim: int = 8
    alpha: float = math.pi / 8
    seed: int = 123456789
    trials: int = 10
    nmax: int = 256
    ts: tuple[float, ...] = (1.0,)
    vectors: int = 8
    fit_min_n: float = 1.0
    n_mode: str = "pow2"  # "pow2" or "all"

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidInputError(f"unknown experiment kind {self.kind!r}")
        if min(self.dim, self.trials, self.nmax) < 1:
            raise InvalidInputError(
                f"dim, trials and nmax must be >= 1, got {self.dim}, {self.trials}, {self.nmax}"
            )
        if self.n_mode not in ("pow2", "all"):
            raise InvalidInputError(f"n_mode must be 'pow2' or 'all', got {self.n_mode!r}")
        if not self.ts or not all(math.isfinite(t) and t >= 0.0 for t in self.ts):
            raise InvalidInputError(f"need at least one t, each finite and >= 0, got {self.ts}")
        if not math.isfinite(self.fit_min_n):
            raise InvalidInputError(f"fit_min_n must be finite, got {self.fit_min_n}")
        numrange.check_alpha(self.alpha)
        if self.kind == "tnk_equivalence" and self.n_mode == "all":
            # this kind sweeps the step s = 2^-k, not n
            raise InvalidInputError("tnk_equivalence has no n-grid; n_mode must be 'pow2'")


@dataclass
class ExperimentResult:
    records: list[ErrorRecord]
    summary: dict


def pow2_grid(nmax: int) -> list[int]:
    grid = []
    n = 1
    while n <= nmax:
        grid.append(n)
        n *= 2
    return grid


def _n_grid(config: ExperimentConfig, cap: int | None = None) -> list[int]:
    """The n values a sweep visits: powers of two, or every n with n_mode="all"."""
    nmax = config.nmax if cap is None else min(config.nmax, cap)
    if config.n_mode == "all":
        return list(range(1, nmax + 1))
    return pow2_grid(nmax)


def _unit_vectors(dim: int, count: int, seed: int) -> np.ndarray:
    rng = ensembles._rng(seed)
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _powers(bases, ns, step: bool = False):
    """Yield (n, [B^n for B in bases], ahead) for the increasing grid ns.

    Squares while 2 cur <= n and otherwise multiplies by the base once, so a
    power-of-two grid costs one squaring per n and the full grid one product
    per n.  With ``step``, ``ahead`` is [B^(n+1) for B in bases]; it is reused
    as the next powers when the grid asks for n + 1, else ``ahead`` is None.
    """
    pw, cur, ahead = list(bases), 1, None
    for n in ns:
        if ahead is not None and n == cur + 1:
            pw, cur = ahead, n
        while cur < n:
            if 2 * cur <= n:
                pw, cur = [p @ p for p in pw], 2 * cur
            else:
                pw, cur = [p @ b for p, b in zip(pw, bases)], cur + 1
        ahead = [p @ b for p, b in zip(pw, bases)] if step else None
        yield n, pw, ahead


_NORM_CHUNK = 64  # values of n per stack: 3 MB at d = 32 with three norm columns per n


def _stacked_norms(items):
    """Yield (n, [||M_1||, ..., ||M_j||]) for the items (n, [M_1, ..., M_j]) in order.

    The matrices of _NORM_CHUNK consecutive items go through one
    ``linalg.op_norms`` call; the last chunk may be partial.
    """
    items = iter(items)
    while chunk := list(itertools.islice(items, _NORM_CHUNK)):
        norms = iter(linalg.op_norms([m for _, ms in chunk for m in ms]))
        for n, ms in chunk:
            yield n, [next(norms) for _ in ms]


def _norm_rows(*columns):
    """Zip the spectral norms of the equally long (k, d, d) stacks ``columns``, one
    ``linalg.op_norms`` call for all of them: the j-th row holds the norms of
    the j-th member of each column."""
    norms = linalg.op_norms(np.concatenate(columns))
    k = len(columns[0])
    return zip(*(norms[i * k:(i + 1) * k] for i in range(len(columns))))


def _sectorial(config: ExperimentConfig, i: int) -> np.ndarray:
    """The m-sectorial generator of draw i."""
    seed = ensembles.child_seed(config.seed, i)
    return ensembles.random_m_sectorial(config.dim, config.alpha, seed)


def _resolvent_draws(config: ExperimentConfig):
    """Resolvent contractions (i, C, t) whose numerical range certifies in D(alpha).

    All trials are checked by one stacked ``numrange.quasi_sectorial`` call.
    Returns the certified draws and the number of draws that failed.
    """
    trials = []
    for i in range(config.trials):
        t_res = config.ts[i % len(config.ts)]
        if t_res <= 0.0:
            raise InvalidInputError(f"t must be positive, got {t_res}")
        trials.append((i, approximants.resolvent_family(_sectorial(config, i))(t_res), t_res))
    certified = numrange.quasi_sectorial(np.stack([c for _, c, _ in trials]), config.alpha)
    draws = [draw for draw, ok in zip(trials, certified) if ok]
    return draws, config.trials - len(draws)


def _sector_draws(config: ExperimentConfig):
    """m-sectorial generators (id, A) whose numerical range lies in the sector |arg z| <= alpha.

    ``numrange.sectorial`` decides each draw from the two edge normals of the
    sector, and samples boundary points only when they do not certify it.
    Returns the certified draws and the number of draws that failed.
    """
    draws = []
    for i in range(config.trials):
        a = _sectorial(config, i)
        if numrange.sectorial(a, config.alpha):
            draws.append((f"{config.kind}/d{i:03d}", a))
    return draws, config.trials - len(draws)


def _cells(records: list[ErrorRecord], marker: str = "") -> dict[str, list[tuple[int, float]]]:
    """(n, empirical) cells of the records whose id contains ``marker``, by id."""
    groups: dict[str, list[tuple[int, float]]] = {}
    for r in records:
        if marker in r.experiment_id:
            groups.setdefault(r.experiment_id, []).append((r.n, r.empirical))
    return groups


def _fit_groups(groups: dict[str, list[tuple[int, float]]], fit_min_n: float) -> dict:
    fits = {}
    for rid, cells in groups.items():
        try:
            est = fit_rate(cells, fit_min_n=fit_min_n)
        except InsufficientDataError:
            continue
        fits[rid] = {**asdict(est), "n_range": list(est.n_range)}
    return fits


# ---------------------------------------------------------------------------
# per-draw sweeps: the runners and the acceptance suite share them


def _vector_sweep(c, xs, ns):
    """Yield (n, gaps, d1, d2, d3) over the increasing grid ns for the unit vectors xs (rows).

    gaps[j] is ||(C^n - e^{n(C-1)}) x_j|| and dk[j] is ||(C - 1)^k x_j||.
    """
    eye = np.eye(c.shape[0])
    e = approximants.chernoff_exp(c, 1)
    dx = [xs.T]  # columns (C - 1)^k x for k = 0..3
    for _ in range(3):
        dx.append((c - eye) @ dx[-1])
    d1, d2, d3 = (np.linalg.norm(v.T, axis=1) for v in dx[1:])
    for n, (cn, en), _ in _powers((c, e), ns):
        yield n, np.linalg.norm(((cn - en) @ xs.T).T, axis=1), d1, d2, d3


def _ritt_gap_sweep(c, ns, ritt=True, gap=True):
    """Yield (n, [||C^n - C^(n+1)||, ||C^n - e^{n(C-1)}||]) over the increasing grid ns.

    With ``ritt`` or ``gap`` off, its norm is left out of the list, and so is
    the power only it needs: the step C^(n+1), or e^{n(C-1)}.
    """
    bases = (c, approximants.chernoff_exp(c, 1)) if gap else (c,)
    return _stacked_norms(
        (n, ([pw[0] - nxt[0]] if ritt else []) + ([pw[0] - pw[1]] if gap else []))
        for n, pw, nxt in _powers(bases, ns, step=ritt)
    )


def _step_stacks(draws, ts, ns):
    """Yield (id/t, t, chunk, [Phi(t/n) for n in chunk], e^{-tA}) for the draws (id, A, Phi),
    in (draw, t, n) order.

    e^{-tA} is evaluated once per (draw, t), and the steps Phi(t/n) of
    _NORM_CHUNK consecutive n of the grid ns as one stack, by one call of the
    family; the last chunk may be partial.  The caller forms the Chernoff
    pairs of the chunk from that one stack.
    """
    for rid, a, phi in draws:
        semigroup = approximants.semigroup_family(a)
        for t in ts:
            ref = semigroup(t)
            for lo in range(0, len(ns), _NORM_CHUNK):
                chunk = ns[lo:lo + _NORM_CHUNK]
                yield f"{rid}/t{t:g}", t, chunk, phi([t / n for n in chunk]), ref


def _tnk_sweep(a, k_max, t):
    """Yield (k, s, ||(1 + X_s)^-1 - (1 + A)^-1||, ||e^{-t X_s} - e^{-tA}||) for k = 1..k_max.

    s = 2^-k, and X_s = (1 - Phi(s))/s is the discrete generator of the
    resolvent family Phi of A.  The k_max steps, their resolvents and their
    semigroups are each one stack, and both norm columns one op_norms call.
    """
    phi = approximants.resolvent_family(a)
    res_ref = phi(1.0)
    semi_ref = approximants.semigroup_family(a)(t)
    ks = range(1, k_max + 1)
    ss = [2.0 ** (-k) for k in ks]
    x_s = approximants.discrete_generator(phi, ss)
    res = approximants.resolvent_family(x_s)(1.0) - res_ref
    semi = approximants.semigroup_family(x_s)(t) - semi_ref
    for k, s, (res_norm, semi_norm) in zip(ks, ss, _norm_rows(res, semi)):
        yield k, s, res_norm, semi_norm


def _contour_sweep(c, nodes, ns, alpha):
    """Contour reconstructions of C^n(1 - C) and C^n - e^{n(C-1)}, and the resolvent majorants.

    Returns ([(n, ritt_error, gap_error) for n in ns], report): spectral norms
    against C^n (1 - C) and the Chernoff pair, and the majorant report of
    riesz_dunford_many, whose three maxima are exact resolvent norms at the
    nodes where they sit (the other nodes' norms are only bounded, and no
    maximum can sit there).
    """
    eye = np.eye(c.shape[0])
    fs = [(lambda z, n=n: z**n * (1.0 - z)) for n in ns]
    fs += [(lambda z, n=n: z**n - np.exp(n * (z - 1.0))) for n in ns]
    got, report = contour.riesz_dunford_many(fs, c, nodes, alpha)
    steps = np.broadcast_to(c, (len(ns), *c.shape))
    powers = approximants.chernoff_power(steps, ns)
    gaps = powers - approximants.chernoff_exp(steps, ns)
    rows = _norm_rows(got[: len(ns)] - powers @ (eye - c), got[len(ns):] - gaps)
    return [(n, ritt, gap) for n, (ritt, gap) in zip(ns, rows)], report


# ---------------------------------------------------------------------------
# experiment runners


def _run_vector_bounds(config: ExperimentConfig):
    """Shared sweep for the sqrt_n / cbrt_n / telescopic vector estimates."""
    records = []
    for i in range(config.trials):
        c = ensembles.random_contraction(config.dim, ensembles.child_seed(config.seed, i))
        seed = ensembles.child_seed(config.seed, 10_000 + i)
        xs = _unit_vectors(config.dim, config.vectors, seed)
        for n, gap, d1, d2, d3 in _vector_sweep(c, xs, _n_grid(config)):
            for j in range(config.vectors):
                rid = f"{config.kind}/d{i:03d}/x{j:02d}"
                emp, dj = float(gap[j]), float(d1[j])
                if config.kind == "sqrt_n":
                    records.append(make_record(rid, n, 0.0, emp, bounds.sqrt_n_bound(n, dj)))
                elif config.kind == "telescopic":
                    bound = bounds.telescopic_bound(n, float(d2[j]), float(d3[j]))
                    records.append(make_record(rid, n, 0.0, emp, bound))
                else:  # cbrt_n: the closed form at the optimal split, then the split itself
                    bound = bounds.cbrt_closed_bound(n, 1.0, dj)
                    records.append(make_record(f"{rid}/closed", n, 0.0, emp, bound))
                    if dj > 0.0:
                        eps = bounds.epsilon_star(n, 1.0, dj)
                        bound = bounds.cbrt_vector_bound(n, eps, 1.0, dj)
                        records.append(make_record(f"{rid}/two_term", n, 0.0, emp, bound))
    return records, {}


def _trotter_draws(config: ExperimentConfig):
    """Split-step draws (id, A + B, Phi, ||AB - BA||): commuting diagonal pairs for even i."""
    for i in range(config.trials):
        seed = ensembles.child_seed(config.seed, i)
        if i % 2 == 0:
            rng = ensembles._rng(seed)
            a = np.diag(rng.uniform(0.0, 2.0, config.dim)).astype(complex)
            b = np.diag(rng.uniform(0.0, 2.0, config.dim)).astype(complex)
            label = "commuting"
        else:
            a = ensembles.random_m_sectorial(config.dim, 0.0, seed)
            seed_b = ensembles.child_seed(config.seed, 10_000 + i)
            b = ensembles.random_m_sectorial(config.dim, 0.0, seed_b)
            label = "noncommuting"
        comm = linalg.op_norm(a @ b - b @ a)
        yield f"trotter_product/{label}/d{i:03d}", a + b, approximants.trotter_family(a, b), comm


def _run_chernoff_product(config: ExperimentConfig):
    records = []
    product_cells: dict[str, list[tuple[int, float]]] = {}
    eye = np.eye(config.dim)
    generators = [(i, _sectorial(config, i)) for i in range(config.trials)]
    draws = (
        (f"chernoff_product/d{i:03d}", a, approximants.resolvent_family(a)) for i, a in generators
    )
    for rid, t, ns, steps, ref in _step_stacks(draws, config.ts, _n_grid(config)):
        powers = approximants.chernoff_power(steps, ns)
        gaps = powers - approximants.chernoff_exp(steps, ns)
        for n, (emp, dist, err) in zip(ns, _norm_rows(gaps, eye - steps, powers - ref)):
            records.append(make_record(rid, n, t, emp, bounds.cbrt_norm_bound(n, dist)))
            product_cells.setdefault(rid, []).append((n, err))
    extras = {"product_error_final": {k: v[-1][1] for k, v in product_cells.items()}}
    fits = _fit_groups(product_cells, config.fit_min_n)
    if fits:
        extras["product_rate_fits"] = fits
    return records, extras


def _run_trotter_product(config: ExperimentConfig):
    records = []
    for rid, a, phi, comm in _trotter_draws(config):
        # commuting factors (comm = 0) make the product exact
        for rid_t, t, ns, steps, ref in _step_stacks([(rid, a, phi)], config.ts, _n_grid(config)):
            errors = _norm_rows(approximants.chernoff_power(steps, ns) - ref)
            for n, (emp,) in zip(ns, errors):
                records.append(make_record(rid_t, n, t, emp, bounds.trotter_bound(n, t, comm)))
    fits = _fit_groups(_cells(records, "/noncommuting/"), config.fit_min_n)
    return records, {"noncommuting_rate_fits": fits}


def _run_power_norms(config: ExperimentConfig):
    """ritt: ||C^n - C^(n+1)|| <= K/(n+1); norm_chernoff: ||C^n - e^{n(C-1)}|| <= L n^(-1/3)."""
    ritt = config.kind == "ritt"
    draws, failures = _resolvent_draws(config)
    records = []
    for i, c, t_res in draws:
        rid = f"{config.kind}/d{i:03d}/t{t_res:g}"
        bound = bounds.ritt_bound if ritt else bounds.norm_chernoff_bound
        for n, (emp,) in _ritt_gap_sweep(c, _n_grid(config), ritt=ritt, gap=not ritt):
            records.append(make_record(rid, n, t_res, emp, bound(n, config.alpha)))
    if ritt:
        k_val = bounds.k_alpha(config.alpha).value
        return records, {"k_alpha": k_val, "certification_failures": failures}
    flagged = [(r.experiment_id, r.n) for r in records if not r.passed and r.n < 8]
    return records, {
        "l_alpha": bounds.l_alpha(config.alpha),
        "certification_failures": failures,
        "flagged_below_threshold": flagged,
    }


def _run_selfadjoint(config: ExperimentConfig):
    records = []
    for i in range(config.trials):
        spectrum = np.linspace(0.0, 1.0, config.dim)
        c = ensembles.self_adjoint_contraction(spectrum, ensembles.child_seed(config.seed, i))
        rid = f"selfadjoint/d{i:03d}"
        for n, (ritt, gap) in _ritt_gap_sweep(c, _n_grid(config)):
            bound = bounds.selfadjoint_ritt_bound(n)
            records.append(make_record(f"{rid}/ritt", n, 0.0, ritt, bound))
            bound = bounds.selfadjoint_chernoff_bound(n)
            records.append(make_record(f"{rid}/chernoff", n, 0.0, gap, bound))
    return records, {}


def _run_euler(config: ExperimentConfig):
    """euler and euler_rate: the resolvent powers (1 + tA/n)^(-n) against e^{-tA}."""
    generators, failures = _sector_draws(config)
    draws = ((rid, a, approximants.resolvent_family(a)) for rid, a in generators)
    records = []
    for rid, t, ns, steps, ref in _step_stacks(draws, config.ts, _n_grid(config)):
        errors = _norm_rows(approximants.chernoff_power(steps, ns) - ref)
        for n, (emp,) in zip(ns, errors):
            records.append(make_record(rid, n, t, emp, bounds.euler_bound(n, config.alpha)))
    cells = _cells(records)
    nonmonotone = sum(
        e1 > e0 + 1e-12 for group in cells.values() for (_, e0), (_, e1) in zip(group, group[1:])
    )
    return records, {
        "euler_upper_constant": bounds.euler_upper_constant(config.alpha),
        "certification_failures": failures,
        "rate_fits": _fit_groups(cells, config.fit_min_n),
        # monotone decay in n is observed and reported, never asserted
        "monotonicity_violations": nonmonotone,
    }


def _run_dunford_segal(config: ExperimentConfig):
    """Dunford-Segal pairs, checked per (draw, t) in stacks of _NORM_CHUNK steps Phi(t/n)
    (one stack on a power-of-two grid): one quasi_sectorial call certifies the
    steps, one chernoff_exp and one chernoff_power call form the pairs of the
    certified ones, and one op_norms call takes both norms of each."""
    generators, failures = _sector_draws(config)
    draws = ((rid, a, approximants.semigroup_family(a)) for rid, a in generators)
    records = []
    two_step: dict[str, list[tuple[int, float, float]]] = {}
    for rid, t, ns, steps, ref in _step_stacks(draws, config.ts, _n_grid(config)):
        cells = two_step.setdefault(rid, [])
        certified = numrange.quasi_sectorial(steps, config.alpha)
        failures += certified.count(False)
        kept = [j for j, ok in enumerate(certified) if ok]
        if not kept:
            continue
        ns, steps = [ns[j] for j in kept], steps[kept]
        partners = approximants.chernoff_exp(steps, ns)
        powers = approximants.chernoff_power(steps, ns)
        for n, (emp, gap) in zip(ns, _norm_rows(partners - ref, powers - partners)):
            records.append(make_record(rid, n, t, emp, bounds.norm_chernoff_bound(n, config.alpha)))
            cells.append((n, gap, emp))
    cos2 = math.cos(config.alpha) ** 2
    return records, {
        "l_alpha": bounds.l_alpha(config.alpha),
        "certification_failures": failures,
        "empirical_N_hat": max([0.0] + [r.n * cos2 * r.empirical for r in records]),
        "rate_fits": _fit_groups(_cells(records), config.fit_min_n),
        "two_step_terms": two_step,
    }


def _run_tnk_equivalence(config: ExperimentConfig):
    """Resolvent and semigroup of the discrete generator at s = 2^-k, k = 1..k_max."""
    records = []
    k_max = min(12, max(5, int(math.log2(max(config.nmax, 32)))))
    t_semi = config.ts[0]
    for i in range(config.trials):
        a = _sectorial(config, i)
        norm_a = linalg.op_norm(a)
        for k, s, res, semi in _tnk_sweep(a, k_max, t_semi):
            bound = bounds.tnk_resolvent_bound(s, norm_a)
            records.append(make_record(f"tnk/d{i:03d}/resolvent", 2**k, s, res, bound))
            bound = bounds.tnk_semigroup_bound(t_semi, s, norm_a)
            records.append(make_record(f"tnk/d{i:03d}/semigroup", 2**k, s, semi, bound))
    fits = _fit_groups(_cells(records, "/resolvent"), config.fit_min_n)
    return records, {"resolvent_rate_fits": fits}


def _run_contour_reconstruction(config: ExperimentConfig):
    draws, failures = _resolvent_draws(config)
    records = []
    alpha_prime = 0.5 * (config.alpha + math.pi / 2)
    nodes = contour.build_contour(alpha_prime)
    winding = abs(contour.winding_number(nodes, 0.2 + 0.0j) - 1.0)
    majorant_worst = 0.0
    majorant_failures = 0
    ns = _n_grid(config, cap=16)
    bound = bounds.contour_reconstruction_bound()
    for i, c, t_res in draws:
        errors, report = _contour_sweep(c, nodes, ns, config.alpha)
        for n, ritt, gap in errors:
            records.append(make_record(f"contour/d{i:03d}/ritt", n, t_res, ritt, bound))
            records.append(make_record(f"contour/d{i:03d}/gap", n, t_res, gap, bound))
        majorant_worst = max(majorant_worst, report.worst_ratio_arc, report.worst_ratio_lines)
        majorant_failures += not report.passed
    return records, {
        "alpha_prime": alpha_prime,
        "certification_failures": failures,
        "max_winding_error": winding if draws else 0.0,
        "worst_majorant_ratio": majorant_worst,
        "majorant_failures": majorant_failures,
    }


def _run_poisson_split(config: ExperimentConfig):
    records = []
    ns = _n_grid(config, cap=128)
    for n in ns:
        emp = abs(poisson.poisson_second_moment(n) - n)
        bound = bounds.poisson_variance_tolerance(n)
        records.append(make_record("poisson_split/second_moment", n, 0.0, emp, bound))
        emp, bound = poisson.poisson_first_abs_moment(n), bounds.poisson_abs_moment_bound(n)
        records.append(make_record("poisson_split/first_abs_moment", n, 0.0, emp, bound))
        for eps in config.ts:
            emp, bound = poisson.poisson_tail(n, eps), bounds.tchebychev_bound(n, eps)
            records.append(make_record("poisson_split/tail", n, eps, emp, bound))
    for i in range(config.trials):
        c = ensembles.random_contraction(config.dim, ensembles.child_seed(config.seed, i))
        x = _unit_vectors(config.dim, 1, ensembles.child_seed(config.seed, 10_000 + i))[0]
        d1 = float(np.linalg.norm((np.eye(config.dim) - c) @ x))
        for n in [n for n in ns if n <= 64]:
            sums = poisson.chernoff_split_sum(c, x, n, config.ts)
            for eps, (central, tail) in zip(config.ts, sums):
                rid = f"poisson_split/split/d{i:03d}"
                bound = bounds.split_central_bound(eps, d1)
                records.append(make_record(f"{rid}/central", n, eps, central, bound))
                bound = bounds.split_tail_bound(n, eps)
                records.append(make_record(f"{rid}/tail", n, eps, tail, bound))
    return records, {}


_RUNNERS = {
    "sqrt_n": _run_vector_bounds,
    "cbrt_n": _run_vector_bounds,
    "telescopic": _run_vector_bounds,
    "chernoff_product": _run_chernoff_product,
    "trotter_product": _run_trotter_product,
    "ritt": _run_power_norms,
    "norm_chernoff": _run_power_norms,
    "selfadjoint": _run_selfadjoint,
    "euler": _run_euler,
    "euler_rate": _run_euler,
    "dunford_segal": _run_dunford_segal,
    "tnk_equivalence": _run_tnk_equivalence,
    "contour_reconstruction": _run_contour_reconstruction,
    "poisson_split": _run_poisson_split,
}

EXPERIMENT_KINDS = tuple(_RUNNERS)


def summarize(records: list[ErrorRecord], extras: dict | None = None) -> dict:
    finite = [r.ratio for r in records if math.isfinite(r.ratio)]
    summary = {
        "slack": {"relative": REL_SLACK, "absolute": ABS_SLACK},
        "count": len(records),
        "max_ratio": max(finite) if finite else 0.0,
        "all_passed": all(r.passed for r in records),
    }
    # records that pass only through the slack; the key is written only when some do
    slack_only = sum(r.passed and r.empirical > r.bound for r in records)
    if slack_only:
        summary["slack_only_passes"] = slack_only
    if extras:
        summary.update(extras)
    return summary


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one registered experiment; deterministic given the config."""
    records, extras = _RUNNERS[config.kind](config)
    summary = {"kind": config.kind, "config": asdict(config)}
    summary.update(summarize(records, extras))
    return ExperimentResult(records=records, summary=summary)
