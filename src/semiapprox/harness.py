"""Experiment orchestration: bound sweeps, rate fits, summaries.

Every experiment kind is registered in EXPERIMENT_KINDS and driven by an
ExperimentConfig.  Runs are deterministic: all randomness derives from the
config seed through the documented splitting rule, records are emitted in
(draw, n, t) order, and identical configs reproduce identical reports
byte for byte.  Every runner takes its draws from ``_draws``, and every check
of a draw or a step is one stacked ``numrange`` call in ``_certified``; the
summary counts its failures as ``certification_failures``.  The Chernoff pair
kinds and acceptance criteria 08-10 step through a whole run in ``_pair_sweep``,
in chunks of ``_NORM_CHUNK`` steps across (draw, t) edges, one call per kernel
per chunk.  One power pass, ``_gap_stacks``, forms C^n - C^(n+1) and
C^n - e^{n(C-1)} in chunks of ``_NORM_CHUNK`` values of n.  The power kinds
(ritt, norm_chernoff, selfadjoint) and acceptance criteria 05-07 take its
norms from ``_ritt_gap_sweep`` and make each chunk's records at once with
``make_records``; the vector kinds and criteria 01-03 apply its gap column to
their vectors in ``_vector_sweep``.  ``linalg`` gives a stacked member the
bits it gets alone, so no record depends on how the run is cut.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import approximants, bounds, contour, ensembles, linalg, numrange, poisson
from .errors import InsufficientDataError, InvalidInputError
from .tolerances import ABS_SLACK, REL_SLACK, passes


@dataclass(frozen=True, slots=True)
class ErrorRecord:
    """One (n, empirical, bound) cell of an experiment."""

    experiment_id: str
    n: int
    t: float
    empirical: float
    bound: float
    ratio: float
    passed: bool


def _ratio(empirical: float, bound: float) -> float:
    """The ratio convention: empirical / bound for a bound > 0, else 0.0 for a zero empirical
    and inf otherwise (a NaN bound counts as no bound)."""
    if bound > 0.0:
        return empirical / bound
    return 0.0 if empirical == 0.0 else math.inf


def make_record(experiment_id: str, n: int, t: float, empirical: float, bound: float) -> ErrorRecord:
    """Build a record with the package-wide pass rule and ratio convention.

    ``empirical`` and ``bound`` are converted to Python floats first, so that
    ``ratio`` and ``passed`` are a Python float and bool even for NumPy input.
    """
    empirical, bound = float(empirical), float(bound)
    ratio, passed = _ratio(empirical, bound), passes(empirical, bound)
    return ErrorRecord(experiment_id, int(n), float(t), empirical, bound, ratio, passed)


def make_records(experiment_id: str, ns, t: float, empirical, bound) -> list[ErrorRecord]:
    """The records ``make_record`` gives the cells (n, empirical, bound) of one series, built
    for a whole chunk at once: ``passes`` takes the columns as arrays, ``_ratio`` each cell,
    and every field is a Python int, float or bool."""
    empirical, bound = np.asarray(empirical, dtype=float), np.asarray(bound, dtype=float)
    passed = passes(empirical, bound).tolist()
    empirical, bound = empirical.tolist(), bound.tolist()
    ratios = map(_ratio, empirical, bound)
    t = float(t)
    return list(map(
        ErrorRecord, itertools.repeat(experiment_id), map(int, ns), itertools.repeat(t),
        empirical, bound, ratios, passed,
    ))


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


# kinds whose series ids end in /t{t:g}
_T_LABELLED = ("chernoff_product", "trotter_product", "euler", "euler_rate", "dunford_segal")


# bool is an int subclass, but True is no count, seed or real number
def _integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


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
        for name in ("dim", "trials", "nmax", "vectors"):
            value = getattr(self, name)
            if not _integer(value) or value < 1:
                raise InvalidInputError(f"{name} must be an integer >= 1, got {value!r}")
        # the draws take the seed mod 2^64, so -1 would run as 2^64 - 1
        if not _integer(self.seed) or not 0 <= self.seed < 2**64:
            raise InvalidInputError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.n_mode not in ("pow2", "all"):
            raise InvalidInputError(f"n_mode must be 'pow2' or 'all', got {self.n_mode!r}")
        for name in ("alpha", "fit_min_n"):
            value = getattr(self, name)
            if not _real(value):
                raise InvalidInputError(f"{name} must be a real number, got {value!r}")
        if (
            not isinstance(self.ts, (tuple, list)) or not self.ts
            or not all(_real(t) and math.isfinite(t) and t >= 0.0 for t in self.ts)
        ):
            raise InvalidInputError(f"need at least one t, each finite and >= 0, got {self.ts}")
        if not math.isfinite(self.fit_min_n):
            raise InvalidInputError(f"fit_min_n must be finite, got {self.fit_min_n}")
        if self.kind in ("ritt", "norm_chernoff", "contour_reconstruction") and min(self.ts) <= 0.0:
            raise InvalidInputError(f"{self.kind} needs every t > 0 for (1 + tA)^-1, got {self.ts}")
        # two t of one series id would write its rows twice, or merge two series in one fit;
        # poisson_split keeps epsilon in the rows' t, other kinds take one t per draw or none
        if self.kind in _T_LABELLED or self.kind == "poisson_split":
            key = (lambda t: f"{t:g}") if self.kind in _T_LABELLED else float
            seen = {}
            for t in self.ts:
                if key(t) in seen:
                    raise InvalidInputError(
                        f"{self.kind} needs t values with distinct record ids, "
                        f"but t={seen[key(t)]!r} and t={t!r} share one"
                    )
                seen[key(t)] = t
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


_NORM_CHUNK = 64  # values of n per stack: 3 MB at d = 32 with three norm columns per n


def _norm_rows(*columns):
    """Zip the spectral norms of the equally long (k, d, d) stacks ``columns``, one
    ``linalg.op_norms`` call for all of them: the j-th row holds the norms of
    the j-th member of each column; one column is not copied.  Every norm
    sweep but _ritt_gap_sweep, whose columns are one _gap_stacks array
    already, takes its norms here."""
    norms = linalg.op_norms(columns[0] if len(columns) == 1 else np.concatenate(columns))
    k = len(columns[0])
    return zip(*(norms[i * k:(i + 1) * k] for i in range(len(columns))))


def _certified(check, stack, alpha: float):
    """The indices of the members of ``stack`` that pass ``check`` at alpha, and how many
    fail: one call of ``numrange.quasi_sectorial`` or ``numrange.sectorial`` on the stack."""
    verdicts = check(stack, alpha)
    kept = [j for j, ok in enumerate(verdicts) if ok]
    return kept, len(verdicts) - len(kept)


def _draws(config: ExperimentConfig, make, check=None):
    """The run's draws (i, *make(config, i)) for i < config.trials, and how many failed: with
    ``check``, the draws' first matrices go through ``_certified`` as one stack, and those that
    fail are left out."""
    draws = [(i, *make(config, i)) for i in range(config.trials)]
    if check is None:
        return draws, 0
    kept, failures = _certified(check, np.stack([d[1] for d in draws]), config.alpha)
    return [draws[j] for j in kept], failures


def _sectorial(config: ExperimentConfig, i: int):
    """(A,): the m-sectorial generator of draw i."""
    seed = ensembles.child_seed(config.seed, i)
    return (ensembles.random_m_sectorial(config.dim, config.alpha, seed),)


def _resolvent(config: ExperimentConfig, i: int):
    """(C, t): the resolvent contraction (1 + tA)^{-1} of draw i, t taken from ts in turn."""
    t = config.ts[i % len(config.ts)]
    return approximants.resolvent_family(*_sectorial(config, i))(t), t


def _contraction(config: ExperimentConfig, i: int, vectors: int | None = None):
    """(C, xs): a random contraction and config.vectors (or ``vectors``) unit vectors, as rows."""
    c = ensembles.random_contraction(config.dim, ensembles.child_seed(config.seed, i))
    seed = ensembles.child_seed(config.seed, 10_000 + i)
    return c, _unit_vectors(config.dim, vectors or config.vectors, seed)


def _selfadjoint(config: ExperimentConfig, i: int):
    """(C,): a self-adjoint contraction with spectrum evenly spread over [0, 1]."""
    spectrum = np.linspace(0.0, 1.0, config.dim)
    return (ensembles.self_adjoint_contraction(spectrum, ensembles.child_seed(config.seed, i)),)


def _split_pair(config: ExperimentConfig, i: int):
    """(A, B, label): split-step factors; even i draw commuting diagonal pairs."""
    seed, seed_b = (ensembles.child_seed(config.seed, k) for k in (i, 10_000 + i))
    if i % 2:
        a, b = (ensembles.random_m_sectorial(config.dim, 0.0, s) for s in (seed, seed_b))
        return a, b, "noncommuting"
    rng = ensembles._rng(seed)
    a, b = (np.diag(rng.uniform(0.0, 2.0, config.dim)).astype(complex) for _ in range(2))
    return a, b, "commuting"


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
        fits[rid] = {**vars(est), "n_range": list(est.n_range)}
    return fits


# ---------------------------------------------------------------------------
# per-draw sweeps: the runners and the acceptance suite share them


def _vector_sweep(c, xs, ns):
    """Yield (n, gaps, d1, d2, d3) over the increasing grid ns for the unit vectors xs (rows).

    gaps[j] is ||(C^n - e^{n(C-1)}) x_j||, from the gap column of _gap_stacks, and dk[j] is
    ||(C - 1)^k x_j||.
    """
    eye = np.eye(c.shape[0])
    dx = [xs.T]  # columns (C - 1)^k x for k = 0..3
    for _ in range(3):
        dx.append((c - eye) @ dx[-1])
    d1, d2, d3 = (np.linalg.norm(v.T, axis=1) for v in dx[1:])
    for chunk, (gaps,) in _gap_stacks(c, ns, ritt=False):
        for n, gap in zip(chunk, gaps):
            yield n, np.linalg.norm((gap @ xs.T).T, axis=1), d1, d2, d3


def _gap_stacks(c, ns, ritt=True, gap=True):
    """Yield (chunk, diffs) over the increasing grid ns, cut into chunks of _NORM_CHUNK n.

    diffs is one (ritt + gap, len(chunk), d, d) array of the columns [C^n - C^(n+1)] and
    [C^n - e^{n(C-1)}] for n in chunk; with ``ritt`` or ``gap`` off, its column is left out,
    and so is the power only it needs.  The powers square while 2 cur <= n and else multiply
    by the bases, one stacked matmul into one of two reused stacks; where the grid asks for
    n + 1 next, C^(n+1) is the next power, so a power-of-two grid costs one squaring per n
    and the full grid one product per n.  The last chunk may be partial.
    """
    bases = np.stack((c, approximants.chernoff_exp(c, 1))) if gap else c[None]
    pw, spare, cur = bases.copy(), np.empty_like(bases), 1
    for lo in range(0, len(ns), _NORM_CHUNK):
        chunk = ns[lo:lo + _NORM_CHUNK]
        diffs = np.empty((ritt + gap, len(chunk), *c.shape), dtype=np.complex128)
        for j, n in enumerate(chunk, lo):
            while cur < n:
                square = 2 * cur <= n
                np.matmul(pw, pw if square else bases, out=spare)
                pw, spare, cur = spare, pw, 2 * cur if square else cur + 1
            if gap:
                np.subtract(pw[0], pw[1], out=diffs[-1, j - lo])
            if not ritt:
                continue
            if j + 1 < len(ns) and ns[j + 1] == n + 1:
                # C^(n+1) with the other bases' next powers: the next n's powers
                np.matmul(pw, bases, out=spare)
                pw, spare, cur = spare, pw, n + 1
                np.subtract(spare[0], pw[0], out=diffs[0, j - lo])
            else:
                np.matmul(pw[0], bases[0], out=spare[0])
                np.subtract(pw[0], spare[0], out=diffs[0, j - lo])
        yield chunk, diffs


def _ritt_gap_sweep(c, ns, ritt=True, gap=True):
    """Yield (chunk, norms): the spectral norms of the columns of each _gap_stacks chunk,
    as lists, from one op_norms call per chunk."""
    for chunk, diffs in _gap_stacks(c, ns, ritt, gap):
        norms = linalg.op_norms(diffs.reshape(-1, *c.shape))
        yield chunk, [norms[i:i + len(chunk)] for i in range(0, len(norms), len(chunk))]


def _step_chunks(draws, family, ts, ns):
    """Yield (cells, steps, refs) for the run's (draw, t, n) sequence in chunks of _NORM_CHUNK.

    The draws are (id, A, parts): the step of a cell is family(*parts)(t/n),
    and A generates its semigroup.  cells lists the chunk's (draw index,
    id/t, t, n); a chunk may cross (draw, t) edges, and the last one may be
    partial.  steps is one family call on the chunk's stacked parts, and refs
    holds the e^{-tA} of each cell's (draw, t).  They come from one expm
    call per block of _NORM_CHUNK (draw, t), so a run of up to 64 takes one
    call and a longer one holds one block at a time.  A block is a whole
    number of chunks, so each chunk lies in one block.
    """
    pairs = [(i, t) for i in range(len(draws)) for t in ts]
    parts = [np.stack(part) for part in zip(*(p for _, _, p in draws))]
    labels = [f"{draws[i][0]}/t{t:g}" for i, t in pairs]
    run = itertools.product(range(len(pairs)), ns)
    lo = None
    while chunk := list(itertools.islice(run, _NORM_CHUNK)):
        js = [j for j, _ in chunk]
        if js[0] - js[0] % _NORM_CHUNK != lo:
            lo = js[0] - js[0] % _NORM_CHUNK
            block = pairs[lo:lo + _NORM_CHUNK]
            generators = np.stack([draws[i][1] for i, _ in block])
            refs = approximants.semigroup_family(generators)([t for _, t in block])
        members = [pairs[j][0] for j in js]
        steps = family(*(p[members] for p in parts))([pairs[j][1] / n for j, n in chunk])
        cells = [(pairs[j][0], labels[j], pairs[j][1], n) for j, n in chunk]
        yield cells, steps, refs[[j - lo for j in js]]


def _pair_sweep(draws, family, ts, ns, columns, alpha=None):
    """Yield (cell, norms) for the Chernoff pairs of the (draw, t, n) cells of ``_step_chunks``.

    With ``alpha``, one ``numrange.quasi_sectorial`` call certifies a chunk's steps, and the
    cells of those that fail are left out.  ``columns(steps, ns, refs)`` forms the chunk's
    difference stacks, one ``_norm_rows`` call takes their norms, and norms is a cell's row.
    """
    for cells, steps, refs in _step_chunks(draws, family, ts, ns):
        if alpha is not None:
            kept, _ = _certified(numrange.quasi_sectorial, steps, alpha)
            if not kept:
                continue
            cells, steps, refs = [cells[j] for j in kept], steps[kept], refs[kept]
        yield from zip(cells, _norm_rows(*columns(steps, [n for *_, n in cells], refs)))


def _power_error(steps, ns, refs):
    """The columns of _pair_sweep, with Phi = Phi(t/n): Phi^n - e^{-tA} (euler, trotter)."""
    return (approximants.chernoff_power(steps, ns) - refs,)


def _partner_columns(steps, ns, refs):
    """e^{n(Phi - 1)} - e^{-tA}: dunford_segal."""
    return (approximants.chernoff_exp(steps, ns) - refs,)


def _product_columns(steps, ns, refs):
    """Phi^n - e^{n(Phi - 1)}, 1 - Phi and Phi^n - e^{-tA}: chernoff_product."""
    powers = approximants.chernoff_power(steps, ns)
    gaps = powers - approximants.chernoff_exp(steps, ns)
    return gaps, np.eye(steps.shape[-1]) - steps, powers - refs


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


def _contour_sweep(c, alpha_prime, ns, alpha):
    """Contour reconstructions of C^n(1 - C) and C^n - e^{n(C-1)}, and the resolvent majorants.

    Returns ([(n, ritt_error, gap_error) for n in ns], report): spectral norms
    against C^n (1 - C) and the Chernoff pair, and the majorant report of
    riesz_dunford_many along the boundary of D(alpha'), whose three maxima
    are proved bounds, 1/dist(z, W(C)) from the outer 32-gon, or exact
    resolvent norms at the nodes where that bound cannot prove the check;
    its verdict is that of exact norms at every node.  Both families
    come with their bounds on the discs |z - c| <= r, (|c| + r)^n (|1 - c|
    + r) and (|c| + r)^n + e^{n(Re c + r - 1)}, so riesz_dunford_many
    proves the quadrature error before solving: a draw proved below
    CONTOUR_QUAD_TOL on one of its trial contours solves that contour alone
    (8, 16, 32 or 64 arc panels with sides graded to half the draw's
    distance from the vertex, 224 to 2048 nodes), and a draw that no trial
    proves raises ContourTooCloseError before any solve.
    """
    eye = np.eye(c.shape[0])
    fs = [(lambda z, n=n: z**n * (1.0 - z)) for n in ns]
    fs += [(lambda z, n=n: z**n - np.exp(n * (z - 1.0))) for n in ns]
    f_bounds = [(lambda z, r, n=n: (np.abs(z) + r) ** n * (np.abs(1.0 - z) + r)) for n in ns]
    f_bounds += [(lambda z, r, n=n: (np.abs(z) + r) ** n + np.exp(n * (z.real + r - 1.0))) for n in ns]
    got, report = contour.riesz_dunford_many(fs, c, alpha_prime, alpha, f_bounds)
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
    for i, c, xs in _draws(config, _contraction)[0]:
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


def _run_chernoff_product(config: ExperimentConfig):
    records = []
    product_cells: dict[str, list[tuple[int, float]]] = {}
    draws = [(f"chernoff_product/d{i:03d}", a, (a,)) for i, a in _draws(config, _sectorial)[0]]
    family = approximants.resolvent_family
    sweep = _pair_sweep(draws, family, config.ts, _n_grid(config), _product_columns)
    for (_, rid, t, n), (emp, dist, err) in sweep:
        records.append(make_record(rid, n, t, emp, bounds.cbrt_norm_bound(n, dist)))
        product_cells.setdefault(rid, []).append((n, err))
    extras = {"product_error_final": {k: v[-1][1] for k, v in product_cells.items()}}
    fits = _fit_groups(product_cells, config.fit_min_n)
    if fits:
        extras["product_rate_fits"] = fits
    return records, extras


def _run_trotter_product(config: ExperimentConfig):
    records = []
    pairs, _ = _draws(config, _split_pair)
    draws = [(f"trotter_product/{label}/d{i:03d}", a + b, (a, b)) for i, a, b, label in pairs]
    comms = [linalg.op_norm(a @ b - b @ a) for _, a, b, _ in pairs]
    family = approximants.trotter_family
    sweep = _pair_sweep(draws, family, config.ts, _n_grid(config), _power_error)
    for (i, rid, t, n), (emp,) in sweep:
        # commuting factors (comm = 0) make the product exact
        records.append(make_record(rid, n, t, emp, bounds.trotter_bound(n, t, comms[i])))
    fits = _fit_groups(_cells(records, "/noncommuting/"), config.fit_min_n)
    return records, {"noncommuting_rate_fits": fits}


def _run_power_norms(config: ExperimentConfig):
    """ritt: ||C^n - C^(n+1)|| <= K/(n+1); norm_chernoff: ||C^n - e^{n(C-1)}|| <= L n^(-1/3)."""
    ritt = config.kind == "ritt"
    draws, failures = _draws(config, _resolvent, numrange.quasi_sectorial)
    bound = bounds.ritt_bound if ritt else bounds.norm_chernoff_bound
    records = []
    for i, c, t_res in draws:
        rid = f"{config.kind}/d{i:03d}/t{t_res:g}"
        for ns, (emp,) in _ritt_gap_sweep(c, _n_grid(config), ritt=ritt, gap=not ritt):
            records += make_records(rid, ns, t_res, emp, [bound(n, config.alpha) for n in ns])
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
    for i, c in _draws(config, _selfadjoint)[0]:
        rid = f"selfadjoint/d{i:03d}"
        for ns, (ritts, gaps) in _ritt_gap_sweep(c, _n_grid(config)):
            bound = [bounds.selfadjoint_ritt_bound(n) for n in ns]
            ritts = make_records(f"{rid}/ritt", ns, 0.0, ritts, bound)
            bound = [bounds.selfadjoint_chernoff_bound(n) for n in ns]
            gaps = make_records(f"{rid}/chernoff", ns, 0.0, gaps, bound)
            records += itertools.chain.from_iterable(zip(ritts, gaps))
    return records, {}


def _run_euler(config: ExperimentConfig):
    """euler and euler_rate: the resolvent powers (1 + tA/n)^(-n) against e^{-tA}."""
    generators, failures = _draws(config, _sectorial, numrange.sectorial)
    draws = [(f"{config.kind}/d{i:03d}", a, (a,)) for i, a in generators]
    family = approximants.resolvent_family
    records = []
    sweep = _pair_sweep(draws, family, config.ts, _n_grid(config), _power_error)
    for (_, rid, t, n), (emp,) in sweep:
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
    """Dunford-Segal pairs; the steps Phi(t/n) that _pair_sweep does not certify are failures."""
    generators, failures = _draws(config, _sectorial, numrange.sectorial)
    draws = [(f"dunford_segal/d{i:03d}", a, (a,)) for i, a in generators]
    ns = _n_grid(config)
    family = approximants.semigroup_family
    records = []
    sweep = _pair_sweep(draws, family, config.ts, ns, _partner_columns, config.alpha)
    for (_, rid, t, n), (emp,) in sweep:
        records.append(make_record(rid, n, t, emp, bounds.norm_chernoff_bound(n, config.alpha)))
    cos2 = math.cos(config.alpha) ** 2
    return records, {
        "l_alpha": bounds.l_alpha(config.alpha),
        "certification_failures": failures + len(draws) * len(config.ts) * len(ns) - len(records),
        "empirical_N_hat": max([0.0] + [r.n * cos2 * r.empirical for r in records]),
        "rate_fits": _fit_groups(_cells(records), config.fit_min_n),
    }


def _run_tnk_equivalence(config: ExperimentConfig):
    """Resolvent and semigroup of the discrete generator at s = 2^-k, k = 1..k_max."""
    records = []
    k_max = min(12, max(5, int(math.log2(max(config.nmax, 32)))))
    t_semi = config.ts[0]
    for i, a in _draws(config, _sectorial)[0]:
        norm_a = linalg.op_norm(a)
        for k, s, res, semi in _tnk_sweep(a, k_max, t_semi):
            bound = bounds.tnk_resolvent_bound(s, norm_a)
            records.append(make_record(f"tnk/d{i:03d}/resolvent", 2**k, s, res, bound))
            bound = bounds.tnk_semigroup_bound(t_semi, s, norm_a)
            records.append(make_record(f"tnk/d{i:03d}/semigroup", 2**k, s, semi, bound))
    fits = _fit_groups(_cells(records, "/resolvent"), config.fit_min_n)
    return records, {"resolvent_rate_fits": fits}


def _run_contour_reconstruction(config: ExperimentConfig):
    """Records of _contour_sweep per certified draw; the summary's worst_majorant_ratio is the
    largest side ratio the draws' checks read, a proved bound that is never below the ratio of
    exact norms, and majorant_failures counts the draws whose check fails (no exit code)."""
    draws, failures = _draws(config, _resolvent, numrange.quasi_sectorial)
    records = []
    alpha_prime = 0.5 * (config.alpha + math.pi / 2)
    winding = 0.0
    majorant_worst = 0.0
    majorant_failures = 0
    ns = _n_grid(config, cap=16)
    bound = bounds.contour_reconstruction_bound()
    for i, c, t_res in draws:
        errors, report = _contour_sweep(c, alpha_prime, ns, config.alpha)
        for n, ritt, gap in errors:
            records.append(make_record(f"contour/d{i:03d}/ritt", n, t_res, ritt, bound))
            records.append(make_record(f"contour/d{i:03d}/gap", n, t_res, gap, bound))
        majorant_worst = max(majorant_worst, report.worst_ratio_arc, report.worst_ratio_lines)
        majorant_failures += not report.passed
        winding = max(winding, report.winding_error)
    return records, {
        "alpha_prime": alpha_prime,
        "certification_failures": failures,
        "max_winding_error": winding,
        "worst_majorant_ratio": majorant_worst,
        "majorant_failures": majorant_failures,
    }


def _run_poisson_split(config: ExperimentConfig):
    records = []
    ns = _n_grid(config, cap=poisson.WINDOW_CACHE)
    for n in ns:
        emp = abs(poisson.poisson_second_moment(n) - n)
        bound = bounds.poisson_variance_tolerance(n)
        records.append(make_record("poisson_split/second_moment", n, 0.0, emp, bound))
        emp, bound = poisson.poisson_first_abs_moment(n), bounds.poisson_abs_moment_bound(n)
        records.append(make_record("poisson_split/first_abs_moment", n, 0.0, emp, bound))
        for eps in config.ts:
            emp, bound = poisson.poisson_tail(n, eps), bounds.tchebychev_bound(n, eps)
            records.append(make_record("poisson_split/tail", n, eps, emp, bound))
    split_ns = [n for n in ns if n <= 64]
    for i, c, (x,) in _draws(config, lambda config, i: _contraction(config, i, 1))[0]:
        d1 = float(np.linalg.norm((np.eye(config.dim) - c) @ x))
        # one contraction check and one power pass per draw for the whole grid
        for n, sums in zip(split_ns, poisson.chernoff_split_sum(c, x, split_ns, config.ts)):
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
    """Run one registered experiment; deterministic given the config.  A run whose draws or
    steps all fail certification has no records and is refused, with the failures' count."""
    records, extras = _RUNNERS[config.kind](config)
    if not records:
        failures = extras.get("certification_failures", 0)
        raise InvalidInputError(f"{config.kind} at alpha={config.alpha:g} has no records: no draw "
                                f"or step passed certification (certification_failures={failures})")
    summary = {"kind": config.kind, "config": asdict(config)}
    summary.update(summarize(records, extras))
    return ExperimentResult(records=records, summary=summary)
