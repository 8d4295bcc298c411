"""Exact Poisson machinery behind the central/tail split of the power sum.

The representation

    C^n - e^{n(C-1)} = sum_m P{X_n = m} (C^n - C^m),   X_n ~ Poisson(n),

turns the power-vs-exponential discrepancy into a Poisson average.  This
module owns the pmf, evaluated in log space on one certified window of m by
``_pmf_window`` (log m! from ``math.lgamma``, so numpy is the only runtime
dependency; built once per n), exact tail masses, and the weighted-norm split
itself.  Infinite sums are truncated once the omitted probability mass drops
below POISSON_MASS_TOL; the dropped mass is reported, never ignored.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg
from .bounds import _check_n
from .errors import DomainError, InvalidInputError
from .tolerances import CONTRACTION_INPUT_TOL, POISSON_MASS_TOL


def _dropped_mass_bound(n: int, m_lo: int, m_hi: int, pmf: np.ndarray) -> float:
    """Upper bound on the true Poisson mass outside [m_lo, m_hi].

    Beyond the window the pmf decays at least geometrically (ratio n/(m+1)
    above, m/n below), so the dropped mass is bounded by geometric series
    anchored at the window edges.  This deliberately does not use
    1 - sum(pmf), whose float error would swamp a 1e-14 target.
    """
    ratio_hi = n / (m_hi + 1)
    if ratio_hi >= 1.0:
        return math.inf
    dropped = float(pmf[-1]) * ratio_hi / (1.0 - ratio_hi)
    if m_lo > 0:
        ratio_lo = m_lo / n
        if ratio_lo >= 1.0:
            return math.inf
        dropped += float(pmf[0]) * ratio_lo / (1.0 - ratio_lo)
    return dropped


WINDOW_CACHE = 128  # poisson_split caps its n grid here, so a run builds each window once


@functools.lru_cache(maxsize=WINDOW_CACHE)
def _pmf_window(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(ms = [m_lo, ..., m_hi], P{X_n = m} on ms, dropped-mass bound), widened as needed.

    The window grows until the certified dropped mass is below
    POISSON_MASS_TOL.  Terms outside the certified window contribute less
    than the truncation tolerance to any central/tail classification, so
    callers never need a wider window than this.  Each window is built once
    per n and shared, so its arrays are read-only.
    """
    width = max(60.0, 25.0 * math.sqrt(n))
    while True:
        m_lo = max(0, int(n - width))
        m_hi = int(n + width) + 1
        ms = np.arange(m_lo, m_hi + 1)
        log_factorials = np.array([math.lgamma(m + 1) for m in range(m_lo, m_hi + 1)])
        logs = -n + ms * math.log(n) - log_factorials
        pmf = np.exp(logs)
        dropped = _dropped_mass_bound(n, m_lo, m_hi, pmf)
        if dropped <= POISSON_MASS_TOL:
            ms.flags.writeable = pmf.flags.writeable = False
            return ms, pmf, dropped
        width *= 2.0


def poisson_tail(n: int, epsilon: float) -> float:
    """Exact P{|X_n - n| > epsilon} (strict inequality), truncated to 1e-14."""
    _check_n(n)
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    ms, pmf, _ = _pmf_window(n)
    return float(np.sum(pmf[np.abs(ms - n) > epsilon]))


def poisson_second_moment(n: int) -> float:
    """sum_m pmf(n, m) (m - n)^2; equals Var(X_n) = n."""
    _check_n(n)
    ms, pmf, _ = _pmf_window(n)
    return float(np.sum(pmf * (ms - n) ** 2))


def poisson_first_abs_moment(n: int) -> float:
    """sum_m pmf(n, m) |m - n|; at most sqrt(n) by Cauchy-Schwarz."""
    _check_n(n)
    ms, pmf, _ = _pmf_window(n)
    return float(np.sum(pmf * np.abs(ms - n)))


def chernoff_split_sum(c, x, n, epsilons):
    """Central and tail parts of e^{-n} sum_m (n^m/m!) ||(C^n - C^m) x||, per epsilon.

    C must be a contraction and x a unit vector.  For each epsilon the
    central part collects |m - n| <= epsilon, the tail the strict
    complement; the series is truncated at cumulative pmf mass
    POISSON_MASS_TOL.  ``n`` is one n, answered with the list of one
    (central, tail) pair per epsilon, or a sequence of n, answered with one
    such list per n.
    The input checks and the powers C^m x are taken once for the whole
    grid, up to the edge of the widest pmf window; row m of that pass is the
    same for every n, so each n gets the sums it gets alone.  Each part is
    summed in m order.
    """
    single = np.ndim(n) == 0
    ns = [n] if single else list(n)
    for m in ns:
        _check_n(m)
    epsilons = [float(eps) for eps in epsilons]
    for eps in epsilons:
        if eps <= 0.0:
            raise DomainError(f"epsilon must be positive, got {eps}")
    a = linalg.as_operator(c)
    if linalg.op_norm(a) > 1.0 + CONTRACTION_INPUT_TOL:
        raise InvalidInputError("chernoff_split_sum requires a contraction")
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.size != a.shape[0]:
        raise InvalidInputError("vector length must match operator dimension")
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise InvalidInputError("x must be a unit vector")

    windows = [_pmf_window(m) for m in ns]
    m_hi = max([0] + [int(ms[-1]) for ms, _, _ in windows])

    # iterate y_m = C^m x once up to the widest window's edge
    powers = np.empty((m_hi + 1, x.size), dtype=np.complex128)
    powers[0] = x
    for m in range(1, m_hi + 1):
        powers[m] = a @ powers[m - 1]

    out = [_split(powers, m, ms, pmf, epsilons) for m, (ms, pmf, _) in zip(ns, windows)]
    return out[0] if single else out


def _split(powers: np.ndarray, n: int, ms: np.ndarray, pmf: np.ndarray, epsilons):
    """The (central, tail) sums of n for each epsilon, from the powers C^m x (rows)."""
    terms = (pmf * np.linalg.norm(powers[n] - powers[ms], axis=1)).tolist()
    offsets = np.abs(ms - n).tolist()
    sums = []
    for eps in epsilons:
        central = 0.0
        tail = 0.0
        for offset, term in zip(offsets, terms):
            if offset <= eps:
                central += term
            else:
                tail += term
        sums.append((central, tail))
    return sums
