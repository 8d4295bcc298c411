"""Closed-form constants and error bounds, each as a pure scalar function.

Naming convention for the distance inputs, shared with the test-suite:

    nx = ||x||, d1 = ||(1 - C)x||, d2 = ||(1 - C)^2 x||, d3 = ||(1 - C)^3 x||.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

from .errors import DegenerateInputError, DomainError

EULER_UPPER_M = 2.0 + 2.0 / math.sqrt(3.0)
_K_ALPHA_GRID = 2048  # alpha' scan points that bracket the minimum of ritt_constant


def sqrt_n_bound(n: int, d1: float) -> float:
    """sqrt(n) * ||(C - 1)x||: the classical power-vs-exponential estimate."""
    _check_n(n)
    if d1 < 0.0:
        raise DomainError("d1 must be nonnegative")
    return math.sqrt(n) * d1


def epsilon_star(n: int, nx: float, d1: float) -> float:
    """Optimal splitting parameter (4 n ||x|| / ||(1-C)x||)^(1/3)."""
    _check_n(n)
    if nx <= 0.0:
        raise DomainError("nx must be positive")
    if d1 <= 0.0:
        raise DegenerateInputError(
            "d1 = 0 makes the split degenerate; use the tail term alone"
        )
    return (4.0 * n * nx / d1) ** (1.0 / 3.0)


def cbrt_vector_bound(n: int, eps: float, nx: float, d1: float) -> float:
    """Two-term split bound (n / eps^2) * 2 ||x|| + eps * ||(1-C)x||."""
    _check_n(n)
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    return _finite(_over_eps_squared(n, eps) * 2.0 * nx + eps * d1, eps)


def cbrt_norm_bound(n: int, norm_one_minus_c: float) -> float:
    """Operator-norm form (3/2) n^(1/3) ||2(1 - C)||^(2/3)."""
    _check_n(n)
    if norm_one_minus_c < 0.0:
        raise DomainError("norm must be nonnegative")
    return 1.5 * n ** (1.0 / 3.0) * (2.0 * norm_one_minus_c) ** (2.0 / 3.0)


def cbrt_closed_bound(n: int, nx: float, d1: float) -> float:
    """Two-term bound at eps = epsilon_star: (3/2) n^(1/3) (4 ||x||)^(1/3) ||(1-C)x||^(2/3)."""
    _check_n(n)
    if nx < 0.0 or d1 < 0.0:
        raise DomainError("nx, d1 must be nonnegative")
    return 1.5 * n ** (1.0 / 3.0) * (4.0 * nx) ** (1.0 / 3.0) * d1 ** (2.0 / 3.0)


def telescopic_bound(n: int, d2: float, d3: float) -> float:
    """(n/2) (||(C-1)^2 x|| + (e^2/3) ||(C-1)^3 x||)."""
    _check_n(n)
    if d2 < 0.0 or d3 < 0.0:
        raise DomainError("d2, d3 must be nonnegative")
    return 0.5 * n * (d2 + (math.e**2 / 3.0) * d3)


def ritt_constant(alpha: float, alpha_prime: float) -> float:
    """Contour constant K(alpha, alpha') controlling (n+1) ||C^n (1-C)||."""
    if not (0.0 <= alpha < alpha_prime < math.pi / 2):
        raise DomainError(
            f"need 0 <= alpha < alpha' < pi/2, got alpha={alpha}, alpha'={alpha_prime}"
        )
    log_sin = math.log(math.sin(alpha_prime))
    if log_sin == 0.0:
        # alpha' so close to pi/2 that sin rounds to 1; this is the pole
        return math.inf
    return (2.0 / (math.cos(alpha_prime) * math.sin(alpha_prime - alpha))) * (
        1.0 / math.pi - 1.0 / (math.e * log_sin)
    )


class KAlpha(NamedTuple):
    value: float
    alpha_prime: float


@functools.lru_cache(maxsize=128)
def k_alpha(alpha: float) -> KAlpha:
    """min over alpha' in (alpha, pi/2) of ritt_constant, grid + golden-section.

    The 2048-point scan brackets the single interior minimum; golden-section
    then refines the minimizer to 1e-8 absolute in alpha'.  Results are cached:
    a sweep evaluates the bounds below once per record.
    """
    if not 0.0 <= alpha < math.pi / 2:
        raise DomainError(f"alpha must lie in [0, pi/2), got {alpha}")
    hi = math.pi / 2
    xs = [alpha + (hi - alpha) * (j + 1) / (_K_ALPHA_GRID + 1) for j in range(_K_ALPHA_GRID)]
    vals = [ritt_constant(alpha, x) for x in xs]
    i = min(range(_K_ALPHA_GRID), key=vals.__getitem__)
    lo_b = xs[i - 1] if i > 0 else alpha + 1e-12 * (hi - alpha)
    hi_b = xs[i + 1] if i < _K_ALPHA_GRID - 1 else hi - 1e-12 * (hi - alpha)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo_b, hi_b
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = ritt_constant(alpha, c), ritt_constant(alpha, d)
    while b - a > 1e-8:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = ritt_constant(alpha, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = ritt_constant(alpha, d)
    x_min = 0.5 * (a + b)
    return KAlpha(ritt_constant(alpha, x_min), x_min)


def ritt_bound(n: int, alpha: float) -> float:
    """K_alpha / (n+1): the Ritt decay of ||C^n (1 - C)|| for C quasi-sectorial."""
    _check_n(n)
    return k_alpha(alpha).value / (n + 1)


def l_alpha(alpha: float) -> float:
    """2 K_alpha + 2: prefactor of the operator-norm n^(-1/3) estimate."""
    return 2.0 * k_alpha(alpha).value + 2.0


def norm_chernoff_bound(n: int, alpha: float) -> float:
    """L_alpha / n^(1/3)."""
    _check_n(n)
    return l_alpha(alpha) / n ** (1.0 / 3.0)


def selfadjoint_ritt_bound(n: int) -> float:
    """1/(n+1): the optimal self-adjoint bound for ||C^n (1-C)||."""
    _check_n(n)
    return 1.0 / (n + 1)


def selfadjoint_chernoff_bound(n: int) -> float:
    """e^{-1}/n: the optimal self-adjoint bound for ||C^n - e^{n(C-1)}||."""
    _check_n(n)
    return math.exp(-1.0) / n


def euler_upper_constant(alpha: float) -> float:
    """Certified upper constant min((pi - alpha)/alpha, 2 + 2/sqrt(3))."""
    if not 0.0 <= alpha < math.pi / 2:
        raise DomainError(f"alpha must lie in [0, pi/2), got {alpha}")
    if alpha == 0.0:
        return EULER_UPPER_M
    return min((math.pi - alpha) / alpha, EULER_UPPER_M)


def euler_bound(n: int, alpha: float) -> float:
    """Resolvent-power approximation bound M(alpha) / (cos(alpha)^2 n)."""
    _check_n(n)
    return euler_upper_constant(alpha) / (math.cos(alpha) ** 2 * n)


def trotter_bound(n: int, t: float, comm: float) -> float:
    """t^2 ||AB - BA|| / (2n): the Lie-Trotter error ||(e^{-tA/n} e^{-tB/n})^n - e^{-t(A+B)}||.

    One split step of length h = t/n is off by at most h^2 ||[A, B]|| / 2,
    and the n step errors add up over contractions (Chernoff, J. Funct.
    Anal. 2, 1968); comm = ||AB - BA||.
    """
    _check_n(n)
    if t < 0.0 or comm < 0.0:
        raise DomainError("t and comm must be nonnegative")
    return t**2 * comm / (2.0 * n)


def tnk_resolvent_bound(s: float, norm_a: float) -> float:
    """s ||A||^2: ||(1 + X_s)^{-1} - (1 + A)^{-1}|| for the discrete generator X_s.

    X_s = (1 - (1 + sA)^{-1}) / s = A (1 + sA)^{-1}, so A - X_s = sA^2 (1 + sA)^{-1}
    has norm at most s ||A||^2, and both resolvents are contractions.
    """
    if s < 0.0 or norm_a < 0.0:
        raise DomainError("s and norm_a must be nonnegative")
    return s * norm_a**2


def tnk_semigroup_bound(t: float, s: float, norm_a: float) -> float:
    """t s ||A||^2: ||e^{-t X_s} - e^{-tA}||, by Duhamel over two contraction semigroups."""
    if t < 0.0 or s < 0.0 or norm_a < 0.0:
        raise DomainError("t, s and norm_a must be nonnegative")
    return t * s * norm_a**2


def contour_reconstruction_bound() -> float:
    """1e-7: the allowed error of a contour reconstruction of f(C) in spectral norm.

    That is ten times CONTOUR_QUAD_TOL = 1e-8, the bound the quadrature
    proves on its truncation error before it solves a contour, or, where
    no contour is proved, the agreement its fallback asks of two successive
    node sets before it stops refining.
    """
    return 1e-7


def poisson_variance_tolerance(n: int) -> float:
    """1e-8 n: the allowed rounding in the computed Var(X_n) = n, X_n ~ Poisson(n)."""
    _check_n(n)
    return 1e-8 * n


def poisson_abs_moment_bound(n: int) -> float:
    """sqrt(n): E|X_n - n| <= sqrt(Var(X_n)) by Cauchy-Schwarz, X_n ~ Poisson(n)."""
    _check_n(n)
    return math.sqrt(n)


def split_central_bound(eps: float, d1: float) -> float:
    """eps ||(1-C)x||: the central part, |m - n| <= eps, of the Poisson split.

    Each ||(C^n - C^m) x|| there is at most |n - m| ||(1-C)x||.
    """
    if eps < 0.0 or d1 < 0.0:
        raise DomainError("eps, d1 must be nonnegative")
    return eps * d1


def tchebychev_bound(n: int, eps: float) -> float:
    """n / eps^2: P(|X_n - n| > eps) <= Var(X_n) / eps^2 by Tchebychev, X_n ~ Poisson(n)."""
    _check_n(n)
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    return _finite(_over_eps_squared(n, eps), eps)


def split_tail_bound(n: int, eps: float) -> float:
    """2n / eps^2: the tail part, 2 P(|X_n - n| > eps), of the Poisson split at ||x|| = 1."""
    return _finite(2.0 * tchebychev_bound(n, eps), eps)


def _over_eps_squared(n: int, eps: float) -> float:
    # eps**2 underflows to 0 for eps below about 1e-162; the quotient is then
    # infinite, which _finite refuses, rather than a ZeroDivisionError.  Above
    # about 1.3e154 a float eps**2 raises OverflowError, refused as bad input
    try:
        square = eps**2
    except OverflowError:
        raise DomainError(f"eps = {eps!r} has a square that overflows") from None
    return n / square if square > 0.0 else math.inf


def _finite(bound: float, eps: float) -> float:
    if not math.isfinite(bound):
        raise DomainError(f"eps = {eps!r} gives a bound of {bound}, not a finite float")
    return bound


def _check_n(n: int) -> None:
    # a plain int skips the abstract-base-class check, which costs more than
    # the bound itself in a sweep that evaluates one bound per record
    if not (type(n) is int or isinstance(n, numbers.Integral)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
