"""Dense complex linear-algebra kernels.

An "operator" throughout the package is a square complex ``numpy.ndarray``
(row-major, dimension >= 1, all entries finite).  These wrappers pin down the
conventions the rest of the library relies on: the operator norm is always the
spectral norm, and inversion refuses matrices whose condition number makes the
result meaningless.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    OverflowRiskError,
    SingularityError,
)
from .tolerances import MAX_CONDITION, MAX_EXPM_NORM


def _checked(a: np.ndarray, ndim: int) -> np.ndarray:
    """Return ``a`` if it has ``ndim`` axes, square finite trailing matrices of dim >= 1."""
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise InvalidInputError(f"operator must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidInputError("operator entries must be finite")
    return a


def as_operator(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex128 matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    return _checked(a, 2)


def op_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    a = as_operator(m)
    return float(np.linalg.norm(a, 2))


def op_norms(stack) -> list[float]:
    """Spectral norms of a (k, d, d) stack, one SVD call for the whole stack.

    Each norm equals ``op_norm`` of its matrix bit for bit: both take the
    largest singular value of the same LAPACK routine.
    """
    a = _checked(np.asarray(stack, dtype=np.complex128), 3)
    return np.linalg.svd(a, compute_uv=False)[:, 0].tolist()


def condition(m) -> float:
    """2-norm condition number; inf for singular input."""
    a = as_operator(m)
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


def expm(m) -> np.ndarray:
    """Matrix exponential.

    The zero matrix maps to the identity exactly; norms above
    ``MAX_EXPM_NORM`` are refused instead of silently overflowing.
    """
    a = as_operator(m)
    if not np.any(a):
        return np.eye(a.shape[0], dtype=np.complex128)
    # cheap Frobenius screen first; the spectral norm is only computed when
    # the Frobenius bound cannot already rule out an overflow-risk norm; a
    # screen that overflows to inf needs no warning, as the check still raises
    with np.errstate(over="ignore", invalid="ignore"):
        frobenius = np.linalg.norm(a)
    if frobenius > MAX_EXPM_NORM and op_norm(a) > MAX_EXPM_NORM:
        raise OverflowRiskError(
            f"op_norm(M) > {MAX_EXPM_NORM:g}; refusing to exponentiate"
        )
    return np.asarray(scipy.linalg.expm(a), dtype=np.complex128)


def mat_pow(m, n: int) -> np.ndarray:
    """M**n for integer n >= 0 by binary exponentiation (M**0 = identity)."""
    a = as_operator(m)
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidInputError(f"exponent must be a nonnegative integer, got {n!r}")
    return np.asarray(np.linalg.matrix_power(a, int(n)), dtype=np.complex128)


def inverse(m) -> np.ndarray:
    """Matrix inverse; refuses condition numbers above ``MAX_CONDITION``."""
    a = as_operator(m)
    c = condition(a)
    if not np.isfinite(c) or c > MAX_CONDITION:
        raise SingularityError(f"condition number {c:g} exceeds {MAX_CONDITION:g}")
    eye = np.eye(a.shape[0], dtype=np.complex128)
    return np.asarray(np.linalg.solve(a, eye), dtype=np.complex128)


def check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
