"""Dense complex linear-algebra kernels.

An "operator" throughout the package is a square complex ``numpy.ndarray``
(row-major, dimension >= 1, all entries finite).  These wrappers pin down the
conventions the rest of the library relies on: the operator norm is always the
spectral norm, and inversion refuses matrices whose condition number makes the
result meaningless.

NumPy is the only runtime dependency: ``expm`` is the scaling-and-squaring
Pade method of Higham (SIAM J. Matrix Anal. Appl. 26(4), 2005, Algorithm
2.3), with the exact diagonal and superdiagonal of Al-Mohy & Higham (SIAM J.
Matrix Anal. Appl. 31(3), 2009, Code Fragment 2.1) for triangular input.
"""

from __future__ import annotations

import math

import numpy as np

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
    if not np.isfinite(a).all():
        raise InvalidInputError("operator entries must be finite")
    return a


def as_operator(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex128 matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    return _checked(a, 2)


def as_operator_stack(m) -> np.ndarray:
    """Validate and return ``m`` as a (k, d, d) complex128 stack; one matrix is a stack of one."""
    a = np.asarray(m, dtype=np.complex128)
    return _checked(a, 3) if a.ndim == 3 else as_operator(a)[None]


def op_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    a = as_operator(m)
    # the same LAPACK singular values as np.linalg.norm(a, 2), without its dispatch
    return float(np.linalg.svd(a, compute_uv=False)[0])


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


# Pade numerators b_0..b_m of r_m = q_m(-A)^{-1} q_m(A), and the largest
# ||A||_1 for which r_m meets unit roundoff (Higham 2005, Table 2.3)
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068))
_THETA_13 = 5.371920351148152


def _coefficients(b: tuple) -> np.ndarray:
    """Rows that combine the even powers I, A^2, A^4, ... into the Pade parts.

    For m <= 9 the rows are U/A and V.  For m = 13 only I..A^6 are formed, and
    U = A (A^6 W_1 + W_2), V = A^6 Z_1 + Z_2, the rows being W_1, Z_1, W_2, Z_2.
    """
    if len(b) < 14:
        return np.array([b[1::2], b[0::2]], dtype=np.complex128)
    return np.array([(0.0, *b[9::2]), (0.0, *b[8:13:2]), b[1:9:2], b[0:8:2]],
                    dtype=np.complex128)


_PADE_ROWS = {m: _coefficients(b) for m, b in _PADE.items()}


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """r_m(A): one product of the stacked even powers with the coefficient rows,
    then (V - U) X = V + U for U the odd part and V the even part."""
    d = a.shape[0]
    k = 4 if m == 13 else (m + 1) // 2
    even = np.zeros((k, d, d), dtype=np.complex128)
    even.reshape(k, d * d)[0, :: d + 1] = 1.0
    np.matmul(a, a, out=even[1])
    for j in range(2, k):
        np.matmul(even[j - 1], even[1], out=even[j])
    parts = (_PADE_ROWS[m] @ even.reshape(k, d * d)).reshape(-1, d, d)
    if m == 13:
        parts = even[3] @ parts[:2] + parts[2:]
    u, v = a @ parts[0], parts[1]
    return np.linalg.solve(v - u, v + u)


def _off_diagonal(a: np.ndarray) -> tuple[bool, bool]:
    """(any nonzero entry above the diagonal, any below); the corner pair settles dense input."""
    if a.shape[0] > 1 and a[0, 1] and a[1, 0]:
        return True, True
    return bool(np.triu(a, 1).any()), bool(np.tril(a, -1).any())


def _exp_sinch(mean: np.ndarray, half: np.ndarray) -> np.ndarray:
    """e^mean sinh(half) / half, elementwise; e^mean where half = 0.

    With mean and half the mean and half-difference of l1 and l2 this is the
    divided difference (e^l2 - e^l1)/(l2 - l1) without its cancellation
    (Higham, Functions of Matrices, 2008, eq. 10.42); far apart, where sinh
    could overflow, the difference itself has no cancellation to speak of.
    """
    out = np.exp(mean)
    near = (half != 0) & (np.abs(half) < 1.0)
    out[near] *= np.sinh(half[near]) / half[near]
    far = np.abs(half) >= 1.0
    m, h = mean[far], half[far]
    out[far] = (np.exp(m + h) - np.exp(m - h)) / (2.0 * h)
    return out


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005, Algorithm 2.3).

    The zero matrix maps to the identity exactly and a diagonal matrix to the
    exponentials of its entries; norms above ``MAX_EXPM_NORM`` are refused
    instead of silently overflowing.  Otherwise the Pade degree m in
    {3, 5, 7, 9, 13} is the lowest whose theta_m bounds ||A||_1; beyond
    theta_13 the input is scaled by 2^-s into it and r_13 squared s times.
    For triangular input the diagonal and superdiagonal are recomputed
    exactly at every squaring (Al-Mohy & Higham 2009, Code Fragment 2.1).
    """
    a = as_operator(m)
    if not a.any():
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
    above, below = _off_diagonal(a)
    if not (above or below):
        return np.diag(np.exp(np.diag(a)))
    if not below:
        return _expm_upper(a)
    if not above:  # lower triangular: e^A = (e^{A^T})^T
        return _expm_upper(a.T).T
    x, s = _scaled_pade(a)
    for _ in range(s):
        x = x @ x
    return x


def _scaled_pade(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(r_m(2^-s A), s) with the degree m and the scaling s of Algorithm 2.3."""
    norm = float(np.abs(a).sum(axis=0).max())
    for m, theta in _THETA:
        if norm <= theta:
            return _pade(a, m), 0
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    return _pade(a * 2.0**-s, 13), s


def _expm_upper(t: np.ndarray) -> np.ndarray:
    """e^T for upper-triangular T: Code Fragment 2.1 at every squaring step."""
    x, s = _scaled_pade(t)
    diag, sup = np.diag(t), np.diag(t, 1)
    d = np.arange(t.shape[0])
    for i in range(s, -1, -1):
        if i < s:
            x = x @ x
        scale = 2.0**-i
        lam = diag * scale
        x[d, d] = np.exp(lam)
        mean, half = (lam[1:] + lam[:-1]) / 2, (lam[1:] - lam[:-1]) / 2
        x[d[:-1], d[1:]] = sup * scale * _exp_sinch(mean, half)
    return np.triu(x)


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
