"""Dense complex linear-algebra kernels.

An "operator" throughout the package is a square complex ``numpy.ndarray``
(row-major, dimension >= 1, all entries finite).  These wrappers pin down the
conventions the rest of the library relies on: the operator norm is always the
spectral norm, and inversion refuses matrices whose condition number makes the
result meaningless.

``expm``, ``inverse`` and ``mat_pow`` take a (k, d, d) stack and treat one
matrix as a stack of one, answered with one matrix; ``op_norms`` takes
stacks only.  A stack goes through each NumPy or LAPACK call at once, and
each member's result is the one it gets alone, bit for bit, so a caller may
stack whatever it needs at one time.

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
    """r_m(A) for each member of a (g, d, d) stack: one product of the stacked
    even powers with the coefficient rows, then (V - U) X = V + U for U the
    odd part and V the even part."""
    g, d = a.shape[0], a.shape[-1]
    k = 4 if m == 13 else (m + 1) // 2
    even = np.zeros((g, k, d, d), dtype=np.complex128)
    even.reshape(g, k, d * d)[:, 0, :: d + 1] = 1.0
    np.matmul(a, a, out=even[:, 1])
    for j in range(2, k):
        np.matmul(even[:, j - 1], even[:, 1], out=even[:, j])
    parts = (_PADE_ROWS[m] @ even.reshape(g, k, d * d)).reshape(g, -1, d, d)
    if m == 13:
        parts = even[:, 3, None] @ parts[:, :2] + parts[:, 2:]
    u, v = a @ parts[:, 0], parts[:, 1]
    return np.linalg.solve(v - u, v + u)


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


def _stack(m) -> tuple[np.ndarray, bool]:
    """(the (k, d, d) stack of m, whether m is one matrix)."""
    a = np.asarray(m, dtype=np.complex128)
    return as_operator_stack(a), a.ndim < 3


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005, Algorithm 2.3).

    ``m`` is one matrix, answered with one matrix, or a (k, d, d) stack,
    answered with the stack of its members' exponentials.  A zero member
    maps to the identity exactly and a diagonal member to the exponentials
    of its entries; a norm above ``MAX_EXPM_NORM`` is refused instead of
    silently overflowing.  Otherwise the Pade degree m in {3, 5, 7, 9, 13}
    is the lowest whose theta_m bounds ||A||_1; beyond theta_13 the input is
    scaled by 2^-s into it and r_13 squared s times.  The dense members of
    one (m, s) go through ``_pade`` and the squarings as one stack, so a
    member's exponential is the one it gets alone, bit for bit.  For a
    triangular member the diagonal and superdiagonal are recomputed exactly
    at every squaring (Al-Mohy & Higham 2009, Code Fragment 2.1), one member
    at a time; a lower-triangular one is taken as the transpose of e^{A^T}.
    """
    a, single = _stack(m)
    size = np.abs(a)
    d = a.shape[-1]
    # a cheap screen first: ||A||_2 <= d max |a_ij|, so only the members above
    # the cap by that bound need their spectral norm
    screened = size.max(axis=(1, 2)) * d > MAX_EXPM_NORM
    if screened.any() and max(op_norms(a[screened])) > MAX_EXPM_NORM:
        raise OverflowRiskError(
            f"op_norm(M) > {MAX_EXPM_NORM:g}; refusing to exponentiate"
        )
    # a nonzero corner pair settles a dense member; the triangles sort the others
    corner = a[:, 0, 1] * a[:, 1, 0] != 0 if d > 1 else np.zeros(len(a), dtype=bool)
    if corner.all():
        shapes = [(True, True)] * len(a)
    else:
        above = corner | np.triu(size, 1).any(axis=(1, 2))
        below = corner | np.tril(size, -1).any(axis=(1, 2))
        shapes = list(zip(above.tolist(), below.tolist()))
    out = np.empty_like(a)
    diagonal = [j for j, shape in enumerate(shapes) if shape == (False, False)]
    if diagonal:
        i = np.arange(d)
        entries = a[diagonal][:, i, i]
        out[diagonal] = 0.0
        # a zero member is the identity, with no exponential taken
        out[np.array(diagonal)[:, None], i, i] = np.where(
            entries.any(axis=1, keepdims=True), np.exp(entries), 1.0
        )
    for shape, triangular, lower in (
        ((True, True), False, False), ((True, False), True, False), ((False, True), True, True),
    ):
        rows = [j for j, member_shape in enumerate(shapes) if member_shape == shape]
        if not rows:
            continue
        # e^A = (e^{A^T})^T: a lower-triangular member is taken on its transposed view
        t = a[rows].transpose(0, 2, 1) if lower else a[rows]
        groups: dict[tuple[int, int, int], list[int]] = {}
        for j, norm in enumerate(np.abs(t).sum(axis=1).max(axis=1).tolist()):
            # a triangular member goes alone: the last bit of NumPy's in-place
            # complex product in _exp_sinch depends on how many entries it has
            groups.setdefault((*_degree(norm), j if triangular else -1), []).append(j)
        for (degree, s, _), js in groups.items():
            x = _squared_pade(t if len(js) == len(t) else t[js], degree, s, triangular)
            out[[rows[j] for j in js]] = x.transpose(0, 2, 1) if lower else x
    return out[0] if single else out


def _degree(norm: float) -> tuple[int, int]:
    """The Pade degree m and the scaling s of Algorithm 2.3 for ||A||_1 = norm."""
    for m, theta in _THETA:
        if norm <= theta:
            return m, 0
    return 13, max(0, math.ceil(math.log2(norm / _THETA_13)))


def _squared_pade(t: np.ndarray, m: int, s: int, triangular: bool) -> np.ndarray:
    """r_m(2^-s T) squared s times, for a (g, d, d) stack T of one degree m and scaling s.

    For upper-triangular T, Code Fragment 2.1 sets the exact diagonal and
    superdiagonal before the first squaring and after each.
    """
    x = _pade(t if m < 13 else t * 2.0**-s, m)
    if not triangular:
        for _ in range(s):
            x = x @ x
        return x
    i = np.arange(t.shape[-1])
    diag, sup = t[:, i, i], t[:, i[:-1], i[1:]]
    for r in range(s, -1, -1):
        if r < s:
            x = x @ x
        scale = 2.0**-r
        lam = diag * scale
        x[:, i, i] = np.exp(lam)
        mean, half = (lam[:, 1:] + lam[:, :-1]) / 2, (lam[:, 1:] - lam[:, :-1]) / 2
        x[:, i[:-1], i[1:]] = sup * scale * _exp_sinch(mean, half)
    return np.triu(x)


def mat_pow(m, n) -> np.ndarray:
    """M**n for integer n >= 0 (M**0 = identity), in ``np.linalg.matrix_power``'s order.

    ``m`` is one matrix with one n, or a (k, d, d) stack with a sequence of
    k exponents, one per member.  As in NumPy, n = 3 is (M M) M, and a larger
    n multiplies the squares M^(2^j) of its set bits from the lowest up, the
    result starting at the first; the members go through each squaring and
    product as one stack, so each power is the one ``np.linalg.matrix_power``
    gives, bit for bit.
    """
    a, single = _stack(m)
    ns = [n] if single else list(n)
    if len(ns) != len(a):
        raise InvalidInputError(f"need one exponent per matrix, got {len(ns)} for {len(a)}")
    for e in ns:
        if not isinstance(e, (int, np.integer)) or e < 0:
            raise InvalidInputError(f"exponent must be a nonnegative integer, got {e!r}")
    ns = [int(e) for e in ns]
    out = np.empty_like(a)
    zero = [j for j, e in enumerate(ns) if e == 0]
    if zero:
        out[zero] = np.eye(a.shape[-1])
    cube = [j for j, e in enumerate(ns) if e == 3]
    if cube:
        out[cube] = (a[cube] @ a[cube]) @ a[cube]
    # longest exponents first, so that the members still squaring are always a prefix
    rows = sorted((j for j, e in enumerate(ns) if e != 0 and e != 3), key=lambda j: -ns[j].bit_length())
    # z[p] is M^(2^level) of member rows[p], and rest[p] its exponent's bits from level up
    z, rest, started = a[rows], [ns[j] for j in rows], set()
    while rest:
        ones = [p for p, e in enumerate(rest) if e & 1]
        more = [p for p in ones if rows[p] in started]
        first = [p for p in ones if rows[p] not in started]
        if more:
            idx = [rows[p] for p in more]
            out[idx] = out[idx] @ z[more]
        if first:
            out[[rows[p] for p in first]] = z[first]
            started.update(rows[p] for p in first)
        rest = [e >> 1 for e in rest if e >> 1]
        if rest:
            z = z[: len(rest)] @ z[: len(rest)]
    return out[0] if single else out


def inverse(m) -> np.ndarray:
    """Matrix inverse of one matrix, or of each member of a (k, d, d) stack.

    Refuses condition numbers above ``MAX_CONDITION``; for a stack the
    refusal names the condition number of its first such member, in the
    message that member alone gets.  The conditions come from one stacked
    SVD and the inverses from one stacked solve.
    """
    a, single = _stack(m)
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[:, -1] == 0.0, np.inf, s[:, 0] / s[:, -1])
    bad = np.flatnonzero(~(cond <= MAX_CONDITION))
    if len(bad):
        raise SingularityError(f"condition number {float(cond[bad[0]]):g} exceeds {MAX_CONDITION:g}")
    out = np.linalg.solve(a, np.eye(a.shape[-1], dtype=np.complex128))
    return out[0] if single else out


def check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
