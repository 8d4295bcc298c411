"""Numerical-range geometry and quasi-sectoriality certification.

The central region is the "ice-cream cone"

    D(alpha) = {|z| <= sin(alpha)}
               union {|arg(1 - z)| <= alpha and |z - 1| <= cos(alpha)},

a disc around the origin glued to a wedge with vertex at z = 1.  A contraction
is quasi-sectorial for semi-angle alpha when its numerical range W(C) sits
inside D(alpha); that inclusion is what this module certifies numerically.

There is one verdict per region.  Both decide from the outside, by the
supporting lines Re(e^{i theta} z) <= lambda_max(H_theta) of W(C) (Johnson,
SIAM J. Numer. Anal. 15, 1978), whose levels ``_support_values`` takes from
eigenvalues alone and raises by a backward-error bound:

- ``quasi_sectorial`` (W(C) in D(alpha)) by outer polygons, coarse to fine
  from 16 to 256 angles; when none fits, the answer is False;
- ``sectorial`` (W(A) in the sector |arg z| <= alpha) by the lines at the
  sector's two edge normals; when they do not settle it, every point of the
  inside sweep ``numerical_range_boundary`` must pass ``in_sector``.

Both answer one matrix with a bool and a (m, d, d) stack with a list of m
bools, from the support values of the whole stack solved together.

The sweep also gives the ``numrange`` command its report and
``min_semi_angle`` its points.  ``support_distance`` turns the support
lines of the outer _POLYGON_ANGLES-gon (``outer_polygon``) into lower
bounds on the distance from W(C) to a point or an ellipse, so into the
upper bound 1/dist(z, W(C)) on resolvent norms that the contour's
majorant check and quadrature error bound use.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import InvalidInputError, NotAContractionError
from .tolerances import CONTRACTION_INPUT_TOL, MAX_SWEEP_ANGLES, SEMI_ANGLE_TOL, TOL_GEO


_ANGLE_CHUNK = 32  # Hermitian parts per eigh or eigvalsh: 0.5 MB at d = 32, as much again in eigenvectors
_POLYGON_ANGLES = 32  # support lines of the polygon support_distance measures from


def _check_angles(k) -> None:
    """Refuse a sweep angle count that is not even and from 16 to MAX_SWEEP_ANGLES."""
    if not (isinstance(k, (int, np.integer)) and 16 <= k <= MAX_SWEEP_ANGLES and k % 2 == 0):
        raise InvalidInputError(
            f"need an even number of sweep angles from 16 to {MAX_SWEEP_ANGLES}, got {k!r}"
        )


def check_alpha(alpha) -> None:
    """Refuse a semi-angle outside [0, pi/2)."""
    if not 0.0 <= alpha < math.pi / 2:
        raise InvalidInputError(f"alpha must lie in [0, pi/2), got {alpha}")


def _sweep_angles(k: int) -> np.ndarray:
    """The angles theta_j = 2 pi j / k, j < k/2, of a k-angle sweep that are solved."""
    return 2.0 * math.pi * np.arange(k // 2) / k


def _sector_normals(alpha: float) -> np.ndarray:
    """The outer normals theta = +-(beta + pi/2) of the edges of the sector |arg z| <= beta,
    beta = alpha + TOL_GEO."""
    normal = alpha + TOL_GEO + math.pi / 2
    return np.array([normal, -normal])


def _hermitian_parts(a: np.ndarray, thetas: np.ndarray):
    """Yield (lo, hi, H) for a (m, d, d) stack a and n angles thetas: H stacks the
    Hermitian parts of e^{i theta_j} a_i for the flat indices lo <= i n + j < hi,
    in chunks of _ANGLE_CHUNK; the last chunk may be partial.

    A Hermitian part that overflows raises InvalidInputError.
    """
    n = len(thetas)
    phases = np.exp(1j * thetas)
    for lo in range(0, len(a) * n, _ANGLE_CHUNK):
        p = np.arange(lo, min(lo + _ANGLE_CHUNK, len(a) * n))
        rotated = a[p // n]
        # phase times matrix, in this order: NumPy's matrix times phase can differ in the last bit
        np.multiply(phases[p % n, None, None], rotated, out=rotated)
        herm = (rotated + rotated.conj().transpose(0, 2, 1)) / 2.0
        if not np.all(np.isfinite(herm)):
            raise InvalidInputError("the Hermitian part of e^{i theta} C overflows")
        yield lo, lo + len(p), herm


def _support_values(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Upper bounds h on the support values of W(a_i) at theta_j and theta_j + pi.

    For a (m, d, d) stack and n angles, h has shape (m, 2, n).  The support
    value of W(A) at theta is lambda_max(H_theta), so h[i, 0, j] is the top
    eigenvalue of H_theta_j and h[i, 1, j] minus the bottom one, as
    H_{theta + pi} = -H_theta; one ``np.linalg.eigvalsh`` per chunk of
    ``_hermitian_parts`` gives both.  Each value is raised by 64 d u ||a_i||_F
    (u = 2^-53), a bound on the backward error of forming H_theta and solving
    for its eigenvalues, so h is at least the exact support value; the norm
    is the scaled ``_frobenius``, finite whenever ||a_i||_F is.
    """
    n = len(thetas)
    h = np.empty((len(a) * n, 2))
    for lo, hi, herm in _hermitian_parts(a, thetas):
        w = np.linalg.eigvalsh(herm)
        h[lo:hi, 0] = w[:, -1]
        h[lo:hi, 1] = -w[:, 0]
    slack = 64 * a.shape[-1] * 2.0**-53 * _frobenius(a)
    return h.reshape(len(a), n, 2).transpose(0, 2, 1) + slack[:, None, None]


def outer_polygon(c) -> np.ndarray:
    """The levels h of the outer k-gon of W(C), k = _POLYGON_ANGLES, from one support-value solve.

    W(C) lies in Re(e^{i theta_j} w) <= h[0, j] and Re(-e^{i theta_j} w) <=
    h[1, j], theta_j = 2 pi j / k, j < k/2: h is ``_support_values`` at
    those angles, one ``np.linalg.eigvalsh`` of k/2 Hermitian parts.  Where
    a Hermitian part overflows no line is known, and every level is inf.
    """
    a = linalg.as_operator(c)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _support_values(a[None], _sweep_angles(_POLYGON_ANGLES))[0]
        except InvalidInputError:
            return np.full((2, _POLYGON_ANGLES // 2), np.inf)


def support_distance(h, z, ellipse=None) -> np.ndarray:
    """Lower bounds on dist(E_i, W(C)) from the levels h = ``outer_polygon(C)``.

    E_i is the point z_i, or, with ellipse = (d, a, b), the closed ellipse
    about z_i with semi-axes a_i >= b_i, a_i along the unit direction d_i.
    Every unit x has Re(e^{i theta} x* C x) <= h_theta, and the least
    Re(e^{i theta} w) over E_i is Re(e^{i theta} z_i) - s_theta with s_theta
    = sqrt(a_i^2 Re(e^{i theta} d_i)^2 + b_i^2 Im(e^{i theta} d_i)^2), the
    same at theta + pi.  So every w in E_i has |w - x* C x| >= l_i =
    max_theta (Re(e^{i theta} z_i) - s_theta - h_theta): the distance from
    E_i to the k-gon when they do not meet.  The value returned is l_i
    lowered by 16 u (|z_i| + a_i + max |h|), u = 2^-53, more than twice what
    the rounding of those terms and of |e^{i theta}| != 1 can add, so it is
    at most dist(E_i, W(C)); it is <= 0 where E_i may meet W(C), and -inf
    where no line is known.  z, d, a and b broadcast together, and the
    terms of each are formed at its own shape: centers and directions
    given once serve semi-axes given for several ellipses about them.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    d, a, b = (1.0, 0.0, 0.0) if ellipse is None else ellipse
    axes = (1,) * max(np.ndim(v) for v in (z, d, a, b))
    # the phases _hermitian_parts rotates by, and the levels, on an axis ahead of the others
    p = np.exp(1j * _sweep_angles(_POLYGON_ANGLES)).reshape(-1, *axes)
    h0, h1 = (level.reshape(-1, *axes) for level in h)
    with np.errstate(over="ignore", invalid="ignore"):
        # Re(e^{i theta} z), one row per theta_j; at theta_j + pi it is its negative, exactly
        rz = p.real * z.real - p.imag * z.imag
        pd = p * d
        s = np.sqrt((a * pd.real) ** 2 + (b * pd.imag) ** 2)  # 0 for a point
        ell = np.maximum(np.max(rz - s - h0, axis=0), np.max(-rz - s - h1, axis=0))
        out = ell - 16 * 2.0**-53 * (np.abs(z) + a + np.max(np.abs(h)))
    return np.where(np.isnan(out), -np.inf, out)


def _frobenius(a: np.ndarray) -> np.ndarray:
    """||a_i||_F of each member of a (m, d, d) stack, as 2^e ||2^-e a_i||_F with 2^e
    the power of two just above its largest |entry|.

    It is finite whenever ||a_i||_F is, not only below about 1e154, where
    the squares of the plain norm overflow, and the scaling is exact, so
    below that it is ``np.linalg.norm(a_i)`` bit for bit.
    """
    scale = np.ldexp(1.0, np.frexp(np.abs(a).max(axis=(1, 2)))[1])
    return np.linalg.norm(a / scale[:, None, None], axis=(1, 2)) * scale


def numerical_range_boundary(c, k: int = 256) -> np.ndarray:
    """Boundary points of the numerical range W(C), k-angle sweep.

    For each angle theta = 2 pi j / k the top eigenvector x of the Hermitian
    part H_theta of e^{i theta} C maximizes Re(e^{i theta} x* C x); the
    returned values x* C x are extreme points of W(C), so their convex hull
    approximates W(C) from the inside.

    k must be even, from 16 to MAX_SWEEP_ANGLES; anything else is refused
    before any array is allocated.  Since H_{theta + pi} = -H_theta, one
    ``eigh`` of H_theta serves two angles: only the angles j < k/2 are
    solved, the top eigenvector gives point j and the bottom eigenvector,
    which maximizes Re(-e^{i theta} x* C x), gives point j + k/2.  The
    Hermitian parts of _ANGLE_CHUNK consecutive angles go through one
    ``np.linalg.eigh`` call on a (chunk, d, d) stack; the last chunk may be
    partial.  The points are bit-identical to those of one ``eigh`` per
    angle j < k/2.  A Hermitian part or a point that overflows raises
    InvalidInputError.
    """
    _check_angles(k)
    a = linalg.as_operator(c)
    half = k // 2
    points = np.empty(k, dtype=np.complex128)
    # an overflow is refused by the finiteness checks, so NumPy need not warn of it first
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, herm in _hermitian_parts(a[None], _sweep_angles(k)):
            _, v = np.linalg.eigh(herm)
            # the top eigenvector gives angle j, the bottom one angle j + k/2
            for x, shift in ((v[:, :, -1:], 0), (v[:, :, :1], half)):
                points[shift + lo:shift + hi] = ((x.conj().transpose(0, 2, 1) @ a) @ x)[:, 0, 0]
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("a numerical-range boundary point x* C x overflows")
    return points


def in_sector(z, alpha: float):
    """Membership of z in the closed sector |arg z| <= alpha with vertex 0.

    Points within TOL_GEO of the origin are treated as the vertex itself:
    their argument is numerically meaningless.
    """
    z = np.asarray(z, dtype=np.complex128)
    at_vertex = np.abs(z) <= TOL_GEO
    inside = np.abs(np.angle(z)) <= alpha + TOL_GEO
    result = at_vertex | inside
    return bool(result) if result.ndim == 0 else result


def _segment_distance(w: np.ndarray, b: complex) -> np.ndarray:
    # distance from w to the segment [0, b], b != 0
    t = np.clip((w * np.conj(b)).real / abs(b) ** 2, 0.0, 1.0)
    return np.abs(w - t * b)


def distance_to_D_alpha(z, alpha: float) -> np.ndarray:
    """Euclidean distance from z to D(alpha); 0 for members.

    Computed as the minimum of the distance to the disc part and to the
    wedge part (the wedge is handled in the w = 1 - z frame, where it is a
    truncated sector of half-angle alpha and radius cos(alpha)).
    """
    check_alpha(alpha)
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    d_disc = np.maximum(np.abs(z) - math.sin(alpha), 0.0)

    w = 1.0 - z
    radius = math.cos(alpha)
    inside = (np.abs(w) <= radius) & (np.abs(np.angle(w)) <= alpha)
    edge_hi = radius * np.exp(1j * alpha)
    edge_lo = radius * np.exp(-1j * alpha)
    d_wedge = np.minimum(_segment_distance(w, edge_hi), _segment_distance(w, edge_lo))
    in_cone = np.abs(np.angle(w)) <= alpha
    arc_dist = np.where(in_cone, np.abs(np.abs(w) - radius), np.inf)
    d_wedge = np.minimum(d_wedge, arc_dist)
    d_wedge = np.where(inside, 0.0, d_wedge)

    out = np.minimum(d_disc, d_wedge)
    return out if out.shape != (1,) else out.reshape(())


_LADDER = (16, 32, 64, 128, 256)  # the angle counts of the outer polygons, coarse to fine


def _polygon_fits(h: np.ndarray, alpha: float) -> np.ndarray:
    """Whether each row of support values h (m, k), at theta_j = 2 pi j / k, cuts out a
    polygon whose vertices are all within TOL_GEO/2 of D(alpha).

    The vertex v_j is where the lines Re(e^{i theta} z) = h at theta_j and
    theta_{j+1} meet; one ``distance_to_D_alpha`` call takes every vertex.  A
    support value or a vertex that is not finite raises InvalidInputError.
    """
    k = h.shape[1]
    h = np.concatenate([h, h[:, :1]], axis=1)  # h[:, k] repeats h[:, 0], closing the polygon
    along = (h[:, :-1] + h[:, 1:]) / (2.0 * math.cos(math.pi / k))
    across = (h[:, :-1] - h[:, 1:]) / (2.0 * math.sin(math.pi / k))
    vertices = np.exp(-1j * (2.0 * math.pi * (np.arange(k) + 0.5) / k)) * (along + 1j * across)
    if not np.all(np.isfinite(vertices)):
        raise InvalidInputError("a support line of W(C) or a vertex of its outer polygon overflows")
    return np.max(distance_to_D_alpha(vertices, alpha), axis=1) <= TOL_GEO / 2


def quasi_sectorial(c, alpha: float):
    """Whether W(C) lies in D(alpha), proved from the outside: whether an outer
    polygon of W(C) at 16, 32, 64, 128 or 256 angles lies within TOL_GEO/2 of it.

    ``c`` is one matrix, answered with a bool, or a (m, d, d) stack, answered
    with a list of m bools.  The k-angle polygon is cut out by the lines
    Re(e^{i theta_j} z) = h_j, theta_j = 2 pi j / k, where h_j from
    ``_support_values`` is at least the support value of W(C); between two
    adjacent normals the support function of W(C) is at most that of the
    vertex where their lines meet, so W(C) lies in the polygon.  When every
    vertex is within TOL_GEO/2 of the convex D(alpha), so is all of W(C).

    The 16-gon is solved for the whole stack.  Each finer level solves only
    its new angles, the odd j of ``_sweep_angles(level)``, and only for the
    matrices whose last polygon did not fit, so each level is its flat
    polygon bit for bit.  A matrix whose 256-gon does not fit is answered
    False; nothing is sampled from the inside.  alpha is checked before any
    eigenvalue is solved; support values or vertices that overflow raise
    InvalidInputError.
    """
    check_alpha(alpha)
    a = np.asarray(c, dtype=np.complex128)
    stack = linalg.as_operator_stack(a)
    rows = np.arange(len(stack))  # the matrices of the last level; open_ marks those that did not fit
    # an overflow leaves a non-finite vertex, which _polygon_fits refuses
    with np.errstate(over="ignore", invalid="ignore"):
        h = _support_values(stack, _sweep_angles(_LADDER[0])).reshape(len(stack), _LADDER[0])
        open_ = ~_polygon_fits(h, alpha)
        for level in _LADDER[1:]:
            if not open_.any():
                break
            rows = rows[open_]
            finer = np.empty((len(rows), level))
            finer[:, ::2] = h[open_]
            # the odd j < level/2 and their antipodes j + level/2, which are odd too
            new = _support_values(stack[rows], _sweep_angles(level)[1::2])
            finer[:, 1::2] = new.reshape(len(rows), level // 2)
            h = finer
            open_ = ~_polygon_fits(h, alpha)
    answers = [True] * len(stack)
    for i in rows[open_]:
        answers[i] = False
    return answers if a.ndim == 3 else answers[0]


def sectorial(a, alpha: float):
    """Whether W(A) lies in the sector |arg z| <= alpha + TOL_GEO, decided from
    its two edge normals when it can be.

    ``a`` is one matrix, answered with a bool, or a (m, d, d) stack, answered
    with a list of m bools.  With beta = alpha + TOL_GEO < pi/2 the sector is
    the intersection of the half-planes Re(e^{i theta} z) <= 0 at theta =
    +-(beta + pi/2).  Their support values, raised by their backward-error
    bound, come from one ``_support_values`` call for the whole stack: one
    ``np.linalg.eigvalsh`` on a (2m, d, d) stack while 2m <= _ANGLE_CHUNK.
    When both are <= 0, W(A) lies in the sector, proved from the outside
    (Johnson, SIAM J. Numer. Anal. 15, 1978), and the answer is True.
    Otherwise, and for every member whenever beta >= pi/2, the answer is the
    inside sweep's: whether every point of ``numerical_range_boundary`` of
    that member alone (256 angles) passes ``in_sector``.  alpha is checked
    before any eigenvalue is solved.
    """
    check_alpha(alpha)
    a = np.asarray(a, dtype=np.complex128)
    stack = linalg.as_operator_stack(a)
    settled = np.zeros(len(stack), dtype=bool)
    if alpha + TOL_GEO < math.pi / 2:
        # an overflow leaves a support value that is not <= 0, and the sweep then decides
        with np.errstate(over="ignore", invalid="ignore"):
            h = _support_values(stack, _sector_normals(alpha))
        settled = np.all(h[:, 0] <= 0.0, axis=1)
    answers = [
        bool(ok or np.all(in_sector(numerical_range_boundary(m), alpha)))
        for m, ok in zip(stack, settled)
    ]
    return answers if a.ndim == 3 else answers[0]


def min_semi_angle(c, points) -> float | None:
    """Smallest certified semi-angle of a contraction C, by bisection over ``points``.

    ``points`` is a boundary sweep of W(C), e.g. the one the ``numrange`` command
    reports; nothing is swept here.  Returns None when even alpha = pi/2 - 1e-6 fails to
    certify (possible for inputs that only satisfy the contraction bound up to
    its tolerance).
    """
    if linalg.op_norm(c) > 1.0 + CONTRACTION_INPUT_TOL:
        raise NotAContractionError("min_semi_angle requires op_norm(C) <= 1 + 1e-9")

    def certified(alpha: float) -> bool:
        return float(np.max(distance_to_D_alpha(points, alpha))) <= TOL_GEO

    hi = math.pi / 2 - 1e-6
    if not certified(hi):
        return None
    lo = 0.0
    if certified(lo):
        return 0.0
    while hi - lo > SEMI_ANGLE_TOL:
        mid = 0.5 * (lo + hi)
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi
