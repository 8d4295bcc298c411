"""Numerical-range geometry and quasi-sectoriality certification.

The central region is the "ice-cream cone"

    D(alpha) = {|z| <= sin(alpha)}
               union {|arg(1 - z)| <= alpha and |z - 1| <= cos(alpha)},

a disc around the origin glued to a wedge with vertex at z = 1.  A contraction
is quasi-sectorial for semi-angle alpha when its numerical range W(C) sits
inside D(alpha); that inclusion is what this module certifies numerically.

``quasi_sectorial`` tries an outer polygon first: the supporting lines
Re(e^{i theta} z) <= lambda_max(H_theta) enclose W(C) (Johnson, SIAM J.
Numer. Anal. 15, 1978) and need only eigenvalues.  When the polygon does not
fit in D(alpha) it falls back to ``certify_quasi_sectorial``, the inside sweep
of boundary points x* C x, whose points the ``numrange`` command reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInputError, NotAContractionError
from .tolerances import CONTRACTION_INPUT_TOL, MAX_SWEEP_ANGLES, SEMI_ANGLE_TOL, TOL_GEO


_ANGLE_CHUNK = 32  # angles per stacked eigh: 0.5 MB stack at d = 32, and as much again in eigenvectors


def _check_angles(k) -> None:
    """Refuse a sweep angle count that is not even and from 16 to MAX_SWEEP_ANGLES."""
    if not (isinstance(k, (int, np.integer)) and 16 <= k <= MAX_SWEEP_ANGLES and k % 2 == 0):
        raise InvalidInputError(
            f"need an even number of sweep angles from 16 to {MAX_SWEEP_ANGLES}, got {k!r}"
        )


def _check_alpha(alpha) -> None:
    """Refuse a semi-angle outside [0, pi/2)."""
    if not 0.0 <= alpha < math.pi / 2:
        raise InvalidInputError(f"alpha must lie in [0, pi/2), got {alpha}")


def _hermitian_parts(a: np.ndarray, k: int):
    """Yield (lo, hi, H): the Hermitian parts of e^{i theta_j} C, theta_j = 2 pi j / k,
    stacked for the angles lo <= j < hi, in chunks of _ANGLE_CHUNK angles j < k/2.

    A Hermitian part that overflows raises InvalidInputError.
    """
    half = k // 2
    phases = np.exp(1j * (2.0 * math.pi * np.arange(half) / k))
    for lo in range(0, half, _ANGLE_CHUNK):
        hi = min(lo + _ANGLE_CHUNK, half)
        rotated = phases[lo:hi, None, None] * a
        herm = (rotated + rotated.conj().transpose(0, 2, 1)) / 2.0
        if not np.all(np.isfinite(herm)):
            raise InvalidInputError("the Hermitian part of e^{i theta} C overflows")
        yield lo, hi, herm


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
        for lo, hi, herm in _hermitian_parts(a, k):
            _, v = np.linalg.eigh(herm)
            # the top eigenvector gives angle j, the bottom one angle j + k/2
            for x, shift in ((v[:, :, -1:], 0), (v[:, :, :1], half)):
                points[shift + lo:shift + hi] = ((x.conj().transpose(0, 2, 1) @ a) @ x)[:, 0, 0]
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("a numerical-range boundary point x* C x overflows")
    return points


def in_D_alpha(z, alpha: float):
    """Membership of z in D(alpha), with the package-wide geometric tolerance.

    z = 1 is the wedge vertex and belongs to every D(alpha); arg(0) counts
    as 0.  Accepts scalars or arrays.
    """
    _check_alpha(alpha)
    z = np.asarray(z, dtype=np.complex128)
    in_disc = np.abs(z) <= math.sin(alpha) + TOL_GEO
    w = 1.0 - z
    # numpy's angle(0) is 0, which implements the vertex convention directly
    in_wedge = (np.abs(np.angle(w)) <= alpha + TOL_GEO) & (
        np.abs(w) <= math.cos(alpha) + TOL_GEO
    )
    result = in_disc | in_wedge
    return bool(result) if result.ndim == 0 else result


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
    _check_alpha(alpha)
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


@dataclass
class SectorCertificate:
    """Outcome of a quasi-sectoriality check.

    ``passed`` is False when some boundary point of W(C) sits further than
    the geometric tolerance outside D(alpha); ``worst_point`` and
    ``max_violation`` then describe the worst offender, so a failed
    certificate doubles as the failure report.
    """

    boundary_points: np.ndarray = field(repr=False)
    max_violation: float = 0.0
    passed: bool = True
    worst_point: complex = 0j


def certify_quasi_sectorial(c, alpha: float, k: int = 256) -> SectorCertificate:
    """Certify W(C) subset of D(alpha) from k boundary points."""
    _check_alpha(alpha)
    points = numerical_range_boundary(c, k)
    dists = np.atleast_1d(distance_to_D_alpha(points, alpha))
    worst = int(np.argmax(dists))
    max_violation = float(dists[worst])
    return SectorCertificate(
        boundary_points=points,
        max_violation=max_violation,
        passed=max_violation <= TOL_GEO,
        worst_point=complex(points[worst]),
    )


def quasi_sectorial(c, alpha: float, k: int = 256) -> bool:
    """Whether W(C) lies in D(alpha): ``certify_quasi_sectorial(c, alpha, k).passed``,
    decided from the outer polygon of W(C) when it fits.

    The support value of W(C) at theta_j = 2 pi j / k is lambda_max(H_theta_j);
    one stacked ``np.linalg.eigvalsh`` per _ANGLE_CHUNK angles j < k/2 gives it
    at theta_j (top eigenvalue) and at theta_j + pi (minus the bottom one).
    Each value h_j is raised by 64 d u ||C||_F (u = 2^-53), a bound on the
    backward error of forming H_theta and solving for its eigenvalues, so h_j
    is at least the exact support value.  The vertex v_j is where the lines
    Re(e^{i theta} z) = h at theta_j and theta_{j+1} meet.  Every direction
    between two adjacent normals is a nonnegative combination of them, so the
    support function of W(C) there is at most that of v_j, and W(C) lies in
    the hull of the v_j.  When every v_j is within TOL_GEO/2 of the convex
    D(alpha), so is all of W(C), and every point of the inside sweep, rounding
    included, passes its TOL_GEO test: the answer is True without the sweep.
    Otherwise the answer is the sweep's.  k is checked as by
    ``numerical_range_boundary``, and alpha before any eigenvalue is solved.
    """
    _check_alpha(alpha)
    _check_angles(k)
    a = linalg.as_operator(c)
    half = k // 2
    h = np.empty(k + 1)  # h[k] repeats h[0], closing the polygon
    # an overflow leaves a non-finite vertex, and the sweep then refuses the input
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, herm in _hermitian_parts(a, k):
            w = np.linalg.eigvalsh(herm)
            h[lo:hi] = w[:, -1]
            h[half + lo:half + hi] = -w[:, 0]
        h[k] = h[0]
        h += 64 * a.shape[0] * 2.0**-53 * np.linalg.norm(a)
        along = (h[:-1] + h[1:]) / (2.0 * math.cos(math.pi / k))
        across = (h[:-1] - h[1:]) / (2.0 * math.sin(math.pi / k))
        vertices = np.exp(-1j * (2.0 * math.pi * (np.arange(k) + 0.5) / k)) * (along + 1j * across)
    if np.all(np.isfinite(vertices)) and np.max(distance_to_D_alpha(vertices, alpha)) <= TOL_GEO / 2:
        return True
    return certify_quasi_sectorial(a, alpha, k).passed


def min_semi_angle(c, points) -> float | None:
    """Smallest certified semi-angle of a contraction C, by bisection over ``points``.

    ``points`` is a boundary sweep of W(C), e.g. a certificate's ``boundary_points``;
    nothing is swept here.  Returns None when even alpha = pi/2 - 1e-6 fails to
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
