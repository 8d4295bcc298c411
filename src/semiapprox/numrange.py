"""Numerical-range geometry and quasi-sectoriality certification.

The central region is the "ice-cream cone"

    D(alpha) = {|z| <= sin(alpha)}
               union {|arg(1 - z)| <= alpha and |z - 1| <= cos(alpha)},

a disc around the origin glued to a wedge with vertex at z = 1.  A contraction
is quasi-sectorial for semi-angle alpha when its numerical range W(C) sits
inside D(alpha); that inclusion is what this module certifies numerically,
from an inner boundary approximation of W(C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInputError, NotAContractionError
from .tolerances import CONTRACTION_INPUT_TOL, SEMI_ANGLE_TOL, TOL_GEO


_ANGLE_CHUNK = 32  # angles per stacked eigh: 0.5 MB stack at d = 32, and as much again in eigenvectors


def numerical_range_boundary(c, k: int = 256) -> np.ndarray:
    """Boundary points of the numerical range W(C), k-angle sweep.

    For each angle theta = 2 pi j / k the top eigenvector x of the Hermitian
    part of e^{i theta} C maximizes Re(e^{i theta} x* C x); the returned
    values x* C x are extreme points of W(C), so their convex hull
    approximates W(C) from the inside.

    The Hermitian parts of _ANGLE_CHUNK consecutive angles go through one
    ``np.linalg.eigh`` call on a (chunk, d, d) stack; the last chunk may be
    partial.  The points are bit-identical to those of one ``eigh`` per angle.
    A Hermitian part or a point that overflows raises InvalidInputError.
    """
    a = linalg.as_operator(c)
    if k < 16:
        raise InvalidInputError(f"need at least 16 sweep angles, got {k}")
    phases = np.exp(1j * (2.0 * math.pi * np.arange(k) / k))
    points = np.empty(k, dtype=np.complex128)
    # an overflow is refused by the finiteness checks, so NumPy need not warn of it first
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, k, _ANGLE_CHUNK):
            chunk = slice(lo, lo + _ANGLE_CHUNK)
            rotated = phases[chunk, None, None] * a
            herm = (rotated + rotated.conj().transpose(0, 2, 1)) / 2.0
            if not np.all(np.isfinite(herm)):
                raise InvalidInputError("the Hermitian part of e^{i theta} C overflows")
            _, v = np.linalg.eigh(herm)
            x = v[:, :, -1:]
            points[chunk] = ((x.conj().transpose(0, 2, 1) @ a) @ x)[:, 0, 0]
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("a numerical-range boundary point x* C x overflows")
    return points


def in_D_alpha(z, alpha: float):
    """Membership of z in D(alpha), with the package-wide geometric tolerance.

    z = 1 is the wedge vertex and belongs to every D(alpha); arg(0) counts
    as 0.  Accepts scalars or arrays.
    """
    if not 0.0 <= alpha < math.pi / 2:
        raise InvalidInputError(f"alpha must lie in [0, pi/2), got {alpha}")
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
    if not 0.0 <= alpha < math.pi / 2:
        raise InvalidInputError(f"alpha must lie in [0, pi/2), got {alpha}")
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
