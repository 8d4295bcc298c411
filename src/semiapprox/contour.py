"""Functional calculus by quadrature along the boundary of D(alpha').

The positively oriented contour is traversed vertex -> A -> arc -> B -> vertex:

    line_minus  z(s) = 1 - s e^{-i alpha'},   s: 0 -> cos(alpha')
    arc         z(t) = e^{it} sin(alpha'),    t: pi/2 - alpha' -> 3pi/2 + alpha'
    line_plus   z(s) = 1 - s e^{+i alpha'},   s: cos(alpha') -> 0

Quadrature is composite 16-point Gauss-Legendre.  Arc panels are uniform;
line panels are geometrically graded toward the vertex, where the resolvent
may grow while the integrands of interest vanish.  Gauss nodes are interior,
so the vertex z = 1 itself is never sampled.

Each resolvent (z - C)^{-1} is solved once per node, in stacked blocks of 64
nodes.  Each function is called once per pass, on the 1-D array of all the
pass's nodes, so it must broadcast like a NumPy ufunc (a scalar constant is
allowed); its weighted resolvents are summed in one matrix product per block
and function.

The majorant check needs three maxima of ||(z_j - C)^{-1}|| w(j) over the
base nodes, not every norm, so the base pass only bounds each norm.  With
F = ||R||_F (taken by the blow-up check), S = R / F and G = S^H S, three
squarings give G^8, and f = F ||G^8||_F^(1/16) satisfies
f / d^(1/32) <= ||R|| <= f, because ||G^8||_2 = ||S||^16 <= ||G^8||_F <=
sqrt(d) ||G^8||_2.  The scaling keeps ||G^8||_2 in [d^-8, 1], so G^8
neither underflows nor overflows for any resolvent the blow-up check lets
through.  Both bounds are widened by the relative margin 1e-6, far above
the rounding of the products (of relative order d^1.5 eps).  A node is
solved again, by the same stacked solve and so to the same rows, for an
exact norm only when its upper bound reaches the largest lower bound of one
of the maxima; the other nodes enter the check as 0.  Every node at which a
maximum sits is kept, so the check's maxima and verdict are those of exact
norms at all nodes, bit for bit.  The check reports resolvent-majorant
ratios only; a pointwise integrand such as |z^n - e^{n(z-1)}| is for the
caller to evaluate on the nodes ``z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, numrange
from .errors import ContourTooCloseError, DomainError, InvalidInputError
from .tolerances import CONTOUR_NODE_CAP, CONTOUR_QUAD_TOL, MAJORANT_DIST_TOL, MAJORANT_TOL

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_BLOCK = 64  # contour nodes per stacked resolvent solve
_BOUND_MARGIN = 1e-6  # relative widening of the base-pass norm bounds, far above their rounding


@dataclass
class ContourNodes:
    """Quadrature nodes z with complex dz weights along the contour."""

    alpha_prime: float
    z: np.ndarray
    dz_weight: np.ndarray
    on_arc: np.ndarray  # True on the arc, False on the two straight sides
    k_arc: int
    k_line: int

    def __len__(self) -> int:
        return self.z.size


def _panel_nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights of the panels [a_j, b_j], one row per panel."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS


def _line_edges(length: float, panels: int) -> np.ndarray:
    # geometric grading toward s = 0 with ratio 2
    edges = length * 2.0 ** np.arange(-panels, 1.0)
    edges[0] = 0.0
    return edges


def build_contour(alpha_prime: float, k_arc: int = 32, k_line: int = 16) -> ContourNodes:
    """Composite quadrature nodes on the boundary of D(alpha').

    k_arc and k_line are panel counts (16 Gauss nodes each) for the arc and
    for each straight side.
    """
    if not 0.0 < alpha_prime < math.pi / 2:
        raise DomainError(f"alpha' must lie in (0, pi/2), got {alpha_prime}")
    if k_arc < 8 or k_line < 8:
        raise InvalidInputError("need at least 8 panels per segment")

    edges = _line_edges(math.cos(alpha_prime), k_line)
    s, w = _panel_nodes(edges[:-1], edges[1:])

    # vertex -> A
    out = -np.exp(-1j * alpha_prime)

    # A -> B, counterclockwise
    t0, t1 = math.pi / 2 - alpha_prime, 3 * math.pi / 2 + alpha_prime
    j = np.arange(k_arc)
    t, w_arc = _panel_nodes(t0 + (t1 - t0) * j / k_arc, t0 + (t1 - t0) * (j + 1) / k_arc)
    arc = math.sin(alpha_prime) * np.exp(1j * t)

    # B -> vertex: s runs cos(alpha') -> 0, i.e. minus the 0 -> cos(alpha') integral
    back = -np.exp(1j * alpha_prime)

    return ContourNodes(
        alpha_prime=alpha_prime,
        z=np.concatenate([1.0 + s * out, arc, 1.0 + s[:, ::-1] * back], axis=None),
        dz_weight=np.concatenate([w * out, w_arc * 1j * arc, -w[:, ::-1] * back], axis=None),
        on_arc=np.repeat([False, True, False], _GL_NODES.size * np.array([k_line, k_arc, k_line])),
        k_arc=k_arc,
        k_line=k_line,
    )


def winding_number(contour: ContourNodes, z0: complex) -> complex:
    """(1/2 pi i) integral of dz/(z - z0); 1 for interior z0."""
    return complex(np.sum(contour.dz_weight / (contour.z - z0)) / (2j * math.pi))


def _solve(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(z_j - C)^{-1} stacked over the nodes z, in one np.linalg.solve."""
    eye = np.eye(c.shape[0], dtype=np.complex128)
    return np.linalg.solve(z[:, None, None] * eye - c, eye)


def _resolvent_blocks(c: np.ndarray, contour: ContourNodes):
    """Yield (nodes, (z - C)^{-1} stacked over them, their Frobenius norms) per node block.

    Each block is one stacked solve; a block of _BLOCK nodes holds 1 MiB of
    resolvents at dimension 32.
    """
    for start in range(0, len(contour), _BLOCK):
        nodes = slice(start, start + _BLOCK)
        z = contour.z[nodes]
        try:
            r = _solve(c, z)
        except np.linalg.LinAlgError as exc:
            raise ContourTooCloseError(
                f"resolvent singular at a contour node in z={z[0]}..{z[-1]}"
            ) from exc
        # a non-finite resolvent has a NaN or infinite norm, which fails <=
        fro = np.linalg.norm(r, axis=(1, 2))
        bad = np.flatnonzero(~(fro <= 1e15))
        if bad.size:
            raise ContourTooCloseError(f"resolvent blow-up at contour node z={z[bad[0]]}")
        yield nodes, r, fro


def _norm_bounds(r: np.ndarray, fro: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= ||r_j|| <= hi on the spectral norms of a resolvent block.

    fro holds the Frobenius norms of the r_j; r is overwritten, so call
    this after the quadrature has used the block.  The bounds are those of
    the module docstring, widened by _BOUND_MARGIN, and a node whose bound
    is not finite gets [0, inf].
    """
    s = np.divide(r, fro[:, None, None], out=r)
    g = s.conj().transpose(0, 2, 1) @ s
    for _ in range(3):
        g = g @ g
    f = fro * np.linalg.norm(g, axis=(1, 2)) ** (1.0 / 16.0)
    finite = np.isfinite(f)
    lo = np.where(finite, f * ((1.0 - _BOUND_MARGIN) / r.shape[-1] ** (1.0 / 32.0)), 0.0)
    return lo, np.where(finite, f * (1.0 + _BOUND_MARGIN), np.inf)


def _evaluate_many(fs, c: np.ndarray, contour: ContourNodes, bounds: bool = False):
    """The quadrature sums of fs on one node set, and the rows lo, hi of _norm_bounds if asked."""
    z, dim = contour.z, c.shape[0]
    weighted = [np.broadcast_to(f(z), z.shape) * contour.dz_weight for f in fs]
    acc = np.zeros((len(fs), dim * dim), dtype=np.complex128)
    lohi = np.empty((2, len(contour))) if bounds else None
    for nodes, block, fro in _resolvent_blocks(c, contour):
        flat = block.reshape(-1, dim * dim)
        # one product per function: a sum over the nodes never mixes two functions
        for a, w in zip(acc, weighted):
            a += w[nodes] @ flat
        if bounds:
            lohi[:, nodes] = _norm_bounds(block, fro)
    return list(acc.reshape((len(fs),) + c.shape) / (2j * math.pi)), lohi


def _majorant_ratios(contour: ContourNodes, alpha: float, dist, norms):
    """The node-wise ratios behind the three maxima of contour_norm_bound_check, for
    the resolvent norms ``norms``: on the arc, on the two lines, and times
    dist = dist(z, D(alpha)) at every node."""
    arc = contour.on_arc
    sin_gap = math.sin(contour.alpha_prime - alpha)
    arc_major = 1.0 / (math.cos(contour.alpha_prime) * sin_gap)
    # np.hypot, not np.abs: it rounds |w| as the scalar abs does
    w = (1.0 - contour.z)[~arc]
    return norms[arc] / arc_major, norms[~arc] * np.hypot(w.real, w.imag) * sin_gap, norms * dist


def _majorant_candidates(contour: ContourNodes, alpha: float, dist, lo, hi) -> np.ndarray:
    """Indices of the nodes at which a maximum of contour_norm_bound_check can sit.

    For each of its three maxima, a node is kept when its ratio at hi reaches
    the largest ratio at lo.  The ratios are those of the check, and rounding
    is monotone, so every node that attains a maximum is kept.
    """
    arc = contour.on_arc
    groups = (np.flatnonzero(arc), np.flatnonzero(~arc), np.arange(len(contour)))
    lows = _majorant_ratios(contour, alpha, dist, lo)
    highs = _majorant_ratios(contour, alpha, dist, hi)
    kept = np.zeros(len(contour), dtype=bool)
    for group, low, up in zip(groups, lows, highs):
        kept[group[up >= np.max(low)]] = True
    return np.flatnonzero(kept)


def riesz_dunford_many(
    fs, c, contour: ContourNodes, alpha: float
) -> tuple[list[np.ndarray], ContourCheckReport]:
    """Evaluate several functions of C on a shared resolvent sweep, and check the majorants.

    Each f in fs is called once per pass with the 1-D complex array of the
    pass's nodes, and must return an array of that shape or a scalar
    constant, as a NumPy ufunc does.  Each block of 64 nodes then adds one
    matrix product per function.

    Returns (values, report): values[i] approximates fs[i](C), and report is
    contour_norm_bound_check on the given contour for 0 <= alpha < alpha'.
    The base pass bounds ||(z_j - C)^{-1}|| at every node; only the nodes
    whose bounds let them hold one of the check's three maxima are solved
    again, in stacks of 64, for an exact norm, and every other node enters
    the check as 0.  Each maximum sits at a kept node, so the report equals
    the one of exact norms at all nodes bit for bit; the distances
    dist(z_j, D(alpha)) are taken once, for both.  The node set is
    doubled until every value agrees with its previous refinement to
    CONTOUR_QUAD_TOL in spectral norm.  Raises InvalidInputError for an
    alpha outside [0, alpha') before solving, and ContourTooCloseError when
    the quadrature takes more than CONTOUR_NODE_CAP nodes.
    """
    _check_alpha(alpha, contour.alpha_prime)
    a = linalg.as_operator(c)
    results, (lo, hi) = _evaluate_many(fs, a, contour, bounds=True)
    dist = numrange.distance_to_D_alpha(contour.z, alpha)
    kept = _majorant_candidates(contour, alpha, dist, lo, hi)
    rnorm = np.zeros(len(contour))
    for start in range(0, kept.size, _BLOCK):  # _BLOCK at a time bounds the memory
        chunk = kept[start:start + _BLOCK]
        rnorm[chunk] = linalg.op_norms(_solve(a, contour.z[chunk]))
    report = _check_report(contour, alpha, dist, rnorm)
    while True:
        contour = build_contour(contour.alpha_prime, 2 * contour.k_arc, 2 * contour.k_line)
        refined, _ = _evaluate_many(fs, a, contour)
        changes = linalg.op_norms(np.subtract(refined, results))
        if all(change < CONTOUR_QUAD_TOL for change in changes):
            return refined, report
        if len(contour) * 2 > CONTOUR_NODE_CAP:
            raise ContourTooCloseError(
                f"contour quadrature not within {CONTOUR_QUAD_TOL:g} "
                f"after {len(contour)} nodes (budget {CONTOUR_NODE_CAP})"
            )
        results = refined


@dataclass
class ContourCheckReport:
    """Node-wise resolvent-majorant ratios along the contour."""

    worst_ratio_arc: float
    worst_ratio_lines: float
    worst_dist_ratio: float
    passed: bool


def _check_alpha(alpha: float, alpha_prime: float) -> None:
    if not 0.0 <= alpha < alpha_prime:
        raise InvalidInputError("need 0 <= alpha < alpha' < pi/2")


def contour_norm_bound_check(contour: ContourNodes, rnorm, alpha: float) -> ContourCheckReport:
    """Check the resolvent majorants used in the contour norm estimates.

    rnorm holds one resolvent norm ||(z - C)^{-1}|| per node of the contour;
    nothing is solved here.  riesz_dunford_many passes exact norms at the
    nodes that can hold a maximum and 0 at the others.  With alpha' the
    contour's angle, the majorant on the arc is 1/(cos(alpha') sin(alpha' -
    alpha)), on the lines 1/(|1 - z| sin(alpha' - alpha)).  The report also
    carries the distance-based bound ratio ||(z-C)^{-1}|| * dist(z, D(alpha)).
    """
    _check_alpha(alpha, contour.alpha_prime)
    rnorm = np.asarray(rnorm, dtype=float)
    if rnorm.shape != (len(contour),):
        raise InvalidInputError(
            f"need one resolvent norm per contour node ({len(contour)}), got shape {rnorm.shape}"
        )
    return _check_report(contour, alpha, numrange.distance_to_D_alpha(contour.z, alpha), rnorm)


def _check_report(contour: ContourNodes, alpha: float, dist, rnorm) -> ContourCheckReport:
    """contour_norm_bound_check for the distances dist(z, D(alpha)) of the nodes."""
    worst_arc, worst_lines, worst_dist = (
        float(np.max(ratios)) for ratios in _majorant_ratios(contour, alpha, dist, rnorm)
    )
    majorant_ok = max(worst_arc, worst_lines) <= 1.0 + MAJORANT_TOL
    passed = majorant_ok and worst_dist <= 1.0 + MAJORANT_DIST_TOL
    return ContourCheckReport(
        worst_ratio_arc=worst_arc,
        worst_ratio_lines=worst_lines,
        worst_dist_ratio=worst_dist,
        passed=passed,
    )
