"""Functional calculus by quadrature along the boundary of D(alpha').

The positively oriented contour is traversed vertex -> A -> arc -> B -> vertex:

    line_minus  z(s) = 1 - s e^{-i alpha'},   s: 0 -> cos(alpha')
    arc         z(t) = e^{it} sin(alpha'),    t: pi/2 - alpha' -> 3pi/2 + alpha'
    line_plus   z(s) = 1 - s e^{+i alpha'},   s: cos(alpha') -> 0

Quadrature is composite 16-point Gauss-Legendre.  Arc panels are uniform;
line panels are geometrically graded toward the vertex, where the resolvent
may grow while the integrands of interest vanish.  Gauss nodes are interior,
so the vertex z = 1 itself is never sampled.

Each function is called once per pass, on the 1-D array of all the pass's
nodes, so it must broadcast like a NumPy ufunc (a scalar constant is
allowed).  The resolvents are solved in stacks of S = _stack_nodes(d)
nodes, whole multiples of 64 holding up to 128 KiB of rows (2048 nodes at
d = 2, 128 at d = 8, 64 from d = 12 up), each with one solve, one blow-up
check and one step of the majorant search below.  Each stack adds one
matrix product of all the functions' weights and its rows to the sums, in
stack order, and a lone function's weights are padded with a zero row.
The stacks thus fix the bits of every value: other stack sizes would
round otherwise.  A function gets the same bits alone as among others,
and the values do not follow the BLAS thread count.  That is measured,
not proved: with OpenBLAS 0.3.31 on 2 cores, the reports of the
contour_calc benchmark's 240 calls are byte-identical under one and two
threads, while a one-row product, which OpenBLAS runs as a vector-matrix
product, gave other last bits under each.

The base pass's truncation error is proved when each f comes with a bound
on discs.  Map a panel, s = mu + h x, to x in [-1, 1], and let E_rho be
the Bernstein ellipse with semi-axes A = (rho + 1/rho)/2 and B = (rho -
1/rho)/2.  Where the image of E_rho misses W(C), the integrand G(x) = h
f(z(s)) (z(s) - C)^{-1} z'(s) / (2 pi i) is analytic on E_rho, so its
Chebyshev coefficients have ||a_k|| <= 2 M rho^-k, M = sup ||G|| there
(Trefethen, Approximation Theory and Approximation Practice, 2013, Thms
8.1 and 19.3; the proof holds in any norm, so for matrices).  m = 16 Gauss
nodes integrate T_k exactly for k < 2m and err by at most 2 + 2/(k^2 - 1)
on it beyond, so the panel errs by at most 4 (1 + 1/(4 m^2 - 1))
rho^-2m M / (1 - 1/rho).  By ||(z - C)^{-1}|| <= 1/dist(z, W(C)) (as for U
below), M <= F max|z'| h / (2 pi l): F bounds |f| on a disc that holds the
image, f analytic there, and l is ``numrange.support_distance`` from the
outer 32-gon to a container of the image, with its support values and
rounding slack.  On a line panel the image is the ellipse with semi-axes
hA along the side and hB across it, |z'| = 1, and the disc has radius hA
about z(mu); on an arc panel the image and the disc are the disc about
z(mu) of radius sin(alpha') hA e^{hB}, and |z'| <= sin(alpha') e^{hB}.
Each panel takes its least bound over rho = 2^(k/4), k = 1..24, a rho
whose container may meet W(C) (l <= 0) giving inf, and the sum over the
panels, widened by _BOUND_MARGIN, bounds each value's truncation error in
spectral norm.

The bound needs no solve, so it picks the contour before any node is
solved.  The trials are the contours of _TRIALS, coarsest first: (8, 16),
(16, 16), (32, 16) and (64, 32) panels (arc, side), that is 640, 768,
1024 and 2048 nodes.  The first on which every function's bound lies
below CONTOUR_QUAD_TOL is solved, and its base values are returned: its
nodes and the seeds below.  The last grades its sides down to a panel of
length cos(alpha') 2^-31 at the vertex, against 2^-15 for the others, so
it proves draws with an eigenvalue of C next to z = 1 that they leave
open.  Where no trial is proved, and without bounds on f,
build_contour(alpha')'s (32, 16) contour is solved and the node set then
doubled until two passes agree to CONTOUR_QUAD_TOL, every node of each
refinement solved (1024 + 2048 nodes when one refinement agrees); a
heuristic, as all but the innermost graded line panel of a side are the
same at every level.  The bound covers truncation only, since refining
cannot reduce rounding.  The rounding adds, in spectral norm, about sum_j
|f(z_j) w_j| ||R_j|| / (2 pi) times d g u kappa_j for the solves (u =
2^-53, g the growth factor of LU and kappa_j the condition of z_j - C,
under the growth condition of U below) and times (S + N/S) sqrt(d) u
for the products of the stacks of S nodes and their sum over the N nodes.

The majorant check runs on the contour whose base pass was solved, and
reports that contour's winding error about 0.2 with it.  It needs three
maxima over the base nodes, not every norm: of the ratio of
||(z_j - C)^{-1}|| to the majorant on the arc, the same on the lines, and
of ||(z_j - C)^{-1}|| dist(z_j, D(alpha)) at every node.  So the base
pass searches for them while it holds each stack's rows R, and takes
exact norms (SVDs of those rows) only where a maximum can still sit.
Three upper bounds serve, each widened by the relative margin 1e-6, far
above its rounding and that of the SVD (of relative order d^2 u, u =
2^-53).

- U, the polygon bound, is known before any node is solved.  With h_theta
  the support values of W(C) at 32 angles, raised by their backward
  error (``numrange.outer_polygon``: one eigvalsh of 16 Hermitian parts a
  call, which the quadrature bound reads too), ``numrange.support_distance``
  gives l_j = max_theta (Re(e^{i theta} z_j) - h_theta), lowered by its
  rounding.  For every unit x, ||(z_j - C) x|| >= |z_j - x* C x| >=
  dist(z_j, W(C)) >= l_j, so ||(z_j - C)^{-1}|| <= 1 / l_j (Trefethen and
  Embree, Spectra and Pseudospectra, 2005, ch. 17).  The search compares
  U with norms of computed resolvents, whose relative error is of order
  d rho u kappa, with rho the growth factor of LU with partial pivoting
  and kappa = ||z_j - C|| ||(z_j - C)^{-1}|| <= (|z_j| + ||C||_F) / l_j
  (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 9
  and 14).  So U_j = (1 + 1e-6) / l_j only where l_j lies above the guard
  2^10 d^2 u (|z_j| + ||C||_F) / 1e-6, which keeps d u kappa below
  2^-10 1e-6 / d: the error stays under the margin while rho < 2^10 d
  (outside the guard it stays below 2 even for C = I - W/20, W the
  Wilkinson growth matrix, whose nodes near z = 1 grow by 2^31 but lie
  in the outer polygon of W(C)); elsewhere U_j = inf.
- F = ||R||_F is taken by the blow-up check.
- f is taken on the nodes that F and U leave.  With S = R / F and
  G = S^H S, three squarings give G^8, and f = F ||G^8||_F^(1/16)
  satisfies ||R|| <= f <= d^(1/32) ||R||, because ||G^8||_2 = ||S||^16 <=
  ||G^8||_F <= sqrt(d) ||G^8||_2.  The scaling keeps ||G^8||_2 in
  [d^-8, 1], so G^8 neither underflows nor overflows for any resolvent
  the blow-up check lets through.

Before the base pass the search solves its seeds: in each maximum, the
node of largest ratio at U, at most 3 nodes in one stack.  Their exact
ratios start the largest exact ratio so far (the best) of each maximum.
Per stack, a node is dropped when it has an exact norm already, or when
its ratios at min(F, U) lie below the best of both its maxima; the
others get f, and each maximum takes exact norms of its nodes in
decreasing order of their ratio at f until the next one lies strictly
below its best.

Each ratio is the norm times or over positive constants of the node,
formed by the same expressions in the search and the check, and
correctly rounded products and quotients are monotone.  So a node's
ratio at an upper bound is at least its exact ratio, the best is always
an exact ratio of some node, and a node left out has an exact ratio
below the best of its maximum at that time, so below the maximum
itself.  Every node at which a maximum sits thus has an exact norm, and
the others enter the check as 0 without changing it: the check's maxima
and verdict are those of exact norms at all nodes, bit for bit, given
the growth condition on rho at the nodes U screens.  The
check reports resolvent-majorant ratios only; a pointwise integrand such
as |z^n - e^{n(z-1)}| is for the caller to evaluate on the nodes ``z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, numrange
from .errors import ContourTooCloseError, DomainError, InvalidInputError
from .tolerances import CONTOUR_NODE_CAP, CONTOUR_QUAD_TOL, MAJORANT_DIST_TOL, MAJORANT_TOL

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_STACK_BYTES = 128 * 1024  # resolvents per stacked solve, product of weights, blow-up check and majorant search
_BOUND_MARGIN = 1e-6  # relative widening of the base-pass norm and quadrature bounds, far above their rounding
_SVD_BATCH = 4  # exact norms per op_norms call of the majorant search
_GUARD = 2.0**10  # the polygon bound's guard, in units of d^2 u (|z| + ||C||_F) / _BOUND_MARGIN
_RHOS = 2.0 ** (np.arange(1, 25) / 4.0)  # the Bernstein ellipses E_rho each panel's error bound tries
_TRIALS = ((8, 16), (16, 16), (32, 16), (64, 32))  # (arc, side) panels of the contours the proof tries, in order


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
    for name, panels in (("k_arc", k_arc), ("k_line", k_line)):
        # bool is an int subclass, but True is no panel count
        if not isinstance(panels, (int, np.integer)) or isinstance(panels, bool) or panels < 8:
            raise InvalidInputError(f"{name} must be an integer >= 8 panels, got {panels!r}")
    return _build_contour(alpha_prime, k_arc, k_line)


def _build_contour(alpha_prime: float, k_arc: int, k_line: int) -> ContourNodes:
    """build_contour without its checks, for the base contours of riesz_dunford_many.

    A base contour is no refinement, and bench/spans.py counts every
    build_contour call inside riesz_dunford_many as one.
    """
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
    """(z_j - C)^{-1} stacked over the nodes z, in one np.linalg.inv.

    np.linalg.inv and np.linalg.solve(., I) make the same LAPACK call on the
    same matrices, so they round alike; inv does not copy I per node.
    """
    eye = np.eye(c.shape[0], dtype=np.complex128)
    return np.linalg.inv(z[:, None, None] * eye - c)


def _stack_nodes(dim: int) -> int:
    """Nodes per stack: as many whole 64-node blocks as fit _STACK_BYTES, at least one."""
    return 64 * max(1, _STACK_BYTES // (64 * 16 * dim * dim))


def _checked_norms(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Frobenius norms of the resolvents r at the nodes z; raises at the first that blows up."""
    # np.linalg.norm(r, axis=(1, 2)) to the bit, with one temporary stack, not two
    sq = np.conj(r)
    fro = np.sqrt(np.add.reduce(np.multiply(sq, r, out=sq).real, axis=(1, 2)))
    # a non-finite resolvent has a NaN or infinite norm, which fails <=
    bad = np.flatnonzero(~(fro <= 1e15))
    if bad.size:
        raise ContourTooCloseError(f"resolvent blow-up at contour node z={z[bad[0]]}")
    return fro


def _checked_solve(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_solve and _checked_norms at the nodes z of one stack.

    A singular node raises with the z range of the whole stack, before any
    blow-up in it is looked for, and a blow-up names the first node of the
    stack that blows up.
    """
    try:
        r = _solve(c, z)
    except np.linalg.LinAlgError as exc:
        raise ContourTooCloseError(f"resolvent singular at a contour node in z={z[0]}..{z[-1]}") from exc
    return r, _checked_norms(r, z)


def _resolvent_blocks(c: np.ndarray, contour: ContourNodes):
    """Yield (nodes, (z - C)^{-1} stacked over them, their Frobenius norms) per stack.

    The stacks cover the nodes in order; each is one stacked solve of up to
    _stack_nodes(dim) nodes.
    """
    step = _stack_nodes(c.shape[0])
    for lo in range(0, len(contour), step):
        nodes = slice(lo, min(lo + step, len(contour)))
        yield (nodes, *_checked_solve(c, contour.z[nodes]))


def _norm_bounds(r: np.ndarray, fro: np.ndarray) -> np.ndarray:
    """Upper bounds on the spectral norms ||r_j|| of a resolvent stack.

    fro holds the Frobenius norms of the r_j; r is overwritten, so pass a
    copy of rows that are still needed.  The bounds are those of the module
    docstring, widened by _BOUND_MARGIN, and a node whose bound is not
    finite gets inf.
    """
    # F = 0 divides by 1: S = R = 0 then bounds the norm 0 by 0 exactly
    s = np.divide(r, np.where(fro > 0.0, fro, 1.0)[:, None, None], out=r)
    g = np.empty_like(s)
    quarter = -(-len(s) // 4)
    for j in range(0, len(s), quarter):  # S^H a quarter of the stack at a time
        part = s[j:j + quarter]
        np.matmul(part.conj().transpose(0, 2, 1), part, out=g[j:j + quarter])
    # square through the stack G frees, and take ||G^8||_F^2 in place
    for a, out in ((g, r), (r, g), (g, r)):
        np.matmul(a, a, out=out)
    v = r.view(np.float64)
    f = fro * np.sum(np.square(v, out=v), axis=(1, 2)) ** (1.0 / 32.0)
    return np.where(np.isfinite(f), f * (1.0 + _BOUND_MARGIN), np.inf)


def _weights(fs, contour: ContourNodes) -> np.ndarray:
    """f(z) dz at every node of contour, one row per f in fs, from one call of f on all the nodes.

    An f whose value is neither a scalar nor one value per node raises
    InvalidInputError.
    """
    z = contour.z
    rows = np.empty((len(fs), z.size), dtype=np.complex128)
    for i, (row, f) in enumerate(zip(rows, fs)):
        value = f(z)
        try:
            value = np.broadcast_to(value, z.shape)
        except ValueError:
            raise InvalidInputError(
                f"fs[{i}] returned shape {np.shape(value)} on {z.size} nodes; "
                "it must return a scalar or one value per node"
            ) from None
        row[...] = value * contour.dz_weight
    return rows


def _evaluate_many(weights, c: np.ndarray, contour: ContourNodes, visit=None):
    """One quadrature pass over contour: the sums of weights times resolvents, stack by stack.

    values[i] is the sum of weights[i] (a node array of f(z) dz) times
    (z - C)^{-1} over the nodes, over 2 pi i; each stack of
    _stack_nodes(dim) nodes adds one matrix product of all the weights and
    its rows, in stack order.  A lone weight is padded with a zero row, so
    that it is summed by the same product as among others.  The stacks fix
    the bits of every value; the BLAS thread count was measured not to
    (module docstring).  visit, if given, is called as visit(nodes, rows,
    Frobenius norms) on each stack once the pass is done with it, and must
    not change the rows.
    """
    dim = c.shape[0]
    weights = np.reshape(weights, (-1, len(contour)))
    count = len(weights)
    if count == 1:  # a one-row product runs as a vector-matrix product, whose bits follow the BLAS thread count
        weights = np.concatenate([weights, np.zeros_like(weights)])
    acc = np.zeros((len(weights), dim * dim), dtype=np.complex128)
    for nodes, r, fro in _resolvent_blocks(c, contour):
        acc += weights[:, nodes] @ r.reshape(len(r), -1)
        if visit:
            visit(nodes, r, fro)
    return list(acc[:count].reshape((count,) + c.shape) / (2j * math.pi))


def _majorant_ratios(contour: ContourNodes, alpha: float, dist):
    """The node-wise ratios behind the three maxima of _check_report.

    Returns ratios(norms, nodes), which gives, for the resolvent norms
    ``norms`` at the nodes ``nodes``, each node's side ratio (to the arc or
    the line majorant) and its distance ratio, times dist = dist(z, D(alpha)).
    Each is the norm times or over positive constants of the node, in a
    fixed order, so it rounds the same at any node set and is monotone in
    the norm.
    """
    arc = contour.on_arc
    sin_gap = math.sin(contour.alpha_prime - alpha)
    arc_major = 1.0 / (math.cos(contour.alpha_prime) * sin_gap)
    # np.hypot, not np.abs: it rounds |w| as the scalar abs does
    w = (1.0 - contour.z)[~arc]
    line = np.ones(len(contour))  # |1 - z| on the lines; 1 on the arc, where it is not read
    line[~arc] = np.hypot(w.real, w.imag)

    def ratios(norms, nodes):
        side = np.where(arc[nodes], norms / arc_major, norms * line[nodes] * sin_gap)
        return side, norms * dist[nodes]

    return ratios


def _polygon_bounds(c: np.ndarray, z: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Upper bounds U_j on ||(z_j - C)^{-1}|| from the outer 32-gon of W(C), before any solve.

    With l_j from ``numrange.support_distance`` of polygon = ``numrange.outer_polygon(c)``,
    U_j = (1 + _BOUND_MARGIN) / l_j where l_j lies above the guard of the
    module docstring, and inf elsewhere.
    """
    ell = numrange.support_distance(polygon, z)
    scale = _GUARD * c.shape[0] ** 2 * 2.0**-53 / _BOUND_MARGIN
    far = ell > scale * (np.abs(z) + np.linalg.norm(c))
    return np.where(far, (1.0 + _BOUND_MARGIN) / np.where(far, ell, 1.0), np.inf)


class _MaximaSearch:
    """Exact norms at every node where a maximum of _check_report can sit, stack by stack.

    The base pass calls it on each stack's rows; the search is the one of
    the module docstring.  Node j belongs to its side group (0 on the arc,
    1 on the lines) and to group 2 (every node); best holds each group's
    largest exact ratio so far, and rnorm the exact norms taken, 0
    elsewhere.  upper holds the polygon bounds U of every node, from the
    support values ``polygon`` of numrange.outer_polygon, and a node with an
    exact norm is not taken again; c and z, the operator and the base
    nodes, are kept for ``seed``.  _norm_bounds works on a copy of
    the rows it bounds, and exact norms are taken _SVD_BATCH at a time.
    """

    def __init__(self, c: np.ndarray, contour: ContourNodes, alpha: float, dist, polygon):
        self.ratios = _majorant_ratios(contour, alpha, dist)
        self.side = np.where(contour.on_arc, 0, 1)
        self.best = np.zeros(3)
        self.rnorm = np.zeros(len(contour))
        self.c, self.z = c, contour.z
        self.upper = _polygon_bounds(c, contour.z, polygon)

    def seed(self) -> None:
        """Exact norms at the node of largest ratio at U in each maximum: at most 3 nodes, one solve.

        A seed that is singular or blows up seeds nothing: the base pass
        raises at its own stack, in stack order.
        """
        side, far = self.ratios(self.upper, slice(None))
        # every ratio is >= 0, so -1 leaves the other side's nodes out of a side's pick
        picks = {int(np.argmax(np.where(self.side == group, side, -1.0))) for group in (0, 1)}
        at = np.array(sorted(picks | {int(np.argmax(far))}))
        try:
            r, _ = _checked_solve(self.c, self.z[at])
        except ContourTooCloseError:
            return
        self._take(at, r)

    def __call__(self, nodes: slice, r: np.ndarray, fro: np.ndarray) -> None:
        up_side, up_far = self.ratios(np.minimum(fro * (1.0 + _BOUND_MARGIN), self.upper[nodes]), nodes)
        screened = (up_side < self.best[self.side[nodes]]) & (up_far < self.best[2])
        left = np.flatnonzero(~screened & (self.rnorm[nodes] == 0.0))
        if not left.size:
            return
        at = left + nodes.start
        side = self.side[at]
        up_side, up_far = self.ratios(_norm_bounds(r[left], fro[left]), at)
        taken = np.zeros(left.size, dtype=bool)
        for group, upper in ((0, up_side), (1, up_side), (2, up_far)):
            order = np.flatnonzero(~taken & ((side == group) | (group == 2)))
            order = order[np.argsort(-upper[order], kind="stable")]
            for start in range(0, order.size, _SVD_BATCH):
                batch = order[start:start + _SVD_BATCH]
                batch = batch[~(upper[batch] < self.best[group])]
                if not batch.size:
                    break
                taken[batch] = True
                self._take(at[batch], r[left[batch]])

    def _take(self, at: np.ndarray, rows: np.ndarray) -> None:
        norms = np.array(linalg.op_norms(rows))
        self.rnorm[at] = norms
        side, far = self.ratios(norms, at)
        np.maximum.at(self.best, self.side[at], side)
        self.best[2] = max(self.best[2], np.max(far))


def _panel_images(contour: ContourNodes):
    """The images z(E_rho) of contour's panels' Bernstein ellipses, for rho in _RHOS, as the bound reads them.

    The panels are those of the two sides, line_minus then line_plus, and
    then those of the arc, as build_contour places them.  Returns (center,
    d, half, speed, reach, across): per panel its midpoint z(mu), the
    direction d of z(s) (1 on the arc) and its half-length h in s or t;
    and, with one row per rho and one column per panel, a bound on |z'|
    over the image and the ellipse about center with semi-axes reach along
    d and across across it, which holds the image, as does the disc of
    radius reach about center.
    """
    ap, k_line, k_arc = contour.alpha_prime, contour.k_line, contour.k_arc
    edges = _line_edges(math.cos(ap), k_line)
    t_step = (math.pi + 2.0 * ap) / k_arc
    t_mid = math.pi / 2 - ap + t_step * (np.arange(k_arc) + 0.5)
    d = np.concatenate([np.repeat([-np.exp(-1j * ap), -np.exp(1j * ap)], k_line), np.ones(k_arc)])
    center = np.concatenate([1.0 + np.tile(edges[:-1] + edges[1:], 2) * 0.5 * d[:2 * k_line],
                             math.sin(ap) * np.exp(1j * t_mid)])
    half = np.concatenate([np.tile(0.5 * (edges[1:] - edges[:-1]), 2), np.full(k_arc, 0.5 * t_step)])
    on_arc = np.arange(center.size) >= 2 * k_line
    rho = _RHOS[:, None]
    big_a, big_b = 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho)
    speed = np.where(on_arc, math.sin(ap) * np.exp(half * big_b), 1.0)
    reach = half * big_a * speed
    across = np.where(on_arc, reach, half * big_b)
    return center, d, half, speed, reach, across


def _quadrature_bounds(f_bounds, contour: ContourNodes, polygon: np.ndarray) -> list[float]:
    """Upper bounds on the truncation error of each function's quadrature on contour, in spectral norm.

    f_bounds[i](center, radius) bounds |fs[i]| on the discs |z - center| <=
    radius, given as arrays of one shape; polygon is numrange.outer_polygon(C).
    Each panel takes the least bound of the module docstring over the
    ellipses E_rho of _RHOS, inf where the container of every ellipse's
    image may meet W(C), and the sum over the panels is widened by
    _BOUND_MARGIN, far above the effect of rounding the panels' geometry
    (relative order u).
    """
    center, d, half, speed, reach, across = _panel_images(contour)
    ell = numrange.support_distance(polygon, center, (d, reach, across))
    rho, m = _RHOS[:, None], _GL_NODES.size
    gauss = 4.0 * (1.0 + 1.0 / (4 * m * m - 1)) * rho ** (-2.0 * m) / (1.0 - 1.0 / rho)
    scale = gauss * speed * half / (2.0 * math.pi * np.where(ell > 0.0, ell, 1.0))
    centers = np.broadcast_to(center, reach.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        per = scale * np.array([bound(centers, reach) for bound in f_bounds])
        per = np.min(np.where(ell > 0.0, per, np.inf), axis=1)
    return [float(v) for v in np.sum(per, axis=1) * (1.0 + _BOUND_MARGIN)]


def _proved_contour(f_bounds, alpha_prime: float, polygon: np.ndarray) -> ContourNodes | None:
    """The first contour of _TRIALS on which every function's _quadrature_bounds lies below CONTOUR_QUAD_TOL.

    None if no trial is proved; nothing is solved.
    """
    for k_arc, k_line in _TRIALS:
        trial = _build_contour(alpha_prime, k_arc, k_line)
        if all(bound < CONTOUR_QUAD_TOL for bound in _quadrature_bounds(f_bounds, trial, polygon)):
            return trial
    return None


def riesz_dunford_many(
    fs, c, alpha_prime: float, alpha: float, f_bounds=None
) -> tuple[list[np.ndarray], ContourCheckReport]:
    """Evaluate several functions of C on a shared resolvent sweep, and check the majorants.

    Each f in fs is called once per pass with the 1-D complex array of the
    pass's nodes, and must return an array of that shape or a scalar
    constant, as a NumPy ufunc does; it is called on the base nodes before
    any node is solved.  Each stack of resolvents then adds one matrix
    product of all the functions' weights and its rows.

    Returns (values, report): values[i] approximates fs[i](C), and report is
    the majorant check ``_check_report`` for 0 <= alpha < alpha' on the
    base contour, the one whose base pass was solved.  Before the base
    pass, the majorant search bounds every ||(z_j - C)^{-1}|| by the outer
    32-gon of W(C) and solves its seeds, at most 3 nodes; the base pass
    then takes exact norms from its own rows only at the nodes where, by
    the bounds of the module docstring, one of the check's three maxima can
    still sit, and every other node enters the check as 0.  Each maximum
    sits at a node with an exact norm, so the report equals the one of
    exact norms at all nodes bit for bit, as long as LU with partial
    pivoting keeps its growth factor on z_j - C below about 2^10 d at the
    nodes the polygon bound screens (the guard of the module docstring);
    only the seeds are solved twice; the distances dist(z_j, D(alpha)) are
    taken once, for both.

    f_bounds, if given, holds one bound per function: f_bounds[i](center,
    radius) returns, for arrays of centers and radii, upper bounds on
    |fs[i]| over the closed discs |z - center| <= radius, on which fs[i]
    must be analytic.  Before anything is solved, the proof of the module
    docstring runs on the contours of _TRIALS in order, (8, 16), (16, 16),
    (32, 16) and (64, 32) panels.  The first on which the proved truncation
    error of every value lies below CONTOUR_QUAD_TOL is the base contour,
    and its base values are returned: 640, 768, 1024 or 2048 solves and
    the seeds.  Otherwise, and always without f_bounds, the base contour is
    build_contour(alpha')'s (32, 16), and the node set is doubled until
    every value agrees with its previous refinement to CONTOUR_QUAD_TOL in
    spectral norm, and the last refinement's values are returned; each
    refinement calls every f on its nodes and solves all of them.  Raises
    InvalidInputError before solving unless 0 <= alpha < alpha' < pi/2, and
    for an empty fs, f_bounds of another length, or an f whose value is
    neither a scalar nor one value per node, and ContourTooCloseError when
    the quadrature takes more than CONTOUR_NODE_CAP nodes.
    """
    if not 0.0 <= alpha < alpha_prime < math.pi / 2:
        raise InvalidInputError("need 0 <= alpha < alpha' < pi/2")
    fs = list(fs)
    if not fs:
        raise InvalidInputError("fs must hold at least one function")
    if f_bounds is not None and len(f_bounds := list(f_bounds)) != len(fs):
        raise InvalidInputError(f"f_bounds holds {len(f_bounds)} bounds for {len(fs)} functions")
    a = linalg.as_operator(c)
    polygon = numrange.outer_polygon(a)
    proved = None if f_bounds is None else _proved_contour(f_bounds, alpha_prime, polygon)
    base = _build_contour(alpha_prime, 32, 16) if proved is None else proved
    weights = _weights(fs, base)
    dist = numrange.distance_to_D_alpha(base.z, alpha)
    search = _MaximaSearch(a, base, alpha, dist, polygon)
    search.seed()
    results = _evaluate_many(weights, a, base, visit=search)
    del weights  # the base pass's weights are not needed again
    report = _check_report(base, alpha, dist, search.rnorm)
    if proved is not None:
        return results, report
    fine = base
    while True:
        fine = build_contour(fine.alpha_prime, 2 * fine.k_arc, 2 * fine.k_line)
        refined = _evaluate_many(_weights(fs, fine), a, fine)
        changes = linalg.op_norms(np.subtract(refined, results))
        if all(change < CONTOUR_QUAD_TOL for change in changes):
            return refined, report
        if len(fine) * 2 > CONTOUR_NODE_CAP:
            raise ContourTooCloseError(
                f"contour quadrature not within {CONTOUR_QUAD_TOL:g} "
                f"after {len(fine)} nodes (budget {CONTOUR_NODE_CAP})"
            )
        results = refined


@dataclass
class ContourCheckReport:
    """Node-wise resolvent-majorant ratios along the contour."""

    worst_ratio_arc: float
    worst_ratio_lines: float
    worst_dist_ratio: float
    passed: bool
    winding_error: float  # |winding number about 0.2 - 1| of the contour checked


def _check_report(contour: ContourNodes, alpha: float, dist, rnorm) -> ContourCheckReport:
    """Check the resolvent majorants used in the contour norm estimates.

    rnorm holds one resolvent norm ||(z - C)^{-1}|| per node of the contour,
    as an array, and dist the distances dist(z, D(alpha)) of the nodes;
    nothing is solved here.  riesz_dunford_many passes exact norms at the
    nodes that can hold a maximum and 0 at the others.  With alpha' the
    contour's angle, the majorant on the arc is 1/(cos(alpha') sin(alpha' -
    alpha)), on the lines 1/(|1 - z| sin(alpha' - alpha)).  The report also
    carries the distance-based bound ratio ||(z-C)^{-1}|| * dist(z, D(alpha)),
    and the contour's winding error about 0.2, a point of every D(alpha').
    """
    side, far = _majorant_ratios(contour, alpha, dist)(rnorm, slice(None))
    arc = contour.on_arc
    worst_arc, worst_lines, worst_dist = (float(np.max(v)) for v in (side[arc], side[~arc], far))
    majorant_ok = max(worst_arc, worst_lines) <= 1.0 + MAJORANT_TOL
    passed = majorant_ok and worst_dist <= 1.0 + MAJORANT_DIST_TOL
    return ContourCheckReport(
        worst_ratio_arc=worst_arc,
        worst_ratio_lines=worst_lines,
        worst_dist_ratio=worst_dist,
        passed=passed,
        winding_error=abs(winding_number(contour, 0.2 + 0.0j) - 1.0),
    )
