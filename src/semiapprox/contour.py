"""Functional calculus by quadrature along the boundary of D(alpha').

The positively oriented contour is traversed vertex -> A -> arc -> B -> vertex:

    line_minus  z(s) = 1 - s e^{-i alpha'},   s: 0 -> cos(alpha')
    arc         z(t) = e^{it} sin(alpha'),    t: pi/2 - alpha' -> 3pi/2 + alpha'
    line_plus   z(s) = 1 - s e^{+i alpha'},   s: cos(alpha') -> 0

Quadrature is composite 16-point Gauss-Legendre.  Arc panels are uniform;
line panels are geometrically graded toward the vertex, where the resolvent
may grow while the integrands of interest vanish.  Gauss nodes are interior,
so the vertex z = 1 itself is never sampled: the innermost of k line
panels ends at cos(alpha') 2^(1 - k), which must be a normal float, as
below that the edges underflow into panels of length zero at z = 1.

Each function is called once per pass, on the 1-D array of all the pass's
nodes, so it must broadcast like a NumPy ufunc (a scalar constant is
allowed).  A pass solves in one unitary basis of C, reduced once
(_reduce): Q is the Q factor of np.linalg.qr of C's eigenvectors
(np.linalg.eig), so T = Q^H C Q is upper triangular up to rounding, and
every corner T[k:, :k] whose Frobenius norm is at most SCHUR_CUT_TOL d u
||C||_F is cut to zero.  That splits T into diagonal blocks: 1x1 blocks
where the eigenvectors stand apart (every draw of the contour_calc
benchmark), one larger block for a Jordan-like cluster, whose eigenvectors
are nearly parallel, and one whole block, Q = I, where eig fails.  A pass
is then one loop over stacks of S = _stack_nodes(d) nodes, whole
multiples of 64 holding up to 128 KiB of rows (2048 nodes at d = 2, 128
at d = 8, 64 from d = 12 up).  A stack holds (z_j - T)^{-1} with the node
axis last, (d, d, S), filled block row by block row from the bottom up:
a 1x1 block is one reciprocal 1/(z_j - t_ii), a larger one a stacked
np.linalg.inv, and the rows below enter through one matrix product of the
shared T[a:b, b:] a block row.  Each stack then has one blow-up check, one
matrix product of all the functions' weights and its rows, added to the
sums in stack order (a lone function's weights padded with a zero row),
and the exact norms the majorant check below needs; all three read the
stack in Q's basis, as Frobenius and spectral norms are unitarily
invariant, and each sum goes back to C's basis once, as Q S Q^H / (2 pi i).
The reduction and the stacks thus fix the bits of every value: other
stack sizes would round otherwise.  A node's row has the same bits in
every stack of a multiple of 4 nodes, so in any stack of whole 16-node
panels, but not alone (one node to a stack): the products of a 1x1
block's row are vector-matrix products, whose last bits were measured to
follow the stack's node count mod 4.  The
values do not follow the BLAS thread count, and on OpenBLAS's SkylakeX
kernel a function gets the same bits alone as among others; under its
Haswell kernel (OPENBLAS_CORETYPE=Haswell) a lone function's last bits
differ from those it gets among 3 or 10 at d = 2, 5, 16 and 32.  That is
measured, not proved: with OpenBLAS 0.3.31 on 2 cores, the reports of
the contour_calc benchmark's 240 calls are byte-identical under one and
two threads, while a one-row weight product, which OpenBLAS runs as a
vector-matrix product, gave other last bits under each.

A pass's truncation error is proved from a bound on each f over discs.  Map a panel, s = mu + h x, to x in [-1, 1], and let E_rho be
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
solved.  On the sides the resolvent can grow only near the vertex, where
they come nearest W(C), and l_1 = ``numrange.support_distance`` of the
outer 32-gon at z = 1 is a lower bound on dist(1, W(C)) known before any
solve.  The trials are the contours of _TRIALS, coarsest first: (8, k),
(16, k), (32, k) and (64, k) panels (arc, side), that is 16 (a + 2k)
nodes for a arc panels, where k = min(32, max(3, 2 + ceil(log2(cos(alpha')
/ l_1)))), 32 where l_1 <= 0, is the fewest side panels whose innermost,
[0, cos(alpha') 2^(1 - k)], is at most l_1/2 long.  A side of k panels
shares every node beyond that panel, bit for bit, with a side graded
deeper, P > k panels, so the two differ only at nodes within l_1/2 of the
vertex.  There the majorant check's U below is at most 2 (1 + 1e-6) /
l_1, so both its ratios are at most (1 + 1e-6) sin(alpha' - alpha), which
is below 1 unless alpha' - alpha is within 1.5e-3 of pi/2: against any
deeper grading, the side count decides no verdict.  Against a shallower
one (k > P) this proves nothing, as most nodes of the P-panel side's
innermost panel lie beyond l_1/2; that such draws keep their verdicts is
measured, not proved.  The first trial on which every function's bound
lies below CONTOUR_QUAD_TOL is solved, and its values are returned; where
no trial is proved, ContourTooCloseError is raised before any node is
solved.  The bound covers truncation only.  The rounding adds, in
spectral norm, about sum_j |f(z_j) w_j| ||R_j|| / (2 pi) times kappa_j
(eta + d u) for the solves (u = 2^-53, kappa_j the condition of z_j - C),
and times (S + N/S) sqrt(d) u for the products of the stacks of S nodes
and their sum over the N nodes, and d u ||value|| for Q S Q^H.  eta
||C||_F bounds the reduction's backward error ||Q T Q^H - C||_F: the cut,
at most sqrt(d - 1) SCHUR_CUT_TOL d u ||C||_F, and about d u ||C||_F for
forming T and Q.  d u is the back substitution's: its computed rows solve
a T + dT with |dT| <= d u |T| entrywise (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, ch. 8), so no growth factor enters except
that of a larger block's own LU, within the block.

The majorant check runs on the contour solved, and reports that
contour's winding error about 0.2 with it.  It reads one value per node,
at least ||(z_j - C)^{-1}||, and takes three maxima: of its ratio to the
majorant on the arc, the same on the lines, and of it times dist(z_j,
D(alpha)) at every node.  With h_theta the support
values of W(C) at 32 angles, raised by their backward error
(``numrange.outer_polygon``: one eigvalsh of 16 Hermitian parts a call,
which the quadrature bound reads too), ``numrange.support_distance``
gives l_j = max_theta (Re(e^{i theta} z_j) - h_theta), lowered by its
rounding.  For every unit x, ||(z_j - C) x|| >= |z_j - x* C x| >=
dist(z_j, W(C)) >= l_j, so ||(z_j - C)^{-1}|| <= 1 / l_j (Trefethen and
Embree, Spectra and Pseudospectra, 2005, ch. 17).  So before the pass
every node gets U_j = (1 + 1e-6) / l_j, or inf where l_j <= 0.  A node
whose ratios at U_j lie within the check's tolerances is proved and reads
U_j; at every other node the pass takes the exact norm (an SVD of the
stack's own rows), and the node reads that.  Each ratio is
the value times or over positive constants of the node, and correctly
rounded products and quotients are monotone, so a node's ratio at U_j is
at least its exact ratio.  The verdict is thus that of exact norms at
every node (a proved node's exact ratio lies below its tolerance by the
margin 1e-6, far above the rounding of a computed norm), and each
maximum is a bound that is never below the exact one.  The check
reports resolvent-majorant ratios only; a pointwise integrand such as
|z^n - e^{n(z-1)}| is for the caller to evaluate on the nodes ``z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, numrange
from .errors import ContourTooCloseError, DomainError, InvalidInputError
from .tolerances import CONTOUR_QUAD_TOL, MAJORANT_DIST_TOL, MAJORANT_TOL, SCHUR_CUT_TOL

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_STACK_BYTES = 128 * 1024  # resolvents per stacked solve, product of weights, blow-up check and majorant norms
_BOUND_MARGIN = 1e-6  # relative widening of the polygon and quadrature bounds, far above their rounding
_RHOS = 2.0 ** (np.arange(1, 25) / 4.0)  # the Bernstein ellipses E_rho each panel's error bound tries
_TRIALS = (8, 16, 32, 64)  # arc panels of the contours the proof tries, in order; the sides take _side_panels'


@dataclass
class ContourNodes:
    """Quadrature nodes z with complex dz weights along the contour, and its panels.

    The panels are those of the two sides, line_minus then line_plus, each
    from the vertex out, and then those of the arc: per panel its midpoint
    z(mu), half-length h in s or t, and the direction of z(s) (1 on the arc).
    """

    alpha_prime: float
    z: np.ndarray
    dz_weight: np.ndarray
    on_arc: np.ndarray  # True on the arc, False on the two straight sides
    k_arc: int
    k_line: int
    panel_center: np.ndarray
    panel_half: np.ndarray
    panel_direction: np.ndarray

    def __len__(self) -> int:
        return self.z.size


def _panel_nodes(edges: np.ndarray):
    """Midpoints and half-lengths of the panels between edges, and their Gauss nodes and weights, a row each."""
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return mid, half, mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS


def build_contour(alpha_prime: float, k_arc: int = 32, k_line: int = 16) -> ContourNodes:
    """Composite quadrature nodes on the boundary of D(alpha').

    k_arc and k_line are panel counts (16 Gauss nodes each) for the arc and
    for each straight side; k_line must keep the innermost side edge
    cos(alpha') 2^(1 - k_line) a normal float (k_line <= 1022 at most).
    """
    if not 0.0 < alpha_prime < math.pi / 2:
        raise DomainError(f"alpha' must lie in (0, pi/2), got {alpha_prime}")
    for name, panels in (("k_arc", k_arc), ("k_line", k_line)):
        # bool is an int subclass, but True is no panel count
        if not isinstance(panels, (int, np.integer)) or isinstance(panels, bool) or panels < 8:
            raise InvalidInputError(f"{name} must be an integer >= 8 panels, got {panels!r}")
    if not math.ldexp(math.cos(alpha_prime), 1 - int(k_line)) >= 2.0**-1022:  # the least normal float
        raise InvalidInputError(
            f"k_line = {k_line} puts the innermost side edge cos(alpha') 2^(1 - k_line) below the normal floats"
        )
    return _build_contour(alpha_prime, k_arc, k_line)


def _build_contour(alpha_prime: float, k_arc: int, k_line: int) -> ContourNodes:
    """build_contour without its checks, for the trials of _proved_contour, whose sides may take 3 panels."""
    # the side's edges in s, graded toward s = 0 with ratio 2
    edges = math.cos(alpha_prime) * 2.0 ** np.arange(-k_line, 1.0)
    edges[0] = 0.0
    s_mid, s_half, s, w = _panel_nodes(edges)

    # A -> B, counterclockwise
    t0, t1 = math.pi / 2 - alpha_prime, 3 * math.pi / 2 + alpha_prime
    t_mid, t_half, t, w_arc = _panel_nodes(t0 + (t1 - t0) * np.arange(k_arc + 1) / k_arc)
    arc = math.sin(alpha_prime) * np.exp(1j * t)

    # vertex -> A; then B -> vertex: s runs cos(alpha') -> 0, i.e. minus the 0 -> cos(alpha') integral
    out, back = -np.exp(-1j * alpha_prime), -np.exp(1j * alpha_prime)

    return ContourNodes(
        alpha_prime=alpha_prime,
        z=np.concatenate([1.0 + s * out, arc, 1.0 + s[:, ::-1] * back], axis=None),
        dz_weight=np.concatenate([w * out, w_arc * 1j * arc, -w[:, ::-1] * back], axis=None),
        on_arc=np.repeat([False, True, False], _GL_NODES.size * np.array([k_line, k_arc, k_line])),
        k_arc=k_arc,
        k_line=k_line,
        panel_center=np.concatenate([1.0 + s_mid * out, 1.0 + s_mid * back,
                                     math.sin(alpha_prime) * np.exp(1j * t_mid)]),
        panel_half=np.concatenate([s_half, s_half, t_half]),
        panel_direction=np.concatenate([np.repeat([out, back], k_line), np.ones(k_arc)]),
    )


def winding_number(contour: ContourNodes, z0: complex) -> complex:
    """(1/2 pi i) integral of dz/(z - z0); 1 for interior z0."""
    return complex(np.sum(contour.dz_weight / (contour.z - z0)) / (2j * math.pi))


class _Schur(NamedTuple):
    """The reduction of C that a pass solves in: unitary q, and t = q^H C q cut to blocks."""

    q: np.ndarray
    t: np.ndarray  # zero below its diagonal blocks t[a:b, a:b]
    edges: tuple  # the blocks' edges 0 = e_0 < e_1 < ... < e_m = d


def _reduce(c: np.ndarray) -> _Schur:
    """C = q t q^H, t block upper triangular, from one np.linalg.eig and np.linalg.qr.

    q is the Q factor of C's eigenvectors, so t = q^H C q is upper
    triangular up to rounding where they stand apart; where they are
    nearly parallel, a Jordan-like cluster, its lower part is not small.
    Every corner t[k:, :k] whose Frobenius norm is at most SCHUR_CUT_TOL d
    u ||C||_F (u = 2^-53) is cut to zero; the edges are those k, and the
    blocks between them are what is left.  The cut moves C by at most
    sqrt(d - 1) times that in Frobenius norm.  An eig that raises gives
    one block, q = I and t = C.
    """
    dim = c.shape[0]
    try:
        _, vectors = np.linalg.eig(c)
    except np.linalg.LinAlgError:
        return _Schur(np.eye(dim, dtype=np.complex128), c.copy(), (0, dim))
    q, _ = np.linalg.qr(vectors)
    t = q.conj().T @ c @ q
    # corner[k, k - 1] = ||t[k:, :k]||_F^2, summed from the lower left, in
    # units of C's largest entry, so that no square overflows
    scale = np.max(np.abs(c)) or 1.0
    low = np.abs(np.tril(t, -1) / scale) ** 2
    corner = np.cumsum(np.cumsum(low[::-1], axis=0)[::-1], axis=1)
    cut = SCHUR_CUT_TOL * dim * 2.0**-53 * np.linalg.norm(c / scale)
    inner = [k for k in range(1, dim) if corner[k, k - 1] <= cut * cut]
    edges = (0, *inner, dim)
    for a, b in zip(edges[:-1], edges[1:]):
        t[b:, a:b] = 0.0
    return _Schur(q, t, edges)


def _solve(schur: _Schur, z: np.ndarray) -> np.ndarray:
    """(z_j - t)^{-1} over the nodes z, in q's basis, node axis last: shape (d, d, S).

    Filled block row by block row from the bottom up.  A 1x1 block is one
    reciprocal 1/(z - t_ii) a node, a larger one a stacked np.linalg.inv;
    the rows below enter through one matrix product of the shared t[a:b,
    b:] and the rows already filled.  Raises np.linalg.LinAlgError where a
    node equals a 1x1 block's t_ii or makes a larger block singular; an
    overflow leaves inf or NaN, which _check_blow_up refuses.
    """
    t, dim = schur.t, schur.t.shape[0]
    blocks = list(zip(schur.edges[:-1], schur.edges[1:]))
    single = [a for a, b in blocks if b - a == 1]
    gap = z - t[single, single][:, None]
    if not gap.all():
        raise np.linalg.LinAlgError("Singular matrix")
    r = np.zeros((dim, dim, z.size), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        r[single, single] = 1.0 / gap
        for a, b in reversed(blocks):
            if b - a > 1:
                eye = np.eye(b - a, dtype=np.complex128)
                r[a:b, a:b] = np.moveaxis(np.linalg.inv(z[:, None, None] * eye - t[a:b, a:b]), 0, -1)
            if b == dim:
                continue
            below = (t[a:b, b:] @ r[b:, b:].reshape(dim - b, -1)).reshape(b - a, dim - b, -1)
            if b - a == 1:
                np.multiply(r[a, a], below[0], out=r[a, b:])
            else:
                r[a:b, b:] = np.einsum("ijs,jks->iks", r[a:b, a:b], below)
    return r


def _stack_nodes(dim: int) -> int:
    """Nodes per stack: as many whole 64-node blocks as fit _STACK_BYTES, at least one."""
    return 64 * max(1, _STACK_BYTES // (64 * 16 * dim * dim))


def _check_blow_up(r: np.ndarray, z: np.ndarray) -> None:
    """Raise at the first of the resolvents r (node axis last) at the nodes z whose Frobenius norm exceeds 1e15."""
    # np.linalg.norm(r, axis=(0, 1)) to the bit, with one temporary stack, not two
    sq = np.conj(r)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a blow-up; inf * inf's NaN part is not read
        fro = np.sqrt(np.add.reduce(np.multiply(sq, r, out=sq).real, axis=(0, 1)))
    # a non-finite resolvent has a NaN or infinite norm, which fails <=
    bad = np.flatnonzero(~(fro <= 1e15))
    if bad.size:
        raise ContourTooCloseError(f"resolvent blow-up at contour node z={z[bad[0]]}")


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


def _evaluate_many(weights, c: np.ndarray, contour: ContourNodes, open_nodes: np.ndarray):
    """One quadrature pass over contour: the sums of weights times resolvents, stack by stack.

    C is reduced once (_reduce), to T = Q^H C Q in blocks.  Each stack of
    _stack_nodes(dim) nodes, in order, is one stacked solve in Q's basis
    (_solve), node axis last; a singular node raises with the z range of
    its whole stack, before any blow-up in it is looked for, and a blow-up
    names the first node of the stack that blows up.  The stack then adds
    one matrix product of all the weights and its rows to the sums, a lone
    weight padded with a zero row, so that it is summed by the same product
    as among others, and takes the exact norms of its rows at the nodes the
    mask open_nodes marks; the check, the product and the norms read the
    Q-basis rows, and each sum S goes back to C's basis once, as Q S Q^H.
    The reduction and the stacks fix the bits of every value; the BLAS
    thread count was measured not to (module docstring).

    Returns (values, norms): values[i] is the sum of weights[i] (a node
    array of f(z) dz) times (z - C)^{-1} over the nodes, over 2 pi i, and
    norms holds ||(z - C)^{-1}|| at the open nodes, in node order.
    """
    dim = c.shape[0]
    weights = np.reshape(weights, (-1, len(contour)))
    count = len(weights)
    if count == 1:  # a one-row product runs as a vector-matrix product, whose bits follow the BLAS thread count
        weights = np.concatenate([weights, np.zeros_like(weights)])
    schur = _reduce(c)
    acc = np.zeros((len(weights), dim * dim), dtype=np.complex128)
    norms = []
    step = _stack_nodes(dim)
    for lo in range(0, len(contour), step):
        nodes = slice(lo, lo + step)
        z = contour.z[nodes]
        try:
            r = _solve(schur, z)
        except np.linalg.LinAlgError as exc:
            raise ContourTooCloseError(f"resolvent singular at a contour node in z={z[0]}..{z[-1]}") from exc
        _check_blow_up(r, z)
        acc += weights[:, nodes] @ r.reshape(dim * dim, -1).T
        at = open_nodes[nodes]
        if at.any():
            norms += linalg.op_norms(np.moveaxis(r[:, :, at], -1, 0))
    values = schur.q @ acc[:count].reshape((count,) + c.shape) @ schur.q.conj().T
    return list(values / (2j * math.pi)), np.array(norms)


def _majorant_ratios(contour: ContourNodes, alpha: float, dist, norms):
    """The node-wise ratios behind the three maxima of _check_report.

    For the values ``norms`` of ||(z - C)^{-1}|| at every node, returns each
    node's side ratio (to the arc or the line majorant) and its distance
    ratio, times dist = dist(z, D(alpha)).  Each is the value times or over
    positive constants of the node, so it is monotone in the value.
    """
    arc = contour.on_arc
    sin_gap = math.sin(contour.alpha_prime - alpha)
    arc_major = 1.0 / (math.cos(contour.alpha_prime) * sin_gap)
    # np.hypot, not np.abs: it rounds |w| as the scalar abs does
    w = (1.0 - contour.z)[~arc]
    line = np.ones(len(contour))  # |1 - z| on the lines; 1 on the arc, where it is not read
    line[~arc] = np.hypot(w.real, w.imag)
    return np.where(arc, norms / arc_major, norms * line * sin_gap), norms * dist


def _majorant_norms(contour: ContourNodes, alpha: float, dist, polygon: np.ndarray):
    """The polygon bound on ||(z - C)^{-1}|| at every node, and the nodes it leaves open.

    Returns (upper, open_nodes).  upper is the bound U of the module
    docstring, (1 + _BOUND_MARGIN) / l from ``numrange.support_distance``
    of polygon = ``numrange.outer_polygon(C)``, inf where l <= 0.  A node
    whose ratios at U lie within MAJORANT_TOL and MAJORANT_DIST_TOL is
    proved; open_nodes marks every other node, whose exact norm the pass
    takes.
    """
    ell = numrange.support_distance(polygon, contour.z)
    upper = np.where(ell > 0.0, (1.0 + _BOUND_MARGIN) / np.where(ell > 0.0, ell, 1.0), np.inf)
    side, far = _majorant_ratios(contour, alpha, dist, upper)
    return upper, ~((side <= 1.0 + MAJORANT_TOL) & (far <= 1.0 + MAJORANT_DIST_TOL))


def _panel_images(contour: ContourNodes):
    """The images z(E_rho) of contour's panels' Bernstein ellipses, for rho in _RHOS, as the bound reads them.

    Returns (center, d, half, speed, reach, across): per panel, in the
    order of ContourNodes, its midpoint z(mu), the direction d of z(s) (1
    on the arc) and its half-length h in s or t; and, with one row per rho
    and one column per panel, a bound on |z'| over the image and the
    ellipse about center with semi-axes reach along d and across across
    it, which holds the image, as does the disc of radius reach about
    center.
    """
    center, d, half = contour.panel_center, contour.panel_direction, contour.panel_half
    on_arc = np.arange(center.size) >= 2 * contour.k_line
    rho = _RHOS[:, None]
    big_a, big_b = 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho)
    speed = np.where(on_arc, math.sin(contour.alpha_prime) * np.exp(half * big_b), 1.0)
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


def _side_panels(alpha_prime: float, polygon: np.ndarray) -> int:
    """The side count k of every trial, from l_1 = support_distance(polygon, 1) <= dist(1, W(C)).

    k = min(32, max(3, 2 + ceil(log2(cos(alpha') / l_1)))), so that the
    innermost side panel [0, cos(alpha') 2^(1 - k)] is at most l_1 / 2
    long; 32 where l_1 <= 0.
    """
    length = math.cos(alpha_prime)
    (ell,) = numrange.support_distance(polygon, 1.0)
    if not ell > length * 2.0**-30:  # l_1 <= 0, or the formula reaches 32
        return 32
    return max(3, 2 + math.ceil(math.log2(length / ell)))


def _proved_contour(f_bounds, alpha_prime: float, polygon: np.ndarray) -> ContourNodes:
    """The first contour of _TRIALS on which every function's _quadrature_bounds lies below CONTOUR_QUAD_TOL.

    Every trial grades each side to _side_panels(alpha', polygon) panels.
    Nothing is solved; ContourTooCloseError if no trial is proved.
    """
    sides = _side_panels(alpha_prime, polygon)
    for k_arc in _TRIALS:
        trial = _build_contour(alpha_prime, k_arc, sides)
        if all(bound < CONTOUR_QUAD_TOL for bound in _quadrature_bounds(f_bounds, trial, polygon)):
            return trial
    raise ContourTooCloseError(
        f"contour quadrature not proved within {CONTOUR_QUAD_TOL:g} on any trial contour "
        f"({_TRIALS[0]} to {_TRIALS[-1]} arc panels, {sides} panels a side)"
    )


def riesz_dunford_many(
    fs, c, alpha_prime: float, alpha: float, f_bounds
) -> tuple[list[np.ndarray], ContourCheckReport]:
    """Evaluate several functions of C on a shared resolvent sweep, and check the majorants.

    f_bounds holds one bound per function: f_bounds[i](center, radius)
    returns, for arrays of centers and radii, upper bounds on |fs[i]| over
    the closed discs |z - center| <= radius, on which fs[i] must be
    analytic.  Before anything is solved, the proof of the module docstring
    runs on the contours of _TRIALS in order, (8, k), (16, k), (32, k) and
    (64, k) panels, k from 3 to 32 side panels graded to half the outer
    32-gon's distance from the vertex (``_side_panels``).  The first on
    which the proved truncation error of every value lies below
    CONTOUR_QUAD_TOL is solved, in one pass: 16 (a + 2k) solves for a arc
    panels, 224 to 2048.

    Each f in fs is called once, with the 1-D complex array of that
    contour's nodes, and must return an array of that shape or a scalar
    constant, as a NumPy ufunc does; it is called before any node is
    solved.  The pass reduces C once to T = Q^H C Q, block upper
    triangular (_reduce), and solves every node by back substitution in
    Q's basis (_solve), 1x1 blocks without any matrix inverse; each stack
    of resolvents then adds one matrix product of all the functions'
    weights and its rows, and each value returns to C's basis once.

    Returns (values, report): values[i] approximates fs[i](C), and report is
    the majorant check ``_check_report`` for 0 <= alpha < alpha' on the
    contour solved.  Before the pass, every ||(z_j - C)^{-1}|| is bounded
    by the outer 32-gon of W(C); a node whose ratios that bound proves
    within the check's tolerances enters the check with the bound, and the
    pass takes the exact norm of every other node from its own rows.  So
    the verdict is that of exact norms at all nodes, each maximum is a
    proved bound (or an exact norm where the bound cannot prove), never
    below the maximum of exact norms, and no node is solved twice; the
    distances dist(z_j, D(alpha)) are taken once.  Raises InvalidInputError
    before solving unless 0 <= alpha < alpha' < pi/2, and for an empty fs,
    f_bounds of another length, or an f whose value is neither a scalar nor
    one value per node, and ContourTooCloseError before solving when no
    trial is proved.
    """
    if not 0.0 <= alpha < alpha_prime < math.pi / 2:
        raise InvalidInputError("need 0 <= alpha < alpha' < pi/2")
    fs, f_bounds = list(fs), list(f_bounds)
    if not fs:
        raise InvalidInputError("fs must hold at least one function")
    if len(f_bounds) != len(fs):
        raise InvalidInputError(f"f_bounds holds {len(f_bounds)} bounds for {len(fs)} functions")
    a = linalg.as_operator(c)
    polygon = numrange.outer_polygon(a)
    base = _proved_contour(f_bounds, alpha_prime, polygon)
    weights = _weights(fs, base)
    dist = numrange.distance_to_D_alpha(base.z, alpha)
    rnorm, open_nodes = _majorant_norms(base, alpha, dist, polygon)
    results, exact = _evaluate_many(weights, a, base, open_nodes)
    rnorm[open_nodes] = exact
    return results, _check_report(base, alpha, dist, rnorm)


@dataclass
class ContourCheckReport:
    """Node-wise resolvent-majorant ratios along the contour.

    Each worst ratio is read from a proved bound on ||(z - C)^{-1}||, or
    from an exact norm at the nodes where the bound cannot prove the check.
    """

    worst_ratio_arc: float
    worst_ratio_lines: float
    worst_dist_ratio: float
    passed: bool
    winding_error: float  # |winding number about 0.2 - 1| of the contour checked


def _check_report(contour: ContourNodes, alpha: float, dist, rnorm) -> ContourCheckReport:
    """Check the resolvent majorants used in the contour norm estimates.

    rnorm holds one value per node of the contour, as an array, at least
    ||(z - C)^{-1}||, and dist the distances dist(z, D(alpha)) of the nodes;
    nothing is solved here.  riesz_dunford_many passes the polygon bound
    where it proves the node within the tolerances and the exact norm
    elsewhere (``_majorant_norms``).  With alpha' the
    contour's angle, the majorant on the arc is 1/(cos(alpha') sin(alpha' -
    alpha)), on the lines 1/(|1 - z| sin(alpha' - alpha)).  The report also
    carries the distance-based bound ratio ||(z-C)^{-1}|| * dist(z, D(alpha)),
    and the contour's winding error about 0.2, a point of every D(alpha').
    """
    side, far = _majorant_ratios(contour, alpha, dist, rnorm)
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
