import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiapprox import approximants, ensembles, numrange
from semiapprox.errors import InvalidInputError, NotAContractionError
from semiapprox.tolerances import TOL_GEO


def hull_support_gap(points_a, points_b, angles=720):
    """Hausdorff distance between convex hulls via support functions."""
    thetas = np.linspace(0, 2 * math.pi, angles, endpoint=False)
    rot = np.exp(-1j * thetas)
    ha = np.max(np.real(np.outer(rot, points_a)), axis=1)
    hb = np.max(np.real(np.outer(rot, points_b)), axis=1)
    return float(np.max(np.abs(ha - hb)))


def test_boundary_diag_real_segment():
    pts = numrange.numerical_range_boundary(np.diag([0.0, 1.0]).astype(complex), 64)
    assert np.max(np.abs(pts.imag)) <= 1e-12
    assert pts.real.min() == pytest.approx(0.0, abs=1e-12)
    assert pts.real.max() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pts.real >= -1e-12) and np.all(pts.real <= 1 + 1e-12)


def test_boundary_jordan_block_disc():
    # classical disc of radius 1/2 for the 2x2 nilpotent Jordan block
    pts = numrange.numerical_range_boundary(np.array([[0, 1], [0, 0]], dtype=complex), 64)
    assert np.max(np.abs(np.abs(pts) - 0.5)) <= 1e-8


def test_boundary_identity():
    pts = numrange.numerical_range_boundary(np.eye(3, dtype=complex), 32)
    assert np.max(np.abs(pts - 1.0)) <= 1e-12


def test_boundary_needs_16_angles():
    # too few angles, an odd count (it has no antipodal pairs) and more than the cap
    for c, k in ((np.eye(2), 8), (np.eye(1), 33), (np.eye(1), 2 * 65536)):
        with pytest.raises(InvalidInputError):
            numrange.numerical_range_boundary(c, k)
    with pytest.raises(InvalidInputError):
        numrange.numerical_range_boundary(np.array([[0.5, np.nan], [0.0, 0.5]]), 64)


@pytest.mark.filterwarnings("error")
def test_boundary_refuses_overflow():
    # finite entries whose Hermitian parts overflow, and entries whose parts
    # stay finite while the points x* C x overflow: no NaN or inf point comes
    # back, and no NumPy warning comes before the error
    for c in (np.full((2, 2), 1e308), np.full((4, 4), 0.8e308)):
        with pytest.raises(InvalidInputError):
            numrange.numerical_range_boundary(c, 16)


def test_boundary_refuses_huge_k_before_allocating(monkeypatch):
    # the cap itself is swept; k = 10**12 never reaches np.arange, np.exp or eigh
    assert len(numrange.numerical_range_boundary(np.eye(1), 65536)) == 65536

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep allocated before refusing its angle count")

    monkeypatch.setattr(np, "exp", refuse)
    monkeypatch.setattr(np, "arange", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    with pytest.raises(InvalidInputError):
        numrange.numerical_range_boundary(np.eye(1), 10**12)


def per_angle_boundary(c, k):
    """Reference half sweep: one eigh per angle j < k/2, whose top and bottom
    eigenvectors give the points of angles j and j + k/2."""
    points = np.empty(k, dtype=np.complex128)
    for j in range(k // 2):
        rotated = np.exp(1j * (2.0 * math.pi * j / k)) * c
        herm = (rotated + rotated.conj().T) / 2.0
        v = np.linalg.eigh(herm)[1]
        for x, i in ((v[:, -1], j), (v[:, 0], j + k // 2)):
            points[i] = x.conj() @ c @ x
    return points


def test_boundary_matches_per_angle_sweep():
    # k covers one partial chunk, non-multiples of the chunk and several chunks
    for i, dim in enumerate((1, 2, 3, 8, 32)):
        c = ensembles.random_contraction(dim, ensembles.child_seed(909, i))
        for k in (16, 34, 64, 100, 256):
            got = numrange.numerical_range_boundary(c, k)
            assert np.array_equal(got, per_angle_boundary(c, k)), (dim, k)


def test_boundary_takes_one_eigh_per_32_angles(monkeypatch):
    # 100 angles are 50 eigensolves, each giving an angle and its antipode
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shapes.append(h.shape) or eigh(h))
    numrange.numerical_range_boundary(np.eye(3), 100)
    assert shapes == [(32, 3, 3), (18, 3, 3)]


def test_boundary_points_attain_the_support_function():
    # every point, the antipodal half included, is a support point of W(C)
    # for its own angle: Re(e^{i theta_j} p_j) = lambda_max(H_{theta_j})
    draws = [ensembles.random_contraction(dim, ensembles.child_seed(911, dim)) for dim in (1, 2, 3, 8, 32)]
    draws.append(approximants.resolvent_family(ensembles.random_m_sectorial(6, math.pi / 8, 912))(1.0))
    draws.append(3.0 * ensembles.random_contraction(5, ensembles.child_seed(913, 0)))
    for c in draws:
        tol = 1e-12 * max(1.0, np.linalg.norm(c, 2))
        for k in (16, 34, 256):
            points = numrange.numerical_range_boundary(c, k)
            for j, p in enumerate(points):
                phase = np.exp(1j * (2.0 * math.pi * j / k))
                rotated = phase * c
                top = np.linalg.eigvalsh((rotated + rotated.conj().T) / 2.0).max()
                assert abs((phase * p).real - top) <= tol, (c.shape, k, j)


def in_D_alpha(z, alpha):
    """Membership of z in D(alpha), with the package-wide geometric tolerance: the
    membership oracle that distance_to_D_alpha is checked against.

    z = 1 is the wedge vertex and belongs to every D(alpha); arg(0) counts
    as 0.  Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=np.complex128)
    in_disc = np.abs(z) <= math.sin(alpha) + TOL_GEO
    w = 1.0 - z
    # numpy's angle(0) is 0, which implements the vertex convention directly
    in_wedge = (np.abs(np.angle(w)) <= alpha + TOL_GEO) & (np.abs(w) <= math.cos(alpha) + TOL_GEO)
    result = in_disc | in_wedge
    return bool(result) if result.ndim == 0 else result


def test_in_D_alpha_examples():
    assert in_D_alpha(1.0, 0.0)
    assert in_D_alpha(1.0, 1.2)
    assert in_D_alpha(0.0, 0.0)
    assert in_D_alpha(0.5, math.pi / 4)
    assert not in_D_alpha(-0.5, 0.2)
    assert not in_D_alpha(1.5, 0.3)


def test_in_sector_examples():
    assert numrange.in_sector(1.0, 0.1)
    assert not numrange.in_sector(1j, math.pi / 4)
    assert numrange.in_sector(0.0, 0.5)


def test_region_approaches_unit_disc():
    # D(alpha) fills the closed unit disc as alpha -> pi/2
    rng = np.random.default_rng(17)
    zs = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    zs = zs[np.abs(zs) <= 1.0]
    assert np.all(in_D_alpha(zs, math.pi / 2 - 1e-6))
    assert not in_D_alpha(1.001, math.pi / 2 - 1e-6)


def test_membership_monotone_in_alpha():
    # sampled grid over the unit square, 20 alphas
    xs = np.linspace(-1.0, 1.0, 200)
    zs = (xs[None, :] + 1j * xs[:, None]).ravel()
    alphas = np.linspace(0.0, math.pi / 2 - 1e-3, 20)
    prev = in_D_alpha(zs, alphas[0])
    for alpha in alphas[1:]:
        cur = in_D_alpha(zs, alpha)
        assert np.all(cur[prev])
        prev = cur


def test_distance_examples():
    # dist from -0.5 to D(0.2): nearest point is the disc of radius sin(0.2)
    d = float(numrange.distance_to_D_alpha(-0.5, 0.2))
    assert d == pytest.approx(0.5 - math.sin(0.2), abs=1e-12)
    assert float(numrange.distance_to_D_alpha(0.5, 0.0)) <= 1e-15
    assert float(numrange.distance_to_D_alpha(1.0, 0.0)) == 0.0
    # above the segment [0,1], distance is the height
    assert float(numrange.distance_to_D_alpha(0.5 + 0.25j, 0.0)) == pytest.approx(0.25, abs=1e-12)


def test_distance_consistent_with_membership():
    rng = np.random.default_rng(21)
    zs = rng.uniform(-1.2, 1.2, 400) + 1j * rng.uniform(-1.2, 1.2, 400)
    for alpha in (0.0, math.pi / 8, math.pi / 4, 1.2):
        dist = np.atleast_1d(numrange.distance_to_D_alpha(zs, alpha))
        member = in_D_alpha(zs, alpha)
        # members sit at (numerically) zero distance; far points are excluded
        assert np.all(dist[member] <= 2e-9)
        assert np.all(dist[~member] > 0.0)


_coord = st.floats(-1.5, 1.5)
_alpha = st.floats(0.0, math.pi / 2, exclude_max=True)


def _dist(x, y, alpha):
    return float(numrange.distance_to_D_alpha(complex(x, y), alpha))


@settings(deadline=None)
@given(_coord, _coord, _alpha)
def test_distance_is_zero_exactly_on_members(x, y, alpha):
    # outside a 1e-6 band round the boundary, dist == 0 if and only if z is in D(alpha)
    d = _dist(x, y, alpha)
    member = in_D_alpha(complex(x, y), alpha)
    if d == 0.0:
        assert member
    elif d > 1e-6:
        assert not member


@settings(deadline=None)
@given(_coord, _coord, _coord, _coord, _alpha)
def test_distance_is_1_lipschitz(x1, y1, x2, y2, alpha):
    gap = abs(_dist(x1, y1, alpha) - _dist(x2, y2, alpha))
    assert gap <= abs(complex(x1, y1) - complex(x2, y2)) + 1e-12


@settings(deadline=None)
@given(_coord, _coord, _alpha, _alpha)
def test_distance_does_not_increase_in_alpha(x, y, a1, a2):
    # D(alpha) is a subset of D(beta) for alpha < beta
    alpha, beta = sorted((a1, a2))
    assert _dist(x, y, beta) <= _dist(x, y, alpha) + 1e-12


def sweep_violation(c, alpha, k=256):
    """The largest distance from a point of C's k-angle boundary sweep to D(alpha)."""
    return float(np.max(numrange.distance_to_D_alpha(numrange.numerical_range_boundary(c, k), alpha)))


def semi_angle(c):
    """min_semi_angle over a 256-angle sweep of C."""
    return numrange.min_semi_angle(c, numrange.numerical_range_boundary(c, 256))


def test_min_semi_angle_selfadjoint():
    c = np.diag([0.0, 0.5, 1.0]).astype(complex)
    assert semi_angle(c) == pytest.approx(0.0, abs=2e-6)
    assert semi_angle(np.eye(2, dtype=complex)) == pytest.approx(0.0, abs=2e-6)


def test_min_semi_angle_point_mass():
    # single point 0.3i enters D(alpha) exactly when sin(alpha) >= 0.3
    got = semi_angle(np.array([[0.3j]]))
    assert got == pytest.approx(math.asin(0.3), abs=2e-6)


def test_min_semi_angle_rejects_noncontraction():
    with pytest.raises(NotAContractionError):
        semi_angle(np.diag([1.5, 0.2]).astype(complex))


def test_boundary_points_inside_unit_disc():
    for i in range(25):
        dim = 2 + i % 7
        c = ensembles.random_contraction(dim, ensembles.child_seed(77, i))
        pts = numrange.numerical_range_boundary(c, 64)
        assert np.max(np.abs(pts)) <= 1.0 + 1e-9


def test_resolvent_family_is_quasi_sectorial():
    # resolvents of sector-confined generators stay inside D(alpha), alpha <= pi/4
    for i, alpha in enumerate((math.pi / 16, math.pi / 8, math.pi / 4)):
        for j, t in enumerate((0.1, 1.0, 10.0)):
            a = ensembles.random_m_sectorial(6, alpha, ensembles.child_seed(5150, 10 * i + j))
            f = approximants.resolvent_family(a)(t)
            violation = sweep_violation(f, alpha)
            assert violation <= TOL_GEO, (alpha, t, violation)


def test_normal_matrix_hull_oracle():
    # for normal C the numerical range is the convex hull of the eigenvalues;
    # eigenvalues sit on a circle with angular gaps >= 0.5 rad so every hull
    # vertex has a normal cone much wider than the 2*pi/256 sweep resolution
    rng = np.random.default_rng(33)
    for trial in range(10):
        dim = int(rng.integers(3, 7))
        gaps = rng.uniform(0.5, 2.0, dim)
        angles = np.cumsum(gaps) / np.sum(gaps) * 2 * math.pi
        lam = 0.6 * np.exp(1j * (angles + rng.uniform(0, 2 * math.pi)))
        u = ensembles.haar_unitary(dim, rng)
        c = (u * lam) @ u.conj().T
        pts = numrange.numerical_range_boundary(c, 256)
        assert hull_support_gap(pts, lam) <= 1e-6


def _draw(kind, dim, seed, scale):
    if kind == "contraction":
        return scale * ensembles.random_contraction(dim, seed)
    if kind == "step":
        # a step 1 - sA of an m-sectorial generator A
        a = ensembles.random_m_sectorial(dim, math.pi / 4, seed)
        return np.eye(dim) - scale * a / np.linalg.norm(a, 2)
    lam = complex(*np.random.default_rng(seed).uniform(-1.0, 1.0, 2))
    return np.array([[lam, 2.0 * scale * np.exp(1j * seed)], [0.0, lam]])


@settings(deadline=None)
@given(
    st.sampled_from(("contraction", "step", "jordan")),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.001, 1.0),
    _alpha,
)
def test_polygon_certifies_only_what_the_sweep_passes(kind, dim, seed, scale, alpha):
    c = _draw(kind, dim, seed, scale)
    if numrange.quasi_sectorial(c, alpha):
        assert sweep_violation(c, alpha) <= TOL_GEO


def test_polygon_certificate_is_not_vacuous():
    # the draws of the property test reach both answers of the polygon
    answers = {
        numrange.quasi_sectorial(_draw(kind, 4, seed, 0.5), alpha)
        for kind in ("contraction", "step", "jordan")
        for seed in range(8)
        for alpha in (0.2, 1.4)
    }
    assert answers == {True, False}


def refuse_eigensolves(monkeypatch, *names):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvalue problem was solved that should not have been")

    for name in names:
        monkeypatch.setattr(np.linalg, name, refuse)


def _jordan(lam, radius, phase):
    # W(J) is the disc |z - lam| <= radius
    return np.array([[lam, 2.0 * radius * np.exp(1j * phase)], [0.0, lam]])


def test_jordan_discs_inside_D_alpha_certify_from_the_polygon(monkeypatch):
    # for a real centre x in [0, 1) the distance to the edge of D(alpha) is
    # (1 - x) sin(alpha); the 16-gon round a disc of radius r reaches 1.02 r
    refuse_eigensolves(monkeypatch, "eigh")  # no eigenvectors: the sweep never runs
    for alpha in (0.1, math.pi / 8, math.pi / 4, 1.2, math.pi / 2 - 1e-3):
        s = math.sin(alpha)
        discs = [(x, 0.9 * (1.0 - x) * s) for x in (0.0, 0.3, 0.7, 0.95)]
        discs += [(0.5 * s * np.exp(1j * psi), 0.45 * s) for psi in (0.5, 2.0, 3.0, -2.5)]
        for lam, radius in discs:
            for phase in (0.0, 1.0, 2.5):
                assert numrange.quasi_sectorial(_jordan(lam, radius, phase), alpha), (alpha, lam)


def test_jordan_discs_poking_out_of_D_alpha_are_refused(monkeypatch):
    refuse_eigensolves(monkeypatch, "eigh")  # no eigenvectors: the sweep never runs
    for alpha in (0.0, 0.1, math.pi / 8, math.pi / 4, 1.2):
        s = math.sin(alpha)
        discs = [(x, 1.1 * (1.0 - x) * s + 1e-3) for x in (0.0, 0.3, 0.7, 0.95)]
        discs += [(-0.5 * s, 0.6 * s + 1e-3), (0.3j, abs(0.3j - 1.0) + 1e-3)]
        for lam, radius in discs:
            for phase in (0.0, 1.0, 2.5):
                assert not numrange.quasi_sectorial(_jordan(lam, radius, phase), alpha), (alpha, lam)


def test_quasi_sectorial_takes_one_eigvalsh_per_32_angles(monkeypatch):
    # a disc that pokes out of D(alpha) climbs the whole ladder: 2 eigenvalue
    # solves for the quadrilateral at the tangent normals and 8 for the
    # 16-gon, each giving an angle and its antipode, then the 8, 16, 32 and
    # 64 new ones of each finer level, 32 at a time
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    refuse_eigensolves(monkeypatch, "eigh")
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: shapes.append(h.shape) or eigvalsh(h))
    assert not numrange.quasi_sectorial(_jordan(0.0, 0.5, 1.0), 0.3)
    assert [n for n, _, _ in shapes] == [2, 8, 8, 16, 32, 32, 32]


@pytest.mark.filterwarnings("error")
def test_quadrilateral_runs_only_where_it_is_no_worse_conditioned_than_the_256_gon(monkeypatch):
    # its vertices divide by sin(alpha) and cos(alpha), the 256-gon's by
    # sin(pi/256).  At pi/256 the rung alone proves three segments [0.5, 1]
    # (Hermitian matrices), which reach the vertex 1, and at pi/2 - pi/256,
    # where its lines are nearly parallel, three small discs; each takes one
    # (2m, d, d) eigvalsh and raises no warning.  Outside those limits no such
    # stack is solved, and the ladder alone answers.
    refuse_eigensolves(monkeypatch, "eigh")
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: shapes.append(h.shape) or eigvalsh(h))
    segments = np.stack([_normal([0.5, 0.8, 1.0], seed) for seed in range(3)])
    discs = np.stack([_jordan(x, 1e-3, 1.0) for x in (0.0, 0.3, -0.5)])
    edge = math.pi / numrange._LADDER[-1]
    for alpha, stack in ((edge, segments), (math.pi / 2 - edge, discs)):
        shapes.clear()
        assert numrange.quasi_sectorial(stack, alpha) == [True] * 3
        assert shapes == [(6,) + stack.shape[1:]]
    for alpha in (0.01, 1e-6, math.pi / 2 - 1e-3):
        for stack in (segments, discs):
            ladder = [any(flat_polygon_fits(c, alpha, k) for k in numrange._LADDER) for c in stack]
            shapes.clear()
            assert numrange.quasi_sectorial(stack, alpha) == ladder
            assert shapes and all(n != 6 for n, _, _ in shapes)


@pytest.mark.parametrize("alpha", [-0.1, math.pi / 2, 2.0, math.nan])
def test_bad_alpha_is_refused_before_any_eigensolve(monkeypatch, alpha):
    refuse_eigensolves(monkeypatch, "eigh", "eigvalsh")
    with pytest.raises(InvalidInputError):
        numrange.check_alpha(alpha)
    for check in (numrange.quasi_sectorial, numrange.sectorial):
        with pytest.raises(InvalidInputError):
            check(np.eye(2) / 2, alpha)


@pytest.mark.filterwarnings("error")
def test_quasi_sectorial_refuses_what_the_sweep_refuses():
    for c in (np.full((2, 2), 1e308), np.full((4, 4), 0.8e308)):
        with pytest.raises(InvalidInputError):
            numrange.quasi_sectorial(c, 0.5)


@pytest.mark.filterwarnings("error")
def test_quasi_sectorial_never_sweeps(monkeypatch):
    # the answer comes from the outer polygons alone, False included, and an
    # input whose support values overflow is refused, not answered False
    refuse_eigensolves(monkeypatch, "eigh")

    def refuse(*args):
        raise AssertionError("quasi_sectorial sampled the numerical range")

    monkeypatch.setattr(numrange, "numerical_range_boundary", refuse)
    alpha = math.pi / 8
    s = math.sin(alpha)
    stack = np.stack([_jordan(0.0, 0.5 * s, 1.0), _jordan(0.0, 1.01 * s, 1.0), _jordan(0.3, 0.35 * s, 2.5)])
    assert numrange.quasi_sectorial(stack, alpha) == [True, False, True]
    # the top eigenvalue overflows, so the raise does
    with pytest.raises(InvalidInputError):
        numrange.quasi_sectorial(np.full((32, 32), 1e307), alpha)
    # ||C||_F squares the entries, but the backward-error slack is scaled: a
    # large matrix whose eigenvalues are finite is answered, not refused
    assert numrange.quasi_sectorial(1e200 * np.eye(2), 0.3) is False
    assert numrange.quasi_sectorial(1e200 * np.eye(2)[None], 0.3) == [False]


@pytest.mark.filterwarnings("error")
def test_sectorial_settles_a_large_generator_from_its_edge_normals(monkeypatch):
    def refuse(*args):
        raise AssertionError("sectorial sampled the numerical range")

    monkeypatch.setattr(numrange, "numerical_range_boundary", refuse)
    assert numrange.sectorial(1e200 * np.eye(2), 0.3) is True
    assert numrange.sectorial(1e200 * np.eye(2) + 1e199j * np.eye(2), 0.3) is True


@pytest.mark.filterwarnings("error")
def test_scaled_frobenius_norm_is_the_plain_norm_until_it_overflows():
    rng = np.random.default_rng(31)
    for exponent in (-150, -20, 0, 20, 150):
        stack = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
        stack *= 10.0**exponent * rng.uniform(0.1, 10.0, (6, 1, 1))
        expected = np.linalg.norm(stack, axis=(1, 2))
        assert numrange._frobenius(stack).tobytes() == expected.tobytes()
    # beyond about 1e154 the plain norm overflows; the scaled one is still
    # sqrt(d) times the entry, to the last bits
    for entry in (1e155, 1e200, 1e307):
        for d in (2, 5, 32):
            got = numrange._frobenius(entry * np.eye(d)[None])[0]
            assert math.isfinite(got) and got == pytest.approx(entry * math.sqrt(d), rel=4e-16)
    assert numrange._frobenius(np.zeros((1, 3, 3))).tolist() == [0.0]


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call of module.name, which still runs."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_stacked_check_answers_as_each_matrix_alone():
    alpha = math.pi / 8
    s = math.sin(alpha)
    stack = np.stack([
        _jordan(0.0, 0.5 * s, 1.0),  # the 16-gon fits in D(alpha)
        _jordan(0.0, 0.99 * s, 1.0),  # the 16-gon pokes out of the disc part, the 32-gon does not
        _jordan(0.0, 1.01 * s, 1.0),  # the circle pokes out too
        _jordan(0.3, 0.5 * 0.7 * s, 2.5),
    ])
    alone = [numrange.quasi_sectorial(c, alpha) for c in stack]
    assert alone == [True, True, False, True]
    assert numrange.quasi_sectorial(stack, alpha) == alone
    assert numrange.quasi_sectorial(stack[:1], alpha) == [True]  # a stack of one is still a stack


def test_stacked_check_takes_one_distance_call_and_chunks_of_32(monkeypatch):
    refuse_eigensolves(monkeypatch, "eigh")
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: shapes.append(h.shape) or eigvalsh(h))
    distances = count_calls(monkeypatch, numrange, "distance_to_D_alpha")
    # every polygon fits at the first level of the ladder, 16 angles: 8 m pairs
    for m in (5, 3, 1, 10):
        shapes.clear()
        distances.clear()
        assert numrange.quasi_sectorial(np.stack([np.eye(3) / 2] * m), 0.0) == [True] * m
        assert max(n for n, _, _ in shapes) <= numrange._ANGLE_CHUNK == 32
        assert sum(n for n, _, _ in shapes) == 8 * m
        assert len(distances) == 1 and distances[0][0].shape == (m, 16)
    assert shapes == [(32, 3, 3), (32, 3, 3), (16, 3, 3)]


def test_angle_levels_are_entries_of_the_full_sweep():
    assert numrange._LADDER == (16, 32, 64, 128, 256)
    full = numrange._sweep_angles(256)
    for level in numrange._LADDER:
        # bit for bit: 2 pi j / k_l and 2 pi (j 256 / k_l) / 256 differ by a power of two
        assert numrange._sweep_angles(level).tobytes() == full[:: 256 // level].tobytes()


def test_each_level_interleaves_to_the_flat_polygon_of_its_angles(monkeypatch):
    # no polygon fits, so every level is solved: its support values are bit for
    # bit those that the flat polygon of its angles solves in one go
    stack = np.stack([_draw("contraction", 3, seed, 0.9) for seed in range(3)])
    seen = []
    monkeypatch.setattr(
        numrange, "_polygon_fits", lambda h, alpha: seen.append(h.copy()) or np.zeros(len(h), bool)
    )
    assert numrange.quasi_sectorial(stack, 0.3) == [False] * 3
    assert [h.shape for h in seen] == [(3, 16), (3, 32), (3, 64), (3, 128), (3, 256)]
    for h in seen:
        k = h.shape[1]
        flat = numrange._support_values(stack, numrange._sweep_angles(k)).reshape(3, k)
        assert h.tobytes() == flat.tobytes()


def test_polygon_margin_is_half_the_sweep_tolerance(monkeypatch):
    # W([z]) = {z}: a point 0.4 TOL_GEO outside D(alpha) certifies from the
    # polygon; one 0.75 TOL_GEO out, which the sweep would pass, and one
    # 1.5 TOL_GEO out fail
    alpha = math.pi / 8
    sweeps = count_calls(monkeypatch, numrange, "numerical_range_boundary")
    for excess, passed in ((0.4, True), (0.75, False), (1.5, False)):
        point = -(math.sin(alpha) + excess * TOL_GEO) * np.ones((1, 1))
        assert numrange.quasi_sectorial(point, alpha) is passed
        assert (sweep_violation(point, alpha) <= TOL_GEO) is (excess < 1)
    assert len(sweeps) == 3  # those of sweep_violation only


def flat_polygon_fits(c, alpha, k):
    """Whether the k-angle polygon alone, without the ladder, fits."""
    stack = np.asarray(c, dtype=np.complex128)[None]
    with np.errstate(over="ignore", invalid="ignore"):
        h = numrange._support_values(stack, numrange._sweep_angles(k)).reshape(1, k)
        h = np.concatenate([h, h[:, :1]], axis=1)
        along = (h[:, :-1] + h[:, 1:]) / (2.0 * math.cos(math.pi / k))
        across = (h[:, :-1] - h[:, 1:]) / (2.0 * math.sin(math.pi / k))
        vertices = np.exp(-1j * (2.0 * math.pi * (np.arange(k) + 0.5) / k)) * (along + 1j * across)
        fits = np.all(np.isfinite(vertices)) and (
            np.max(numrange.distance_to_D_alpha(vertices, alpha)) <= TOL_GEO / 2
        )
    return bool(fits)


def quadrilateral_fits(c, alpha):
    """Whether the quadrilateral at the normals +-(pi/2 - alpha) and their antipodes fits,
    each vertex solved as the 2 x 2 system of its two lines; False where the rung does not run."""
    edge = math.pi / numrange._LADDER[-1]
    if not edge <= alpha <= math.pi / 2 - edge:
        return False
    normal = math.pi / 2 - alpha
    with np.errstate(over="ignore", invalid="ignore"):
        h = numrange._support_values(np.asarray(c, dtype=np.complex128)[None], np.array([normal, -normal]))[0]
        # the normals in increasing order, with their support values
        lines = [(normal - math.pi, h[1, 0]), (-normal, h[0, 1]), (normal, h[0, 0]), (math.pi - normal, h[1, 1])]
        vertices = []
        for (phi, level), (psi, next_level) in zip(lines, lines[1:] + lines[:1]):
            # Re(e^{i phi} (x + i y)) = x cos(phi) - y sin(phi)
            rows = [[math.cos(phi), -math.sin(phi)], [math.cos(psi), -math.sin(psi)]]
            x, y = np.linalg.solve(rows, [level, next_level])
            vertices.append(complex(x, y))
        fits = np.all(np.isfinite(vertices)) and (
            np.max(numrange.distance_to_D_alpha(np.array(vertices), alpha)) <= TOL_GEO / 2
        )
    return bool(fits)


@settings(deadline=None)
@given(
    st.sampled_from(("contraction", "step", "jordan")),
    st.integers(1, 8),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    st.floats(0.001, 1.0),
    _alpha,
)
def test_ladder_answers_as_the_flat_polygon(kind, dim, seeds, scale, alpha):
    # True exactly when the quadrilateral at the tangent normals or the flat
    # polygon of some level fits
    stack = np.stack([_draw(kind, dim, seed, scale) for seed in seeds])
    expected = [
        quadrilateral_fits(c, alpha) or any(flat_polygon_fits(c, alpha, k) for k in numrange._LADDER)
        for c in stack
    ]
    assert numrange.quasi_sectorial(stack, alpha) == expected


def test_ladder_refines_only_the_matrices_that_do_not_fit(monkeypatch):
    alpha = math.pi / 8
    s = math.sin(alpha)
    stack = np.stack([
        # off the centre, so that support values at the wrong angles would not fit;
        # the 16-gon pokes out of the disc part, the 32-gon fits
        _jordan(0.4 * s * np.exp(2.5j), 0.99 * 0.6 * s, 1.0),
        _jordan(0.0, 1.01 * s, 1.0),  # the circle pokes out: every level is solved, and none fits
        _jordan(0.3, 0.5 * 0.7 * s, 2.5),  # the 16-gon fits
    ])
    solved = [[] for _ in stack]
    support_values = numrange._support_values

    def spy(a, thetas):
        for m in a:
            i = next(i for i, c in enumerate(stack) if np.array_equal(c, m))
            solved[i].extend(thetas.tolist())
        return support_values(a, thetas)

    monkeypatch.setattr(numrange, "_support_values", spy)
    assert numrange.quasi_sectorial(stack, alpha) == [True, False, True]
    # every member solves the two tangent normals; the third fits there, the
    # first at the 32-gon, and the second climbs the whole ladder
    assert [len(thetas) for thetas in solved] == [2 + 16, 2 + 128, 2]
    tangents = [math.pi / 2 - alpha, alpha - math.pi / 2]
    assert all(thetas[:2] == tangents for thetas in solved)
    ladder = [thetas[2:] for thetas in solved]
    assert all(len(set(thetas)) == len(thetas) for thetas in ladder)  # no pair of the ladder is solved twice
    assert sorted(ladder[1]) == numrange._sweep_angles(256).tolist()


def test_stacked_check_refuses_what_a_matrix_alone_refuses():
    with pytest.raises(InvalidInputError):
        numrange.quasi_sectorial(np.stack([np.eye(2) / 2, np.full((2, 2), 1e308)]), 0.5)
    with pytest.raises(InvalidInputError):
        numrange.quasi_sectorial(np.stack([np.eye(2) / 2, np.full((2, 2), np.nan)]), 0.5)


def _normal(eigenvalues, seed):
    u = ensembles.haar_unitary(len(eigenvalues), np.random.default_rng(seed))
    return (u * np.asarray(eigenvalues)) @ u.conj().T


def _edge_triangles():
    # W(A) is the triangle with vertices r e^{+-i alpha} and rho: it touches both edges
    for i, alpha in enumerate((math.pi / 16, math.pi / 8, math.pi / 4, 1.3)):
        for j, (r, rho) in enumerate(((1.0, 0.5), (3.0, 7.0), (0.01, 0.02))):
            lam = [r * np.exp(1j * alpha), r * np.exp(-1j * alpha), rho]
            yield alpha, _normal(lam, 10 * i + j)


def test_sector_edges_certify_from_the_two_normals(monkeypatch):
    refuse_eigensolves(monkeypatch, "eigh")  # no eigenvectors: the sweep never runs
    for alpha, a in _edge_triangles():
        assert numrange.sectorial(a, alpha), alpha


def test_sector_edges_just_outside_fail_through_the_sweep(monkeypatch):
    sweeps = count_calls(monkeypatch, numrange, "numerical_range_boundary")
    cases = 0
    for alpha, a in _edge_triangles():
        assert not numrange.sectorial(a, alpha - 1e-6), alpha
        cases += 1
    # one edge crossed, either one: both normals are checked
    for sign in (1, -1):
        for alpha in (math.pi / 16, 1.3):
            lam = [np.exp(sign * 1j * (alpha + 1e-6)), np.exp(-sign * 0.5j * alpha), 0.5]
            assert not numrange.sectorial(_normal(lam, 3), alpha), (sign, alpha)
            cases += 1
    assert len(sweeps) == cases


def test_sector_vertex_at_zero_defers_to_the_sweep(monkeypatch):
    # at alpha = 0 the support value at both normals is lambda_min(A) = 0, which
    # its backward-error bound raises above 0; the sweep's points are >= 0 and pass
    sweeps = count_calls(monkeypatch, numrange, "numerical_range_boundary")
    for seed in range(4):
        a = _normal([0.0, 0.3, 1.0, 0.7], seed)
        a = (a + a.conj().T) / 2.0
        assert numrange.sectorial(a, 0.0)
    assert len(sweeps) == 4


def test_sector_near_pi_2_never_certifies_from_the_normals(monkeypatch):
    # from alpha + TOL_GEO = pi/2 on the two half-planes do not make up the sector
    refuse_eigensolves(monkeypatch, "eigvalsh")
    sweeps = count_calls(monkeypatch, numrange, "numerical_range_boundary")
    alphas = (math.pi / 2 - 1e-9, math.pi / 2 - 5e-10, math.pi / 2 - 1e-15)
    for alpha in alphas:
        assert numrange.sectorial(np.eye(3) / 2, alpha)
    assert len(sweeps) == len(alphas)


def test_sector_certificate_takes_one_eigvalsh_of_two_matrices(monkeypatch):
    draws = [
        (alpha, ensembles.random_m_sectorial(dim, alpha, ensembles.child_seed(77, i)))
        for i, dim in enumerate((1, 4, 8, 32))
        for alpha in (math.pi / 16, math.pi / 4)
    ]
    refuse_eigensolves(monkeypatch, "eigh")
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: shapes.append(h.shape) or eigvalsh(h))
    for alpha, a in draws:
        assert numrange.sectorial(a, alpha)
        assert shapes.pop() == (2,) + a.shape and not shapes


def _mixed_generators(alpha):
    """Generators at alpha: three the edge normals settle, two with an eigenvalue at the
    vertex 0 that fall back on the sweep and pass it, and two that poke out
    of the sector, one over each edge."""
    settled = [ensembles.random_m_sectorial(4, alpha, ensembles.child_seed(7, i)) for i in range(3)]
    vertex = [_normal([0.0, 0.3, 1.0, 0.7], seed) for seed in range(2)]
    vertex = [(a + a.conj().T) / 2.0 for a in vertex]
    out = [_normal([0.5, np.exp(sign * 1j * (alpha + 1e-6)), 0.3, 0.7], 5) for sign in (1, -1)]
    return np.stack([settled[0], vertex[0], out[0], settled[1], vertex[1], out[1], settled[2]])


@pytest.mark.parametrize("alpha", [0.0, math.pi / 8, 1.3])
def test_sectorial_stack_answers_as_each_generator_alone(monkeypatch, alpha):
    stack = _mixed_generators(alpha)
    alone = [numrange.sectorial(a, alpha) for a in stack]
    assert alone == [True, True, False, True, True, False, True]
    sweeps = count_calls(monkeypatch, numrange, "numerical_range_boundary")
    assert numrange.sectorial(stack, alpha) == alone
    # only the members the normals do not settle are swept, each alone
    assert [args[0].shape for args in sweeps] == [(4, 4)] * 4
    assert numrange.sectorial(stack[:1], alpha) == [True]
    assert numrange.sectorial(stack[0], alpha) is True


def test_sectorial_stack_takes_every_edge_normal_in_one_eigvalsh(monkeypatch):
    alpha = math.pi / 8
    draws = np.stack([ensembles.random_m_sectorial(5, alpha, ensembles.child_seed(77, i)) for i in range(17)])
    refuse_eigensolves(monkeypatch, "eigh")  # every member settles: the sweep never runs
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: shapes.append(h.shape) or eigvalsh(h))
    for m in (1, 2, 7, 16, 17):
        assert numrange.sectorial(draws[:m], alpha) == [True] * m
        # both normals of every member, 32 Hermitian parts per call
        assert shapes == ([(2 * m, 5, 5)] if m <= 16 else [(32, 5, 5), (2 * m - 32, 5, 5)])
        shapes.clear()


@settings(deadline=None)
@given(
    st.sampled_from(("contraction", "generator")),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    _alpha,
    st.sampled_from((16, 64, 256)),
)
def test_support_values_bound_every_point_of_the_numerical_range(kind, dim, seed, alpha, k):
    # both certificates' support values, at the polygon's k angles and the sector's
    # two normals, hold every x*Mx: random unit x and the top eigenvectors of H_theta
    if kind == "contraction":
        m = ensembles.random_contraction(dim, seed)
    else:
        m = ensembles.random_m_sectorial(dim, alpha, seed)
    thetas = np.concatenate([numrange._sweep_angles(k), numrange._sector_normals(alpha)])
    h = numrange._support_values(m[None], thetas)[0].ravel()
    thetas = np.concatenate([thetas, thetas + math.pi])  # h[1] holds the antipodes
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(8)]
    for theta in thetas:
        rotated = np.exp(1j * theta) * m
        xs.append(np.linalg.eigh((rotated + rotated.conj().T) / 2.0)[1][:, -1])
    for x in xs:
        x = x / np.linalg.norm(x)
        z = x.conj() @ m @ x
        assert np.all((np.exp(1j * thetas) * z).real <= h), (z, kind)
