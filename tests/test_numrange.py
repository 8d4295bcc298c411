import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiapprox import approximants, ensembles, numrange
from semiapprox.errors import InvalidInputError, NotAContractionError


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


def test_in_D_alpha_examples():
    assert numrange.in_D_alpha(1.0, 0.0)
    assert numrange.in_D_alpha(1.0, 1.2)
    assert numrange.in_D_alpha(0.0, 0.0)
    assert numrange.in_D_alpha(0.5, math.pi / 4)
    assert not numrange.in_D_alpha(-0.5, 0.2)
    assert not numrange.in_D_alpha(1.5, 0.3)


def test_in_sector_examples():
    assert numrange.in_sector(1.0, 0.1)
    assert not numrange.in_sector(1j, math.pi / 4)
    assert numrange.in_sector(0.0, 0.5)


def test_region_approaches_unit_disc():
    # D(alpha) fills the closed unit disc as alpha -> pi/2
    rng = np.random.default_rng(17)
    zs = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    zs = zs[np.abs(zs) <= 1.0]
    assert np.all(numrange.in_D_alpha(zs, math.pi / 2 - 1e-6))
    assert not numrange.in_D_alpha(1.001, math.pi / 2 - 1e-6)


def test_membership_monotone_in_alpha():
    # sampled grid over the unit square, 20 alphas
    xs = np.linspace(-1.0, 1.0, 200)
    zs = (xs[None, :] + 1j * xs[:, None]).ravel()
    alphas = np.linspace(0.0, math.pi / 2 - 1e-3, 20)
    prev = numrange.in_D_alpha(zs, alphas[0])
    for alpha in alphas[1:]:
        cur = numrange.in_D_alpha(zs, alpha)
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
        member = numrange.in_D_alpha(zs, alpha)
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
    member = numrange.in_D_alpha(complex(x, y), alpha)
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


def test_certify_selfadjoint_segment():
    cert = numrange.certify_quasi_sectorial(np.diag([0.2, 0.8]).astype(complex), 0.0)
    assert cert.passed
    assert cert.max_violation <= 1e-9
    cert = numrange.certify_quasi_sectorial(np.eye(3, dtype=complex), 0.0)
    assert cert.passed


def test_certify_failure_reports_worst_point():
    cert = numrange.certify_quasi_sectorial(np.array([[-0.5]], dtype=complex), 0.3)
    assert not cert.passed
    assert cert.worst_point == pytest.approx(-0.5)
    assert cert.max_violation == pytest.approx(0.5 - math.sin(0.3), abs=1e-12)


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
            cert = numrange.certify_quasi_sectorial(f, alpha, 256)
            assert cert.passed, (alpha, t, cert.max_violation)


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


def polygon_certifies(c, alpha, k):
    """quasi_sectorial with a sweep fallback that answers False, so True comes from the polygon."""
    with pytest.MonkeyPatch.context() as mp:
        failed = numrange.SectorCertificate(np.empty(0), passed=False)
        mp.setattr(numrange, "certify_quasi_sectorial", lambda *args: failed)
        return numrange.quasi_sectorial(c, alpha, k)


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
    st.sampled_from((16, 64, 256)),
)
def test_polygon_certifies_only_what_the_sweep_passes(kind, dim, seed, scale, alpha, k):
    c = _draw(kind, dim, seed, scale)
    if polygon_certifies(c, alpha, k):
        assert numrange.certify_quasi_sectorial(c, alpha, k).passed


def test_polygon_certificate_is_not_vacuous():
    # the draws of the property test reach both answers of the polygon
    answers = {
        polygon_certifies(_draw(kind, 4, seed, 0.5), alpha, 64)
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
                for k in (16, 64, 256):
                    assert numrange.quasi_sectorial(_jordan(lam, radius, phase), alpha, k), (alpha, lam, k)


def test_jordan_discs_poking_out_of_D_alpha_fail_through_the_sweep(monkeypatch):
    sweeps = []
    certify = numrange.certify_quasi_sectorial
    monkeypatch.setattr(
        numrange, "certify_quasi_sectorial", lambda *args: sweeps.append(args) or certify(*args)
    )
    cases = 0
    for alpha in (0.0, 0.1, math.pi / 8, math.pi / 4, 1.2):
        s = math.sin(alpha)
        discs = [(x, 1.1 * (1.0 - x) * s + 1e-3) for x in (0.0, 0.3, 0.7, 0.95)]
        discs += [(-0.5 * s, 0.6 * s + 1e-3), (0.3j, abs(0.3j - 1.0) + 1e-3)]
        for lam, radius in discs:
            for phase in (0.0, 1.0, 2.5):
                for k in (16, 64, 256):
                    assert not numrange.quasi_sectorial(_jordan(lam, radius, phase), alpha, k)
                    cases += 1
    assert len(sweeps) == cases


def test_quasi_sectorial_takes_one_eigvalsh_per_32_angles(monkeypatch):
    # 100 angles are 50 eigenvalue solves, each giving an angle and its antipode
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    refuse_eigensolves(monkeypatch, "eigh")
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: shapes.append(h.shape) or eigvalsh(h))
    assert numrange.quasi_sectorial(np.eye(3), 0.0, 100)
    assert shapes == [(32, 3, 3), (18, 3, 3)]


@pytest.mark.parametrize("alpha", [-0.1, math.pi / 2, 2.0, math.nan])
def test_bad_alpha_is_refused_before_any_eigensolve(monkeypatch, alpha):
    refuse_eigensolves(monkeypatch, "eigh", "eigvalsh")
    for check in (numrange.certify_quasi_sectorial, numrange.quasi_sectorial):
        with pytest.raises(InvalidInputError):
            check(np.eye(2) / 2, alpha, 64)


@pytest.mark.filterwarnings("error")
def test_quasi_sectorial_refuses_what_the_sweep_refuses():
    for c, k in ((np.eye(2), 8), (np.eye(1), 33), (np.full((2, 2), 1e308), 16), (np.full((4, 4), 0.8e308), 16)):
        with pytest.raises(InvalidInputError):
            numrange.quasi_sectorial(c, 0.5, k)
