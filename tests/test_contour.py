import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from semiapprox import approximants, contour, ensembles, harness, linalg, numrange
from semiapprox.errors import DomainError, InvalidInputError
from semiapprox.harness import ExperimentConfig, _draws, _resolvent, run_experiment
from semiapprox.tolerances import MAJORANT_DIST_TOL, MAJORANT_TOL, SCHUR_CUT_TOL


def certified_resolvent(dim, alpha, seed, t=1.0):
    a = ensembles.random_m_sectorial(dim, alpha, seed)
    c = approximants.resolvent_family(a)(t)
    assert numrange.quasi_sectorial(c, alpha)
    return c


def _none_open(nodes):
    # an _evaluate_many mask that leaves no node open, so that the pass takes no norm
    return np.zeros(len(nodes), dtype=bool)


def _no_solve(c, z):
    raise AssertionError("solved")


def _pass_on(fs, c, nodes, alpha):
    # riesz_dunford_many's pass on the contour nodes, whether or not a trial
    # proves it: (values of fs, the majorant check)
    a = linalg.as_operator(c)
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    rnorm, open_nodes = contour._majorant_norms(nodes, alpha, dist, numrange.outer_polygon(a))
    values, exact = contour._evaluate_many(contour._weights(fs, nodes), a, nodes, open_nodes)
    rnorm[open_nodes] = exact
    return values, contour._check_report(nodes, alpha, dist, rnorm)


def majorant_report(c, alpha, nodes):
    _, report = _pass_on([lambda z: 1.0], c, nodes, alpha)
    return report


def _per_node_norms(c, z):
    # exact resolvent norms at the nodes z, each from its own LAPACK solve
    eye = np.eye(c.shape[0], dtype=complex)
    return np.asarray(linalg.op_norms(np.stack([np.linalg.solve(w * eye - c, eye) for w in z])))


def _stack(c, z):
    # the stack the pass solves at the nodes z, one node a row: (z_j - T)^{-1}
    # in the basis of contour._reduce(C).  For a whole contour (a multiple of
    # 16 nodes) its rows are the pass's bit for bit, whatever the stacks
    return np.moveaxis(contour._solve(contour._reduce(linalg.as_operator(c)), np.asarray(z)), -1, 0)


def _stack_norms(c, z):
    # exact norms of the pass's own rows at the nodes z (a whole contour)
    return np.asarray(linalg.op_norms(_stack(c, z)))


def _cut(c):
    # the largest Frobenius norm of a corner that contour._reduce cuts to zero
    return SCHUR_CUT_TOL * c.shape[0] * 2.0**-53 * np.linalg.norm(c)


def _kappa_tol(c, z):
    # the allowance between a resolvent from the reduction and from a per-node
    # LAPACK inverse, relative, as the module docstring's rounding model
    # gives it: kappa_j (eta_j + 2^6 d u), kappa_j the condition of z_j - C
    # in spectral norm and eta_j ||z_j - C|| = sqrt(d - 1) cuts, the
    # reduction's backward error; that is (2^6 d u ||z_j - C|| + sqrt(d - 1)
    # cut) / sigma_min(z_j - C)
    z, dim = np.atleast_1d(z), c.shape[0]
    sigma = np.linalg.svd(z[:, None, None] * np.eye(dim) - c, compute_uv=False)
    return (2.0**6 * dim * 2.0**-53 * sigma[:, 0] + math.sqrt(dim - 1) * _cut(c)) / sigma[:, -1]


def _assert_near_per_node(c, z, norms):
    # norms (of the reduction's resolvents at the nodes z) are the per-node
    # LAPACK norms within _kappa_tol
    want = _per_node_norms(c, z)
    assert np.all(np.abs(norms - want) <= _kappa_tol(c, z) * want)


def per_node_report(c, nodes, alpha):
    # the check on exact norms at every node, each from its own LAPACK solve
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    return contour._check_report(nodes, alpha, dist, _per_node_norms(c, nodes.z))


def stack_report(c, nodes, alpha):
    # the check on the exact norms of the pass's own rows at every node
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    return contour._check_report(nodes, alpha, dist, _stack_norms(c, nodes.z))


def bound_first_values(c, nodes, alpha):
    # the values the check reads, as riesz_dunford_many should take them: the
    # polygon bound U = (1 + 1e-6)/l (inf where l <= 0) where its ratios lie
    # within the tolerances, and the exact norm of the pass's own row at the
    # other nodes, which are returned too
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    ell = numrange.support_distance(numrange.outer_polygon(c), nodes.z)
    values = np.full(len(nodes), np.inf)
    values[ell > 0.0] = (1.0 + 1e-6) / ell[ell > 0.0]
    side, far = contour._majorant_ratios(nodes, alpha, dist, values)
    exact = ~((side <= 1.0 + MAJORANT_TOL) & (far <= 1.0 + MAJORANT_DIST_TOL))
    if np.any(exact):
        values[exact] = _stack_norms(c, nodes.z)[exact]
    return values, exact


def bound_first_report(c, nodes, alpha):
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    return contour._check_report(nodes, alpha, dist, bound_first_values(c, nodes, alpha)[0])


def _checked(monkeypatch, run, *args):
    # run(*args), riesz_dunford_many or _pass_on, with what its check reads:
    # (values, report, the contour checked, the value of each node, the
    # stack sizes of op_norms calls while the pass takes exact norms)
    seen, rows = [], []
    check, evaluate = contour._check_report, contour._evaluate_many

    def spy_check(nodes, alpha, dist, rnorm):
        seen.append((nodes, rnorm.copy()))
        return check(nodes, alpha, dist, rnorm)

    def spy_pass(*args):
        op_norms = linalg.op_norms
        with monkeypatch.context() as m:
            m.setattr(linalg, "op_norms", lambda stack: rows.append(len(stack)) or op_norms(stack))
            return evaluate(*args)

    with monkeypatch.context() as m:
        m.setattr(contour, "_check_report", spy_check)
        m.setattr(contour, "_evaluate_many", spy_pass)
        values, report = run(*args)
    (nodes, rnorm), = seen
    return values, report, nodes, rnorm, rows


def _worst(report):
    return report.worst_ratio_arc, report.worst_ratio_lines, report.worst_dist_ratio


def _assert_bounds_the_exact_check(report, exact, rel=0.0):
    # the verdict of the check of exact norms, and no maximum below its own;
    # rel allows for the rounding of computed norms against closed forms, or
    # of the pass's norms against per-node LAPACK ones (_kappa_tol)
    assert report.passed == exact.passed
    assert all(got >= want * (1.0 - rel) for got, want in zip(_worst(report), _worst(exact)))


def _one(z, r):
    # |f| <= 1 on every disc, for f = 1
    return np.ones(np.shape(r))


def _inf(z, r):
    return np.full(np.shape(r), np.inf)


def _harness_families(monkeypatch, ns):
    # the functions and their bounds on discs that harness._contour_sweep passes for ns
    caught = []
    with monkeypatch.context() as m:
        m.setattr(contour, "riesz_dunford_many", lambda *args: caught.append(args) or ([np.zeros((1, 1))] * 2 * len(ns), None))
        harness._contour_sweep(np.array([[0.5]]), None, ns, 0.0)
    fs, _, _, _, f_bounds = caught[0]
    return fs, f_bounds


def test_contour_geometry():
    ap = math.pi / 4
    nodes = contour.build_contour(ap)
    arc = nodes.z[nodes.on_arc]
    assert np.max(np.abs(np.abs(arc) - math.sin(ap))) <= 1e-12
    line = nodes.z[~nodes.on_arc]
    dist = np.abs(line - 1.0)
    assert dist.max() <= math.cos(ap) + 1e-12
    assert dist.min() > 0.0  # vertex itself is never a node


def test_nodes_outside_smaller_region():
    ap = math.pi / 3
    nodes = contour.build_contour(ap)
    for alpha in (0.0, math.pi / 8, math.pi / 4):
        dists = np.atleast_1d(numrange.distance_to_D_alpha(nodes.z, alpha))
        assert np.all(dists > 0.0)


def test_winding_number():
    nodes = contour.build_contour(math.pi / 4)
    assert abs(contour.winding_number(nodes, 0.2 + 0.0j) - 1.0) <= 1e-8
    assert abs(contour.winding_number(nodes, 0.5 + 0.1j) - 1.0) <= 1e-8
    # far outside: winding 0
    assert abs(contour.winding_number(nodes, 3.0 + 0.0j)) <= 1e-8


def test_build_contour_validation():
    with pytest.raises(DomainError):
        contour.build_contour(0.0)
    with pytest.raises(DomainError):
        contour.build_contour(math.pi / 2)
    with pytest.raises(InvalidInputError):
        contour.build_contour(1.0, k_arc=4)
    for k_arc, k_line in ((8.5, 8), (8, 8.0), (True, 8), (8, np.float64(16.0)), (32, 7), (8, "16")):
        with pytest.raises(InvalidInputError, match="must be an integer >= 8"):
            contour.build_contour(1.0, k_arc, k_line)
    assert len(contour.build_contour(1.0, np.int64(8), 8)) == 16 * 24


@pytest.mark.parametrize("alpha_prime, deepest", [(1.0, 1022), (math.pi / 2 - 0.05, 1018)])
def test_build_contour_keeps_the_innermost_side_edge_a_normal_float(alpha_prime, deepest):
    # cos(alpha') 2^(1 - k_line) >= 2^-1022 up to k_line = deepest, and no
    # node is the vertex; one panel deeper the edge is subnormal, and at
    # k_line >= 1074 it would underflow into panels of length zero at z = 1
    nodes = contour.build_contour(alpha_prime, 8, deepest)
    assert np.min(np.abs(nodes.z - 1.0)) > 0.0 and np.all(nodes.dz_weight != 0.0)
    for k_line in (deepest + 1, 1074, 2048, np.int64(4096), 10**30):
        with pytest.raises(InvalidInputError, match="below the normal floats"):
            contour.build_contour(alpha_prime, 8, k_line)


def test_cauchy_formula_identity():
    c = certified_resolvent(4, math.pi / 8, 1001)
    nodes = contour.build_contour(0.5 * (math.pi / 8 + math.pi / 2))
    (got,), _ = contour.riesz_dunford_many([lambda z: 1.0], c, nodes.alpha_prime, math.pi / 8, [_one])
    assert linalg.op_norm(got - np.eye(4)) <= 1e-8


def test_scalar_ritt_reconstruction():
    nodes = contour.build_contour(math.pi / 4)
    c = np.array([[0.5]], dtype=complex)
    bound = [lambda z, r: (np.abs(z) + r) * (np.abs(1.0 - z) + r)]
    (got,), _ = contour.riesz_dunford_many([lambda z: z * (1.0 - z)], c, nodes.alpha_prime, 0.0, bound)
    assert abs(got[0, 0] - 0.25) <= 1e-8


def test_matrix_reconstruction_oracle(monkeypatch):
    ns = (1, 4, 16)
    fs, f_bounds = _harness_families(monkeypatch, ns)
    for i, alpha in enumerate((math.pi / 16, math.pi / 8)):
        c = certified_resolvent(5, alpha, 2000 + i)
        ap = 0.5 * (alpha + math.pi / 2)
        nodes = contour.build_contour(ap)
        eye = np.eye(5)
        for j, n in enumerate(ns):
            direct = linalg.mat_pow(c, n) @ (eye - c)
            (got,), _ = contour.riesz_dunford_many([fs[j]], c, nodes.alpha_prime, alpha, [f_bounds[j]])
            assert linalg.op_norm(got - direct) <= 1e-7
            direct = linalg.mat_pow(c, n) - linalg.expm(n * (c - eye))
            k = len(ns) + j
            (got,), _ = contour.riesz_dunford_many([fs[k]], c, nodes.alpha_prime, alpha, [f_bounds[k]])
            assert linalg.op_norm(got - direct) <= 1e-7


def test_riesz_dunford_many_matches_single():
    c = certified_resolvent(3, math.pi / 8, 3000)
    nodes = contour.build_contour(1.0)
    fs = [lambda z: 1.0, lambda z: z * (1 - z)]
    f_bounds = [_one, lambda z, r: (np.abs(z) + r) * (np.abs(1.0 - z) + r)]
    batch, _ = contour.riesz_dunford_many(fs, c, nodes.alpha_prime, math.pi / 8, f_bounds)
    for f, bound, got in zip(fs, f_bounds, batch):
        (single,), _ = contour.riesz_dunford_many([f], c, nodes.alpha_prime, math.pi / 8, [bound])
        assert np.array_equal(got, single)


def test_majorants_hold_selfadjoint_example():
    c = np.diag([0.2, 0.8]).astype(complex)
    report = majorant_report(c, 0.01, contour.build_contour(math.pi / 4))
    assert report.passed
    assert report.worst_ratio_arc <= 1 + 1e-8
    assert report.worst_ratio_lines <= 1 + 1e-8
    assert report.worst_dist_ratio <= 1 + 1e-6


def test_majorants_hold_random_certified():
    for i, alpha in enumerate((math.pi / 16, math.pi / 8, math.pi / 4)):
        c = certified_resolvent(4, alpha, 4000 + i)
        for ap_frac in (0.35, 0.6, 0.85):
            ap = alpha + (math.pi / 2 - alpha) * ap_frac
            report = majorant_report(c, alpha, contour.build_contour(ap))
            assert report.passed, (alpha, ap_frac)


def test_rnorm_is_op_norm_of_per_node_solves(monkeypatch):
    # W(J) = |z - 0.3| <= 0.6 reaches past the lines near the vertex: the
    # check reads the exact norm of the pass's own row, bit for bit, at
    # every node whose polygon bound cannot prove it, and the bound
    # elsewhere; that norm is the per-node LAPACK solve's within _kappa_tol
    c = np.array([[0.3, 1.2], [0.0, 0.3]], dtype=complex)
    nodes = contour.build_contour(1.0)
    _, report, checked, rnorm, rows = _checked(monkeypatch, _pass_on, [lambda z: z], c, nodes, math.pi / 8)
    want, exact = bound_first_values(c, nodes, math.pi / 8)
    assert 0 < np.count_nonzero(exact) < len(nodes) and sum(rows) == np.count_nonzero(exact)
    assert np.array_equal(checked.z, nodes.z) and np.array_equal(rnorm, want)
    assert np.array_equal(rnorm[exact], _stack_norms(c, nodes.z)[exact])
    _assert_near_per_node(c, nodes.z[exact], rnorm[exact])
    _assert_bounds_the_exact_check(report, per_node_report(c, nodes, math.pi / 8))


def _scaled_resolvent(dim, alpha, seed, t, exponent, nodes):
    # C with ||(z - C)^{-1}|| up to about 10^exponent on the nodes: for
    # exponent <= 0, 10^-exponent C; above 0, D C D^{-1} with D diagonal of
    # condition number 10^exponent / (the largest ||(z - C)^{-1}||_F of a
    # per-node inverse), so that no resolvent reaches the blow-up check's 1e15
    c = approximants.resolvent_family(ensembles.random_m_sectorial(dim, alpha, seed))(t)
    if exponent <= 0:
        return 10.0 ** -exponent * c
    peak = np.max(np.linalg.norm(np.linalg.inv(nodes.z[:, None, None] * np.eye(dim) - c), axis=(1, 2)))
    d = 10.0 ** np.linspace(0.0, max(exponent - math.log10(peak), 0.0), dim)
    return d[:, None] * c / d


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 16),
    alpha=st.sampled_from([0.0, math.pi / 16, math.pi / 8, math.pi / 4]),
    t=st.sampled_from([0.25, 1.0, 4.0]),
    seed=st.integers(0, 2**16),
    exponent=st.floats(-19.0, 14.0),
)
def test_majorant_verdict_equals_check_of_all_exact_norms(dim, alpha, t, seed, exponent):
    # a pass needs no proof, so resolvents of any size can be checked, from
    # 1e-19 C (every node proved) to similarities whose W(C) covers the
    # contour (every node exact); the report is the check of the
    # bound-first values, its verdict that of exact norms at every node
    # (per-node LAPACK ones, its maxima within _kappa_tol of theirs)
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    c = _scaled_resolvent(dim, alpha, seed, t, exponent, nodes)
    _, report = _pass_on([lambda z: 0.0], c, nodes, alpha)
    assert dataclasses.astuple(report) == dataclasses.astuple(bound_first_report(c, nodes, alpha))
    _assert_bounds_the_exact_check(report, per_node_report(c, nodes, alpha), rel=np.max(_kappa_tol(c, nodes.z)))


def test_no_solve_between_the_base_pass_and_the_check(monkeypatch):
    # the check takes its exact norms from the base pass's own rows
    events = []
    evaluate, solve, check = contour._evaluate_many, contour._solve, contour._check_report
    monkeypatch.setattr(
        contour, "_evaluate_many", lambda *a, **k: (evaluate(*a, **k), events.append("pass"))[0]
    )
    monkeypatch.setattr(contour, "_solve", lambda c, z: events.append("solve") or solve(c, z))
    monkeypatch.setattr(contour, "_check_report", lambda *a: events.append("check") or check(*a))
    alpha = math.pi / 8
    c = certified_resolvent(5, alpha, 3000)
    alpha_prime = 0.5 * (alpha + math.pi / 2)
    f_bounds = [lambda z, r: np.abs(z) + r]
    nodes = contour._proved_contour(f_bounds, alpha_prime, numrange.outer_polygon(c))
    _, report = contour.riesz_dunford_many([lambda z: z], c, alpha_prime, alpha, f_bounds)
    assert events[events.index("pass") + 1] == "check"
    assert report == bound_first_report(c, nodes, alpha)


def test_distances_are_taken_once_per_call(monkeypatch):
    # the polygon bounds and the check share one distance_to_D_alpha of the
    # nodes solved
    alpha = math.pi / 8
    c = certified_resolvent(4, alpha, 3000)
    alpha_prime = 0.5 * (alpha + math.pi / 2)
    f_bounds = [lambda z, r: np.abs(z) + r]
    nodes = contour._proved_contour(f_bounds, alpha_prime, numrange.outer_polygon(c))
    _, want = contour.riesz_dunford_many([lambda z: z], c, alpha_prime, alpha, f_bounds)
    calls = []
    distance = numrange.distance_to_D_alpha
    monkeypatch.setattr(numrange, "distance_to_D_alpha", lambda z, a: calls.append(len(z)) or distance(z, a))
    _, report = contour.riesz_dunford_many([lambda z: z], c, alpha_prime, alpha, f_bounds)
    assert calls == [len(nodes)]
    assert dataclasses.astuple(report) == dataclasses.astuple(want)


def test_default_draws_take_few_exact_norms(monkeypatch):
    # the op_norms calls ahead of the majorant check would take the exact
    # norms; the polygon bound proves every node of every default draw
    config = ExperimentConfig("contour_reconstruction")
    base = contour.build_contour(0.5 * (config.alpha + math.pi / 2))
    events = []
    op_norms, check = linalg.op_norms, contour._check_report

    def counting(stack):
        events.append(len(stack))
        return op_norms(stack)

    def checking(*args):
        events.append("check")
        return check(*args)

    monkeypatch.setattr(linalg, "op_norms", counting)
    monkeypatch.setattr(contour, "_check_report", checking)
    draws, _ = _draws(config, _resolvent, numrange.quasi_sectorial)
    assert draws
    for _, c, _ in draws:
        events.clear()
        contour.riesz_dunford_many([lambda z: 1.0], c, base.alpha_prime, config.alpha, [_one])
        assert events.index("check") == 0


def test_default_draw_counts_its_exact_norms(monkeypatch):
    # the first default draw, its quadrature error proved on the (8, 10)
    # trial contour (l_1 = 2.8e-3 picks 10 panels a side): the polygon bound
    # proves all 448 nodes, so no exact norm is taken, and each node is
    # solved once
    config = ExperimentConfig("contour_reconstruction")
    base = contour.build_contour(0.5 * (config.alpha + math.pi / 2))
    solved_contour = contour.build_contour(base.alpha_prime, 8, 10)
    (_, c, _), *_ = _draws(config, _resolvent, numrange.quasi_sectorial)[0]
    solved, solve = [], contour._solve
    monkeypatch.setattr(contour, "_solve", lambda c, z: solved.append(len(z)) or solve(c, z))
    _, report, checked, _, rows = _checked(
        monkeypatch, contour.riesz_dunford_many, [lambda z: 1.0], c, base.alpha_prime, config.alpha, [_one]
    )
    assert (rows, sum(solved), len(checked)) == ([], 448, 448)
    assert report == bound_first_report(c, solved_contour, config.alpha)
    _assert_bounds_the_exact_check(report, per_node_report(c, solved_contour, config.alpha))


def _slot_draw(slot):
    # the draw of the contour_calc benchmark's first block's slot, and its alpha
    alpha, t = (math.pi / 16, math.pi / 8, math.pi / 4)[slot % 3], (0.1, 1.0, 10.0)[slot // 3 % 3]
    return _pool_draw(slot + 2, alpha, 2_000_000 + slot, t), alpha


@pytest.mark.parametrize("slot", range(15))
def test_contour_calc_slots_report_the_exact_maxima(monkeypatch, slot):
    # the 15 slot shapes of the contour_calc benchmark's first block, d =
    # 2..16, with the polygon bound withheld (every support distance -inf):
    # no trial is proved, and a pass on the (32, 16) contour takes the exact
    # norm of every node from its own rows, in stacks of every size, and
    # the report is the check of those norms at every node, bit for bit,
    # with the verdict of per-node LAPACK norms and maxima within _kappa_tol
    c, alpha = _slot_draw(slot)
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    monkeypatch.setattr(numrange, "support_distance", lambda polygon, z, *a: np.full(np.shape(np.atleast_1d(z)), -np.inf))
    with pytest.raises(contour.ContourTooCloseError, match="not proved"):
        contour.riesz_dunford_many([lambda z: 0.0], c, nodes.alpha_prime, alpha, [_one])
    _, report, _, _, rows = _checked(monkeypatch, _pass_on, [lambda z: 0.0], c, nodes, alpha)
    assert sum(rows) == len(nodes)
    assert dataclasses.astuple(report) == dataclasses.astuple(stack_report(c, nodes, alpha))
    _assert_bounds_the_exact_check(report, per_node_report(c, nodes, alpha), rel=np.max(_kappa_tol(c, nodes.z)))


def _polygon_bounds(c, nodes):
    # the polygon bounds U the check starts from, before the base pass
    # writes any exact norm over them; they do not depend on alpha
    dist = numrange.distance_to_D_alpha(nodes.z, 0.0)
    upper, _ = contour._majorant_norms(nodes, 0.0, dist, numrange.outer_polygon(c))
    return upper


@pytest.mark.parametrize("slot", range(15))
def test_polygon_bounds_hold_on_the_contour_calc_slots(slot):
    # the 15 slot shapes of the contour_calc benchmark's first block, d =
    # 2..16: U >= the exact norm at every base node, and the bound proves
    # every node, so the report is the check at U, with the verdict of
    # exact norms and no maximum below theirs
    c, alpha = _slot_draw(slot)
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    upper, exact = _polygon_bounds(c, nodes), _stack_norms(c, nodes.z)
    assert np.all(exact <= upper)
    assert np.count_nonzero(np.isfinite(upper)) >= 0.8 * len(nodes)
    _, report = _pass_on([lambda z: 0.0], c, nodes, alpha)
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    assert report == contour._check_report(nodes, alpha, dist, upper)
    _assert_bounds_the_exact_check(report, contour._check_report(nodes, alpha, dist, exact))


@pytest.mark.parametrize("dim, seed", [(1, 1), (3, 2), (8, 3), (16, 4)])
def test_polygon_bounds_hold_for_normal_matrices(dim, seed):
    # ||(z - C)^{-1}|| = 1 / min_i |z - lambda_i| for C = Q diag(lambda) Q^H
    rng = np.random.default_rng(seed)
    lam = 0.6 * np.sqrt(rng.uniform(size=dim)) * np.exp(2j * math.pi * rng.uniform(size=dim))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    c = (q * lam) @ q.conj().T
    nodes = contour.build_contour(1.0)
    upper = _polygon_bounds(c, nodes)
    exact = 1.0 / np.min(np.abs(nodes.z[:, None] - lam), axis=1)
    assert np.all(exact <= upper) and np.all(_stack_norms(c, nodes.z) <= upper)
    assert np.count_nonzero(np.isfinite(upper)) >= 0.8 * len(nodes)


@pytest.mark.parametrize("lam, b", [(0.3, 0.4), (0.5j - 0.1, 0.2j), (0.2 - 0.2j, 0.05)])
def test_polygon_bounds_hold_for_jordan_blocks(lam, b):
    # W(J) is the disc |z - lambda| <= |b|/2, and R = [[1/w, b/w^2], [0, 1/w]]
    # with w = z - lambda has the norm (|b/w^2| + sqrt(|b/w^2|^2 + 4/|w|^2)) / 2
    c = np.array([[lam, b], [0.0, lam]], dtype=complex)
    nodes = contour.build_contour(1.0)
    w = np.abs(nodes.z - lam)
    assert np.all(numrange.support_distance(numrange.outer_polygon(c), nodes.z) <= w - abs(b) / 2)
    exact = (abs(b) / w**2 + np.sqrt((abs(b) / w**2) ** 2 + 4 / w**2)) / 2
    upper = _polygon_bounds(c, nodes)
    assert np.all(exact <= upper) and np.all(_stack_norms(c, nodes.z) <= upper)
    assert np.count_nonzero(np.isfinite(upper)) >= 0.8 * len(nodes)


def test_a_node_next_to_an_eigenvalue_takes_its_exact_norm(monkeypatch):
    # an eigenvalue 1e-9 from node 200: U there is finite, about 1e9, but
    # far above the majorant, so a pass on the (32, 16) contour takes the
    # exact norm there and the check fails by it, as the check of exact
    # norms does
    nodes = contour.build_contour(1.0)
    lam = nodes.z[200] * (1.0 - 1e-9)
    c = np.array([[lam]])
    ell = numrange.support_distance(numrange.outer_polygon(c), nodes.z)
    upper = _polygon_bounds(c, nodes)
    assert 0.0 < ell[200] < 1e-9 and np.all(np.isfinite(upper))
    _, report, _, rnorm, rows = _checked(monkeypatch, _pass_on, [lambda z: 0.0], c, nodes, math.pi / 8)
    want, exact = bound_first_values(c, nodes, math.pi / 8)
    assert exact[200] and sum(rows) == np.count_nonzero(exact) and np.array_equal(rnorm, want)
    assert rnorm[200] == pytest.approx(1.0 / abs(nodes.z[200] - lam), rel=1e-6) and rnorm[200] < upper[200]
    assert not report.passed
    _assert_bounds_the_exact_check(report, per_node_report(c, nodes, math.pi / 8))


def test_polygon_bounds_hold_where_lu_grows_large():
    # C = I - W/20 with W the Wilkinson growth matrix (1 on the diagonal, -1
    # below it, 1 in the last column): near the vertex z = 1, z - C is close to
    # W/20, whose LU with partial pivoting grows by 2^31.  Those nodes lie in
    # the outer polygon of W(C) and get U = inf; where U is finite the growth
    # stays below 2, and U is at least the norm of the computed resolvent.
    # The check takes exact norms where U cannot prove, with the verdict of
    # exact norms at every node
    alpha, dim = math.pi / 8, 32
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    w = np.eye(dim) - np.tril(np.ones((dim, dim)), -1)
    w[:, -1] = 1.0
    c = (np.eye(dim) - w / 20).astype(complex)
    upper = _polygon_bounds(c, nodes)
    growth = np.empty(len(nodes))
    for j, z in enumerate(nodes.z):
        m = z * np.eye(dim) - c
        growth[j] = np.max(np.abs(scipy.linalg.lu(m)[2])) / np.max(np.abs(m))
    bounded = np.isfinite(upper)
    assert np.max(growth) > 2.0**30 and np.all(growth[bounded] < 2.0)
    assert 0 < np.count_nonzero(bounded) < len(nodes)
    exact = _stack_norms(c, nodes.z)
    assert np.all(exact <= upper)
    report = _pass_on([], c, nodes, alpha)[1]
    assert report == bound_first_report(c, nodes, alpha)
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    _assert_bounds_the_exact_check(report, contour._check_report(nodes, alpha, dist, exact))


def test_support_distance_keeps_the_backward_error_slack():
    # W([[0.5]]) = {0.5}: the line at theta = 0 sits at h = 0.5 + 64 u 0.5,
    # so the bound at 0.75 lies at least 32 u below the distance 0.25
    u = 2.0**-53
    (ell,) = numrange.support_distance(numrange.outer_polygon(np.array([[0.5]])), [0.75])
    assert 0.25 - 1e-14 <= ell <= 0.25 - 32 * u


def test_support_distance_of_ellipses_and_discs():
    # W(C) = {lambda}: the bound is at most the distance from lambda to each
    # ellipse (sampled on its boundary), and for a disc (a = b) within the
    # 32-gon's cos(pi/32) of |z - lambda| - a
    lam = 0.3 - 0.2j
    h = numrange.outer_polygon(np.array([[lam]]))
    rng = np.random.default_rng(5)
    z = lam + 2.0 * np.exp(2j * math.pi * rng.uniform(size=40))
    d = np.exp(2j * math.pi * rng.uniform(size=40))
    a = rng.uniform(0.2, 1.5, size=40)
    b = a * rng.uniform(0.0, 1.0, size=40)
    phi = np.linspace(0.0, 2.0 * math.pi, 4001)[:, None]
    edge = z + d * (a * np.cos(phi) + 1j * b * np.sin(phi))
    ell = numrange.support_distance(h, z, (d, a, b))
    assert np.all(ell <= np.min(np.abs(edge - lam), axis=0))
    assert np.count_nonzero(ell > 0.0) > 20
    disc = numrange.support_distance(h, z, (np.ones(40), a, a))
    assert np.all(disc <= np.abs(z - lam) - a)
    assert np.all(disc >= np.abs(z - lam) * math.cos(math.pi / 32) - a - 1e-12)


def test_a_numerical_range_across_the_contour_gives_the_exact_report():
    # W(J) = |z - 0.3| <= 0.8 crosses both lines: the nodes inside it get no
    # bound and take exact norms, and the maxima sit there, so the report is
    # the one of the pass's exact norms at every node, and has the verdict
    # and, within _kappa_tol, the maxima of per-node LAPACK norms
    alpha = math.pi / 8
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    c = np.array([[0.3, 1.6], [0.0, 0.3]], dtype=complex)
    upper = _polygon_bounds(c, nodes)
    assert 0 < np.count_nonzero(np.isinf(upper)) < len(nodes)
    _, report = _pass_on([lambda z: 0.0], c, nodes, alpha)
    assert dataclasses.astuple(report) == dataclasses.astuple(stack_report(c, nodes, alpha))
    lapack = per_node_report(c, nodes, alpha)
    assert report.passed == lapack.passed
    assert _worst(report) == pytest.approx(_worst(lapack), rel=np.max(_kappa_tol(c, nodes.z)), abs=0.0)
    assert report == bound_first_report(c, nodes, alpha)


def _normal(lams, seed=0):
    # C = Q diag(lambda) Q^H, and ||(z - C)^{-1}|| = 1 / min_i |z - lambda_i|
    lam = np.asarray(lams, dtype=complex)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((lam.size,) * 2) + 1j * rng.standard_normal((lam.size,) * 2))
    return (q * lam) @ q.conj().T, lambda z: 1.0 / np.min(np.abs(z[:, None] - lam), axis=1)


def _jordan(lam, b):
    # J = [[lambda, b], [0, lambda]], W(J) the disc |z - lambda| <= |b|/2, and
    # R = [[1/w, b/w^2], [0, 1/w]] (w = z - lambda) of norm (|b/w^2| + sqrt(|b/w^2|^2 + 4/|w|^2)) / 2
    def norms(z):
        q = abs(b) / np.abs(z - lam) ** 2
        return (q + np.sqrt(q**2 + 4.0 / np.abs(z - lam) ** 2)) / 2.0

    return np.array([[lam, b], [0.0, lam]], dtype=complex), norms


def _known_norms(family, alpha):
    # item 3's families against D(alpha), alpha' = (alpha + pi/2)/2: on its
    # boundary (the hull of points on the two sides, and at the disc), a
    # point just outside a side, and a Jordan disc about 0.5 of radius 0.2
    ap = 0.5 * (alpha + math.pi / 2)
    side = [1.0 - s * math.cos(alpha) * np.exp(sign * 1j * alpha) for s in (0.3, 0.8) for sign in (1, -1)]
    if family == "boundary":
        return _normal(side + [-math.sin(alpha), 0.1j * math.sin(alpha)], seed=1)
    if family == "outside":
        return _normal([1.0 - 0.5 * math.cos(ap) * np.exp(-1j * (alpha + (ap - alpha) / 3)), 0.4], seed=2)
    return _jordan(0.5, 0.4)


@pytest.mark.parametrize("family", ["boundary", "outside", "jordan"])
@pytest.mark.parametrize("alpha", [0.0, 1e-9, math.pi / 8, 1.3, 1.5])
def test_the_check_bounds_known_resolvent_norms(monkeypatch, alpha, family):
    # every value the check reads is at least the exact norm; where the
    # polygon bound cannot prove a node the base pass takes the exact norm
    # of its own row, and nowhere else; the verdict is that of exact norms
    # at every node, its maxima those of per-node LAPACK norms within
    # _kappa_tol.  At alpha = 1.3 and 1.5
    # no trial proves the boundary or the outside family, and its pass on
    # the (32, 16) contour is checked instead
    c, norms = _known_norms(family, alpha)
    ap = 0.5 * (alpha + math.pi / 2)
    try:
        _, report, nodes, rnorm, rows = _checked(
            monkeypatch, contour.riesz_dunford_many, [lambda z: 0.0], c, ap, alpha, [_one]
        )
    except contour.ContourTooCloseError:
        assert family != "jordan" and alpha >= 1.3
        _, report, nodes, rnorm, rows = _checked(monkeypatch, _pass_on, [lambda z: 0.0], c, contour.build_contour(ap), alpha)
    known = norms(nodes.z)
    want, exact = bound_first_values(c, nodes, alpha)
    assert np.array_equal(rnorm, want) and sum(rows) == np.count_nonzero(exact)
    assert np.all(rnorm >= known * (1.0 - 1e-9))
    assert rnorm[exact] == pytest.approx(known[exact], rel=1e-9)
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    _assert_bounds_the_exact_check(report, contour._check_report(nodes, alpha, dist, known), rel=1e-9)
    _assert_bounds_the_exact_check(report, per_node_report(c, nodes, alpha), rel=np.max(_kappa_tol(c, nodes.z)))
    if family == "boundary":
        assert report.passed and np.any(exact)


def test_a_numerical_range_outside_D_alpha_fails_by_exact_norms(monkeypatch):
    # an eigenvalue between a side of D(alpha) and the contour: the line
    # nodes next to it have ||(z - C)^{-1}|| above the majorant, their
    # polygon bound cannot prove them, and the check fails at their exact
    # norms, at the maximum of exact norms
    alpha = math.pi / 8
    c, norms = _known_norms("outside", alpha)
    ap = 0.5 * (alpha + math.pi / 2)
    _, report, nodes, rnorm, _ = _checked(monkeypatch, contour.riesz_dunford_many, [lambda z: 0.0], c, ap, alpha, [_one])
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    side, _ = contour._majorant_ratios(nodes, alpha, dist, norms(nodes.z))
    over = side > 1.0 + MAJORANT_TOL
    assert np.any(over) and not report.passed
    assert np.array_equal(rnorm[over], _stack_norms(c, nodes.z)[over])
    _assert_near_per_node(c, nodes.z[over], rnorm[over])
    assert report.worst_ratio_lines == stack_report(c, nodes, alpha).worst_ratio_lines


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 32])
def test_stacked_products_equal_the_per_function_loop(dim):
    # 1 to 10 functions on a contour of 464 nodes, no whole number of
    # stacks from d = 5 up: each stack adds one product of all the weights,
    # a lone one padded with a zero row, in stack order, each sum goes back
    # to C's basis as Q S Q^H / 2 pi i, and each function's value is the
    # one it gets alone
    rng = np.random.default_rng(dim)
    nodes = contour.build_contour(1.0, 9, 10)
    step = contour._stack_nodes(dim)
    assert len(nodes) == 464 and (dim < 5 or len(nodes) % step)
    c = certified_resolvent(dim, math.pi / 8, 8000 + dim)
    schur = contour._reduce(c)
    flat = contour._solve(schur, nodes.z).reshape(dim * dim, len(nodes))
    for count in (1, 2, 3, 10):
        weights = rng.standard_normal((count, len(nodes))) + 1j * rng.standard_normal((count, len(nodes)))
        padded = np.concatenate([weights, np.zeros((int(count == 1), len(nodes)))])
        acc = np.zeros((len(padded), dim * dim), dtype=complex)
        for start in range(0, len(nodes), step):
            acc += padded[:, start:start + step] @ flat[:, start:start + step].T
        got, _ = contour._evaluate_many(weights, c, nodes, _none_open(nodes))
        want = schur.q @ acc[:count].reshape(count, dim, dim) @ schur.q.conj().T / (2j * math.pi)
        assert np.array_equal(np.array(got), want)
        for w, value in zip(weights, got):
            assert np.array_equal(contour._evaluate_many(w, c, nodes, _none_open(nodes))[0][0], value)


def test_bad_functions_are_refused_before_solving(monkeypatch):
    def no_solves(c, z):
        raise AssertionError("solved before checking fs")

    monkeypatch.setattr(contour, "_solve", no_solves)
    nodes = contour.build_contour(1.0)
    c = np.diag([0.2, 0.5]).astype(complex)
    with pytest.raises(InvalidInputError, match="at least one function"):
        contour.riesz_dunford_many([], c, nodes.alpha_prime, 0.1, [])
    # the (8, 3) trial contour is proved, and the functions are called on its 224 nodes
    with pytest.raises(InvalidInputError, match=r"fs\[1\] returned shape \(3,\) on 224 nodes"):
        contour.riesz_dunford_many([lambda z: z, lambda z: np.ones(3)], c, nodes.alpha_prime, 0.1, [_one, _one])
    with pytest.raises(InvalidInputError, match="f_bounds holds 1 bounds for 2 functions"):
        contour.riesz_dunford_many([lambda z: z, lambda z: 1.0], c, nodes.alpha_prime, 0.1, [_one])


def test_bad_alpha_is_refused_before_solving(monkeypatch):
    def no_solves(c, z):
        raise AssertionError("solved before checking alpha")

    monkeypatch.setattr(contour, "_solve", no_solves)
    nodes = contour.build_contour(1.0)
    c = np.diag([0.2, 0.5]).astype(complex)
    for alpha in (-0.1, 1.0, 1.2, math.nan):
        with pytest.raises(InvalidInputError, match="need 0 <= alpha < alpha' < pi/2"):
            contour.riesz_dunford_many([lambda z: 1.0], c, nodes.alpha_prime, alpha, [_one])


def test_contour_reconstruction_solves_base_nodes_once(monkeypatch):
    # a harness draw whose quadrature error is proved on the (8, 4) trial
    # contour: one pass of 256 nodes, one stack of up to 512 at d = 4 through
    # the blow-up check, and no other solve; nothing calls build_contour, and
    # the majorant check solves nothing and gives the summary the solved
    # contour's winding error
    solved, blocked, built = [], [], []
    blow_up, solve, build = contour._check_blow_up, contour._solve, contour.build_contour

    def counting_blow_up(r, z):
        blocked.append(r.shape[-1])
        return blow_up(r, z)

    def counting_solve(c, z):
        solved.append(len(z))
        return solve(c, z)

    monkeypatch.setattr(contour, "_check_blow_up", counting_blow_up)
    monkeypatch.setattr(contour, "_solve", counting_solve)
    monkeypatch.setattr(contour, "build_contour", lambda *a: built.append(a) or build(*a))
    config = ExperimentConfig("contour_reconstruction", dim=4, trials=1, nmax=4)
    result = run_experiment(config)
    assert result.summary["certification_failures"] == 0
    assert built == []
    assert blocked == [256]
    assert solved == [256]
    winding = contour.winding_number(contour._build_contour(result.summary["alpha_prime"], 8, 4), 0.2)
    assert result.summary["max_winding_error"] == abs(winding - 1.0)


def test_spectrum_on_node_raises_too_close(monkeypatch):
    # a pass over a node in the spectrum raises; riesz_dunford_many, whose
    # proof fails for a W(C) on the contour, raises before solving anything
    z0 = complex(_BASE.z[len(_BASE) // 2])
    c = z0 * np.eye(2, dtype=complex)
    with pytest.raises(contour.ContourTooCloseError, match="singular"):
        contour._evaluate_many(np.ones((1, len(_BASE))), c, _BASE, _none_open(_BASE))
    monkeypatch.setattr(contour, "_solve", _no_solve)
    with pytest.raises(contour.ContourTooCloseError, match="not proved"):
        contour.riesz_dunford_many([lambda z: 1.0], c, _AP, 0.0, [_one])


def test_unconverged_quadrature_raises(monkeypatch):
    # a zero tolerance proves no trial, and nothing is solved
    monkeypatch.setattr(contour, "CONTOUR_QUAD_TOL", 0.0)
    monkeypatch.setattr(contour, "_solve", _no_solve)
    c = certified_resolvent(3, math.pi / 8, 3000)
    message = r"not proved within 0 on any trial contour \(8 to 64 arc panels, \d+ panels a side\)"
    with pytest.raises(contour.ContourTooCloseError, match=message):
        contour.riesz_dunford_many([lambda z: z], c, 1.0, math.pi / 8, [lambda z, r: np.abs(z) + r])


def test_stacked_solves_match_per_node_solves(monkeypatch):
    # the pass's stacked solves, taken back to C's basis as Q R Q^H, are the
    # per-node LAPACK solves within _kappa_tol in Frobenius norm, and are
    # the stack _solve gives for the whole contour bit for bit
    c = certified_resolvent(3, math.pi / 8, 3000)
    nodes = contour.build_contour(1.0)
    eye = np.eye(3, dtype=complex)
    stacks, solve = [], contour._solve
    monkeypatch.setattr(contour, "_solve", lambda c, z: stacks.append(solve(c, z)) or stacks[-1])
    contour._evaluate_many(np.ones((1, len(nodes))), c, nodes, _none_open(nodes))
    got = np.moveaxis(np.concatenate(stacks, axis=-1), -1, 0)
    assert np.array_equal(got, _stack(c, nodes.z))
    q = contour._reduce(c).q
    back = q @ got @ q.conj().T
    want = np.stack([np.linalg.solve(z * eye - c, eye) for z in nodes.z])
    err = np.linalg.norm(back - want, axis=(1, 2))
    assert np.all(err <= _kappa_tol(c, nodes.z) * np.linalg.norm(want, axis=(1, 2)))


def test_resolvent_blow_up_raises_too_close(monkeypatch):
    # a pass over a node 4e-16 from an eigenvalue raises; riesz_dunford_many
    # raises before solving anything
    z0 = complex(_BASE.z[100])
    c = np.diag([z0 + 4e-16, 0.1])
    with pytest.raises(contour.ContourTooCloseError, match="blow-up"):
        contour._evaluate_many(np.ones((1, len(_BASE))), c, _BASE, _none_open(_BASE))
    monkeypatch.setattr(contour, "_solve", _no_solve)
    with pytest.raises(contour.ContourTooCloseError, match="not proved"):
        contour.riesz_dunford_many([lambda z: 1.0], c, _AP, 0.0, [_one])


def test_each_function_runs_once_per_pass():
    # each function sees every node of the pass at once, as one node array:
    # a call proved on the (8, 12) trial contour has one pass of 512 nodes,
    # and a call whose proof fails calls no function
    c = certified_resolvent(4, math.pi / 8, 3000)
    nodes = contour.build_contour(0.5 * (math.pi / 8 + math.pi / 2))
    fs = [lambda z: 1.0, lambda z: z**4 - np.exp(4 * (z - 1.0))]
    proved = [_one, lambda z, r: (np.abs(z) + r) ** 4 + np.exp(4 * (z.real + r - 1.0))]
    for f_bounds, passes in ((proved, [(512,)]), ([_one, _inf], [])):
        calls = [[], []]

        def counted(j, f):
            def g(z):
                calls[j].append(np.shape(z))
                return f(z)

            return g

        try:
            contour.riesz_dunford_many([counted(j, f) for j, f in enumerate(fs)], c, nodes.alpha_prime, math.pi / 8, f_bounds)
        except contour.ContourTooCloseError:
            assert not passes
        assert calls == [passes] * 2


# a point just inside the straight side line_minus of the alpha' = 1 contour,
# 0.04 from its longest panel
_NEAR_LINE = 0.5 + 0.9 * (0.5 - 0.4 * np.exp(-1j))


@pytest.mark.parametrize(
    "lams, k_arc, k_line, rough",
    [
        ([0.3 + 0.1j], 8, 8, False),
        ([_NEAR_LINE], 8, 8, True),
        ([_NEAR_LINE], 32, 16, True),
        ([0.3 + 0.1j, _NEAR_LINE, -0.2, 0.6 - 0.3j], 8, 8, True),
        ([0.3 + 0.1j, 0.1j, -0.2, 0.6 - 0.3j], 16, 8, False),
        ([0.9, -0.2j, 0.1], 8, 16, False),
        ([_NEAR_LINE], 8, 16, True),
        ([0.3 + 0.1j, _NEAR_LINE, -0.2, 0.6 - 0.3j], 16, 16, True),
        ([0.3 + 0.1j, 0.1j, -0.2, 0.6 - 0.3j], 16, 16, False),
        ([0.9, -0.2j, 0.1], 16, 16, False),
        # the side counts the trials take from l_1: 3 and 5 panels far from
        # W(C), 22 next to an eigenvalue 9.2e-7 from the vertex
        ([0.3 + 0.1j], 8, 3, False),
        ([0.99, 0.5], 8, 3, True),
        ([_NEAR_LINE], 8, 5, True),
        ([0.9, -0.2j, 0.1], 16, 5, False),
        ([1.0 - 1e-6 + 2e-7j, 0.5, 0.1j], 16, 22, False),
        ([_NEAR_LINE], 8, 22, True),
    ],
)
def test_quadrature_bounds_hold_where_f_of_c_is_exact(monkeypatch, lams, k_arc, k_line, rough):
    # C = Q diag(lambda) Q^H (Q = 1 for one eigenvalue): f(C) = Q diag(f(lambda)) Q^H
    # and ||(z - C)^{-1}|| = 1 / min_k |z - lambda_k|.  Each proved bound of the
    # harness families is at least the base pass's error, less the rounding
    # allowance 2^10 d u (S + ||f(C)||), S = sum_j |f(z_j) dz_j| ||(z_j - C)^{-1}|| / 2 pi;
    # a rough case errs by more than 1e-12, so more than rounding is compared.
    # The contours are built as the trials build them, below 8 panels a side too
    lam = np.asarray(lams, dtype=complex)
    rng = np.random.default_rng(lam.size)
    q, _ = np.linalg.qr(rng.standard_normal((lam.size,) * 2) + 1j * rng.standard_normal((lam.size,) * 2))
    q = q if lam.size > 1 else np.eye(1)
    c = (q * lam) @ q.conj().T
    nodes = contour._build_contour(1.0, k_arc, k_line)
    fs, f_bounds = _harness_families(monkeypatch, (1, 4, 16))
    got, _ = contour._evaluate_many(contour._weights(fs, nodes), c, nodes, _none_open(nodes))
    proved = contour._quadrature_bounds(f_bounds, nodes, numrange.outer_polygon(c))
    rnorm = 1.0 / np.min(np.abs(nodes.z[:, None] - lam), axis=1)
    errors = []
    for f, value, bound in zip(fs, got, proved):
        exact = (q * f(lam)) @ q.conj().T
        errors.append(linalg.op_norm(value - exact))
        s = np.sum(np.abs(f(nodes.z) * nodes.dz_weight) * rnorm) / (2.0 * math.pi)
        assert bound >= errors[-1] - 2.0**10 * lam.size * 2.0**-53 * (s + linalg.op_norm(exact))
    assert np.all(np.isfinite(proved))
    assert max(errors) > 1e-12 if rough else max(proved) < contour.CONTOUR_QUAD_TOL


@pytest.mark.parametrize(
    "alpha_prime, k_arc, k_line",
    [(1.0, 32, 16), (0.3, 8, 8), (1.4, 9, 10), (1.0, 8, 3), (0.3, 16, 5), (1.4, 8, 22)],
)
def test_panel_images_hold_the_bernstein_ellipses_images(alpha_prime, k_arc, k_line):
    # each panel's Gauss nodes are center + h x_j along it, and on the
    # boundary of every E_rho (where |z - center| and |z'| peak) the image
    # lies in the container and |z'| stays below the bound; the contours are
    # built as the trials build them, below 8 panels a side too
    nodes = contour._build_contour(alpha_prime, k_arc, k_line)
    center, d, half, speed, reach, across = contour._panel_images(nodes)
    x = contour._GL_NODES
    line = slice(0, 2 * k_line)
    t_mid = np.angle(center[2 * k_line:])
    panels = np.concatenate([center[:k_line, None] + half[:k_line, None] * x * d[:k_line, None],
                             math.sin(alpha_prime) * np.exp(1j * (t_mid[:, None] + half[2 * k_line:, None] * x)),
                             center[k_line:line.stop, None] - half[k_line:line.stop, None] * x * d[k_line:line.stop, None]])
    assert np.allclose(panels.ravel(), nodes.z, rtol=0.0, atol=1e-14)
    rho = contour._RHOS[:, None, None]
    phi = np.linspace(0.0, 2.0 * math.pi, 257)
    edge = 0.5 * (rho + 1 / rho) * np.cos(phi) + 0.5j * (rho - 1 / rho) * np.sin(phi)
    w = half[:, None] * edge  # the panel's parameter offsets s - mu or t - t_mid
    # z - center, without cancellation: w d on the lines, and on the arc
    # z(t_mid) (e^{iw} - 1) = z(t_mid) 2i sin(w/2) e^{iw/2}, where |z'| = |z|
    arc = w[:, line.stop:]
    offset = np.concatenate([w[:, line] * d[line, None],
                             center[line.stop:, None] * 2j * np.sin(arc / 2) * np.exp(0.5j * arc)], axis=1)
    dz = np.concatenate([np.ones_like(w[:, line]), math.sin(alpha_prime) * np.exp(-arc.imag)], axis=1)
    tol = 1.0 + 1e-12
    assert np.all(np.abs(offset) <= reach[:, :, None] * tol)
    assert np.all(dz <= speed[:, :, None] * tol)
    assert np.all((w[:, line].real / reach[:, line, None]) ** 2 + (w[:, line].imag / across[:, line, None]) ** 2 <= tol)


def test_zero_bounds_give_zero_and_a_polygon_across_the_contour_is_refused(monkeypatch):
    # f_bounds of 0 prove the bound 0, not NaN; W(J) = |z - 0.3| <= 0.8 crosses
    # both lines, so the panels there get inf whatever |f|, no trial is
    # proved, and the call raises before solving anything
    def zero(z, r):
        return np.zeros(np.shape(r))

    alpha = math.pi / 8
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    inside = numrange.outer_polygon(np.array([[0.3]]))
    assert contour._quadrature_bounds([zero, _one], nodes, inside)[0] == 0.0
    c = np.array([[0.3, 1.6], [0.0, 0.3]], dtype=complex)
    assert contour._quadrature_bounds([zero, _one], nodes, numrange.outer_polygon(c)) == [math.inf] * 2
    monkeypatch.setattr(contour, "_solve", _no_solve)
    with pytest.raises(contour.ContourTooCloseError, match="not proved"):
        contour.riesz_dunford_many([lambda z: 0.0, lambda z: z], c, nodes.alpha_prime, alpha, [zero, _one])


def _pool_draw(dim, alpha, seed, t):
    # the draw of a contour_calc benchmark call
    config = ExperimentConfig("contour_reconstruction", dim=dim, alpha=alpha, seed=seed, trials=1, ts=(t,))
    (_, c, _), *_ = _draws(config, _resolvent, numrange.quasi_sectorial)[0]
    return c


# the (arc, side) panels of the trial that proves each pool draw below, its
# side count picked from its l_1 <= dist(1, W(C))
_PICKED = {2_000_000: (8, 8), 2_000_002: (16, 10), 2_000_111: (16, 21), 2_000_110: (8, 19),
           2_000_313: (8, 22), 2_000_511: (16, 20), 2_001_414: (16, 19), 2_001_501: (8, 19)}


@pytest.mark.parametrize(
    "dim, alpha, seed, t, k_arc",
    [
        # contour_calc pool calls 0 and 2: the (8, 16) and the (16, 16)
        # contour prove them too
        (2, math.pi / 16, 2_000_000, 0.1, 8),
        (4, math.pi / 4, 2_000_002, 0.1, 16),
        # pool calls 26, 25, 58, 86, 224 and 226: C has an eigenvalue within
        # 1e-5 of the vertex z = 1, and no (k_arc, 16) contour proves them
        (13, math.pi / 4, 2_000_111, 0.1, None),
        (12, math.pi / 8, 2_000_110, 0.1, None),
        (15, math.pi / 8, 2_000_313, 1.0, None),
        (13, math.pi / 4, 2_000_511, 0.1, None),
        (16, math.pi / 4, 2_001_414, 1.0, None),
        (3, math.pi / 8, 2_001_501, 0.1, None),
    ],
)
def test_each_trial_decides_as_its_own_quadrature_bounds(monkeypatch, dim, alpha, seed, t, k_arc):
    # the trials run coarsest first, each decided by _quadrature_bounds on
    # its own contour, up to the first whose every bound lies below
    # CONTOUR_QUAD_TOL; each grades the sides to the draw's own count, and
    # the one picked is _PICKED's, build_contour's nodes (or, below 8 panels
    # a side, those it would build); nothing is solved.  With 16 panels a
    # side instead, the first proved arc count is k_arc, or none of 8, 16
    # and 32 is proved
    shape = _PICKED[seed]
    c = _pool_draw(dim, alpha, seed, t)
    alpha_prime = 0.5 * (alpha + math.pi / 2)
    polygon = numrange.outer_polygon(c)
    _, f_bounds = _harness_families(monkeypatch, (1, 2, 4, 8, 16))
    tried, decide = [], contour._quadrature_bounds

    def no_solves(c, z):
        raise AssertionError("solved while proving")

    with monkeypatch.context() as m:
        m.setattr(contour, "_solve", no_solves)
        m.setattr(contour, "_quadrature_bounds", lambda *a: tried.append(decide(*a)) or tried[-1])
        picked = contour._proved_contour(f_bounds, alpha_prime, polygon)
    proved = [all(bound < contour.CONTOUR_QUAD_TOL for bound in bounds) for bounds in tried]
    trials = [(arcs, shape[1]) for arcs in contour._TRIALS]
    assert proved == [False] * trials.index(shape) + [True]
    alone = contour._build_contour(alpha_prime, *shape)
    assert (picked.alpha_prime, picked.k_arc, picked.k_line) == (alpha_prime, *shape)
    assert np.array_equal(picked.z, alone.z) and np.array_equal(picked.dz_weight, alone.dz_weight)
    assert np.array_equal(picked.on_arc, alone.on_arc)
    sixteen = [arcs for arcs in (8, 16, 32)
               if max(decide(f_bounds, contour.build_contour(alpha_prime, arcs, 16), polygon)) < contour.CONTOUR_QUAD_TOL]
    assert (sixteen or [None])[0] == k_arc


def test_a_draw_proved_next_to_the_vertex_keeps_its_refined_values(monkeypatch):
    # contour_calc pool call 26 (d = 13, alpha = pi/4, t = 0.1), an
    # eigenvalue 7.5e-7 from the vertex, proved on the (16, 21) contour: the
    # call solves its 928 nodes once, its values and its records' errors are
    # those of the every-node pass on that contour bit for bit, and those of
    # the every-node pass on the (64, 32) contour to rounding; its report is
    # the check at the 928 nodes, with the verdict of exact norms
    ns = (1, 2, 4, 8, 16)
    alpha = math.pi / 4
    c = _pool_draw(13, alpha, 2_000_111, 0.1)
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    picked = contour.build_contour(nodes.alpha_prime, 16, 21)
    fs, f_bounds = _harness_families(monkeypatch, ns)
    solved, solve = [], contour._solve
    with monkeypatch.context() as m:
        m.setattr(contour, "_solve", lambda c, z: solved.append(len(z)) or solve(c, z))
        values, report = contour.riesz_dunford_many(fs, c, nodes.alpha_prime, alpha, f_bounds)
    assert sum(solved) == 928
    want = _every_node_pass(fs, c, picked)
    assert len(values) == len(want) and all(np.array_equal(g, w) for g, w in zip(values, want))
    fine = contour.build_contour(nodes.alpha_prime, 64, 32)
    refined = _every_node_pass(fs, c, fine)
    assert all(linalg.op_norm(g - w) <= 1e-15 for g, w in zip(values, refined))
    assert report == bound_first_report(c, picked, alpha)
    _assert_bounds_the_exact_check(report, per_node_report(c, picked, alpha))
    errors, _ = harness._contour_sweep(c, nodes.alpha_prime, ns, alpha)
    with monkeypatch.context() as m:
        m.setattr(contour, "riesz_dunford_many", lambda fs, c, ap, alpha, _: (_every_node_pass(fs, c, picked), report))
        assert harness._contour_sweep(c, nodes.alpha_prime, ns, alpha)[0] == errors
        m.setattr(contour, "riesz_dunford_many", lambda fs, c, ap, alpha, _: (_every_node_pass(fs, c, fine), report))
        reference, _ = harness._contour_sweep(c, nodes.alpha_prime, ns, alpha)
    assert [n for n, *_ in reference] == [n for n, *_ in errors]
    assert np.max(np.abs(np.subtract(reference, errors))) <= 2e-16


@pytest.mark.parametrize("vertex, proved", [(1.0 - 9e-7 + 2e-7j, True), (1.0 - 1e-11 + 2e-12j, False)])
def test_a_draw_at_the_vertex_solves_the_64_32_contour(monkeypatch, vertex, proved):
    # a normal C with an eigenvalue next to the vertex z = 1: at 9.2e-7 from
    # it l_1 = 9.2e-7 picks 22 panels a side, and the (8, 22) contour proves
    # it, where with 16 panels a side every trial's bound is about 20 and
    # 32 panels a side prove it on 64 arc panels; its values are those of
    # _evaluate_many on the (8, 22) contour bit for bit, and err by
    # rounding, and the report is the check at its nodes, with the verdict
    # of exact norms.  At 1e-11 the sides take 32 panels, no trial proves,
    # and the call raises before any pass
    lam = np.array([vertex, 0.5, 0.1j])
    rng = np.random.default_rng(lam.size)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    c = (q * lam) @ q.conj().T
    alpha = math.pi / 8
    alpha_prime = 0.5 * (alpha + math.pi / 2)
    fs, f_bounds = _harness_families(monkeypatch, (1, 2, 4, 8, 16))
    polygon = numrange.outer_polygon(c)
    sides = contour._side_panels(alpha_prime, polygon)
    assert sides == (22 if proved else 32)
    for count in (16, 32, sides):
        bounds = [max(contour._quadrature_bounds(f_bounds, contour.build_contour(alpha_prime, k, count), polygon))
                  for k in contour._TRIALS]
        if not proved:
            assert bounds == [math.inf] * 4
        elif count == 16:
            assert all(20.0 < b < 21.0 for b in bounds)
        elif count == 32:
            assert bounds[3] < contour.CONTOUR_QUAD_TOL
        else:
            assert bounds[0] < contour.CONTOUR_QUAD_TOL
    passes, evaluate = [], contour._evaluate_many
    with monkeypatch.context() as m:
        m.setattr(contour, "_evaluate_many", lambda w, c, n, open_nodes: passes.append(n) or evaluate(w, c, n, open_nodes))
        if not proved:
            with pytest.raises(contour.ContourTooCloseError, match="32 panels a side"):
                contour.riesz_dunford_many(fs, c, alpha_prime, alpha, f_bounds)
            assert passes == []
            return
        got, report = contour.riesz_dunford_many(fs, c, alpha_prime, alpha, f_bounds)
    assert [(p.k_arc, p.k_line) for p in passes] == [(8, 22)]
    solved = contour.build_contour(alpha_prime, 8, 22)
    want, _ = evaluate(contour._weights(fs, solved), c, solved, _none_open(solved))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert report == bound_first_report(c, solved, alpha)
    _assert_bounds_the_exact_check(report, per_node_report(c, solved, alpha))
    for f, value in zip(fs, got):
        assert linalg.op_norm(value - (q * f(lam)) @ q.conj().T) < 1e-15


@pytest.mark.parametrize("delta, shape", [(0.3, (8, 3)), (1e-3, (8, 12)), (9.2e-7, (8, 22))])
def test_the_side_count_grades_to_half_the_distance_from_the_vertex(monkeypatch, delta, shape):
    # item 3's normal family: C = Q diag(lambda) Q^H with the eigenvalues 1 -
    # delta, 0.5 and 0.1i, so dist(1, W(C)) = delta.  l_1 <= delta, and the
    # side count of every trial is the least whose innermost
    # panel [0, cos(alpha') 2^(1 - k)] is at most l_1 / 2; nothing is solved
    # while proving, and the values are Q f(lambda) Q^H to rounding
    lam = np.array([1.0 - delta, 0.5, 0.1j])
    rng = np.random.default_rng(lam.size)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    c = (q * lam) @ q.conj().T
    alpha = math.pi / 8
    alpha_prime = 0.5 * (alpha + math.pi / 2)
    polygon = numrange.outer_polygon(c)
    (ell,) = numrange.support_distance(polygon, 1.0)
    assert 0.0 < ell <= delta
    fits = [k for k in range(1, 33) if math.cos(alpha_prime) * 2.0 ** (1 - k) <= ell / 2]
    assert contour._side_panels(alpha_prime, polygon) == (max(3, fits[0]) if fits else 32) == shape[1]
    fs, f_bounds = _harness_families(monkeypatch, (1, 2, 4, 8, 16))

    def no_solves(c, z):
        raise AssertionError("solved while proving")

    with monkeypatch.context() as m:
        m.setattr(contour, "_solve", no_solves)
        picked = contour._proved_contour(f_bounds, alpha_prime, polygon)
    assert (picked.k_arc, picked.k_line) == shape
    got, report = contour.riesz_dunford_many(fs, c, alpha_prime, alpha, f_bounds)
    assert report.passed
    for f, value in zip(fs, got):
        assert linalg.op_norm(value - (q * f(lam)) @ q.conj().T) < 1e-15


def _sixteen_deep_contour(c, alpha_prime, f_bounds):
    # the contour every side graded 16 panels deep gives: the first of (8,
    # 16), (16, 16), (32, 16) and (64, 32) on which all of f_bounds prove
    # below CONTOUR_QUAD_TOL, or else None
    polygon = numrange.outer_polygon(c)
    for shape in ((8, 16), (16, 16), (32, 16), (64, 32)):
        nodes = contour.build_contour(alpha_prime, *shape)
        if max(contour._quadrature_bounds(f_bounds, nodes, polygon)) < contour.CONTOUR_QUAD_TOL:
            return nodes
    return None


def _slot_and_default_draws():
    # the 15 contour_calc slot draws, and the default draws at alpha = 0 and 1.3
    yield from (pytest.param(*_slot_draw(slot), id=f"slot{slot}") for slot in range(15))
    for alpha in (0.0, 1.3):
        draws, _ = _draws(ExperimentConfig("contour_reconstruction", alpha=alpha), _resolvent, numrange.quasi_sectorial)
        yield from (pytest.param(c, alpha, id=f"default{i}-{alpha}") for i, c, _ in draws)


@pytest.mark.parametrize("c, alpha", _slot_and_default_draws())
def test_grading_the_sides_by_the_vertex_distance_loses_no_majorant_verdict(monkeypatch, c, alpha):
    # on the (8, 16) contour every node within l_1 / 2 of the vertex has its
    # side and distance ratios at U = (1 + 1e-6) / l at most (1 + 1e-6)
    # sin(alpha' - alpha) < 1, so a node that the draw's own side count adds
    # or drops near the vertex decides no verdict; and the check on the
    # contour the call solves has the verdict and the three maxima of the
    # check on the contour that grading every side 16 panels deep picks.
    # Two default draws at alpha = 1.3 are proved by neither ladder, and the
    # call refuses them
    alpha_prime = 0.5 * (alpha + math.pi / 2)
    nodes = contour.build_contour(alpha_prime, 8, 16)
    (ell,) = numrange.support_distance(numrange.outer_polygon(c), 1.0)
    near = np.abs(1.0 - nodes.z) <= ell / 2
    assert np.any(near)
    dist = numrange.distance_to_D_alpha(nodes.z, alpha)
    side, far = contour._majorant_ratios(nodes, alpha, dist, _polygon_bounds(c, nodes))
    most = (1.0 + 1e-6) * math.sin(alpha_prime - alpha)
    assert np.all(side[near] <= most) and np.all(far[near] <= most) and most < 1.0
    fs, f_bounds = _harness_families(monkeypatch, (1, 2, 4, 8, 16))
    sixteen = _sixteen_deep_contour(c, alpha_prime, f_bounds)
    if sixteen is None:
        with pytest.raises(contour.ContourTooCloseError, match="not proved"):
            contour.riesz_dunford_many(fs, c, alpha_prime, alpha, f_bounds)
        return
    _, report = contour.riesz_dunford_many(fs, c, alpha_prime, alpha, f_bounds)
    sixteen = bound_first_report(c, sixteen, alpha)
    assert (report.passed, _worst(report)) == (sixteen.passed, _worst(sixteen))


def test_quadrature_bounds_widen_the_panel_sum_by_the_margin(monkeypatch):
    # each function's bound is the sum over the panels of each panel's
    # least bound over the rho ladder, here one panel and one rho at a time,
    # times 1 + 1e-6
    c = certified_resolvent(4, math.pi / 8, 3000)
    polygon = numrange.outer_polygon(c)
    _, f_bounds = _harness_families(monkeypatch, (1, 4, 16))
    nodes = contour.build_contour(0.5 * (math.pi / 8 + math.pi / 2), 8, 16)
    center, d, half, speed, reach, across = contour._panel_images(nodes)
    m = contour._GL_NODES.size
    want = np.zeros(len(f_bounds))
    for j in range(center.size):
        least = np.full(len(f_bounds), np.inf)
        for k, rho in enumerate(contour._RHOS):
            (ell,) = numrange.support_distance(polygon, center[j], (d[j], reach[k, j], across[k, j]))
            if ell > 0.0:
                gauss = 4.0 * (1.0 + 1.0 / (4 * m * m - 1)) * rho ** (-2.0 * m) / (1.0 - 1.0 / rho)
                f_max = np.array([bound(center[j], reach[k, j]) for bound in f_bounds])
                least = np.minimum(least, gauss * speed[k, j] * half[j] / (2.0 * math.pi * ell) * f_max)
        want += least
    got = contour._quadrature_bounds(f_bounds, nodes, polygon)
    assert np.all(np.isfinite(want))
    assert got == pytest.approx(want * (1.0 + 1e-6), rel=1e-12, abs=0.0)


def _panel_loop_contour(alpha_prime, k_arc, k_line):
    # build_contour as one panel at a time, the reference for its broadcasting
    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * contour._GL_NODES, half * contour._GL_WEIGHTS

    radius, length = math.sin(alpha_prime), math.cos(alpha_prime)
    edges = [0.0] + [length * 2.0 ** (j + 1 - k_line) for j in range(k_line)]
    edges[-1] = length
    zs, ws = [], []
    direction = -np.exp(-1j * alpha_prime)
    for a, b in zip(edges[:-1], edges[1:]):
        s, w = panel(a, b)
        zs.append(1.0 + s * direction)
        ws.append(w * direction)
    t0, t1 = math.pi / 2 - alpha_prime, 3 * math.pi / 2 + alpha_prime
    for j in range(k_arc):
        t, w = panel(t0 + (t1 - t0) * j / k_arc, t0 + (t1 - t0) * (j + 1) / k_arc)
        z = radius * np.exp(1j * t)
        zs.append(z)
        ws.append(w * 1j * z)
    direction = -np.exp(1j * alpha_prime)
    for a, b in zip(edges[:-1], edges[1:]):
        s, w = panel(a, b)
        zs.append(1.0 + s[::-1] * direction)
        ws.append(-w[::-1] * direction)
    return np.concatenate(zs), np.concatenate(ws)


@pytest.mark.parametrize("alpha_prime", [0.05, 0.4, 1.0, math.pi / 2 - 0.05])
def test_build_contour_matches_panel_loop(alpha_prime):
    for k_arc, k_line in ((8, 8), (32, 16), (64, 32), (40, 9), (512, 256)):
        nodes = contour.build_contour(alpha_prime, k_arc, k_line)
        z, w = _panel_loop_contour(alpha_prime, k_arc, k_line)
        assert np.array_equal(nodes.z, z) and np.array_equal(nodes.dz_weight, w)


def _reference_many(fs, c, nodes):
    # the per-node formula: a scalar f(z) * w times the resolvent, summed in
    # node order
    eye = np.eye(c.shape[0], dtype=complex)
    acc = [np.zeros(c.shape, dtype=complex) for _ in fs]
    for z, w in zip(nodes.z, nodes.dz_weight):
        res = np.linalg.solve(z * eye - c, eye)
        for a, f in zip(acc, fs):
            a += (f(z) * w) * res
    return [a / (2j * math.pi) for a in acc]


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 32])
def test_block_sums_match_per_node_formula(dim):
    # on the contour the call proves
    alpha = math.pi / 8
    c = certified_resolvent(dim, alpha, 6000 + dim)
    alpha_prime = 0.5 * (alpha + math.pi / 2)
    fs = [
        lambda z: 1.0,
        lambda z: z**3 * (1.0 - z),
        lambda z: np.exp(4.0 * (z - 1.0)),
    ]
    f_bounds = [_one, _FS_BOUNDS[1], lambda z, r: np.exp(4.0 * (z.real + r - 1.0))]
    nodes = contour._proved_contour(f_bounds, alpha_prime, numrange.outer_polygon(c))
    got, _ = contour.riesz_dunford_many(fs, c, alpha_prime, alpha, f_bounds)
    for g, want in zip(got, _reference_many(fs, c, nodes)):
        assert linalg.op_norm(g - want) <= 1e-13 * max(1.0, linalg.op_norm(want))


def _every_node_pass(fs, c, nodes):
    # one quadrature pass in the basis of one reduction of C, as one stacked
    # solve (_solve, the stack the pass solves) per stack of _stack_nodes(d)
    # nodes, each stack checked for a singular or blown-up node and adding
    # one product of all the weights, a lone one padded with a zero row, and
    # each sum taken back to C's basis as Q S Q^H / 2 pi i
    dim = c.shape[0]
    schur = contour._reduce(linalg.as_operator(c))
    weights = [np.broadcast_to(f(nodes.z), nodes.z.shape) * nodes.dz_weight for f in fs]
    weights = np.array(weights + [np.zeros(len(nodes))] * (len(fs) == 1))
    acc = np.zeros((len(weights), dim * dim), dtype=complex)
    step = contour._stack_nodes(dim)
    for start in range(0, len(nodes), step):
        z = nodes.z[start:start + step]
        try:
            r = contour._solve(schur, z)
        except np.linalg.LinAlgError:
            raise contour.ContourTooCloseError(
                f"resolvent singular at a contour node in z={z[0]}..{z[-1]}"
            )
        ok = np.linalg.norm(r, axis=(0, 1)) <= 1e15
        if not np.all(ok):
            raise contour.ContourTooCloseError(f"resolvent blow-up at contour node z={z[np.argmin(ok)]}")
        acc += weights[:, start:start + step] @ r.reshape(dim * dim, -1).T
    sums = schur.q @ acc[:len(fs)].reshape((len(fs), dim, dim)) @ schur.q.conj().T
    return list(sums / (2j * math.pi))


def _every_node_reference(fs, c, nodes, alpha):
    # riesz_dunford_many on the contour nodes: an _every_node_pass, and the
    # check of the bound-first values at the nodes: the polygon bound where
    # it proves, else the exact norm of the pass's own row
    return _every_node_pass(fs, c, nodes), bound_first_report(c, nodes, alpha)


def _outcome(run, *args):
    try:
        values, report = run(*args)
    except contour.ContourTooCloseError as exc:
        return str(exc)
    return values, dataclasses.astuple(report)


def _assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert got[1] == want[1]
        assert len(got[0]) == len(want[0])
        assert all(np.array_equal(g, w) for g, w in zip(got[0], want[0]))


_FS = [lambda z: 1.0, lambda z: z**3 * (1.0 - z), lambda z: z**4 - np.exp(4.0 * (z - 1.0))]
_FS_BOUNDS = [_one, lambda z, r: (np.abs(z) + r) ** 3 * (np.abs(1.0 - z) + r),
              lambda z, r: (np.abs(z) + r) ** 4 + np.exp(4.0 * (z.real + r - 1.0))]


@pytest.mark.parametrize(
    "dim, k_arc, k_line, tol",
    [(1, 32, 16, None), (2, 32, 16, None), (5, 32, 16, None), (16, 32, 16, None), (32, 32, 16, None),
     (16, 9, 10, None), (3, 9, 10, None), (4, 32, 16, 1e-15)],
)
def test_values_and_report_equal_the_every_node_reference(monkeypatch, dim, k_arc, k_line, tol):
    # every bit of the values and of the report of a pass is the
    # reference's: on the (9, 10) contour, whose line panels end off the
    # 64-node grid, and on its doubling; on the (32, 16) contour, and of
    # riesz_dunford_many on the contour it proves (with tol, a lower
    # CONTOUR_QUAD_TOL that a finer trial proves)
    alpha = math.pi / 8
    c = certified_resolvent(dim, alpha, 7000 + dim)
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2), k_arc, k_line)
    if (k_arc, k_line) != (32, 16):
        for n in (nodes, contour.build_contour(nodes.alpha_prime, 2 * k_arc, 2 * k_line)):
            got, _ = contour._evaluate_many(contour._weights(_FS, n), c, n, _none_open(n))
            assert all(np.array_equal(g, w) for g, w in zip(got, _every_node_pass(_FS, c, n)))
        assert _pass_on([], c, nodes, alpha)[1] == bound_first_report(c, nodes, alpha)
        return
    _assert_same_outcome(_outcome(_pass_on, _FS, c, nodes, alpha), _outcome(_every_node_reference, _FS, c, nodes, alpha))
    polygon = numrange.outer_polygon(c)
    default = contour._proved_contour(_FS_BOUNDS, nodes.alpha_prime, polygon)
    if tol is not None:
        monkeypatch.setattr(contour, "CONTOUR_QUAD_TOL", tol)
    picked = contour._proved_contour(_FS_BOUNDS, nodes.alpha_prime, polygon)
    got = _outcome(contour.riesz_dunford_many, _FS, c, nodes.alpha_prime, alpha, _FS_BOUNDS)
    _assert_same_outcome(got, _outcome(_every_node_reference, _FS, c, picked, alpha))
    assert tol is None or picked.k_arc > default.k_arc


def _on_nodes(dim, *zs):
    # a diagonal C with the eigenvalues zs (contour nodes), the rest inside the contour
    return np.diag(np.concatenate([np.asarray(zs, dtype=complex), np.linspace(0.1, 0.5, dim - len(zs))]))


_AP = 0.5 * (math.pi / 8 + math.pi / 2)
_BASE = contour.build_contour(_AP)
_FINE = contour.build_contour(_AP, 64, 32)
# a contour whose line panels end off the 64-node grid
_BASE9 = contour.build_contour(_AP, 9, 10)
_FINE9 = contour.build_contour(_AP, 18, 20)


@pytest.mark.parametrize(
    "dim, spectrum",
    [
        # each spectrum is (base contour, eigenvalues of C on contour nodes)
        # a singular base node names the z range of its whole stack: at d = 2
        # the 1024 base nodes are one stack
        (2, (_BASE, [_BASE.z[100]])),
        (2, (_BASE, [_BASE.z[1000]])),
        # a node only the doubled contour has
        (2, (_BASE, [_FINE.z[260]])),
        (16, (_BASE, [_FINE.z[1800]])),
        (16, (_BASE, [_FINE.z[260] + 4e-16])),
        # the base contour raises first
        (16, (_BASE, [_FINE.z[260], _BASE.z[500]])),
        (16, (_BASE, [_FINE.z[1800], _BASE.z[20] + 4e-16])),
        # the doubled contour raises in stack order
        (16, (_BASE, [_FINE.z[100], _FINE.z[1800]])),
        (2, (_BASE, [_FINE.z[260], _FINE.z[1000]])),
        (8, (_BASE, [_FINE.z[1800], _FINE.z[2000] + 4e-16])),
        # off the grid: a singular node names its whole stack, and it raises
        # before a blow-up in a later stack of the other side
        (2, (_BASE9, [_FINE9.z[150]])),
        (16, (_BASE9, [_FINE9.z[770]])),
        (8, (_BASE9, [_FINE9.z[150], _FINE9.z[770] + 4e-16])),
        (8, (_BASE9, [_FINE9.z[770] + 4e-16])),
    ],
)
def test_too_close_errors_keep_the_every_node_order(dim, spectrum):
    # _evaluate_many on the base contour and then on its doubling raises as
    # the every-node passes do, in stack order
    base, zs = spectrum
    c = _on_nodes(dim, *zs)
    fine = _FINE if base is _BASE else _FINE9
    with pytest.raises(contour.ContourTooCloseError) as want:
        for nodes in (base, fine):
            _every_node_pass([lambda z: 1.0], c, nodes)
    with pytest.raises(contour.ContourTooCloseError) as raised:
        for nodes in (base, fine):
            contour._evaluate_many(np.ones((1, len(nodes))), c, nodes, _none_open(nodes))
    assert str(raised.value) == str(want.value)


def _rotated(block, seed):
    # U block U^H for a random unitary U
    rng = np.random.default_rng(seed)
    dim = len(block)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return u @ block @ u.conj().T


def _jordan_block(lam, dim, b=0.3):
    return lam * np.eye(dim) + b * np.eye(dim, k=1)


_REDUCTION_CASES = {
    "jordan": _jordan_block(0.5, 4),
    "rotated_jordan": _rotated(_jordan_block(0.4 + 0.1j, 6), 2),
    "two_jordans_one_eigenvalue": _rotated(scipy.linalg.block_diag(_jordan_block(0.3, 3), _jordan_block(0.3, 2)), 1),
    "hermitian_repeated": _rotated(np.diag([0.2, 0.2, 0.2, 0.7]), 3),
    "zero": np.zeros((3, 3)),
    "identity": np.eye(4),
    "one_by_one": np.array([[0.3 - 0.2j]]),
    "ginibre32": (lambda rng: (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))) / 16)(
        np.random.default_rng(32)
    ),
}


@pytest.mark.parametrize("name", list(_REDUCTION_CASES))
def test_the_reduction_is_a_unitary_similarity_cut_to_blocks(name):
    # Q is unitary to rounding, T is exactly zero below its diagonal blocks,
    # and Q T Q^H is C within the sqrt(d - 1) cut corners plus the rounding
    # of forming T and Q, 2^4 d u ||C||_F
    c = _REDUCTION_CASES[name].astype(complex)
    dim = c.shape[0]
    schur = contour._reduce(c)
    u = 2.0**-53
    assert schur.edges[0] == 0 and schur.edges[-1] == dim and list(schur.edges) == sorted(set(schur.edges))
    assert np.linalg.norm(schur.q.conj().T @ schur.q - np.eye(dim)) <= 2.0**4 * dim * u
    for a, b in zip(schur.edges[:-1], schur.edges[1:]):
        assert np.all(schur.t[b:, a:b] == 0.0)
    moved = np.linalg.norm(schur.q @ schur.t @ schur.q.conj().T - c)
    assert moved <= math.sqrt(dim - 1) * _cut(c) + 2.0**4 * dim * u * np.linalg.norm(c)


def test_a_rotated_jordan_block_stays_one_block():
    # eig resolves at most two leading vectors of a rotated Jordan chain to
    # rounding, and their corners are cut; the rest of the cluster, whose
    # eigenvectors are nearly parallel, is one block.  Unrotated, the chain
    # is triangular as it stands, and every block is 1x1
    dim = 6
    assert contour._reduce(_REDUCTION_CASES["rotated_jordan"]).edges[-2] <= 2
    assert contour._reduce(_REDUCTION_CASES["two_jordans_one_eigenvalue"]).edges[-2] <= 2
    assert contour._reduce(_jordan_block(0.4 + 0.1j, dim).astype(complex)).edges == tuple(range(dim + 1))


@pytest.mark.parametrize("name", list(_REDUCTION_CASES))
def test_the_stacks_are_the_per_node_inverses_within_the_rounding_model(name):
    # each stack _evaluate_many solves, back in C's basis as Q R Q^H, is the
    # per-node np.linalg.inv within _kappa_tol in Frobenius norm
    c = _REDUCTION_CASES[name].astype(complex)
    dim = c.shape[0]
    nodes = contour.build_contour(1.0, 8, 8)
    schur = contour._reduce(c)
    step = contour._stack_nodes(dim)
    for lo in range(0, len(nodes), step):
        z = nodes.z[lo:lo + step]
        got = schur.q @ np.moveaxis(contour._solve(schur, z), -1, 0) @ schur.q.conj().T
        want = np.linalg.inv(z[:, None, None] * np.eye(dim) - c)
        err = np.linalg.norm(got - want, axis=(1, 2))
        assert np.all(err <= _kappa_tol(c, z) * np.linalg.norm(want, axis=(1, 2)))


@pytest.mark.parametrize("slot", range(15))
def test_contour_calc_slot_draws_split_into_1x1_blocks(monkeypatch, slot):
    # the 15 slot draws of the contour_calc benchmark's first block, d =
    # 2..16: every corner of T is cut, so every block is 1x1, and a call
    # with the harness families solves its nodes without any np.linalg.inv
    c, alpha = _slot_draw(slot)
    assert contour._reduce(c).edges == tuple(range(c.shape[0] + 1))
    fs, f_bounds = _harness_families(monkeypatch, (1, 2, 4, 8, 16))
    inverses, inv = [], np.linalg.inv
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "inv", lambda a: inverses.append(a.shape) or inv(a))
        contour.riesz_dunford_many(fs, c, 0.5 * (alpha + math.pi / 2), alpha, f_bounds)
    assert inverses == []


def test_a_failed_eig_leaves_one_block(monkeypatch):
    # an eig that raises gives Q = I and T = C, one block, whose stacked
    # inverse is the per-node one; a node on an eigenvalue of that block
    # then raises as singular with its stack's z range, and no warning
    def no_eig(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    c = certified_resolvent(4, math.pi / 8, 3000)
    schur = contour._reduce(c)
    assert schur.edges == (0, 4) and np.array_equal(schur.q, np.eye(4)) and np.array_equal(schur.t, c)
    got, _ = contour._evaluate_many(contour._weights(_FS, _BASE), c, _BASE, _none_open(_BASE))
    for g, want in zip(got, _reference_many(_FS, c, _BASE)):
        assert linalg.op_norm(g - want) <= 1e-13 * max(1.0, linalg.op_norm(want))
    z0 = complex(_BASE.z[100])
    jordan = np.array([[z0, 1.0], [0.0, z0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(contour.ContourTooCloseError, match=r"resolvent singular at a contour node in z=\("):
            contour._evaluate_many(np.ones((1, len(_BASE))), jordan, _BASE, _none_open(_BASE))


@pytest.mark.parametrize("b", [1e300, 1e200])
def test_an_overflowing_stack_raises_blow_up_without_a_warning(b):
    # a Jordan block next to a node with an off-diagonal entry b: b / w^2
    # overflows where w = z - lambda is 4e-16, and the overflow is a blow-up,
    # raised with no NumPy RuntimeWarning
    z0 = complex(_BASE.z[100])
    c = np.array([[z0 + 4e-16, b], [0.0, z0 + 4e-16]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(contour.ContourTooCloseError, match="blow-up"):
            contour._evaluate_many(np.ones((1, len(_BASE))), c, _BASE, _none_open(_BASE))


def test_a_node_on_a_diagonal_entry_of_t_raises_before_a_blow_up_in_its_stack():
    # one eigenvalue on node 100 and one 4e-16 from node 50 of the same
    # stack: the singular node raises, with its stack's z range, first
    c = _on_nodes(3, _BASE.z[50] + 4e-16, _BASE.z[100])
    step = contour._stack_nodes(3)
    z = _BASE.z[:step]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(contour.ContourTooCloseError) as raised:
            contour._evaluate_many(np.ones((1, len(_BASE))), c, _BASE, _none_open(_BASE))
    assert str(raised.value) == f"resolvent singular at a contour node in z={z[0]}..{z[-1]}"
