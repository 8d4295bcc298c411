import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiapprox import approximants, contour, ensembles, linalg, numrange
from semiapprox.errors import DomainError, InvalidInputError
from semiapprox.harness import ExperimentConfig, _resolvent_draws, run_experiment


def certified_resolvent(dim, alpha, seed, t=1.0):
    a = ensembles.random_m_sectorial(dim, alpha, seed)
    c = approximants.resolvent_family(a)(t)
    assert numrange.quasi_sectorial(c, alpha)
    return c


def majorant_report(c, alpha, nodes):
    _, report = contour.riesz_dunford_many([lambda z: 1.0], c, nodes, alpha)
    return report


def per_node_report(c, nodes, alpha):
    # the check on exact norms at every node, each from its own solve
    eye = np.eye(c.shape[0], dtype=complex)
    rnorm = linalg.op_norms(np.stack([np.linalg.solve(z * eye - c, eye) for z in nodes.z]))
    return contour.contour_norm_bound_check(nodes, rnorm, alpha)


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


def test_cauchy_formula_identity():
    c = certified_resolvent(4, math.pi / 8, 1001)
    nodes = contour.build_contour(0.5 * (math.pi / 8 + math.pi / 2))
    (got,), _ = contour.riesz_dunford_many([lambda z: 1.0], c, nodes, math.pi / 8)
    assert linalg.op_norm(got - np.eye(4)) <= 1e-8


def test_scalar_ritt_reconstruction():
    nodes = contour.build_contour(math.pi / 4)
    c = np.array([[0.5]], dtype=complex)
    (got,), _ = contour.riesz_dunford_many([lambda z: z * (1.0 - z)], c, nodes, 0.0)
    assert abs(got[0, 0] - 0.25) <= 1e-8


def test_matrix_reconstruction_oracle():
    for i, alpha in enumerate((math.pi / 16, math.pi / 8)):
        c = certified_resolvent(5, alpha, 2000 + i)
        ap = 0.5 * (alpha + math.pi / 2)
        nodes = contour.build_contour(ap)
        eye = np.eye(5)
        for n in (1, 4, 16):
            direct = linalg.mat_pow(c, n) @ (eye - c)
            (got,), _ = contour.riesz_dunford_many(
                [lambda z, n=n: z**n * (1.0 - z)], c, nodes, alpha
            )
            assert linalg.op_norm(got - direct) <= 1e-7
            direct = linalg.mat_pow(c, n) - linalg.expm(n * (c - eye))
            (got,), _ = contour.riesz_dunford_many(
                [lambda z, n=n: z**n - np.exp(n * (z - 1.0))], c, nodes, alpha
            )
            assert linalg.op_norm(got - direct) <= 1e-7


def test_riesz_dunford_many_matches_single():
    c = certified_resolvent(3, math.pi / 8, 3000)
    nodes = contour.build_contour(1.0)
    fs = [lambda z: 1.0, lambda z: z * (1 - z)]
    batch, _ = contour.riesz_dunford_many(fs, c, nodes, math.pi / 8)
    for f, got in zip(fs, batch):
        (single,), _ = contour.riesz_dunford_many([f], c, nodes, math.pi / 8)
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


def test_contour_check_validation():
    nodes = contour.build_contour(0.4)
    with pytest.raises(InvalidInputError):
        contour.contour_norm_bound_check(nodes, np.ones(len(nodes)), 0.5)
    for size in (len(nodes) - 1, len(nodes) + 1, 0):
        with pytest.raises(InvalidInputError):
            contour.contour_norm_bound_check(nodes, np.ones(size), 0.1)


def test_rnorm_is_op_norm_of_per_node_solves():
    # the majorant report reads exact norms wherever a maximum sits
    c = certified_resolvent(3, math.pi / 8, 3000)
    nodes = contour.build_contour(1.0)
    _, report = contour.riesz_dunford_many([lambda z: z], c, nodes, math.pi / 8)
    assert report == per_node_report(c, nodes, math.pi / 8)


def _scaled_resolvent(dim, alpha, seed, t, exponent, nodes):
    # C with ||(z - C)^{-1}|| up to about 10^exponent on the nodes: for
    # exponent <= 0, 10^-exponent C; above 0, D C D^{-1} with D diagonal of
    # condition number 10^exponent / (the largest ||(z - C)^{-1}||_F), so
    # that no resolvent reaches the blow-up check's 1e15
    c = approximants.resolvent_family(ensembles.random_m_sectorial(dim, alpha, seed))(t)
    if exponent <= 0:
        return 10.0 ** -exponent * c
    peak = max(np.max(fro) for _, _, fro in contour._resolvent_blocks(c, nodes))
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
def test_majorant_report_equals_check_of_all_exact_norms(dim, alpha, t, seed, exponent):
    # the zero integrand converges at once, so resolvents of any size can be
    # checked; at 1e-19 an unscaled (R^H R)^8 would be subnormal
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    c = _scaled_resolvent(dim, alpha, seed, t, exponent, nodes)
    _, report = contour.riesz_dunford_many([lambda z: 0.0], c, nodes, alpha)
    assert dataclasses.astuple(report) == dataclasses.astuple(per_node_report(c, nodes, alpha))


def test_candidate_solves_match_the_pass_rows():
    alpha = math.pi / 8
    c = certified_resolvent(5, alpha, 3000)
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    rows = np.concatenate([r for _, r, _ in contour._resolvent_blocks(c, nodes)])
    _, (lo, hi) = contour._evaluate_many([], c, nodes, bounds=True)
    kept = contour._majorant_candidates(nodes, alpha, numrange.distance_to_D_alpha(nodes.z, alpha), lo, hi)
    assert 0 < kept.size < len(nodes)
    assert np.array_equal(contour._solve(c, nodes.z[kept]), rows[kept])


def test_distances_are_taken_once_per_call(monkeypatch):
    # the candidates and the check share one distance_to_D_alpha of the base nodes;
    # the refinement passes take none
    alpha = math.pi / 8
    c = certified_resolvent(4, alpha, 3000)
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    _, want = contour.riesz_dunford_many([lambda z: z], c, nodes, alpha)
    calls = []
    distance = numrange.distance_to_D_alpha
    monkeypatch.setattr(numrange, "distance_to_D_alpha", lambda z, a: calls.append(len(z)) or distance(z, a))
    _, report = contour.riesz_dunford_many([lambda z: z], c, nodes, alpha)
    assert calls == [len(nodes)]
    assert dataclasses.astuple(report) == dataclasses.astuple(want)


def test_norm_bounds_hold_the_exact_norms():
    alpha = math.pi / 8
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    c = _scaled_resolvent(6, alpha, 3000, 1.0, 12.0, nodes)
    _, (lo, hi) = contour._evaluate_many([], c, nodes, bounds=True)
    exact = np.asarray(linalg.op_norms(contour._solve(c, nodes.z)))
    assert np.all(lo <= exact) and np.all(exact <= hi)
    assert np.all(hi <= lo * 6 ** (1 / 32) * (1 + 3e-6))


def test_default_draws_take_few_exact_norms(monkeypatch):
    # the op_norms calls ahead of the first refinement take the exact norms
    config = ExperimentConfig("contour_reconstruction")
    base = contour.build_contour(0.5 * (config.alpha + math.pi / 2))
    events = []
    op_norms, build = linalg.op_norms, contour.build_contour

    def counting(stack):
        events.append(len(stack))
        return op_norms(stack)

    def refining(*args):
        events.append("refine")
        return build(*args)

    monkeypatch.setattr(linalg, "op_norms", counting)
    monkeypatch.setattr(contour, "build_contour", refining)
    draws, _ = _resolvent_draws(config)
    assert draws
    for _, c, _ in draws:
        events.clear()
        contour.riesz_dunford_many([lambda z: 1.0], c, base, config.alpha)
        assert 0 < sum(events[:events.index("refine")]) <= len(base) // 4


def test_bad_alpha_is_refused_before_solving(monkeypatch):
    def no_solves(c, nodes):
        raise AssertionError("solved before checking alpha")

    monkeypatch.setattr(contour, "_resolvent_blocks", no_solves)
    nodes = contour.build_contour(1.0)
    c = np.diag([0.2, 0.5]).astype(complex)
    for alpha in (-0.1, 1.0, 1.2, math.nan):
        with pytest.raises(InvalidInputError, match="need 0 <= alpha < alpha' < pi/2"):
            contour.riesz_dunford_many([lambda z: 1.0], c, nodes, alpha)


def test_contour_reconstruction_solves_base_nodes_once(monkeypatch):
    # one base pass and one refinement at twice the nodes; the majorant
    # check solves only its candidate nodes again, in stacks of at most 64
    # between the two passes
    solved, blocked = [], []
    blocks, solve = contour._resolvent_blocks, contour._solve

    def counting_blocks(c, nodes):
        for sl, r, fro in blocks(c, nodes):
            blocked.append(len(r))
            yield sl, r, fro

    def counting_solve(c, z):
        solved.append(len(z))
        return solve(c, z)

    monkeypatch.setattr(contour, "_resolvent_blocks", counting_blocks)
    monkeypatch.setattr(contour, "_solve", counting_solve)
    config = ExperimentConfig("contour_reconstruction", dim=4, trials=1, nmax=4)
    result = run_experiment(config)
    assert result.summary["certification_failures"] == 0
    base = contour.build_contour(result.summary["alpha_prime"])
    assert sum(blocked) == 3 * len(base)
    assert solved == [64] * 16 + [22] + [64] * 32


def test_spectrum_on_node_raises_too_close():
    nodes = contour.build_contour(1.0)
    z0 = complex(nodes.z[len(nodes) // 2])
    c = z0 * np.eye(2, dtype=complex)
    with pytest.raises(contour.ContourTooCloseError):
        contour.riesz_dunford_many([lambda z: 1.0], c, nodes, 0.0)


def test_unconverged_quadrature_raises(monkeypatch):
    # a zero tolerance never converges, so the node budget runs out
    monkeypatch.setattr(contour, "CONTOUR_QUAD_TOL", 0.0)
    monkeypatch.setattr(contour, "CONTOUR_NODE_CAP", 4096)
    c = certified_resolvent(3, math.pi / 8, 3000)
    with pytest.raises(contour.ContourTooCloseError, match="4096 nodes"):
        contour.riesz_dunford_many([lambda z: z], c, contour.build_contour(1.0), math.pi / 8)


def test_resolvent_blocks_match_per_node_solves():
    # the stacked solves round exactly as one solve per node does
    c = certified_resolvent(3, math.pi / 8, 3000)
    nodes = contour.build_contour(1.0)
    eye = np.eye(3, dtype=complex)
    got = np.concatenate([r for _, r, _ in contour._resolvent_blocks(c, nodes)])
    want = np.stack([np.linalg.solve(z * eye - c, eye) for z in nodes.z])
    assert np.array_equal(got, want)


def test_resolvent_blow_up_raises_too_close():
    nodes = contour.build_contour(1.0)
    z0 = complex(nodes.z[100])
    c = np.diag([z0 + 4e-16, 0.1])
    with pytest.raises(contour.ContourTooCloseError, match="blow-up"):
        contour.riesz_dunford_many([lambda z: 1.0], c, nodes, 0.0)


def test_each_function_runs_once_per_pass():
    # one base pass of 1024 nodes and one refinement of 2048: each function
    # sees every node of a pass at once, as one node array
    calls = [[], []]

    def counted(j, f):
        def g(z):
            calls[j].append(np.shape(z))
            return f(z)

        return g

    c = certified_resolvent(4, math.pi / 8, 3000)
    nodes = contour.build_contour(0.5 * (math.pi / 8 + math.pi / 2))
    fs = [lambda z: 1.0, lambda z: z**4 - np.exp(4 * (z - 1.0))]
    contour.riesz_dunford_many([counted(j, f) for j, f in enumerate(fs)], c, nodes, math.pi / 8)
    assert calls == [[(1024,), (2048,)]] * 2


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
    # node order, with riesz_dunford_many's refinement loop around it
    eye = np.eye(c.shape[0], dtype=complex)

    def quadrature(nodes):
        acc = [np.zeros(c.shape, dtype=complex) for _ in fs]
        for z, w in zip(nodes.z, nodes.dz_weight):
            res = np.linalg.solve(z * eye - c, eye)
            for a, f in zip(acc, fs):
                a += (f(z) * w) * res
        return [a / (2j * math.pi) for a in acc]

    results = quadrature(nodes)
    while True:
        nodes = contour.build_contour(nodes.alpha_prime, 2 * nodes.k_arc, 2 * nodes.k_line)
        refined = quadrature(nodes)
        tol = contour.CONTOUR_QUAD_TOL
        if all(linalg.op_norm(r2 - r1) < tol for r1, r2 in zip(results, refined)):
            return refined
        results = refined


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 32])
def test_block_sums_match_per_node_formula(dim):
    alpha = math.pi / 8
    c = certified_resolvent(dim, alpha, 6000 + dim)
    nodes = contour.build_contour(0.5 * (alpha + math.pi / 2))
    fs = [
        lambda z: 1.0,
        lambda z: z**3 * (1.0 - z),
        lambda z: np.exp(4.0 * (z - 1.0)),
    ]
    got, _ = contour.riesz_dunford_many(fs, c, nodes, alpha)
    for g, want in zip(got, _reference_many(fs, c, nodes)):
        assert linalg.op_norm(g - want) <= 1e-13 * max(1.0, linalg.op_norm(want))
