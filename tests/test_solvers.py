import numpy as np
import pytest

from neuriso import arrangements as arr
from neuriso import ensembles as ens
from neuriso import isometry as iso
from neuriso import recovery as rec
from neuriso import solvers as sol
from neuriso.errors import InfeasibleError, InvalidInputError


def gated_blocks(x, ps, skip=True):
    mat = x.mat if hasattr(x, "mat") else x
    blocks = [mat] if skip else []
    blocks += [p.mask[:, None] * mat for p in ps.patterns]
    return blocks


def test_min_norm_single_orthonormal_block():
    a = ens.gen_matrix("haar", 20, 5, seed=0).mat
    w_star = np.random.default_rng(0).standard_normal(5)
    y = a @ w_star
    s = sol.solve_group_min_norm(sol.GroupProblem(blocks=[a], target=y))
    assert s.converged
    assert np.linalg.norm(s.weights[0] - w_star) < 1e-6 * np.linalg.norm(w_star)
    assert abs(s.objective - np.linalg.norm(w_star)) < 1e-6
    assert s.active_blocks == [0]
    # dual stationarity on the active block
    what = w_star / np.linalg.norm(w_star)
    assert np.linalg.norm(a.T @ s.dual - what) < 1e-6


def test_min_norm_recovers_linear_plant_when_nic_holds():
    x = ens.gen_matrix("gaussian", 40, 5, seed=1)
    w_star = ens.plant_direction(x, seed=2)
    ps = arr.sample_patterns(x.mat, 150, seed=3)
    assert iso.nic_linear(x, w_star, ps).holds
    y = x.mat @ w_star
    s = sol.solve_group_min_norm(sol.GroupProblem(blocks=gated_blocks(x, ps), target=y))
    assert s.converged
    assert s.active_blocks == [0]
    assert np.linalg.norm(s.weights[0] - w_star) < 1e-6 * np.linalg.norm(w_star)


def test_min_norm_strong_duality_and_weak_duality():
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((15, 4)) for _ in range(6)]
    y = rng.standard_normal(15)
    s = sol.solve_group_min_norm(sol.GroupProblem(blocks=blocks, target=y))
    assert s.converged
    gap = abs(s.objective - s.dual @ y)
    assert gap < 1e-6 * max(1.0, abs(s.objective))
    assert s.objective >= s.dual @ y - 1e-6 * max(1.0, abs(s.objective))


def test_min_norm_scaling_equivariance():
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal((12, 3)) for _ in range(5)]
    y = rng.standard_normal(12)
    opts = sol.SolverOptions(tol=1e-10)
    s1 = sol.solve_group_min_norm(sol.GroupProblem(blocks=blocks, target=y), opts)
    s3 = sol.solve_group_min_norm(sol.GroupProblem(blocks=blocks, target=3 * y), opts)
    for w1, w3 in zip(s1.weights, s3.weights):
        assert np.linalg.norm(w3 - 3 * w1) < 1e-8 * max(1.0, 3 * np.linalg.norm(w1))


def test_min_norm_infeasible_target():
    a = np.zeros((4, 2))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    y = np.array([1.0, 1.0, 1.0, 0.0])  # third coordinate unreachable
    with pytest.raises(InfeasibleError):
        sol.solve_group_min_norm(sol.GroupProblem(blocks=[a], target=y))


def test_min_norm_iteration_cap_reports():
    rng = np.random.default_rng(6)
    blocks = [rng.standard_normal((10, 3)) for _ in range(4)]
    y = rng.standard_normal(10)
    s = sol.solve_group_min_norm(sol.GroupProblem(blocks=blocks, target=y),
                                 sol.SolverOptions(max_iter=5))
    assert not s.converged
    assert s.iterations == 5
    assert s.primal_residual >= 0 and s.dual_residual >= 0


def test_min_norm_drop_inactive_blocks_keeps_objective():
    x = ens.gen_matrix("gaussian", 30, 4, seed=7)
    w_star = ens.plant_direction(x, seed=8)
    ps = arr.sample_patterns(x.mat, 80, seed=9)
    blocks = gated_blocks(x, ps)
    y = x.mat @ w_star
    opts = sol.SolverOptions(tol=1e-11)
    s = sol.solve_group_min_norm(sol.GroupProblem(blocks=blocks, target=y), opts)
    kept = [blocks[i] for i in s.active_blocks]
    s2 = sol.solve_group_min_norm(sol.GroupProblem(blocks=kept, target=y), opts)
    assert abs(s.objective - s2.objective) < 1e-8 * max(1.0, s.objective)


def test_lasso_orthonormal_shrinkage_oracle():
    a = ens.gen_matrix("haar", 25, 6, seed=10).mat
    y = np.random.default_rng(10).standard_normal(25)
    cap = np.linalg.norm(a.T @ y)
    for beta in (0.25 * cap, 0.75 * cap, 1.5 * cap):
        s = sol.solve_group_lasso(sol.GroupProblem(blocks=[a], target=y, beta=beta))
        oracle = max(0.0, 1.0 - beta / cap) * (a.T @ y)
        assert np.linalg.norm(s.weights[0] - oracle) < 1e-7 * max(1.0, np.linalg.norm(oracle))
        expect = 0.5 * np.linalg.norm(a @ oracle - y) ** 2 + beta * np.linalg.norm(oracle)
        assert abs(s.objective - expect) < 1e-7 * max(1.0, expect)
    s = sol.solve_group_lasso(sol.GroupProblem(blocks=[a], target=y, beta=1.5 * cap))
    assert s.active_blocks == []


def test_lasso_kill_threshold_multi_block():
    rng = np.random.default_rng(11)
    blocks = [rng.standard_normal((20, 3)) for _ in range(5)]
    y = rng.standard_normal(20)
    cap = max(np.linalg.norm(b.T @ y) for b in blocks)
    s = sol.solve_group_lasso(sol.GroupProblem(blocks=blocks, target=y, beta=2.0 * cap))
    assert s.active_blocks == []
    s = sol.solve_group_lasso(sol.GroupProblem(blocks=blocks, target=y, beta=1.000001 * cap))
    assert s.active_blocks == []


def test_lasso_requires_positive_beta():
    a = np.eye(3)
    with pytest.raises(InvalidInputError):
        sol.solve_group_lasso(sol.GroupProblem(blocks=[a], target=np.ones(3), beta=0.0))


def test_lasso_kkt_at_optimum():
    rng = np.random.default_rng(12)
    blocks = [rng.standard_normal((18, 4)) for _ in range(4)]
    y = rng.standard_normal(18)
    p = sol.GroupProblem(blocks=blocks, target=y, beta=0.5)
    s = sol.solve_group_lasso(p)
    rep = sol.verify_kkt(p, s, tol=1e-8)
    assert rep.stationarity < 1e-7 and rep.dual_feasibility < 1e-7
    assert rep.cone == 0.0


def with_plant(ps, x, w_star):
    pat = arr.pattern_of(x.mat if hasattr(x, "mat") else x, w_star)
    if ps.index(pat.mask) < 0:
        return list(ps.patterns) + [pat]
    return list(ps.patterns)


def test_cone_solver_matches_unconstrained_when_cones_inactive():
    # planted relu neuron: the plant satisfies its own cone strictly
    x = ens.gen_matrix("gaussian", 30, 4, seed=13)
    w_star = ens.plant_direction(x, seed=14)
    ps = arr.sample_patterns(x.mat, 60, seed=15)
    pats = with_plant(ps, x, w_star)
    blocks, cones = [], []
    for pat in pats:
        d = pat.mask.astype(float)
        blocks.append(d[:, None] * x.mat)
        cones.append((2 * d - 1)[:, None] * x.mat)
    y = np.maximum(x.mat @ w_star, 0.0)
    free = sol.solve_group_min_norm(sol.GroupProblem(blocks=blocks, target=y))
    worst = min(float(np.min(c @ w)) for c, w in zip(cones, free.weights))
    coned = sol.solve_cone_constrained(
        sol.GroupProblem(blocks=blocks, target=y, cones=cones))
    assert coned.converged
    assert coned.cone_violation < 1e-6
    if worst > -1e-9:
        assert abs(coned.objective - free.objective) < 1e-6 * max(1.0, free.objective)
    assert coned.objective >= free.objective - 1e-6 * max(1.0, free.objective)
    # plant is feasible, so the optimum cannot exceed its objective
    pm = arr.pattern_of(x.mat, w_star).mask
    assert any(np.array_equal(p.mask, pm) for p in pats)
    assert coned.objective <= np.linalg.norm(w_star) + 1e-6


def test_cone_solver_without_cones_is_min_norm():
    # with every cone entry None the cone solve is the min-norm iteration,
    # so weights, multiplier and iteration count agree bit for bit
    x = ens.gen_matrix("gaussian", 30, 4, seed=13)
    w_star = ens.plant_direction(x, seed=14)
    ps = arr.sample_patterns(x.mat, 60, seed=15)
    blocks = gated_blocks(x, ps)
    y = x.mat @ w_star
    free = sol.solve_group_min_norm(sol.GroupProblem(blocks=blocks, target=y))
    coned = sol.solve_cone_constrained(
        sol.GroupProblem(blocks=blocks, target=y, cones=[None] * len(blocks)))
    assert free.converged and coned.converged
    assert coned.iterations == free.iterations
    assert all(np.array_equal(a, b) for a, b in zip(free.weights, coned.weights))
    assert np.array_equal(coned.dual, free.dual)


def test_solvers_reject_non_finite_problems():
    # a NaN target used to run every iteration and come back unconverged
    # with a finite objective; each solver must refuse it before iterating
    opts = sol.SolverOptions(max_iter=50)
    x = ens.gen_matrix("gaussian", 12, 3, seed=4).mat
    y = x @ np.ones(3)
    nan_y = y.copy()
    nan_y[5] = np.nan
    inf_cone = x.copy()
    inf_cone[2, 1] = np.inf
    cases = [(sol.solve_group_min_norm, dict(blocks=[x], target=nan_y)),
             (sol.solve_group_lasso, dict(blocks=[x], target=nan_y, beta=0.5)),
             (sol.solve_cone_constrained, dict(blocks=[x], target=nan_y, cones=[x])),
             (sol.solve_cone_constrained, dict(blocks=[x], target=y, cones=[inf_cone]))]
    for solve, problem in cases:
        with pytest.raises(InvalidInputError):
            solve(sol.GroupProblem(**problem), opts)


def test_cone_solver_detects_joint_infeasibility():
    # without the planted cell every block is pinned to the wrong cone and
    # the gated features cannot reproduce a relu observation
    x = ens.gen_matrix("gaussian", 30, 4, seed=13)
    w_star = ens.plant_direction(x, seed=14)
    ps = arr.sample_patterns(x.mat, 60, seed=15)
    pm = arr.pattern_of(x.mat, w_star).mask
    assert ps.index(pm) < 0
    blocks, cones = [], []
    for pat in ps.patterns:
        d = pat.mask.astype(float)
        blocks.append(d[:, None] * x.mat)
        cones.append((2 * d - 1)[:, None] * x.mat)
    y = np.maximum(x.mat @ w_star, 0.0)
    with pytest.raises(InfeasibleError):
        sol.solve_cone_constrained(sol.GroupProblem(blocks=blocks, target=y, cones=cones))


def test_cone_solver_skip_recovery():
    # skip-connection program: unconstrained skip block + cone pairs
    x = ens.gen_matrix("gaussian", 40, 8, seed=16)
    w_star = ens.plant_direction(x, seed=17)
    ps = arr.sample_patterns(x.mat, 60, seed=18)
    blocks, cones = [x.mat], [None]
    for pat in ps.patterns:
        d = pat.mask.astype(float)
        cone = (2 * d - 1)[:, None] * x.mat
        blocks.append(d[:, None] * x.mat)
        cones.append(cone)
        blocks.append(-(d[:, None] * x.mat))
        cones.append(cone)
    y = x.mat @ w_star
    s = sol.solve_cone_constrained(sol.GroupProblem(blocks=blocks, target=y, cones=cones))
    assert s.converged and s.cone_violation < 1e-6
    assert s.active_blocks == [0]
    assert np.linalg.norm(s.weights[0] - w_star) < 1e-5 * np.linalg.norm(w_star)


def test_cone_solves_pass_kkt_with_their_multiplier():
    # the equality multiplier of a converged cone solve, with per-block cone
    # multipliers recovered by verify_kkt, satisfies the optimality system
    x = ens.gen_matrix("gaussian", 40, 8, seed=16)
    w_star = ens.plant_direction(x, seed=17)
    ps = arr.sample_patterns(x.mat, 60, seed=18)
    cases = [("relu_skip_cone", ps, x.mat @ w_star),
             ("relu_normal_cone", arr.with_plants(x.mat, ps, [w_star]),
              np.maximum(x.mat @ w_star, 0.0))]
    probs = [(program, rec.build_program(x, pats, y, program))
             for program, pats, y in cases]
    # a hand-built cone need not have one row per observation
    rng = np.random.default_rng(19)
    a = rng.standard_normal((6, 3))
    probs.append(("one-row cone", sol.GroupProblem(
        blocks=[a], target=a @ np.array([1.0, -2.0, 0.5]), cones=[np.eye(3)[:1]])))
    for name, prob in probs:
        s = sol.solve_cone_constrained(prob)
        assert s.converged, name
        rep = sol.verify_kkt(prob, s, tol=1e-6)
        assert rep.ok, (name, rep)


def test_certificate_defining_equation_and_nic_equivalence():
    agree = 0
    for seed in range(20):
        x = ens.gen_matrix("gaussian", 24, 4, seed=40 + seed)
        w = ens.plant_direction(x, seed=70 + seed)
        ps = arr.sample_patterns(x.mat, 120, seed=90 + seed)
        cert = sol.build_certificate(x, ps, [(w, 1.0)], kind="relu")
        planted = arr.pattern_of(x.mat, w).mask
        di = planted.astype(float)
        what = w / np.linalg.norm(w)
        assert np.linalg.norm((di[:, None] * x.mat).T @ cert.lam - what) < 1e-9
        rep = iso.nic_relu_single(x, w, ps)
        assert cert.is_strict == rep.holds
        agree += 1
        # value-level agreement between independent computations: the NIC_1
        # multiplier (Gram solve), the certificate's (stacked pseudoinverse),
        # and a direct per-block norm of the certificate's multiplier
        norms = {tuple(m): v for m, v in rep.per_pattern}
        for m, v in zip(cert.masks, cert.block_norms):
            assert abs(norms[tuple(m)] - v) < 1e-9
            assert abs(np.linalg.norm(x.mat.T @ (m * cert.lam)) - v) < 1e-9
    assert agree == 20


def test_certificate_normalized_kind_matches_nnic():
    for seed in range(8):
        x = ens.gen_matrix("gaussian", 30, 5, seed=400 + seed)
        w = ens.plant_direction(x, seed=430 + seed)
        ps = arr.sample_patterns(x.mat, 80, seed=460 + seed)
        cert = sol.build_certificate(x, ps, [(w, 1.0)], kind="normalized")
        rep = iso.nnic_single(x, w, ps)
        assert cert.is_strict == rep.holds
        norms = {tuple(m): v for m, v in rep.per_pattern}
        for m, v in zip(cert.masks, cert.block_norms):
            assert abs(norms[tuple(m)] - v) < 1e-9


def test_certificate_allones_blocks_strictness():
    # wide-regime failure mode: rows share a halfspace, all-ones block at 1
    found = False
    for seed in range(40):
        x = ens.gen_matrix("gaussian", 12, 8, seed=200 + seed)
        t, w = arr.allones_margin(x.mat)
        if t <= 1e-6:
            continue
        found = True
        ps = arr.sample_patterns(x.mat, 100, seed=300 + seed)
        assert ps.contains_all_ones
        cert = sol.build_certificate(x, ps, [(w, 1.0)], kind="linear")
        ones_idx = [k for k, m in enumerate(cert.masks) if np.all(m == 1)]
        assert ones_idx and abs(cert.block_norms[ones_idx[0] + 1] - 1.0) < 1e-9
        assert not cert.is_strict
        break
    assert found


def test_verify_kkt_on_certificate_and_perturbation():
    x = ens.gen_matrix("gaussian", 30, 5, seed=20)
    w_star = ens.plant_direction(x, seed=21)
    ps = arr.sample_patterns(x.mat, 100, seed=22)
    planted = arr.pattern_of(x.mat, w_star).mask
    blocks = [p.mask[:, None] * x.mat for p in ps.patterns]
    y = np.maximum(x.mat @ w_star, 0.0)
    cert = sol.build_certificate(x, ps, [(w_star, 1.0)], kind="relu")
    weights = [np.zeros(5) for _ in blocks]
    i_star = ps.index(planted)
    weights[i_star] = w_star.copy()
    manual = sol.BlockSolution(weights=weights, dual=cert.lam,
                               objective=float(np.linalg.norm(w_star)),
                               primal_residual=0.0, dual_residual=0.0,
                               cone_violation=0.0, iterations=0,
                               active_blocks=[i_star], converged=True)
    p = sol.GroupProblem(blocks=blocks, target=y)
    if cert.is_strict:
        rep = sol.verify_kkt(p, manual, tol=1e-8)
        assert rep.ok
    weights[i_star] = w_star + 0.01
    rep = sol.verify_kkt(p, manual, tol=1e-8)
    assert rep.stationarity > 1e-3 or rep.primal > 1e-3


def test_solver_kkt_regression_batch():
    rng = np.random.default_rng(23)
    for trial in range(20):
        nb = int(rng.integers(2, 6))
        blocks = [rng.standard_normal((16, 3)) for _ in range(nb)]
        y = rng.standard_normal(16)
        if trial % 2:
            p = sol.GroupProblem(blocks=blocks, target=y, beta=float(rng.uniform(0.2, 1.0)))
            s = sol.solve_group_lasso(p)
        else:
            reach = sum(b @ rng.standard_normal(3) for b in blocks)
            p = sol.GroupProblem(blocks=blocks, target=reach)
            s = sol.solve_group_min_norm(p)
        rep = sol.verify_kkt(p, s, tol=1e-8)
        assert max(rep.stationarity, rep.dual_feasibility, rep.primal, rep.cone) < 1e-7


def test_solution_serialization_roundtrip():
    rng = np.random.default_rng(24)
    blocks = [rng.standard_normal((10, 3)) for _ in range(3)]
    y = sum(b @ rng.standard_normal(3) for b in blocks)
    s = sol.solve_group_min_norm(sol.GroupProblem(blocks=blocks, target=y))
    text = sol.solution_to_csv(s)
    lines = text.strip().splitlines()
    assert lines[0] == "block,norm,active"
    assert len(lines) == 4
    # norms are written in repr form, so they read back bit for bit
    for line, w in zip(lines[1:], s.weights):
        assert float(line.split(",")[1]) == float(np.linalg.norm(w))


@pytest.mark.parametrize("field,value", [
    ("tol", 0.0), ("tol", -1e-8), ("tol", float("nan")),
    ("max_iter", 0), ("max_iter", -5), ("max_iter", 2.5)])
def test_solver_options_reject_bad_values(field, value):
    with pytest.raises(InvalidInputError):
        sol.SolverOptions(**{field: value})
