import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neuriso import arrangements as arr
from neuriso import ensembles as ens
from neuriso import experiments as ex
from neuriso import isometry as iso
from neuriso import recovery as rec
from neuriso import solvers as sol
from neuriso.errors import InfeasibleError, InvalidInputError, InvalidShapeError


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


def test_lasso_zero_operator_is_solved_at_zero():
    # every gradient A_j^T r is 0 <= beta, so w = 0 is the exact optimum
    for blocks in ([np.zeros((3, 2))], [np.zeros((3, 0))],
                   [np.zeros((3, 2)), np.zeros((3, 0))]):
        p = sol.GroupProblem(blocks=blocks, target=np.ones(3), beta=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sol.solve_group_lasso(p)
        assert s.converged and s.iterations == 0 and s.active_blocks == []
        assert [w.shape for w in s.weights] == [(b.shape[1],) for b in blocks]
        assert not any(w.any() for w in s.weights)
        assert s.objective == 1.5
        assert sol.verify_kkt(p, s).ok


def test_lasso_step_when_the_power_start_is_in_the_null_space():
    # A @ 1 = 0 (and A @ (1, 2, 3) = 0): the power method's all-ones start
    # sees a zero operator although A is not zero
    a = np.array([[1.0, -2.0, 1.0]])
    p = sol.GroupProblem(blocks=[a], target=np.ones(1), beta=0.1)
    s = sol.solve_group_lasso(p)
    assert s.converged and s.active_blocks == [0]
    assert sol.verify_kkt(p, s).ok


@st.composite
def block_vectors(draw, rows=None):
    # one vector, or a stack of `rows` vectors, over the same drawn widths
    widths = draw(st.lists(st.integers(0, 40), min_size=1, max_size=10))
    if draw(st.booleans()):
        # one width for every block: the kernels' reshape-view path
        widths = [widths[0]] * len(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vector():
        segs = [rng.standard_normal(w) * 10.0 ** rng.integers(-3, 4) for w in widths]
        for seg in segs:
            if draw(st.booleans()):
                seg[:] = 0.0
            elif draw(st.booleans()):
                seg[rng.random(seg.size) < 0.5] = -0.0
        return np.concatenate(segs)
    if rows is None:
        return widths, vector()
    return widths, np.stack([vector() for _ in range(draw(rows))])


@settings(max_examples=150, deadline=None)
@given(block_vectors(), st.floats(0.0, 50.0), st.none() | st.integers(0, 9))
def test_batched_block_kernels_equal_a_per_block_loop(blocks, t, tie):
    widths, v = blocks
    if tie is not None:
        # t equal to a block's norm: that block is not kept
        j = tie % len(widths)
        t = float(np.linalg.norm(v[sum(widths[:j]):sum(widths[:j + 1])]))
    norms, soft, start = [], np.zeros_like(v), 0
    for w in widths:
        seg = v[start:start + w]
        nv = np.linalg.norm(seg)
        norms.append(nv)
        if nv > t:
            soft[start:start + w] = (1.0 - t / nv) * seg
        start += w
    cols = sol._columns(widths)
    assert sol._block_norms(v, cols).tobytes() == np.array(norms).tobytes()
    dirty = np.full(v.shape, np.nan)  # out is zero-filled before it is written
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # t = 0 over a zero block divides nothing
        assert sol._soft_blocks(v, cols, t).tobytes() == soft.tobytes()
        assert sol._soft_blocks(v, cols, t, out=dirty) is dirty
    assert dirty.tobytes() == soft.tobytes()


# per row: a threshold, or the index of a block whose norm is the threshold
ROW_THRESHOLDS = st.lists(st.just(0.0) | st.floats(0.0, 50.0) | st.integers(0, 9),
                          min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(block_vectors(rows=st.integers(1, 4)), ROW_THRESHOLDS)
@example(([2, 3, 2], np.array([[1.0, -2.0, 0.0, 0.0, 0.0, 3.0, 4.0],
                               [0.5, 0.0, 1.0, 2.0, 2.0, -0.0, 0.0]])), [0.0, 1, 0.0, 0.0])
def test_stacked_soft_threshold_equals_one_row_at_a_time(blocks, picks):
    widths, v = blocks
    t = []
    for row, pick in zip(v, picks):
        if isinstance(pick, int):  # a tie: that block is not kept
            j = pick % len(widths)
            pick = float(np.linalg.norm(row[sum(widths[:j]):sum(widths[:j + 1])]))
        t.append(pick)
    cols = sol._columns(widths)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # t = 0 over a zero block divides nothing
        got = sol._soft_blocks(v, cols, np.array(t)[:, None])
        want = [sol._soft_blocks(row, cols, th) for row, th in zip(v, t)]
        dirty = sol._soft_blocks(v, cols, np.array(t)[:, None], out=np.full(v.shape, -7.0))
    assert got.shape == v.shape
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert dirty.tobytes() == got.tobytes()


def one_beta_fista(p, beta, opts):
    # the one-beta loop the lockstep path replaced, counting momentum restarts
    cols = sol._columns([np.shape(b)[1] for b in p.blocks])
    a, y = np.hstack(p.blocks), np.asarray(p.target, dtype=float)
    w = np.zeros(cols.total)
    if not a.any():
        return sol._lasso_solution(a, cols, w, y, beta, 0, True), 0
    step = 1.0 / sol._power_step(a)
    v, tk, it, converged, restarts = w, 1.0, 0, False, 0
    prev_check = sol._lasso_objective(a, cols, w, y, beta)
    for it in range(1, opts.max_iter + 1):
        g = a.T @ (a @ v - y)
        w_new = sol._soft_blocks(v - step * g, cols, step * beta)
        tk_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        v = w_new + ((tk - 1.0) / tk_new) * (w_new - w)
        tk, w = tk_new, w_new
        if it % 50 == 0:
            cur = sol._lasso_objective(a, cols, w, y, beta)
            if cur > prev_check:
                tk, v, restarts = 1.0, w, restarts + 1
            kkt = sol._lasso_kkt(a, cols, w, y, beta)
            flat = prev_check - cur < 1e-12 * max(1.0, abs(prev_check))
            prev_check = cur
            if flat and kkt < 1e-8 * max(1.0, beta):
                converged = True
                break
    return sol._lasso_solution(a, cols, w, y, beta, it, converged), restarts


def test_lasso_path_equals_one_solve_per_beta():
    rng = np.random.default_rng(0)
    # two width groups; 0.02 and 4.0 restart their momentum, and the four
    # betas stop at four different checks, or at the cap of 700 iterations
    blocks = [rng.standard_normal((12, w)) for w in (3, 2, 3, 2, 3)]
    p = sol.GroupProblem(blocks=blocks, target=rng.standard_normal(12))
    betas = (0.02, 0.3, 1.0, 4.0, 0.3)
    cases = [(p, betas, sol.SolverOptions()), (p, betas, sol.SolverOptions(max_iter=700)),
             (sol.GroupProblem(blocks=[np.zeros((12, 2)), np.zeros((12, 0))],
                               target=p.target), (0.1, 2.0), sol.SolverOptions())]
    seen = []
    for prob, bs, opts in cases:
        path = sol.solve_lasso_path(prob, bs, opts)
        assert isinstance(path, list) and len(path) == len(bs)
        for beta, s in zip(bs, path):
            one, restarts = one_beta_fista(prob, beta, opts)
            assert s.iterations == one.iterations and s.converged == one.converged
            assert np.float64(s.objective).tobytes() == np.float64(one.objective).tobytes()
            assert np.float64(s.dual_residual).tobytes() == np.float64(
                one.dual_residual).tobytes()
            assert s.dual.tobytes() == one.dual.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(s.weights, one.weights))
            seen.append((opts.max_iter, s.iterations, s.converged, restarts))
    full, capped = seen[:5], seen[5:10]
    assert len({it for _, it, _, _ in full}) == 4 and all(c for _, _, c, _ in full)
    assert [r > 0 for _, _, _, r in full] == [True, False, False, True, False]
    assert [(it, c) for _, it, c, _ in capped] == [
        (700, False), (700, False), (600, True), (150, True), (700, False)]
    assert [(it, c) for _, it, c, _ in seen[10:]] == [(0, True), (0, True)]
    assert sol.solve_lasso_path(p, ()) == []
    for bad in ((0.1, 0.0), (np.nan,), (np.inf,)):
        with pytest.raises(InvalidInputError):
            sol.solve_lasso_path(p, bad)


def test_lasso_path_scores_each_finished_row_once(monkeypatch):
    # a row that stops at a check keeps the objective and KKT residual that
    # the check computed: no (w, beta) is scored twice, and the kept values
    # are the ones a fresh call gives
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((12, w)) for w in (3, 2, 3, 2, 3)]
    p = sol.GroupProblem(blocks=blocks, target=rng.standard_normal(12))
    calls = {"_lasso_kkt": [], "_lasso_objective": []}
    fns = {name: getattr(sol, name) for name in calls}

    def counted(name):
        def run(a, cols, w, y, beta):
            calls[name].append((w.tobytes(), beta))
            return fns[name](a, cols, w, y, beta)
        return run

    for name in calls:
        monkeypatch.setattr(sol, name, counted(name))
    path = sol.solve_lasso_path(p, (0.02, 0.3, 1.0, 4.0))
    assert all(s.converged for s in path)
    for seen in calls.values():
        assert len(seen) == len(set(seen))
    a, cols = np.hstack(blocks), sol._columns([b.shape[1] for b in blocks])
    for beta, s in zip((0.02, 0.3, 1.0, 4.0), path):
        w = np.concatenate(s.weights)
        assert s.dual_residual == fns["_lasso_kkt"](a, cols, w, p.target, beta)
        assert s.objective == fns["_lasso_objective"](a, cols, w, p.target, beta)


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


def test_solvers_reject_overflowing_problems():
    # finite entries whose squares overflow used to turn the relative
    # residuals into NaN, which passed the stopping test: a target of norm
    # 1e160 came back converged with an infinite objective
    opts = sol.SolverOptions(max_iter=50)
    x = ens.gen_matrix("gaussian", 12, 3, seed=4).mat
    y = x @ np.ones(3)
    big_y = y / np.linalg.norm(y) * 1e160
    cases = [(sol.solve_group_min_norm, dict(blocks=[x], target=big_y)),
             (sol.solve_group_min_norm, dict(blocks=[x * 1e160], target=y)),
             (sol.solve_group_lasso, dict(blocks=[x], target=big_y, beta=0.5)),
             (sol.solve_cone_constrained, dict(blocks=[x], target=big_y, cones=[x])),
             (sol.solve_cone_constrained, dict(blocks=[x], target=y, cones=[x * 1e160]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve, problem in cases:
            with pytest.raises(InvalidInputError):
                solve(sol.GroupProblem(**problem), opts)
        big = sol.GroupProblem(blocks=[x], target=big_y)
        with pytest.raises(InvalidInputError):
            sol.solve_lasso_path(big, [0.5, 0.1], opts)
        fit = sol.solve_group_min_norm(sol.GroupProblem(blocks=[x], target=y))
        with pytest.raises(InvalidInputError):
            sol.verify_kkt(big, fit)


@pytest.mark.parametrize("check", ["min_norm", "lasso", "cone", "kkt"])
def test_problems_reject_blocks_and_cones_that_are_not_matrices(check):
    # a 1-d block used to become a row and fail on the target's length, and
    # a 3-d one failed in the SVD, in matmul or in indexing with numpy's errors
    rng = np.random.default_rng(31)
    good = [rng.standard_normal((5, 2)) for _ in range(3)]
    y = rng.standard_normal(5)
    fit = sol.solve_group_min_norm(sol.GroupProblem(blocks=good, target=y))

    def run(blocks, cones):
        p = sol.GroupProblem(blocks=blocks, target=y, cones=cones)
        if check == "min_norm":
            return sol.solve_group_min_norm(p)
        if check == "lasso":
            return sol.solve_lasso_path(p, [0.5])
        if check == "cone":
            return sol.solve_cone_constrained(
                dataclasses.replace(p, cones=cones or [None] * len(blocks)))
        return sol.verify_kkt(p, fit)

    for j, bad in enumerate((np.float64(1.0), rng.standard_normal(5),
                             rng.standard_normal((5, 2, 1)))):
        with pytest.raises(InvalidShapeError, match="block %d is %d-d" % (j, bad.ndim)):
            run(good[:j] + [bad] + good[j + 1:], None)
        cones = [None, np.eye(2), None]
        cones[j] = np.ones(2) if bad.ndim < 2 else np.ones((1, 2, 1))
        with pytest.raises(InvalidShapeError, match="cone %d is" % j):
            run(good, cones)


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
    with pytest.raises(InfeasibleError):
        reference_admm(blocks, y, cones, sol.SolverOptions())


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


def cone_programs():
    x = ens.gen_matrix("gaussian", 40, 8, seed=16)
    w_star = ens.plant_direction(x, seed=17)
    ps = arr.sample_patterns(x.mat, 60, seed=18)
    cases = [("relu_skip_cone", ps, x.mat @ w_star),
             ("relu_normal_cone", arr.with_plants(x.mat, ps, [w_star]),
              np.maximum(x.mat @ w_star, 0.0))]
    return [(program, rec.build_program(x, pats, y, program))
            for program, pats, y in cases]


def test_cone_solves_pass_kkt_with_their_multiplier():
    # the equality multiplier of a converged cone solve, with per-block cone
    # multipliers recovered by verify_kkt, satisfies the optimality system
    probs = cone_programs()
    # a hand-built cone need not have one row per observation
    rng = np.random.default_rng(19)
    a = rng.standard_normal((6, 3))
    probs.append(("one-row cone", sol.GroupProblem(
        blocks=[a], target=a @ np.array([1.0, -2.0, 0.5]), cones=[np.eye(3)[:1]])))
    # cones of several shapes, a free block between coned blocks and a
    # zero-width coned block, with the target inside every cone
    x = rng.standard_normal((12, 3))
    w = np.array([0.5, -1.0, 2.0])
    d = (x @ w >= 0).astype(float)
    blocks = [x, np.zeros((12, 0)), rng.standard_normal((12, 2)), d[:, None] * x]
    cones = [np.eye(3)[:1], np.zeros((2, 0)), None, (2 * d - 1)[:, None] * x]
    probs.append(("mixed cones", sol.GroupProblem(
        blocks=blocks, target=x @ np.abs(w) + blocks[2] @ [1.0, 1.0] + blocks[3] @ w,
        cones=cones)))
    for name, prob in probs:
        s = sol.solve_cone_constrained(prob)
        assert s.converged, name
        rep = sol.verify_kkt(prob, s, tol=1e-6)
        assert rep.ok, (name, rep)


def test_one_factor_per_cone_metric(monkeypatch):
    # relu_skip_cone's cones are row-sign flips of X, so every pattern's
    # metric is I + X^T X and one factor serves them all; relu_normal_cone's
    # metrics differ per pattern, and a rank-0 pattern has no cone
    calls = []
    factor = sol.cho_factor
    monkeypatch.setattr(sol, "cho_factor", lambda a: calls.append(a.shape) or factor(a))
    for name, prob in cone_programs():
        calls.clear()
        sol.solve_cone_constrained(prob)
        if name == "relu_skip_cone":
            assert calls == [(8, 8)]
        else:
            assert len(calls) == sum(sv.rank > 0 for sv in prob.layout.bases)


# a fresh interpreter, so that no earlier test has imported scipy.linalg: the
# solver's factor must equal scipy.linalg.cho_factor's byte for byte, and a
# later import of scipy.linalg must reuse the LAPACK extension the solve loaded
FACTOR_BITS = """
import sys
import numpy as np
from neuriso import arrangements as arr, ensembles as ens, recovery as rec, solvers as sol

x = ens.gen_matrix("gaussian", 30, 5, seed=20)
ps = arr.sample_patterns(x.mat, 50, seed=21)
prob = rec.build_program(x, ps, x.mat @ ens.plant_direction(x, seed=22), "relu_skip_cone")
assert sol.solve_cone_constrained(prob).converged and "scipy.linalg" not in sys.modules
rng = np.random.default_rng(23)
c = next(c for c in prob.cones if c is not None)
metrics = [np.eye(5) + c.T @ c]
for k in (0, 1, 2, 5, 10):
    m = rng.standard_normal((k + 2, k))
    metrics.append(m.T @ m + 0.1 * np.eye(k))
ours = [sol.cho_factor(q) for q in metrics]

import scipy.linalg
import scipy.linalg.lapack
for q, (fc, lower) in zip(metrics, ours):
    ref, ref_lower = scipy.linalg.cho_factor(q)
    assert lower is ref_lower and fc.dtype == ref.dtype and fc.shape == ref.shape
    assert fc.tobytes() == ref.tobytes(), q.shape
flapack = sys.modules["scipy.linalg._flapack"]
assert scipy.linalg.lapack.dpotrs is flapack.dpotrs is sol._lapack().dpotrs
print("ok")
"""


def test_cone_factor_matches_scipy_bit_for_bit():
    src = pathlib.Path(sol.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FACTOR_BITS], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0 and out.stdout.split() == ["ok"], out.stderr


@pytest.mark.parametrize("d", [3, 5, 10])
def test_shared_metric_solve_keeps_every_bit(d):
    # the merged w-step solves every coned column of relu_skip_cone in one
    # potrs on the shared factor; each column must equal its block's own
    # cho_solve, and each +/- pair the two-column solve it had before
    from scipy.linalg import cho_factor, cho_solve
    from scipy.linalg.lapack import dpotrs
    n = 6 * d
    x = ens.gen_matrix("gaussian", n, d, seed=d)
    w = ens.plant_direction(x, seed=d + 1)
    ps = arr.sample_patterns(x.mat, max(n, 50), seed=d + 2)
    prob = rec.build_program(x, ps, x.mat @ w, "relu_skip_cone")
    metrics = [np.eye(d) + c.T @ c for c in prob.cones if c is not None]
    assert all(np.array_equal(q, metrics[0]) for q in metrics)
    fac = cho_factor(metrics[0])
    rng = np.random.default_rng(d)
    rhs = rng.standard_normal((d, len(metrics))) * 10.0 ** rng.integers(-3, 4, len(metrics))
    merged = dpotrs(fac[0], rhs, lower=fac[1])[0]
    for j in range(len(metrics)):
        assert np.array_equal(merged[:, j], cho_solve(fac, rhs[:, j])), j
    for j in range(0, len(metrics), 2):
        assert np.array_equal(merged[:, j:j + 2], cho_solve(fac, rhs[:, j:j + 2])), j


def test_shared_cone_factor_keeps_every_bit():
    # the +/- copies of a program share one cone array; copying every cone
    # gives each block its own array with the same metric, so the factors,
    # keyed by the metric's bytes, are shared all the same and the copied
    # program solves to the same bits
    for name, prob in cone_programs():
        coned = [c for c in prob.cones if c is not None]
        assert len({id(c) for c in coned}) == len(coned) // 2, name
        own = dataclasses.replace(
            prob, cones=[None if c is None else c.copy() for c in prob.cones])
        shared, single = sol.solve_cone_constrained(prob), sol.solve_cone_constrained(own)
        assert shared.iterations == single.iterations, name
        assert all(np.array_equal(a, b) for a, b in zip(shared.weights, single.weights))
        assert np.array_equal(shared.dual, single.dual), name


@pytest.mark.parametrize("program", rec.PROGRAMS)
def test_built_programs_solve_as_their_hand_built_copies(program, monkeypatch):
    # a gated program's blocks are views of one read-only operator, which the
    # solvers read in place; a hand-built copy of the blocks is stacked once
    # per solve. Both give the same bits, no gated solve stacks anything, and
    # no KKT replay stacks a program's blocks
    x = ens.gen_matrix("gaussian", 16, 3, seed=30)
    w = ens.plant_direction(x, seed=31)
    ps = arr.with_plants(x.mat, arr.sample_patterns(x.mat, 12, seed=32), [w])
    prob = rec.build_program(x, ps, np.maximum(x.mat @ w, 0.0), program)
    copy = sol.GroupProblem(blocks=[b.copy() for b in prob.blocks], target=prob.target,
                            beta=prob.beta, cones=prob.cones)

    def solve(p):
        if p.cones is not None:
            return [sol.solve_cone_constrained(p)]
        return [sol.solve_group_min_norm(p), *sol.solve_lasso_path(p, (0.01, 0.1, 1.0))]

    def no_stack(*args, **kwargs):
        raise AssertionError("a program's blocks were stacked again")

    hand = solve(copy)
    a = sol._check_problem(prob)[1]
    assert np.array_equal(a, np.hstack(copy.blocks))
    if prob.layout.bases is None:
        assert a is prob.blocks[0].base
        assert a.flags.c_contiguous and not a.flags.writeable
        with pytest.raises(ValueError):
            prob.blocks[-1][0, 0] = 1.0
        # blocks that are no longer the operator's slices in order are stacked
        flipped = dataclasses.replace(prob, blocks=prob.blocks[::-1])
        assert np.array_equal(sol._check_problem(flipped)[1], np.hstack(copy.blocks[::-1]))
        monkeypatch.setattr(np, "hstack", no_stack)
    else:
        assert sol._check_problem(prob, stack=False)[1] is None
    built = solve(prob)
    monkeypatch.setattr(np, "hstack", no_stack)
    assert sol.verify_kkt(prob, built[0], tol=1e-6).ok
    for b, h in zip(built, hand):
        assert b.iterations == h.iterations
        assert np.array_equal(b.dual, h.dual)
        assert all(np.array_equal(u, v) for u, v in zip(b.weights, h.weights))


def test_only_the_blocks_own_float_operator_is_read_in_place():
    # A is the blocks' common base only when it is a C-contiguous float
    # matrix whose consecutive column slices they are; anything else is stacked
    rng = np.random.default_rng(34)
    y = rng.standard_normal(4)
    whole = rng.standard_normal((4, 5))
    wide = rng.standard_normal((4, 7))
    ints = np.arange(20, dtype=np.int64).reshape(4, 5)
    for base, cuts, in_place in ((whole, [], True), (whole, [1, 3], True),
                                 (wide, [2], False), (np.asfortranarray(whole), [2], False),
                                 (ints.view(float), [2], False), (ints, [2], False)):
        blocks = np.split(base[:, :5], cuts, axis=1)
        a = sol._check_problem(sol.GroupProblem(blocks=blocks, target=y))[1]
        assert np.array_equal(a, np.hstack([np.asarray(b, dtype=float) for b in blocks]))
        assert (a is np.asarray(blocks[0], dtype=float).base) == in_place, (cuts, in_place)


def test_solves_and_kkt_replay_peak_near_one_operator():
    # the benchmark's largest grid-linear cell: the solvers read a gated
    # program's operator in place, so no solve holds a second copy of it, and
    # a KKT replay reads a normalized program's shared bases block by block
    cfg = ex.GridConfig(d_values=(20,), n_values=(120,), trials=1, master_seed=0)
    inst = ex.build_cell(cfg, 20, 120, 0.0, 0)
    one = sol.SolverOptions(max_iter=1)
    for program, run, bound in (
            ("grelu_skip", lambda p, fit: sol.solve_group_min_norm(p, one), 1.5),
            ("reg_grelu_skip", lambda p, fit: sol.solve_lasso_path(p, [0.1], one), 0.5),
            ("grelu_normal", sol.verify_kkt, 0.5)):
        prob = rec.build_program(inst.x, inst.patterns, inst.y, program)
        size = sum(b.nbytes for b in prob.blocks)
        fit = sol.solve_group_min_norm(prob, one)
        tracemalloc.start()
        try:
            run(prob, fit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * size, (program, peak / size)


def reference_admm(blocks, y, cones, opts):
    # _admm as it was before its work buffers: fresh arrays every iteration,
    # one cho_solve per block for Q^-1 A^T and a zero-led cumsum of the block
    # products; the buffered iteration must reproduce every byte of it
    from scipy.linalg import cho_factor, cho_solve
    from scipy.linalg.lapack import dpotrs
    cols = sol._columns([b.shape[1] for b in blocks])
    sl = cols.slices
    a = np.hstack(blocks)
    sv = sol.compact_svd(a)
    if np.linalg.norm(y - sv.u @ (sv.u.T @ y)) > 1e-6 * (1.0 + np.linalg.norm(y)):
        raise InfeasibleError("target is outside the span of the blocks")
    coned = np.array([j for j, c in enumerate(cones) if c is not None], dtype=int)
    rows = sol._columns([cones[j].shape[0] for j in coned], [cones[j].shape for j in coned])
    slack = np.zeros(rows.total)
    scaled = np.zeros(rows.total)

    if coned.size:
        key, fac = {}, {}
        for c in cones:
            if c is not None and id(c) not in key:
                q = np.eye(c.shape[1]) + c.T @ c
                k = key[id(c)] = (q.shape, q.tobytes())
                if k not in fac:
                    fac[k] = cho_factor(q)
        qinv_at = [b.T if c is None else cho_solve(fac[key[id(c)]], b.T)
                   for b, c in zip(blocks, cones)]
        msv = sol.compact_svd(sum(b @ m for b, m in zip(blocks, qinv_at)))
        by_block = [(ids, np.stack([blocks[j] for j in ids]),
                     np.stack([qinv_at[j] for j in ids]), idx[..., None])
                    for ids, idx in cols.groups]
        by_cone = [(np.stack([cones[j] for j in coned[ids]]),
                    np.stack([np.r_[sl[j]] for j in coned[ids]])[..., None], ridx[..., None])
                   for ids, ridx in rows.groups]
        solves = [fac[k] + (np.stack([np.r_[sl[j]] for j in coned if key[id(cones[j])] == k], 1),)
                  for k in fac if k[0] != (0, 0)]

        def project(z, u, dual=False):
            q = z - u
            for cs, idx, ridx in by_cone:
                q[idx] += cs.swapaxes(1, 2) @ (slack[ridx] - scaled[ridx])
            for fc, lower, idx in solves:
                q[idx] = dpotrs(fc, q[idx], lower=lower)[0]
            prods = np.zeros((len(blocks) + 1, y.size, 1))
            for ids, bs, _, idx in by_block:
                prods[ids + 1] = bs @ q[idx]
            mu = msv.u @ ((msv.u.T @ (np.cumsum(prods, axis=0)[-1, :, 0] - y)) / msv.s)
            for _, _, ms, idx in () if dual else by_block:
                q[idx] -= ms @ mu[:, None]
            return mu if dual else q
    else:
        def project(z, u, dual=False):
            v = z - u
            ut = sv.u.T @ (a @ v - y)
            return sv.u @ (ut / sv.s**2) if dual else v - sv.v @ (ut / sv.s)

    z = np.zeros(cols.total)
    u = np.zeros(cols.total)
    rho = 1.0
    it = 0
    pr_rel = dr_rel = np.inf
    stall_ref = np.inf
    for it in range(1, opts.max_iter + 1):
        w = project(z, u)
        z_prev = z
        z = sol._soft_blocks(w + u, cols, 1.0 / rho)
        u = u + w - z
        pr, dr, du = (v.dot(v) for v in (w - z, z - z_prev, u))
        if coned.size:
            cw = np.empty(rows.total)
            for cs, idx, ridx in by_cone:
                cw[ridx] = cs @ w[idx]
            s_new = np.maximum(0.0, cw + scaled)
            for cs, _, ridx in by_cone:
                moved = cs.swapaxes(1, 2) @ (s_new - slack)[ridx]
                dr += np.vdot(moved, moved)
            scaled = scaled + cw - s_new
            pr += (cw - s_new).dot(cw - s_new)
            du += scaled.dot(scaled)
            slack = s_new
        pr, dr, du = math.sqrt(pr), rho * math.sqrt(dr), math.sqrt(du)
        pr_rel = pr / max(1.0, math.sqrt(w.dot(w)), math.sqrt(z.dot(z)))
        dr_rel = dr / max(1.0, rho * du)
        if max(pr_rel, dr_rel) < opts.tol:
            break
        if coned.size and it % 1000 == 0:
            if (pr_rel > 1e-6 and dr_rel < opts.tol
                    and abs(pr_rel - stall_ref) < 1e-9 * max(1.0, pr_rel)):
                raise InfeasibleError("constraint residual stalled")
            stall_ref = pr_rel
        if it % 50 == 0 and max(pr_rel, dr_rel) > 10 * opts.tol:
            if pr > 10 * dr and rho < 1e8:
                rho *= 2.0
                u /= 2.0
                scaled /= 2.0
            elif dr > 10 * pr and rho > 1e-8:
                rho /= 2.0
                u *= 2.0
                scaled *= 2.0

    lam = -rho * project(z, u, dual=True)
    norms = sol._block_norms(z, cols).tolist()
    return sol.BlockSolution(
        weights=[z[s].copy() for s in sl], dual=lam, objective=float(sum(norms)),
        primal_residual=float(np.linalg.norm(a @ z - y) / max(1.0, np.linalg.norm(y))),
        dual_residual=float(dr_rel),
        cone_violation=max((sol._cone_gap(cones[j], z[sl[j]]) for j in coned), default=0.0),
        iterations=it, active_blocks=sol._active(norms),
        converged=bool(max(pr_rel, dr_rel) < opts.tol))


def bit_pin_problems():
    # every layout _admm takes: relu_skip_cone's single runs, several width
    # groups and factors with a rank-0 pattern, interleaved hand-built blocks
    # whose groups need gathers, cone-free programs, and one row
    probs = []
    for d in (3, 5, 10):
        x = ens.gen_matrix("gaussian", 5 * d, d, seed=d)
        w = ens.plant_direction(x, seed=d + 1)
        ps = arr.sample_patterns(x.mat, 2 * d, seed=d + 2)
        probs.append(("relu_skip_cone d=%d" % d,
                      rec.build_program(x, ps, x.mat @ w, "relu_skip_cone")))
    probs += [(name, p) for name, p in cone_programs() if name == "relu_normal_cone"]
    x = ens.gen_matrix("gaussian", 8, 3, seed=5)
    w = ens.plant_direction(x, seed=6)
    ps = arr.with_plants(x.mat, arr.sample_patterns(x.mat, 30, seed=7), [w])
    zero = arr.ArrangementPattern(mask=np.zeros(8, dtype=np.uint8), witness=-w)
    ps = arr.PatternSet(patterns=ps.patterns + [zero], contains_all_ones=False, sampled=True)
    prob = rec.build_program(x, ps, np.maximum(x.mat @ w, 0.0), "relu_normal_cone")
    assert {sv.rank for sv in prob.layout.bases} == {0, 2, 3}
    probs.append(("relu_normal_cone ranks 0, 2, 3", prob))
    # widths 2 and 3 interleaved, free and coned: the 2-wide cones share one
    # metric across non-adjacent blocks, the 3-wide ones have two others, one
    # of them with 3 rows against n = 12, so no group is one run of columns
    rng = np.random.default_rng(23)
    n = 12
    f3, c2, f2, c3, c2b, c3b = (rng.standard_normal((n, k)) for k in (3, 2, 2, 3, 2, 3))
    v2, v3 = np.array([1.0, -0.5]), np.array([0.3, 0.2, -0.4])
    flip2 = (2.0 * (c2 @ v2 >= 0) - 1.0)[:, None] * c2
    flip3 = (2.0 * (c3b @ v3 >= 0) - 1.0)[:, None] * c3b
    blocks = [f3, c2, f2, c3, c2b, c3b]
    cones = [None, flip2, None, np.eye(3), flip2, flip3]
    y = f3 @ [1.0, 0.0, -1.0] + c2 @ v2 + c3 @ [0.5, 0.1, 0.2] + c3b @ v3
    probs.append(("interleaved", sol.GroupProblem(blocks=blocks, target=y, cones=cones)))
    # Fortran-order blocks and cones among C-order ones: np.stack picks a group's
    # memory order from all its members, so each run must slice its group's stack
    mixed = [np.asfortranarray(b) if j in (1, 5) else b for j, b in enumerate(blocks)]
    probs.append(("interleaved, mixed order", sol.GroupProblem(
        blocks=mixed, target=y, cones=cones[:4] + [np.asfortranarray(flip2), cones[5]])))
    x = ens.gen_matrix("gaussian", 20, 4, seed=8)
    w = ens.plant_direction(x, seed=9)
    ps = arr.sample_patterns(x.mat, 20, seed=10)
    for program in ("grelu_skip", "grelu_normal"):
        probs.append((program, rec.build_program(x, arr.with_plants(x.mat, ps, [w]),
                                                 np.maximum(x.mat @ w, 0.0), program)))
    # numpy sums 8 or more products of one row pairwise unless told otherwise
    one = [rng.standard_normal((1, k)) for k in (2, 3, 1, 3, 2, 1, 3, 2, 2, 3, 1, 2)]
    cones = [None if j % 3 == 0 else np.eye(b.shape[1]) for j, b in enumerate(one)]
    probs.append(("one row, cones", sol.GroupProblem(blocks=one, target=[2.0], cones=cones)))
    probs.append(("one row", sol.GroupProblem(blocks=one, target=[2.0])))
    return probs


@pytest.mark.parametrize("max_iter", [1, 49, 50, 1000, 200_000])
def test_buffered_admm_equals_the_reference_bit_for_bit(max_iter):
    opts = sol.SolverOptions(max_iter=max_iter)
    for name, prob in bit_pin_problems():
        blocks, _, y, cones = sol._check_problem(prob)
        want = reference_admm(blocks, y, cones or [None] * len(blocks), opts)
        solve = sol.solve_group_min_norm if cones is None else sol.solve_cone_constrained
        got = solve(prob, opts)
        assert got.iterations == want.iterations, name
        assert got.converged == want.converged, name
        assert got.active_blocks == want.active_blocks, name
        assert got.dual.tobytes() == want.dual.tobytes(), name
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.weights, want.weights)), name
        for f in ("objective", "primal_residual", "dual_residual", "cone_violation"):
            assert np.float64(getattr(got, f)).tobytes() == np.float64(getattr(want, f)).tobytes(), (name, f)


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
    # a weight whose width differs from its block is rejected, not broadcast
    weights[i_star] = w_star[:1]
    with pytest.raises(InvalidInputError):
        sol.verify_kkt(p, manual)


def test_verify_kkt_rejects_non_finite_and_misshapen_solutions():
    # a NaN weight used to pass as ok with stationarity 0.0, and a dual of
    # the wrong length failed in numpy's matmul
    rng = np.random.default_rng(33)
    p = sol.GroupProblem(blocks=[rng.standard_normal((5, 2)) for _ in range(3)],
                         target=rng.standard_normal(5))
    s = sol.solve_group_min_norm(p)
    assert sol.verify_kkt(p, s, tol=1e-6).ok
    nan_dual = s.dual.copy()
    nan_dual[2] = np.nan
    for bad in (dict(weights=[np.array([np.nan, np.nan])] + s.weights[1:]),
                dict(weights=s.weights[:2] + [np.array([np.inf, 0.0])]),
                dict(dual=nan_dual), dict(dual=s.dual[:4]),
                dict(dual=np.append(s.dual, 0.0))):
        with pytest.raises(InvalidInputError):
            sol.verify_kkt(p, dataclasses.replace(s, **bad))


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
