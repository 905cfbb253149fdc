"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Each test prints `criterion NN: PASS/FAIL - detail` and asserts the stated
tolerance and, where one is given, the runtime budget.  Budgets are desk
scale; the full-size grid (criterion 12) is validated but never executed
here.
"""

import math
import time

import numpy as np
from scipy.linalg import orth

from neuriso import experiments as ex
from neuriso.arrangements import (MARGIN_EPS, allones_margin, enumerate_exact,
                                  sample_patterns)
from neuriso.ensembles import gen_matrix, linear_plant
from neuriso.errors import NeurisoError
from neuriso.isometry import nic_linear, nic_multi, nic_relu_single
from neuriso.numerics import compact_svd
from neuriso.recovery import assess_recovery, build_program
from neuriso.solvers import (BlockSolution, SolverOptions, build_certificate,
                             solve_group_min_norm, verify_kkt)
from neuriso.theory import (_gate_one, _gate_sq, _half_phi, c1_coef, c2_coef,
                            c3_coef, curve_g1, curve_g2, curve_g_single,
                            orthant_statdim_mc, solve_theta_star)


def _report(num, ok, detail):
    print("criterion %02d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d failed: %s" % (num, detail)


# ------------------------------------------------------------ 1: transition

def test_criterion_01_linear_phase_transition():
    t0 = time.perf_counter()
    mids, lo_rates, hi_rates = {}, {}, {}
    for d in (10, 20):
        ns = tuple(range(d, 6 * d + 1, d // 2))
        cfg = ex.GridConfig(d_values=(d,), n_values=ns, trials=5,
                            plant="linear", program="grelu_skip",
                            master_seed=0)
        rows = ex.run_grid(cfg)
        rates = [float(np.mean([r.success for r in rows if r.n == n]))
                 for n in ns]
        mids[d] = ex.fit_logistic_midpoint(np.array(ns, float),
                                           np.array(rates))
        hi_rates[d] = rates[ns.index(3 * d)]
        extra = ex.GridConfig(d_values=(d,), n_values=(int(1.2 * d),),
                              trials=5, plant="linear", program="grelu_skip",
                              master_seed=0)
        lo_rates[d] = float(np.mean([r.success for r in ex.run_grid(extra)]))
    elapsed = time.perf_counter() - t0
    ok = (all(1.8 * d < mids[d] < 2.6 * d for d in (10, 20))
          and all(hi_rates[d] >= 0.9 for d in (10, 20))
          and all(lo_rates[d] <= 0.1 for d in (10, 20))
          and elapsed <= 600.0)
    _report(1, ok, "midpoints d10=%.2f d20=%.2f, rate@3d=%s, rate@1.2d=%s, "
            "%.0f s (budget 600)" % (mids[10], mids[20],
                                     [hi_rates[10], hi_rates[20]],
                                     [lo_rates[10], lo_rates[20]], elapsed))


# ------------------------------------------------------------ 2: theta star

def test_criterion_02_theta_star():
    t0 = time.perf_counter()
    ts = solve_theta_star()
    elapsed = time.perf_counter() - t0
    ok = (abs(ts - 0.1314) <= 0.002 and abs(1.0 / ts - 7.613) <= 0.12
          and elapsed < 1.0)
    _report(2, ok, "theta_star=%.7f inverse=%.4f, %.2f s (budget 1)"
            % (ts, 1.0 / ts, elapsed))


# ------------------------------------------------------------ 3: orthant mc

def test_criterion_03_orthant_statistical_dimension():
    t0 = time.perf_counter()
    mean, err = orthant_statdim_mc(10, 100_000)
    elapsed = time.perf_counter() - t0
    ok = abs(mean - 5.0) <= 3.0 * err and err > 0.0 and elapsed < 5.0
    _report(3, ok, "mean=%.4f stderr=%.4f (target 5.0 within 3 se), "
            "%.2f s (budget 5)" % (mean, err, elapsed))


# ------------------------------------------------------------ 4: limit curves

def test_criterion_04_limit_curves_and_mc():
    t0 = time.perf_counter()
    checks = []
    checks.append(abs(curve_g_single(1.0) - 1.0) <= 1e-6)
    checks.append(abs(curve_g1(1.0) - 1.0) <= 1e-3)
    checks.append(abs(curve_g1(-1.0) - 1.0) <= 1e-3)
    interior = np.linspace(-0.99, 0.99, 51)
    checks.append(all(curve_g1(float(g)) < 1.0 for g in interior))

    axis = np.linspace(0.0, 1.0, 51)
    best, best_pt = -np.inf, None
    for a in axis:
        for b in axis:
            if a * a + b * b > 1.0 + 1e-12:
                continue
            v = curve_g2(float(a), float(b))
            checks.append(v <= 1.0 + 1e-3)
            if v > best:
                best, best_pt = v, (float(a), float(b))
    corner = min(abs(best_pt[0] - 1.0) + abs(best_pt[1]),
                 abs(best_pt[0]) + abs(best_pt[1] - 1.0))
    checks.append(abs(best - 1.0) <= 1e-3 and corner < 1e-9)

    # quadrature vs Monte Carlo of the defining two-gate expectations:
    # both 1(x1 >= 0) and 1(<h, x> >= 0) multiply the quadratic monomial
    g, s = 0.6, math.sqrt(1.0 - 0.36)
    rng = np.random.default_rng(7)
    z = rng.standard_normal((1_000_000, 2))
    u1 = (z[:, 0] >= 0.0).astype(float)
    u2 = (g * z[:, 0] + s * z[:, 1] >= 0.0).astype(float)
    u2m = (-g * z[:, 0] + s * z[:, 1] >= 0.0).astype(float)
    se = lambda v: float(np.std(v) / np.sqrt(v.size))
    pairs = [
        (u1 * u2 * z[:, 0] ** 2, _gate_sq(g)),
        (u1 * u2, _gate_one(g)),
        (u1 * u2 * z[:, 1] ** 2, c1_coef(g) + c3_coef(g) * (1.0 - g * g)),
        (u1 * u2 * z[:, 0] * z[:, 1], _half_phi(g / s)),
        (u1 * (u2 - u2m) * z[:, 0] ** 2, _gate_sq(g) - _gate_sq(-g)),
        (u1 * (u2 + u2m) * z[:, 0] * z[:, 1], 2.0 * _half_phi(g / s)),
    ]
    gaps = []
    for v, quad in pairs:
        gap = abs(float(np.mean(v)) - quad) / se(v)
        gaps.append(gap)
        checks.append(gap <= 3.0)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed <= 120.0
    _report(4, ok, "g2 max=%.6f at %s, mc gaps (se units)=%s, %.0f s "
            "(budget 120)" % (best, best_pt,
                              [round(x, 2) for x in gaps], elapsed))


# ------------------------------------------------------------ 5: coefficients

def test_criterion_05_coefficients_at_zero():
    ok = (abs(c1_coef(0.0) - 0.25) <= 1e-6
          and abs(c2_coef(0.0) - 1.0 / (2.0 * np.pi)) <= 1e-6
          and abs(c3_coef(0.0)) <= 1e-6)
    _report(5, ok, "c1(0)=%.8f c2(0)=%.8f c3(0)=%.2e"
            % (c1_coef(0.0), c2_coef(0.0), c3_coef(0.0)))


# ------------------------------------------------------------ 6 + 7: nic

_COMBOS = (("linear", "grelu_skip", "linear"),
           ("relu", "grelu_skip", "relu"),
           ("normalized_pair", "grelu_normal", "normalized"))
_OPTS = SolverOptions(tol=1e-10, max_iter=400_000)
_CACHE = {}


def _planted_solution(inst, prob, program):
    masks = [p.mask for p in inst.patterns.patterns]
    weights = [np.zeros(b.shape[1]) for b in prob.blocks]
    if inst.model.variant == "linear":
        weights[0] = inst.model.neurons[0][0]
    else:
        for w, r in inst.model.neurons:
            pm = (inst.x @ w >= 0.0).astype(np.uint8)
            j = next(i for i, m in enumerate(masks) if np.array_equal(m, pm))
            if program == "grelu_skip":
                weights[1 + j] = w
            else:
                act = np.maximum(inst.x @ w, 0.0)
                sv = compact_svd(pm.astype(float)[:, None] * inst.x)
                weights[j] = r * (sv.u.T @ (act / np.linalg.norm(act)))
    return weights


def _nic_instances():
    if "runs" in _CACHE:
        return _CACHE["runs"]
    rng = np.random.default_rng(2024)
    runs, seed = [], 0
    while len(runs) < 50:
        seed += 1
        plant, program, cert_kind = _COMBOS[len(runs) % 3]
        d = int(rng.integers(2, 9))
        n = int(rng.integers(d + 2, 41))
        cfg = ex.GridConfig(d_values=(d,), n_values=(n,), trials=1,
                            plant=plant, program=program, master_seed=seed,
                            solver=_OPTS)
        try:
            inst = ex.build_cell(cfg, d, n, 0.0, 0)
            if plant == "linear":
                rep = nic_linear(inst.x, inst.model.neurons[0][0],
                                 inst.patterns)
            elif plant == "relu":
                rep = nic_relu_single(inst.x, inst.model.neurons[0][0],
                                      inst.patterns)
            else:
                rep = nic_multi(inst.x, inst.model.neurons, inst.patterns,
                                normalized=True)
            cert = build_certificate(inst.x, inst.patterns,
                                     inst.model.neurons, cert_kind)
        except NeurisoError:
            continue
        entry = {"plant": plant, "program": program, "inst": inst,
                 "rep": rep, "cert": cert}
        if rep.holds:
            prob = build_program(inst.x, inst.patterns, inst.y, program)
            sol = solve_group_min_norm(prob, _OPTS)
            entry["verdict"] = assess_recovery(sol, inst.model, prob, tol=1e-6)
            ksol = BlockSolution(weights=_planted_solution(inst, prob, program),
                                 dual=cert.lam, objective=0.0,
                                 primal_residual=0.0, dual_residual=0.0,
                                 cone_violation=0.0, iterations=0,
                                 active_blocks=[], converged=True)
            entry["kkt"] = verify_kkt(prob, ksol, tol=1e-8)
        runs.append(entry)
    _CACHE["runs"] = runs
    return runs


def test_criterion_06_nic_implies_recovery():
    runs = _nic_instances()
    held = [r for r in runs if r["rep"].holds]
    bad = [r for r in held if not r["verdict"].success]
    ok = len(runs) == 50 and len(held) >= 10 and not bad
    _report(6, ok, "%d instances, %d with the condition held, "
            "%d counterexamples (support + 1e-6 relative distance)"
            % (len(runs), len(held), len(bad)))


def _reference_strict(run):
    """Certificate strictness recomputed outside the library: a least-squares
    multiplier on the stacked planted rows, then one norm per block."""
    x, neurons = run["inst"].x, run["inst"].model.neurons
    masks = [p.mask.astype(float) for p in run["inst"].patterns.patterns]
    rows, target, planted = [], [], []
    for w, r in neurons:
        s = float(np.sign(r))
        if run["plant"] == "linear":
            rows.append(x.T)
            target.append(s * w / np.linalg.norm(w))
            continue
        pm = (x @ w >= 0.0).astype(float)
        planted.append(next(j for j, m in enumerate(masks) if np.array_equal(m, pm)))
        if run["plant"] == "relu":
            rows.append((pm[:, None] * x).T)
            target.append(s * w / np.linalg.norm(w))
        else:
            q = orth(pm[:, None] * x)
            act = np.maximum(x @ w, 0.0)
            rows.append(q.T)
            target.append(s * (q.T @ act) / np.linalg.norm(act))
    lam = np.linalg.lstsq(np.vstack(rows), np.concatenate(target), rcond=None)[0]
    if run["plant"] == "normalized_pair":
        norms = [np.linalg.norm(orth(m[:, None] * x).T @ lam) for m in masks]
    else:
        norms = [np.linalg.norm((m[:, None] * x).T @ lam) for m in masks]
    if run["plant"] == "linear":
        norms, planted = [np.linalg.norm(x.T @ lam)] + norms, [0]
    off = [v for j, v in enumerate(norms) if j not in planted]
    return (all(v < 1.0 - 1e-8 for v in off)
            and all(abs(norms[j] - 1.0) <= 1e-8 for j in planted))


def test_criterion_07_certificates_agree_and_kkt():
    # the certificate reuses the NIC multiplier, so it is also checked against
    # an independent reference computation
    runs = _nic_instances()
    disagree = [r for r in runs if r["cert"].is_strict != r["rep"].holds
                or r["cert"].is_strict != _reference_strict(r)]
    held = [r for r in runs if r["rep"].holds]
    resid = [max(r["kkt"].stationarity, r["kkt"].dual_feasibility,
                 r["kkt"].primal, r["kkt"].cone) for r in held]
    ok = not disagree and all(r["kkt"].ok for r in held)
    _report(7, ok, "strictness agreed on %d/%d, max kkt residual %.2e "
            "(< 1e-8) over %d planted solutions"
            % (len(runs) - len(disagree), len(runs),
               max(resid) if resid else 0.0, len(held)))


# ------------------------------------------------------------ 8: failure side

def test_criterion_08_allones_degeneracy_below_2d():
    n, d = 12, 10
    good = 0
    for seed in range(20):
        x = gen_matrix("gaussian", n, d, seed=seed).mat
        t_star, w = allones_margin(x)
        if t_star <= MARGIN_EPS:
            continue
        w = w / np.linalg.norm(w)
        y = x @ w
        ps = sample_patterns(x, max(n, 50), seed=seed + 1000)
        if not ps.contains_all_ones:
            continue
        # the pass-through and the all-ones gated block carry the same
        # weights, fit exactly, and cost the same norm: the optimum is
        # not unique, so support recovery must fail
        j = next(i for i, p in enumerate(ps.patterns) if np.all(p.mask == 1))
        gate_resid = np.linalg.norm(ps.patterns[j].mask * (x @ w) - y)
        skip_obj = float(np.linalg.norm(w))
        gate_obj = float(np.linalg.norm(w))
        prob = build_program(x, ps, y, "grelu_skip")
        sol = solve_group_min_norm(prob, _OPTS)
        verdict = assess_recovery(sol, linear_plant(w), prob, tol=1e-4)
        if (gate_resid <= 1e-8 * np.linalg.norm(y)
                and abs(skip_obj - gate_obj) <= 1e-8
                and sol.objective <= skip_obj + 1e-8
                and not verdict.success):
            good += 1
    ok = good >= 18
    _report(8, ok, "alternative optimum with a live gated block in %d/20 "
            "seeds at n=%d < 2d=%d" % (good, n, 2 * d))


# ------------------------------------------------------------ 9: noisy sweep

def test_criterion_09_noisy_penalty_window():
    t0 = time.perf_counter()
    betas = tuple(np.round(np.concatenate([np.linspace(0.0, 0.3, 16),
                                           [0.5, 1.0, 1.5, 2.0]]), 3))
    sigmas = (0.0, 0.125, 0.25)
    edges = {}
    shape_ok = True
    for sig in sigmas:
        cfg = ex.GridConfig(d_values=(10,), n_values=(40,), trials=1,
                            plant="linear", sigmas=(sig,),
                            program="reg_grelu_skip", betas=betas,
                            master_seed=0)
        pts = ex.run_beta_sweep(cfg)
        won = [p.beta for p in pts if p.success]
        by_beta = {p.beta: p for p in pts}
        edges[sig] = min(won) if won else np.inf
        if sig > 0.0:
            # failure-success-failure along the penalty axis
            shape_ok &= (by_beta[0.0].success == 0 and len(won) > 0
                         and by_beta[2.0].success == 0
                         and by_beta[2.0].active_blocks == 0)
        else:
            shape_ok &= by_beta[0.0].success == 1  # window starts at zero
            shape_ok &= by_beta[2.0].success == 0
    elapsed = time.perf_counter() - t0
    increasing = edges[0.0] < edges[0.125] < edges[0.25]
    ok = shape_ok and increasing and elapsed <= 180.0
    _report(9, ok, "window lower edges %s strictly increasing in sigma, "
            "%.0f s (budget 180)"
            % ([edges[s] for s in sigmas], elapsed))


# ------------------------------------------------------------ 10: two neurons

def test_criterion_10_two_neuron_recovery_rates():
    cfg = ex.GridConfig(d_values=(10,), n_values=(20, 60), trials=5,
                        plant="normalized_pair", program="grelu_normal",
                        master_seed=0)
    rows = ex.run_grid(cfg)
    rate = {n: float(np.mean([r.success for r in rows if r.n == n]))
            for n in (20, 60)}
    ok = rate[60] >= 0.8 and rate[20] <= 0.2
    _report(10, ok, "success rate %.1f at n=6d (>= 0.8) and %.1f at n=2d "
            "(<= 0.2)" % (rate[60], rate[20]))


# ------------------------------------------------------------ 11: counts

def test_criterion_11_pattern_counts():
    rng = np.random.default_rng(5)
    x32 = rng.standard_normal((3, 2))
    p = len(enumerate_exact(x32).patterns)
    checks = [p == 6]

    subset_ok = bound_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        x = rng.standard_normal((n, d))
        exact = enumerate_exact(x)
        bound = 2 * sum(math.comb(n - 1, k) for k in range(min(d, n)))
        bound_ok &= len(exact.patterns) <= bound
        have = {p.mask.tobytes() for p in exact.patterns}
        sampled = sample_patterns(x, 2 * n, seed=int(rng.integers(1 << 30)))
        subset_ok &= all(p.mask.tobytes() in have for p in sampled.patterns)
    ok = all(checks) and bound_ok and subset_ok
    _report(11, ok, "generic 3x2 count=%d (= 6), 200 instances under the "
            "count bound, sampled sets contained in exact sets" % p)


# ------------------------------------------------------------ 12: full scale

def test_criterion_12_full_scale_reachable_not_run():
    cfg = ex.GridConfig(d_values=(50, 100), n_values=(100, 200, 400),
                        trials=5, plant="linear", program="grelu_skip")
    ok = cfg.d_values[-1] == 100 and cfg.n_values[-1] == 400
    _report(12, ok, "d=100, n=400 grid configures cleanly; asserted only at "
            "desk scale by design")
