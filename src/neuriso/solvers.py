"""Group-l1 solvers over gated feature blocks.

Three entry points share one problem type: exact interpolation
(`solve_group_min_norm`), penalized regression (`solve_group_lasso`) and
interpolation under per-block sign cones (`solve_cone_constrained`).
`build_certificate` reads off the least-norm dual of the matching isometry
condition, which certifies when the planted blocks are the unique solution,
and `verify_kkt` replays the optimality system on any candidate solution.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import nnls

from .errors import InfeasibleError, InvalidInputError
from .isometry import STRICT_MARGIN, nic_linear, nic_multi
from .numerics import as_matrix, compact_svd

# a block counts as active when its norm exceeds this fraction of the largest
ZERO_REL = 1e-6


@dataclass
class SolverOptions:
    tol: float = 1e-8          # relative residual target
    max_iter: int = 200_000
    rho_init: float = 1.0      # ADMM penalty start, rebalanced in flight

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise InvalidInputError("solver tol must be positive and finite")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise InvalidInputError("solver max_iter must be a positive integer")
        if not 0.0 < self.rho_init < np.inf:
            raise InvalidInputError("solver rho_init must be positive and finite")


@dataclass
class GroupProblem:
    """min sum_j ||w_j|| (+ 0.5||sum A_j w_j - y||^2 / beta weighting) data."""

    blocks: list               # A_j, each (n, r_j)
    target: np.ndarray         # y, length n
    beta: float = 0.0          # 0 means exact interpolation
    cones: list = None         # optional C_j with C_j w_j >= 0; None entries free
    layout: object = None      # recovery.ProgramLayout; None when hand-built


@dataclass
class BlockSolution:
    weights: list              # per-block w_j
    dual: np.ndarray           # equality multiplier (beta=0) or residual y - Aw
    objective: float
    primal_residual: float     # relative equality violation of the weights
    dual_residual: float
    cone_violation: float      # max negative part of C_j w_j, inf-norm
    iterations: int
    active_blocks: list
    converged: bool


@dataclass
class DualCertificate:
    lam: np.ndarray
    block_norms: list          # ||A_j^T lam|| per block
    planted_indices: list      # positions inside block_norms
    is_strict: bool            # off-plant norms < 1, planted norms = 1 (STRICT_MARGIN)
    masks: list                # arrangement masks the pattern norms refer to
    kind: str


@dataclass
class KktReport:
    stationarity: float
    dual_feasibility: float
    primal: float
    cone: float
    ok: bool


def _check_problem(p):
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in p.blocks]
    if not blocks:
        raise InvalidInputError("problem needs at least one block")
    n = blocks[0].shape[0]
    if any(b.shape[0] != n for b in blocks):
        raise InvalidInputError("all blocks must share the row count")
    y = np.asarray(p.target, dtype=float).ravel()
    if y.size != n:
        raise InvalidInputError("target length must match block rows")
    if not np.isfinite(p.beta) or p.beta < 0:
        raise InvalidInputError("beta must be finite and nonnegative")
    cones = None
    if p.cones is not None:
        if len(p.cones) != len(blocks):
            raise InvalidInputError("cones must align one-to-one with blocks")
        cones = [None if c is None else np.atleast_2d(np.asarray(c, dtype=float))
                 for c in p.cones]
        for b, c in zip(blocks, cones):
            if c is not None and c.shape[1] != b.shape[1]:
                raise InvalidInputError("cone column count must match its block")
    arrays = blocks + [y] + [c for c in cones or () if c is not None]
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidInputError("blocks, target and cones must be finite")
    return blocks, y, cones


def _slices(blocks):
    out, start = [], 0
    for b in blocks:
        out.append(slice(start, start + b.shape[1]))
        start += b.shape[1]
    return out, start


def _soft_blocks(v, slices, t):
    out = np.zeros_like(v)
    for s in slices:
        seg = v[s]
        nv = np.linalg.norm(seg)
        if nv > t:
            out[s] = (1.0 - t / nv) * seg
    return out


def _active(norms):
    top = max(norms) if norms else 0.0
    if top <= 0.0:
        return []
    return [i for i, v in enumerate(norms) if v > ZERO_REL * top]


def _range_gap(sv, y):
    # component of y outside the column span
    return y - sv.u @ (sv.u.T @ y) if sv.rank else y


def solve_group_min_norm(p, opts=None):
    """ADMM for min sum_j ||w_j|| subject to sum_j A_j w_j = y.

    The w-step projects onto the equality set through a cached compact SVD
    of the concatenated blocks, the z-step is the block soft threshold, and
    the penalty is rebalanced whenever the residuals drift apart. Runs are
    deterministic: fixed start, fixed block order. Returns the thresholded
    iterate, so inactive blocks are exactly zero. An unreachable target
    raises InfeasibleError; hitting the iteration cap returns a report with
    converged False.
    """
    opts = opts or SolverOptions()
    blocks, y, cones = _check_problem(p)
    if p.beta != 0.0:
        raise InvalidInputError("interpolation solve requires beta = 0")
    if cones is not None:
        raise InvalidInputError("use solve_cone_constrained for cone problems")
    sl, total = _slices(blocks)
    a = np.hstack(blocks)
    sv = compact_svd(a)
    if np.linalg.norm(_range_gap(sv, y)) > 1e-6 * (1.0 + np.linalg.norm(y)):
        raise InfeasibleError("target is outside the span of the blocks")

    z = np.zeros(total)
    u = np.zeros(total)
    rho = opts.rho_init
    it = 0
    pr_rel = dr_rel = np.inf
    for it in range(1, opts.max_iter + 1):
        v = z - u
        t = a @ v - y
        w = v - sv.v @ ((sv.u.T @ t) / sv.s)
        z_prev = z
        z = _soft_blocks(w + u, sl, 1.0 / rho)
        u = u + w - z
        pr = np.linalg.norm(w - z)
        dr = rho * np.linalg.norm(z - z_prev)
        pr_rel = pr / max(1.0, np.linalg.norm(w), np.linalg.norm(z))
        dr_rel = dr / max(1.0, rho * np.linalg.norm(u))
        if max(pr_rel, dr_rel) < opts.tol:
            break
        if it % 50 == 0 and max(pr_rel, dr_rel) > 10 * opts.tol:
            if pr > 10 * dr and rho < 1e8:
                rho *= 2.0
                u /= 2.0
            elif dr > 10 * pr and rho > 1e-8:
                rho /= 2.0
                u *= 2.0

    t = a @ (z - u) - y
    lam = -rho * (sv.u @ ((sv.u.T @ t) / sv.s**2)) if sv.rank else np.zeros(y.size)
    weights = [z[s].copy() for s in sl]
    norms = [float(np.linalg.norm(wj)) for wj in weights]
    return BlockSolution(
        weights=weights, dual=lam, objective=float(sum(norms)),
        primal_residual=float(np.linalg.norm(a @ z - y) / max(1.0, np.linalg.norm(y))),
        dual_residual=float(dr_rel), cone_violation=0.0, iterations=it,
        active_blocks=_active(norms), converged=bool(max(pr_rel, dr_rel) < opts.tol))


def _power_step(a):
    # largest eigenvalue of a^T a by power iteration, deterministic start
    total = a.shape[1]
    v = np.full(total, 1.0 / np.sqrt(total))
    lam = 0.0
    for _ in range(500):
        q = a.T @ (a @ v)
        nv = float(np.linalg.norm(q))
        if nv == 0.0:
            v = np.arange(1.0, total + 1.0)
            v /= np.linalg.norm(v)
            continue
        if abs(nv - lam) < 1e-12 * max(1.0, nv):
            return nv * (1.0 + 1e-3)
        lam = nv
        v = q / nv
    return lam * (1.0 + 1e-3)


def _lasso_kkt(a, sl, w, y, beta):
    g = a.T @ (y - a @ w)
    norms = [np.linalg.norm(w[s]) for s in sl]
    top = max(norms) if norms else 0.0
    worst = 0.0
    for s, nv in zip(sl, norms):
        if top > 0.0 and nv > ZERO_REL * top:
            worst = max(worst, float(np.linalg.norm(g[s] - beta * w[s] / nv)))
        else:
            worst = max(worst, max(0.0, float(np.linalg.norm(g[s])) - beta))
    return worst


def solve_group_lasso(p, opts=None):
    """Accelerated proximal gradient for 0.5||Aw - y||^2 + beta sum ||w_j||.

    Step size comes from a power-method estimate of ||A||^2; momentum is
    restarted whenever the objective rises. Stops once the objective has
    plateaued over a 50-iteration window and the stationarity residual is
    below 1e-8 (relative to beta when beta > 1). Requires beta > 0 — the
    beta = 0 limit is `solve_group_min_norm`.
    """
    opts = opts or SolverOptions()
    blocks, y, cones = _check_problem(p)
    if p.beta <= 0.0:
        raise InvalidInputError("penalized solve requires beta > 0")
    if cones is not None:
        raise InvalidInputError("use solve_cone_constrained for cone problems")
    sl, total = _slices(blocks)
    a = np.hstack(blocks)
    beta = float(p.beta)
    step = 1.0 / _power_step(a)

    def objective(vec):
        r = a @ vec - y
        return 0.5 * float(r @ r) + beta * sum(np.linalg.norm(vec[s]) for s in sl)

    w = np.zeros(total)
    v = w
    tk = 1.0
    prev_check = objective(w)
    kkt_goal = 1e-8 * max(1.0, beta)
    it = 0
    converged = False
    for it in range(1, opts.max_iter + 1):
        g = a.T @ (a @ v - y)
        w_new = _soft_blocks(v - step * g, sl, step * beta)
        tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        v = w_new + ((tk - 1.0) / tk_new) * (w_new - w)
        tk = tk_new
        w = w_new
        if it % 50 == 0:
            cur = objective(w)
            if cur > prev_check:
                tk = 1.0
                v = w
            kkt = _lasso_kkt(a, sl, w, y, beta)
            flat = prev_check - cur < 1e-12 * max(1.0, abs(prev_check))
            prev_check = cur
            if flat and kkt < kkt_goal:
                converged = True
                break

    weights = [w[s].copy() for s in sl]
    norms = [float(np.linalg.norm(wj)) for wj in weights]
    resid = y - a @ w
    return BlockSolution(
        weights=weights, dual=resid, objective=float(objective(w)),
        primal_residual=0.0,
        dual_residual=float(_lasso_kkt(a, sl, w, y, beta)),
        cone_violation=0.0, iterations=it,
        active_blocks=_active(norms), converged=converged)


def solve_cone_constrained(p, opts=None):
    """ADMM for min sum_j ||w_j|| s.t. sum_j A_j w_j = y and C_j w_j >= 0.

    Cone rows get nonnegative slacks; the w-step solves a block-diagonal
    quadratic with Q_j = I + C_j^T C_j coupled through the equality
    multiplier (Schur system cached up front). Entries of `cones` may be
    None for unconstrained blocks, e.g. a skip block. beta must be 0.
    """
    opts = opts or SolverOptions()
    blocks, y, cones = _check_problem(p)
    if p.beta != 0.0:
        raise InvalidInputError("cone solve requires beta = 0")
    if cones is None:
        raise InvalidInputError("cone solve needs cone matrices (None entries allowed)")
    sl, total = _slices(blocks)
    n = y.size
    sv = compact_svd(np.hstack(blocks))
    if np.linalg.norm(_range_gap(sv, y)) > 1e-6 * (1.0 + np.linalg.norm(y)):
        raise InfeasibleError("target is outside the span of the blocks")

    qfac = [None if c is None else cho_factor(np.eye(b.shape[1]) + c.T @ c)
            for b, c in zip(blocks, cones)]
    msol = [b.T if q is None else cho_solve(q, b.T)
            for b, q in zip(blocks, qfac)]
    smat = sum(b @ mj for b, mj in zip(blocks, msol))
    ssv = compact_svd(smat)

    def ssolve(r):
        return ssv.u @ ((ssv.u.T @ r) / ssv.s) if ssv.rank else np.zeros(n)

    def wstep(z, u, svar, vdual):
        q = np.empty(total)
        for s, c, qf, sk, vk in zip(sl, cones, qfac, svar, vdual):
            r = z[s] - u[s]
            if c is not None:
                r = r + c.T @ (sk - vk)
            q[s] = r if qf is None else cho_solve(qf, r)
        t = sum(b @ q[s] for b, s in zip(blocks, sl)) - y
        mu = ssolve(t)
        w = np.empty(total)
        for s, mj in zip(sl, msol):
            w[s] = q[s] - mj @ mu
        return w, mu

    z = np.zeros(total)
    u = np.zeros(total)
    svar = [None if c is None else np.zeros(n) for c in cones]
    vdual = [None if c is None else np.zeros(n) for c in cones]
    rho = opts.rho_init
    it = 0
    pr_rel = dr_rel = np.inf
    stall_ref = np.inf
    for it in range(1, opts.max_iter + 1):
        w, _ = wstep(z, u, svar, vdual)
        z_prev = z
        z = _soft_blocks(w + u, sl, 1.0 / rho)
        u = u + w - z
        pr2 = float(np.linalg.norm(w - z) ** 2)
        dr2 = float(np.linalg.norm(z - z_prev) ** 2)
        dscale2 = float(np.linalg.norm(u) ** 2)
        for k, (s, c) in enumerate(zip(sl, cones)):
            if c is None:
                continue
            cw = c @ w[s]
            s_new = np.maximum(0.0, cw + vdual[k])
            pr2 += float(np.linalg.norm(cw - s_new) ** 2)
            dr2 += float(np.linalg.norm(c.T @ (s_new - svar[k])) ** 2)
            vdual[k] = vdual[k] + cw - s_new
            dscale2 += float(np.linalg.norm(vdual[k]) ** 2)
            svar[k] = s_new
        pr = np.sqrt(pr2)
        dr = rho * np.sqrt(dr2)
        pr_rel = pr / max(1.0, np.linalg.norm(w), np.linalg.norm(z))
        dr_rel = dr / max(1.0, rho * np.sqrt(dscale2))
        if max(pr_rel, dr_rel) < opts.tol:
            break
        if it % 1000 == 0:
            # a frozen primal residual with a settled dual means the
            # equality and cone constraints cannot be met jointly
            if (pr_rel > 1e-6 and dr_rel < opts.tol
                    and abs(pr_rel - stall_ref) < 1e-9 * max(1.0, pr_rel)):
                raise InfeasibleError(
                    "constraint residual stalled above 1e-6; the cones are "
                    "incompatible with the target")
            stall_ref = pr_rel
        if it % 50 == 0 and max(pr_rel, dr_rel) > 10 * opts.tol:
            if pr > 10 * dr and rho < 1e8:
                rho *= 2.0
                u /= 2.0
                vdual = [None if v is None else v / 2.0 for v in vdual]
            elif dr > 10 * pr and rho > 1e-8:
                rho /= 2.0
                u *= 2.0
                vdual = [None if v is None else v * 2.0 for v in vdual]

    _, mu = wstep(z, u, svar, vdual)
    lam = -rho * mu
    weights = [z[s].copy() for s in sl]
    norms = [float(np.linalg.norm(wj)) for wj in weights]
    viol = 0.0
    for wj, c in zip(weights, cones):
        if c is not None:
            viol = max(viol, float(np.max(np.maximum(-(c @ wj), 0.0), initial=0.0)))
    az = sum(b @ wj for b, wj in zip(blocks, weights))
    return BlockSolution(
        weights=weights, dual=lam, objective=float(sum(norms)),
        primal_residual=float(np.linalg.norm(az - y) / max(1.0, np.linalg.norm(y))),
        dual_residual=float(dr_rel), cone_violation=viol, iterations=it,
        active_blocks=_active(norms), converged=bool(max(pr_rel, dr_rel) < opts.tol))


def build_certificate(x, patterns, plant, kind):
    """Least-norm dual lam with A_i^T lam = sign(r_i) w_hat_i on the planted blocks.

    kind selects the block family: "linear" targets the skip block X of the
    gated skip program (pattern blocks all count as off-plant), "relu" the
    gated blocks X^T D_j, "normalized" the left singular bases U_j. The
    multiplier and pattern norms are those of the matching isometry report:
    `nic_linear`, or `nic_multi` with each r_i replaced by sign(r_i). The
    certificate is strict when every off-plant block norm sits below
    1 - STRICT_MARGIN while the planted norms equal one to the same margin.
    A rank-deficient planted stack raises DegenerateStackError.
    """
    if kind not in ("linear", "relu", "normalized"):
        raise InvalidInputError("kind must be linear, relu, or normalized")
    plant = [(np.asarray(w, dtype=float), float(np.sign(r))) for w, r in plant]
    if not plant:
        raise InvalidInputError("need at least one planted neuron")
    if any(r == 0.0 for _, r in plant):
        raise InvalidInputError("output weights must be nonzero")
    if kind == "linear":
        if len(plant) != 1:
            raise InvalidInputError("the skip certificate takes a single plant")
        w, r = plant[0]
        rep = nic_linear(x, r * w, patterns)
        skip = float(np.linalg.norm(as_matrix(x).T @ rep.lam))
        norms, planted = [skip] + [v for _, v in rep.per_pattern], [0]
    else:
        rep = nic_multi(x, plant, patterns, normalized=kind == "normalized")
        norms, planted = [v for _, v in rep.per_pattern], rep.planted_indices
    strict = rep.holds and all(abs(norms[i] - 1.0) <= STRICT_MARGIN for i in planted)
    return DualCertificate(lam=rep.lam, block_norms=norms,
                           planted_indices=list(planted), is_strict=bool(strict),
                           masks=[m.copy() for m, _ in rep.per_pattern], kind=kind)


def verify_kkt(p, s, tol=1e-8):
    """Max violations of the optimality system at a candidate solution.

    Checks stationarity on active blocks, dual feasibility on inactive ones
    (threshold beta, or 1 for interpolation), equality feasibility (beta = 0
    only) and cone feasibility. Cone multipliers are recovered per block by
    nonnegative least squares.
    """
    blocks, y, cones = _check_problem(p)
    weights = [np.asarray(w, dtype=float).ravel() for w in s.weights]
    if len(weights) != len(blocks):
        raise InvalidInputError("solution and problem block counts differ")
    lam = np.asarray(s.dual, dtype=float).ravel()
    th = float(p.beta) if p.beta > 0 else 1.0
    norms = [float(np.linalg.norm(w)) for w in weights]
    top = max(norms) if norms else 0.0
    stat = dual_f = cone_v = 0.0
    for k, (b, w, nv) in enumerate(zip(blocks, weights, norms)):
        g = b.T @ lam
        c = cones[k] if cones is not None else None
        if top > 0.0 and nv > ZERO_REL * top:
            target = th * w / nv
            if c is None:
                r = float(np.linalg.norm(g - target))
            else:
                _, r = nnls(c.T, target - g)
            stat = max(stat, float(r))
            if c is not None:
                cone_v = max(cone_v, float(np.max(np.maximum(-(c @ w), 0.0),
                                                  initial=0.0)))
        else:
            if c is None:
                excess = float(np.linalg.norm(g)) - th
            else:
                _, r = nnls(c.T, -g)
                excess = float(r) - th
            dual_f = max(dual_f, max(0.0, excess))
    if p.beta == 0.0:
        fit = sum(b @ w for b, w in zip(blocks, weights)) - y
        primal = float(np.linalg.norm(fit) / max(1.0, np.linalg.norm(y)))
    else:
        primal = 0.0
    ok = max(stat, dual_f, primal, cone_v) < tol
    return KktReport(stationarity=stat, dual_feasibility=dual_f,
                     primal=primal, cone=cone_v, ok=bool(ok))


def solution_to_csv(s):
    """block,norm,active rows for a BlockSolution."""
    lines = ["block,norm,active"]
    act = set(s.active_blocks)
    for i, w in enumerate(s.weights):
        lines.append("%d,%s,%d" % (i, repr(float(np.linalg.norm(w))), int(i in act)))
    return "\n".join(lines) + "\n"
