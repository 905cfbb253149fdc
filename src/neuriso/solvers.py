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

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise InvalidInputError("solver tol must be positive and finite")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise InvalidInputError("solver max_iter must be a positive integer")


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
    top = max(norms, default=0.0)
    return [i for i, v in enumerate(norms) if top > 0.0 and v > ZERO_REL * top]


def _cone_gap(c, w):
    # largest negative part of C w
    return float(np.max(np.maximum(-(c @ w), 0.0), initial=0.0))


def _admm(blocks, y, cones, opts):
    # Cone rows C_j w_j = s_j get slacks s_j >= 0 with scaled multipliers v_j.
    # The w-step minimizes ||w - (z - u)||^2 + sum_j ||C_j w_j - (s_j - v_j)||^2
    # over Aw = y: with Q_j = I + C_j^T C_j (I on a free block), q =
    # Q^-1 (z - u + C^T (s - v)) and mu = (A Q^-1 A^T)^+ (A q - y), it is
    # w = q - Q^-1 A^T mu. With no cones Q = I and the compact SVD U S V^T
    # of A gives w = q - V (U^T t)/s and mu = U (U^T t)/s^2 directly.
    sl, total = _slices(blocks)
    a = np.hstack(blocks)
    sv = compact_svd(a)
    if np.linalg.norm(y - sv.u @ (sv.u.T @ y)) > 1e-6 * (1.0 + np.linalg.norm(y)):
        raise InfeasibleError("target is outside the span of the blocks")
    fac = [None if c is None else cho_factor(np.eye(b.shape[1]) + c.T @ c)
           for b, c in zip(blocks, cones)]
    coned = [(s, c, f) for s, c, f in zip(sl, cones, fac) if f is not None]
    slack = [np.zeros(c.shape[0]) for _, c, _ in coned]
    scaled = [np.zeros(c.shape[0]) for _, c, _ in coned]

    if coned:
        qinv_at = [b.T if f is None else cho_solve(f, b.T) for b, f in zip(blocks, fac)]
        msv = compact_svd(sum(b @ m for b, m in zip(blocks, qinv_at)))

        def project(z, u, dual=False):
            q = z - u
            for (s, c, f), sk, vk in zip(coned, slack, scaled):
                q[s] = cho_solve(f, q[s] + c.T @ (sk - vk))
            t = sum(b @ q[s] for b, s in zip(blocks, sl)) - y
            mu = msv.u @ ((msv.u.T @ t) / msv.s)
            return mu if dual else q - np.concatenate([m @ mu for m in qinv_at])
    else:
        def project(z, u, dual=False):
            v = z - u
            ut = sv.u.T @ (a @ v - y)
            return sv.u @ (ut / sv.s**2) if dual else v - sv.v @ (ut / sv.s)

    z = np.zeros(total)
    u = np.zeros(total)
    rho = 1.0  # ADMM penalty start, rebalanced in flight
    it = 0
    pr_rel = dr_rel = np.inf
    stall_ref = np.inf
    for it in range(1, opts.max_iter + 1):
        w = project(z, u)
        z_prev = z
        z = _soft_blocks(w + u, sl, 1.0 / rho)
        u = u + w - z
        pr, dr, du = (np.linalg.norm(v) for v in (w - z, z - z_prev, u))
        if coned:
            pr2, dr2, du2 = (float(v**2) for v in (pr, dr, du))
            for k, (s, c, _) in enumerate(coned):
                cw = c @ w[s]
                s_new = np.maximum(0.0, cw + scaled[k])
                pr2 += float(np.linalg.norm(cw - s_new) ** 2)
                dr2 += float(np.linalg.norm(c.T @ (s_new - slack[k])) ** 2)
                scaled[k] = scaled[k] + cw - s_new
                du2 += float(np.linalg.norm(scaled[k]) ** 2)
                slack[k] = s_new
            pr, dr, du = np.sqrt(pr2), np.sqrt(dr2), np.sqrt(du2)
        dr = rho * dr
        pr_rel = pr / max(1.0, np.linalg.norm(w), np.linalg.norm(z))
        dr_rel = dr / max(1.0, rho * du)
        if max(pr_rel, dr_rel) < opts.tol:
            break
        if coned and it % 1000 == 0:
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
                for v in [u] + scaled:
                    v /= 2.0
            elif dr > 10 * pr and rho > 1e-8:
                rho /= 2.0
                for v in [u] + scaled:
                    v *= 2.0

    lam = -rho * project(z, u, dual=True)
    weights = [z[s].copy() for s in sl]
    norms = [float(np.linalg.norm(wj)) for wj in weights]
    return BlockSolution(
        weights=weights, dual=lam, objective=float(sum(norms)),
        primal_residual=float(np.linalg.norm(a @ z - y) / max(1.0, np.linalg.norm(y))),
        dual_residual=float(dr_rel),
        cone_violation=max((_cone_gap(c, z[s]) for s, c, _ in coned), default=0.0),
        iterations=it, active_blocks=_active(norms),
        converged=bool(max(pr_rel, dr_rel) < opts.tol))


def solve_group_min_norm(p, opts=None):
    """ADMM for min sum_j ||w_j|| subject to sum_j A_j w_j = y.

    The cone-free case of `solve_cone_constrained`: both run one ADMM, whose
    w-step here is the plain least-norm projection onto the equality set
    through a cached compact SVD of the concatenated blocks. The z-step is
    the block soft threshold, and the penalty is rebalanced whenever the
    residuals drift apart. Runs are deterministic: fixed start, fixed block
    order. Returns the thresholded iterate, so inactive blocks are exactly
    zero. An unreachable target raises InfeasibleError; hitting the
    iteration cap returns a report with converged False.
    """
    blocks, y, cones = _check_problem(p)
    if p.beta != 0.0:
        raise InvalidInputError("interpolation solve requires beta = 0")
    if cones is not None:
        raise InvalidInputError("use solve_cone_constrained for cone problems")
    return _admm(blocks, y, [None] * len(blocks), opts or SolverOptions())


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


def _block_kkt(grads, weights, th, cones=None):
    """Worst (stationarity, dual feasibility, cone) violations at weights w_j
    given per-block gradients g_j = A_j^T lam and threshold th.

    An active block needs g_j + C_j^T mu = th w_j / ||w_j|| for some mu >= 0,
    an inactive one ||g_j + C_j^T mu|| <= th; a free block has mu = 0.
    """
    norms = [float(np.linalg.norm(w)) for w in weights]
    active = set(_active(norms))
    stat = dual_f = cone_v = 0.0
    for k, (g, w, c) in enumerate(zip(grads, weights, cones or [None] * len(grads))):
        if k in active:
            target = th * w / norms[k]
            r = np.linalg.norm(g - target) if c is None else nnls(c.T, target - g)[1]
            stat = max(stat, float(r))
            if c is not None:
                cone_v = max(cone_v, _cone_gap(c, w))
        else:
            r = np.linalg.norm(g) if c is None else nnls(c.T, -g)[1]
            dual_f = max(dual_f, float(r) - th)
    return stat, dual_f, cone_v


def _lasso_kkt(a, sl, w, y, beta):
    g = a.T @ (y - a @ w)
    stat, dual_f, _ = _block_kkt([g[s] for s in sl], [w[s] for s in sl], beta)
    return max(stat, dual_f)


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

    Entries of `cones` may be None for unconstrained blocks, e.g. a skip
    block; with every entry None this is `solve_group_min_norm` bit for bit.
    Cone rows get nonnegative slacks, so the w-step projects onto the
    equality set in the metric Q_j = I + C_j^T C_j: one Cholesky factor per
    coned block, and the multiplier from a compact SVD of the n x n system
    sum_j A_j Q_j^-1 A_j^T built up front. Cones that cannot meet the
    target stall the constraint residual, which raises InfeasibleError.
    beta must be 0.
    """
    blocks, y, cones = _check_problem(p)
    if p.beta != 0.0:
        raise InvalidInputError("cone solve requires beta = 0")
    if cones is None:
        raise InvalidInputError("cone solve needs cone matrices (None entries allowed)")
    return _admm(blocks, y, cones, opts or SolverOptions())


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
    stat, dual_f, cone_v = _block_kkt([b.T @ lam for b in blocks], weights, th, cones)
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
