"""Group-l1 solvers over gated feature blocks.

Three kinds of solve share one problem type: exact interpolation
(`solve_group_min_norm`), penalized regression along a penalty path
(`solve_lasso_path`; `solve_group_lasso` at one beta) and interpolation
under per-block sign cones (`solve_cone_constrained`).
`build_certificate` reads off the least-norm dual of the matching isometry
condition, which certifies when the planted blocks are the unique solution,
and `verify_kkt` replays the optimality system on any candidate solution.

Importing this module loads numpy only. A cone solve loads scipy's LAPACK
extension alone, not scipy.linalg, and a cone KKT replay loads scipy.optimize
for `nnls`; any later scipy use must import it the same way, where it runs.
"""

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder

import numpy as np

from .errors import InfeasibleError, InvalidInputError, InvalidShapeError
from .isometry import STRICT_MARGIN, nic_linear, nic_multi
from .numerics import as_matrix, compact_svd, row_norms

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


def _check_problem(p, stack=True):
    # (blocks, A, target, cones), validated: the operator A is the blocks' base if
    # they are its consecutive column slices, else the blocks stacked (None unless stack)
    blocks = [np.asarray(b, dtype=float) for b in p.blocks]
    cones = None if p.cones is None else [
        None if c is None else np.asarray(c, dtype=float) for c in p.cones]
    flat = [(kind, j, m.ndim) for kind, ms in (("block", blocks), ("cone", cones or ()))
            for j, m in enumerate(ms) if m is not None and m.ndim != 2]
    if flat:
        raise InvalidShapeError("%s %d is %d-d, not a matrix" % flat[0])
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
    if cones is not None:
        if len(cones) != len(blocks):
            raise InvalidInputError("cones must align one-to-one with blocks")
        if any(c is not None and c.shape[1] != b.shape[1] for b, c in zip(blocks, cones)):
            raise InvalidInputError("cone column count must match its block")
    a, ends = blocks[0].base, np.cumsum([0] + [b.shape[1] for b in blocks])
    if not (isinstance(a, np.ndarray) and a.dtype == float and a.flags.c_contiguous
            and a.shape == (n, ends[-1]) and all(b.base is a and b.strides == a.strides
            and b.ctypes.data == a.ctypes.data + a.itemsize * e for b, e in zip(blocks, ends))):
        a = np.hstack(blocks) if stack else None
    arrays = ([a] if a is not None else blocks) + [y] + [c for c in cones or () if c is not None]
    # a finite squared norm also rules out data whose residuals overflow
    with np.errstate(over="ignore"):
        if not all(np.isfinite(np.linalg.norm(m)) for m in arrays):
            raise InvalidInputError("blocks, target and cones must be finite "
                                    "with finite squared norms")
    return blocks, a, y, cones


@dataclass
class _Columns:
    """Where each block sits in the concatenated vector, and its groups."""

    slices: list               # block j's columns
    total: int                 # concatenated length
    groups: list               # per distinct key: (block ids, (k, w) column index)


def _columns(widths, keys=None):
    # blocks of equal key share a group; keys (the widths by default) fix widths
    slices, start, by_key = [], 0, {}
    for j, k in enumerate(widths if keys is None else keys):
        slices.append(slice(start, start + widths[j]))
        by_key.setdefault(k, []).append(j)
        start += widths[j]
    groups = [(np.array(ids), np.array([slices[j].start for j in ids])[:, None]
               + np.arange(widths[ids[0]])) for ids in by_key.values()]
    return _Columns(slices, start, groups)


def _block_norms(v, cols):
    out = np.empty(len(cols.slices))
    for ids, idx in cols.groups:
        out[ids] = row_norms(v[idx])
    return out


def _soft_blocks(v, cols, t, out=None):
    # a row v or an (m, total) stack of rows, and thresholds t: a scalar or an
    # (m, 1) column, into out, zero-filled, or a new array. Blocks above t scale
    # by 1 - t/nv in a masked multiply, the rest stay +0.0; only kept blocks,
    # whose norms are positive, divide. One width group works on (..., k, w)
    # views; take gathers the others in C order, so each block's norm reads it
    # unit-stride as a lone row does
    out, whole = np.empty(v.shape) if out is None else out, len(cols.groups) == 1
    out.fill(0.0)
    for _, idx in cols.groups:
        seg = v.reshape(v.shape[:-1] + idx.shape) if whole else v.take(idx, axis=-1)
        nv = row_norms(seg)
        keep = nv > t
        dst = out.reshape(seg.shape) if whole else np.zeros(seg.shape)
        np.divide(t, nv, out=nv, where=keep)
        np.multiply((1.0 - nv)[..., None], seg, out=dst, where=keep[..., None])
        if not whole:
            out[idx if v.ndim == 1 else (slice(None), idx)] = dst
    return out


def _active(norms):
    top = max(norms, default=0.0)
    return [i for i, v in enumerate(norms) if top > 0.0 and v > ZERO_REL * top]


def _cone_gap(c, w):
    # largest negative part of C w
    return float(np.max(np.maximum(-(c @ w), 0.0), initial=0.0))


def _lapack():
    # scipy.linalg's LAPACK extension without that package; importing it later reuses this
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = PathFinder.find_spec(name, [os.path.join(root, "linalg")])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


# module-level so the benchmark's tracer can wrap it; scipy.linalg.cho_factor's potrf call
def cho_factor(a):
    c, info = _lapack().dpotrf(a, lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError("%d-th leading minor is not positive definite" % info)
    return c, False


def _admm(blocks, a, y, cones, opts):
    # Cone rows C_j w_j = s_j get slacks s_j >= 0 with scaled multipliers v_j.
    # The w-step minimizes ||w - (z - u)||^2 + sum_j ||C_j w_j - (s_j - v_j)||^2
    # over Aw = y: with Q_j = I + C_j^T C_j (I on a free block), q =
    # Q^-1 (z - u + C^T (s - v)) and mu = (A Q^-1 A^T)^+ (A q - y), it is
    # w = q - Q^-1 A^T mu. With no cones Q = I and the compact SVD U S V^T
    # of A gives w = q - V (U^T t)/s and mu = U (U^T t)/s^2 directly.
    # Buffers are allocated once per solve; out= keeps each step's kernel and bits.
    cols = _columns([b.shape[1] for b in blocks])
    sl = cols.slices
    coned = np.array([j for j, c in enumerate(cones) if c is not None], dtype=int)
    # slacks and scaled multipliers of every cone row, stacked block by block
    rows = _columns([cones[j].shape[0] for j in coned], [cones[j].shape for j in coned])
    z, z_prev, u, w, tmp = (np.zeros(cols.total) for _ in range(5))
    slack, s_new, scaled, cw, rtmp = (np.zeros(rows.total) for _ in range(5))

    if coned.size:
        dpotrs = _lapack().dpotrs

        def runs(ids, *lists):  # (run, its slice of ids, that slice of each list's stack)
            st = [np.stack([m[j] for j in ids]) for m in lists]
            cut = [0, *np.flatnonzero(np.diff(ids) != 1) + 1, len(ids)]
            return [(ids[s], s, *(m[s] for m in st)) for s in map(slice, cut, cut[1:])]

        def span(buf, spans, run):  # a run of equal-width parts of buf, (k, w, 1)
            first, last = spans[run[0]], spans[run[-1]]
            return buf[first.start:last.stop].reshape(len(run), first.stop - first.start, 1)

        # one factor per distinct cone metric Q_j = I + C_j^T C_j, keyed by its
        # shape and bytes: relu_skip_cone's cones are row-sign flips of X, which
        # square away in gemm, so every pattern there shares I + X^T X
        key, fac = {}, {}
        for c in cones:
            if c is not None and id(c) not in key:
                q = np.eye(c.shape[1]) + c.T @ c
                k = key[id(c)] = (q.shape, q.tobytes())
                if k not in fac:
                    fac[k] = cho_factor(q)
        # potrs, cho_solve's solve, on a factor's blocks as columns: once on their
        # stacked A_j^T, then on each run of them in w. Zero-width ones need none.
        qinv_at, solves = dict(enumerate(b.T for b in blocks)), []
        for k, (fc, lower) in fac.items():
            ids = np.array([j for j in coned if key[id(cones[j])] == k])
            if k[0] != (0, 0):
                at = dpotrs(fc, np.vstack([blocks[j] for j in ids]).T, lower=lower)[0]
                qinv_at.update(zip(ids, np.split(at, len(ids), axis=1)))
                solves += [(fc, lower, span(w, sl, r)[..., 0].T) for r, _ in runs(ids)]
        # the Schur system spans A's columns, so its SVD serves the range check too
        sv = compact_svd(sum(b @ qinv_at[j] for j, b in enumerate(blocks)))
        # block products below a +0.0 row, summed down in block order as sum()
        # adds them; a spare zero column stops numpy summing pairwise at n = 1
        prods, psum = np.zeros((len(blocks) + 1, y.size + 1, 1)), np.empty((y.size + 1, 1))
        # Blocks are stacked per width and cones per shape; each run of blocks
        # takes its part of the stack beside its (k, w, 1) views of the buffers.
        # np.stack keeps a memory order its members share, as a program's do, so
        # matmul gives each slice the gemv its member alone gets: same bits.
        by_block = [(bs, ms, prods[r[0] + 1:r[-1] + 2, :-1], span(w, sl, r), span(tmp, sl, r))
                    for ids, _ in cols.groups for r, _, bs, ms in runs(ids, blocks, qinv_at)]
        by_cone = [(cs, cs.swapaxes(1, 2), span(w, sl, r), span(tmp, sl, r),
                    span(rtmp, rows.slices, ids[s]), span(cw, rows.slices, ids[s]))
                   for ids, _ in rows.groups for r, s, cs in runs(coned[ids], cones)]
        by_shape = [[span(tmp, sl, r) for r, _ in runs(coned[ids])] for ids, _ in rows.groups]

        def project(z, u, dual=False):
            np.subtract(z, u, out=w)
            np.subtract(slack, scaled, out=rtmp)
            for _, cst, wv, tv, rv, _ in by_cone:
                np.add(wv, np.matmul(cst, rv, out=tv), out=wv)
            for fc, lower, wv in solves:
                dpotrs(fc, wv, lower=lower, overwrite_b=1)
            for bs, _, pv, wv, _ in by_block:
                np.matmul(bs, wv, out=pv)
            ut = sv.u.T @ (prods.sum(axis=0, out=psum)[:-1, 0] - y)
            mu = sv.u @ (ut / sv.s)
            for _, ms, _, wv, tv in () if dual else by_block:
                np.subtract(wv, np.matmul(ms, mu[:, None], out=tv), out=wv)
            return mu if dual else w
    else:
        sv = compact_svd(a)

        def project(z, u, dual=False):
            np.subtract(z, u, out=w)
            ut = sv.u.T @ (a @ w - y)
            return sv.u @ (ut / sv.s**2) if dual else np.subtract(w, sv.v @ (ut / sv.s), out=w)

    if np.linalg.norm(y - sv.u @ (sv.u.T @ y)) > 1e-6 * (1.0 + np.linalg.norm(y)):
        raise InfeasibleError("target is outside the span of the blocks")
    rho = 1.0  # ADMM penalty start, rebalanced in flight
    it = 0
    pr_rel = dr_rel = stall_ref = np.inf
    for it in range(1, opts.max_iter + 1):
        project(z, u)
        z, z_prev = z_prev, z
        _soft_blocks(np.add(w, u, out=tmp), cols, 1.0 / rho, out=z)
        np.subtract(np.add(u, w, out=u), z, out=u)  # (u + w) - z; u + (w - z) moves bits
        # squared norms of the primal (w - z, Cw - s), dual (z - z_prev,
        # C^T (s - s_prev)) and multiplier (u, v) residuals. They feed only the
        # stopping, stall and rho tests and dual_residual, never an iterate;
        # sqrt(v.dot(v)) is np.linalg.norm's code for a vector
        pr, dr, du = (v.dot(v) for v in (
            np.subtract(w, z, out=tmp), np.subtract(z, z_prev, out=z_prev), u))
        if coned.size:
            for cs, _, wv, _, _, cv in by_cone:
                np.matmul(cs, wv, out=cv)
            np.subtract(np.maximum(0.0, cw + scaled, out=s_new), slack, out=rtmp)
            for _, cst, _, tv, rv, _ in by_cone:
                np.matmul(cst, rv, out=tv)
            for moved in map(np.concatenate, by_shape):  # per shape: dual_residual's bits
                dr += np.vdot(moved, moved)
            np.subtract(np.add(scaled, cw, out=scaled), s_new, out=scaled)
            pr += np.subtract(cw, s_new, out=rtmp).dot(rtmp)
            du += scaled.dot(scaled)
            slack, s_new = s_new, slack
        pr, dr, du = math.sqrt(pr), rho * math.sqrt(dr), math.sqrt(du)
        pr_rel = pr / max(1.0, math.sqrt(w.dot(w)), math.sqrt(z.dot(z)))
        dr_rel = dr / max(1.0, rho * du)
        if max(pr_rel, dr_rel) < opts.tol:
            break
        if coned.size and it % 1000 == 0:
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
                scaled /= 2.0
            elif dr > 10 * pr and rho > 1e-8:
                rho /= 2.0
                u *= 2.0
                scaled *= 2.0

    lam = -rho * project(z, u, dual=True)
    weights = [z[s].copy() for s in sl]
    norms = _block_norms(z, cols).tolist()
    return BlockSolution(
        weights=weights, dual=lam, objective=float(sum(norms)),
        primal_residual=float(np.linalg.norm(a @ z - y) / max(1.0, np.linalg.norm(y))),
        dual_residual=float(dr_rel),
        cone_violation=max((_cone_gap(cones[j], z[sl[j]]) for j in coned), default=0.0),
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
    blocks, a, y, cones = _check_problem(p)
    if p.beta != 0.0:
        raise InvalidInputError("interpolation solve requires beta = 0")
    if cones is not None:
        raise InvalidInputError("use solve_cone_constrained for cone problems")
    return _admm(blocks, a, y, [None] * len(blocks), opts or SolverOptions())


def _power_step(a):
    # largest eigenvalue of a^T a by power iteration, deterministic start
    total = a.shape[1]
    v = np.full(total, 1.0 / np.sqrt(total))
    lam = 0.0
    for _ in range(500):
        q = a.T @ (a @ v)
        nv = float(np.linalg.norm(q))
        if nv == 0.0:
            # the start lies in the null space of a (a @ 1 = 0): take the
            # exact spectral norm, which a nonzero a has positive
            return float(np.linalg.norm(a, 2)) ** 2 * (1.0 + 1e-3)
        if abs(nv - lam) < 1e-12 * max(1.0, nv):
            return nv * (1.0 + 1e-3)
        lam = nv
        v = q / nv
    return lam * (1.0 + 1e-3)


def _block_kkt(g, w, cols, th, cones=None):
    """Worst (stationarity, dual feasibility, cone) violations at weights w
    given gradients g = A^T lam and threshold th, both concatenated by cols.

    An active block needs g_j + C_j^T mu = th w_j / ||w_j|| for some mu >= 0,
    an inactive one ||g_j + C_j^T mu|| <= th; a free block has mu = 0.
    """
    norms = _block_norms(w, cols)
    active = _active(norms.tolist())
    on = np.zeros(len(cols.slices), dtype=bool)
    on[active] = True
    resid = np.empty(len(cols.slices))
    for ids, idx in cols.groups:
        gs = g[idx]
        act = on[ids]
        gs[act] -= th * w[idx[act]] / norms[ids[act], None]
        resid[ids] = row_norms(gs)
    cone_v = 0.0
    for k, c in enumerate(cones or ()):
        if c is not None:
            from scipy.optimize import nnls
            s = cols.slices[k]
            if on[k]:
                resid[k] = nnls(c.T, th * w[s] / norms[k] - g[s])[1]
                cone_v = max(cone_v, _cone_gap(c, w[s]))
            else:
                resid[k] = nnls(c.T, -g[s])[1]
    resid = resid.tolist()
    stat = max([0.0] + [resid[k] for k in active])
    dual_f = max([0.0] + [r - th for r, a in zip(resid, on) if not a])
    return stat, dual_f, cone_v


def _lasso_kkt(a, cols, w, y, beta):  # worse of stationarity, dual feasibility
    return max(_block_kkt(a.T @ (y - a @ w), w, cols, beta)[:2])


def _lasso_objective(a, cols, w, y, beta):
    r = a @ w - y
    return 0.5 * float(r @ r) + beta * sum(_block_norms(w, cols).tolist())


def _lasso_solution(a, cols, w, y, beta, it, converged, obj=None, kkt=None):
    return BlockSolution(
        weights=[w[s].copy() for s in cols.slices], dual=y - a @ w, primal_residual=0.0,
        objective=float(_lasso_objective(a, cols, w, y, beta) if obj is None else obj),
        dual_residual=float(_lasso_kkt(a, cols, w, y, beta) if kkt is None else kkt),
        iterations=it, active_blocks=_active(_block_norms(w, cols).tolist()), cone_violation=0.0,
        converged=converged)


def solve_lasso_path(p, betas, opts=None):
    """Accelerated proximal gradient for 0.5||Aw - y||^2 + beta sum ||w_j||.

    Checks p (whose own beta is unused), stacks its blocks and estimates ||A||^2
    by power iteration for the step size once, then solves every one of
    `betas` > 0 from w = 0 and returns the solutions as a list in the order
    given. The betas run in lockstep: one iteration advances the (m, total)
    stack of the m still running, with momentum restarted per beta when its
    objective rises. Every 50 iterations each beta stops once its objective
    plateaus with the stationarity residual below 1e-8 (times beta if
    beta > 1), and leaves the stack with its own iteration count. Every stack
    operation runs the kernel a lone beta would, so each solution is bit for
    bit the one a solve of its beta alone gives. A zero operator gives w = 0,
    its exact optimum, at once. beta = 0 is min-norm.
    """
    opts = opts or SolverOptions()
    blocks, a, y, cones = _check_problem(p)
    betas = [float(b) for b in betas]
    if not all(0.0 < b < np.inf for b in betas):
        raise InvalidInputError("penalized solve requires beta > 0")
    if cones is not None:
        raise InvalidInputError("use solve_cone_constrained for cone problems")
    cols = _columns([b.shape[1] for b in blocks])
    w = np.zeros((len(betas), cols.total))
    if not (betas and a.any()):  # every gradient A_j^T r is zero, inside the beta ball
        return [_lasso_solution(a, cols, w[k], y, b, 0, True) for k, b in enumerate(betas)]
    step = 1.0 / _power_step(a)
    out = [None] * len(betas)
    live = list(range(len(betas)))  # the stack's rows, as positions in betas
    prev_check = [_lasso_objective(a, cols, w[k], y, b) for k, b in enumerate(betas)]
    th = step * np.array(betas)[:, None]
    v, tk = w, np.ones((len(betas), 1))
    for it in range(1, opts.max_iter + 1):
        # matmul gives each row of the stack the gemv a @ v gets alone
        r = np.matmul(a, v[..., None])[..., 0] - y
        g = np.matmul(a.T, r[..., None])[..., 0]
        w_new = _soft_blocks(v - step * g, cols, th)
        tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        v = w_new + ((tk - 1.0) / tk_new) * (w_new - w)
        tk, w = tk_new, w_new
        if it % 50 == 0:
            stay = []
            for i, k in enumerate(live):
                beta = betas[k]
                cur = _lasso_objective(a, cols, w[i], y, beta)
                if cur > prev_check[k]:
                    tk[i], v[i] = 1.0, w[i]
                flat = prev_check[k] - cur < 1e-12 * max(1.0, abs(prev_check[k]))
                prev_check[k] = cur
                if flat and (kkt := _lasso_kkt(a, cols, w[i], y, beta)) < 1e-8 * max(1.0, beta):
                    out[k] = _lasso_solution(a, cols, w[i], y, beta, it, True, cur, kkt)
                else:
                    stay.append(i)
            live = [live[i] for i in stay]
            if not live:
                return out
            v, w, tk, th = v[stay], w[stay], tk[stay], th[stay]
    for i, k in enumerate(live):  # still running at the iteration cap
        out[k] = _lasso_solution(a, cols, w[i], y, betas[k], opts.max_iter, False)
    return out


def solve_group_lasso(p, opts=None):
    """`solve_lasso_path` of p at its own beta > 0."""
    return solve_lasso_path(p, [p.beta], opts)[0]


def solve_cone_constrained(p, opts=None):
    """ADMM for min sum_j ||w_j|| s.t. sum_j A_j w_j = y and C_j w_j >= 0, beta = 0.

    Entries of `cones` may be None for unconstrained blocks, e.g. a skip
    block; with every entry None this is `solve_group_min_norm` bit for bit.
    Cone rows get nonnegative slacks, so the w-step projects onto the
    equality set in the metric Q_j = I + C_j^T C_j. The set-up factors each
    distinct cone metric once (relu_skip_cone's patterns all share I + X^T X),
    forms Q^-1 A^T with one potrs per factor over its blocks' stacked A_j^T,
    and takes the multiplier and the range check from a compact SVD of the n x n
    sum_j A_j Q_j^-1 A_j^T. A target outside the blocks' span, or cones that
    stall the constraint residual, raise InfeasibleError after the factorization.
    """
    blocks, a, y, cones = _check_problem(p)
    if p.beta != 0.0:
        raise InvalidInputError("cone solve requires beta = 0")
    if cones is None:
        raise InvalidInputError("cone solve needs cone matrices (None entries allowed)")
    return _admm(blocks, a, y, cones, opts or SolverOptions())


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
    blocks, a, y, cones = _check_problem(p, stack=False)
    weights = [np.asarray(w, dtype=float).ravel() for w in s.weights]
    if [w.size for w in weights] != [b.shape[1] for b in blocks]:
        raise InvalidInputError("solution block count or widths differ from the problem's")
    w, lam = np.concatenate(weights), np.asarray(s.dual, dtype=float).ravel()
    if lam.size != y.size or not (np.isfinite(w).all() and np.isfinite(lam).all()):
        raise InvalidInputError("solution weights and dual must be finite, one dual per row")
    th = float(p.beta) if p.beta > 0 else 1.0
    mats, parts = ([a], [w]) if a is not None else (blocks, weights)  # one gemv, or per block
    stat, dual_f, cone_v = _block_kkt(np.concatenate([m.T @ lam for m in mats]), w,
                                      _columns([b.shape[1] for b in blocks]), th, cones)
    fit = sum(m @ v for m, v in zip(mats, parts)) - y
    primal = float(np.linalg.norm(fit) / max(1.0, np.linalg.norm(y))) if p.beta == 0.0 else 0.0
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
