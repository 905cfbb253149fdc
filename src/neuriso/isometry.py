"""Isometry-style recovery certificates for planted neurons.

Each checker is a dual certificate: a least-norm multiplier lam that meets
every planted block's target exactly, and, per arrangement pattern, the norm
of lam seen through that pattern's block. That norm must stay strictly below
one for the associated group-l1 program to admit the planted solution as its
unique optimum. Planted patterns are recorded in the report and excluded from
the certified maximum (their own value is exactly one by construction).
"""

from dataclasses import dataclass

import numpy as np

from .arrangements import pattern_of, with_plants
from .errors import DegenerateStackError, InvalidInputError
from .numerics import as_matrix, compact_svd, stacked_pinv_apply, unit

STRICT_MARGIN = 1e-8  # "holds" means max off-plant lhs < 1 - STRICT_MARGIN


@dataclass
class NicReport:
    kind: str  # NIC_L | NIC_1 | NNIC_1 | NIC_K | NNIC_K | SNIC_ORTH
    per_pattern: list  # (mask, lhs) in pattern order
    max_lhs: float  # over non-planted patterns
    holds: bool
    planted_indices: list
    marginal: bool  # certified maximum sits within STRICT_MARGIN of one
    lam: np.ndarray = None  # the multiplier behind lhs; None for SNIC_ORTH


def _pattern_norms(mat, masks, lam, normalized):
    """||A_j^T lam|| per mask: A_j = D_j X, or the left basis U_j of D_j X."""
    if normalized:
        return [np.linalg.norm(compact_svd(m[:, None] * mat).u.T @ lam) for m in masks]
    return np.linalg.norm((np.array(masks, dtype=float) * lam) @ mat, axis=1)


def _assemble(kind, mat, patterns, lam, planted_idx, normalized=False):
    lhs = [float(v) for v in _pattern_norms(mat, patterns.masks, lam, normalized)]
    skip = set(planted_idx)
    off = [v for i, v in enumerate(lhs) if i not in skip]
    mx = max(off) if off else 0.0
    return NicReport(kind=kind,
                     per_pattern=list(zip(patterns.masks, lhs)),
                     max_lhs=mx,
                     holds=mx < 1.0 - STRICT_MARGIN,
                     planted_indices=list(planted_idx),
                     marginal=abs(mx - 1.0) <= STRICT_MARGIN,
                     lam=lam)


def nic_linear(x, w_star, patterns):
    """lhs_j = ||X^T D_j X (X^T X)^{-1} w_hat|| for every pattern."""
    mat = as_matrix(x)
    what = unit(w_star)
    sv = compact_svd(mat)
    if sv.rank < mat.shape[1]:
        raise DegenerateStackError("X^T X is singular")
    lam = mat @ (sv.v @ ((sv.v.T @ what) / sv.s**2))
    return _assemble("NIC_L", mat, patterns, lam, [])


def nic_relu_single(x, w_star, patterns):
    """lhs_j = ||X^T D_j D_i* X (X^T D_i* X)^{-1} w_hat||, i* the plant."""
    mat = as_matrix(x)
    what = unit(w_star)
    grown = with_plants(mat, patterns, [what])
    pm = pattern_of(mat, what).mask
    mi = pm.astype(float)
    gram = mat.T @ (mi[:, None] * mat)
    sig = np.linalg.svd(gram, compute_uv=False)
    if sig.size == 0 or sig[-1] <= 1e-12 * sig[0]:
        raise DegenerateStackError("X^T D X is singular at the planted pattern")
    lam = mi * (mat @ np.linalg.solve(gram, what))
    return _assemble("NIC_1", mat, grown, lam, [grown.index(pm)])


def normalized_target(sv, w):
    """Unit coordinates of (Xw)_+ in the left basis U of D X, from the
    compact SVD sv of D X with D the pattern of w."""
    coef = sv.s * (sv.v.T @ w)
    nrm = np.linalg.norm(coef)
    if nrm == 0.0:
        raise DegenerateStackError("planted pattern annihilates the data")
    return coef / nrm


def nnic_single(x, w_star, patterns):
    """lhs_j = ||U_j^T U_i* w_tilde|| with U from the compact SVD of D X."""
    mat = as_matrix(x)
    w = np.asarray(w_star, dtype=float)
    grown = with_plants(mat, patterns, [w])
    pm = pattern_of(mat, w).mask
    sv = compact_svd(pm[:, None] * mat)
    return _assemble("NNIC_1", mat, grown, sv.u @ normalized_target(sv, w),
                     [grown.index(pm)], normalized=True)


def nic_multi(x, plant, patterns, normalized):
    """Multi-neuron condition for plant = [(w_i, r_i)].

    Plain variant stacks X^T D_s_i with unit targets r_i w_i / ||w_i||
    (r_i in {-1, +1}); normalized variant stacks U_s_i^T with targets
    r_i w_tilde_i. lhs_j applies the min-norm multiplier to pattern j.
    """
    mat = as_matrix(x)
    plant = [(np.asarray(w, dtype=float), float(r)) for w, r in plant]
    if not plant:
        raise InvalidInputError("need at least one planted neuron")
    for _, r in plant:
        if normalized and r == 0.0:
            raise InvalidInputError("normalized output weights must be nonzero")
        if not normalized and r not in (-1.0, 1.0):
            raise InvalidInputError("plain output weights must be +1 or -1")
    pmasks = [pattern_of(mat, w).mask for w, _ in plant]
    grown = with_plants(mat, patterns, [w for w, _ in plant])
    pidx = [grown.index(pm) for pm in pmasks]
    if len(set(pidx)) < len(pidx):
        raise InvalidInputError("planted masks must be pairwise distinct")
    if normalized:
        blocks, target = [], []
        for (w, r), pm in zip(plant, pmasks):
            sv = compact_svd(pm[:, None] * mat)
            blocks.append(sv.u.T)
            target.append(r * normalized_target(sv, w))
        lam = stacked_pinv_apply(blocks, np.concatenate(target))
        return _assemble("NNIC_K", mat, grown, lam, pidx, normalized=True)
    blocks = [mat.T * pm.astype(float)[None, :] for pm in pmasks]
    lam = stacked_pinv_apply(blocks, np.concatenate([r * unit(w) for w, r in plant]))
    return _assemble("NIC_K", mat, grown, lam, pidx)


def snic_orth(x, patterns):
    """Trace rule for column-orthonormal data: holds iff max tr(D_j) <= n - d."""
    mat = as_matrix(x)
    n, d = mat.shape
    if np.max(np.abs(mat.T @ mat - np.eye(d))) > 1e-6:
        raise InvalidInputError("data matrix must be column-orthonormal")
    masks = patterns.masks
    traces = [int(np.sum(m)) for m in masks]
    denom = n - d
    lhs = [tr / denom if denom > 0 else (0.0 if tr == 0 else np.inf) for tr in traces]
    max_tr = max(traces) if traces else 0
    return NicReport(kind="SNIC_ORTH",
                     per_pattern=list(zip(masks, [float(v) for v in lhs])),
                     max_lhs=float(max(lhs) if lhs else 0.0),
                     holds=max_tr <= denom,
                     planted_indices=[],
                     marginal=max_tr == denom)


def report_to_csv(report):
    lines = ["kind,mask,lhs,holds"]
    for mask, lhs in report.per_pattern:
        bits = "".join(str(int(b)) for b in mask)
        lines.append("%s,%s,%.17g,%d" % (report.kind, bits, lhs, int(report.holds)))
    return "\n".join(lines) + "\n"
