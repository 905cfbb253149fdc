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
from .numerics import as_matrix, compact_svd, row_norms, stacked_pinv_apply, unit

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


def _pattern_norms(mat, patterns, lam, normalized):
    """||A_j^T lam|| per pattern: A_j = D_j X, or the left basis U_j of D_j X."""
    if normalized:  # one product over the stack; a pattern of rank < min(n, d) reads its own
        bases, u, ranks = patterns.stacks(mat)
        return [np.linalg.norm(sv.u.T @ lam) if r < u.shape[2] else v
                for sv, r, v in zip(bases, ranks.tolist(), row_norms(np.matmul(lam, u)))]
    return np.linalg.norm((np.array(patterns.masks, dtype=float) * lam) @ mat, axis=1)


def _assemble(kind, mat, patterns, lam, planted_idx, normalized=False):
    lhs = [float(v) for v in _pattern_norms(mat, patterns, lam, normalized)]
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
    """lhs_j = ||X^T D_j D_i* X (X^T D_i* X)^{-1} w_hat||, i* the plant: the
    plain `nic_multi` with the one plant (w_star, +1)."""
    report = nic_multi(x, [(w_star, 1.0)], patterns, normalized=False)
    report.kind = "NIC_1"
    return report


def normalized_target(sv, w):
    """Unit coordinates of (Xw)_+ in the left basis U of D X, from the
    compact SVD sv of D X with D the pattern of w."""
    coef = sv.s * (sv.v.T @ w)
    nrm = np.linalg.norm(coef)
    if nrm == 0.0:
        raise DegenerateStackError("planted pattern annihilates the data")
    return coef / nrm


def nnic_single(x, w_star, patterns):
    """lhs_j = ||U_j^T U_i* w_tilde|| with U from the compact SVD of D X: the
    normalized `nic_multi` with the one plant (w_star, +1)."""
    report = nic_multi(x, [(w_star, 1.0)], patterns, normalized=True)
    report.kind = "NNIC_1"
    return report


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
        svs = [grown.bases(mat)[j] for j in pidx]
        target = [r * normalized_target(sv, w) for (w, r), sv in zip(plant, svs)]
        # one U^T has orthonormal rows, so its least-norm solve is U t
        lam = (svs[0].u @ target[0] if len(svs) == 1 else
               stacked_pinv_apply([sv.u.T for sv in svs], np.concatenate(target)))
        return _assemble("NNIC_K", mat, grown, lam, pidx, normalized=True)
    blocks = [mat.T * pm.astype(float)[None, :] for pm in pmasks]
    lam = stacked_pinv_apply(blocks, np.concatenate([r * unit(w) for w, r in plant]))
    # the least-norm lam lives on the planted rows: zero its SVD rounding off them
    return _assemble("NIC_K", mat, grown, lam * np.any(pmasks, axis=0), pidx)


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
