"""Shared numerical kernels: input coercion, unit vectors, truncated SVD and
minimum-norm solves of stacked linear systems.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStackError, InvalidInputError

RANK_TOL = 1e-10  # compact_svd drops singular values <= RANK_TOL * s_max


@dataclass
class CompactSvd:
    """Rank-truncated SVD m = u @ diag(s) @ v.T with orthonormal u, v columns."""

    u: np.ndarray  # (n, rank)
    s: np.ndarray  # (rank,)
    v: np.ndarray  # (d, rank)
    rank: int


def as_matrix(x):
    """The float array behind x: a DataMatrix's `mat`, or x itself."""
    return np.asarray(getattr(x, "mat", x), dtype=float)


def unit(w):
    """w scaled to unit Euclidean norm; the zero vector is rejected."""
    w = np.asarray(w, dtype=float)
    nrm = np.linalg.norm(w)
    if nrm == 0.0:
        raise InvalidInputError("weight vector must be nonzero")
    return w / nrm


def compact_svd(m):
    """Compact SVD of `m`, dropping singular values <= RANK_TOL * s_max.

    A zero matrix yields rank 0 with empty factors; a non-finite entry raises
    InvalidInputError before LAPACK sees it. Deterministic for a fixed input
    (LAPACK bidiagonalization underneath).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise InvalidInputError("compact_svd expects a 2-d array")
    if not np.isfinite(m).all():
        raise InvalidInputError("compact_svd needs finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    return CompactSvd(u=u[:, :rank], s=s[:rank], v=vt[:rank].T, rank=rank)


def stacked_pinv_apply(blocks, target):
    """Minimum-norm solution lam of vstack(blocks) @ lam = target.

    The stack must have full row rank; otherwise the equality system is
    degenerate and a DegenerateStackError is raised.
    """
    s = np.vstack([np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks])
    target = np.asarray(target, dtype=float).ravel()
    if s.shape[0] != target.size:
        raise InvalidInputError("target length must match total stacked rows")
    u, sig, vt = np.linalg.svd(s, full_matrices=False)
    if sig.size == 0 or sig[-1] <= 1e-12 * sig[0] or s.shape[0] > s.shape[1]:
        raise DegenerateStackError(
            "stacked system is rank-deficient (%d rows, rank %d)"
            % (s.shape[0], int(np.sum(sig > 1e-12 * (sig[0] if sig.size else 1.0))))
        )
    return vt.T @ ((u.T @ target) / sig)
