"""Diagonal arrangement patterns of a data matrix.

A pattern is the 0/1 activation mask I(Xh >= 0) of some nonzero direction h.
The set of patterns realizable with a strict-interior witness partitions the
direction space; this module samples that set, enumerates it exactly for
small n, and solves the all-ones feasibility margin used by the experiment
protocols.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, MissingPlantError, SchemaError,
                     SizeLimitError)
from .numerics import CompactSvd, as_matrix, svd_rank

MARGIN_EPS = 1e-9  # strict-realizability threshold on the unit-ball margin
MAX_EXACT_N = 18  # row cap of exact enumeration
BASES_CHUNK = 64  # patterns per batched SVD: a chunk's stacks stay in L2


@dataclass
class ArrangementPattern:
    mask: np.ndarray  # (n,) uint8
    witness: np.ndarray  # (d,) direction with pattern_of(x, witness) == mask


@dataclass
class PatternSet:
    """Arrangement patterns in lexicographic mask order.

    The set owns the pattern order: it sorts its patterns on construction and
    stacks their masks as the (p, n) uint8 matrix `masks`, whose row j is
    pattern j; `index(mask)` finds a mask's row in O(1). `bases(x)` keeps
    the normalized bases of the last data matrix it was asked for.
    """

    patterns: list  # ArrangementPattern
    contains_all_ones: bool
    sampled: bool  # True when built by sampling (no completeness claim)

    def __post_init__(self):
        self.patterns = sorted(self.patterns, key=lambda p: p.mask.tolist())
        n = len(self.patterns[0].mask) if self.patterns else 0
        self.masks = np.array([p.mask for p in self.patterns],
                              dtype=np.uint8).reshape(len(self.patterns), n)
        self._rows = {m.tobytes(): j for j, m in enumerate(self.masks)}
        if len(self._rows) < len(self.masks):
            raise InvalidInputError("a pattern set holds each mask once")
        self._bases = (None,)  # (data matrix key, CompactSvd per pattern, u, ranks)

    def index(self, mask):
        """Row of `mask` in `masks`, or -1 when the set lacks it."""
        return self._rows.get(np.asarray(mask, dtype=np.uint8).tobytes(), -1)

    def bases(self, x):
        """compact_svd(D_j X) for every pattern j, in pattern order: views of
        the read-only stacks of `stacks(x)`, one batched SVD per BASES_CHUNK
        patterns. Computed once per data matrix, keyed by its exact shape and
        bytes, and shared by every reader."""
        mat = as_matrix(x)
        key = (mat.shape, mat.tobytes())
        if self._bases[0] != key:
            if not np.isfinite(mat).all():
                raise InvalidInputError("compact_svd needs finite entries")
            (n, d), p, k = mat.shape, len(self.masks), min(mat.shape)
            u, s, vt = np.empty((p, n, k)), np.empty((p, k)), np.empty((p, k, d))
            for c in (slice(lo, lo + BASES_CHUNK) for lo in range(0, p, BASES_CHUNK)):
                u[c], s[c], vt[c] = np.linalg.svd(self.masks[c, :, None] * mat,
                                                  full_matrices=False)
            u.flags.writeable = s.flags.writeable = vt.flags.writeable = False
            ranks = svd_rank(s)
            self._bases = (key, [CompactSvd(u[j][:, :r], s[j][:r], vt[j][:r].T, int(r))
                                 for j, r in enumerate(ranks)], u, ranks)
        return self._bases[1]

    def stacks(self, x):
        """(bases(x), the (p, n, min(n, d)) stack of whole left factors, ranks)."""
        self.bases(x)
        return self._bases[1:]


def pattern_of(x, h):
    """Activation mask of direction h: entry i is 1 iff x_i . h >= 0."""
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise InvalidInputError("a direction needs finite entries")
    if not np.any(h != 0.0):
        raise InvalidInputError("the zero direction induces no arrangement pattern")
    mask = (np.asarray(x, dtype=float) @ h >= 0.0).astype(np.uint8)
    return ArrangementPattern(mask=mask, witness=h)


def with_plants(x, pattern_set, directions):
    """The set grown by pattern_of(x, w) for each direction w whose mask it
    lacks; the set itself when it lacks none. Only a sampled set may grow: a
    plant missing from an exact enumeration raises MissingPlantError."""
    missing = {}
    for w in directions:
        cand = pattern_of(x, w)
        if pattern_set.index(cand.mask) < 0:
            missing.setdefault(cand.mask.tobytes(), cand)
    if not missing:
        return pattern_set
    if not pattern_set.sampled:
        raise MissingPlantError("planted pattern missing from exact pattern set")
    return PatternSet(patterns=pattern_set.patterns + list(missing.values()),
                      contains_all_ones=pattern_set.contains_all_ones, sampled=True)


def _affine_min(pts):
    # minimizer of ||sum a_i p_i|| subject to sum a_i = 1
    m = pts.shape[0]
    g = pts @ pts.T
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = g
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:m]


def _min_norm_point(pts):
    # Wolfe's minimum-norm-point algorithm over conv(rows of pts), and the
    # rows the point rests on. Finitely terminating, so t* = 0 cases come
    # out exact; nearly equal rows can make it cycle, and then the cap
    # returns the smallest iterate seen.
    pts = np.asarray(pts, dtype=float)
    k = pts.shape[0]
    scale = max(1.0, float(np.max(np.sum(pts * pts, axis=1))))
    sel = [int(np.argmin(np.sum(pts * pts, axis=1)))]
    lam = np.array([1.0])
    best = pts[sel[0]], sel
    for _ in range(16 * k + 100):
        v = lam @ pts[sel]
        dots = pts @ v
        vv = float(v @ v)
        best = (v, sel) if vv < float(best[0] @ best[0]) else best
        i_star = int(np.argmin(dots))
        if dots[i_star] >= vv - 1e-12 * scale or vv <= 1e-30 * scale:
            return v, sel
        if i_star in sel:  # numerically stalled at optimum
            return v, sel
        sel = sel + [i_star]
        lam = np.append(lam, 0.0)
        while True:
            alpha = _affine_min(pts[sel])
            if np.all(alpha > 1e-13):
                lam = alpha
                break
            shrink = lam - alpha
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shrink > 1e-16, lam / shrink, np.inf)
            theta = min(1.0, float(np.min(ratios[alpha <= 1e-13])))
            lam = theta * alpha + (1.0 - theta) * lam
            keep = lam > 1e-13
            if np.all(keep):
                keep[int(np.argmin(lam))] = False
            sel = [s for s, kp in zip(sel, keep) if kp]
            lam = lam[keep]
            lam = lam / lam.sum()
            if len(sel) == 1:
                break
    return best


def allones_margin(x):
    """Largest t with Xw >= t*1 over the unit ball, and the maximizing w.

    Solved through the dual: t* is the distance from the origin to the
    convex hull of the rows, attained by the hull's min-norm point v. t* is
    always >= 0 (w = 0 is feasible); t* > 0 iff the rows share an open
    halfspace. Every optimal w meets the rows v rests on at one value, so
    their least-squares solve of X_S w = 1 gives w without the cancellation
    in v when nearly antipodal rows make v small; the better of that w and
    v/|v| is returned.
    """
    x = np.asarray(x, dtype=float)
    v, sel = _min_norm_point(x)
    u = float(np.linalg.norm(v))
    if u <= MARGIN_EPS:
        return 0.0, np.zeros(x.shape[1])
    w = np.linalg.lstsq(x[sel], np.ones(len(sel)), rcond=None)[0]
    best = max((v / u, w / np.linalg.norm(w)), key=lambda c: float(np.min(x @ c)))
    t = float(np.min(x @ best))
    return (t, best) if t > 0.0 else (0.0, np.zeros(x.shape[1]))


def _decide(x, signs, w):
    """One (signs, unit witness) per sign vector that the rows of x realize
    with margin > MARGIN_EPS; allones_margin decides a witness that falls short."""
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    ok = np.min(signs * (w @ x.T), axis=1) > MARGIN_EPS
    for j in np.flatnonzero(~ok):
        t, w[j] = allones_margin(x * signs[j][:, None])
        ok[j] = t > MARGIN_EPS
    _, first = np.unique((signs[ok] > 0) @ (1 << np.arange(x.shape[0])), return_index=True)
    return signs[ok][first], w[ok][first]


def _cells(x):
    # (sign vectors, unit witnesses) of the cells of the rows of x
    n, d = x.shape
    norms = np.linalg.norm(x, axis=1)
    if n == 0 or np.any(norms <= MARGIN_EPS):  # a zero row leaves no cell
        return np.zeros((0, n)), np.zeros((0, d))
    if d == 2:  # the arcs between the 2n boundary angles
        lo = np.sort((np.arctan2(x[:, 1], x[:, 0]) + [[np.pi / 2], [-np.pi / 2]]).ravel()
                     % (2 * np.pi))
        gap = np.diff(np.append(lo, lo[0] + 2 * np.pi))
        mid = (lo + 0.5 * gap)[gap > 0]
        w = np.column_stack([np.cos(mid), np.sin(mid)])
        return _decide(x, np.where(w @ x.T >= 0.0, 1.0, -1.0), w)
    xk = x / norms[:, None]
    signs, w = np.array([[1.0], [-1.0]]), np.array([xk[0], -xk[0]])
    for k in range(1, n):
        basis = np.linalg.svd(x[k:k + 1])[2][1:].T  # orthonormal, spans x_k-perp
        cut, v = _cells(x[:k] @ basis)
        u, bits = v @ basis.T, 1 << np.arange(k)
        keep = ~np.isin((signs > 0) @ bits, (cut > 0) @ bits)
        nudge = 0.5 * np.min(np.abs(u @ x[:k].T), axis=1)[:, None] * xk[k] / max(
            np.max(np.abs(x[:k] @ xk[k])), norms[k])
        one = np.ones((len(cut), 1))
        signs, w = _decide(x[:k + 1], np.vstack([
            np.hstack([signs[keep], np.where(w[keep] @ x[k] >= 0.0, 1.0, -1.0)[:, None]]),
            np.hstack([cut, one]), np.hstack([cut, -one])]),
            np.vstack([w[keep], u + nudge, u - nudge]))
    return signs, w


def enumerate_exact(x):
    """Every mask realizable with a strict-interior witness (margin > 1e-9).

    Deletion-restriction (Zaslavsky, 1975): row k splits exactly the cells
    meeting its hyperplane H_k, which are the cells of rows 0..k-1 projected
    onto H_k, listed by the same recursion one dimension lower (closed form
    in the plane); a row parallel to x_k projects to zero and cuts nothing.
    A witness u in H_k gives both children u +- e x_k/|x_k|, where e = half
    u's margin over max(|x_k|, max_i |x_i . x_k|/|x_k|), so no earlier row
    flips; other cells keep theirs. Margins <= 1e-9 go to allones_margin.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] > MAX_EXACT_N:
        raise SizeLimitError("exact enumeration capped at n = %d rows" % MAX_EXACT_N)
    pats = [ArrangementPattern(mask=(s > 0).astype(np.uint8), witness=h)
            for s, h in zip(*_cells(x))]
    ones = any(np.all(p.mask == 1) for p in pats)
    return PatternSet(patterns=pats, contains_all_ones=ones, sampled=False)


def sample_patterns(x, count, seed):
    """Patterns hit by `count` standard-normal directions, with first-seen
    witnesses, plus the all-ones pattern whenever its margin is positive."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if count < 1:
        raise InvalidInputError("need at least one sample direction")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((int(count), d))
    masks = (dirs @ x.T >= 0.0)
    seen = {}
    for row, h in zip(masks, dirs):
        key = row.tobytes()
        if key not in seen:
            seen[key] = ArrangementPattern(mask=row.astype(np.uint8), witness=h)
    t_star, w = allones_margin(x)
    contains = t_star > MARGIN_EPS
    if contains:
        key = np.ones(n, dtype=bool).tobytes()
        if key not in seen:
            seen[key] = ArrangementPattern(mask=np.ones(n, dtype=np.uint8), witness=w)
    return PatternSet(patterns=list(seen.values()), contains_all_ones=contains,
                      sampled=True)


def is_maximal(pattern_set, i):
    """True iff no other mask in the set contains mask i entrywise."""
    masks = pattern_set.masks
    mi = masks[i]
    for j in range(masks.shape[0]):
        if j != i and np.all(masks[j] & mi == mi):
            return False
    return True


def to_text(pattern_set):
    n = len(pattern_set.patterns[0].mask) if pattern_set.patterns else 0
    d = len(pattern_set.patterns[0].witness) if pattern_set.patterns else 0
    lines = ["# patterns v1 n=%d d=%d p=%d sampled=%d all_ones=%d"
             % (n, d, len(pattern_set.patterns), int(pattern_set.sampled),
                int(pattern_set.contains_all_ones))]
    for p in pattern_set.patterns:
        mask = "".join(str(int(b)) for b in p.mask)
        lines.append(mask + " " + " ".join(repr(float(v)) for v in p.witness))
    return "\n".join(lines) + "\n"


def from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# patterns v1 "):
        raise SchemaError("line 1: missing pattern-file header")
    fields = {}
    for tok in lines[0].split()[3:]:
        key, _, val = tok.partition("=")
        fields[key] = val
    try:
        n, d, p = int(fields["n"]), int(fields["d"]), int(fields["p"])
        sampled, ones = bool(int(fields["sampled"])), bool(int(fields["all_ones"]))
    except (KeyError, ValueError) as exc:
        raise SchemaError("line 1: bad header field (%s)" % exc) from exc
    if len(lines) - 1 != p:
        raise SchemaError("header declares %d patterns, file has %d" % (p, len(lines) - 1))
    pats, seen = [], {}
    for ln_no, ln in enumerate(lines[1:], start=2):
        toks = ln.split()
        if len(toks) != 1 + d or len(toks[0]) != n or set(toks[0]) - {"0", "1"}:
            raise SchemaError("line %d: expected %d-bit mask and %d coordinates" % (ln_no, n, d))
        try:
            witness = np.array([float(t) for t in toks[1:]])
        except ValueError as exc:
            raise SchemaError("line %d: bad witness coordinate" % ln_no) from exc
        if not np.isfinite(witness).all():
            raise SchemaError("line %d: witness coordinates must be finite" % ln_no)
        if seen.setdefault(toks[0], ln_no) != ln_no:
            raise SchemaError("line %d: mask repeats line %d" % (ln_no, seen[toks[0]]))
        mask = np.frombuffer(toks[0].encode(), dtype=np.uint8) - ord("0")
        pats.append(ArrangementPattern(mask=mask.astype(np.uint8), witness=witness))
    return PatternSet(patterns=pats, contains_all_ones=ones, sampled=sampled)
