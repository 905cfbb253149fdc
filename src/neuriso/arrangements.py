"""Diagonal arrangement patterns of a data matrix.

A pattern is the 0/1 activation mask I(Xh >= 0) of some nonzero direction h.
The set of patterns realizable with a strict-interior witness partitions the
direction space; this module samples that set, enumerates it exactly for
small n, and solves the all-ones feasibility margin used by the experiment
protocols.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, InvalidInputError, MissingPlantError,
                     SchemaError, SizeLimitError)

MARGIN_EPS = 1e-9  # strict-realizability threshold on the unit-ball margin
MAX_EXACT_N = 18  # row cap of exact enumeration


@dataclass
class ArrangementPattern:
    mask: np.ndarray  # (n,) uint8
    witness: np.ndarray  # (d,) direction with pattern_of(x, witness) == mask


@dataclass
class PatternSet:
    """Arrangement patterns in lexicographic mask order.

    The set owns the pattern order: it sorts its patterns on construction and
    stacks their masks as the (p, n) uint8 matrix `masks`, whose row j is
    pattern j; `index(mask)` finds a mask's row in O(1).
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

    def index(self, mask):
        """Row of `mask` in `masks`, or -1 when the set lacks it."""
        return self._rows.get(np.asarray(mask, dtype=np.uint8).tobytes(), -1)


def pattern_of(x, h):
    """Activation mask of direction h: entry i is 1 iff x_i . h >= 0."""
    h = np.asarray(h, dtype=float)
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
    # Wolfe's minimum-norm-point algorithm over conv(rows of pts).
    # Finitely terminating, so t* = 0 cases come out exact.
    pts = np.asarray(pts, dtype=float)
    k = pts.shape[0]
    scale = max(1.0, float(np.max(np.sum(pts * pts, axis=1))))
    sel = [int(np.argmin(np.sum(pts * pts, axis=1)))]
    lam = np.array([1.0])
    for _ in range(16 * k + 100):
        v = lam @ pts[sel]
        dots = pts @ v
        vv = float(v @ v)
        i_star = int(np.argmin(dots))
        if dots[i_star] >= vv - 1e-12 * scale or vv <= 1e-30 * scale:
            return v
        if i_star in sel:  # numerically stalled at optimum
            return v
        sel.append(i_star)
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
    raise AccuracyError("min-norm point search did not terminate")


def allones_margin(x):
    """Largest t with Xw >= t*1 over the unit ball, and the maximizing w.

    Solved through the dual: t* is the distance from the origin to the
    convex hull of the rows, attained by the hull's min-norm point. t* is
    always >= 0 (w = 0 is feasible); t* > 0 iff the rows share an open
    halfspace.
    """
    x = np.asarray(x, dtype=float)
    v = _min_norm_point(x)
    u = float(np.linalg.norm(v))
    if u <= MARGIN_EPS:
        return 0.0, np.zeros(x.shape[1])
    w = v / u
    return float(np.min(x @ w)), w


def enumerate_exact(x):
    """Every mask realizable with a strict-interior witness (margin > 1e-9).

    Cells are grown row by row; a child sign vector inherits its parent's
    witness when that witness already certifies it, and is margin-solved
    otherwise, so only realizable candidates are ever visited.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n > MAX_EXACT_N:
        raise SizeLimitError("exact enumeration capped at n = %d rows" % MAX_EXACT_N)
    cells = [(np.zeros(0), None, np.inf)]  # (sign vector, witness, margin)
    for k in range(n):
        grown = []
        for signs, h, m in cells:
            val = float(x[k] @ h) if h is not None else 0.0
            for sgn in (1.0, -1.0):
                child = np.append(signs, sgn)
                if h is not None and min(m, sgn * val) > MARGIN_EPS:
                    grown.append((child, h, min(m, sgn * val)))
                    continue
                t, w = allones_margin(x[: k + 1] * child[:, None])
                if t > MARGIN_EPS:
                    grown.append((child, w, t))
        cells = grown
    pats = [ArrangementPattern(mask=(signs > 0).astype(np.uint8), witness=h)
            for signs, h, _ in cells]
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
    pats = []
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
        mask = np.frombuffer(toks[0].encode(), dtype=np.uint8) - ord("0")
        pats.append(ArrangementPattern(mask=mask.astype(np.uint8), witness=witness))
    return PatternSet(patterns=pats, contains_all_ones=ones, sampled=sampled)
