"""Recovery judgments and network reconstruction for group-l1 solutions.

Bridges the convex side (block solutions over arrangement patterns) and the
network side (explicit two-layer weights): builds the solve-ready programs,
scores a solution against the planted model, measures test error, rebuilds
a network with balanced neuron scaling, and decides equivalence of networks
up to permutation and splitting.
"""

from dataclasses import dataclass

import numpy as np

from .arrangements import PatternSet, pattern_of
from .ensembles import PlantedModel, gen_observation
from .errors import (InconsistentSolutionError, InvalidInputError,
                     InvalidShapeError, MissingPlantError, NeurisoError,
                     SchemaError)
from .isometry import normalized_target
from .numerics import CompactSvd, as_matrix, compact_svd
from .solvers import GroupProblem

ARCHES = ("plain", "skip", "normalized")
PROGRAMS = ("grelu_skip", "relu_skip_cone", "grelu_normal",
            "relu_normal_cone", "reg_grelu_skip")
MERGE_COS = 1.0 - 1e-10  # first-layer directions closer than this collapse


@dataclass
class NetworkWeights:
    arch: str
    first_layer: list  # d-vectors
    second_layer: list  # reals
    alphas: list = None  # normalized arch only
    linear_flags: list = None  # marks pass-through neurons (skip arch)

    def __post_init__(self):
        if self.arch not in ARCHES:
            raise InvalidInputError("unknown architecture %r" % (self.arch,))
        self.first_layer = [np.asarray(w, dtype=float) for w in self.first_layer]
        self.second_layer = [float(c) for c in self.second_layer]
        m = len(self.first_layer)
        if len(self.second_layer) != m:
            raise InvalidInputError("layer sizes disagree")
        if len({w.shape for w in self.first_layer}) > 1:
            raise InvalidShapeError("first-layer vectors must share a dimension")
        if self.arch == "normalized":
            if self.alphas is None or len(self.alphas) != m:
                raise InvalidInputError("normalized arch needs one alpha per neuron")
            self.alphas = [float(a) for a in self.alphas]
        elif self.alphas is not None:
            raise InvalidInputError("alphas only apply to the normalized arch")
        if self.linear_flags is None:
            self.linear_flags = ([True] + [False] * (m - 1)
                                 if self.arch == "skip" and m else [False] * m)
        self.linear_flags = [bool(f) for f in self.linear_flags]
        if len(self.linear_flags) != m:
            raise InvalidInputError("one linear flag per neuron required")
        if any(self.linear_flags) and self.arch != "skip":
            raise InvalidInputError("linear neurons require the skip arch")


@dataclass
class RecoveryVerdict:
    """`assess_recovery`'s judgment; `success` is the one recovery rule."""

    success: bool
    abs_distance: float
    support_match: bool
    extras: int  # spurious active blocks


@dataclass
class ProgramLayout:
    """Which block of a build_program problem is which.

    Block 0 is the pass-through when `skip`. Pattern j of `patterns` owns the
    next block, or the (+, -) pair at 2j, 2j + 1 past the skip block when
    `paired`.
    `whitening` is the compact SVD of X whose left basis stands in for X
    (reg_grelu_skip); `bases` is `patterns.bases(x)`, the pattern set's
    shared, read-only compact SVD of D_j X per pattern, whose left bases are
    the normalized programs' blocks. It is None for gated programs.
    `basis` and `to_x` are the one map from a block's weights to X.
    """

    x: np.ndarray
    patterns: PatternSet
    skip: bool
    paired: bool
    whitening: CompactSvd = None
    bases: list = None  # CompactSvd per pattern

    def block(self, j, negative=False):
        return int(self.skip) + (2 * j + int(negative) if self.paired else j)

    def pattern(self, b):
        """(pattern index, negative copy) of a pattern block."""
        k = b - int(self.skip)
        return (k // 2, k % 2 == 1) if self.paired else (k, False)

    def basis(self, b):
        """Compact SVD U S V^T behind block b's coordinates: its pattern's
        basis in a normalized program, the whitening in reg_grelu_skip, else
        None (the block reads X). Weights t stand for the direction V(t / S)."""
        return self.whitening if self.bases is None else self.bases[self.pattern(b)[0]]

    def to_x(self, b, w):
        """Block b's weights as a direction of X."""
        sv, w = self.basis(b), np.asarray(w, dtype=float)
        if sv is not None and w.shape != (sv.rank,):
            raise InvalidInputError("block %d does not hold basis coordinates" % b)
        return w if sv is None else sv.v @ (w / sv.s)


def build_program(x, patterns, y, program, beta=0.0):
    """Assemble the group problem for one program family.

    grelu_skip        linear block plus one gated block per pattern, beta = 0
    relu_skip_cone    linear block plus a sign-constrained (+/-) pair per pattern
    grelu_normal      one orthonormal column basis per pattern, beta = 0
    relu_normal_cone  sign-constrained pairs of the orthonormal bases
    reg_grelu_skip    grelu_skip in whitened coordinates with a group penalty

    The problem's `layout` records the block order for the verdicts.
    """
    mat = as_matrix(x)
    y = np.asarray(y, dtype=float)
    if y.shape != (mat.shape[0],):
        raise InvalidShapeError("target length must match the row count")
    if program not in PROGRAMS:
        raise InvalidInputError("unknown program %r" % (program,))
    if program != "reg_grelu_skip" and beta != 0.0:
        raise InvalidInputError("%s is an interpolation program; beta must be 0" % program)
    if beta < 0.0:
        raise InvalidInputError("beta must be nonnegative")
    masks = patterns.masks
    layout = ProgramLayout(x=mat, patterns=patterns, skip="_skip" in program,
                           paired=program.endswith("_cone"))

    def problem(blocks, cones=None, beta=0.0):
        return GroupProblem(blocks=blocks, target=y, beta=beta, cones=cones,
                            layout=layout)

    if program == "grelu_skip":
        return problem([mat] + [m[:, None] * mat for m in masks])

    if program == "relu_skip_cone":
        blocks, cones = [mat], [None]
        for m in masks:
            gated = m[:, None] * mat
            cone = (2.0 * m - 1.0)[:, None] * mat
            blocks += [gated, -gated]
            cones += [cone, cone]
        return problem(blocks, cones)

    if program in ("grelu_normal", "relu_normal_cone"):
        layout.bases = patterns.bases(mat)
        if program == "grelu_normal":
            return problem([sv.u for sv in layout.bases])
        blocks, cones = [], []
        for m, sv in zip(masks, layout.bases):
            cone = None
            if sv.rank:
                cone = ((2.0 * m - 1.0)[:, None] * mat) @ (sv.v / sv.s)
            blocks += [sv.u, -sv.u]
            cones += [cone, cone]
        return problem(blocks, cones)

    # reg_grelu_skip: whiten through the column space
    sv = layout.whitening = compact_svd(mat)
    return problem([sv.u] + [m[:, None] * sv.u for m in masks], beta=float(beta))


def _layout(sol, prob):
    if prob.layout is None:
        raise InvalidInputError("the problem carries no block layout; "
                                "assemble it with build_program")
    if len(sol.weights) != len(prob.blocks):
        raise InvalidInputError("the solution has %d blocks, the program %d"
                                % (len(sol.weights), len(prob.blocks)))
    return prob.layout


def _plant_targets(plant, layout):
    """Planted weights mapped into the solution's block coordinates."""
    targets = {}
    for w, r in plant.neurons:
        w = np.asarray(w, dtype=float)
        if plant.variant == "linear":
            if not layout.skip:
                raise InvalidInputError("a linear plant needs a program with a "
                                        "pass-through block")
            b, vec = 0, r * w
        else:
            j = layout.patterns.index(pattern_of(layout.x, w).mask)
            if j < 0:
                raise MissingPlantError("planted pattern missing from the pattern set")
            scale = abs(r) if layout.paired else r
            b, vec = layout.block(j, r < 0), scale * w
        sv = layout.basis(b)
        if plant.variant == "normalized_relu_sum":  # unit coordinates in the basis
            if layout.bases is None:
                raise InvalidInputError("a normalized plant needs a normalized program")
            vec = scale * normalized_target(sv, w)
        elif sv is not None:  # U t = U S V^T w, the block's X w, at t = S V^T w
            vec = sv.s * (sv.v.T @ vec)
        targets[b] = targets.get(b, 0.0) + vec
    return targets


def assess_recovery(sol, plant, prob, tol=1e-4):
    """Judge a block solution of `prob` against the planted model.

    Success needs a converged solve whose active set is the planted block set
    and, at beta = 0 only, a stacked weight distance below tol relative to the
    plant's own block norm, both read in the program's own block coordinates.
    """
    targets = _plant_targets(plant, _layout(sol, prob))
    gap = scale = 0.0
    for b, vec in targets.items():
        if sol.weights[b].shape != vec.shape:
            raise InvalidInputError("block %d does not hold the plant's coordinates" % b)
        gap += float(np.sum((sol.weights[b] - vec) ** 2))
        scale += float(np.sum(vec ** 2))
    dist = float(np.sqrt(gap))
    planted = sorted(targets)
    support = sorted(sol.active_blocks) == planted
    extras = len(set(sol.active_blocks) - set(planted))
    close = prob.beta > 0.0 or dist < tol * np.sqrt(scale)
    return RecoveryVerdict(success=bool(sol.converged and support and close),
                           abs_distance=dist, support_match=support, extras=extras)


def test_distance(sol, plant, prob, x_test):
    """l2 gap between the solution's prediction on fresh data and the
    noiseless plant output there.

    Gated programs predict directly from the block weights (the signed relu
    sum plus any pass-through term); normalized programs go through network
    reconstruction.
    """
    layout = _layout(sol, prob)
    xt = as_matrix(x_test)
    clean = PlantedModel(variant=plant.variant, neurons=plant.neurons,
                         noise_sigma=0.0)
    truth, _ = gen_observation(clean, xt, seed=0)
    if layout.bases is not None:
        net = reconstruct_network(sol, prob)
        return float(np.linalg.norm(predict(net, xt) - truth))

    pred = np.zeros(xt.shape[0])
    for b in sol.active_blocks:
        w = layout.to_x(b, sol.weights[b])
        if layout.skip and b == 0:
            pred += xt @ w
        else:
            sign = -1.0 if layout.pattern(b)[1] else 1.0
            pred += sign * np.maximum(xt @ w, 0.0)
    return float(np.linalg.norm(pred - truth))


def reconstruct_network(sol, prob):
    """Explicit two-layer network from the active blocks.

    Every active block becomes a neuron with balanced scaling ||w1|| = |w2|
    (normalized arch: alpha = w2 = sqrt of the block norm). Gated programs
    give the skip arch, normalized ones the normalized arch. Active gated
    blocks must respect their pattern: the sign profile of X w has to match
    the mask, else the block never came from a feasible network.
    """
    layout = _layout(sol, prob)
    mat = layout.x
    normalized = layout.bases is not None
    first, second, alphas, flags = [], [], [], []
    for b in sorted(sol.active_blocks):
        w1 = layout.to_x(b, sol.weights[b])
        linear = layout.skip and b == 0
        negative = False
        if not linear:  # the pass-through block has no pattern to respect
            j, negative = layout.pattern(b)
            mask, z = layout.patterns.masks[j], mat @ w1
            slack = 1e-8 * max(1.0, float(np.max(np.abs(z))))
            if np.any(z[mask == 1] < -slack) or np.any(z[mask == 0] > slack):
                raise InconsistentSolutionError(
                    "active block %d violates its arrangement pattern" % b)
        if normalized:
            root = np.sqrt(np.linalg.norm(sol.weights[b]))
            first.append(w1 / np.linalg.norm(w1) * root)
        else:
            root = np.sqrt(np.linalg.norm(w1))
            first.append(w1 / root)
        second.append(-root if negative else root)
        alphas.append(root)
        flags.append(linear)
    return NetworkWeights(arch="normalized" if normalized else "skip",
                          first_layer=first, second_layer=second,
                          alphas=alphas if normalized else None,
                          linear_flags=flags)


def predict(net, xs):
    """Forward pass of the two-layer network on rows of xs."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape[0])
    for k, (w1, w2) in enumerate(zip(net.first_layer, net.second_layer)):
        z = xs @ w1
        if net.arch == "normalized":
            act = np.maximum(z, 0.0)
            nrm = np.linalg.norm(act)
            if nrm > 0.0:  # a dead neuron contributes nothing
                out += net.alphas[k] * w2 * (act / nrm)
        elif net.linear_flags[k]:
            out += w2 * z
        else:
            out += w2 * np.maximum(z, 0.0)
    return out


def split_network(net, group, gammas):
    """Replace one neuron by positively scaled copies (weights sqrt(gamma))."""
    gammas = [float(g) for g in gammas]
    if any(g < 0.0 for g in gammas):
        raise InvalidInputError("split weights must be nonnegative")
    if abs(sum(gammas) - 1.0) > 1e-9:
        raise InvalidInputError("split weights must sum to one")
    if not 0 <= group < len(net.first_layer):
        raise InvalidInputError("no neuron at index %d" % group)
    first, second, alphas, flags = [], [], [], []
    for i, (w1, w2) in enumerate(zip(net.first_layer, net.second_layer)):
        if i != group:
            first.append(w1)
            second.append(w2)
            flags.append(net.linear_flags[i])
            if net.arch == "normalized":
                alphas.append(net.alphas[i])
            continue
        for g in gammas:
            root = np.sqrt(g)
            flags.append(net.linear_flags[i])
            if net.arch == "normalized":
                # the normalized activation ignores first-layer scale
                first.append(w1)
                second.append(root * w2)
                alphas.append(root * net.alphas[i])
            else:
                first.append(root * w1)
                second.append(root * w2)
    return NetworkWeights(arch=net.arch, first_layer=first, second_layer=second,
                          alphas=alphas if net.arch == "normalized" else None,
                          linear_flags=flags)


def _canonical(net, tol):
    """(linear part, merged relu terms) invariant under permutation/splitting."""
    lin = None
    terms = []
    for k, (w1, w2) in enumerate(zip(net.first_layer, net.second_layer)):
        if net.linear_flags[k]:
            lin = (0.0 if lin is None else lin) + w2 * w1
            continue
        nrm = np.linalg.norm(w1)
        coef = (net.alphas[k] * w2 if net.arch == "normalized"
                else float(nrm) * w2)
        if nrm == 0.0 or coef == 0.0:
            continue
        u = w1 / nrm
        for i, (v, c) in enumerate(terms):
            if float(u @ v) > MERGE_COS:
                terms[i] = (v, c + coef)
                break
        else:
            terms.append((u, coef))
    top = max((abs(c) for _, c in terms), default=0.0)
    terms = [(u, c) for u, c in terms if abs(c) > tol * max(1.0, top)]
    terms.sort(key=lambda t: tuple(t[0]))
    return lin, terms


def is_equivalent(a, b, tol=1e-9):
    """Same function up to neuron permutation and splitting."""
    if (a.arch == "normalized") != (b.arch == "normalized"):
        return False
    lin_a, ta = _canonical(a, tol)
    lin_b, tb = _canonical(b, tol)
    za = lin_a is None or not np.any(lin_a != 0.0)
    zb = lin_b is None or not np.any(lin_b != 0.0)
    if za != zb:
        return False
    if not za:
        ref = max(1.0, float(np.linalg.norm(lin_a)), float(np.linalg.norm(lin_b)))
        if np.linalg.norm(lin_a - lin_b) > tol * ref:
            return False
    if len(ta) != len(tb):
        return False
    used = [False] * len(tb)
    for u, c in ta:
        for i, (v, cv) in enumerate(tb):
            if used[i]:
                continue
            if float(u @ v) > MERGE_COS and abs(c - cv) <= tol * max(1.0, abs(c), abs(cv)):
                used[i] = True
                break
        else:
            return False
    return True


def network_to_text(net):
    """Versioned text form: one header, then one row per neuron."""
    m = len(net.first_layer)
    d = net.first_layer[0].size if m else 0
    lines = ["network-v1 %s %d %d" % (net.arch, m, d)]
    for k in range(m):
        alpha = repr(float(net.alphas[k])) if net.arch == "normalized" else "-"
        row = " ".join(repr(float(v)) for v in net.first_layer[k])
        lines.append("%d %s %s %s" % (int(net.linear_flags[k]),
                                      repr(float(net.second_layer[k])), alpha, row))
    return "\n".join(lines) + "\n"


def network_from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaError("empty network file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "network-v1" or head[1] not in ARCHES:
        raise SchemaError("bad network header %r" % (lines[0],))
    try:
        m, d = int(head[2]), int(head[3])
    except ValueError:
        raise SchemaError("bad network header %r" % (lines[0],))
    if len(lines) - 1 != m:
        raise SchemaError("expected %d neuron rows, found %d" % (m, len(lines) - 1))
    first, second, alphas, flags = [], [], [], []
    for ln in lines[1:]:
        tok = ln.split()
        if len(tok) != 3 + d or tok[0] not in ("0", "1"):
            raise SchemaError("bad neuron row %r" % (ln,))
        try:
            second.append(float(tok[1]))
            if tok[2] != "-":
                alphas.append(float(tok[2]))
            first.append(np.array([float(t) for t in tok[3:]]))
        except ValueError:
            raise SchemaError("bad neuron row %r" % (ln,))
        flags.append(tok[0] == "1")
    if not all(np.isfinite(v).all() for v in [second, alphas] + first):
        raise SchemaError("network weights and alphas must be finite")
    if alphas and len(alphas) != m:
        raise SchemaError("alphas must be present on every row or none")
    if alphas and head[1] != "normalized":
        raise SchemaError("alphas only apply to the normalized arch")
    try:
        return NetworkWeights(arch=head[1], first_layer=first, second_layer=second,
                              alphas=alphas if head[1] == "normalized" else None,
                              linear_flags=flags)
    except NeurisoError as exc:
        raise SchemaError("inconsistent network file: %s" % exc)
