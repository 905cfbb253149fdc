"""The four benchmark workloads, their output checks, and reference outputs.

A workload runs in rounds.  A round is one complete unit of the paper's
experiment for one master seed: one trial of a phase grid, one beta sweep at
every noise level, or one batch of certified instances.  The master seeds
come from a fixed pool per workload whose outputs at the seed commit are
recorded in reference.json, so every item has a reference verdict; the
benchmark seed only chooses the order in which a run visits the pool.
"""

import json
import os
import time

import numpy as np

from neuriso import arrangements, experiments, isometry, recovery, solvers
from neuriso.errors import NeurisoError
from neuriso.numerics import compact_svd

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
MAX_CONE_ITERATIONS = 100_000  # a cone cell at this count takes minutes


class Item:
    """One timed unit: a grid cell, a sweep point or a certified instance."""

    def __init__(self, wall_ms, verdict, failed):
        self.wall_ms = wall_ms
        self.verdict = verdict
        self.failed = failed


class Round:
    def __init__(self, items, text, ok, detail, rows=()):
        self.items = items
        self.text = text  # outputs minus wall-clock fields, compared to the reference
        self.ok = ok
        self.detail = detail
        self.rows = rows  # grid CellResults, for the checks pooled over a run


# ------------------------------------------------------------ grids

def _strip_wall(csv_text):
    # wall_ms is the one field a pure speedup may change
    lines = csv_text.splitlines()
    col = lines[0].split(",").index("wall_ms")
    return "\n".join(",".join(f for i, f in enumerate(line.split(",")) if i != col)
                     for line in lines) + "\n"


class Grid:
    """Phase grid on the library's default executor (GridConfig.threads unset)."""

    def __init__(self, strata, layouts, check, **common):
        self.strata = strata  # rounds a run completes, for pool_order
        self.layouts = layouts  # one (d, n_values) pair per run_grid call
        self.check_rows = check
        self.common = common

    def round(self, master_seed):
        rows = []
        for d, ns in self.layouts:
            cfg = experiments.GridConfig(d_values=(d,), n_values=ns, trials=1,
                                         master_seed=master_seed, **self.common)
            rows += experiments.run_grid(cfg)
        items = [Item(r.wall_ms, [r.success], bool(r.note)) for r in rows]
        ok, detail = self.check_rows(rows)
        return Round(items, _strip_wall(experiments.grid_to_csv(rows)), ok,
                     dict(detail, max_iterations=max(r.solver_iterations for r in rows)),
                     rows)

    def check_run(self, rounds):
        return self.check_rows([r for rnd in rounds for r in rnd.rows])


def _rate(rows, keep):
    picked = [r.success for r in rows if keep(r)]
    return float(np.mean(picked)) if picked else float("nan")


def check_linear(rows):
    """Criterion 1 facts: no recovery at n <= 1.5d, recovery at n >= 3d, and
    the logistic midpoint in (1.8d, 2.6d) once every n has five trials."""
    ok, detail = True, {}
    for d in sorted({r.d for r in rows}):
        mine = [r for r in rows if r.d == d]
        lo = _rate(mine, lambda r: r.n <= 1.5 * d)
        hi = _rate(mine, lambda r: r.n >= 3 * d)
        ns = sorted({r.n for r in mine})
        trials = min(sum(r.n == n for r in mine) for n in ns)
        ok &= lo <= 0.1 and hi >= 0.9
        detail["d%d" % d] = {"rate_le_1.5d": lo, "rate_ge_3d": hi, "trials": trials}
        if trials >= 5:
            mid = experiments.fit_logistic_midpoint(
                np.array(ns, float),
                np.array([_rate(mine, lambda r, n=n: r.n == n) for n in ns]))
            ok &= 1.8 * d < mid < 2.6 * d
            detail["d%d" % d]["midpoint"] = mid
    return bool(ok), detail


def check_cone(rows):
    """At n >= 5d the sign-cone program recovers the planted ReLU neuron."""
    rate = _rate(rows, lambda r: True)
    return rate >= 0.9, {"success_rate": rate}


# ------------------------------------------------------------ sweep

BETAS = tuple(np.round(np.concatenate([np.linspace(0.0, 0.3, 16),
                                       [0.5, 1.0, 1.5, 2.0]]), 3))


class Sweep:
    """Criterion-9 penalty sweep: one run_beta_sweep per noise level."""

    strata = 2

    def __init__(self, d, n, sigmas, betas):
        self.d, self.n, self.sigmas, self.betas = d, n, sigmas, betas

    def round(self, master_seed):
        items, texts, edges, shape_ok = [], [], {}, True
        for sig in self.sigmas:
            cfg = experiments.GridConfig(
                d_values=(self.d,), n_values=(self.n,), trials=1, plant="linear",
                sigmas=(sig,), program="reg_grelu_skip", betas=self.betas,
                master_seed=master_seed)
            pts = experiments.run_beta_sweep(cfg)
            items += [Item(p.wall_ms, [p.success, p.active_blocks], bool(p.note))
                      for p in pts]
            texts.append(_strip_wall(experiments.sweep_to_csv(pts)))
            by_beta = {p.beta: p for p in pts}
            won = [p.beta for p in pts if p.success]
            edges[sig] = min(won) if won else float("inf")
            top = by_beta[max(self.betas)]
            # failure-success-failure along the penalty axis; without noise
            # the window starts at beta = 0
            first = by_beta[0.0].success == (1 if sig == 0.0 else 0)
            shape_ok &= first and bool(won) and top.success == 0 and top.active_blocks == 0
        rising = all(a < b for a, b in zip([edges[s] for s in self.sigmas],
                                           [edges[s] for s in self.sigmas[1:]]))
        return Round(items, "".join(texts), bool(shape_ok and rising),
                     {"lower_edges": [edges[s] for s in self.sigmas]})

    def check_run(self, rounds):
        return all(r.ok for r in rounds), {}


# ------------------------------------------------------------ certify

def _planted_weights(inst, patterns, prob, kind):
    masks = [p.mask for p in patterns.patterns]
    weights = [np.zeros(np.shape(b)[1]) for b in prob.blocks]
    if kind == "linear":
        weights[0] = inst.model.neurons[0][0]
        return weights
    for w, r in inst.model.neurons:
        pm = (inst.x @ w >= 0.0).astype(np.uint8)
        j = next(i for i, m in enumerate(masks) if np.array_equal(m, pm))
        if kind == "relu":
            weights[1 + j] = w
        else:
            act = np.maximum(inst.x @ w, 0.0)
            sv = compact_svd(pm.astype(float)[:, None] * inst.x)
            weights[j] = r * (sv.u.T @ (act / np.linalg.norm(act)))
    return weights


def _conditions(plant, x, neurons, patterns):
    """(NIC report, certificate kind it must agree with) for each NIC kind
    that applies to the plant; the first pair is the program the plant's
    targets are written for, so only it gets the KKT replay."""
    w = neurons[0][0]
    if plant == "linear":
        return [(isometry.nic_linear(x, w, patterns), "linear")]
    if plant == "relu":
        return [(isometry.nic_relu_single(x, w, patterns), "relu"),
                (isometry.nic_multi(x, neurons, patterns, normalized=False), "relu"),
                (isometry.nnic_single(x, w, patterns), "normalized")]
    return [(isometry.nic_multi(x, neurons, patterns, normalized=True), "normalized"),
            (isometry.nic_multi(x, neurons, patterns, normalized=False), "relu")]


def certify_item(plant, d, n, count, exact, master_seed):
    """Build one instance, run every NIC kind and certificate, and replay the
    KKT system on the planted solution wherever the condition holds.
    Returns the verdict [[NIC kind, holds, certificate strict], ...] and
    whether holds <=> strict, with KKT ok, for every pair."""
    program = "grelu_normal" if plant == "normalized_pair" else "grelu_skip"
    cfg = experiments.GridConfig(d_values=(d,), n_values=(n,), trials=1,
                                 plant=plant, program=program,
                                 master_seed=master_seed, pattern_count=count)
    inst = experiments.build_cell(cfg, d, n, 0.0, 0)
    patterns = arrangements.enumerate_exact(inst.x) if exact else inst.patterns
    neurons = inst.model.neurons
    verdict, ok, certs = [], True, {}
    for i, (rep, kind) in enumerate(_conditions(plant, inst.x, neurons, patterns)):
        if kind not in certs:
            certs[kind] = solvers.build_certificate(inst.x, patterns, neurons, kind)
        cert = certs[kind]
        verdict.append([rep.kind, bool(rep.holds), bool(cert.is_strict)])
        ok &= rep.holds == cert.is_strict
        if rep.holds and i == 0:
            prog = "grelu_normal" if kind == "normalized" else "grelu_skip"
            prob = recovery.build_program(inst.x, patterns, inst.y, prog)
            sol = solvers.BlockSolution(
                weights=_planted_weights(inst, patterns, prob, kind), dual=cert.lam,
                objective=0.0, primal_residual=0.0, dual_residual=0.0,
                cone_violation=0.0, iterations=0, active_blocks=[], converged=True)
            ok &= solvers.verify_kkt(prob, sol, tol=1e-8).ok
    return verdict, bool(ok)


class Certify:
    """Certificates without solves: sampled sets and exact enumerations."""

    strata = 1

    def __init__(self, specs):
        # (plant, d, n, sampled directions, exact); an exact instance samples
        # one direction and then enumerates every pattern
        self.specs = specs

    def round(self, master_seed):
        items, verdicts, ok = [], [], True
        for spec in self.specs:
            t0 = time.perf_counter()
            try:
                # a global lookup, so a tracer patching the module sees the call
                verdict, good = certify_item(*spec, master_seed)
            except NeurisoError as exc:
                verdict, good = ["%s: %s" % (type(exc).__name__, exc)], False
            items.append(Item((time.perf_counter() - t0) * 1e3, verdict, not good))
            verdicts.append(verdict)
            ok &= good
        return Round(items, json.dumps(verdicts) + "\n", bool(ok), {})

    def check_run(self, rounds):
        return all(r.ok for r in rounds), {}


# ------------------------------------------------------------ registry

# Why each workload exists is stated in BENCHMARK.json and README.md.

def _linear(scale):
    d1, d2 = (10, 20) if scale == "full" else (4, 6)
    return Grid(
        3,
        [(d1, tuple(range(d1, 6 * d1 + 1, d1 // 2))),
         (d2, tuple(range(d2, 6 * d2 + 1, d2)))],
        check_linear, plant="linear", program="grelu_skip")


def _cone(scale):
    d, pc = (5, 10) if scale == "full" else (3, 6)
    # ten sampled directions keep a cell near a second; n <= 2d cells can
    # need 1e5 iterations and are left out
    return Grid(
        8,
        [(d, tuple(range(5 * d, 10 * d + 1, d)))],
        check_cone, plant="relu", program="relu_skip_cone", pattern_count=pc)


def _sweep(scale):
    if scale == "full":
        return Sweep(10, 40, (0.0, 0.125, 0.25), BETAS)
    return Sweep(4, 16, (0.0, 0.25), (0.0, 0.1, 0.3, 2.0))


def _certify(scale):
    if scale == "full":
        specs = [("linear", 10, 80, 500, False), ("relu", 10, 80, 500, False),
                 ("normalized_pair", 10, 80, 500, False), ("relu", 3, 12, 1, True)]
    else:
        specs = [("linear", 4, 20, 40, False), ("relu", 4, 20, 40, False),
                 ("normalized_pair", 4, 20, 40, False), ("relu", 2, 6, 1, True)]
    return Certify(specs)


FACTORIES = {"grid-linear": _linear, "grid-cone": _cone, "sweep-lasso": _sweep,
            "certify": _certify}
NAMES = tuple(FACTORIES)


def build(name, scale="full"):
    return FACTORIES[name](scale)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def pool_order(pool, seed, strata):
    """Master seeds in the order a run visits them; round k takes entry k % len.

    The pool is ranked by the recorded CPU cost of each round and cut into
    `strata` groups of neighbours, about as many as a run completes rounds.
    Each stretch of `strata` rounds takes one seed from every group, so the
    mix of cheap and costly rounds, and with it the throughput, does not hinge
    on which seeds a short run happens to draw."""
    rng = np.random.default_rng(seed)
    ranked = sorted(pool, key=lambda ms: (pool[ms]["cost_s"], int(ms)))
    groups = [list(g) for g in np.array_split(ranked, strata)]
    for g in groups:
        rng.shuffle(g)
    firsts = rng.permutation(strata)
    return [groups[j][i] for i in range(len(groups[0])) for j in firsts
            if i < len(groups[j])]
