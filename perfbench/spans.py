"""Spans around the public entry points of each neuriso module.

A `Tracer` replaces a function by a timing wrapper under the name through
which its caller looks it up (for example `experiments.solve_group_min_norm`
or `solvers.compact_svd`), so nothing under src/ changes and tracing costs
nothing once `unpatch` has run.  Spans live in memory; each records its layer,
start, end, the span that was open on the same thread when it began, and the
item span at the root of that chain, which all spans of one item share.
"""

import functools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import workloads
from neuriso import arrangements, experiments, isometry, recovery, solvers

# functions whose span is one benchmark item: a grid cell, a sweep point, or
# a certified instance
ITEM_SPANS = ("_run_cell", "_run_sweep_point", "certify_item")
SOLVES = ("solve_group_min_norm", "solve_group_lasso", "solve_cone_constrained")
NICS = ("nic_linear", "nic_relu_single", "nnic_single", "nic_multi")
WORD = 8  # bytes per float64


@dataclass
class Span:
    layer: str
    name: str
    start: float
    parent: "Span"
    end: float = 0.0
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.item = self.parent.item if self.parent else self

    @property
    def ms(self):
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._saved = []

    def patch(self, module, attr, layer, info=None):
        """Wrap module.attr; info(args, kwargs, result) adds counts to the span."""
        fn = getattr(module, attr)
        local = self._local
        done = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(layer, attr, time.perf_counter(), stack[-1] if stack else None)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                done.append(span)  # list.append is atomic under the GIL
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def unpatch(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


# ------------------------------------------------------------ span counts

def _shape(prob):
    cols = [np.shape(b)[1] for b in prob.blocks]
    return len(prob.target), cols


def _solve_info(op_bytes):
    def info(args, kwargs, sol):
        n, cols = _shape(args[0])
        return {"iterations": sol.iterations, "blocks": len(cols),
                "active": len(sol.active_blocks), "converged": sol.converged,
                "bytes": op_bytes(n, cols, args[0])}
    return info


def _min_norm_bytes(n, cols, prob):
    # computed, not measured: per iteration A v reads the n x total operator,
    # then the compact SVD factors V (total x r) and U (n x r), r <= n
    total = sum(cols)
    r = min(n, total)
    return WORD * (n * total + total * r + n * r)


def _lasso_bytes(n, cols, prob):
    # A v and A^T r each read the n x total operator once
    return WORD * 2 * n * sum(cols)


def _cone_bytes(n, cols, prob):
    # per block: A_j and its Schur solve M_j (n x r_j each), the Cholesky
    # factor (r_j x r_j), and three passes over the cone matrix C_j when
    # present; plus the n x n Schur factors
    total = 0
    for r, cone in zip(cols, prob.cones):
        total += 2 * n * r + r * r + (3 * n * r if cone is not None else 0)
    return WORD * (total + 2 * n * n)


def _patterns_info(args, kwargs, out):
    return {"patterns": len(out.patterns)}


def _program_info(args, kwargs, prob):
    _, cols = _shape(prob)
    pats = args[1]
    count = len(pats.patterns) if hasattr(pats, "patterns") else len(pats)
    return {"cols": sum(cols), "patterns": count}


def _nic_info(args, kwargs, rep):
    return {"holds": rep.holds}


def _pool_info(args, kwargs, pool):
    return {"workers": kwargs["max_workers"]}


PATCHES = (
    (workloads, "certify_item", "experiments", None),
    (experiments, "_run_cell", "experiments", None),
    (experiments, "_run_sweep_point", "experiments", None),
    (experiments, "build_cell", "experiments", None),
    (experiments, "ThreadPoolExecutor", "experiments", _pool_info),
    (experiments, "gen_matrix", "ensembles", None),
    (experiments, "sample_patterns", "arrangements", _patterns_info),
    (arrangements, "enumerate_exact", "arrangements", _patterns_info),
    (experiments, "nic_linear", "isometry", _nic_info),
    (experiments, "nic_relu_single", "isometry", _nic_info),
    (experiments, "nnic_single", "isometry", _nic_info),
    (experiments, "nic_multi", "isometry", _nic_info),
    (isometry, "nic_linear", "isometry", _nic_info),
    (isometry, "nic_relu_single", "isometry", _nic_info),
    (isometry, "nnic_single", "isometry", _nic_info),
    (isometry, "nic_multi", "isometry", _nic_info),
    (experiments, "build_program", "recovery", _program_info),
    (recovery, "build_program", "recovery", _program_info),
    (experiments, "assess_recovery", "recovery", None),
    (experiments, "test_distance", "recovery", None),
    (experiments, "solve_group_min_norm", "solvers", _solve_info(_min_norm_bytes)),
    (experiments, "solve_group_lasso", "solvers", _solve_info(_lasso_bytes)),
    (experiments, "solve_cone_constrained", "solvers", _solve_info(_cone_bytes)),
    (solvers, "compact_svd", "solvers", None),
    (solvers, "cho_factor", "solvers", None),
    (solvers, "build_certificate", "solvers", None),
    (solvers, "verify_kkt", "solvers", None),
)


def install(tracer):
    for module, attr, layer, info in PATCHES:
        tracer.patch(module, attr, layer, info)


# ------------------------------------------------------------ metrics

def _mean(vals):
    vals = list(vals)
    return float(np.mean(vals)) if vals else 0.0


def layer_metrics(spans, first_round, items, cpu_s, worker_s):
    """Per-module metrics from the spans of all traced rounds.

    `_ms` metrics are milliseconds per item.  Counts that must repeat exactly
    (iterations, holds_frac, patterns_per_cell, program_cols, op bytes) come
    from `first_round`, the spans of the first traced round, which every run
    with the same seed completes.  Ratios without a single sample read 0."""
    def named(names, pool=spans):
        # a call that raised has no counts
        return [s for s in pool if s.name in names and s.info]

    def per_item(names, pool=spans):
        return sum(s.ms for s in pool if s.name in names) / max(items, 1)

    solves = named(SOLVES)
    setup = [s for s in spans if s.name in ("compact_svd", "cho_factor")
             and s.parent is not None and s.parent.name in SOLVES]
    iters = sum(s.info["iterations"] for s in solves)
    first_solves = named(SOLVES, first_round)
    roots = [s for s in spans if s.parent is None and s.name in ITEM_SPANS]
    children = {}
    for s in spans:
        if s.parent is not None and s.parent.parent is None:
            children[id(s.parent)] = children.get(id(s.parent), 0.0) + s.ms
    self_ms = sum(r.ms - children.get(id(r), 0.0) for r in roots)
    unit_ms = sum(s.ms for s in solves) - sum(s.ms for s in setup)
    return {
        "ensembles.gen_matrix_ms": (per_item(("gen_matrix",)), "ms"),
        "arrangements.sample_patterns_ms": (per_item(("sample_patterns",)), "ms"),
        "arrangements.enumerate_exact_ms": (per_item(("enumerate_exact",)), "ms"),
        "arrangements.patterns_per_cell": (
            _mean(s.info["patterns"] for s in named(("build_program",), first_round)),
            "count"),
        "isometry.nic_ms": (per_item(NICS), "ms"),
        "isometry.holds_frac": (
            _mean(s.info["holds"] for s in named(NICS, first_round)), "ratio"),
        "recovery.build_program_ms": (per_item(("build_program",)), "ms"),
        "recovery.program_cols": (
            _mean(s.info["cols"] for s in named(("build_program",), first_round)),
            "count"),
        "recovery.assess_ms": (per_item(("assess_recovery", "test_distance")), "ms"),
        "solvers.solve_ms": (per_item(SOLVES), "ms"),
        "solvers.setup_ms": (sum(s.ms for s in setup) / max(items, 1), "ms"),
        "solvers.iterations": (_mean(s.info["iterations"] for s in first_solves),
                               "count"),
        "solvers.us_per_iter": (unit_ms * 1e3 / iters if iters else 0.0, "us"),
        "solvers.op_bytes_per_iter": (
            _mean(s.info["bytes"] for s in first_solves), "B"),
        "solvers.active_block_frac": (
            _mean(s.info["active"] / s.info["blocks"] for s in solves), "ratio"),
        "solvers.converged_frac": (_mean(s.info["converged"] for s in solves),
                                   "ratio"),
        "solvers.certificate_ms": (per_item(("build_certificate",)), "ms"),
        "solvers.verify_kkt_ms": (per_item(("verify_kkt",)), "ms"),
        "experiments.build_cell_ms": (per_item(("build_cell",)), "ms"),
        "experiments.cpu_util": (cpu_s / worker_s if worker_s else 0.0, "ratio"),
        "experiments.self_ms": (self_ms / max(items, 1), "ms"),
    }


def workers(spans):
    """Executor width of a traced round: the pool's max_workers, else serial."""
    pools = [s.info["workers"] for s in spans if s.name == "ThreadPoolExecutor"]
    return max(pools) if pools else 1
