"""Monte-Carlo recovery experiments over (d, n) grids, penalty sweeps, and
plot-script emission.

Every cell is seeded from (master_seed, d, n, sigma index, trial) alone, so
results do not depend on execution order or thread count, and a rerun of the
same config reproduces the same CSV apart from wall-clock timings.  Per-cell
failures (dead plants, solver caps, degenerate stacks) become rows with
success = 0 and a note; the grid itself never aborts.
"""

import configparser
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arrangements import PatternSet, sample_patterns, with_plants
from .ensembles import (MATRIX_KINDS, gen_matrix, gen_observation,
                        linear_plant, normalized_plant, plant_direction,
                        relu_plant)
from .errors import InvalidInputError, NeurisoError, SchemaError
from .isometry import nic_linear, nic_multi, nic_relu_single, nnic_single
from .numerics import unit
from .recovery import PROGRAMS, assess_recovery, build_program, test_distance
from .solvers import (SolverOptions, solve_cone_constrained,
                      solve_group_lasso, solve_group_min_norm)

PLANTS = ("linear", "relu", "normalized_pair")
METRICS = ("success", "abs_distance", "test_distance", "nic_rate")
SKIP_PROGRAMS = ("grelu_skip", "relu_skip_cone", "reg_grelu_skip")
NORMAL_PROGRAMS = ("grelu_normal", "relu_normal_cone")

GRID_HEADER = ("d,n,sigma,trial,seed,success,abs_distance,test_distance,"
               "nic_max_lhs,solver_iterations,wall_ms,note")
SWEEP_HEADER = ("d,n,sigma,beta,trial,seed,success,active_blocks,"
                "abs_distance,wall_ms,note")


@dataclass
class GridConfig:
    d_values: tuple
    n_values: tuple
    trials: int = 5
    ensemble: str = "gaussian"
    plant: str = "linear"
    sigmas: tuple = (0.0,)
    program: str = "grelu_skip"
    master_seed: int = 0
    pattern_count: int = 0  # 0 means max(n, 50)
    success_tol: float = 1e-4
    beta: float = 0.0  # penalty used by grid cells of the penalized program
    betas: tuple = ()  # penalty grid for run_beta_sweep
    threads: int = 0  # 0 means one worker per cpu
    wall_budget_s: float = 60.0
    solver: SolverOptions = None
    out: str = ""

    def __post_init__(self):
        self.d_values = tuple(sorted(int(d) for d in self.d_values))
        self.n_values = tuple(sorted(int(n) for n in self.n_values))
        self.sigmas = tuple(sorted(float(s) for s in self.sigmas))
        self.betas = tuple(sorted(float(b) for b in self.betas))
        if not self.d_values or not self.n_values or not self.sigmas:
            raise InvalidInputError("d_values, n_values, and sigmas must be nonempty")
        for name, vals in (("d_values", self.d_values), ("n_values", self.n_values),
                           ("sigmas", self.sigmas), ("betas", self.betas)):
            if len(set(vals)) != len(vals):
                raise InvalidInputError("%s contains duplicates" % name)
        if min(self.d_values) < 1 or min(self.n_values) < 1:
            raise InvalidInputError("grid dimensions must be positive")
        if self.trials < 1:
            raise InvalidInputError("trials must be at least 1")
        if self.master_seed < 0:
            raise InvalidInputError("master_seed must be nonnegative")
        if self.ensemble not in MATRIX_KINDS:
            raise InvalidInputError("unknown ensemble %r" % (self.ensemble,))
        if self.plant not in PLANTS:
            raise InvalidInputError("unknown plant %r" % (self.plant,))
        if self.program not in PROGRAMS:
            raise InvalidInputError("unknown program %r" % (self.program,))
        if self.sigmas[0] < 0.0 or (self.betas and self.betas[0] < 0.0) or self.beta < 0.0:
            raise InvalidInputError("noise levels and penalties must be nonnegative")
        if self.pattern_count < 0:
            raise InvalidInputError("pattern_count must be nonnegative")
        if self.success_tol <= 0.0 or self.wall_budget_s <= 0.0:
            raise InvalidInputError("success_tol and wall_budget_s must be positive")
        if self.threads < 0:
            raise InvalidInputError("threads must be nonnegative")
        if self.plant == "normalized_pair" and self.program not in NORMAL_PROGRAMS:
            raise InvalidInputError("a normalized plant needs a normalized program")
        if self.plant == "linear" and self.program not in SKIP_PROGRAMS:
            raise InvalidInputError("a linear plant needs a program with a pass-through block")
        if self.solver is None:
            self.solver = SolverOptions()


@dataclass
class CellResult:
    d: int
    n: int
    sigma: float
    trial: int
    seed: int
    success: int
    abs_distance: float
    test_distance: float
    nic_max_lhs: float
    solver_iterations: int
    wall_ms: float
    note: str = ""


@dataclass
class SweepPoint:
    d: int
    n: int
    sigma: float
    beta: float
    trial: int
    seed: int
    success: int
    active_blocks: int
    abs_distance: float
    wall_ms: float
    note: str = ""


@dataclass
class CellInstance:
    x: np.ndarray
    model: object
    y: np.ndarray
    noise: np.ndarray
    patterns: PatternSet
    seed: int
    test_seed: object  # SeedSequence for the held-out draw


def _seed_sequence(cfg, d, n, sigma, trial):
    return np.random.SeedSequence(
        [cfg.master_seed, d, n, cfg.sigmas.index(float(sigma)), trial])


def _cell_seed(cfg, d, n, sigma, trial):
    ss = _seed_sequence(cfg, d, n, sigma, trial)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _build_plant(kind, x, seed, sigma):
    # planted directions are unit-normalized so distances and penalties
    # share one scale across cells
    if kind == "normalized_pair":
        rng = np.random.default_rng(seed)
        a = unit(rng.standard_normal(x.shape[1]))
        b = rng.standard_normal(x.shape[1])
        b = unit(b - (a @ b) * a)
        return normalized_plant([(a, 1.0), (b, 1.0)], sigma)
    w = unit(plant_direction(x, seed))
    return linear_plant(w, sigma) if kind == "linear" else relu_plant(w, sigma)


def build_cell(cfg, d, n, sigma, trial):
    """Deterministically rebuild one cell's data, plant, targets, and patterns."""
    ss = _seed_sequence(cfg, d, n, sigma, trial)
    seed = int(ss.generate_state(1, dtype=np.uint64)[0])
    kid_data, kid_plant, kid_noise, kid_pat, kid_test = ss.spawn(5)
    x = gen_matrix(cfg.ensemble, n, d, seed=kid_data).mat
    model = _build_plant(cfg.plant, x, kid_plant, sigma)
    y, noise = gen_observation(model, x, seed=kid_noise)
    patterns = sample_patterns(x, cfg.pattern_count or max(n, 50), kid_pat)
    if model.variant != "linear":
        # grow the sampled set with the planted cells; random probes almost
        # never land in them, and downstream programs need them present
        patterns = with_plants(x, patterns, [w for w, _ in model.neurons])
    return CellInstance(x=x, model=model, y=y, noise=noise, patterns=patterns,
                        seed=seed, test_seed=kid_test)


def _nic_report(cfg, inst):
    if cfg.plant == "linear":
        return nic_linear(inst.x, inst.model.neurons[0][0], inst.patterns)
    if cfg.plant == "relu":
        check = nnic_single if cfg.program.endswith("_cone") else nic_relu_single
        return check(inst.x, inst.model.neurons[0][0], inst.patterns)
    return nic_multi(inst.x, inst.model.neurons, inst.patterns, normalized=True)


def solve_program(cfg, prob, beta):
    """Solve an assembled program with the solver its family and beta call for."""
    if cfg.program.endswith("_cone"):
        return solve_cone_constrained(prob, cfg.solver)
    if beta > 0.0:
        return solve_group_lasso(prob, cfg.solver)
    return solve_group_min_norm(prob, cfg.solver)


def _note_join(note, extra):
    return "%s; %s" % (note, extra) if note else extra


def _run_cell(cfg, d, n, sigma, trial):
    t0 = time.perf_counter()
    row = dict(d=d, n=n, sigma=sigma, trial=trial,
               seed=_cell_seed(cfg, d, n, sigma, trial), success=0,
               abs_distance=float("nan"), test_distance=float("nan"),
               nic_max_lhs=float("nan"), solver_iterations=0, note="")
    try:
        inst = build_cell(cfg, d, n, sigma, trial)
        try:
            row["nic_max_lhs"] = _nic_report(cfg, inst).max_lhs
        except NeurisoError as exc:
            # the certificate is diagnostic; its failure must not kill the cell
            row["note"] = _note_join(row["note"], "nic failed: %s" % exc)
        beta = cfg.beta if cfg.program == "reg_grelu_skip" else 0.0
        prob = build_program(inst.x, inst.patterns, inst.y, cfg.program, beta=beta)
        sol = solve_program(cfg, prob, beta)
        row["solver_iterations"] = sol.iterations
        verdict = assess_recovery(sol, inst.model, prob, tol=cfg.success_tol)
        row["abs_distance"] = verdict.abs_distance
        if sol.converged:
            row["success"] = int(verdict.success)
        else:
            row["note"] = _note_join(row["note"], "solver hit the iteration cap")
        try:
            x_test = gen_matrix(cfg.ensemble, n, d, seed=inst.test_seed).mat
            row["test_distance"] = test_distance(sol, inst.model, prob, x_test)
        except NeurisoError as exc:
            row["note"] = _note_join(row["note"], "test distance failed: %s" % exc)
    except NeurisoError as exc:
        row["note"] = "%s: %s" % (type(exc).__name__, exc)
    row["wall_ms"] = (time.perf_counter() - t0) * 1e3
    if row["wall_ms"] > cfg.wall_budget_s * 1e3:
        row["note"] = _note_join(row["note"], "wall budget exceeded")
    return CellResult(**row)


def _map_jobs(cfg, worker, jobs):
    workers = cfg.threads or os.cpu_count() or 1
    if workers == 1 or len(jobs) == 1:
        return [worker(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, jobs))


def run_grid(cfg):
    """Run every (d, n, sigma, trial) cell and return rows in canonical order.

    Writes cfg.out as CSV when set.  Failed cells are recorded, never raised."""
    jobs = [(d, n, s, t) for d in cfg.d_values for n in cfg.n_values
            for s in cfg.sigmas for t in range(cfg.trials)]
    rows = _map_jobs(cfg, lambda job: _run_cell(cfg, *job), jobs)
    rows.sort(key=lambda r: (r.d, r.n, r.sigma, r.trial))
    if cfg.out:
        write_grid_csv(rows, cfg.out)
    return rows


def _run_sweep_point(cfg, d, n, sigma, beta, trial):
    t0 = time.perf_counter()
    point = dict(d=d, n=n, sigma=sigma, beta=beta, trial=trial,
                 seed=_cell_seed(cfg, d, n, sigma, trial), success=0,
                 active_blocks=0, abs_distance=float("nan"), note="")
    try:
        inst = build_cell(cfg, d, n, sigma, trial)
        prob = build_program(inst.x, inst.patterns, inst.y, cfg.program, beta=beta)
        sol = solve_program(cfg, prob, beta)
        verdict = assess_recovery(sol, inst.model, prob, tol=cfg.success_tol)
        point["abs_distance"] = verdict.abs_distance
        point["active_blocks"] = len(sol.active_blocks)
        if sol.converged:
            # recovery means the support collapses to the pass-through block
            point["success"] = int(sol.active_blocks == [0])
        else:
            point["note"] = "solver hit the iteration cap"
    except NeurisoError as exc:
        point["note"] = "%s: %s" % (type(exc).__name__, exc)
    point["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return SweepPoint(**point)


def run_beta_sweep(cfg):
    """Sweep the group-lasso penalty over cfg.betas on one (d, n) cell.

    The same instance is re-solved at every beta; beta = 0 falls back to the
    interpolation solver, so that endpoint matches the min-norm verdict."""
    if cfg.program != "reg_grelu_skip":
        raise InvalidInputError("beta sweeps need the penalized program")
    if not cfg.betas:
        raise InvalidInputError("betas must be nonempty")
    if len(cfg.d_values) != 1 or len(cfg.n_values) != 1:
        raise InvalidInputError("beta sweeps use a single (d, n) cell")
    d, n = cfg.d_values[0], cfg.n_values[0]
    jobs = [(s, b, t) for s in cfg.sigmas for b in cfg.betas
            for t in range(cfg.trials)]
    pts = _map_jobs(cfg, lambda job: _run_sweep_point(cfg, d, n, *job), jobs)
    pts.sort(key=lambda p: (p.sigma, p.beta, p.trial))
    if cfg.out:
        write_sweep_csv(pts, cfg.out)
    return pts


# ------------------------------------------------------------------ CSV i/o

def _fmt(v):
    return repr(float(v))


def _clean_note(note):
    return note.replace(",", ";").replace("\n", " ")


def grid_to_csv(rows):
    lines = [GRID_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.d), str(r.n), _fmt(r.sigma), str(r.trial), str(r.seed),
            str(r.success), _fmt(r.abs_distance), _fmt(r.test_distance),
            _fmt(r.nic_max_lhs), str(r.solver_iterations),
            "%.3f" % r.wall_ms, _clean_note(r.note)]))
    return "\n".join(lines) + "\n"


def sweep_to_csv(points):
    lines = [SWEEP_HEADER]
    for p in points:
        lines.append(",".join([
            str(p.d), str(p.n), _fmt(p.sigma), _fmt(p.beta), str(p.trial),
            str(p.seed), str(p.success), str(p.active_blocks),
            _fmt(p.abs_distance), "%.3f" % p.wall_ms, _clean_note(p.note)]))
    return "\n".join(lines) + "\n"


def write_text(text, path):
    """Write text to path, creating the parent directory when needed."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def write_grid_csv(rows, path):
    write_text(grid_to_csv(rows), path)


def write_sweep_csv(points, path):
    write_text(sweep_to_csv(points), path)


# ------------------------------------------------------------------ plots

_GRID_TYPES = (int, int, float, int, int, int, float, float, float, int,
               float, str)


def _validate_grid_csv(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc))
    if not lines or lines[0] != GRID_HEADER:
        raise SchemaError("line 1: expected the grid CSV header")
    names = GRID_HEADER.split(",")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise SchemaError("line %d: expected %d fields, got %d"
                              % (i, len(names), len(parts)))
        row = {}
        for name, typ, raw in zip(names, _GRID_TYPES, parts):
            if typ is str:
                row[name] = raw
                continue
            try:
                row[name] = typ(raw)
            except ValueError:
                raise SchemaError("line %d: field %r is not numeric: %r"
                                  % (i, name, raw))
        if row["success"] not in (0, 1):
            raise SchemaError("line %d: success must be 0 or 1" % i)
        rows.append(row)
    if not rows:
        raise SchemaError("no data rows in %s" % path)
    return rows


_VALUE_EXPRS = {
    "success": 'float(row["success"])',
    "abs_distance": 'float(row["abs_distance"])',
    "test_distance": 'float(row["test_distance"])',
    "nic_rate": '1.0 if float(row["nic_max_lhs"]) < 1.0 else 0.0',
}

_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Heat map of mean %(metric)s over the (d, n) grid, one panel per sigma,
with the n = 2d boundary overlaid.  Generated from %(csv)s."""
import csv
import os
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))
cells = defaultdict(list)
with open(os.path.join(HERE, "%(csv)s")) as fh:
    for row in csv.DictReader(fh):
        key = (float(row["sigma"]), int(row["d"]), int(row["n"]))
        cells[key].append(%(value)s)

sigmas = sorted(set(key[0] for key in cells))
fig, axes = plt.subplots(1, len(sigmas), squeeze=False,
                         figsize=(5 * len(sigmas), 4))
for ax, sigma in zip(axes[0], sigmas):
    ds = sorted(set(k[1] for k in cells if k[0] == sigma))
    ns = sorted(set(k[2] for k in cells if k[0] == sigma))
    grid = [[float("nan")] * len(ds) for _ in ns]
    for (s, d, n), vals in cells.items():
        if s == sigma:
            grid[ns.index(n)][ds.index(d)] = sum(vals) / len(vals)
    im = ax.imshow(grid, origin="lower", aspect="auto", vmin=None, vmax=None,
                   extent=(min(ds) - 0.5, max(ds) + 0.5,
                           min(ns) - 0.5, max(ns) + 0.5))
    ax.plot([min(ds), max(ds)], [2 * min(ds), 2 * max(ds)], "w--",
            label="n = 2d")
    ax.set_xlabel("d")
    ax.set_ylabel("n")
    ax.set_title("sigma = %%g" %% sigma)
    ax.legend(loc="upper left")
    fig.colorbar(im, ax=ax, label="%(metric)s")
fig.tight_layout()
out = os.path.join(HERE, "%(png)s")
fig.savefig(out, dpi=150)
print("wrote " + out)
'''


def emit_plots(csv_path):
    """Write one self-contained heat-map script per metric next to the CSV.

    The CSV is validated first (exact header, field counts, numeric types);
    a malformed file raises SchemaError naming the offending line.  Scripts
    are written, never executed."""
    _validate_grid_csv(csv_path)
    stem, _ = os.path.splitext(csv_path)
    name = os.path.basename(csv_path)
    out = []
    for metric in METRICS:
        script = _PLOT_TEMPLATE % {
            "metric": metric,
            "csv": name,
            "value": _VALUE_EXPRS[metric],
            "png": "%s_%s.png" % (os.path.splitext(name)[0], metric),
        }
        path = "%s_plot_%s.py" % (stem, metric)
        write_text(script, path)
        out.append(path)
    return out


# ------------------------------------------------------------------ fitting

def fit_logistic_midpoint(ns, rates):
    """Least-squares logistic midpoint of a success-rate curve.

    Deterministic grid search over midpoint and scale with two refinement
    rounds; no iterative optimizer, so near-step data cannot diverge."""
    ns = np.asarray(ns, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if ns.shape != rates.shape or ns.ndim != 1 or ns.size < 2:
        raise InvalidInputError("need matching 1-d arrays with at least two points")
    if np.any(rates < -1e-9) or np.any(rates > 1.0 + 1e-9):
        raise InvalidInputError("rates must lie in [0, 1]")
    lo, hi = float(ns.min()), float(ns.max())
    span = max(hi - lo, 1e-9)
    mids = np.linspace(lo, hi, 161)
    scales = np.geomspace(max(span / 200.0, 1e-6), span, 41)
    best_m = lo
    for _ in range(3):
        with np.errstate(over="ignore"):  # exp overflow saturates to rate 0
            fit = 1.0 / (1.0 + np.exp(-(ns - mids[:, None, None]) / scales[None, :, None]))
        sse = ((fit - rates) ** 2).sum(axis=2)
        i, j = np.unravel_index(int(np.argmin(sse)), sse.shape)
        best_m, best_s = float(mids[i]), float(scales[j])
        width = max(float(mids[1] - mids[0]), 1e-9)
        mids = np.linspace(best_m - 2 * width, best_m + 2 * width, 41)
        scales = np.geomspace(max(best_s / 4.0, 1e-9), best_s * 4.0, 21)
    return best_m


# ------------------------------------------------------------------ config

_CONFIG_SCALARS = (("trials", int), ("master_seed", int),
                   ("pattern_count", int), ("threads", int),
                   ("success_tol", float), ("beta", float),
                   ("wall_budget_s", float), ("ensemble", str),
                   ("plant", str), ("program", str), ("out", str))


def load_config(path):
    """Parse a sectioned key = value file into a GridConfig.

    Needs a [grid] section; an optional [solver] section overrides solver
    options.  List values are comma- or space-separated."""
    if not os.path.exists(path):
        raise InvalidInputError("config file not found: %s" % path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise InvalidInputError("bad config file: %s" % exc)
    if "grid" not in parser:
        raise InvalidInputError("config file needs a [grid] section")
    sec = parser["grid"]

    def listed(key, conv, default):
        raw = sec.get(key, "")
        vals = raw.replace(",", " ").split()
        return tuple(conv(v) for v in vals) if vals else default

    try:
        kwargs = dict(d_values=listed("d_values", int, ()),
                      n_values=listed("n_values", int, ()),
                      sigmas=listed("sigmas", float, (0.0,)),
                      betas=listed("betas", float, ()))
        for key, conv in _CONFIG_SCALARS:
            if key in sec:
                kwargs[key] = conv(sec[key])
        if "solver" in parser:
            sol = parser["solver"]
            opts = {}
            for key, conv in (("tol", float), ("max_iter", int)):
                if key in sol:
                    opts[key] = conv(sol[key])
            kwargs["solver"] = SolverOptions(**opts)
    except ValueError as exc:
        raise InvalidInputError("bad config value: %s" % exc)
    return GridConfig(**kwargs)
