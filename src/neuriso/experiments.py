"""Monte-Carlo recovery experiments over (d, n) grids, penalty sweeps, and
plot-script emission.

Every cell is seeded from (master_seed, d, n, sigma index, trial) alone, so
results do not depend on execution order, and a rerun of the same config
reproduces the same CSV apart from wall-clock timings.  Per-cell
failures (dead plants, solver caps, degenerate stacks) become rows with
success = 0 and a note; the grid itself never aborts.
"""

import configparser
import os
import time
import typing
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench/spans.py patches this name
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .arrangements import PatternSet, sample_patterns, with_plants
from .ensembles import (MATRIX_KINDS, gen_matrix, gen_observation,
                        linear_plant, normalized_plant, plant_direction,
                        relu_plant)
from .errors import InvalidInputError, NeurisoError, SchemaError
from .isometry import STRICT_MARGIN, nic_linear, nic_multi, nic_relu_single, nnic_single
from .numerics import unit
from .recovery import PROGRAMS, assess_recovery, build_program, test_distance
from .solvers import (SolverOptions, solve_cone_constrained, solve_group_lasso,
                      solve_group_min_norm, solve_lasso_path)

PLANTS = ("linear", "relu", "normalized_pair")
SKIP_PROGRAMS = ("grelu_skip", "relu_skip_cone", "reg_grelu_skip")
NORMAL_PROGRAMS = ("grelu_normal", "relu_normal_cone")


@dataclass
class GridConfig:
    d_values: tuple[int, ...]
    n_values: tuple[int, ...]
    trials: int = 5
    ensemble: str = "gaussian"
    plant: str = "linear"
    sigmas: tuple[float, ...] = (0.0,)
    program: str = "grelu_skip"
    master_seed: int = 0
    pattern_count: int = 0  # 0 means max(n, 50)
    success_tol: float = 1e-4
    beta: float = 0.0  # grid-cell penalty; nonzero only for reg_grelu_skip
    betas: tuple[float, ...] = ()  # penalty grid for run_beta_sweep
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
        if min(self.master_seed, self.pattern_count) < 0:
            raise InvalidInputError("master_seed and pattern_count must be nonnegative")
        for name, known in (("ensemble", MATRIX_KINDS), ("plant", PLANTS),
                            ("program", PROGRAMS)):
            if getattr(self, name) not in known:
                raise InvalidInputError("unknown %s %r" % (name, getattr(self, name)))
        levels = self.sigmas + self.betas + (self.beta,)
        if not np.isfinite(levels + (self.success_tol,)).all():
            raise InvalidInputError("noise levels, penalties and success_tol must be finite")
        if min(levels) < 0.0:
            raise InvalidInputError("noise levels and penalties must be nonnegative")
        if self.beta != 0.0 and self.program != "reg_grelu_skip":
            raise InvalidInputError("a nonzero beta needs the penalized program")
        if not (self.success_tol > 0.0 and self.wall_budget_s > 0.0):
            raise InvalidInputError("success_tol and wall_budget_s must be positive")
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


GRID_HEADER = ",".join(f.name for f in fields(CellResult))


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


def solve_program(cfg, inst, beta):
    """Build cfg.program on a cell at penalty beta, solve it with the solver
    its cones and beta call for, and judge the solution against the plant.

    Returns (prob, sol, verdict)."""
    prob = build_program(inst.x, inst.patterns, inst.y, cfg.program, beta=beta)
    if prob.cones is not None:
        sol = solve_cone_constrained(prob, cfg.solver)
    elif prob.beta > 0.0:
        sol = solve_group_lasso(prob, cfg.solver)
    else:
        sol = solve_group_min_norm(prob, cfg.solver)
    return prob, sol, assess_recovery(sol, inst.model, prob, tol=cfg.success_tol)


def _note_join(note, extra):
    return "%s; %s" % (note, extra) if note else extra


def _stamp(cfg, wall_ms, values, record):
    # the wall time, noted when over budget, and the finished record
    values["wall_ms"] = wall_ms
    if wall_ms > cfg.wall_budget_s * 1e3:
        values["note"] = _note_join(values["note"], "wall budget exceeded")
    return record(**values)


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
        prob, sol, verdict = solve_program(cfg, inst, cfg.beta)
        row.update(success=int(verdict.success), abs_distance=verdict.abs_distance,
                   solver_iterations=sol.iterations)
        if not sol.converged:
            row["note"] = _note_join(row["note"], "solver hit the iteration cap")
        try:
            x_test = gen_matrix(cfg.ensemble, n, d, seed=inst.test_seed).mat
            row["test_distance"] = test_distance(sol, inst.model, prob, x_test)
        except NeurisoError as exc:
            row["note"] = _note_join(row["note"], "test distance failed: %s" % exc)
    except NeurisoError as exc:
        row["note"] = "%s: %s" % (type(exc).__name__, exc)
    return _stamp(cfg, (time.perf_counter() - t0) * 1e3, row, CellResult)


def run_grid(cfg):
    """Run every (d, n, sigma, trial) cell and return rows in canonical order.

    Writes cfg.out as CSV when set.  Failed cells are recorded, never raised."""
    rows = [_run_cell(cfg, d, n, s, t) for d in cfg.d_values for n in cfg.n_values
            for s in cfg.sigmas for t in range(cfg.trials)]
    if cfg.out:
        write_text(grid_to_csv(rows), cfg.out)
    return rows


def _run_sweep_point(cfg, point, prob, sol, model):
    # one beta of a path, judged as the path's program at that beta, given its
    # lasso solution; None stands for beta = 0, the min-norm endpoint, solved here
    try:
        if sol is None:
            sol = solve_group_min_norm(prob, cfg.solver)
        verdict = assess_recovery(sol, model, replace(prob, beta=point["beta"]),
                                  tol=cfg.success_tol)
        point.update(success=int(verdict.success), abs_distance=verdict.abs_distance,
                     active_blocks=len(sol.active_blocks))
        if not sol.converged:
            point["note"] = "solver hit the iteration cap"
    except NeurisoError as exc:
        point["note"] = "%s: %s" % (type(exc).__name__, exc)


def _run_sweep_path(cfg, d, n, sigma, trial):
    # one instance and program, every beta > 0 solved in one lockstep call
    t0 = time.perf_counter()
    seed = _cell_seed(cfg, d, n, sigma, trial)
    points = [dict(d=d, n=n, sigma=sigma, beta=b, trial=trial, seed=seed, success=0,
                   active_blocks=0, abs_distance=float("nan"), note="")
              for b in cfg.betas]
    try:
        inst = build_cell(cfg, d, n, sigma, trial)
        prob = build_program(inst.x, inst.patterns, inst.y, cfg.program)
        betas = [b for b in cfg.betas if b > 0.0]
        lasso = dict(zip(betas, solve_lasso_path(prob, betas, cfg.solver)))
        for point in points:
            _run_sweep_point(cfg, point, prob, lasso.get(point["beta"]), inst.model)
    except NeurisoError as exc:  # no instance or set-up: every point notes why
        points = [dict(p, note="%s: %s" % (type(exc).__name__, exc)) for p in points]
    wall_ms = (time.perf_counter() - t0) * 1e3 / len(points)
    return [_stamp(cfg, wall_ms, p, SweepPoint) for p in points]


def run_beta_sweep(cfg):
    """Sweep the group-lasso penalty over cfg.betas on one (d, n) cell.

    Each (sigma, trial) pair is one path: one instance and program, every
    beta > 0 solved in lockstep by one `solve_lasso_path` call and beta = 0 by
    the min-norm solver, each judged against the plant. A point's wall_ms is
    its path's wall time divided by the path's point count; rows come in
    (sigma, beta, trial) order."""
    if cfg.program != "reg_grelu_skip":
        raise InvalidInputError("beta sweeps need the penalized program")
    if not cfg.betas:
        raise InvalidInputError("betas must be nonempty")
    if len(cfg.d_values) != 1 or len(cfg.n_values) != 1:
        raise InvalidInputError("beta sweeps use a single (d, n) cell")
    d, n = cfg.d_values[0], cfg.n_values[0]
    paths = [_run_sweep_path(cfg, d, n, s, t) for s in cfg.sigmas for t in range(cfg.trials)]
    pts = sorted(sum(paths, []), key=lambda p: (p.sigma, p.beta, p.trial))
    if cfg.out:
        write_text(sweep_to_csv(pts), cfg.out)
    return pts


# ------------------------------------------------------------------ CSV i/o

def _csv_field(f, value):
    if f.name == "wall_ms":
        return "%.3f" % value
    if f.type is float:
        return repr(float(value))
    if f.type is str:
        return value.replace(",", ";").replace("\n", " ")
    return str(value)


def _to_csv(records, cls):
    cols = fields(cls)
    lines = [",".join(f.name for f in cols)]
    lines += [",".join(_csv_field(f, getattr(r, f.name)) for f in cols)
              for r in records]
    return "\n".join(lines) + "\n"


def grid_to_csv(rows):
    return _to_csv(rows, CellResult)


def sweep_to_csv(points):
    return _to_csv(points, SweepPoint)


def write_text(text, path):
    """Write text to path, creating the parent directory when needed."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


# ------------------------------------------------------------------ plots

def _validate_grid_csv(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc))
    if not lines or lines[0] != GRID_HEADER:
        raise SchemaError("line 1: expected the grid CSV header")
    cols = fields(CellResult)
    data = [(i, line.split(",")) for i, line in enumerate(lines[1:], start=2)
            if line.strip()]
    if not data:
        raise SchemaError("no data rows in %s" % path)
    for i, parts in data:
        if len(parts) != len(cols):
            raise SchemaError("line %d: expected %d fields, got %d"
                              % (i, len(cols), len(parts)))
        row = {}
        for f, raw in zip(cols, parts):
            try:
                row[f.name] = f.type(raw)
            except ValueError:
                raise SchemaError("line %d: field %r is not numeric: %r"
                                  % (i, f.name, raw))
        if row["success"] not in (0, 1):
            raise SchemaError("line %d: success must be 0 or 1" % i)


_VALUE_EXPRS = {
    "success": 'float(row["success"])',
    "abs_distance": 'float(row["abs_distance"])',
    "test_distance": 'float(row["test_distance"])',
    # NicReport.holds' rule: an exact tie that rounds below one does not hold
    "nic_rate": '1.0 if float(row["nic_max_lhs"]) < %r else 0.0' % (1.0 - STRICT_MARGIN),
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
    for metric, value in _VALUE_EXPRS.items():
        script = _PLOT_TEMPLATE % {
            "metric": metric,
            "csv": name,
            "value": value,
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
    rounds; no iterative optimizer, so near-step data cannot diverge.  A flat
    curve (every rate equal) has no midpoint and gives nan."""
    ns = np.asarray(ns, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if ns.shape != rates.shape or ns.ndim != 1 or ns.size < 2:
        raise InvalidInputError("need matching 1-d arrays with at least two points")
    if not (np.isfinite(ns).all() and np.isfinite(rates).all()):
        raise InvalidInputError("ns and rates must be finite")
    if np.any(rates < -1e-9) or np.any(rates > 1.0 + 1e-9):
        raise InvalidInputError("rates must lie in [0, 1]")
    if np.ptp(rates) == 0.0:
        return float("nan")
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

def _section_kwargs(sec, cls):
    """Keyword arguments for cls from the keys of sec named after its fields,
    each parsed by its declared type; a tuple[t, ...] splits on commas and
    spaces, and a required field that is absent reads as empty, so cls
    reports it."""
    kwargs = {}
    for f in fields(cls):
        kind = typing.get_origin(f.type) or f.type
        if kind not in (int, float, str, tuple):
            continue  # a nested options record has its own section
        if f.name in sec or f.default is MISSING:
            raw = sec.get(f.name, "")
            item = typing.get_args(f.type)[0] if kind is tuple else kind
            try:
                kwargs[f.name] = (tuple(map(item, raw.replace(",", " ").split()))
                                  if kind is tuple else kind(raw))
            except ValueError:
                what = "a comma-separated %s list" if kind is tuple else "%s"
                raise InvalidInputError("%s: expected %s, got %r"
                                        % (f.name, what % item.__name__, raw))
    return kwargs


def load_config(path=None, flags=None):
    """Build a GridConfig from a sectioned key = value file and flag texts.

    Each [grid] key is a GridConfig field, and flags maps fields to text in
    the same format; a flag beats the file's key, which beats the field's
    default.  An optional [solver] section sets SolverOptions' fields.  List
    values are comma- or space-separated, # or ; starts a comment in the
    file, and values are read literally (no % interpolation)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    if path is not None:
        if not os.path.exists(path):
            raise InvalidInputError("config file not found: %s" % path)
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise InvalidInputError("bad config file: %s" % exc)
        if "grid" not in parser:
            raise InvalidInputError("config file needs a [grid] section")
    parser.read_dict({"grid": flags or {}})
    kwargs = _section_kwargs(parser["grid"], GridConfig)
    if "solver" in parser:
        kwargs["solver"] = SolverOptions(**_section_kwargs(parser["solver"], SolverOptions))
    return GridConfig(**kwargs)
