"""Tests for the Monte-Carlo grid engine: determinism, schema, failure
recording, the beta sweep, plot-script emission, and config parsing."""

import csv
import itertools
import os
import re
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from neuriso import experiments as ex
from neuriso import isometry as iso
from neuriso.ensembles import MATRIX_KINDS
from neuriso.errors import InvalidInputError, MissingPlantError, SchemaError
from neuriso.recovery import PROGRAMS, _plant_targets, build_program, reconstruct_network
from neuriso.solvers import SolverOptions


def mini_cfg(**kw):
    base = dict(d_values=(4,), n_values=(8, 16), trials=2, ensemble="gaussian",
                plant="linear", sigmas=(0.0,), program="grelu_skip",
                master_seed=7, pattern_count=25)
    base.update(kw)
    return ex.GridConfig(**base)


# ---------------------------------------------------------------- grid mechanics

def test_grid_rows_complete_and_sorted():
    rows = ex.run_grid(mini_cfg())
    assert len(rows) == 1 * 2 * 1 * 2
    keys = [(r.d, r.n, r.sigma, r.trial) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.success in (0, 1)
        assert r.solver_iterations >= 1
        assert r.wall_ms >= 0.0
        assert isinstance(r.seed, int)


def strip_wall(text):
    out = []
    for line in text.splitlines():
        cells = line.split(",")
        if cells and cells[0] != "d":
            cells[10] = "-"
        out.append(",".join(cells))
    return "\n".join(out)


def test_grid_determinism():
    cfg = mini_cfg()
    a = ex.grid_to_csv(ex.run_grid(cfg))
    b = ex.grid_to_csv(ex.run_grid(cfg))
    assert strip_wall(a) == strip_wall(b)


def test_default_executor_is_serial(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the default executor started a thread pool")

    monkeypatch.setattr(ex, "ThreadPoolExecutor", no_pool)
    assert len(ex.run_grid(mini_cfg())) == 4
    assert len(ex.run_beta_sweep(sweep_cfg())) == 3


def test_csv_header_exact():
    text = ex.grid_to_csv(ex.run_grid(mini_cfg()))
    header = text.splitlines()[0]
    assert header == ("d,n,sigma,trial,seed,success,abs_distance,test_distance,"
                      "nic_max_lhs,solver_iterations,wall_ms,note")


def test_mini_linear_transition():
    cfg = mini_cfg(d_values=(8,), n_values=(10, 32), trials=3,
                   pattern_count=40, master_seed=11)
    rows = ex.run_grid(cfg)
    lo = [r.success for r in rows if r.n == 10]
    hi = [r.success for r in rows if r.n == 32]
    assert np.mean(hi) >= 2 / 3
    assert np.mean(lo) <= 1 / 3


def test_nic_success_coupling():
    cfg = mini_cfg(d_values=(6,), n_values=(12, 24, 36), trials=3,
                   pattern_count=40, master_seed=3)
    for r in ex.run_grid(cfg):
        if np.isfinite(r.nic_max_lhs) and r.nic_max_lhs < 1.0 - 1e-8:
            assert r.success == 1


def test_solver_failure_recorded_not_raised():
    cfg = mini_cfg(solver=SolverOptions(tol=1e-8, max_iter=3))
    rows = ex.run_grid(cfg)
    assert len(rows) == 4
    for r in rows:
        assert r.success == 0
        assert r.note != ""


def test_cap_note_keeps_the_nic_note():
    # d > n makes X^T X singular, so the linear NIC fails before the solve
    # hits its one-iteration cap; the row must report both
    cfg = mini_cfg(d_values=(6,), n_values=(4,), trials=1,
                   solver=SolverOptions(max_iter=1))
    (row,) = ex.run_grid(cfg)
    assert row.note.startswith("nic failed: X^T X is singular")
    assert "solver hit the iteration cap" in row.note


def test_failed_cell_by_dead_plant():
    # a relu plant that never fires on the data is recorded, not raised
    cfg = mini_cfg(plant="relu", d_values=(2,), n_values=(3,), trials=1,
                   master_seed=0)
    rows = ex.run_grid(cfg)
    # whatever the plant's fate, the grid must deliver exactly one row
    assert len(rows) == 1


def test_grid_config_validation():
    with pytest.raises(InvalidInputError):
        mini_cfg(trials=0)
    with pytest.raises(InvalidInputError):
        mini_cfg(program="simplex")
    with pytest.raises(InvalidInputError):
        mini_cfg(n_values=())
    with pytest.raises(InvalidInputError):
        mini_cfg(plant="normalized_pair")  # needs a normalized program
    with pytest.raises(InvalidInputError):
        mini_cfg(sigmas=(-0.5,))
    # non-finite levels and thresholds used to run, scoring exact cells as 0
    nan, inf = float("nan"), float("inf")
    for bad in (dict(success_tol=nan), dict(success_tol=inf),
                dict(sigmas=(nan,)), dict(sigmas=(0.0, inf)),
                dict(program="reg_grelu_skip", beta=nan),
                dict(program="reg_grelu_skip", beta=inf),
                dict(program="reg_grelu_skip", betas=(nan, 0.1)),
                dict(program="reg_grelu_skip", betas=(inf,)),
                dict(wall_budget_s=nan)):
        with pytest.raises(InvalidInputError):
            mini_cfg(**bad)
    # beta applies only to the penalized program
    with pytest.raises(InvalidInputError):
        mini_cfg(beta=0.5)
    assert mini_cfg(program="reg_grelu_skip", beta=0.5).beta == 0.5


def test_normalized_pair_cell():
    cfg = mini_cfg(plant="normalized_pair", program="grelu_normal",
                   d_values=(6,), n_values=(36,), trials=2,
                   pattern_count=40, master_seed=5)
    rows = ex.run_grid(cfg)
    assert len(rows) == 2
    assert all(np.isfinite(r.nic_max_lhs) for r in rows)
    assert sum(r.success for r in rows) >= 1


# ---------------------------------------------------------------- beta sweep

def sweep_cfg(**kw):
    base = dict(d_values=(5,), n_values=(20,), trials=1, ensemble="gaussian",
                plant="linear", sigmas=(0.0,), program="reg_grelu_skip",
                master_seed=2, pattern_count=30,
                betas=(0.0, 0.02, 5.0))
    base.update(kw)
    return ex.GridConfig(**base)


def test_beta_sweep_rows_and_endpoints():
    pts = ex.run_beta_sweep(sweep_cfg())
    assert len(pts) == 3
    by_beta = {p.beta: p for p in pts}
    assert by_beta[0.0].success == 1
    assert by_beta[0.0].active_blocks == 1
    assert by_beta[5.0].active_blocks == 0
    assert by_beta[5.0].success == 0
    keys = [(p.sigma, p.beta, p.trial) for p in pts]
    assert keys == sorted(keys)


def test_beta_sweep_zero_matches_min_norm():
    from neuriso.recovery import assess_recovery, build_program
    from neuriso.solvers import solve_group_min_norm

    cfg = sweep_cfg(betas=(0.0,))
    pt = ex.run_beta_sweep(cfg)[0]

    # rebuild the identical instance and solve the interpolation program directly
    inst = ex.build_cell(cfg, d=5, n=20, sigma=0.0, trial=0)
    assert inst.seed == pt.seed
    prob = build_program(inst.x, inst.patterns, inst.y, "reg_grelu_skip", beta=0.0)
    sol = solve_group_min_norm(prob)
    verdict = assess_recovery(sol, inst.model, prob, tol=cfg.success_tol)
    assert len(sol.active_blocks) == pt.active_blocks
    assert verdict.abs_distance == pt.abs_distance
    assert int(verdict.success) == pt.success == 1


def test_beta_sweep_credits_a_relu_plant():
    # success used to mean "only the pass-through block is active", which a
    # relu plant, planted on a pattern block, never meets
    cfg = ex.GridConfig(d_values=(5,), n_values=(30,), trials=3, plant="relu",
                        program="reg_grelu_skip", sigmas=(0.0,), betas=(0.0, 2.0),
                        master_seed=1)
    by_beta = {}
    for p in ex.run_beta_sweep(cfg):
        by_beta.setdefault(p.beta, []).append(p)
    assert [p.success for p in by_beta[0.0]] == [1, 1, 1]
    assert all(p.active_blocks == 1 and p.abs_distance < 1e-6 for p in by_beta[0.0])
    assert [p.success for p in by_beta[2.0]] == [0, 0, 0]


def accepted_pairs():
    pairs = []
    for plant, program in itertools.product(ex.PLANTS, PROGRAMS):
        try:
            mini_cfg(plant=plant, program=program)
        except InvalidInputError:
            continue
        pairs.append((plant, program))
    return pairs


def test_plant_targets_reproduce_the_noise_free_target():
    # the plant's block weights, put through the program's own blocks, give
    # back y: the verdict reads the plant in the coordinates the solver
    # writes (a relu plant in a normalized program is S V^T w in its
    # pattern's basis, not w)
    pairs = accepted_pairs()
    assert len(pairs) == 10
    for plant, program in pairs:
        cfg = mini_cfg(plant=plant, program=program, n_values=(6, 12, 24))
        for n, trial in itertools.product(cfg.n_values, range(cfg.trials)):
            inst = ex.build_cell(cfg, 4, n, 0.0, trial)
            prob = build_program(inst.x, inst.patterns, inst.y, program)
            fit = sum(prob.blocks[b] @ t
                      for b, t in _plant_targets(inst.model, prob.layout).items())
            assert np.linalg.norm(fit - inst.y) <= 1e-12 * np.linalg.norm(inst.y), \
                (plant, program, n, trial)


@pytest.mark.parametrize("program", ex.NORMAL_PROGRAMS)
def test_relu_plant_succeeds_in_a_normalized_program(program):
    # the normalized program recovers the planted relu neuron: one active
    # block, at the plant's basis coordinates, rebuilt along the plant
    cfg = ex.GridConfig(d_values=(4,), n_values=(24, 40), trials=3, plant="relu",
                        program=program, master_seed=1)
    rows = ex.run_grid(cfg)
    assert [r.success for r in rows] == [1] * 6
    assert max(r.abs_distance for r in rows) < 1e-6
    inst = ex.build_cell(cfg, 4, 40, 0.0, 0)
    prob, sol, _ = ex.solve_program(cfg, inst, 0.0)
    (w1,) = reconstruct_network(sol, prob).first_layer
    w = inst.model.neurons[0][0]
    assert w1 @ w / (np.linalg.norm(w1) * np.linalg.norm(w)) > 1.0 - 1e-9


def per_point_sweep(cfg):
    # the pipeline a sweep path replaced: a fresh cell and program per point
    (d,), (n,) = cfg.d_values, cfg.n_values
    rows = []
    for sigma in cfg.sigmas:
        for beta in cfg.betas:
            for trial in range(cfg.trials):
                inst = ex.build_cell(cfg, d, n, sigma, trial)
                _, sol, verdict = ex.solve_program(cfg, inst, beta)
                rows.append(dict(
                    d=d, n=n, sigma=sigma, beta=beta, trial=trial, seed=inst.seed,
                    success=int(verdict.success),
                    active_blocks=len(sol.active_blocks),
                    abs_distance=verdict.abs_distance,
                    note="" if sol.converged else "solver hit the iteration cap"))
    return rows


@pytest.mark.parametrize("master_seed,plant,n", [
    pytest.param(0, "linear", 20, id="0"), pytest.param(2, "linear", 20, id="2"),
    pytest.param(1, "relu", 30, id="relu")])
def test_beta_sweep_paths_equal_the_per_point_pipeline(master_seed, plant, n):
    # a relu plant is planted on a pattern block, so its beta = 0 successes
    # tell the support rule from "only the pass-through block is active"
    cfg = sweep_cfg(sigmas=(0.0, 0.1), betas=(0.0, 0.02, 0.3), trials=2,
                    master_seed=master_seed, plant=plant, n_values=(n,))
    pts = ex.run_beta_sweep(cfg)
    got = [{f.name: getattr(p, f.name) for f in fields(ex.SweepPoint)
            if f.name != "wall_ms"} for p in pts]
    assert got == per_point_sweep(cfg)
    assert all(p.wall_ms > 0.0 for p in pts)
    if plant == "relu":
        assert any(p.success for p in pts if p.beta == 0.0)


def test_grid_cells_and_sweep_points_share_one_rule():
    # a grid cell at beta and the sweep point with the same seed and beta
    # solve the same program, so they must get the same verdict, at beta > 0
    # too, where the lasso shrinks the planted weights
    base = dict(d_values=(10,), n_values=(40,), trials=2, plant="linear",
                sigmas=(0.0, 0.1), program="reg_grelu_skip")
    for master_seed in (0, 1):
        pts = ex.run_beta_sweep(ex.GridConfig(master_seed=master_seed,
                                              betas=(0.0, 0.05, 0.2), **base))
        sweep = {(p.sigma, p.beta, p.trial): (p.success, p.abs_distance) for p in pts}
        for beta in (0.0, 0.05, 0.2):
            cfg = ex.GridConfig(master_seed=master_seed, beta=beta, **base)
            for r in ex.run_grid(cfg):
                assert (r.success, r.abs_distance) == sweep[(r.sigma, beta, r.trial)]
    assert any(p.success for p in pts if p.beta > 0.0)


def test_penalized_grid_cells_succeed_on_support():
    # noisy labels: a penalized cell succeeds once it finds the plant's
    # support, and does so more often as n grows
    cfg = ex.GridConfig(d_values=(10,), n_values=(20, 40, 60), trials=3,
                        sigmas=(0.0, 0.1), program="reg_grelu_skip", beta=0.2)
    rows = ex.run_grid(cfg)
    rate = {n: sum(r.success for r in rows if r.n == n) for n in cfg.n_values}
    assert 0 < rate[20] <= rate[40] <= rate[60] == 6
    assert all(r.abs_distance > 100 * cfg.success_tol for r in rows if r.success)


def test_sweep_points_share_their_path_wall_time(monkeypatch):
    # a clock stepping 0.25 s per reading: each path reads it at its start
    # and its end, so every path takes 250 ms, shared evenly by its points
    ticks = itertools.count(0.0, 0.25)
    monkeypatch.setattr(ex, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    cfg = sweep_cfg(sigmas=(0.0, 0.1), betas=(0.0, 0.02, 0.3), trials=2)
    paths = {}
    for p in ex.run_beta_sweep(cfg):
        paths.setdefault((p.sigma, p.trial), []).append(p.wall_ms)
    assert len(paths) == 4
    for walls in paths.values():
        assert len(walls) == 3 and len(set(walls)) == 1
        assert sum(walls) == pytest.approx(250.0, rel=1e-12)


def test_sweep_path_that_cannot_build_notes_every_point(monkeypatch):
    def no_cell(*args):
        raise MissingPlantError("no cell")

    monkeypatch.setattr(ex, "build_cell", no_cell)
    cfg = sweep_cfg(sigmas=(0.0, 0.1), betas=(0.0, 0.02, 0.3), trials=2)
    pts = ex.run_beta_sweep(cfg)
    assert [(p.sigma, p.beta, p.trial) for p in pts] == [
        (s, b, t) for s in cfg.sigmas for b in cfg.betas for t in range(2)]
    for p in pts:
        assert p.note == "MissingPlantError: no cell"
        assert (p.success, p.active_blocks) == (0, 0) and np.isnan(p.abs_distance)
        assert p.seed == ex._cell_seed(cfg, 5, 20, p.sigma, p.trial)


def test_wall_budget_is_noted_on_cells_and_sweep_points():
    cells = ex.run_grid(mini_cfg(n_values=(8,), trials=1, wall_budget_s=1e-9))
    # sweep points used to ignore the budget and leave their notes empty
    pts = ex.run_beta_sweep(sweep_cfg(betas=(0.0, 0.02), wall_budget_s=1e-9))
    for rec in cells + pts:
        assert rec.note.endswith("wall budget exceeded"), rec
    assert all(p.note == "" for p in ex.run_beta_sweep(sweep_cfg(betas=(0.0,))))


def test_beta_sweep_requires_penalized_program():
    with pytest.raises(InvalidInputError):
        ex.run_beta_sweep(sweep_cfg(program="grelu_skip"))
    with pytest.raises(InvalidInputError):
        ex.run_beta_sweep(sweep_cfg(betas=()))


def test_sweep_csv_header():
    text = ex.sweep_to_csv(ex.run_beta_sweep(sweep_cfg(betas=(0.0,))))
    assert text.splitlines()[0] == ("d,n,sigma,beta,trial,seed,success,"
                                    "active_blocks,abs_distance,wall_ms,note")


# ---------------------------------------------------------------- plot emission

def test_emit_plots_scripts(tmp_path):
    csv_path = tmp_path / "grid.csv"
    ex.write_text(ex.grid_to_csv(ex.run_grid(mini_cfg())), str(csv_path))
    scripts = ex.emit_plots(str(csv_path))
    assert len(scripts) == 4
    header = ex.GRID_HEADER.split(",")
    for path in scripts:
        assert os.path.exists(path)
        text = open(path).read()
        used = set(re.findall(r'row\["([a-z_]+)"\]', text))
        assert used
        assert used <= set(header)
        assert "matplotlib" in text


def test_nic_rate_counts_holds_as_the_report_does(tmp_path):
    # d = 20, n = 40, master seed 0, trial 2 reads an exact all-ones tie
    # that rounds below one; NicReport.holds does not count it
    csv_path = tmp_path / "grid.csv"
    row = "20,40,0.0,{},1,0,0.1,0.1,{},10,1.0,"
    lhs = (0.9999999999999982, 1.0 - iso.STRICT_MARGIN, 0.5)
    csv_path.write_text(ex.GRID_HEADER + "\n" + "\n".join(
        row.format(t, v) for t, v in enumerate(lhs)) + "\n")
    script = next(p for p in ex.emit_plots(str(csv_path)) if p.endswith("nic_rate.py"))
    value = re.search(r"cells\[key\]\.append\((.*)\)\n", open(script).read()).group(1)
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [eval(value, {}, {"row": r}) for r in rows] == [0.0, 0.0, 1.0]


def test_emit_plots_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(ex.GRID_HEADER + "\n1,2,0.0,0,5,1,0.0,0.0,0.5,10,1.0,\n1,2,oops\n")
    with pytest.raises(SchemaError) as err:
        ex.emit_plots(str(bad))
    assert "line 3" in str(err.value)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        ex.emit_plots(str(empty))

    headless = tmp_path / "headless.csv"
    headless.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError):
        ex.emit_plots(str(headless))


# ---------------------------------------------------------------- logistic fit

def test_fit_logistic_midpoint_recovers_synthetic():
    ns = np.arange(10, 61, 5, dtype=float)
    rates = 1.0 / (1.0 + np.exp(-(ns - 25.0) / 3.0))
    mid = ex.fit_logistic_midpoint(ns, rates)
    assert abs(mid - 25.0) < 1.0


def test_fit_logistic_midpoint_step_data():
    ns = np.array([10.0, 20.0, 30.0, 40.0])
    rates = np.array([0.0, 0.0, 1.0, 1.0])
    mid = ex.fit_logistic_midpoint(ns, rates)
    assert 20.0 < mid < 30.0
    # a flat curve used to give a point just outside the n range (16.11, 9.725)
    for flat_ns, flat_rates in (([8, 16], [0, 0]), ([10, 20, 30], [1, 1, 1])):
        assert np.isnan(ex.fit_logistic_midpoint(flat_ns, flat_rates))
    with pytest.raises(InvalidInputError):
        ex.fit_logistic_midpoint(ns[:1], rates[:1])


def test_fit_logistic_midpoint_rejects_nonfinite():
    # a nan rate used to be fitted around (0.9725 here), a nan n to return nan
    for ns, rates in (([1, 2, 3], [0, np.nan, 1]), ([1, np.nan, 3], [0, 0, 1]),
                      ([1, 2, np.inf], [0, 0, 1])):
        with pytest.raises(InvalidInputError):
            ex.fit_logistic_midpoint(ns, rates)


# ---------------------------------------------------------------- config files

def test_config_roundtrip(tmp_path):
    out = str(tmp_path / "runs" / "demo.csv")
    path = tmp_path / "demo.cfg"
    path.write_text(
        "[grid]\n"
        "d_values = 4\n"
        "n_values = 8, 16\n"
        "trials = 2\n"
        "ensemble = gaussian\n"
        "plant = linear\n"
        "sigmas = 0.0\n"
        "program = grelu_skip\n"
        "master_seed = 7\n"
        "pattern_count = 25\n"
        "success_tol = 1e-4\n"
        "threads = 2\n"
        "out = %s\n" % out
    )
    cfg = ex.load_config(str(path))
    assert cfg.d_values == (4,)
    assert cfg.n_values == (8, 16)
    assert cfg.trials == 2
    assert cfg.master_seed == 7
    assert cfg.out == out
    assert cfg.success_tol == 1e-4
    rows = ex.run_grid(cfg)
    assert os.path.exists(out)
    # threads is not a GridConfig field, so the key is ignored like any unknown key
    assert not hasattr(cfg, "threads") and cfg == mini_cfg(out=out)
    direct = ex.run_grid(mini_cfg())
    assert [(r.seed, r.success) for r in rows] == [(r.seed, r.success) for r in direct]

    # the remaining keys, comments of both kinds, and an ignored unknown key
    path.write_text(
        "[grid]\n"
        "d_values = 4\n"
        "n_values = 8\n"
        "program = reg_grelu_skip  ; the penalized program\n"
        "beta = 0.25  # grid-cell penalty\n"
        "betas = 0.5 0.125\n"
        "wall_budget_s = 7.5\n"
        "bogus = 1\n"
        "[solver]\n"
        "tol = 1e-6\n"
        "max_iter = 50\n")
    cfg = ex.load_config(str(path))
    assert (cfg.program, cfg.beta, cfg.betas, cfg.wall_budget_s) == \
        ("reg_grelu_skip", 0.25, (0.125, 0.5), 7.5)
    assert cfg.solver == SolverOptions(tol=1e-6, max_iter=50)


def test_config_rejects_nonsense(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nd_values = 4\nn_values = 8\nprogram = nope\n")
    with pytest.raises(InvalidInputError):
        ex.load_config(str(path))
    with pytest.raises(InvalidInputError):
        ex.load_config(str(tmp_path / "missing.cfg"))


def finite(lo, **kw):
    return st.floats(min_value=lo, max_value=1e300, allow_nan=False, **kw)


@st.composite
def grid_configs(draw):
    ints = st.integers(min_value=1, max_value=10**6)
    program = draw(st.sampled_from(PROGRAMS))
    kwargs = dict(
        d_values=tuple(draw(st.lists(ints, min_size=1, max_size=3, unique=True))),
        n_values=tuple(draw(st.lists(ints, min_size=1, max_size=3, unique=True))),
        trials=draw(ints), ensemble=draw(st.sampled_from(MATRIX_KINDS)),
        plant=draw(st.sampled_from(ex.PLANTS)), program=program,
        sigmas=tuple(draw(st.lists(finite(0.0), min_size=1, max_size=3, unique=True))),
        master_seed=draw(st.integers(0, 2**63)), pattern_count=draw(st.integers(0, 999)),
        success_tol=draw(finite(0.0, exclude_min=True)),
        beta=draw(finite(0.0)) if program == "reg_grelu_skip" else 0.0,
        betas=tuple(draw(st.lists(finite(0.0), max_size=3, unique=True))),
        wall_budget_s=draw(finite(0.0, exclude_min=True)),
        # a % reads literally; a # or ; after a space (even the one after
        # "="), and only there, starts a comment
        out=draw(st.text("ab_./-%#;", max_size=12).filter(lambda t: not t.startswith(("#", ";")))),
        solver=SolverOptions(tol=draw(finite(0.0, exclude_min=True)),
                             max_iter=draw(ints)))
    try:
        return ex.GridConfig(**kwargs)
    except InvalidInputError:  # a plant and program that do not go together
        assume(False)


def as_text(value):
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=60, deadline=None)
@given(cfg=grid_configs())
def test_config_text_and_flags_load_back_equal(cfg, tmp_path_factory):
    texts = {f.name: as_text(getattr(cfg, f.name))
             for f in fields(ex.GridConfig) if f.name != "solver"}
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    path.write_text("[grid]\n%s\n[solver]\ntol = %r\nmax_iter = %d\n" % (
        "\n".join("%s = %s" % kv for kv in texts.items()),
        cfg.solver.tol, cfg.solver.max_iter))
    assert ex.load_config(str(path)) == cfg
    # flags alone carry every [grid] key; the [solver] section has no flags
    assert ex.load_config(None, texts) == replace(cfg, solver=SolverOptions())
