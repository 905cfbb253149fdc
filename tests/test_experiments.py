"""Tests for the Monte-Carlo grid engine: determinism, schema, failure
recording, the beta sweep, plot-script emission, and config parsing."""

import os
import re

import numpy as np
import pytest

from neuriso import experiments as ex
from neuriso.errors import InvalidInputError, SchemaError
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


def test_grid_determinism():
    cfg = mini_cfg(threads=2)
    a = ex.grid_to_csv(ex.run_grid(cfg))
    b = ex.grid_to_csv(ex.run_grid(cfg))

    def strip_wall(text):
        out = []
        for line in text.splitlines():
            cells = line.split(",")
            if cells and cells[0] != "d":
                cells[10] = "-"
            out.append(",".join(cells))
        return "\n".join(out)

    assert strip_wall(a) == strip_wall(b)


def test_grid_thread_count_does_not_change_cells():
    rows1 = ex.run_grid(mini_cfg(threads=1))
    rows3 = ex.run_grid(mini_cfg(threads=3))
    assert [(r.d, r.n, r.sigma, r.trial, r.seed) for r in rows1] == \
           [(r.d, r.n, r.sigma, r.trial, r.seed) for r in rows3]
    assert [r.success for r in rows1] == [r.success for r in rows3]


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
    from neuriso.recovery import build_program
    from neuriso.solvers import solve_group_min_norm

    cfg = sweep_cfg(betas=(0.0,))
    pt = ex.run_beta_sweep(cfg)[0]

    # rebuild the identical instance and solve the interpolation program directly
    inst = ex.build_cell(cfg, d=5, n=20, sigma=0.0, trial=0)
    assert inst.seed == pt.seed
    prob = build_program(inst.x, inst.patterns, inst.y, "reg_grelu_skip", beta=0.0)
    sol = solve_group_min_norm(prob)
    assert len(sol.active_blocks) == pt.active_blocks
    assert int(sol.active_blocks == [0]) == pt.success


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
    ex.write_grid_csv(ex.run_grid(mini_cfg()), str(csv_path))
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
    with pytest.raises(InvalidInputError):
        ex.fit_logistic_midpoint(ns[:1], rates[:1])


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
    direct = ex.run_grid(mini_cfg(threads=2))
    assert [(r.seed, r.success) for r in rows] == [(r.seed, r.success) for r in direct]


def test_config_rejects_nonsense(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nd_values = 4\nn_values = 8\nprogram = nope\n")
    with pytest.raises(InvalidInputError):
        ex.load_config(str(path))
    with pytest.raises(InvalidInputError):
        ex.load_config(str(tmp_path / "missing.cfg"))
