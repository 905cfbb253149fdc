"""Command-line interface tests: exit codes, key=value output, file
artifacts, and rerun determinism."""

import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import neuriso
from neuriso import cli, experiments as ex
from neuriso.cli import dispatch

SUBCOMMANDS = ("arrangements", "nic", "solve", "reconstruct", "phase",
               "beta-sweep", "theory", "gmm-check")


def kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            pairs[key.strip()] = val.strip()
    return pairs


def package_env():
    # a child interpreter that imports this checkout's neuriso
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(neuriso.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_2(capsys):
    assert dispatch([]) == 2
    assert dispatch(["bogus"]) == 2
    assert dispatch(["nic", "--kind", "nope", "--n", "10", "--d", "3"]) == 2
    assert dispatch(["phase"]) == 2  # neither config nor dimensions
    assert dispatch(["phase", "--config", "/no/such/file.cfg"]) == 2
    assert dispatch(["solve", "--program", "grelu_normal", "--plant",
                     "linear", "--n", "10", "--d", "3"]) == 2
    # a non-finite mixture used to run and print bound=nan
    for sep, sigma in (("nan", "1.0"), ("2.0", "inf"), ("nan", "inf")):
        assert dispatch(["gmm-check", "--n1", "5", "--n2", "5", "--d", "3",
                         "--separation", sep, "--sigma", sigma]) == 2
    # a negative noise level used to run and print bound=-0.353...
    assert dispatch(["gmm-check", "--n1", "5", "--n2", "5", "--d", "3",
                     "--separation", "2", "--sigma", "-0.5"]) == 2
    # a negative mixture count used to crash inside numpy
    assert dispatch(["gmm-check", "--n1", "-1", "--n2", "3", "--d", "2",
                     "--separation", "4"]) == 2
    # a negative seed used to end in a SeedSequence traceback with exit 1
    assert dispatch(["gmm-check", "--n1", "5", "--n2", "5", "--d", "3",
                     "--separation", "2", "--seed", "-1"]) == 2
    # a nan threshold used to score an exact cell as a silent failure, and a
    # nan penalty used to run as a sweep point
    assert dispatch(["phase", "--d", "3", "--n", "9", "--trials", "1",
                     "--tol", "nan"]) == 2
    assert dispatch(["beta-sweep", "--d", "3", "--n", "9", "--trials", "1",
                     "--betas", "nan,0.1"]) == 2
    # beta used to be ignored silently outside the penalized program
    assert dispatch(["solve", "--program", "grelu_skip", "--beta", "0.5",
                     "--n", "10", "--d", "3"]) == 2
    # a zero threshold used to fall back to the 1e-4 default in one-shot commands
    assert dispatch(["solve", "--n", "10", "--d", "3", "--tol", "0"]) == 2
    # noise whose squares overflow used to print converged=1, objective=inf
    for sigma in ("1e300", "1e160", "1e155"):
        assert dispatch(["solve", "--n", "6", "--d", "3", "--sigma", sigma]) == 2
    # an infinite tolerance used to skip the bisection and print theta_star=0.25
    assert dispatch(["theory", "theta-star", "--tol", "inf"]) == 2
    # a Haar matrix needs n >= d; the shape error used to exit 1
    assert dispatch(["solve", "--n", "5", "--d", "10", "--ensemble", "haar"]) == 2
    # non-finite theory inputs used to print nan or a made-up binding
    for extra in (["threshold", "--n", "100", "--d", "3", "--sigma2", "nan"],
                  ["threshold", "--n", "100", "--d", "3", "--sigma2", "inf"],
                  ["interval", "--eta", "inf", "--noise", "0.05"],
                  ["interval", "--eta", "1.0", "--noise", "nan"],
                  ["interval", "--noise", "0.05"],
                  # negative curve sizes used to end in a numpy traceback
                  ["curves", "--points", "-1"],
                  ["curves", "--grid-points", "-2"]):
        assert dispatch(["theory"] + extra) == 2
    capsys.readouterr()


@pytest.mark.parametrize("module", ["neuriso", "neuriso.cli"])
def test_python_dash_m_runs_the_command(module):
    # `python -m neuriso.cli` used to run nothing and exit 0, and the package
    # had no `python -m` entry point
    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, timeout=60, env=package_env())
    out = run("gmm-check", "--n1", "5", "--n2", "5", "--d", "3", "--separation", "2",
              "--seed", "-1")
    assert out.returncode == 2 and "--seed must be nonnegative" in out.stderr, out.stderr
    out = run("theory", "theta-star")
    assert out.returncode == 0 and "theta_star=" in out.stdout, out.stderr


# each subcommand's argv without the flag under test; every one of them parses
BASE_ARGV = {
    "arrangements": ["--n", "6", "--d", "3"],
    "nic": ["--kind", "nic-l", "--n", "6", "--d", "3"],
    "solve": ["--n", "6", "--d", "3"],
    "reconstruct": ["--n", "6", "--d", "3", "--out", "net.txt"],
    "phase": ["--d", "3", "--n", "9"],
    "beta-sweep": ["--d", "3", "--n", "9", "--betas", "0.1"],
    "theory": ["theta-star"],
    "gmm-check": ["--n1", "5", "--n2", "5", "--d", "3", "--separation", "2"],
}
FLAG_VALUES = {"--config": "grid.cfg", "--tol": "0.01", "--threads": "2",
               "--program": "grelu_skip", "--seed": "1", "--out": "out.txt"}


# every (subcommand, flag) pair that used to be accepted and then ignored
@pytest.mark.parametrize("command, flag", [
    ("arrangements", "--config"), ("arrangements", "--tol"), ("arrangements", "--threads"),
    ("nic", "--config"), ("nic", "--tol"), ("nic", "--threads"),
    ("solve", "--config"), ("solve", "--threads"),
    ("reconstruct", "--config"), ("reconstruct", "--threads"),
    ("phase", "--threads"), ("beta-sweep", "--threads"),
    ("beta-sweep", "--program"), ("beta-sweep", "--tol"),
    ("theory", "--seed"), ("theory", "--config"), ("theory", "--threads"),
    ("gmm-check", "--out"), ("gmm-check", "--config"), ("gmm-check", "--tol"),
    ("gmm-check", "--threads")])
def test_unread_flags_exit_2(command, flag, capsys):
    argv = [command] + BASE_ARGV[command]
    cli._build_parser().parse_args(argv)
    assert dispatch(argv + [flag, FLAG_VALUES[flag]]) == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


GRID_CFG = ("[grid]\nd_values = 4\nn_values = 8\ntrials = 2\nplant = linear\n"
            "program = reg_grelu_skip\nsigmas = 0\nbetas = 0.5\npattern_count = 25\n"
            "master_seed = 7\nsuccess_tol = 1e-4\nout = file.csv\n")
SHARED_OVERRIDES = [
    (["--d", "5,6"], {"d_values": (5, 6)}), (["--n", "9"], {"n_values": (9,)}),
    (["--trials", "3"], {"trials": 3}), (["--plant", "relu"], {"plant": "relu"}),
    (["--sigmas", "0.25,0"], {"sigmas": (0.0, 0.25)}),
    (["--pattern-count", "30"], {"pattern_count": 30}),
    (["--seed", "11"], {"master_seed": 11}),
    (["--out", "flag.csv"], {"out": "flag.csv"})]


OVERRIDE_CASES = [
    *[("phase", f, e) for f, e in SHARED_OVERRIDES],
    ("phase", ["--tol", "0.01"], {"success_tol": 0.01}),
    ("phase", ["--program", "relu_skip_cone"], {"program": "relu_skip_cone"}),
    # the plant and program flags used to lose to the file's keys
    ("phase", ["--plant", "relu", "--program", "relu_skip_cone"],
     {"plant": "relu", "program": "relu_skip_cone"}),
    *[("beta-sweep", f, e) for f, e in SHARED_OVERRIDES],
    ("beta-sweep", ["--betas", "0.2,0.1"], {"betas": (0.1, 0.2)})]


@pytest.mark.parametrize("command, flags, expect", OVERRIDE_CASES,
                         ids=[" ".join([c] + f) for c, f, _ in OVERRIDE_CASES])
def test_flags_beat_config_keys(command, flags, expect, tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run_grid", lambda cfg: seen.append(cfg) or [])
    monkeypatch.setattr(cli, "run_beta_sweep", lambda cfg: seen.append(cfg) or [])
    path = tmp_path / "grid.cfg"
    path.write_text(GRID_CFG)
    assert dispatch([command, "--config", str(path)]) == 0
    assert dispatch([command, "--config", str(path)] + flags) == 0
    capsys.readouterr()
    from_file, flagged = seen
    assert all(getattr(from_file, k) != v for k, v in expect.items())
    assert flagged == replace(from_file, **expect)


def test_percent_in_config_value_is_literal(tmp_path, monkeypatch, capsys):
    # a % in a config value used to end in an InterpolationSyntaxError traceback
    seen = []
    monkeypatch.setattr(cli, "run_grid", lambda cfg: seen.append(cfg) or [])
    path = tmp_path / "grid.cfg"
    path.write_text("[grid]\nd_values = 4\nn_values = 8\nout = runs/50%.csv\n")
    assert dispatch(["phase", "--config", str(path)]) == 0
    assert dispatch(["phase", "--config", str(path), "--out", "r_50%.csv"]) == 0
    assert dispatch(["phase", "--d", "4", "--n", "8", "--out", "%(d)s.csv"]) == 0
    capsys.readouterr()
    assert [cfg.out for cfg in seen] == ["runs/50%.csv", "r_50%.csv", "%(d)s.csv"]


@pytest.mark.parametrize("argv, message", [
    ("phase --d 3 --n x", "n_values: expected a comma-separated int list, got 'x'"),
    ("beta-sweep --d 3 --n 9 --betas 0.1,y",
     "betas: expected a comma-separated float list, got '0.1,y'"),
    ("phase --config grid.cfg", "trials: expected int, got 'two'")])
def test_bad_values_name_their_key(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.cfg").write_text("[grid]\nd_values = 4\nn_values = 8\ntrials = two\n")
    assert dispatch(argv.split()) == 2
    assert capsys.readouterr().err == "usage error: %s\n" % message


def test_bad_solver_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    for line in ("tol = 0", "max_iter = 0"):
        cfg_path.write_text("[grid]\nd_values = 3\nn_values = 6\ntrials = 1\n"
                            "[solver]\n%s\n" % line)
        assert dispatch(["phase", "--config", str(cfg_path)]) == 2, line
        assert "usage error" in capsys.readouterr().err


def test_help_exists_everywhere(capsys):
    assert dispatch(["--help"]) == 0
    for sub in SUBCOMMANDS:
        assert dispatch([sub, "--help"]) == 0
    capsys.readouterr()


def test_runtime_error_exits_1(tmp_path, capsys):
    # the snic rule rejects non-orthonormal data at run time
    bad = tmp_path / "net.txt"
    code = dispatch(["reconstruct", "--program", "grelu_skip", "--plant",
                     "linear", "--n", "6", "--d", "2", "--seed", "0"])
    assert code == 2  # reconstruct needs --out
    code = dispatch(["nic", "--kind", "nnic-k", "--n", "20", "--d", "10",
                     "--seed", "0"])
    assert code == 1  # rank-deficient stacked system at n = 2d
    err = capsys.readouterr().err
    assert "error" in err.lower()


def test_solve_penalized_program_succeeds_on_support(capsys):
    # the lasso shrinks the planted block by about beta, so a penalized
    # solve is judged by its support; success prints as 0 or 1
    assert dispatch(["solve", "--program", "reg_grelu_skip", "--beta", "0.2",
                     "--n", "60", "--d", "10", "--seed", "0"]) == 0
    pairs = kv(capsys)
    assert (pairs["success"], pairs["support_match"], pairs["converged"]) == ("1", "1", "1")
    assert float(pairs["abs_distance"]) > 0.1


def test_solve_relu_plant_in_a_normalized_program_succeeds(capsys):
    # the verdict reads the plant in its pattern's basis, where the solver
    # writes it, so the one planted block found is a success
    assert dispatch(["solve", "--plant", "relu", "--program", "grelu_normal",
                     "--n", "40", "--d", "4", "--seed", "1"]) == 0
    pairs = kv(capsys)
    assert (pairs["success"], pairs["support_match"], pairs["active_blocks"],
            pairs["iterations"]) == ("1", "1", "1", "486")
    assert float(pairs["abs_distance"]) < 1e-6


def test_reconstruct_infeasible_gated_optimum_hints_cone(tmp_path, capsys):
    # at this seed the gated optimum keeps blocks whose weights violate
    # their own pattern, so no plain ReLU network exists; the error must
    # say so and point at the cone programs, which do work here
    argv = ["--plant", "normalized_pair", "--n", "60", "--d", "10",
            "--seed", "9", "--out", str(tmp_path / "net.txt")]
    assert dispatch(["reconstruct", "--program", "grelu_normal"] + argv) == 1
    err = capsys.readouterr().err
    assert "cone" in err
    assert dispatch(["reconstruct", "--program", "relu_normal_cone"]
                    + argv) == 0
    pairs = kv(capsys)
    assert pairs["neurons"] == "2" and pairs["success"] == "1"


# ---------------------------------------------------------------- theory

def test_theory_theta_star(capsys):
    assert dispatch(["theory", "theta-star"]) == 0
    pairs = kv(capsys)
    assert abs(float(pairs["theta_star"]) - 0.1307583538) < 1e-6
    assert abs(float(pairs["theta_star_inverse"]) - 7.647697) < 1e-3


def test_theory_theta_star_below_float_spacing():
    # a tolerance below the float spacing near theta* used to spin forever
    # once the bisection bracket closed to two adjacent floats
    code = ("from neuriso.cli import dispatch; "
            "raise SystemExit(dispatch(['theory', 'theta-star', '--tol', '1e-300']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=package_env())
    assert out.returncode == 0, out.stderr
    pairs = dict(line.split("=", 1) for line in out.stdout.split())
    assert abs(float(pairs["theta_star"]) - 0.1307583538) < 1e-6


def test_theory_coefficients(capsys):
    assert dispatch(["theory", "coefficients", "--gamma", "0"]) == 0
    pairs = kv(capsys)
    assert abs(float(pairs["c1"]) - 0.25) < 1e-12
    assert abs(float(pairs["c2"]) - 1.0 / (2.0 * np.pi)) < 1e-12
    assert pairs["c3"] == "0.0"


def test_theory_curves(tmp_path, capsys):
    argv = ["theory", "curves", "--out", str(tmp_path), "--points", "11",
            "--grid-points", "5"]
    assert dispatch(argv) == 0
    capsys.readouterr()
    single = (tmp_path / "g_single.csv").read_text()
    pair = (tmp_path / "g_pair.csv").read_text()
    orth = (tmp_path / "g_orth.csv").read_text()
    assert single.splitlines()[0] == "gamma,value"
    assert pair.splitlines()[0] == "gamma,value"
    assert orth.splitlines()[0] == "gamma_a,gamma_b,value"
    assert len(single.splitlines()) == 12
    last = single.splitlines()[-1].split(",")
    assert float(last[0]) == 1.0 and abs(float(last[1]) - 1.0) < 1e-9
    # identical argv, identical bytes
    assert dispatch(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "g_single.csv").read_text() == single
    assert (tmp_path / "g_orth.csv").read_text() == orth


def test_theory_kinematic_and_interval(capsys):
    assert dispatch(["theory", "kinematic", "--n", "40", "--d", "10"]) == 0
    pairs = kv(capsys)
    assert abs(float(pairs["alpha"]) - 1.0 / 1024.0) < 1e-15
    assert pairs["regime"] == "success_whp"
    assert dispatch(["theory", "interval", "--eta", "1.0", "--noise", "0.0",
                     "--gamma", "0.5"]) == 0
    pairs = kv(capsys)
    assert float(pairs["lo"]) == 0.0
    assert float(pairs["hi"]) == 1.0


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # every one-line theory and gmm-check command of the README's sh blocks
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    commands = [line for line in lines
                if line.startswith(("neuriso theory ", "neuriso gmm-check "))
                and not line.endswith("\\")]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert dispatch(shlex.split(command)[1:]) == 0, command
    capsys.readouterr()


def test_readme_config_example_runs(tmp_path, monkeypatch, capsys):
    # the README's ini block, comments included, loads and runs one trial
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "demo.cfg"
    path.write_text(block)
    cfg = ex.load_config(str(path))
    assert (cfg.plant, cfg.program, cfg.trials) == ("linear", "grelu_skip", 5)
    monkeypatch.chdir(tmp_path)
    assert dispatch(["phase", "--config", str(path), "--trials", "1"]) == 0
    pairs = kv(capsys)
    assert int(pairs["cells"]) == len(cfg.d_values) * len(cfg.n_values)
    assert (tmp_path / cfg.out).exists()


def test_readme_python_round_trip_runs():
    # the README's python block, run as written in a fresh interpreter
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    out = subprocess.run([sys.executable, "-c", block], capture_output=True,
                         text=True, timeout=120, env=package_env())
    assert out.returncode == 0, out.stderr
    holds, success, distance = out.stdout.split()
    assert (holds, success) == ("True", "True")
    assert float(distance) < 1e-6


# ---------------------------------------------------------------- one-shot

def test_arrangements_exact_and_sampled(tmp_path, capsys):
    assert dispatch(["arrangements", "--n", "6", "--d", "3", "--seed", "1"]) == 0
    pairs = kv(capsys)
    assert int(pairs["count"]) >= 1
    assert int(pairs["count"]) <= int(pairs["cover_bound"])
    assert pairs["sampled"] == "0"

    out = tmp_path / "pats.txt"
    assert dispatch(["arrangements", "--n", "12", "--d", "4", "--seed", "2",
                     "--count", "30", "--out", str(out)]) == 0
    pairs = kv(capsys)
    assert pairs["sampled"] == "1"
    text = out.read_text()
    from neuriso.arrangements import from_text
    ps = from_text(text)
    assert len(ps.patterns) == int(pairs["count"])


def test_count_help_says_what_0_means(capsys):
    # arrangements used to share the sampling commands' "max(n, 50)", but its
    # --count 0 enumerates exactly, up to MAX_EXACT_N
    def count_help(command):
        assert dispatch([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        return text[text.index("--count PATTERN_COUNT"):]
    assert "enumerates every pattern exactly, for n up to %d" % cli.MAX_EXACT_N \
        in count_help("arrangements")
    assert "max(n, 50)" not in count_help("arrangements")
    for command in ("nic", "solve", "reconstruct"):
        assert "0 (the default) means max(n, 50)" in count_help(command)


def test_nic_matches_library(tmp_path, capsys):
    out = tmp_path / "report.csv"
    argv = ["nic", "--kind", "nic-l", "--ensemble", "haar", "--n", "60",
            "--d", "10", "--seed", "7", "--out", str(out)]
    assert dispatch(argv) == 0
    pairs = kv(capsys)

    from neuriso.isometry import nic_linear
    cfg = ex.GridConfig(d_values=(10,), n_values=(60,), trials=1,
                        ensemble="haar", plant="linear", sigmas=(0.0,),
                        program="grelu_skip", master_seed=7)
    inst = ex.build_cell(cfg, 10, 60, 0.0, 0)
    rep = nic_linear(inst.x, inst.model.neurons[0][0], inst.patterns)
    assert pairs["holds"] == str(int(rep.holds))
    assert abs(float(pairs["max_lhs"]) - rep.max_lhs) < 1e-12
    text = out.read_text()
    assert text.splitlines()[0] == "kind,mask,lhs,holds"
    assert len(text.splitlines()) == len(rep.per_pattern) + 1


def test_snic_requires_orthonormal_ensemble(capsys):
    assert dispatch(["nic", "--kind", "snic-orth", "--ensemble", "gaussian",
                     "--n", "30", "--d", "5"]) == 2
    assert dispatch(["nic", "--kind", "snic-orth", "--ensemble", "haar",
                     "--n", "30", "--d", "5"]) == 0
    capsys.readouterr()


def test_solve_command(tmp_path, capsys):
    out = tmp_path / "blocks.csv"
    argv = ["solve", "--program", "grelu_skip", "--plant", "linear",
            "--n", "30", "--d", "5", "--seed", "3", "--out", str(out)]
    assert dispatch(argv) == 0
    pairs = kv(capsys)
    assert pairs["success"] == "1"
    assert float(pairs["abs_distance"]) < 1e-5
    assert int(pairs["active_blocks"]) == 1
    assert pairs["converged"] == "1"
    lines = out.read_text().splitlines()
    assert lines[0] == "block,norm,active"
    assert sum(int(parts.split(",")[2]) for parts in lines[1:]) == 1
    # norms use the shortest repr, like every other CSV writer here
    assert all(repr(float(f)) == f for f in (ln.split(",")[1] for ln in lines[1:]))


def test_reconstruct_command(tmp_path, capsys):
    out = tmp_path / "net.txt"
    argv = ["reconstruct", "--program", "grelu_skip", "--plant", "linear",
            "--n", "30", "--d", "5", "--seed", "3", "--out", str(out)]
    assert dispatch(argv) == 0
    pairs = kv(capsys)
    assert float(pairs["train_residual"]) < 1e-6

    from neuriso.recovery import network_from_text, predict
    net = network_from_text(out.read_text())
    assert int(pairs["neurons"]) == len(net.first_layer)

    cfg = ex.GridConfig(d_values=(5,), n_values=(30,), trials=1,
                        plant="linear", sigmas=(0.0,), program="grelu_skip",
                        master_seed=3)
    inst = ex.build_cell(cfg, 5, 30, 0.0, 0)
    resid = np.linalg.norm(predict(net, inst.x) - inst.y)
    assert resid < 1e-6


# ---------------------------------------------------------------- experiments

def _strip_wall(text):
    out = []
    for line in text.splitlines():
        cells = line.split(",")
        if cells and cells[0] != "d":
            cells[-2] = "-"
        out.append(",".join(cells))
    return "\n".join(out)


def test_phase_command_with_config(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text(
        "[grid]\nd_values = 4\nn_values = 8, 16\ntrials = 2\n"
        "plant = linear\nprogram = grelu_skip\npattern_count = 25\n"
        "master_seed = 7\n")
    argv = ["phase", "--config", str(cfg_path), "--out", str(out)]
    assert dispatch(argv) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.splitlines()[0] == ex.GRID_HEADER
    assert len(text.splitlines()) == 1 + 4

    assert dispatch(argv) == 0
    capsys.readouterr()
    assert _strip_wall(out.read_text()) == _strip_wall(text)

    direct = ex.run_grid(ex.GridConfig(d_values=(4,), n_values=(8, 16),
                                       trials=2, plant="linear",
                                       program="grelu_skip", pattern_count=25,
                                       master_seed=7))
    assert _strip_wall(ex.grid_to_csv(direct)) == _strip_wall(text)


def test_phase_seed_flag_overrides_config(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    cfg_path = tmp_path / "demo.cfg"
    cfg_path.write_text(
        "[grid]\nd_values = 4\nn_values = 8\ntrials = 1\n"
        "plant = linear\nprogram = grelu_skip\nmaster_seed = 7\n")
    assert dispatch(["phase", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "11"]) == 0
    capsys.readouterr()
    seed_col = out.read_text().splitlines()[1].split(",")[4]
    direct = ex.run_grid(ex.GridConfig(d_values=(4,), n_values=(8,), trials=1,
                                       plant="linear", program="grelu_skip",
                                       master_seed=11))
    assert seed_col == str(direct[0].seed)


def test_phase_from_flags_with_plots(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert dispatch(["phase", "--d", "4", "--n", "8,16", "--trials", "1",
                     "--pattern-count", "25", "--out", str(out),
                     "--plots"]) == 0
    capsys.readouterr()
    assert out.exists()
    scripts = sorted(p for p in os.listdir(tmp_path) if p.endswith(".py"))
    assert len(scripts) == 4


def test_phase_prints_each_curves_logistic_midpoint(capsys):
    argv = ["phase", "--d", "3,4", "--n", "6,12,18", "--sigmas", "0,0.05",
            "--trials", "2", "--pattern-count", "25", "--seed", "3"]
    assert dispatch(argv) == 0
    out = kv(capsys)
    rows = ex.run_grid(ex.load_config(flags={
        "d_values": "3,4", "n_values": "6,12,18", "sigmas": "0,0.05",
        "trials": "2", "pattern_count": "25", "master_seed": "3"}))
    mids = {k: float(v) for k, v in out.items() if k.startswith("midpoint_")}
    assert sorted(mids) == ["midpoint_d3_sigma0.0", "midpoint_d3_sigma0.05",
                            "midpoint_d4_sigma0.0", "midpoint_d4_sigma0.05"]
    for d in (3, 4):
        for sigma in (0.0, 0.05):
            rates = [np.mean([r.success for r in rows if (r.d, r.n, r.sigma) == (d, n, sigma)])
                     for n in (6, 12, 18)]
            # equal, or both nan for a flat curve
            np.testing.assert_equal(mids["midpoint_d%d_sigma%r" % (d, sigma)],
                                    ex.fit_logistic_midpoint([6, 12, 18], rates))
    # one n value is no curve
    assert dispatch(["phase", "--d", "3", "--n", "6", "--trials", "1",
                     "--pattern-count", "25"]) == 0
    assert not [k for k in kv(capsys) if k.startswith("midpoint_")]
    # a sigma with no success at all used to print midpoint 16.110000000000003
    assert dispatch(["phase", "--d", "4", "--n", "8,16", "--trials", "2",
                     "--sigmas", "0,0.1"]) == 0
    assert kv(capsys)["midpoint_d4_sigma0.1"] == "nan"


def test_beta_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert dispatch(["beta-sweep", "--d", "5", "--n", "20",
                     "--betas", "0,0.05,5.0", "--trials", "1",
                     "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == ("d,n,sigma,beta,trial,seed,success,active_blocks,"
                        "abs_distance,wall_ms,note")
    assert len(lines) == 1 + 3


def test_gmm_check(capsys):
    assert dispatch(["gmm-check", "--n1", "40", "--n2", "40", "--d", "6",
                     "--separation", "6", "--sigma", "1", "--seed", "0"]) == 0
    pairs = kv(capsys)
    assert 0.0 <= float(pairs["bound"]) <= 1.0
    assert pairs["pattern_matches"] in ("0", "1")
    # strong separation: the mean-difference pattern splits the mixture
    assert dispatch(["gmm-check", "--n1", "30", "--n2", "30", "--d", "4",
                     "--separation", "20", "--sigma", "1", "--seed", "1"]) == 0
    pairs = kv(capsys)
    assert pairs["pattern_matches"] == "1"
    assert float(pairs["bound"]) > 0.9
