"""Command-line entry point wiring every module: pattern counts, certificate
checks, single solves, network reconstruction, phase grids, penalty sweeps,
theory curves, and the mixture separation check.

Exit codes: 0 on success, 2 on usage errors (bad flags, bad flag
combinations, malformed configs), 1 on runtime failures.  All randomness
derives from --seed: each task hashes (seed, d, n, sigma index, trial)
through numpy's SeedSequence, exactly as the experiments grid does, so a CLI
run and a library call with the same seed see the same data.  Flags override
config-file values, which override built-in defaults.
"""

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .arrangements import MAX_EXACT_N, enumerate_exact, pattern_of, to_text
from .ensembles import MATRIX_KINDS, gen_gmm, gmm_success_bound
from .errors import (InconsistentSolutionError, InvalidInputError,
                     NeurisoError)
from .experiments import (GridConfig, PLANTS, build_cell,
                          emit_plots, load_config, run_beta_sweep, run_grid,
                          solve_program, write_text)
from .isometry import (nic_linear, nic_multi, nic_relu_single, nnic_single,
                       report_to_csv, snic_orth)
from .recovery import (PROGRAMS, assess_recovery, build_program,
                       network_to_text, predict, reconstruct_network)
from .solvers import solution_to_csv
from .theory import (c1_coef, c2_coef, c3_coef, curve_g1, curve_g2,
                     curve_g_single, kinematic_bound, noisy_beta_interval,
                     solve_theta_star, threshold_check)

NIC_KINDS = ("nic-l", "nic-1", "nnic-1", "nic-k", "nnic-k", "snic-orth")
ORTHONORMAL = ("haar", "whitened_cubic")


class UsageError(Exception):
    pass


def _emit(pairs):
    for key, val in pairs:
        if isinstance(val, float):
            val = repr(val)
        elif isinstance(val, bool):
            val = int(val)
        print("%s=%s" % (key, val))


def _int_list(raw):
    try:
        return tuple(int(v) for v in raw.replace(",", " ").split())
    except ValueError:
        raise UsageError("expected a comma-separated integer list, got %r" % raw)


def _float_list(raw):
    try:
        return tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError:
        raise UsageError("expected a comma-separated number list, got %r" % raw)


# ------------------------------------------------------------------ configs

def _one_shot_config(args, plant, program, sigma=0.0):
    return GridConfig(d_values=(args.d,), n_values=(args.n,), trials=1,
                      ensemble=args.ensemble, plant=plant,
                      sigmas=(float(sigma),), program=program,
                      master_seed=args.seed or 0,
                      pattern_count=getattr(args, "count", 0) or 0,
                      success_tol=args.tol or 1e-4,
                      beta=getattr(args, "beta", 0.0),
                      threads=args.threads or 0)


def _grid_config(args, sweep=False):
    if args.config:
        cfg = load_config(args.config)
    else:
        if not args.d or not args.n:
            raise UsageError("need --config or both --d and --n")
        cfg = GridConfig(d_values=_int_list(args.d), n_values=_int_list(args.n),
                         program="reg_grelu_skip" if sweep else args.program,
                         plant=args.plant)
    updates = {}
    if args.d and args.config:
        updates["d_values"] = _int_list(args.d)
    if args.n and args.config:
        updates["n_values"] = _int_list(args.n)
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.sigmas:
        updates["sigmas"] = _float_list(args.sigmas)
    if getattr(args, "betas", None):
        updates["betas"] = _float_list(args.betas)
    if args.pattern_count is not None:
        updates["pattern_count"] = args.pattern_count
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.tol is not None:
        updates["success_tol"] = args.tol
    if args.threads is not None:
        updates["threads"] = args.threads
    if args.out:
        updates["out"] = args.out
    return replace(cfg, **updates) if updates else cfg


# ------------------------------------------------------------------ commands

def cmd_arrangements(args):
    cfg = _one_shot_config(args, "linear", "grelu_skip")
    inst = build_cell(cfg, args.d, args.n, 0.0, 0)
    if args.count:
        ps = inst.patterns
    else:
        if args.n > MAX_EXACT_N:
            raise UsageError("exact enumeration is capped at n = %d; pass --count"
                             % MAX_EXACT_N)
        ps = enumerate_exact(inst.x)
    bound = 2 * sum(math.comb(args.n - 1, k) for k in range(min(args.d, args.n)))
    _emit([("n", args.n), ("d", args.d), ("count", len(ps.patterns)),
           ("cover_bound", bound), ("contains_all_ones", ps.contains_all_ones),
           ("sampled", ps.sampled)])
    if args.out:
        write_text(to_text(ps), args.out)
    return 0


def cmd_nic(args):
    if args.kind == "snic-orth" and args.ensemble not in ORTHONORMAL:
        raise UsageError("snic-orth needs a column-orthonormal ensemble: %s"
                         % ", ".join(ORTHONORMAL))
    plant = {"nic-l": "linear", "nic-1": "relu", "nnic-1": "relu",
             "nic-k": "normalized_pair", "nnic-k": "normalized_pair",
             "snic-orth": "linear"}[args.kind]
    program = "grelu_normal" if plant == "normalized_pair" else "grelu_skip"
    cfg = _one_shot_config(args, plant, program)
    inst = build_cell(cfg, args.d, args.n, 0.0, 0)
    if args.kind == "nic-l":
        rep = nic_linear(inst.x, inst.model.neurons[0][0], inst.patterns)
    elif args.kind == "nic-1":
        rep = nic_relu_single(inst.x, inst.model.neurons[0][0], inst.patterns)
    elif args.kind == "nnic-1":
        rep = nnic_single(inst.x, inst.model.neurons[0][0], inst.patterns)
    elif args.kind in ("nic-k", "nnic-k"):
        rep = nic_multi(inst.x, inst.model.neurons, inst.patterns,
                        normalized=args.kind == "nnic-k")
    else:
        rep = snic_orth(inst.x, inst.patterns)
    _emit([("kind", rep.kind), ("n", args.n), ("d", args.d),
           ("seed", inst.seed), ("patterns", len(rep.per_pattern)),
           ("holds", rep.holds), ("max_lhs", rep.max_lhs),
           ("marginal", rep.marginal)])
    if args.out:
        write_text(report_to_csv(rep), args.out)
    return 0


def _run_one_shot(args):
    cfg = _one_shot_config(args, args.plant, args.program, sigma=args.sigma)
    inst = build_cell(cfg, args.d, args.n, args.sigma, 0)
    beta = cfg.beta if cfg.program == "reg_grelu_skip" else 0.0
    prob = build_program(inst.x, inst.patterns, inst.y, cfg.program, beta=beta)
    sol = solve_program(cfg, prob, beta)
    verdict = assess_recovery(sol, inst.model, prob, tol=cfg.success_tol)
    return cfg, inst, prob, sol, verdict


def cmd_solve(args):
    cfg, inst, _, sol, verdict = _run_one_shot(args)
    _emit([("program", cfg.program), ("d", args.d), ("n", args.n),
           ("sigma", float(args.sigma)), ("seed", inst.seed),
           ("success", verdict.success and sol.converged),
           ("abs_distance", verdict.abs_distance),
           ("support_match", verdict.support_match),
           ("active_blocks", len(sol.active_blocks)),
           ("iterations", sol.iterations), ("objective", sol.objective),
           ("converged", sol.converged)])
    if args.out:
        write_text(solution_to_csv(sol), args.out)
    return 0


def cmd_reconstruct(args):
    if not args.out:
        raise UsageError("reconstruct needs --out for the network file")
    _, inst, prob, sol, verdict = _run_one_shot(args)
    try:
        net = reconstruct_network(sol, prob)
    except InconsistentSolutionError as exc:
        # gated optima need not be cone-feasible; only those convert to a
        # plain ReLU network
        raise InconsistentSolutionError(
            "%s; the gated optimum is not representable as a ReLU network "
            "on this instance - use a cone-constrained program "
            "(relu_skip_cone / relu_normal_cone)" % exc) from exc
    write_text(network_to_text(net), args.out)
    resid = float(np.linalg.norm(predict(net, inst.x) - inst.y))
    _emit([("arch", net.arch), ("neurons", len(net.first_layer)),
           ("seed", inst.seed), ("success", verdict.success and sol.converged),
           ("train_residual", resid)])
    return 0


def cmd_phase(args):
    cfg = _grid_config(args)
    if args.plots and not cfg.out:
        raise UsageError("--plots needs an output CSV (--out)")
    rows = run_grid(cfg)
    expected = (len(cfg.d_values) * len(cfg.n_values) * len(cfg.sigmas)
                * cfg.trials)
    _emit([("cells", len(rows)),
           ("successes", sum(r.success for r in rows)),
           ("failures_noted", sum(1 for r in rows if r.note)),
           ("out", cfg.out or "-")])
    if args.plots:
        for path in emit_plots(cfg.out):
            print("wrote=%s" % path)
    return 0 if len(rows) == expected else 1


def cmd_beta_sweep(args):
    cfg = _grid_config(args, sweep=True)
    pts = run_beta_sweep(cfg)
    _emit([("points", len(pts)),
           ("successes", sum(p.success for p in pts)),
           ("out", cfg.out or "-")])
    return 0


def cmd_theory(args):
    act = args.action
    if act == "theta-star":
        ts = solve_theta_star(args.tol if args.tol is not None else 1e-10)
        _emit([("theta_star", ts), ("theta_star_inverse", 1.0 / ts)])
    elif act == "coefficients":
        if args.gamma is None:
            raise UsageError("coefficients needs --gamma")
        g = args.gamma
        _emit([("gamma", g), ("c1", c1_coef(g)), ("c2", c2_coef(g)),
               ("c3", c3_coef(g))])
    elif act == "curves":
        if args.points < 0 or args.grid_points < 0:
            raise UsageError("--points and --grid-points must be nonnegative")
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        gammas = np.linspace(-1.0, 1.0, args.points)
        for name, fn in (("g_single.csv", curve_g_single),
                         ("g_pair.csv", curve_g1)):
            lines = ["gamma,value"]
            lines += ["%s,%s" % (repr(float(g)), repr(float(fn(float(g)))))
                      for g in gammas]
            write_text("\n".join(lines) + "\n", os.path.join(out, name))
        axis = np.linspace(0.0, 1.0, args.grid_points)
        lines = ["gamma_a,gamma_b,value"]
        for a in axis:
            for b in axis:
                if a * a + b * b <= 1.0 + 1e-12:
                    lines.append("%s,%s,%s" % (repr(float(a)), repr(float(b)),
                                               repr(float(curve_g2(a, b)))))
        write_text("\n".join(lines) + "\n", os.path.join(out, "g_orth.csv"))
        _emit([("out", out), ("points", args.points),
               ("grid_points", args.grid_points)])
    elif act == "kinematic":
        if args.n is None or args.d is None:
            raise UsageError("kinematic needs --n and --d")
        est = kinematic_bound(args.n, args.d)
        _emit([("n", est.n), ("d", est.d), ("alpha", est.alpha),
               ("bound", est.bound), ("regime", est.regime)])
    elif act == "interval":
        if args.eta is None:
            raise UsageError("interval needs --eta")
        # without --gamma the library's default gamma applies
        extra = {} if args.gamma is None else {"gamma": args.gamma}
        iv = noisy_beta_interval(args.eta, args.noise, **extra)
        _emit([("lo", iv.lo), ("hi", iv.hi),
               ("distance_bound", iv.distance_bound),
               ("reason", iv.reason or "-")])
    else:  # threshold
        if args.n is None or args.d is None:
            raise UsageError("threshold needs --n and --d")
        rep = threshold_check(args.n, args.d, args.sigma2)
        _emit([("n", rep.n), ("d", rep.d), ("sigma2", rep.sigma2),
               ("noise_requirement", rep.noise_requirement),
               ("dim_requirement", rep.dim_requirement),
               ("satisfied", rep.satisfied), ("binding", rep.binding)])
    return 0


def cmd_gmm_check(args):
    d = args.d
    if d < 1:
        raise UsageError("--d must be positive")
    mu1 = np.zeros(d)
    mu1[0] = args.separation / 2.0
    mu2 = -mu1
    data, q = gen_gmm(args.n1, args.n2, mu1, mu2, args.sigma,
                      seed=np.random.SeedSequence(args.seed or 0))
    w = mu1 / np.linalg.norm(mu1) - mu2 / np.linalg.norm(mu2)
    mask = pattern_of(data.mat, w).mask
    _emit([("n1", args.n1), ("n2", args.n2), ("d", d),
           ("separation", float(args.separation)), ("sigma", float(args.sigma)),
           ("bound", float(gmm_success_bound(args.n1, args.n2, mu1, mu2,
                                             args.sigma))),
           ("pattern_matches", int(np.array_equal(mask, q)))])
    return 0


# ------------------------------------------------------------------ parser

def _common():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed; tasks hash (seed, d, n, sigma index, trial)")
    p.add_argument("--out", default="",
                   help="output file (directory for theory curves)")
    p.add_argument("--config", default="",
                   help="key = value config file (phase and beta-sweep)")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance override (success threshold / root solve)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads; 0 means one per cpu")
    return p


def _add_instance_flags(p, program=True):
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--d", type=int, required=True, help="data dimension")
    p.add_argument("--ensemble", choices=MATRIX_KINDS, default="gaussian")
    p.add_argument("--count", type=int, default=0,
                   help="sampled pattern count; 0 means max(n, 50)")
    if program:
        p.add_argument("--program", choices=PROGRAMS, default="grelu_skip")
        p.add_argument("--plant", choices=PLANTS, default="linear")
        p.add_argument("--sigma", type=float, default=0.0, help="noise level")
        p.add_argument("--beta", type=float, default=0.0,
                       help="penalty (penalized program only)")


def _add_grid_flags(p, sweep=False):
    p.add_argument("--d", default="", help="comma-separated dimensions")
    p.add_argument("--n", default="", help="comma-separated sample counts")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--plant", choices=PLANTS, default="linear")
    p.add_argument("--program", choices=PROGRAMS, default="grelu_skip")
    p.add_argument("--sigmas", default="", help="comma-separated noise levels")
    p.add_argument("--pattern-count", dest="pattern_count", type=int,
                   default=None, help="sampled patterns per cell; 0 = max(n, 50)")
    if sweep:
        p.add_argument("--betas", default="", help="comma-separated penalties")
    else:
        p.add_argument("--plots", action="store_true",
                       help="emit one plot script per metric next to the CSV")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="neuriso",
        description="Convex reformulations of two-layer ReLU training: "
                    "certificates, solves, and phase-transition experiments.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)
    common = _common()

    p = sub.add_parser("arrangements", parents=[common],
                       help="count or sample activation patterns")
    _add_instance_flags(p, program=False)
    p.set_defaults(func=cmd_arrangements)

    p = sub.add_parser("nic", parents=[common],
                       help="run an isometry certificate check")
    p.add_argument("--kind", choices=NIC_KINDS, required=True)
    _add_instance_flags(p, program=False)
    p.set_defaults(func=cmd_nic)

    p = sub.add_parser("solve", parents=[common],
                       help="solve one planted instance")
    _add_instance_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="solve and write the explicit two-layer network")
    _add_instance_flags(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("phase", parents=[common],
                       help="run a (d, n, sigma) recovery grid to CSV")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("beta-sweep", parents=[common],
                       help="sweep the penalty on one (d, n) cell")
    _add_grid_flags(p, sweep=True)
    p.set_defaults(func=cmd_beta_sweep)

    p = sub.add_parser("theory", parents=[common],
                       help="asymptotic scalars and limit curves")
    p.add_argument("action", choices=("theta-star", "curves", "coefficients",
                                      "kinematic", "interval", "threshold"))
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=41)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("gmm-check", parents=[common],
                       help="two-component mixture separation check")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--separation", type=float, required=True,
                   help="distance between the two means")
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=cmd_gmm_check)

    return parser


def dispatch(argv):
    """Parse argv and run the mapped command; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        return 0 if code is None else int(code)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        # invalid parameter combinations are the caller's to fix
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except NeurisoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    raise SystemExit(dispatch(sys.argv[1:]))
