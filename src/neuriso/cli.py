"""Command-line entry point wiring every module: pattern counts, certificate
checks, single solves, network reconstruction, phase grids, penalty sweeps,
theory curves, and the mixture separation check.

Exit codes: 0 on success, 2 on usage errors (bad flags, bad flag
combinations, malformed configs), 1 on runtime failures.  All randomness
derives from --seed: each task hashes (seed, d, n, sigma index, trial)
through numpy's SeedSequence, exactly as the experiments grid does, so a CLI
run and a library call with the same seed see the same data.

Each subcommand takes only the flags it reads.  The six data commands read
their flags as GridConfig keys through experiments.load_config; `phase` and
`beta-sweep` also take --config, an INI file whose keys their flags beat.
"""

import argparse
import math
import os
import sys

import numpy as np

from .arrangements import MAX_EXACT_N, enumerate_exact, pattern_of, to_text
from .ensembles import MATRIX_KINDS, gen_gmm, gmm_success_bound
from .errors import (InconsistentSolutionError, InvalidInputError,
                     InvalidShapeError, NeurisoError)
from .experiments import (NIC_KINDS, PLANTS, build_cell, emit_plots,
                          fit_logistic_midpoint, load_config, run_beta_sweep,
                          run_grid, solve_program, write_text)
from .isometry import report_to_csv
from .recovery import (PROGRAMS, network_to_text, predict,
                       reconstruct_network)
from .solvers import solution_to_csv
from .theory import (c1_coef, c2_coef, c3_coef, curve_g1, curve_g2,
                     curve_g_single, kinematic_bound, noisy_beta_interval,
                     solve_theta_star, threshold_check)

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


# ------------------------------------------------------------------ configs

# (flag, GridConfig field) for every flag that the data commands read as a key
_CONFIG_FLAGS = (("d", "d_values"), ("n", "n_values"), ("trials", "trials"),
                 ("ensemble", "ensemble"), ("plant", "plant"),
                 ("program", "program"), ("sigma", "sigmas"),
                 ("sigmas", "sigmas"), ("beta", "beta"), ("betas", "betas"),
                 ("pattern_count", "pattern_count"), ("seed", "master_seed"),
                 ("tol", "success_tol"), ("out", "out"))


def _config(args, **fixed):
    """The command's GridConfig: its flags, and the fixed keys that are not
    None, beat the --config file, which beats GridConfig's defaults."""
    texts = {field: text for field, text in fixed.items() if text is not None}
    # an unset flag is None; an empty text flag counts as unset too
    texts.update((field, str(getattr(args, flag))) for flag, field in _CONFIG_FLAGS
                 if getattr(args, flag, None) not in (None, ""))
    return load_config(getattr(args, "config", None) or None, texts)


# ------------------------------------------------------------------ commands

def cmd_arrangements(args):
    inst = build_cell(_config(args), args.d, args.n, 0.0, 0)
    if args.pattern_count:
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
    plant, check = NIC_KINDS[args.kind]
    program = "grelu_normal" if plant == "normalized_pair" else "grelu_skip"
    inst = build_cell(_config(args, plant=plant, program=program),
                      args.d, args.n, 0.0, 0)
    rep = check(inst)
    _emit([("kind", rep.kind), ("n", args.n), ("d", args.d),
           ("seed", inst.seed), ("patterns", len(rep.per_pattern)),
           ("holds", rep.holds), ("max_lhs", rep.max_lhs),
           ("marginal", rep.marginal)])
    if args.out:
        write_text(report_to_csv(rep), args.out)
    return 0


def _run_one_shot(args):
    cfg = _config(args)
    inst = build_cell(cfg, args.d, args.n, args.sigma, 0)
    return (cfg, inst) + solve_program(cfg, inst, cfg.beta)


def cmd_solve(args):
    cfg, inst, _, sol, verdict = _run_one_shot(args)
    _emit([("program", cfg.program), ("d", args.d), ("n", args.n),
           ("sigma", float(args.sigma)), ("seed", inst.seed),
           ("success", verdict.success),
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
           ("seed", inst.seed), ("success", verdict.success),
           ("train_residual", resid)])
    return 0


def cmd_phase(args):
    cfg = _config(args)
    if args.plots and not cfg.out:
        raise UsageError("--plots needs an output CSV (--out)")
    rows = run_grid(cfg)
    _emit([("cells", len(rows)),
           ("successes", sum(r.success for r in rows)),
           ("failures_noted", sum(1 for r in rows if r.note)),
           ("out", cfg.out or "-")])
    # fit each (d, sigma)'s success rate over n once it has two points
    curves = [(d, s) for d in cfg.d_values for s in cfg.sigmas]
    for d, sigma in curves if len(cfg.n_values) > 1 else ():
        rates = [np.mean([r.success for r in rows if (r.d, r.n, r.sigma) == (d, n, sigma)])
                 for n in cfg.n_values]
        _emit([("midpoint_d%d_sigma%r" % (d, sigma),
                fit_logistic_midpoint(cfg.n_values, rates))])
    if args.plots:
        for path in emit_plots(cfg.out):
            print("wrote=%s" % path)
    return 0


def cmd_beta_sweep(args):
    # without --config a sweep runs the penalized program; with it, the file's
    cfg = _config(args, program=None if args.config else "reg_grelu_skip")
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
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise UsageError("--seed must be nonnegative")
    mu1 = np.zeros(d)
    mu1[0] = args.separation / 2.0
    mu2 = -mu1
    data, q = gen_gmm(args.n1, args.n2, mu1, mu2, args.sigma,
                      seed=np.random.SeedSequence(seed))
    w = mu1 / np.linalg.norm(mu1) - mu2 / np.linalg.norm(mu2)
    mask = pattern_of(data.mat, w).mask
    _emit([("n1", args.n1), ("n2", args.n2), ("d", d),
           ("separation", float(args.separation)), ("sigma", float(args.sigma)),
           ("bound", float(gmm_success_bound(args.n1, args.n2, mu1, mu2,
                                             args.sigma))),
           ("pattern_matches", int(np.array_equal(mask, q)))])
    return 0


# ------------------------------------------------------------------ parser

# the flags that several subcommands share; each unset one is None
_SHARED_FLAGS = {
    "seed": dict(type=int, help="master seed; tasks hash (seed, d, n, sigma index, trial)"),
    "out": dict(help="output file (directory for theory curves)"),
    "config": dict(help="INI config file: [grid] keys are GridConfig's fields, "
                        "[solver] keys SolverOptions'; flags beat its keys"),
    "tol": dict(type=float,
                help="success threshold (the root tolerance of theory theta-star)"),
}


def _add_shared(p, *names):
    for name in names:
        p.add_argument("--" + name, **_SHARED_FLAGS[name])


def _add_instance_flags(p, program=True,
                        count_help="sampled pattern count; 0 (the default) means max(n, 50)"):
    _add_shared(p, "seed", "out", *(("tol",) if program else ()))
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--d", type=int, required=True, help="data dimension")
    p.add_argument("--ensemble", choices=MATRIX_KINDS, default="gaussian")
    p.add_argument("--count", dest="pattern_count", type=int, help=count_help)
    if program:
        p.add_argument("--program", choices=PROGRAMS, default="grelu_skip")
        p.add_argument("--plant", choices=PLANTS, default="linear")
        p.add_argument("--sigma", type=float, default=0.0, help="noise level")
        p.add_argument("--beta", type=float, default=0.0,
                       help="penalty (penalized program only)")


def _add_grid_flags(p, sweep=False):
    # a penalized point succeeds on support; beta = 0 reads success_tol from --config
    _add_shared(p, "seed", "out", "config", *(() if sweep else ("tol",)))
    p.add_argument("--d", help="comma-separated dimensions")
    p.add_argument("--n", help="comma-separated sample counts")
    p.add_argument("--trials", type=int)
    p.add_argument("--plant", choices=PLANTS)
    p.add_argument("--sigmas", help="comma-separated noise levels")
    p.add_argument("--pattern-count", dest="pattern_count", type=int,
                   help="sampled patterns per cell; 0 = max(n, 50)")
    if sweep:
        p.add_argument("--betas", help="comma-separated penalties")
    else:
        p.add_argument("--program", choices=PROGRAMS)
        p.add_argument("--plots", action="store_true",
                       help="emit one plot script per metric next to the CSV")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="neuriso",
        description="Convex reformulations of two-layer ReLU training: "
                    "certificates, solves, and phase-transition experiments.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    p = sub.add_parser("arrangements", help="count or sample activation patterns")
    _add_instance_flags(p, program=False, count_help=(
        "sampled pattern count; 0 (the default) enumerates every pattern "
        "exactly, for n up to %d" % MAX_EXACT_N))
    p.set_defaults(func=cmd_arrangements)

    p = sub.add_parser("nic", help="run an isometry certificate check")
    p.add_argument("--kind", choices=NIC_KINDS, required=True)
    _add_instance_flags(p, program=False)
    p.set_defaults(func=cmd_nic)

    p = sub.add_parser("solve", help="solve one planted instance")
    _add_instance_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reconstruct", help="solve and write the explicit two-layer network")
    _add_instance_flags(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("phase", help="run a (d, n, sigma) recovery grid to CSV")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("beta-sweep", help="sweep the penalty on one (d, n) cell")
    _add_grid_flags(p, sweep=True)
    p.set_defaults(func=cmd_beta_sweep)

    p = sub.add_parser("theory", help="asymptotic scalars and limit curves")
    p.add_argument("action", choices=("theta-star", "curves", "coefficients",
                                      "kinematic", "interval", "threshold"))
    _add_shared(p, "out", "tol")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=41)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("gmm-check", help="two-component mixture separation check")
    _add_shared(p, "seed")
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
    except (UsageError, InvalidInputError, InvalidShapeError) as exc:
        # invalid parameter combinations are the caller's to fix
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (NeurisoError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
