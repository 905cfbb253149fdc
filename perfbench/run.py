#!/usr/bin/env python3
"""neuriso benchmark: seeded recovery workloads, end-to-end and per-module.

    python3 perfbench/run.py --workload grid-linear --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --smoke      # toy sizes, checks names, units, outputs
    python3 perfbench/run.py --record     # rewrite reference.json from this tree

Run from the repository root; the library is imported from ./src.  The run
repeats whole rounds of the workload until --seconds have passed, checks the
outputs, and prints a report followed, as the last line, by one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  --trace 0 gives the
end-to-end metrics with tracing off; --trace 1 runs every round untraced and
traced, in alternating order, and gives the per-module metrics plus the
tracing overhead.  It exits 1 when an output check fails and 2 when the
library cannot be imported from ./src.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one BLAS thread per compute thread; must be set before numpy loads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3
P90_MIN_ITEMS = 100  # p90 needs at least ten items beyond it


def _import_library():
    """Import neuriso from ./src only; None when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import neuriso
    except ImportError:
        return None
    where = os.path.realpath(os.path.dirname(neuriso.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        return None
    import spans
    import workloads
    return workloads, spans


# ------------------------------------------------------------ machine

def _blas_threads():
    # the thread count OpenBLAS actually runs with, read from the loaded library
    import ctypes
    import numpy
    import scipy
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    return None


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_env": {v: os.environ[v] for v in BLAS_VARS},
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


# ------------------------------------------------------------ set-up

def _plan(workloads, name, scale, seed):
    wl = workloads.build(name, scale)
    pool = workloads.load_reference()[scale][name]
    return wl, pool, workloads.pool_order(pool, seed, wl.strata)


def setup_seconds(name, scale, seed, probes):
    """Median over fresh interpreters of imports plus building the plan."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", name, "--seed", str(seed), "--scale", scale]
    times = []
    for _ in range(probes):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times), times


# ------------------------------------------------------------ measuring

def _pctl(vals, q):
    return statistics.quantiles(vals, n=100, method="inclusive")[q - 1]


def _run_rounds(wl, order, seconds, trace, spans):
    """Whole rounds until `seconds` have passed (at least one).

    Each round carries its pool seed, wall and CPU seconds.  With trace, each
    round runs untraced and traced, alternating which goes first; the traced
    copy also carries its spans.  Returns (untraced rounds, traced rounds)."""
    plain, traced = [], []
    t0 = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t0 < seconds:
        seed = order[k % len(order)]
        for with_trace in ((k % 2 == 1, k % 2 == 0) if trace else (False,)):
            tracer = spans.Tracer() if with_trace else None
            if tracer:
                spans.install(tracer)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                rnd = wl.round(int(seed))
            finally:
                if tracer:
                    tracer.unpatch()
            rnd.wall, rnd.cpu = time.perf_counter() - w0, time.process_time() - c0
            rnd.seed = seed
            if tracer:
                rnd.spans = tracer.spans
                traced.append(rnd)
            else:
                plain.append(rnd)
        k += 1
    return plain, traced


def _compare(rounds, ref):
    match = total = 0
    identical = True
    for rnd in rounds:
        want = ref[str(rnd.seed)]
        identical &= rnd.text == want["text"]
        for item, verdict in zip(rnd.items, want["verdicts"]):
            match += item.verdict == verdict
            total += 1
    return match / max(total, 1), identical


def run_workload(workloads, spans, name, seed, seconds, trace, scale="full",
                 probes=SETUP_PROBES):
    setup, setup_all = setup_seconds(name, scale, seed, probes)
    wl, pool, order = _plan(workloads, name, scale, seed)
    rounds, traced = _run_rounds(wl, order, seconds, trace, spans)
    every = rounds + traced
    items = [it for rnd in rounds for it in rnd.items]
    run_ok, run_detail = wl.check_run(every)
    verdict_match, identical = _compare(every, pool)
    attempted = sum(len(r.items) for r in every)
    failed = sum(it.failed for r in every for it in r.items)
    correct = run_ok and all(r.ok for r in every) and failed == 0
    report = {
        "workload": name, "seed": seed, "scale": scale, "seconds": seconds,
        "rounds": len(rounds), "items": len(items),
        "pool_seeds": [int(r.seed) for r in rounds], "check": run_detail,
        "csv_identical_apart_from_wall_ms": identical,
        "setup_probes_s": setup_all, "machine": machine(),
        "extra": {"failed_frac": (failed / max(attempted, 1), "ratio")},
    }
    if trace:
        metrics = spans.layer_metrics(
            [s for r in traced for s in r.spans], traced[0].spans,
            sum(len(r.items) for r in traced), sum(r.cpu for r in traced),
            sum(r.wall * spans.workers(r.spans) for r in traced))
        metrics["bench.trace_overhead_frac"] = (
            sum(r.wall for r in traced) / sum(r.wall for r in rounds) - 1.0, "ratio")
        return correct, attempted, failed, metrics, report
    walls = [it.wall_ms for it in items]
    metrics = {
        "setup_s": (setup, "s"),
        "cells_per_s": (statistics.median(len(r.items) / r.wall for r in rounds), "1/s"),
        "cell_ms_p50": (statistics.median(walls), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "verdict_match": (verdict_match, "ratio"),
    }
    # CPU per item swings with scheduling under GIL contention (IQR up to a
    # quarter of the median across seeds), too wide for a bound; reported only
    report["extra"]["cpu_ms_per_cell"] = (
        sum(r.cpu for r in rounds) * 1e3 / len(items), "ms")
    if len(walls) >= P90_MIN_ITEMS:
        report["extra"]["cell_ms_p90"] = (_pctl(walls, 90), "ms")
    return correct, attempted, failed, metrics, report


def _print_report(metrics, report):
    print("== %s  seed %s  %d rounds  %d items  (%s)" % (
        report["workload"], report["seed"], report["rounds"], report["items"],
        "csv identical" if report["csv_identical_apart_from_wall_ms"]
        else "csv differs from reference"))
    for key, (val, unit) in sorted(dict(metrics, **report["extra"]).items()):
        print("  %-34s %14.6g %s" % (key, val, unit))
    print(json.dumps({"detail": report}, sort_keys=True, default=str))


def _result(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed),
                       "metrics": {k: {"value": float(v), "unit": u}
                                   for k, (v, u) in metrics.items()}})


# ------------------------------------------------------------ smoke, record

def smoke(workloads, spans):
    """Every workload at toy size, untraced and traced: names, units, checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for name in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            correct, attempted, failed, metrics, report = run_workload(
                workloads, spans, name, 0, 0.0, trace, scale="toy", probes=1)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: u for k, (_, u) in metrics.items()}
            good = (correct and got == want and attempted > 0
                    and report["csv_identical_apart_from_wall_ms"]
                    and all(v == v for v, _ in metrics.values()))
            print("smoke %-12s trace %d: %s" % (name, trace, "ok" if good else "FAIL"))
            if not good:
                print("  correct=%s missing=%s unexpected=%s" % (
                    correct, sorted(set(want.items()) - set(got.items())),
                    sorted(set(got.items()) - set(want.items()))))
            ok &= good
    return ok


POOL_SIZES = {"full": {"grid-linear": 24, "grid-cone": 24, "sweep-lasso": 16,
                       "certify": 64},
              "toy": {name: 3 for name in ("grid-linear", "grid-cone",
                                            "sweep-lasso", "certify")}}


def record(workloads, scale):
    """Run candidate master seeds 0, 1, ... and keep each whose round passes
    its checks with no failed item and no cone cell at the iteration limit."""
    out = {"excluded": {}}
    if os.path.exists(workloads.REFERENCE):
        out = workloads.load_reference()
    out["machine"] = machine()
    out[scale] = {}
    for name, size in POOL_SIZES[scale].items():
        wl, pool, ms = workloads.build(name, scale), {}, 0
        excluded = out["excluded"][scale + "/" + name] = {}
        while len(pool) < size:
            c0 = time.process_time()
            rnd = wl.round(ms)
            cost = time.process_time() - c0
            why = []
            if not rnd.ok:
                why.append("round check failed: %s" % json.dumps(rnd.detail))
            if any(it.failed for it in rnd.items):
                why.append("failed item")
            if rnd.detail.get("max_iterations", 0) >= workloads.MAX_CONE_ITERATIONS:
                why.append("cell at the iteration limit")
            if why:
                excluded[str(ms)] = why
            else:
                pool[str(ms)] = {"text": rnd.text, "cost_s": cost,
                                 "verdicts": [it.verdict for it in rnd.items],
                                 "detail": rnd.detail}
            print(scale, name, ms, why or "kept", flush=True)
            ms += 1
        out[scale][name] = pool
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True, default=str)
        fh.write("\n")


# ------------------------------------------------------------ main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the reference pools of --scale")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    lib = _import_library()
    if lib is None:
        print("run.py: cannot import neuriso from %s" % SRC, file=sys.stderr)
        return 2
    workloads, spans = lib
    if args.probe_setup:
        _plan(workloads, args.workload, args.scale, args.seed)
        print(time.perf_counter() - T_START)
        return 0
    if args.smoke:
        return 0 if smoke(workloads, spans) else 1
    if args.record:
        record(workloads, args.scale)
        return 0
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        print("run.py: unknown workload %r; choose from %s or all"
              % (args.workload, ", ".join(workloads.NAMES)), file=sys.stderr)
        return 2
    results = []
    for name in names:
        res = run_workload(workloads, spans, name, args.seed, args.seconds,
                           args.trace, scale=args.scale)
        _print_report(res[3], res[4])
        results.append((name, res))
    if len(results) == 1:
        correct, attempted, failed, metrics, _ = results[0][1]
    else:
        correct = all(r[0] for _, r in results)
        attempted = sum(r[1] for _, r in results)
        failed = sum(r[2] for _, r in results)
        metrics = {"%s.%s" % (name, k): v for name, r in results
                   for k, v in r[3].items()}
    print(_result(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
