"""krymat benchmark: time to a 1e-6 Lyapunov solution on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lyap-monitor --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15          # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 0.1 # tiny sizes

Each run sets up the workload SETUP_REPS times, and again between timed
solves where set-up is cheap (the median is ``setup_s``), solves
right-hand side 0 once untimed, then cycles through its right-hand sides,
one solve after another, until ``--seconds`` have passed and each was
solved at least once.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run, in which each
right-hand side is solved untraced and then traced.  Every solve goes
through the correctness gate; the last line of standard output is one
JSON object and the exit code is 1 if any check failed.  See
perfbench/README.md.
"""

import os

# BLAS and OpenMP must be pinned before numpy loads: threadpoolctl is not a
# dependency, and unpinned pools make timings and even iteration counts vary.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Set-ups per run: SETUP_REPS (and one per right-hand side) before the
#: first solve, then, after each timed solve, as many as fit in SETUP_SHARE
#: of that solve's time.  Cheap set-ups are so sampled across the whole run,
#: like the solves, and not only in its first second, which makes their
#: median steadier from run to run; ``setup_s`` is that median.
SETUP_REPS = 5
SETUP_SHARE = 0.1

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "rank": "count",
    "true_rel_residual": "ratio",
    "residual_gap": "ratio",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "kernels.band_reduce_calls": "count",
    "kernels.band_reduce_s": "s",
    "kernels.band_reduce_max_dim": "count",
    "kernels.tridiag_eig_s": "s",
    "kernels.truncate_s": "s",
    "kernels.self_s": "s",
    "residual.checks": "count",
    "residual.check_self_s": "s",
    "residual.check_last_s": "s",
    "basis.steps": "count",
    "basis.step_self_s": "s",
    "basis.mgs_s": "s",
    "basis.qr_s": "s",
    "basis.peak_vectors": "count",
    "basis.self_s": "s",
    "operators.apply_calls": "count",
    "operators.apply_cols": "count",
    "operators.apply_s": "s",
    "operators.apply_bytes_computed": "bytes",
    "operators.solve_calls": "count",
    "operators.solve_s": "s",
    "operators.factorize_s": "s",
    "operators.self_s": "s",
    "solvers.basis_s": "s",
    "solvers.residual_s": "s",
    "solvers.recovery_s": "s",
    "solvers.two_pass_s": "s",
    "solvers.replay_apply_ratio": "ratio",
    "solvers.self_s": "s",
    "mmio.read_s": "s",
    "mmio.write_s": "s",
    "mmio.bytes_read": "bytes",
    "mmio.bytes_written": "bytes",
    "mmio.self_s": "s",
    "problems.gen_s": "s",
    "cli.self_s": "s",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_solve": "count",
}


def _load_package():
    """Import krymat from this checkout's ``src``, or exit 2 without it."""
    if not os.path.isfile(os.path.join(SRC, "krymat", "__init__.py")):
        print("error: no krymat sources under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def median(values):
    return statistics.median(values) if values else float("nan")


def mean(values):
    """Mean, for per-right-hand-side residuals: it varies less from seed to
    seed than their median."""
    return statistics.fmean(values) if values else float("nan")


def tail(values):
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    pct = math.floor(100.0 * (n - 10) / n) if n > 10 else 0
    if pct < 50:
        return None
    ordered = sorted(values)
    return pct, ordered[math.ceil(pct / 100.0 * n) - 1]


def environment():
    import numpy
    import scipy

    def openblas(mod):
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    pinned = " ".join("%s=%s" % (v, os.environ.get(v)) for v in THREAD_VARS)
    return ("env: nproc=%d affinity=%d %s python=%s numpy=%s (OpenBLAS %s) "
            "scipy=%s (OpenBLAS %s)" % (
                os.cpu_count(), len(os.sched_getaffinity(0)), pinned,
                platform.python_version(), numpy.__version__, openblas(numpy),
                scipy.__version__, openblas(scipy)))


def attempt(case, k, tracer):
    """One solve; an exception is a failed solve, not the end of the run."""
    from workloads import Outcome

    try:
        return case.solve(k, tracer)
    except Exception as exc:  # a failed solve is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return Outcome(k, float("nan"), traced=tracer is not None,
                       error="%s: %s" % (type(exc).__name__, exc))


def gate(out, ref, tol):
    """Why a solve failed, or None: it raised, returned a non-finite factor,
    reported a residual above tol, or differs from the first solve of the
    same right-hand side."""
    if out.error:
        return out.error
    if not out.finite:
        return "non-finite factor"
    if not out.final_residual <= tol:
        return "final residual %.6e > tol %.1e" % (out.final_residual, tol)
    if ref is not None and (out.iterations, out.rank) != (ref.iterations, ref.rank):
        return "m=%d rank=%d, first solve of this right-hand side m=%d rank=%d" % (
            out.iterations, out.rank, ref.iterations, ref.rank)
    return None


def run_workload(wl, seed, seconds, trace, smoke):
    from tracing import Tracer
    from workloads import TOL, make_case, traced

    n = wl.smoke_n if smoke else wl.n
    n_rhs = wl.n_rhs
    rhs_seeds = [1000 * seed + i for i in range(n_rhs)]
    print(environment())
    print("workload %s: %s n=%d (order %d) s=%d space=%s storage=%s check_period=%d "
          "tol=%g right-hand side seeds %s%s" % (
              wl.name, "krymat gen + solve-lyap" if wl.via_cli else "solve_lyapunov",
              n, n * n, wl.s, wl.space, wl.storage, wl.check_period, TOL,
              rhs_seeds, " (smoke)" if smoke else ""))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (wl.name, seed), dir=OUT_DIR)
    tracer = Tracer() if trace else None
    try:
        case = make_case(wl, n, rhs_seeds, workdir)
        setup_s = []

        def set_up():
            tic = time.perf_counter()
            with traced(tracer, "setup", "bench.setup"):
                case.setup(len(setup_s), tracer)
            setup_s.append(time.perf_counter() - tic)

        while len(setup_s) < max(SETUP_REPS, n_rhs):
            set_up()
        typical_setup = median(setup_s)

        outcomes = [attempt(case, 0, None)]  # warm-up, gated but not timed
        timed = []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < n_rhs or time.perf_counter() < deadline:
            timed.append(attempt(case, i % n_rhs, None))
            until = time.perf_counter() + SETUP_SHARE * timed[-1].seconds
            while time.perf_counter() + typical_setup <= until:
                set_up()
            if tracer is not None:
                timed.append(attempt(case, i % n_rhs, tracer))
            i += 1
        outcomes += timed

        refs, failures, failed = {}, [], 0
        for out in outcomes:
            why = gate(out, refs.get(out.rhs), TOL)
            if why is not None:
                failures.append("rhs %d: %s" % (out.rhs, why))
                failed += 1
            elif out.rhs not in refs:
                refs[out.rhs] = out
        checks = {}
        for k in sorted(refs):
            true = case.true_rel_residual(k)
            checks[k] = (true, true / refs[k].final_residual)
        for k, ref in sorted(refs.items()):
            print("  rhs %d (seed %d): m=%d rank=%d final_residual=%.6e "
                  "true_rel_residual=%.6e residual_gap=%.4f peak_vectors=%d" % (
                      k, rhs_seeds[k], ref.iterations, ref.rank, ref.final_residual,
                      checks[k][0], checks[k][1], ref.peak_vectors))
        if len(refs) < n_rhs:
            failures.append("no passing solve for some right-hand side")

        if trace:
            metrics, samples = layer_metrics(tracer, timed, failures)
            path = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl" % (wl.name, seed))
            tracer.write(path)
            print("  spans written to %s" % os.path.relpath(path, ROOT))
        else:
            metrics, samples = end_to_end_metrics(setup_s, timed, refs, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for why in failures:
        print("  FAILED %s" % why)
    print("  attempted=%d failed=%d failed_frac=%.6g ratio" % (
        len(outcomes), failed, failed / len(outcomes)))
    for name, (value, unit) in metrics.items():
        print("  %-32s %-14.8g %-6s %s" % (name, value, unit, samples[name]))
    return {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def end_to_end_metrics(setup_s, timed, refs, checks):
    times = [o.seconds for o in timed if not o.error]
    ks = sorted(refs)
    values = {
        "solve_s": median(times),
        "setup_s": median(setup_s),
        "iterations": median([refs[k].iterations for k in ks]),
        "rank": median([refs[k].rank for k in ks]),
        "true_rel_residual": mean([checks[k][0] for k in ks]),
        "residual_gap": mean([checks[k][1] for k in ks]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    hi = tail(times)
    samples = {
        "solve_s": "median of n=%d solves, min %.6g max %.6g, %s" % (
            len(times), min(times, default=float("nan")),
            max(times, default=float("nan")),
            "p%d %.6g" % hi if hi else "no percentile above the median has 10 samples beyond it"),
        "setup_s": "median of n=%d set-ups" % len(setup_s),
        "iterations": "median of n=%d right-hand sides" % len(ks),
        "rank": "median of n=%d right-hand sides" % len(ks),
        "true_rel_residual": "mean over n=%d right-hand sides" % len(ks),
        "residual_gap": "mean over n=%d right-hand sides" % len(ks),
        "peak_rss_mib": "ru_maxrss of this process",
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, samples


def layer_metrics(tracer, timed, failures):
    from tracing import LAYERS

    solves = tracer.profiles("solve")
    setups = tracer.profiles("setup")
    plain = [o for o in timed if not o.traced and not o.error]
    traced_times = [o.seconds for o in timed if o.traced and not o.error]

    for i, prof in enumerate(solves):
        gap = abs(sum(prof.layer_self_s.values()) - prof.root_s)
        if gap > 1e-9 * max(prof.root_s, 1.0):
            failures.append("traced solve %d: self times miss its duration by %.3g s"
                            % (i, gap))

    def med(fn, profs=solves):
        return median([fn(p) for p in profs])

    values = {
        "kernels.band_reduce_calls": med(lambda p: p.calls["kernels.band_reduce"]),
        "kernels.band_reduce_s": med(lambda p: p.self_s["kernels.band_reduce"]),
        "kernels.band_reduce_max_dim": med(lambda p: p.max_dim),
        "kernels.tridiag_eig_s": med(lambda p: p.self_s["kernels.tridiag_eig"]),
        "kernels.truncate_s": med(lambda p: p.self_s["kernels.truncate"]),
        "residual.checks": med(lambda p: p.calls["residual.check"]),
        "residual.check_self_s": med(lambda p: p.self_s["residual.check"]),
        "residual.check_last_s": med(lambda p: p.last_s.get("residual.check", 0.0)),
        "basis.steps": med(lambda p: p.calls["basis.step"]),
        "basis.step_self_s": med(lambda p: p.self_s["basis.step"]),
        "basis.mgs_s": med(lambda p: p.self_s["basis.mgs"]),
        "basis.qr_s": med(lambda p: p.self_s["basis.qr"]),
        "basis.peak_vectors": median([o.peak_vectors for o in plain]),
        "operators.apply_calls": med(lambda p: p.calls["operators.apply"]),
        "operators.apply_cols": med(lambda p: p.attr_sum["operators.apply.cols"]),
        "operators.apply_s": med(lambda p: p.total_s["operators.apply"]),
        "operators.apply_bytes_computed": med(
            lambda p: p.attr_sum["operators.apply.bytes"]),
        "operators.solve_calls": med(lambda p: p.calls["operators.solve"]),
        "operators.solve_s": med(lambda p: p.total_s["operators.solve"]),
        "operators.factorize_s": med(
            lambda p: p.total_s["operators.factorize"], setups),
        "solvers.basis_s": median([o.basis_s for o in plain]),
        "solvers.residual_s": median([o.residual_s for o in plain]),
        "solvers.recovery_s": median([o.recovery_s for o in plain]),
        "solvers.two_pass_s": med(lambda p: p.total_s["solvers.two_pass"]),
        "solvers.replay_apply_ratio": med(
            lambda p: p.ops_second_pass / max(p.ops_first_pass, 1)),
        "mmio.read_s": med(lambda p: p.total_s["mmio.read"]),
        "mmio.write_s": med(lambda p: p.total_s["mmio.write"]),
        "mmio.bytes_read": med(lambda p: p.attr_sum["mmio.read.bytes"]),
        "mmio.bytes_written": med(lambda p: p.attr_sum["mmio.write.bytes"]),
        "problems.gen_s": med(lambda p: p.layer_self_s["problems"], setups),
        "cli.self_s": med(lambda p: p.layer_self_s["cli"]),
        "trace.solve_s": median(traced_times),
        "trace.untraced_solve_s": median([o.seconds for o in plain]),
        "trace.spans_per_solve": med(lambda p: sum(p.calls.values())),
    }
    for layer in ("kernels", "basis", "operators", "solvers", "mmio"):
        values[layer + ".self_s"] = med(lambda p: p.layer_self_s[layer])
    values["trace.overhead_s"] = values["trace.solve_s"] - values["trace.untraced_solve_s"]

    root = med(lambda p: p.root_s)
    print("  layer self time per traced solve (median of n=%d, root %.6g s):"
          % (len(solves), root))
    for layer in LAYERS:
        share = med(lambda p: p.layer_self_s[layer] / p.root_s)
        print("    %-10s %.6g s  %5.1f%%" % (
            layer, med(lambda p: p.layer_self_s[layer]), 100.0 * share))
    print("  largest self time by span name: %s" % ", ".join(
        "%s %.4g s" % kv for kv in sorted(
            ((name, med(lambda p: p.self_s[name]))
             for name in solves[0].self_s), key=lambda kv: -kv[1])[:4]))
    samples = {name: "median of n=%d traced solves" % len(solves) for name in PER_LAYER}
    for name in ("operators.factorize_s", "problems.gen_s"):
        samples[name] = "median of n=%d traced set-ups" % len(setups)
    for name in ("basis.peak_vectors", "solvers.basis_s", "solvers.residual_s",
                 "solvers.recovery_s", "trace.untraced_solve_s"):
        samples[name] = "median of n=%d untraced solves" % len(plain)
    samples["trace.overhead_s"] = "trace.solve_s minus trace.untraced_solve_s"
    return {k: (values[k], unit) for k, unit in PER_LAYER.items()}, samples


def run_all(args):
    """Every workload in its own process (peak RSS is per process)."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("  %s: no result (exit code %d)" % (name, proc.returncode))
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = entry
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes (n of 12 to 16), for tests")
    args = parser.parse_args(argv)

    _load_package()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              args.trace, args.smoke)
    else:
        parser.error("unknown workload %r (choose from %s, all)"
                     % (args.workload, ", ".join(WORKLOADS)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
