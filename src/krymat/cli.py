"""Command-line front end.

Subcommands: ``gen`` (write benchmark problems as Matrix Market files),
``solve-lyap`` and ``solve-sylv`` (run the projection solvers on generated
or file-based problems), and ``bench-residual`` (time the cheap residual
evaluation against the classical one along one basis construction).

Options may also come from a flat ``key = value`` config file; command-line
flags take precedence over the file.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import mmio, problems
from .errors import ConvergenceError, KrymatError
from .operators import SparseOperator
from .reduced import naive_residual, solve_reduced_lyapunov
from .residual import ctri_lyapunov
from .basis import extended_step, init_basis, lanczos_step
from .solvers import HISTORY_COLUMNS, SolveOptions, solve_lyapunov, \
    solve_sylvester_one_sided, solve_sylvester_two_sided

_FLOAT_FMT = "%.17g"


def _read_config(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise KrymatError("config line %r is not 'key = value'" % raw.strip())
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _resolve(args, config, key, default, cast):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        raw = config[key]
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return default


def _add_common_options(parser):
    parser.add_argument("--config", help="flat key = value option file")
    parser.add_argument("--problem", choices=(
        "fd2d-exp", "fd2d-trig", "laplacian2d", "laplacian1d",
        "fd2d-pair", "fd3d-split"))
    parser.add_argument("--n", type=int, help="interior grid points per direction")
    parser.add_argument("--s", type=int, help="right-hand side block width")
    parser.add_argument("--seed", type=int, help="right-hand side RNG seed")
    parser.add_argument("--out", help="output directory")


def _add_solve_options(parser):
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-m", dest="max_m", type=int)
    parser.add_argument("--check-period", dest="check_period", type=int)
    parser.add_argument("--space", choices=("standard", "extended"))
    parser.add_argument("--storage", choices=("stored", "windowed"))
    parser.add_argument("--trunc-eps", dest="trunc_eps", type=float)
    parser.add_argument("--verify", action="store_const", const=True, default=None,
                        help="recompute the true residual at the end (small n)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="krymat",
        description="Low-rank Lyapunov/Sylvester solvers on block Krylov spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a benchmark problem")
    _add_common_options(p_gen)

    p_lyap = sub.add_parser("solve-lyap", help="solve A X + X A + C C' = 0")
    _add_common_options(p_lyap)
    _add_solve_options(p_lyap)
    p_lyap.add_argument("--A", dest="a_path", help="Matrix Market coordinate file")
    p_lyap.add_argument("--C", dest="c_path", help="Matrix Market array file")

    p_sylv = sub.add_parser("solve-sylv", help="solve A X + X B + C1 C2' = 0")
    _add_common_options(p_sylv)
    _add_solve_options(p_sylv)
    p_sylv.add_argument("--A", dest="a_path")
    p_sylv.add_argument("--B", dest="b_path")
    p_sylv.add_argument("--C1", dest="c1_path")
    p_sylv.add_argument("--C2", dest="c2_path")
    p_sylv.add_argument("--one-sided", dest="one_sided", action="store_const",
                        const=True, default=None,
                        help="treat B as small and dense (eigendecomposed once)")

    p_bench = sub.add_parser(
        "bench-residual",
        help="time the projected residual evaluation against the classical path",
    )
    _add_common_options(p_bench)
    _add_solve_options(p_bench)
    p_bench.add_argument("--reps", type=int, help="timing repetitions (median)")
    return parser


def _solve_options(args, config):
    return SolveOptions(
        tol=_resolve(args, config, "tol", 1e-6, float),
        max_m=_resolve(args, config, "max_m", 500, int),
        check_period=_resolve(args, config, "check_period", 1, int),
        space=_resolve(args, config, "space", "standard", str),
        storage=_resolve(args, config, "storage", "stored", str),
        trunc_eps=_resolve(args, config, "trunc_eps", 1e-12, float),
        verify=_resolve(args, config, "verify", False, bool),
    )


def _generate(kind, n, s, seed):
    """A, B-or-None, C1 and C2-or-None of a generated problem kind."""
    if kind == "fd2d-pair":
        a, b = problems.gen_fd2d("fd2d-exp", n), problems.gen_fd2d("fd2d-trig", n)
    elif kind == "fd3d-split":
        a, b = problems.gen_fd3d_split(n)
    else:
        a, b = problems.gen_operator(kind, n), None
    c1 = problems.gen_rhs(a.shape[0], s, seed)
    c2 = problems.gen_rhs(b.shape[0], s, seed + 1) if b is not None else None
    return a, b, c1, c2


def _problem_inputs(args, config, need_pair=False):
    """Build (A, B-or-None, C1, C2-or-None) from flags: either Matrix Market
    paths or a generated problem."""
    kind = _resolve(args, config, "problem", None, str)
    a_path = getattr(args, "a_path", None) or config.get("a")
    if (kind is None) == (a_path is None):
        raise KrymatError("give either --problem or explicit matrix files, not both")
    s = _resolve(args, config, "s", 1, int)
    seed = _resolve(args, config, "seed", 0, int)
    if kind is not None:
        n = _resolve(args, config, "n", None, int)
        if n is None:
            raise KrymatError("--problem needs --n")
        a, b, c1, c2 = _generate(kind, n, s, seed)
        if need_pair and b is None:
            raise KrymatError("problem kind %r does not define a B matrix" % kind)
        return a, b, c1, c2
    a = mmio.read_coordinate(a_path)
    b_path = getattr(args, "b_path", None) or config.get("b")
    b = mmio.read_coordinate(b_path) if b_path else None
    c1_path = getattr(args, "c_path", None) or getattr(args, "c1_path", None) \
        or config.get("c1") or config.get("c")
    c1 = mmio.read_array(c1_path) if c1_path else problems.gen_rhs(a.shape[0], s, seed)
    c2_path = getattr(args, "c2_path", None) or config.get("c2")
    c2 = mmio.read_array(c2_path) if c2_path else None
    if need_pair and b is None:
        raise KrymatError("solve-sylv needs a B matrix (--B or a pair problem)")
    return a, b, c1, c2


def _outdir(args, config):
    out = _resolve(args, config, "out", ".", str)
    os.makedirs(out, exist_ok=True)
    return out


def _write_history(path, history):
    with open(path, "w") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in history:
            fh.write("%d,%d," % row[:2])
            fh.write(",".join(_FLOAT_FMT % v for v in row[2:]) + "\n")


def _write_summary(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_payload(sol, opts):
    return {
        "iterations": sol.iterations,
        "space_dim": sol.space_dim,
        "rank": sol.rank,
        "final_relative_residual": sol.final_residual,
        "verified_relative_residual": sol.verified_residual,
        "peak_basis_vectors": sol.peak_basis_vectors,
        "basis_seconds": sol.basis_seconds,
        "residual_seconds": sol.residual_seconds,
        "recovery_seconds": sol.recovery_seconds,
        "truncation_discarded": sol.truncation_discarded,
        "tol": opts.tol,
        "space": opts.space,
        "storage": opts.storage,
        "converged": True,
    }


def cmd_gen(args, config):
    kind = _resolve(args, config, "problem", None, str)
    n = _resolve(args, config, "n", None, int)
    if kind is None or n is None:
        raise KrymatError("gen needs --problem and --n")
    s = _resolve(args, config, "s", 1, int)
    seed = _resolve(args, config, "seed", 0, int)
    out = _outdir(args, config)
    a, b, c1, c2 = _generate(kind, n, s, seed)
    mmio.write_coordinate(os.path.join(out, "A.mtx"), a)
    mmio.write_array(os.path.join(out, "C1.mtx"), c1)
    written = ["A.mtx", "C1.mtx"]
    if b is not None:
        mmio.write_coordinate(os.path.join(out, "B.mtx"), b)
        mmio.write_array(os.path.join(out, "C2.mtx"), c2)
        written += ["B.mtx", "C2.mtx"]
    print("wrote %s in %s" % (", ".join(written), out))
    return 0


def _solve_and_write(out, opts, solve, **summary_extra):
    """Run ``solve()`` and write the factor files, history.csv and
    summary.json; on non-convergence only the history is written."""
    try:
        sol = solve()
    except ConvergenceError as exc:
        _write_history(os.path.join(out, "history.csv"), exc.history)
        raise
    if sol.z2 is None:
        mmio.write_array(os.path.join(out, "Z.mtx"), sol.z)
    else:
        mmio.write_array(os.path.join(out, "Z1.mtx"), sol.z1)
        mmio.write_array(os.path.join(out, "Z2.mtx"), sol.z2)
    _write_history(os.path.join(out, "history.csv"), sol.history)
    payload = dict(_summary_payload(sol, opts), **summary_extra)
    _write_summary(os.path.join(out, "summary.json"), payload)
    print(
        "converged: m=%d dim=%d rank=%d residual=%.3e"
        % (sol.iterations, sol.space_dim, sol.rank, sol.final_residual)
    )
    return 0


def cmd_solve_lyap(args, config):
    opts = _solve_options(args, config)
    a, _, c, _ = _problem_inputs(args, config)
    out = _outdir(args, config)
    op = SparseOperator(a)
    return _solve_and_write(out, opts, lambda: solve_lyapunov(op, c, opts))


def cmd_solve_sylv(args, config):
    opts = _solve_options(args, config)
    a, b, c1, c2 = _problem_inputs(args, config, need_pair=True)
    if c2 is None:
        raise KrymatError("solve-sylv needs C2 (file or generated)")
    one_sided = _resolve(args, config, "one_sided", None, bool)
    if one_sided is None:
        one_sided = b.shape[0] <= 1000 and b.shape[0] < a.shape[0]
    out = _outdir(args, config)
    op_a = SparseOperator(a)

    def solve():
        if one_sided:
            return solve_sylvester_one_sided(op_a, b.toarray(), c1, c2, opts)
        return solve_sylvester_two_sided(op_a, SparseOperator(b), c1, c2, opts)

    return _solve_and_write(out, opts, solve, one_sided=bool(one_sided))


def _median_timing(fun, reps):
    times = []
    for _ in range(reps):
        tic = time.perf_counter()
        result = fun()
        times.append(time.perf_counter() - tic)
    return result, float(np.median(times))


def cmd_bench_residual(args, config):
    opts = _solve_options(args, config)
    reps = max(_resolve(args, config, "reps", 3, int), 3)
    a, _, c, _ = _problem_inputs(args, config)
    out = _outdir(args, config)
    op = SparseOperator(a)
    beta2 = float(np.linalg.norm(c) ** 2)
    step = lanczos_step if opts.space == "standard" else extended_step
    window, state = init_basis(op, c, space=opts.space, storage="windowed")
    rows = []
    for it in range(1, opts.max_m + 1):
        step(op, window, state)
        if it % opts.check_period:
            continue
        t = state.projected_matrix()
        tau = state.coupling_upper()
        fast, secs_fast = _median_timing(
            lambda: ctri_lyapunov(t, state.gamma, tau, rhs_norm=beta2), reps
        )
        naive, secs_naive = _median_timing(
            lambda: naive_residual(
                solve_reduced_lyapunov(t, state.gamma), tau
            ), reps
        )
        gain = 100.0 * (secs_naive - secs_fast) / secs_naive if secs_naive else 0.0
        rows.append((it, it * state.ell, fast.res, naive, secs_fast, secs_naive, gain))
        if fast.relative <= opts.tol:
            break
    path = os.path.join(out, "bench.csv")
    with open(path, "w") as fh:
        fh.write("m,space_dim,res_fast,res_naive,secs_fast,secs_naive,gain_pct\n")
        for row in rows:
            fh.write("%d,%d," % row[:2])
            fh.write(",".join(_FLOAT_FMT % v for v in row[2:]) + "\n")
    total_fast = sum(r[4] for r in rows)
    total_naive = sum(r[5] for r in rows)
    print(
        "checks=%d  time res fast=%.3fs  naive=%.3fs  gain=%.1f%%  (%s)"
        % (
            len(rows),
            total_fast,
            total_naive,
            100.0 * (total_naive - total_fast) / total_naive if total_naive else 0.0,
            path,
        )
    )
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "solve-lyap": cmd_solve_lyap,
    "solve-sylv": cmd_solve_sylv,
    "bench-residual": cmd_bench_residual,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = _read_config(args.config) if args.config else {}
    try:
        return _COMMANDS[args.command](args, config)
    except KrymatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
