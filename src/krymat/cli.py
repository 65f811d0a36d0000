"""Command-line front end.

Subcommands: ``gen`` (write benchmark problems as Matrix Market files),
``solve-lyap`` and ``solve-sylv`` (run the projection solvers on generated
or file-based problems), and ``bench-residual`` (time the cheap residual
evaluation against the classical one along one basis construction).

Each subcommand's argparse parser is the one table of its options: name,
type, choices and default.  Options may also come from a flat
``key = value`` config file, whose values are converted and checked by the
same actions as the flags and installed as the subcommand's defaults, so
flags take precedence.  A key may be the option of any subcommand, so that
one file can serve several commands (a command skips the others' keys);
``c`` is an alias of ``c1``, and any other key is an error.  Solver options
left unset take their defaults from ``SolveOptions``.
"""

import argparse
import dataclasses
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

_BENCH_COLUMNS = ("m", "space_dim", "res_fast", "res_naive", "secs_fast",
                  "secs_naive", "gain_pct")


def _flag(raw):
    """A boolean config value: 1/0, true/false, yes/no or on/off, in any case."""
    if raw.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected 1/0, true/false, yes/no or on/off")
    return raw.lower() in ("1", "true", "yes", "on")


def _add_common_options(parser):
    parser.add_argument("--config", help="flat key = value option file")
    parser.add_argument("--problem", choices=problems.PROBLEM_KINDS)
    parser.add_argument("--n", type=int, help="interior grid points per direction")
    parser.add_argument("--s", type=int, default=1, help="right-hand side block width")
    parser.add_argument("--seed", type=int, default=0, help="right-hand side RNG seed")
    parser.add_argument("--out", default=".", help="output directory")


def _add_iteration_options(parser):
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-m", dest="max_m", type=int)
    parser.add_argument("--check-period", dest="check_period", type=int, metavar="D",
                        help="stop at the first multiple of D iterations whose "
                             "residual meets --tol; solves check a growing subset "
                             "of those steps, bench-residual checks each one")
    parser.add_argument("--space", choices=("standard", "extended"))


def _add_solve_options(parser):
    _add_iteration_options(parser)
    parser.add_argument("--storage", choices=("stored", "windowed"))
    parser.add_argument("--trunc-eps", dest="trunc_eps", type=float)
    parser.add_argument("--verify", action="store_const", const=True,
                        help="recompute the true residual at the end")


def _add_lyapunov_inputs(parser):
    parser.add_argument("--A", dest="a", help="Matrix Market coordinate file")
    parser.add_argument("--C", dest="c1", metavar="C", help="Matrix Market array file")


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
    _add_lyapunov_inputs(p_lyap)

    p_sylv = sub.add_parser("solve-sylv", help="solve A X + X B + C1 C2' = 0")
    _add_common_options(p_sylv)
    _add_solve_options(p_sylv)
    for name in ("A", "B", "C1", "C2"):
        p_sylv.add_argument("--" + name, dest=name.lower())
    p_sylv.add_argument("--one-sided", dest="one_sided", action="store_const",
                        const=True,
                        help="treat B as small and dense (eigendecomposed once)")

    p_bench = sub.add_parser(
        "bench-residual",
        help="time the projected residual evaluation against the classical path",
    )
    _add_common_options(p_bench)
    _add_iteration_options(p_bench)
    _add_lyapunov_inputs(p_bench)
    p_bench.add_argument("--reps", type=int, default=3,
                         help="timing repetitions (median of at least 3)")
    return parser


def _command_parsers(parser):
    """Subcommand name -> its parser."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _read_config(path, keys):
    """Raw values of a flat ``key = value`` file by option dest (``-`` reads
    as ``_``).  ``c`` is an alias of ``c1``, which wins when both are set."""
    values, aliased = {}, {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise KrymatError("config line %r is not 'key = value'" % raw.strip())
            key, val = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            if name == "c":
                aliased["c1"] = val
            elif name in keys:
                values[name] = val
            else:
                raise KrymatError("unknown config key %r" % key)
    return dict(aliased, **values)


def _set_config_defaults(parser, command, path):
    """Install the values of config file ``path`` that subcommand ``command``
    takes as its defaults, each converted and checked by its own action."""
    commands = _command_parsers(parser)
    actions = {action.dest: action for action in commands[command]._actions}
    keys = {a.dest for p in commands.values() for a in p._actions} - {"config", "help"}
    values = {}
    for key, raw in _read_config(path, keys).items():
        action = actions.get(key)
        if action is None:
            continue  # another subcommand's option
        try:
            value = _flag(raw) if action.nargs == 0 else (action.type or str)(raw)
        except ValueError as exc:
            raise KrymatError("config value %s = %r: %s" % (key, raw, exc)) from exc
        if action.choices is not None and value not in action.choices:
            raise KrymatError("config value %s = %r: expected one of %s"
                              % (key, raw, ", ".join(action.choices)))
        values[key] = value
    commands[command].set_defaults(**values)


def parse_args(argv=None):
    """The options of one command line: flags over config values over the
    parser's defaults.  Only with ``--config`` is argv parsed twice."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _set_config_defaults(parser, args.command, args.config)
        args = parser.parse_args(argv)
    return args


def _solve_options(args):
    """SolveOptions of the fields that were set; the rest keep their defaults."""
    given = {f.name: getattr(args, f.name, None)
             for f in dataclasses.fields(SolveOptions)}
    try:
        return SolveOptions(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise KrymatError(str(exc)) from exc


def _problem_inputs(args):
    """(A, B-or-None, C1, C2-or-None): a generated problem or Matrix Market
    files, the right-hand side generated when no C file is given."""
    a_path = getattr(args, "a", None)
    if args.problem is None and a_path is None:
        raise KrymatError("give --problem or explicit matrix files")
    if args.problem is not None and a_path is not None:
        raise KrymatError("give either --problem or explicit matrix files, not both")
    if args.s < 1:
        raise KrymatError("--s must be >= 1")
    if args.seed < 0:
        raise KrymatError("--seed must be >= 0")
    if args.problem is not None:
        if args.n is None:
            raise KrymatError("--problem needs --n")
        if args.n < 1:
            raise KrymatError("--n must be >= 1")
        a, b = problems.gen_operator(args.problem, args.n)
        c1 = problems.gen_rhs(a.shape[0], args.s, args.seed)
        c2 = None if b is None else problems.gen_rhs(b.shape[0], args.s, args.seed + 1)
        return a, b, c1, c2
    a = mmio.read_coordinate(a_path)
    b = mmio.read_coordinate(args.b) if getattr(args, "b", None) else None
    c1 = mmio.read_array(args.c1) if args.c1 else \
        problems.gen_rhs(a.shape[0], args.s, args.seed)
    c2 = mmio.read_array(args.c2) if getattr(args, "c2", None) else None
    return a, b, c1, c2


def _operator(name, matrix):
    """``SparseOperator(matrix)``; an error in the matrix is prefixed by
    ``name``, the input that holds it."""
    try:
        return SparseOperator(matrix)
    except KrymatError as exc:
        raise type(exc)("%s: %s" % (name, exc)) from exc


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_csv(path, columns, rows):
    """Rows of two integer columns followed by floats at 17 digits."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write("%d,%d," % row[:2])
            fh.write(",".join(_FLOAT_FMT % v for v in row[2:]) + "\n")


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


def cmd_gen(args):
    if args.problem is None or args.n is None:
        raise KrymatError("gen needs --problem and --n")
    a, b, c1, c2 = _problem_inputs(args)
    out = _outdir(args)
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
        _write_csv(os.path.join(out, "history.csv"), HISTORY_COLUMNS, exc.history)
        raise
    if sol.z2 is None:
        mmio.write_array(os.path.join(out, "Z.mtx"), sol.z)
    else:
        mmio.write_array(os.path.join(out, "Z1.mtx"), sol.z1)
        mmio.write_array(os.path.join(out, "Z2.mtx"), sol.z2)
    _write_csv(os.path.join(out, "history.csv"), HISTORY_COLUMNS, sol.history)
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(dict(_summary_payload(sol, opts), **summary_extra), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(
        "converged: m=%d dim=%d rank=%d residual=%.3e"
        % (sol.iterations, sol.space_dim, sol.rank, sol.final_residual)
    )
    return 0


def cmd_solve_lyap(args):
    opts = _solve_options(args)
    a, _, c, _ = _problem_inputs(args)
    out = _outdir(args)
    op = _operator("A", a)
    return _solve_and_write(out, opts, lambda: solve_lyapunov(op, c, opts))


def cmd_solve_sylv(args):
    opts = _solve_options(args)
    a, b, c1, c2 = _problem_inputs(args)
    if b is None:
        raise KrymatError("solve-sylv needs a B matrix (--B or a pair problem)")
    if c2 is None:
        raise KrymatError("solve-sylv needs C2 (file or generated)")
    one_sided = args.one_sided
    if one_sided is None:
        one_sided = b.shape[0] <= 1000 and b.shape[0] < a.shape[0]
    out = _outdir(args)
    op_a = _operator("A", a)

    def solve():
        if one_sided:
            return solve_sylvester_one_sided(op_a, b.toarray(), c1, c2, opts)
        return solve_sylvester_two_sided(op_a, _operator("B", b), c1, c2, opts)

    return _solve_and_write(out, opts, solve, one_sided=bool(one_sided))


def _median_timing(fun, reps):
    times = []
    for _ in range(reps):
        tic = time.perf_counter()
        result = fun()
        times.append(time.perf_counter() - tic)
    return result, float(np.median(times))


def cmd_bench_residual(args):
    opts = _solve_options(args)
    reps = max(args.reps, 3)
    a, _, c, _ = _problem_inputs(args)
    out = _outdir(args)
    op = _operator("A", a)
    beta2 = float(np.linalg.norm(c) ** 2)
    step = lanczos_step if opts.space == "standard" else extended_step
    basis = init_basis(op, c, space=opts.space, storage="windowed")
    rows = []
    for it in range(1, opts.max_m + 1):
        step(op, basis)
        if it % opts.check_period and not basis.exhausted:
            continue
        t = basis.projected_matrix()
        tau = basis.coupling_upper()
        fast, secs_fast = _median_timing(
            lambda: ctri_lyapunov(t, basis.gamma, tau, rhs_norm=beta2), reps
        )
        naive, secs_naive = _median_timing(
            lambda: naive_residual(solve_reduced_lyapunov(t, basis.gamma), tau), reps)
        gain = 100.0 * (secs_naive - secs_fast) / secs_naive if secs_naive else 0.0
        rows.append((it, it * basis.ell, fast.res, naive, secs_fast, secs_naive, gain))
        if fast.relative <= opts.tol or basis.exhausted:
            break
    path = os.path.join(out, "bench.csv")
    _write_csv(path, _BENCH_COLUMNS, rows)
    total_fast = sum(r[4] for r in rows)
    total_naive = sum(r[5] for r in rows)
    gain = 100.0 * (total_naive - total_fast) / total_naive if total_naive else 0.0
    print("checks=%d  time res fast=%.3fs  naive=%.3fs  gain=%.1f%%  (%s)"
          % (len(rows), total_fast, total_naive, gain, path))
    return 0


_COMMANDS = {"gen": cmd_gen, "solve-lyap": cmd_solve_lyap, "solve-sylv": cmd_solve_sylv,
             "bench-residual": cmd_bench_residual}


def main(argv=None):
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except (KrymatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
