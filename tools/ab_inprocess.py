"""Paired in-process A/B timing of two krymat source trees.

Both trees are loaded into one process, under the package names
``krymat_a`` and ``krymat_b``, and solve the same equation at tolerance 1e-6,
as in the benchmark.  ``--equation`` picks it: ``lyapunov`` (the default),
A X + X A + C C^T = 0 with A from fd2d-exp; ``two-sided``, A X + X B +
C1 C2^T = 0 on the fd2d-pair problem (A from fd2d-exp, B from fd2d-trig);
or ``one-sided``, the same equation on the fd3d-split problem, with the
small B dense.  A is of order n^2; C2 comes from the seed plus one, as in
``krymat solve-sylv``.  Every round solves one right-hand side with both
trees, one after the other, and the tree that goes first switches from
round to round, so a machine that slows for a while slows both sides of a
pair alike:

    python tools/ab_inprocess.py OLD/src NEW/src --n 24 --s 2 \\
        --storage windowed --d 1 --seeds 1101-1110 [--equation two-sided]

There are two rounds per seed, so each seed runs once with each tree first;
for more rounds, pass more seeds.  Each tree builds its own operators (and,
in the extended space, their sparse LUs) before any solve is timed.  BLAS
runs on one thread.

The output gives each tree's median solve time and quartiles, the number of
rounds in which B was faster than A, the median paired difference, and
whether the two trees agree on the iterations, the rank and the final
residual of every seed.
"""

import argparse
import importlib.util
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

TOL = 1e-6
MAX_M = 2000

#: The problem kind (``krymat.problems.gen_operator``) of each equation.
PROBLEMS = {"lyapunov": "fd2d-exp", "two-sided": "fd2d-pair", "one-sided": "fd3d-split"}


def load_tree(src, name):
    """The ``krymat`` package under ``src``, imported as ``name``."""
    pkg_dir = os.path.join(os.path.abspath(src), "krymat")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def parse_seeds(text):
    """Seeds from a comma-separated list of numbers and ``first-last`` ranges."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def rounds(seeds):
    """(seed, order of the trees) per round: each seed once with each tree first."""
    return [(seed, order) for seed in seeds for order in ((0, 1), (1, 0))]


def solver(tree, args, a, b):
    """``solve(c1, c2)`` of ``args.equation`` with the operators and options
    of ``tree``; every LU the extended space needs is built here, untimed."""
    opts = tree.SolveOptions(tol=TOL, max_m=MAX_M, check_period=args.d,
                             space=args.space, storage=args.storage)
    ops = [tree.SparseOperator(a)]
    if args.equation == "two-sided":
        ops.append(tree.SparseOperator(b))
    if args.space == "extended":
        for op in ops:
            op.factorization()
    if args.equation == "lyapunov":
        return lambda c1, c2: tree.solve_lyapunov(ops[0], c1, opts)
    if args.equation == "two-sided":
        return lambda c1, c2: tree.solve_sylvester_two_sided(*ops, c1, c2, opts)
    b_dense = b.toarray()
    return lambda c1, c2: tree.solve_sylvester_one_sided(ops[0], b_dense, c1, c2, opts)


def run(args):
    trees = [load_tree(src, name) for src, name in
             ((args.src_a, "krymat_a"), (args.src_b, "krymat_b"))]
    problems = trees[0].problems
    kind = PROBLEMS[args.equation]
    a, b = problems.gen_operator(kind, args.n)
    rhs = {seed: (problems.gen_rhs(a.shape[0], args.s, seed),
                  None if b is None else problems.gen_rhs(b.shape[0], args.s, seed + 1))
           for seed in args.seeds}
    solves = [solver(tree, args, a, b) for tree in trees]

    times = [[], []]
    outcomes = [{}, {}]
    schedule = rounds(args.seeds)
    for seed, order in schedule:
        for side in order:
            tic = time.perf_counter()
            sol = solves[side](*rhs[seed])
            times[side].append(time.perf_counter() - tic)
            outcomes[side][seed] = (sol.iterations, sol.rank, sol.final_residual)

    print("%s(%d), order %d, s=%d, %s %s, d=%d, seeds %s, %d rounds" % (
        kind, args.n, a.shape[0], args.s, args.space, args.storage, args.d,
        ",".join(map(str, args.seeds)), len(schedule)))
    for label, src, t in (("A", args.src_a, times[0]), ("B", args.src_b, times[1])):
        q1, med, q3 = np.percentile(t, [25, 50, 75])
        print("%s %s: median %.4f s [%.4f, %.4f]" % (label, src, med, q1, q3))
    diff = np.subtract(times[1], times[0])
    print("B faster in %d of %d rounds; median paired difference B - A %+.4f s" % (
        int(np.sum(diff < 0.0)), len(schedule), float(np.median(diff))))
    for k, what in enumerate(("iterations", "rank", "final residual")):
        same = all(outcomes[0][seed][k] == outcomes[1][seed][k] for seed in outcomes[0])
        print("%s agree: %s" % (what, "yes" if same else "no"))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", help="source tree A (the directory holding krymat/)")
    parser.add_argument("src_b", help="source tree B")
    parser.add_argument("--equation", choices=tuple(PROBLEMS), default="lyapunov",
                        help="equation to solve, each on its own problem (see above)")
    parser.add_argument("--n", type=int, required=True, help="grid size; order n^2")
    parser.add_argument("--s", type=int, required=True, help="right-hand side columns")
    parser.add_argument("--space", choices=("standard", "extended"), default="standard")
    parser.add_argument("--storage", choices=("stored", "windowed"), default="stored")
    parser.add_argument("--d", type=int, default=1, help="check period")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="right-hand side seeds, e.g. 1101-1110 or 1,5,9")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
