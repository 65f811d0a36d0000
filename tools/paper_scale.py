"""Time the paper-scale Lyapunov solves with the solver's own timers.

Each case solves A X + X A + C C^T = 0 with A from fd2d-exp on a 148 x 148
grid (order 21904), C of s columns from seed 1100 + s, tolerance 1e-6, a
residual check period of d (1 by default) and windowed storage, as the
paper-scale tests in ``tests/test_acceptance.py`` do at d = 1.  Per case it
prints the iterations against the paper's count, the space dimension k,
the check period, the number of residual checks made, the solve, check,
basis and recovery seconds that the solution reports, and the verified
relative residual, the true residual of the returned factor, computed
after the solve is timed:

    PYTHONPATH=src python tools/paper_scale.py [--case s1 --case s4 ...] \\
        [--check-period D]

Without ``--case`` it runs s = 1, 4 and 8; s = 8 takes minutes.  BLAS runs
on one thread unless OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS) is set, and
the first line gives the thread count in force.
"""

import argparse
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: Case name -> (block width s, the paper's iteration count).
CASES = {"s1": (1, 444), "s4": (4, 319), "s8": (8, 250)}
GRID = 148


def run_case(name, d=1):
    """One case's solve at check period d, as a dict of what the line
    prints."""
    import numpy as np

    from krymat import SolveOptions, SparseOperator, solve_lyapunov, true_lyapunov_residual
    from krymat.problems import gen_fd2d, gen_rhs

    s, reference = CASES[name]
    op = SparseOperator(gen_fd2d("fd2d-exp", GRID))
    c = gen_rhs(GRID * GRID, s, seed=1100 + s)
    opts = SolveOptions(tol=1e-6, max_m=700, check_period=d, storage="windowed")
    tic = time.perf_counter()
    sol = solve_lyapunov(op, c, opts)
    solve_s = time.perf_counter() - tic
    return {
        "case": name, "iterations": sol.iterations, "reference": reference,
        "k": sol.space_dim, "d": d, "checks": len(sol.history),
        "solve_s": solve_s, "check_s": sol.residual_seconds,
        "basis_s": sol.basis_seconds, "recovery_s": sol.recovery_seconds,
        "verified": true_lyapunov_residual(op, sol.z, c) / np.linalg.norm(c) ** 2,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="a case to run (repeatable; default all)")
    parser.add_argument("--check-period", type=int, default=1, metavar="D",
                        help="the residual check period d (default 1)")
    args = parser.parse_args(argv)
    print("BLAS threads: OPENBLAS_NUM_THREADS=%s OMP_NUM_THREADS=%s"
          % (os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"]))
    for name in args.case or sorted(CASES, key=lambda n: CASES[n][0]):
        r = run_case(name, args.check_period)
        print("%(case)s: iterations %(iterations)d (paper %(reference)d) k=%(k)d "
              "d=%(d)d checks=%(checks)d solve %(solve_s).2f s: checks %(check_s).2f "
              "s, basis %(basis_s).2f s, recovery %(recovery_s).2f s, verified "
              "%(verified).2e" % r, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
