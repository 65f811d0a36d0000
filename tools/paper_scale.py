"""Run the paper's five experiments with the solver's own timers.

``CASES`` defines each experiment once, for this tool and for the
acceptance tests: three Lyapunov runs A X + X A + C C^T = 0 on fd2d-exp at
order 21904 with s = 1, 4 and 8, and two Sylvester runs A X + X B + C1 C2^T
= 0 with s = 3, two-sided on the fd2d-pair problem (order 16384) and
one-sided on fd3d-split (A of order 21904, B of order 148, dense).  Each
solves at tolerance 1e-6, windowed, with a residual check period of d (1 by
default).  Per case it prints the iterations against the paper's count,
the space dimension k, the check period, the number of residual checks
made, the solve, check, basis and recovery seconds that the solution
reports, and the verified relative residual, the true residual of the
returned factors, computed after the solve is timed:

    PYTHONPATH=src python tools/paper_scale.py [--case s1 --case two-sided ...] \\
        [--check-period D]

Without ``--case`` it runs all five, about 21 s on one BLAS thread, most of
it s = 8.  BLAS runs on one thread unless OPENBLAS_NUM_THREADS (or
OMP_NUM_THREADS) is set, and the first line gives the thread count in force.
"""

import argparse
import collections
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: One experiment: the problem kind (``krymat.problems.gen_operator``) and
#: its grid n, the block width s, the seed of each right-hand side (C, or
#: C1 and C2), the iteration limit, whether B is passed dense (one-sided
#: Sylvester), and the paper's iteration count.
Case = collections.namedtuple("Case", "kind n s seeds max_m dense_b reference")

CASES = {
    "s1": Case("fd2d-exp", 148, 1, (1101,), 700, False, 444),
    "s4": Case("fd2d-exp", 148, 4, (1104,), 700, False, 319),
    "s8": Case("fd2d-exp", 148, 8, (1108,), 700, False, 250),
    "two-sided": Case("fd2d-pair", 128, 3, (1201, 1202), 400, False, 217),
    "one-sided": Case("fd3d-split", 148, 3, (1203, 1204), 400, True, 190),
}


def run_case(name, d=1):
    """One case's solve at check period d, as a dict of what its line
    prints."""
    import numpy as np

    from krymat import (SolveOptions, SparseOperator, gen_operator, gen_rhs,
                        solve_lyapunov, solve_sylvester_one_sided,
                        solve_sylvester_two_sided, true_sylvester_residual)

    case = CASES[name]
    a, b = gen_operator(case.kind, case.n)
    op = SparseOperator(a)
    c = [gen_rhs(m.shape[0], case.s, seed=seed) for m, seed in zip((a, b), case.seeds)]
    opts = SolveOptions(tol=1e-6, max_m=case.max_m, check_period=d, storage="windowed")
    if b is None:  # Lyapunov: the verification takes B = A, C2 = C and Z2 = Z
        solve, args, apply_b = solve_lyapunov, (op, c[0]), op.apply
    elif case.dense_b:
        b = b.toarray()
        solve, args, apply_b = solve_sylvester_one_sided, (op, b, *c), b.dot
    else:
        op_b = SparseOperator(b)
        solve, args, apply_b = solve_sylvester_two_sided, (op, op_b, *c), op_b.apply
    tic = time.perf_counter()
    sol = solve(*args, opts)
    solve_s = time.perf_counter() - tic
    z2 = sol.z1 if sol.z2 is None else sol.z2
    verified = true_sylvester_residual(op, sol.z1, z2, c[0], c[-1], apply_b)
    return {
        "case": name, "iterations": sol.iterations, "reference": case.reference,
        "k": sol.space_dim, "d": d, "checks": len(sol.history),
        "solve_s": solve_s, "check_s": sol.residual_seconds,
        "basis_s": sol.basis_seconds, "recovery_s": sol.recovery_seconds,
        "verified": verified / (np.linalg.norm(c[0]) * np.linalg.norm(c[-1])),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--case", action="append", choices=tuple(CASES),
                        help="a case to run (repeatable; default all)")
    parser.add_argument("--check-period", type=int, default=1, metavar="D",
                        help="the residual check period d (default 1)")
    args = parser.parse_args(argv)
    print("BLAS threads: OPENBLAS_NUM_THREADS=%s OMP_NUM_THREADS=%s"
          % (os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"]))
    for name in args.case or CASES:
        r = run_case(name, args.check_period)
        print("%(case)s: iterations %(iterations)d (paper %(reference)d) k=%(k)d "
              "d=%(d)d checks=%(checks)d solve %(solve_s).2f s: checks %(check_s).2f "
              "s, basis %(basis_s).2f s, recovery %(recovery_s).2f s, verified "
              "%(verified).2e" % r, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
