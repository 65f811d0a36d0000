"""Print the observable outputs of a fixed grid of solves, one line per case.

Two checkouts that give the same results print the same text, so the gate
for a refactor that must not change any result is an empty diff:

    PYTHONPATH=<old checkout>/src python tools/same_outputs.py > old.txt
    PYTHONPATH=<new checkout>/src python tools/same_outputs.py > new.txt
    diff old.txt new.txt

The grid is 3 solvers x 2 spaces x 2 storages x s in {1, 2, 3} x check
period in {1, 3} x max_m in {500, 4} (the last one ends in
ConvergenceError), all with verify, plus 20 cases whose Krylov space
becomes invariant, one long s = 1 windowed Lyapunov solve (order 10000,
380 steps), whose checks see the eigenvalue clusters of a long Lanczos run
and whose recovery fills its workspace a dozen times, and one long extended
s = 2 windowed Lyapunov solve (order 10000, 28 steps), whose T recurrence
runs on after the extended basis has lost orthogonality (by m = 15).  Each
line gives the iterations, rank, the repr of the final and verified
residuals, SHA-256 digests of the factors and of the history (without its
timing columns) and the peak basis vectors, or the type and message of the
error raised.  BLAS runs on one thread so that sums are taken in a fixed
order.

Eight more cases run the command line in a temporary directory: ``krymat
gen`` followed by ``solve-lyap`` on its files in both spaces and storages,
``solve-lyap`` from a config file, one-sided and two-sided ``solve-sylv``,
and ``bench-residual``.  A solve's line gives the iterations, rank and the
repr of the final and verified residuals from ``summary.json``, and digests
of the ``Z*.mtx`` files and of ``history.csv`` without its timing columns
(or the exit status and the error printed).  ``bench-residual``'s line
gives the number of checks, the last m and a digest of the m, space_dim,
res_fast and res_naive columns of ``bench.csv``.

A change that moves rounding on purpose (another QR, a reordered sum) cannot
give an empty diff; the digests and the last digits of the residuals move.
For such a change compare the two outputs line by line instead: on all 174
cases the iterations, the rank and, where a case raises, the error type and
message must be equal, and the final residual may differ by at most 1e-3
relative to the old value, except where both values are below 1e-15, which
is roundoff of an exact projection.  The verified residual, the true
residual of the returned factor, may differ by at most 1e-3 relative too,
except where both values are below 1e-12, the roundoff level of its QR, so
a change that moves only the factor's rounding must still return a factor
that verifies.  The digests are not compared, so ``bench-residual``'s
line is compared by its counts alone.  ``--compare`` applies that
rule, prints each case that breaks it and the largest relative changes of a
final and of a verified residual, and exits 1 on a violation.  It also
prints how many solved cases moved their peak basis vectors, which a stored
basis whose last check ran past the stop raises, how many changed their
history digest and how many changed their factor digest; those counts only
inform, they do not change the exit status.  It only reads the two
files, so it runs without ``krymat`` on the path; the library is imported
only where cases are solved:

    python tools/same_outputs.py --compare old.txt new.txt
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

SPACES = ("standard", "extended")
STORAGES = ("stored", "windowed")


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _history_digest(history):
    # m, space_dim and relative_residual; the remaining columns are timings
    return hashlib.sha256(repr([(r[0], r[1], repr(r[2])) for r in history])
                          .encode()).hexdigest()[:16]


def _outcome(solve):
    from krymat import ConvergenceError, KrymatError

    try:
        sol = solve()
    except ConvergenceError as exc:
        return "%s: %s history=%s" % (type(exc).__name__, exc,
                                      _history_digest(exc.history))
    except KrymatError as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return "it=%d rank=%d final=%r verified=%r z=%s history=%s peak=%d" % (
        sol.iterations, sol.rank, sol.final_residual, sol.verified_residual,
        _digest(sol.z1, sol.z2), _history_digest(sol.history), sol.peak_basis_vectors,
    )


def _lyapunov(a, c):
    from krymat import SparseOperator, solve_lyapunov

    return lambda opts: solve_lyapunov(SparseOperator(a), c, opts)


def _two_sided(a, b, c1, c2):
    from krymat import SparseOperator, solve_sylvester_two_sided

    return lambda opts: solve_sylvester_two_sided(
        SparseOperator(a), SparseOperator(b), c1, c2, opts)


def _one_sided(a, b, c1, c2):
    from krymat import SparseOperator, solve_sylvester_one_sided

    return lambda opts: solve_sylvester_one_sided(SparseOperator(a), b, c1, c2, opts)


def grid_cases():
    """(name, solve, options) of the 144-case grid."""
    from krymat import SolveOptions
    from krymat.problems import gen_fd2d, gen_rhs, laplacian1d

    a_lyap = gen_fd2d("fd2d-exp", 10)
    a_pair, b_pair = gen_fd2d("fd2d-exp", 8), gen_fd2d("fd2d-trig", 8)
    b_small = (10.0 * laplacian1d(8)).toarray()
    for s in (1, 2, 3):
        solvers = (
            ("lyapunov", _lyapunov(a_lyap, gen_rhs(100, s, seed=s))),
            ("two-sided", _two_sided(a_pair, b_pair, gen_rhs(64, s, seed=10 + s),
                                     gen_rhs(64, s, seed=20 + s))),
            ("one-sided", _one_sided(a_lyap, b_small, gen_rhs(100, s, seed=30 + s),
                                     gen_rhs(8, s, seed=40 + s))),
        )
        for name, solve in solvers:
            for space in SPACES:
                for storage in STORAGES:
                    for d in (1, 3):
                        for max_m in (500, 4):
                            opts = SolveOptions(
                                tol=1e-8, max_m=max_m, check_period=d, space=space,
                                storage=storage, verify=True,
                            )
                            yield ("%s %s %s s=%d d=%d max_m=%d"
                                   % (name, space, storage, s, d, max_m), solve, opts)


def invariant_cases():
    """(name, solve, options) of 20 cases whose Krylov space becomes invariant."""
    from krymat import SolveOptions
    from krymat.problems import gen_fd2d, gen_rhs, laplacian1d

    lap6 = laplacian1d(6)
    eye6 = -sp.identity(6, format="csr")
    e1 = np.zeros((6, 1))
    e1[0] = 1.0
    b_small = (10.0 * laplacian1d(4)).toarray()
    cases = []
    for space in SPACES:
        for storage in STORAGES:
            for s in (1, 2):
                cases.append(("lyapunov laplacian1d(6) s=%d" % s, space, storage,
                              _lyapunov(lap6, gen_rhs(6, s, seed=50 + s))))
            cases.append(("one-sided laplacian1d(6)", space, storage,
                          _one_sided(lap6, b_small, gen_rhs(6, 1, seed=60),
                                     gen_rhs(4, 1, seed=61))))
            cases.append(("two-sided one space invariant", space, storage,
                          _two_sided(eye6, gen_fd2d("laplacian2d", 6), e1,
                                     gen_rhs(36, 1, seed=3))))
    for storage in STORAGES:
        cases.append(("lyapunov -I e1", "standard", storage, _lyapunov(eye6, e1)))
        cases.append(("two-sided -I e1", "standard", storage,
                      _two_sided(eye6, eye6, e1, e1)))
    for name, space, storage, solve in cases:
        opts = SolveOptions(tol=1e-10, max_m=40, space=space, storage=storage,
                            verify=True)
        yield "%s %s %s" % (name, space, storage), solve, opts


def long_case():
    """(name, solve, options) of one long s = 1 windowed Lyapunov solve."""
    from krymat import SolveOptions
    from krymat.problems import gen_fd2d, gen_rhs

    solve = _lyapunov(gen_fd2d("fd2d-exp", 100), gen_rhs(10000, 1, seed=8))
    opts = SolveOptions(tol=1e-8, check_period=20, storage="windowed", verify=True)
    yield "lyapunov fd2d-exp(100) standard windowed s=1 d=20", solve, opts


def long_extended_case():
    """(name, solve, options) of one long extended windowed solve, s = 2,
    whose T recurrence runs on after the basis has lost orthogonality."""
    from krymat import SolveOptions
    from krymat.problems import gen_fd2d, gen_rhs

    solve = _lyapunov(gen_fd2d("fd2d-exp", 100), gen_rhs(10000, 2, seed=9))
    opts = SolveOptions(tol=1e-10, space="extended", storage="windowed", verify=True)
    yield "lyapunov fd2d-exp(100) extended windowed s=2", solve, opts


def _file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _csv_digest(path, columns):
    """Rows of a CSV file that the command line wrote, cut to its first
    ``columns`` columns, and the SHA-256 digest of that text."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",")[:columns] for line in fh][1:]
    return rows, hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _cli(argv, out):
    """Run ``krymat argv --out out``: None on success, else the exit status
    and the error printed."""
    from krymat import cli

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        status = cli.main(argv + ["--out", out])
    return None if status == 0 else "exit %d: %s" % (status, stderr.getvalue().strip())


def _cli_solve(argv, out):
    failed = _cli(argv, out)
    if failed:
        return failed
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    return "it=%d rank=%d final=%r verified=%r z=%s history=%s" % (
        summary["iterations"], summary["rank"], summary["final_relative_residual"],
        summary["verified_relative_residual"],
        _file_digest(sorted(glob.glob(os.path.join(out, "Z*.mtx")))),
        _csv_digest(os.path.join(out, "history.csv"), 3)[1],
    )


def _cli_bench(argv, out):
    failed = _cli(argv, out)
    if failed:
        return failed
    rows, digest = _csv_digest(os.path.join(out, "bench.csv"), 4)
    return "checks=%d m=%s history=%s" % (len(rows), rows[-1][0], digest)


def cli_cases(tmp):
    """(name, outcome) of 8 command lines run in directory ``tmp``."""
    prob = os.path.join(tmp, "prob")
    failed = _cli(["gen", "--problem", "fd2d-exp", "--n", "10", "--s", "2",
                   "--seed", "1"], prob)
    solve = ["--tol", "1e-8", "--verify"]
    for space in SPACES:
        for storage in STORAGES:
            argv = ["solve-lyap", "--A", os.path.join(prob, "A.mtx"),
                    "--C", os.path.join(prob, "C1.mtx"), "--space", space,
                    "--storage", storage] + solve
            yield ("cli gen fd2d-exp + solve-lyap files %s %s" % (space, storage),
                   failed or _cli_solve(argv, os.path.join(tmp, space + storage)))
    config = os.path.join(tmp, "run.cfg")
    with open(config, "w") as fh:
        fh.write("problem = fd2d-trig\nn = 9\ns = 2\nseed = 4\ntol = 1e-8\n"
                 "check-period = 3\nstorage = windowed\nverify = yes\n")
    yield ("cli solve-lyap config fd2d-trig",
           _cli_solve(["solve-lyap", "--config", config], os.path.join(tmp, "config")))
    for kind in ("fd3d-split", "fd2d-pair"):
        argv = ["solve-sylv", "--problem", kind, "--n", "6", "--s", "2", "--seed", "2"]
        yield "cli solve-sylv %s" % kind, _cli_solve(argv + solve, os.path.join(tmp, kind))
    argv = ["bench-residual", "--problem", "laplacian2d", "--n", "7", "--s", "2",
            "--seed", "4", "--tol", "1e-8", "--max-m", "30", "--check-period", "2"]
    yield "cli bench-residual laplacian2d", _cli_bench(argv, os.path.join(tmp, "bench"))


#: Largest relative change of a final or verified residual that ``--compare``
#: accepts, and the levels below which both values count as roundoff: of an
#: exact projection (final) and of the QR behind the true residual (verified).
RTOL = 1e-3
FINAL_FLOOR = 1e-15
VERIFIED_FLOOR = 1e-12


def _read_outcomes(path):
    """(case name, outcome) per line of a file this script printed."""
    with open(path) as fh:
        return [tuple(line.rstrip("\n").split(" | ", 1)) for line in fh if line.strip()]


def _fields(outcome):
    """The ``key=value`` fields of a solved case's outcome, as strings."""
    return dict(item.split("=", 1) for item in outcome.split())


def _solved(outcome):
    """(iterations, rank, final residual, verified residual) of a solved
    case, None for an error."""
    if not outcome.startswith("it="):
        return None
    fields = _fields(outcome)
    return (int(fields["it"]), int(fields["rank"]), float(fields["final"]),
            float(fields["verified"]))


def compare(old, new):
    """Cases of ``new`` that break the line-by-line rule against ``old``
    (lists of (name, outcome)), and the largest relative changes of a final
    and of a verified residual that the rule compares, keyed by field."""
    worst = {"final": 0.0, "verified": 0.0}
    if [name for name, _ in old] != [name for name, _ in new]:
        return ["the two files do not list the same cases in the same order"], worst
    broken = []
    for (name, before), (_, after) in zip(old, new):
        a, b = _solved(before), _solved(after)
        if a is None or b is None:
            # error type and message; a ConvergenceError's history digest moves
            if a is not None or b is not None or \
                    before.split(" history=")[0] != after.split(" history=")[0]:
                broken.append("%s: %s -> %s" % (name, before, after))
            continue
        if a[:2] != b[:2]:
            broken.append("%s: it, rank %s -> %s" % (name, a[:2], b[:2]))
            continue
        moved = []
        for field, floor, x, y in (("final", FINAL_FLOOR, a[2], b[2]),
                                   ("verified", VERIFIED_FLOOR, a[3], b[3])):
            if max(x, y) < floor:
                continue
            change = abs(y - x) / x if x else float("inf")
            worst[field] = max(worst[field], change)
            if change > RTOL:
                moved.append("%s %r -> %r" % (field, x, y))
        if moved:
            broken.append("%s: %s" % (name, ", ".join(moved)))
    return broken, worst


def moved_digests(old, new):
    """How many cases are solved on both sides (``solved``), and how many of
    them changed their peak basis vectors (``peak``, which the command-line
    cases do not print), their history digest (``history``) and their factor
    digest (``z``)."""
    moved = {"solved": 0, "peak": 0, "history": 0, "z": 0}
    for (_, before), (_, after) in zip(old, new):
        if _solved(before) is None or _solved(after) is None:
            continue
        a, b = _fields(before), _fields(after)
        moved["solved"] += 1
        moved["peak"] += a.get("peak") != b.get("peak")
        moved["history"] += a["history"] != b["history"]
        moved["z"] += a["z"] != b["z"]
    return moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="check two outputs of this script line by line")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (_read_outcomes(path) for path in args.compare)
        broken, worst = compare(old, new)
        for line in broken:
            print(line)
        print("%d of %d cases break the rule; largest final-residual change %.2g, "
              "largest verified-residual change %.2g"
              % (len(broken), len(new), worst["final"], worst["verified"]))
        moved = moved_digests(old, new)
        print("%d of %d cases solved in both moved their peak basis vectors"
              % (moved["peak"], moved["solved"]))
        print("of %d cases solved in both, %d changed their history digest and %d "
              "their factor digest" % (moved["solved"], moved["history"], moved["z"]))
        return 1 if broken else 0
    for name, solve, opts in list(grid_cases()) + list(invariant_cases()) + \
            list(long_case()) + list(long_extended_case()):
        print("%s | %s" % (name, _outcome(lambda: solve(opts))))
    with tempfile.TemporaryDirectory() as tmp:
        for name, outcome in cli_cases(tmp):
            print("%s | %s" % (name, outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
