"""The four benchmark workloads and the code that sets up and runs one solve.

Every workload solves fd2d-exp Lyapunov equations A X + X A + C C' = 0 to
a relative residual of 1e-6, as in the source paper's experiments, on
several right-hand sides per run (``n_rhs``).  The workloads differ in which layer does
most of the work:

- ``lyap-monitor``: standard space, s=2, windowed, residual checked every
  iteration (the paper's d = 1 monitoring).  The pure-Python banded Givens
  reduction of the residual check is nearly all of the time.
- ``lyap-large``: large order, s=1, windowed, check every 20 iterations.
  SpMV, block Gram-Schmidt and the two-pass recovery dominate; with s=1 the
  band reduction takes its bandwidth-1 shortcut and does no Givens work.
- ``lyap-extended``: extended space, s=2, stored basis, check every
  iteration, one operator whose sparse LU is built in set-up and shared by
  all right-hand sides.  SuperLU inverse applies dominate, and the stored
  basis is assembled with one GEMM.
- ``cli-files``: ``krymat gen`` then ``krymat solve-lyap`` on Matrix Market
  files, extended space, windowed.  The only workload that runs ``mmio``,
  ``cli`` and the extended-mode two-pass recovery.
"""

import contextlib
import io
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from krymat import cli, mmio, problems
from krymat.operators import SparseOperator
from krymat.solvers import SolveOptions, solve_lyapunov, true_lyapunov_residual

from tracing import TracedOperator

TOL = 1e-6
MAX_M = 2000
PROBLEM = "fd2d-exp"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    smoke_n: int
    s: int
    space: str
    storage: str
    check_period: int
    #: Right-hand sides per run, odd so that medians of counts are counts.
    #: Nine where a run fits them easily; five on lyap-extended, whose
    #: solves take seconds and whose residuals vary less between seeds.
    n_rhs: int = 9
    via_cli: bool = False

    def options(self):
        return SolveOptions(tol=TOL, max_m=MAX_M, check_period=self.check_period,
                            space=self.space, storage=self.storage)


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("lyap-monitor", n=24, smoke_n=12, s=2, space="standard",
                 storage="windowed", check_period=1),
        Workload("lyap-large", n=120, smoke_n=16, s=1, space="standard",
                 storage="windowed", check_period=20),
        Workload("lyap-extended", n=320, smoke_n=12, s=2, space="extended",
                 storage="stored", check_period=1, n_rhs=5),
        Workload("cli-files", n=128, smoke_n=12, s=2, space="extended",
                 storage="windowed", check_period=1, via_cli=True),
    )
}


@dataclass
class Outcome:
    """One solve: its wall time and what the solver reported."""

    rhs: int
    seconds: float
    traced: bool = False
    iterations: int = 0
    rank: int = 0
    final_residual: float = float("nan")
    peak_vectors: int = 0
    basis_s: float = 0.0
    residual_s: float = 0.0
    recovery_s: float = 0.0
    finite: bool = False
    error: str = None


class ApiCase:
    """Library workloads: one operator and several right-hand sides."""

    def __init__(self, wl, n, rhs_seeds, workdir):
        self.wl = wl
        self.n = n
        self.rhs_seeds = rhs_seeds
        self.opts = wl.options()
        self.op = None
        self.rhs = None
        self.factors = {}

    def setup(self, rep, tracer=None):
        """Generate the problem, build the operator and, for inverse applies,
        its sparse LU, so that no factorization is timed inside a solve."""
        self.op = None  # let the previous operator and its LU go first
        a = problems.gen_fd2d(PROBLEM, self.n)
        self.rhs = [problems.gen_rhs(a.shape[0], self.wl.s, seed)
                    for seed in self.rhs_seeds]
        self.op = SparseOperator(a)
        if self.wl.space == "extended":
            op = self.op if tracer is None else TracedOperator(self.op, tracer)
            op.factorization()

    def solve(self, k, tracer=None):
        op = self.op if tracer is None else TracedOperator(self.op, tracer)
        tic = time.perf_counter()
        with traced(tracer, "solve", "solvers.solve"):
            sol = solve_lyapunov(op, self.rhs[k], self.opts)
        out = Outcome(k, time.perf_counter() - tic, traced=tracer is not None)
        out.iterations, out.rank = sol.iterations, sol.rank
        out.final_residual = sol.final_residual
        out.peak_vectors = sol.peak_basis_vectors
        out.basis_s = sol.basis_seconds
        out.residual_s = sol.residual_seconds
        out.recovery_s = sol.recovery_seconds
        out.finite = bool(np.isfinite(sol.z).all())
        self.factors.setdefault(k, sol.z)
        return out

    def true_rel_residual(self, k):
        """||A Z Z' + Z Z' A + C C'||_F / ||C||_F^2 of the first factor for k."""
        c = self.rhs[k]
        return true_lyapunov_residual(self.op, self.factors[k], c) / np.linalg.norm(c) ** 2


class CliCase:
    """The file workflow: ``krymat gen`` in set-up, ``krymat solve-lyap`` per
    solve, both through ``krymat.cli.main`` in this process.

    Every command writes into a new directory, as a user would, so no run
    truncates files the previous one wrote (on ext4 that forces their
    write-back and makes timings depend on the disk).  Directories that
    are no longer needed are removed outside the timed regions.
    """

    def __init__(self, wl, n, rhs_seeds, workdir):
        self.wl = wl
        self.n = n
        self.rhs_seeds = rhs_seeds
        self.workdir = workdir
        self.problem_dirs = {}  # right-hand side -> its latest gen output
        self.first_outputs = {}  # right-hand side -> its first solve's output
        self._dirs = itertools.count()
        self._op = None

    def _new_dir(self):
        return os.path.join(self.workdir, "d%d" % next(self._dirs))

    def setup(self, rep, tracer=None):
        """One ``krymat gen``; set-up r writes right-hand side r mod R."""
        k = rep % len(self.rhs_seeds)
        out = self._new_dir()
        _quiet_cli([
            "gen", "--problem", PROBLEM, "--n", str(self.n), "--s", str(self.wl.s),
            "--seed", str(self.rhs_seeds[k]), "--out", out,
        ])
        stale = self.problem_dirs.get(k)
        self.problem_dirs[k] = out
        if stale is not None:
            shutil.rmtree(stale)

    def solve(self, k, tracer=None):
        prob, out_dir = self.problem_dirs[k], self._new_dir()
        argv = [
            "solve-lyap",
            "--A", os.path.join(prob, "A.mtx"),
            "--C", os.path.join(prob, "C1.mtx"),
            "--space", self.wl.space, "--storage", self.wl.storage,
            "--tol", repr(TOL), "--max-m", str(MAX_M),
            "--check-period", str(self.wl.check_period),
            "--out", out_dir,
        ]
        tic = time.perf_counter()
        with traced(tracer, "solve", "cli.main"):
            code = _quiet_cli(argv)
        out = Outcome(k, time.perf_counter() - tic, traced=tracer is not None)
        if code != 0:
            out.error = "krymat solve-lyap exited with %d" % code
            return out
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        out.iterations, out.rank = summary["iterations"], summary["rank"]
        out.final_residual = summary["final_relative_residual"]
        out.peak_vectors = summary["peak_basis_vectors"]
        out.basis_s = summary["basis_seconds"]
        out.residual_s = summary["residual_seconds"]
        out.recovery_s = summary["recovery_seconds"]
        with open(os.path.join(out_dir, "Z.mtx")) as fh:
            text = fh.read().lower()
        out.finite = "nan" not in text and "inf" not in text
        if k in self.first_outputs:
            shutil.rmtree(out_dir)
        else:
            self.first_outputs[k] = out_dir
        return out

    def true_rel_residual(self, k):
        """The residual of the first written ``Z.mtx`` for k, read back with
        ``mmio.read_array``, against the written ``C1.mtx``."""
        if self._op is None:
            self._op = SparseOperator(problems.gen_fd2d(PROBLEM, self.n))
        z = mmio.read_array(os.path.join(self.first_outputs[k], "Z.mtx"))
        c = mmio.read_array(os.path.join(self.problem_dirs[k], "C1.mtx"))
        return true_lyapunov_residual(self._op, z, c) / np.linalg.norm(c) ** 2


def traced(tracer, kind, root_name):
    """A traced region when tracing, else nothing."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.record(kind, root_name)


def _quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def make_case(wl, n, rhs_seeds, workdir):
    cls = CliCase if wl.via_cli else ApiCase
    return cls(wl, n, rhs_seeds, workdir)
