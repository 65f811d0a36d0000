"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in the captured output); a failure carries the offending numbers in the
assertion message.  Criterion 6's full-scale iteration-count reproduction is
gated behind ``--paper-scale``; its desk-scale substitute runs by default.
"""

import gc
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp

import krymat
from krymat import (
    BlockTridiagonal,
    SolveOptions,
    SparseOperator,
    ctri_lyapunov,
    ctri_sylvester,
    init_basis,
    lanczos_step,
    naive_residual,
    solve_lyapunov,
    solve_reduced_lyapunov,
    solve_sylvester_one_sided,
    solve_sylvester_two_sided,
    truncated_spd_factor,
    two_pass_recover,
)
from krymat.problems import gen_fd2d, gen_fd3d_split, gen_rhs

from conftest import (
    explicit_lyapunov_residual_ld,
    full_solve,
    lanczos_block_tridiagonal,
    naive_residual_norm,
    reduced_solve,
    refined_reduced_lyapunov,
)


def _report(number, detail):
    print("ACCEPTANCE %d PASS: %s" % (number, detail))


def _random_negdef_dense(rng, n):
    w = rng.standard_normal((n, n))
    return -(w @ w.T) / n - np.eye(n)


def test_criterion_1_residual_formula_equivalence():
    rng = np.random.default_rng(1001)
    tic = time.perf_counter()
    worst = 0.0
    for i in range(200):
        s = int(rng.choice([1, 2, 4]))
        m = int(rng.integers(1, 41))
        t, tau = lanczos_block_tridiagonal(rng, s, m, general=bool(i % 3 == 0))
        gamma = rng.standard_normal((s, s))
        fast = ctri_lyapunov(t, gamma, tau).res
        ref = naive_residual_norm(reduced_solve(t, t, gamma, gamma), tau, tau)
        worst = max(worst, abs(fast - ref) / ref)
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-10, "worst relative disagreement %.3e" % worst
    assert elapsed < 30.0, "ran %.1f s" % elapsed
    _report(1, "200 instances, worst relative disagreement %.2e in %.1f s"
            % (worst, elapsed))


def test_criterion_2_end_to_end_residual_truth():
    tic = time.perf_counter()
    a = gen_fd2d("laplacian2d", 16)  # order 256
    op = SparseOperator(a)
    c = gen_rhs(256, 2, seed=1002)
    sol = solve_lyapunov(op, c, SolveOptions(tol=1e-6, max_m=128))
    recorded = dict((m, rel) for m, _, rel, _, _ in sol.history)
    beta2 = float(np.linalg.norm(c) ** 2)
    ad = a.toarray()
    basis = init_basis(op, c, storage="stored")
    worst = 0.0
    for m in range(1, sol.iterations + 1):
        lanczos_step(op, basis)
        if m not in recorded:
            continue
        y = refined_reduced_lyapunov(basis.projected_matrix(), basis.gamma)
        v = np.concatenate(basis.stored[:m], axis=1)
        truth = explicit_lyapunov_residual_ld(ad, v, y, c) / beta2
        worst = max(worst, abs(recorded[m] - truth) / truth)
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-8, "worst relative disagreement %.3e" % worst
    assert elapsed < 60.0, "ran %.1f s" % elapsed
    _report(2, "%d checked iterations, worst disagreement %.2e in %.1f s"
            % (sol.iterations, worst, elapsed))


def test_criterion_3_sylvester_residual_equivalence():
    rng = np.random.default_rng(1003)
    worst_two = 0.0
    for _ in range(100):
        s = int(rng.choice([1, 2, 4]))
        m = int(rng.integers(1, 41))
        t, tau = lanczos_block_tridiagonal(rng, s, m)
        j, iota = lanczos_block_tridiagonal(rng, s, m)
        g1 = rng.standard_normal((s, s))
        g2 = rng.standard_normal((s, s))
        fast = ctri_sylvester(t, j, g1, g2, tau, iota).res
        ref = naive_residual_norm(reduced_solve(t, j, g1, g2), tau, iota)
        worst_two = max(worst_two, abs(fast - ref) / ref)
    assert worst_two <= 1e-10, "two-sided disagreement %.3e" % worst_two

    worst_one = 0.0
    for _ in range(100):
        s = int(rng.choice([1, 2, 4]))
        m = int(rng.integers(1, 41))
        n2 = int(rng.integers(2, 16))
        t, tau = lanczos_block_tridiagonal(rng, s, m)
        # B's spectrum reaches toward zero like T's, so the one-sided
        # residual stays well above the double-precision noise floor
        w = rng.standard_normal((n2, n2))
        b = -0.3 * (w @ w.T) / n2 - 0.02 * np.eye(n2)
        ups, p = np.linalg.eigh(b)
        g1 = rng.standard_normal((s, s))
        c2 = rng.standard_normal((n2, s))
        fast = ctri_sylvester(t, (ups, p), g1, p.T @ c2, tau,
                              rhs_norm=np.linalg.norm(g1) * np.linalg.norm(c2)).res
        ref = naive_residual_norm(reduced_solve(t, b, g1, c2), tau)
        worst_one = max(worst_one, abs(fast - ref) / ref)
    assert worst_one <= 1e-10, "one-sided disagreement %.3e" % worst_one
    _report(3, "100 + 100 instances, worst disagreement %.2e / %.2e"
            % (worst_two, worst_one))


def test_criterion_4_oracle_convergence():
    rng = np.random.default_rng(1004)
    tol = 1e-6
    opts = SolveOptions(tol=tol, max_m=120)
    tic = time.perf_counter()
    checked = 0

    def check(err, scale):
        nonlocal checked
        checked += 1
        assert err <= 10.0 * tol * scale, (
            "problem %d: error %.3e > %.3e" % (checked, err, 10 * tol * scale)
        )

    for n, s in ((40, 1), (50, 2), (60, 1), (64, 3), (70, 2), (45, 1), (56, 2)):
        a = _random_negdef_dense(rng, n)
        c = gen_rhs(n, s, seed=int(rng.integers(2**31)))
        sol = solve_lyapunov(SparseOperator(sp.csr_matrix(a)), c, opts)
        x_ref = full_solve(a, a, c, c)
        check(np.linalg.norm(sol.z @ sol.z.T - x_ref), np.linalg.norm(c @ c.T))

    for n1, n2, s in ((50, 50, 1), (60, 40, 2), (40, 60, 1),
                      (55, 45, 2), (64, 36, 3), (48, 52, 1)):
        a = _random_negdef_dense(rng, n1)
        b = _random_negdef_dense(rng, n2)
        c1 = gen_rhs(n1, s, seed=int(rng.integers(2**31)))
        c2 = gen_rhs(n2, s, seed=int(rng.integers(2**31)))
        sol = solve_sylvester_two_sided(
            SparseOperator(sp.csr_matrix(a)), SparseOperator(sp.csr_matrix(b)),
            c1, c2, opts,
        )
        x_ref = full_solve(a, b, c1, c2)
        check(np.linalg.norm(sol.z1 @ sol.z2.T - x_ref),
              np.linalg.norm(c1 @ c2.T))

    for n1, n2, s in ((150, 8, 1), (200, 12, 2), (300, 10, 1), (256, 6, 2),
                      (180, 14, 3), (120, 20, 1), (400, 9, 2)):
        a = sp.csr_matrix(_random_negdef_dense(rng, n1))
        b = _random_negdef_dense(rng, n2)
        c1 = gen_rhs(n1, s, seed=int(rng.integers(2**31)))
        c2 = gen_rhs(n2, s, seed=int(rng.integers(2**31)))
        sol = solve_sylvester_one_sided(SparseOperator(a), b, c1, c2, opts)
        x_ref = full_solve(a.toarray(), b, c1, c2)
        check(np.linalg.norm(sol.z1 @ sol.z2.T - x_ref),
              np.linalg.norm(c1 @ c2.T))

    elapsed = time.perf_counter() - tic
    assert checked == 20
    assert elapsed < 120.0, "ran %.1f s" % elapsed
    _report(4, "20 problems against scipy's Bartels-Stewart solver in %.1f s"
            % elapsed)


@pytest.mark.parametrize("s", [1, 3])
def test_criterion_5_two_pass_equivalence_and_memory(s):
    tic = time.perf_counter()
    op = SparseOperator(gen_fd2d("laplacian2d", 20))  # order 400
    c = gen_rhs(400, s, seed=1005 + s)
    m = 30
    stored = init_basis(op, c, storage="stored")
    windowed = init_basis(op, c, storage="windowed")
    for _ in range(m):
        lanczos_step(op, stored)
        lanczos_step(op, windowed)
    lam, q = np.linalg.eigh(stored.projected_matrix().to_dense())
    u = q[:s, :].T @ stored.gamma
    ytilde = -(u @ u.T) / (lam[:, None] + lam[None, :])
    qy = q @ truncated_spd_factor(0.5 * (ytilde + ytilde.T))[0]
    z_stored = np.concatenate(stored.stored[:m], axis=1) @ qy
    z_two_pass = two_pass_recover(op, windowed, qy)
    rel = np.linalg.norm(z_two_pass - z_stored) / np.linalg.norm(z_stored)
    elapsed = time.perf_counter() - tic
    assert rel <= 1e-12, "factors differ by %.3e relative" % rel
    assert windowed.peak_vectors == 3 * s, (
        "peak basis vectors %d != 3s" % windowed.peak_vectors
    )
    assert elapsed < 30.0, "ran %.1f s" % elapsed
    _report(5, "s=%d: windowed == stored to %.2e, peak storage %d vectors"
            % (s, rel, windowed.peak_vectors))


def test_criterion_6_desk_scale_convergence():
    # desk-scale substitute for the full-size iteration-count reproduction
    op = SparseOperator(gen_fd2d("fd2d-exp", 32))  # order 1024
    c = gen_rhs(1024, 1, seed=1006)
    sol = solve_lyapunov(op, c, SolveOptions(tol=1e-6, max_m=400))
    assert sol.final_residual <= 1e-6
    dims = [dim for _, dim, _, _, _ in sol.history]
    assert all(b > a for a, b in zip(dims, dims[1:])), "space growth not monotone"
    _report(6, "desk scale: converged at m=%d with monotone space growth"
            % sol.iterations)


@pytest.mark.paper_scale
@pytest.mark.parametrize("s,expected", [(1, 444), (4, 319), (8, 250)])
def test_criterion_6_paper_scale_iteration_counts(s, expected):
    op = SparseOperator(gen_fd2d("fd2d-exp", 148))  # order 21904
    c = gen_rhs(21904, s, seed=1100 + s)
    sol = solve_lyapunov(
        op, c,
        SolveOptions(tol=1e-6, max_m=700, check_period=1, storage="windowed"),
    )
    low, high = 0.85 * expected, 1.15 * expected
    assert low <= sol.iterations <= high, (
        "s=%d: %d iterations outside [%d, %d]"
        % (s, sol.iterations, int(low), int(high))
    )
    _report(6, "paper scale s=%d: %d iterations (expected %d +- 15%%)"
            % (s, sol.iterations, expected))


def _paper_count_s1():
    """Iterations of the paper's s = 1 Lyapunov run (fd2d-exp, order 21904)."""
    op = SparseOperator(gen_fd2d("fd2d-exp", 148))
    c = gen_rhs(21904, 1, seed=1101)
    return solve_lyapunov(
        op, c,
        SolveOptions(tol=1e-6, max_m=700, check_period=1, storage="windowed"),
    ).iterations


def test_criterion_6_paper_count_s1():
    # tier-1 twin of the s = 1 paper-scale count: about 2.3 s on one BLAS
    # thread, which the child process is pinned to
    expected = 444
    iterations = json.loads(_pinned_child("t._paper_count_s1()", timeout=120))
    low, high = 0.85 * expected, 1.15 * expected
    assert low <= iterations <= high, (
        "s=1: %d iterations outside [%d, %d]" % (iterations, int(low), int(high))
    )
    _report(6, "paper scale s=1: %d iterations (expected %d +- 15%%)"
            % (iterations, expected))


@pytest.mark.paper_scale
def test_paper_scale_sylvester_two_sided_iterations():
    # exp/trig operator pair of order 16384, s = 3: expected 217 iterations.
    # Note: the Lyapunov counts above reproduce, but the reference counts for
    # the Sylvester runs depend on an unstated residual normalization; with
    # the factor-norm-product normalization used here the counts come out
    # higher (see the one-sided case), so this check may fail honestly.
    a = gen_fd2d("fd2d-exp", 128)
    b = gen_fd2d("fd2d-trig", 128)
    c1 = gen_rhs(16384, 3, seed=1201)
    c2 = gen_rhs(16384, 3, seed=1202)
    sol = solve_sylvester_two_sided(
        SparseOperator(a), SparseOperator(b), c1, c2,
        SolveOptions(tol=1e-6, max_m=400, storage="windowed"),
    )
    assert 0.85 * 217 <= sol.iterations <= 1.15 * 217, (
        "%d iterations outside 217 +- 15%%" % sol.iterations
    )
    _report(6, "two-sided Sylvester full scale: %d iterations (expected 217)"
            % sol.iterations)


@pytest.mark.paper_scale
def test_paper_scale_sylvester_one_sided_iterations():
    # 3-D split: A of order 148^2 = 21904, B of order 148, s = 3: expected
    # 190.  Measured here: ~260 (the trajectory passes 1.75e-4 at m = 190);
    # same normalization caveat as the two-sided case, kept failing honestly.
    a, b = gen_fd3d_split(148)
    c1 = gen_rhs(21904, 3, seed=1203)
    c2 = gen_rhs(148, 3, seed=1204)
    sol = solve_sylvester_one_sided(
        SparseOperator(a), b.toarray(), c1, c2,
        SolveOptions(tol=1e-6, max_m=400, storage="windowed"),
    )
    assert 0.85 * 190 <= sol.iterations <= 1.15 * 190, (
        "%d iterations outside 190 +- 15%%" % sol.iterations
    )
    _report(6, "one-sided Sylvester full scale: %d iterations (expected 190)"
            % sol.iterations)


def test_criterion_7_extended_vs_standard():
    tic = time.perf_counter()
    op = SparseOperator(gen_fd2d("laplacian2d", 64))  # order 4096
    c = gen_rhs(4096, 2, seed=1007)
    std = solve_lyapunov(
        op, c, SolveOptions(tol=1e-6, max_m=400, check_period=5)
    )
    ext = solve_lyapunov(
        op, c, SolveOptions(tol=1e-6, max_m=100, space="extended")
    )
    elapsed = time.perf_counter() - tic
    assert ext.iterations <= std.iterations / 4, (
        "extended %d vs standard %d" % (ext.iterations, std.iterations)
    )
    assert elapsed < 60.0, "ran %.1f s" % elapsed
    _report(7, "extended %d vs standard %d iterations in %.1f s"
            % (ext.iterations, std.iterations, elapsed))


def _cost_scaling_times(sizes, passes):
    """Best-of time of the cheap and the classical residual at each size.

    Sizes are timed round-robin, so a slow spell of a shared machine falls
    on every size alike instead of skewing one end of the fit.  A pass
    times size k (max/k)^2 times: the cheap small sizes get the most reps,
    since their best-of time is the noisiest.  The collector is off while
    timing, as in timeit.  The minimum is the noise-robust estimator for
    scaling fits.
    """

    def chain(k, seed):
        rng = np.random.default_rng(seed)
        band = np.zeros((2, k))
        band[0] = -2.0 - rng.uniform(0.0, 0.1, k)
        band[1, :-1] = 1.0
        return BlockTridiagonal(1, band)

    chains = [chain(k, seed=k) for k in sizes]
    reps_fast = {k: [] for k in sizes}
    reps_naive = {k: [] for k in sizes}
    gamma = np.array([[1.0]])
    tau = np.array([[0.5]])
    for t in chains:
        ctri_lyapunov(t, gamma, tau)  # warm up caches and imports
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(passes):
            for k, t in zip(sizes, chains):
                for _ in range((max(sizes) // k) ** 2):
                    t0 = time.perf_counter()
                    ctri_lyapunov(t, gamma, tau)
                    reps_fast[k].append(time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    naive_residual(solve_reduced_lyapunov(t, gamma), tau)
                    reps_naive[k].append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return (
        [min(reps_fast[k]) for k in sizes],
        [min(reps_naive[k]) for k in sizes],
    )


def _pinned_child(expression, timeout):
    """The JSON of ``expression``, evaluated with this module as ``t`` in a
    child process whose BLAS and OpenMP pools are pinned to one thread
    before numpy loads."""
    here = os.path.dirname(os.path.abspath(__file__))
    package_root = os.path.dirname(os.path.dirname(krymat.__file__))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (here, package_root, env.get("PYTHONPATH")) if p
    )
    script = "import json, test_acceptance as t; print(json.dumps(%s))" % expression
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=here,
        capture_output=True, text=True, timeout=timeout,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1]


def test_criterion_8_cost_scaling():
    # The timing runs in a child process pinned to one BLAS thread: a
    # multi-threaded BLAS pool makes the small sizes' times swing by 2x on a
    # shared machine, which moves the fitted slope by more than its margin.
    sizes = [100, 200, 400, 800]
    tic = time.perf_counter()
    t_fast, t_naive = json.loads(
        _pinned_child("t._cost_scaling_times(%r, passes=6)" % (sizes,), timeout=300))
    logs = np.log(sizes)
    slope_fast = np.polyfit(logs, np.log(t_fast), 1)[0]
    slope_naive = np.polyfit(logs, np.log(t_naive), 1)[0]
    elapsed = time.perf_counter() - tic
    assert slope_fast <= 2.5, "cheap path slope %.2f" % slope_fast
    assert slope_naive >= 2.7, "classical path slope %.2f" % slope_naive
    # at the largest size the cheap path must also win in absolute time
    assert t_fast[-1] < t_naive[-1], (
        "at size 800: cheap %.3fs vs classical %.3fs" % (t_fast[-1], t_naive[-1])
    )
    assert elapsed < 120.0, "ran %.1f s" % elapsed
    _report(8, "log-log slopes: cheap %.2f (<= 2.5), classical %.2f (>= 2.7)"
            % (slope_fast, slope_naive))


def test_criterion_9_truncation_contract():
    opts = SolveOptions(tol=1e-6, max_m=200)
    solutions = []
    op = SparseOperator(gen_fd2d("fd2d-exp", 12))
    c = gen_rhs(144, 2, seed=1009)
    solutions.append(solve_lyapunov(op, c, opts))
    solutions.append(solve_lyapunov(
        op, c, SolveOptions(tol=1e-6, max_m=60, space="extended")
    ))
    a2 = gen_fd2d("fd2d-exp", 10)
    b2 = gen_fd2d("fd2d-trig", 10)
    solutions.append(solve_sylvester_two_sided(
        SparseOperator(a2), SparseOperator(b2),
        gen_rhs(100, 2, seed=1010), gen_rhs(100, 2, seed=1011), opts,
    ))
    a3, b3 = gen_fd3d_split(10)
    solutions.append(solve_sylvester_one_sided(
        SparseOperator(a3), b3.toarray(),
        gen_rhs(100, 3, seed=1012), gen_rhs(10, 3, seed=1013), opts,
    ))
    for sol in solutions:
        assert sol.truncation_discarded <= 1e-12, (
            "discarded mass %.3e" % sol.truncation_discarded
        )
        assert sol.rank <= sol.space_dim
    _report(9, "4 solves: discarded mass <= 1e-12, rank <= space dimension")
