import numpy as np
import pytest
import scipy.sparse as sp

from krymat import (
    ConvergenceError,
    RecurrenceMismatchError,
    SolveOptions,
    SparseOperator,
    cholesky_transform,
    init_basis,
    kronecker_solve,
    lanczos_step,
    solve_lyapunov,
    solve_sylvester_one_sided,
    solve_sylvester_two_sided,
    true_lyapunov_residual,
    two_pass_recover,
)
from krymat.problems import gen_fd2d, gen_rhs, laplacian1d

from conftest import (
    dense_sylvester_residual,
    explicit_lyapunov_residual_ld,
    refined_reduced_lyapunov,
)


def _diag_op(values):
    return SparseOperator(sp.diags(values).tocsr())


class _DriftingOperator(SparseOperator):
    """Scales the k-th product by 1 + 1e-6 k: a nondeterministic operator."""

    calls = 0

    def apply(self, v):
        self.calls += 1
        return (1.0 + 1e-6 * self.calls) * super().apply(v)


class TestSolveLyapunov:
    def test_invariant_rhs_converges_immediately(self):
        op = _diag_op([-1.0] * 6)
        c = np.zeros((6, 1))
        c[0] = 1.0
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-10, max_m=5))
        assert sol.iterations == 1
        x = sol.z @ sol.z.T
        expected = np.zeros((6, 6))
        expected[0, 0] = 0.5
        assert np.allclose(x, expected, atol=1e-12)
        assert sol.final_residual <= 1e-12

    def test_against_kronecker_oracle(self):
        rng = np.random.default_rng(3)
        vals = -np.exp(rng.uniform(0.0, 3.0, 60))
        op = _diag_op(vals)
        c = gen_rhs(60, 1, seed=1)
        tol = 1e-8
        sol = solve_lyapunov(op, c, SolveOptions(tol=tol, max_m=60))
        x_ref = kronecker_solve(np.diag(vals), np.diag(vals), c, c)
        err = np.linalg.norm(sol.z @ sol.z.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c @ c.T)

    def test_residual_history_matches_true_residual(self):
        # the recorded cheap residuals are the true residual norms; the
        # explicit oracle runs in extended precision since forming the
        # residual matrix cancels ~ ||A|| ||X|| down to the residual size
        a = gen_fd2d("laplacian2d", 8)  # order 64
        op = SparseOperator(a)
        c = gen_rhs(64, 1, seed=2)
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=64))
        ad = a.toarray()
        window, state = init_basis(op, c, storage="stored")
        recorded = dict((m, rel) for m, _, rel, _, _ in sol.history)
        beta2 = float(np.linalg.norm(c) ** 2)
        for m in range(1, sol.iterations + 1):
            lanczos_step(op, window, state)
            if m not in recorded:
                continue
            y = refined_reduced_lyapunov(state.projected_matrix(), state.gamma)
            v = np.concatenate(window.basis_blocks(m), axis=1)
            truth = explicit_lyapunov_residual_ld(ad, v, y, c) / beta2
            assert abs(recorded[m] - truth) <= 1e-8 * truth

    def test_verify_flag_reports_true_residual(self):
        # audit-grade agreement: the Gram-based check carries an absolute
        # noise floor of about eps * ||A|| ||X||, so use a modest tolerance
        op = SparseOperator(gen_fd2d("laplacian2d", 8))
        c = gen_rhs(64, 2, seed=3)
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-4, max_m=80, verify=True))
        assert sol.verified_residual is not None
        assert abs(sol.verified_residual - sol.final_residual) \
            <= 1e-4 * sol.final_residual + 1e-10

    def test_check_period_controls_history(self):
        op = SparseOperator(gen_fd2d("laplacian2d", 8))
        c = gen_rhs(64, 1, seed=4)
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=80, check_period=5))
        assert all(m % 5 == 0 for m, _, _, _, _ in sol.history)
        assert sol.iterations % 5 == 0

    def test_nonconvergence_raises_with_history(self):
        op = SparseOperator(gen_fd2d("laplacian2d", 10))
        c = gen_rhs(100, 1, seed=5)
        with pytest.raises(ConvergenceError) as err:
            solve_lyapunov(op, c, SolveOptions(tol=1e-12, max_m=3))
        assert len(err.value.history) == 3

    def test_truncation_contract(self):
        op = SparseOperator(gen_fd2d("fd2d-exp", 8))
        c = gen_rhs(64, 2, seed=6)
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-9, max_m=64))
        assert sol.truncation_discarded <= 1e-12
        assert sol.rank <= sol.space_dim

    def test_extended_space_converges_faster(self):
        op = SparseOperator(gen_fd2d("laplacian2d", 12))
        c = gen_rhs(144, 1, seed=7)
        std = solve_lyapunov(op, c, SolveOptions(tol=1e-8, max_m=144))
        ext = solve_lyapunov(
            op, c, SolveOptions(tol=1e-8, max_m=60, space="extended")
        )
        assert ext.iterations < std.iterations
        assert true_lyapunov_residual(op, ext.z, c) / np.linalg.norm(c) ** 2 <= 1e-7


class TestTwoPass:
    def test_single_step_recovery(self):
        op = _diag_op([-1.0] * 6)
        c = np.zeros((6, 1))
        c[0] = 1.0
        stored = solve_lyapunov(op, c, SolveOptions(tol=1e-10, max_m=5))
        windowed = solve_lyapunov(
            op, c, SolveOptions(tol=1e-10, max_m=5, storage="windowed")
        )
        assert np.allclose(stored.z, windowed.z, atol=1e-14)

    @pytest.mark.parametrize("s", [1, 3])
    def test_windowed_equals_stored_at_fixed_depth(self, s):
        op = SparseOperator(gen_fd2d("laplacian2d", 20))  # order 400
        c = gen_rhs(400, s, seed=10 + s)
        m = 20
        win_s, st_s = init_basis(op, c, storage="stored")
        win_w, st_w = init_basis(op, c, storage="windowed")
        for _ in range(m):
            lanczos_step(op, win_s, st_s)
            lanczos_step(op, win_w, st_w)
        lam, q = np.linalg.eigh(st_s.projected_matrix().to_dense())
        u = q[:s, :].T @ st_s.gamma
        ytilde = -(u @ u.T) / (lam[:, None] + lam[None, :])
        from krymat import truncated_spd_factor
        qy = q @ truncated_spd_factor(0.5 * (ytilde + ytilde.T)).factor
        z_stored = np.concatenate(win_s.basis_blocks(m), axis=1) @ qy
        z_two_pass = two_pass_recover(op, st_w, qy, win_w)
        rel = np.linalg.norm(z_two_pass - z_stored) / np.linalg.norm(z_stored)
        assert rel <= 1e-12
        assert win_w.peak_vectors == 3 * s

    def test_full_solve_windowed_matches_stored(self):
        op = SparseOperator(gen_fd2d("fd2d-exp", 10))
        c = gen_rhs(100, 2, seed=12)
        stored = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=60))
        windowed = solve_lyapunov(
            op, c, SolveOptions(tol=1e-7, max_m=60, storage="windowed")
        )
        assert stored.iterations == windowed.iterations
        rel = np.linalg.norm(stored.z - windowed.z) / np.linalg.norm(stored.z)
        assert rel <= 1e-12

    def test_extended_windowed_two_pass(self):
        op = SparseOperator(gen_fd2d("laplacian2d", 12))
        c = gen_rhs(144, 2, seed=13)
        stored = solve_lyapunov(
            op, c, SolveOptions(tol=1e-8, max_m=40, space="extended")
        )
        windowed = solve_lyapunov(
            op, c,
            SolveOptions(tol=1e-8, max_m=40, space="extended", storage="windowed"),
        )
        assert stored.iterations == windowed.iterations
        rel = np.linalg.norm(stored.z - windowed.z) / np.linalg.norm(stored.z)
        assert rel <= 1e-12

    @pytest.mark.parametrize("space", ["standard", "extended"])
    def test_nondeterministic_operator_fails_replay(self, space):
        # the second pass regenerates the basis with a drifted operator, so
        # its first recomputed coupling block misses the stored one
        op = _DriftingOperator(gen_fd2d("fd2d-exp", 8))
        c = gen_rhs(64, 2, seed=1)
        opts = SolveOptions(tol=1e-8, max_m=64, space=space, storage="windowed")
        with pytest.raises(RecurrenceMismatchError, match="at step 2;"):
            solve_lyapunov(op, c, opts)


class TestSylvesterTwoSided:
    def test_invariant_rhs(self):
        op = _diag_op([-1.0] * 5)
        c = np.zeros((5, 1))
        c[0] = 1.0
        sol = solve_sylvester_two_sided(op, op, c, c, SolveOptions(tol=1e-10, max_m=4))
        assert sol.iterations == 1
        x = sol.z1 @ sol.z2.T
        expected = np.zeros((5, 5))
        expected[0, 0] = 0.5
        assert np.allclose(x, expected, atol=1e-12)

    def test_against_kronecker_oracle(self):
        rng = np.random.default_rng(14)
        w1 = rng.standard_normal((60, 60))
        w2 = rng.standard_normal((60, 60))
        a = -(w1 @ w1.T) / 60.0 - np.eye(60)
        b = -(w2 @ w2.T) / 60.0 - np.eye(60)
        c1 = gen_rhs(60, 2, seed=15)
        c2 = gen_rhs(60, 2, seed=16)
        tol = 1e-8
        sol = solve_sylvester_two_sided(
            SparseOperator(sp.csr_matrix(a)), SparseOperator(sp.csr_matrix(b)),
            c1, c2, SolveOptions(tol=tol, max_m=60),
        )
        x_ref = kronecker_solve(a, b, c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c1 @ c2.T)

    def test_extended_space_against_kronecker_oracle(self):
        rng = np.random.default_rng(40)
        w1 = rng.standard_normal((50, 50))
        w2 = rng.standard_normal((50, 50))
        a = -(w1 @ w1.T) / 50.0 - np.eye(50)
        b = -(w2 @ w2.T) / 50.0 - np.eye(50)
        c1 = gen_rhs(50, 1, seed=41)
        c2 = gen_rhs(50, 1, seed=42)
        tol = 1e-8
        sol = solve_sylvester_two_sided(
            SparseOperator(sp.csr_matrix(a)), SparseOperator(sp.csr_matrix(b)),
            c1, c2, SolveOptions(tol=tol, max_m=25, space="extended"),
        )
        x_ref = kronecker_solve(a, b, c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c1 @ c2.T)

    @pytest.mark.parametrize("space", ["standard", "extended"])
    def test_windowed_two_pass_matches_stored(self, space):
        a = gen_fd2d("fd2d-exp", 8)
        b = gen_fd2d("fd2d-trig", 8)
        c1 = gen_rhs(64, 2, seed=17)
        c2 = gen_rhs(64, 2, seed=18)
        stored = solve_sylvester_two_sided(
            SparseOperator(a), SparseOperator(b), c1, c2,
            SolveOptions(tol=1e-6, max_m=64, space=space),
        )
        windowed = solve_sylvester_two_sided(
            SparseOperator(a), SparseOperator(b), c1, c2,
            SolveOptions(tol=1e-6, max_m=64, space=space, storage="windowed"),
        )
        assert stored.iterations == windowed.iterations
        for z_s, z_w in ((stored.z1, windowed.z1), (stored.z2, windowed.z2)):
            assert np.linalg.norm(z_s - z_w) <= 1e-12 * np.linalg.norm(z_s)
        if space == "standard":
            # 3s blocks per side; extended mode also retains half-blocks
            assert windowed.peak_basis_vectors == 2 * 3 * 2

    @pytest.mark.parametrize("storage", ["stored", "windowed"])
    def test_one_space_invariant_early(self, storage):
        # the A space is invariant after one step, the B space is not: each
        # basis is stepped only until it alone becomes invariant
        a = -np.eye(6)
        b = gen_fd2d("laplacian2d", 6)
        c1 = np.zeros((6, 1))
        c1[0] = 1.0
        c2 = gen_rhs(36, 1, seed=3)
        sol = solve_sylvester_two_sided(
            SparseOperator(sp.csr_matrix(a)), SparseOperator(b), c1, c2,
            SolveOptions(tol=1e-10, max_m=40, storage=storage),
        )
        assert sol.iterations > 1
        x_ref = kronecker_solve(a, b.toarray(), c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 1e-12 * np.linalg.norm(x_ref)

    def test_true_residual_below_tolerance(self):
        a = gen_fd2d("fd2d-exp", 7)
        b = gen_fd2d("fd2d-trig", 7)
        c1 = gen_rhs(49, 1, seed=19)
        c2 = gen_rhs(49, 1, seed=20)
        tol = 1e-7
        sol = solve_sylvester_two_sided(
            SparseOperator(a), SparseOperator(b), c1, c2,
            SolveOptions(tol=tol, max_m=49),
        )
        truth = dense_sylvester_residual(
            a.toarray(), b.toarray(), sol.z1, sol.z2, c1, c2
        )
        assert truth / (np.linalg.norm(c1) * np.linalg.norm(c2)) <= tol * 1.01


class TestSylvesterOneSided:
    def test_rank_one_b_is_shifted_system(self):
        a = laplacian1d(40)
        b = np.array([[-2.5]])
        c1 = gen_rhs(40, 1, seed=21)
        c2 = np.array([[1.3]])
        sol = solve_sylvester_one_sided(
            SparseOperator(a), b, c1, c2, SolveOptions(tol=1e-10, max_m=40)
        )
        x = sol.z1 @ sol.z2.T
        shifted = a.toarray() + b[0, 0] * np.eye(40)
        x_ref = np.linalg.solve(shifted, -c1 * c2[0, 0])
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)

    def test_against_kronecker_oracle(self):
        rng = np.random.default_rng(22)
        a = laplacian1d(200)
        w = rng.standard_normal((12, 12))
        b = -(w @ w.T) - np.eye(12)
        c1 = gen_rhs(200, 2, seed=23)
        c2 = gen_rhs(12, 2, seed=24)
        tol = 1e-8
        sol = solve_sylvester_one_sided(
            SparseOperator(a), b, c1, c2, SolveOptions(tol=tol, max_m=200)
        )
        x_ref = kronecker_solve(a.toarray(), b, c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c1 @ c2.T)

    def test_extended_space(self):
        a = gen_fd2d("laplacian2d", 10)
        w = np.diag(-np.arange(1.0, 6.0))
        c1 = gen_rhs(100, 1, seed=43)
        c2 = gen_rhs(5, 1, seed=44)
        tol = 1e-8
        sol = solve_sylvester_one_sided(
            SparseOperator(a), w, c1, c2,
            SolveOptions(tol=tol, max_m=40, space="extended"),
        )
        x_ref = kronecker_solve(a.toarray(), w, c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c1 @ c2.T)

    @pytest.mark.parametrize("space", ["standard", "extended"])
    def test_windowed_matches_stored(self, space):
        a = gen_fd2d("laplacian2d", 9)
        w = np.diag(-np.arange(1.0, 8.0))
        c1 = gen_rhs(81, 2, seed=25)
        c2 = gen_rhs(7, 2, seed=26)
        stored = solve_sylvester_one_sided(
            SparseOperator(a), w, c1, c2, SolveOptions(tol=1e-8, max_m=81, space=space)
        )
        windowed = solve_sylvester_one_sided(
            SparseOperator(a), w, c1, c2,
            SolveOptions(tol=1e-8, max_m=81, space=space, storage="windowed"),
        )
        assert stored.iterations == windowed.iterations
        assert np.linalg.norm(stored.z1 - windowed.z1) \
            <= 1e-12 * np.linalg.norm(stored.z1)
        assert np.array_equal(stored.z2, windowed.z2)


def test_history_deterministic_across_runs():
    op = SparseOperator(gen_fd2d("fd2d-exp", 9))
    c = gen_rhs(81, 2, seed=50)
    runs = []
    for _ in range(2):
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=60))
        runs.append([(m, dim, rel) for m, dim, rel, _, _ in sol.history])
    assert runs[0] == runs[1]


def test_truncation_changes_residual_within_bound():
    # dropping tail mass eps from the reduced solution moves X by at most
    # about eps and the true residual by at most ~ 2 ||A|| eps
    a = gen_fd2d("laplacian2d", 9)
    op = SparseOperator(a)
    c = gen_rhs(81, 2, seed=51)
    tight = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=60, trunc_eps=1e-16))
    loose = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=60, trunc_eps=1e-12))
    assert loose.rank <= tight.rank
    x_diff = np.linalg.norm(tight.z @ tight.z.T - loose.z @ loose.z.T)
    assert x_diff <= 1.5e-12

    def exact_residual(z):
        al = a.toarray().astype(np.longdouble)
        x = z.astype(np.longdouble) @ z.astype(np.longdouble).T
        cl = c.astype(np.longdouble)
        return float(np.linalg.norm(al @ x + x @ al + cl @ cl.T))

    a_norm = np.abs(np.linalg.eigvalsh(a.toarray())).max()
    assert abs(exact_residual(tight.z) - exact_residual(loose.z)) \
        <= 2.0 * a_norm * x_diff + 1e-13


def test_generalized_equation_via_cholesky_transform():
    # A X E + E X A + C C^T = 0 handled through the congruence transform;
    # mild conditioning so convergence happens well before m reaches n
    rng = np.random.default_rng(30)
    n = 40
    w = rng.standard_normal((n, n))
    a = sp.csr_matrix(-(w @ w.T) / n - np.eye(n))
    w2 = 0.1 * rng.standard_normal((n, n))
    e = sp.csr_matrix(np.eye(n) + 0.5 * (w2 + w2.T))
    op = cholesky_transform(e, a)
    c = gen_rhs(n, 1, seed=31)
    sol = solve_lyapunov(op, op.transform_rhs(c), SolveOptions(tol=1e-9, max_m=n))
    z = op.untransform_factor(sol.z)
    x = z @ z.T
    ad, ed = a.toarray(), e.toarray()
    res = np.linalg.norm(ad @ x @ ed + ed @ x @ ad + c @ c.T)
    assert res <= 1e-7 * np.linalg.norm(c @ c.T)
